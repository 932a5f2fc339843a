import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from superlie.fields import Field, QQ
from superlie.io import load_algebra
from oracles import (
    field_normal as _field_normal,
    intersect_oracle,
    quotient_coords_all_rows,
    reduce_all_rows,
    rref_oracle,
)
from superlie.linalg import (
    AmbientMismatch,
    ContainmentError,
    Echelon,
    Matrix,
    Subquotient,
    Subspace,
    vec_axpy,
    vec_sub,
)

F3, F5, F7 = Field(3), Field(5), Field(7)


def mat(field, nrows, cols):
    return Matrix(field, nrows, cols)


# -- rank -------------------------------------------------------------------

def test_rank_empty():
    assert mat(QQ, 0, []).rank() == 0


def test_rank_identity():
    assert Matrix.identity(QQ, 3).rank() == 3


def test_rank_dependent_columns():
    # [[1,2],[2,4]] has rank 1
    m = mat(QQ, 2, [{0: 1, 1: 2}, {0: 2, 1: 4}])
    assert m.rank() == 1


# -- kernels ----------------------------------------------------------------

def test_kernel_identity():
    assert Matrix.identity(QQ, 2).kernel_basis().dim == 0


def test_kernel_zero_matrix():
    assert Matrix.zero(QQ, 2, 3).kernel_basis().dim == 3


def test_kernel_single_row():
    # [[1,1,0]]: kernel of dimension 2 by rank-nullity
    m = mat(QQ, 1, [{0: 1}, {0: 1}, {}])
    k = m.kernel_basis()
    assert k.dim == 2
    for v in k.rows:
        assert not m.apply(dict(v))


# -- subquotients -------------------------------------------------------------

def test_subquotient_trivial():
    top = Subspace(QQ, 3, [{0: 1}, {1: 1}])
    assert Subquotient(top, top).dim == 0


def test_subquotient_full_mod_zero():
    top = Subspace.full(QQ, 2)
    sq = Subquotient(top, Subspace(QQ, 2, []))
    assert sq.dim == 2
    assert sq.reduce({0: 3, 1: 5}) == {0: 3, 1: 5}


def test_subquotient_plane_mod_line():
    top = Subspace(QQ, 3, [{0: 1}, {1: 1}])
    bottom = Subspace(QQ, 3, [{0: 1, 1: 1}])
    sq = Subquotient(top, bottom)
    assert sq.dim == 1
    for i, s in enumerate(sq.section):
        coords = sq.reduce(s)
        assert coords == {i: 1}


def test_coordinates_are_nonzero_and_field_normal():
    """Integral Fractions come back as ints, and a coefficient that is 0 in
    the field is absent."""
    top = Subspace(QQ, 3, [{0: 1, 2: 1}, {1: 1}])
    sq = Subquotient(top, Subspace(QQ, 3, [{1: 1}]))
    v = {0: Fraction(4, 2), 1: Fraction(1, 2), 2: Fraction(4, 2)}
    assert top.coords(v) == {0: 2, 1: Fraction(1, 2)} and type(top.coords(v)[0]) is int
    assert sq.reduce(v) == {0: 2} and type(sq.reduce(v)[0]) is int
    assert Subspace(F5, 3, top.rows).coords({0: 7, 1: 5, 2: 7}) == {0: 2}


def test_subquotient_containment_error():
    top = Subspace(QQ, 3, [{0: 1}])
    bottom = Subspace(QQ, 3, [{1: 1}])
    with pytest.raises(ContainmentError):
        Subquotient(top, bottom)


def test_reduce_rejects_outside_vector():
    top = Subspace(QQ, 3, [{0: 1}])
    sq = Subquotient(top, Subspace(QQ, 3, []))
    with pytest.raises(ContainmentError):
        sq.reduce({1: 1})


# -- intersections ------------------------------------------------------------

def test_intersect_self():
    a = Subspace(QQ, 3, [{0: 1, 2: 2}, {1: 1}])
    assert a.intersect(a) == a


def test_intersect_complementary_lines():
    a = Subspace(QQ, 2, [{0: 1}])
    b = Subspace(QQ, 2, [{1: 1}])
    assert a.intersect(b).dim == 0


def test_intersect_planes_in_3space():
    a = Subspace(QQ, 3, [{0: 1}, {1: 1}])
    b = Subspace(QQ, 3, [{1: 1}, {2: 1}])
    i = a.intersect(b)
    assert i.dim == 1
    assert i.contains_vec({1: 1})


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("field", [QQ, F3, F5, F7], ids=str)
def test_intersect_matches_the_dense_kernel(field, seed):
    """Nested, equal and crossing spans, the zero and the whole space among
    them: the intersection is the oracle's, and it is the smaller span
    itself when the larger one contains it."""
    rng = random.Random(seed)
    n = 6

    def span(k):
        return [{j: rng.randint(-3, 3) for j in rng.sample(range(n), 3)} for _ in range(k)]

    small = span(2)
    cases = {
        "nested": (small, small + span(2)),
        "equal": (small, [vec_sub(small[0], small[1]), small[1]]),
        "crossing": (small + span(1), small + span(2)),
        "transverse": (span(3), span(3)),
        "zero": ([], span(3)),
        "whole": (span(2), [{j: 1} for j in range(n)]),
    }
    for name, (u, v) in cases.items():
        a, b = Subspace(field, n, u), Subspace(field, n, v)
        if name == "whole":
            b = Subspace.full(field, n)
        for x, y in ((a, b), (b, a)):
            got = x.intersect(y)
            assert got.rows == intersect_oracle(x, y), name
            lo, hi = (x, y) if x.dim <= y.dim else (y, x)
            if hi.contains(lo):
                assert got is lo, name


def test_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        Subspace(QQ, 2, [{0: 1}]).intersect(Subspace(QQ, 3, [{0: 1}]))


# -- solve --------------------------------------------------------------------

def test_solve_simple():
    m = mat(QQ, 2, [{0: 1, 1: 1}, {0: 2, 1: 3}])
    b = {0: Fraction(5), 1: Fraction(8)}
    x = m.solve(b)
    assert m.apply(x) == b


def test_solve_inconsistent():
    m = mat(QQ, 2, [{0: 1, 1: 1}])
    assert m.solve({0: 1, 1: 2}) is None


def test_solve_mod_p():
    m = mat(F5, 2, [{0: 2, 1: 1}, {0: 1, 1: 3}])
    b = {0: 4, 1: 2}
    x = m.solve(b)
    got = m.apply(x)
    assert {k: v % 5 for k, v in got.items() if v % 5} == b


# -- properties ---------------------------------------------------------------

small_scalar = st.integers(min_value=-6, max_value=6)


def _matrix_strategy(draw, field):
    nrows = draw(st.integers(min_value=0, max_value=5))
    ncols = draw(st.integers(min_value=0, max_value=5))
    cols = []
    for _ in range(ncols):
        col = {}
        for r in range(nrows):
            v = draw(small_scalar)
            if v:
                col[r] = field.of(v)
        cols.append(col)
    return Matrix(field, nrows, cols)


@st.composite
def matrices_q(draw):
    return _matrix_strategy(draw, QQ)


@st.composite
def matrices_f5(draw):
    return _matrix_strategy(draw, F5)


@settings(max_examples=60, deadline=None)
@given(matrices_q())
def test_rank_nullity_q(m):
    assert m.rank() + m.kernel_basis().dim == m.ncols


@settings(max_examples=60, deadline=None)
@given(matrices_f5())
def test_rank_nullity_f5(m):
    assert m.rank() + m.kernel_basis().dim == m.ncols


@settings(max_examples=60, deadline=None)
@given(matrices_q(), st.randoms(use_true_random=False))
def test_canonical_echelon_shuffle_invariant(m, rnd):
    rows = m.row_list()
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    a = Subspace(QQ, m.ncols, rows)
    b = Subspace(QQ, m.ncols, shuffled)
    assert a == b
    # idempotence: canonicalizing the canonical rows changes nothing
    assert Subspace(QQ, m.ncols, a.rows) == a


@settings(max_examples=40, deadline=None)
@given(matrices_q(), matrices_q())
def test_grassmann_identity(m1, m2):
    n = max(m1.nrows, m2.nrows, 1)
    a = Subspace(QQ, n, m1.cols)
    b = Subspace(QQ, n, m2.cols)
    inter = a.intersect(b)
    total = Subspace(QQ, n, a.rows + b.rows)
    assert a.dim + b.dim == inter.dim + total.dim


@settings(max_examples=40, deadline=None)
@given(matrices_q())
def test_reduce_lift_identity(m):
    ker = m.kernel_basis()
    full = Subspace.full(QQ, m.ncols)
    sq = Subquotient(full, ker)
    for i in range(sq.dim):
        coords = {i: 1}
        assert sq.reduce(sq.lift(coords)) == coords


@settings(max_examples=40, deadline=None)
@given(matrices_q())
def test_lift_reduce_differs_by_bottom(m):
    ker = m.kernel_basis()
    full = Subspace.full(QQ, m.ncols)
    sq = Subquotient(full, ker)
    from superlie.linalg import vec_sub

    for v in ({i: 1} for i in range(m.ncols)):
        diff = vec_sub(sq.lift(sq.reduce(v)), v)
        assert ker.contains_vec(diff)


@st.composite
def spans_and_probes(draw):
    """A field, rows spanning a subspace written in a permuted, rescaled
    basis, probe vectors inside the span (combinations of the rows) and
    arbitrary probe vectors (mostly outside)."""
    field = draw(st.sampled_from([QQ, F3, F5, F7]))
    m = _matrix_strategy(draw, field)
    n = m.ncols
    perm = draw(st.permutations(range(n)))
    if field.p is None:
        scales = [draw(st.sampled_from([1, -1, 2, -3, Fraction(1, 2)])) for _ in range(n)]
    else:
        scales = [draw(st.integers(min_value=1, max_value=field.p - 1)) for _ in range(n)]

    def rebase(v: dict) -> dict:
        return {perm[j]: field.of(scales[j] * c) for j, c in v.items()}

    rows = [rebase(r) for r in m.row_list()]
    inside = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        v: dict = {}
        for r in rows:
            vec_axpy(v, draw(small_scalar), r)
        inside.append(v)
    outside = [{j: c for j in range(n) if (c := draw(small_scalar))}
               for _ in range(draw(st.integers(min_value=0, max_value=3)))]
    return field, n, rows, inside, outside + [{j: 1 for j in range(n)}]


@settings(max_examples=120, deadline=None)
@given(spans_and_probes())
def test_echelon_membership_matches_reduction(case):
    """Echelon membership, the one-pass reductions of Subspace and
    Subquotient, and the row-by-row oracle agree."""
    field, ambient, rows, inside, outside = case
    acc = Echelon(field, ambient)
    for r in rows:
        acc.insert(r)
    sub = acc.subspace()
    for r in rows:
        assert acc.contains(r)
        assert sub.contains_vec(r)
    for v in inside + outside:
        residual = reduce_all_rows(sub, v)
        assert sub.reduce_vec(v) == residual
        assert acc.contains(v) == sub.contains_vec(v) == (not residual)
        coords = sub.coords(v)
        if residual:
            assert coords is None
        else:
            assert _field_normal(field, coords)
            back: dict = {}
            for k, c in coords.items():
                vec_axpy(back, c, sub.rows[k])
            assert field.clean(vec_sub(back, v)) == {}
    # top = the span, bottom = the span of the inside probes
    sq = Subquotient(sub, Subspace(field, ambient, inside))
    for v in inside + outside:
        want = quotient_coords_all_rows(sq, v)
        if want is None:
            with pytest.raises(ContainmentError):
                sq.reduce(v)
            continue
        got = sq.reduce(v)
        assert got == want
        assert _field_normal(field, got)
        assert not reduce_all_rows(sq.bottom, vec_sub(sq.lift(got), v))
        assert sq.reduce(sq.lift(got)) == got


@settings(max_examples=120, deadline=None)
@given(spans_and_probes())
def test_subspace_containment_matches_reduction(case):
    """Subspace.contains agrees with reducing each row by the row-by-row
    oracle, for a proper subspace and for the whole ambient space."""
    field, ambient, rows, inside, outside = case
    sub = Subspace(field, ambient, rows)
    full = Subspace.full(field, ambient)
    others = [Subspace(field, ambient, inside), Subspace(field, ambient, outside), sub, full]
    for big in (sub, full):
        for other in others:
            want = all(not reduce_all_rows(big, r) for r in other.rows)
            assert big.contains(other) == want


def test_full_space_contains_without_reducing(monkeypatch):
    """The whole ambient space contains every subspace of it and reduces
    nothing; an ambient mismatch is still raised first."""
    calls = []
    original = Subspace.reduce_vec
    monkeypatch.setattr(Subspace, "reduce_vec", lambda self, v: calls.append(v) or original(self, v))
    for field in (QQ, F3, F5, F7):
        full = Subspace.full(field, 4)
        assert full.contains(Subspace(field, 4, [{0: 1, 3: 2}, {1: 1, 2: -1}]))
        assert full.contains(full)
        with pytest.raises(AmbientMismatch):
            full.contains(Subspace.full(field, 5))
    assert calls == []
    assert not Subspace(QQ, 4, [{0: 1}]).contains(Subspace(QQ, 4, [{1: 1}]))
    assert calls


def _integral_fractions(vectors) -> list:
    return [c for v in vectors for c in v.values()
            if isinstance(c, Fraction) and c.denominator == 1]


@st.composite
def echelon_sessions(draw):
    """A field and a sequence of Echelon operations (insert, contains,
    subspace) on vectors written in a permuted, rescaled basis; some
    vectors are combinations of earlier ones, so some inserts do not
    raise the rank."""
    field = draw(st.sampled_from([QQ, F3, F5, F7]))
    n = draw(st.integers(min_value=1, max_value=6))
    perm = draw(st.permutations(range(n)))
    if field.p is None:
        scales = [draw(st.sampled_from([1, -1, 2, -3, Fraction(1, 2)])) for _ in range(n)]
    else:
        scales = [draw(st.integers(min_value=1, max_value=field.p - 1)) for _ in range(n)]
    ops, drawn = [], []
    for _ in range(draw(st.integers(min_value=0, max_value=14))):
        kind = draw(st.sampled_from(["insert", "insert", "contains", "subspace"]))
        if kind == "subspace":
            ops.append((kind, None))
            continue
        if drawn and draw(st.booleans()):
            v: dict = {}
            for u in drawn:
                vec_axpy(v, draw(small_scalar), u)
            v = field.clean(v)
        else:
            v = {perm[j]: field.of(scales[j] * c)
                 for j in range(n) if (c := draw(small_scalar))}
        drawn.append(v)
        ops.append((kind, v))
    return field, n, ops


@settings(max_examples=200, deadline=None)
@given(echelon_sessions())
def test_echelon_session_matches_dense_rref(case):
    """Interleaved insert / contains / subspace agree with dense Gauss–Jordan
    elimination: insert is True exactly when the rank grows, contains is
    rank-preserving membership, and every subspace() (also one taken after
    further inserts) is the oracle's RREF."""
    field, n, ops = case
    acc = Echelon(field, n)
    inserted: list[dict] = []
    rank = 0
    for kind, v in ops + [("subspace", None)]:
        if kind == "insert":
            inserted.append(v)
            grown = len(rref_oracle(field, n, inserted))
            assert acc.insert(v) == (grown > rank)
            rank = grown
            assert acc.rank == rank
        elif kind == "contains":
            assert acc.contains(v) == (len(rref_oracle(field, n, inserted + [v])) == rank)
        else:
            rows = acc.subspace().rows
            assert rows == rref_oracle(field, n, inserted)
            if field.p is None:
                assert not _integral_fractions(rows)


def test_integral_rationals_are_ints():
    assert QQ.of(Fraction(6, 3)) == 2 and type(QQ.of(Fraction(6, 3))) is int
    assert type(QQ.parse("4/2")) is int
    sl21 = load_algebra(Path(__file__).parent.parent / "src" / "superlie" / "data" / "sl21.json")
    assert sl21.field == QQ
    assert not _integral_fractions(sl21.table.values())
    sub = Subspace(QQ, 3, [{0: Fraction(2), 1: Fraction(4, 2)}, {0: 3, 2: Fraction(9, 3)}])
    assert not _integral_fractions(sub.rows)
