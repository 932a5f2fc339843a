from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superlie.fields import Field, QQ
from oracles import quotient_coords_all_rows, reduce_all_rows
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
    assert sq.reduce({0: 3, 1: 5}) == [3, 5]


def test_subquotient_plane_mod_line():
    top = Subspace(QQ, 3, [{0: 1}, {1: 1}])
    bottom = Subspace(QQ, 3, [{0: 1, 1: 1}])
    sq = Subquotient(top, bottom)
    assert sq.dim == 1
    for i, s in enumerate(sq.section):
        coords = sq.reduce(s)
        assert coords == [1 if j == i else 0 for j in range(sq.dim)]


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
    total = a.sum_(b)
    assert a.dim + b.dim == inter.dim + total.dim


@settings(max_examples=40, deadline=None)
@given(matrices_q())
def test_reduce_lift_identity(m):
    ker = m.kernel_basis()
    full = Subspace.full(QQ, m.ncols)
    sq = Subquotient(full, ker)
    for i in range(sq.dim):
        coords = [1 if j == i else 0 for j in range(sq.dim)]
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
            back: dict = {}
            for c, row in zip(coords, sub.rows):
                vec_axpy(back, c, row)
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
        assert not reduce_all_rows(sq.bottom, vec_sub(sq.lift(got), v))
        assert sq.reduce(sq.lift(got)) == got
