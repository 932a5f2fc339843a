"""The order-aware elimination of ``linalg``: the canonical kernel read off
one elimination with the columns reversed, and spans inserted by
descending leading index, against the two-pass kernel, insertion in the
given order and dense Gauss-Jordan elimination; the one pass of
``Echelon._reduce`` over its heap, on rows built so that a pivot column
cancels and then enters the work row again, with a mutation that pushes
no entering pivot; and a guard that every row list handed to
``Subspace`` as already canonical is an RREF."""

import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    PRIMES,
    field_normal,
    kernel_oracle,
    kernel_two_pass,
    reduce_all_rows,
    rref_oracle,
    seeded_matrix,
    span_in_given_order,
)
from superlie.algebras import ground_assoc, matrix_assoc, matrix_gl
from superlie.cyclic import connes, grassmann_line, hc
from superlie.fields import QQ, Field
from superlie.homology import ce_complex, homology, trivial_module
from superlie.linalg import Echelon, Matrix, Subspace, _RationalRows, _ResidueRows, vec_sub
from superlie.tensor import adjoint_tensor_square, exterior_square

FIELDS = [Field(p) for p in PRIMES]


def _entry(rng, field):
    """A small nonzero scalar of the field."""
    if field.p is None:
        return rng.choice([1, -1, 2, -3, 5, Fraction(1, 2), Fraction(-2, 3)])
    return rng.randrange(1, field.p)


def _sparse(rng, field, nrows, ncols, per_col):
    return [{i: _entry(rng, field) for i in rng.sample(range(nrows), min(per_col, nrows))}
            for _ in range(ncols)]


def _low_rank(rng, field, nrows, ncols, rank):
    """The columns of a product of a nrows x rank and a rank x ncols matrix."""
    left = _sparse(rng, field, nrows, rank, 2)
    cols = []
    for _ in range(ncols):
        col: dict = {}
        for k in rng.sample(range(rank), 2):
            a = _entry(rng, field)
            for i, c in left[k].items():
                col[i] = col.get(i, 0) + a * c
        cols.append(field.clean(col))
    return cols


def _triangular(rng, field, n):
    """An invertible n x n matrix: upper triangular, nonzero diagonal."""
    return [{**{i: _entry(rng, field) for i in range(j) if rng.random() < 0.5},
             j: _entry(rng, field)} for j in range(n)]


SHAPES = {
    "zero": lambda rng, F: (4, [{} for _ in range(5)]),
    "full-rank": lambda rng, F: (6, _triangular(rng, F, 6)),
    "one-row": lambda rng, F: (1, _sparse(rng, F, 1, 6, 1)[:4] + [{}, {}]),
    "one-column": lambda rng, F: (6, _sparse(rng, F, 6, 1, 3)),
    "zero-column": lambda rng, F: (4, []),
    "wide": lambda rng, F: (5, _low_rank(rng, F, 5, 9, 3)),
    "tall": lambda rng, F: (9, _low_rank(rng, F, 9, 5, 3)),
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("shape", tuple(SHAPES))
@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_elimination_matches_the_oracles(field, shape, seed):
    """kernel_basis, image_basis, rank and Subspace agree with the
    two-pass kernel, insertion in the given order and dense elimination;
    every kernel row is normal and is annihilated by the matrix."""
    rng = random.Random(f"{field}-{shape}-{seed}")
    nrows, cols = SHAPES[shape](rng, field)
    m = seeded_matrix(field, nrows, cols, rng, partial(_entry, rng, field))
    rows = m.row_list()

    kernel = m.kernel_basis()
    assert kernel.rows == kernel_two_pass(m).rows == kernel_oracle(field, m.ncols, rows)
    assert all(field_normal(field, v) and not m.apply(v) for v in kernel.rows)

    image = m.image_basis()
    assert image.rows == span_in_given_order(field, nrows, m.cols).rows \
        == rref_oracle(field, nrows, m.cols)

    rank = len(rref_oracle(field, m.ncols, rows))
    assert m.rank() == span_in_given_order(field, m.ncols, rows).dim == rank
    assert rank == image.dim == m.ncols - kernel.dim

    for order in (rows, rows[::-1], rng.sample(rows, len(rows))):
        assert Subspace(field, m.ncols, order).rows \
            == span_in_given_order(field, m.ncols, order).rows == rref_oracle(field, m.ncols, rows)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_kernel_takes_one_elimination(field, monkeypatch):
    """kernel_basis inserts each row of the matrix once and no kernel
    vector: one insert per row, where the two-pass kernel also inserts one
    per free column."""
    rng = random.Random(f"one-pass-{field}")
    m = seeded_matrix(field, 5, _low_rank(rng, field, 5, 9, 3), rng, partial(_entry, rng, field))
    calls = []
    insert = Echelon.insert
    monkeypatch.setattr(Echelon, "insert", lambda self, v: calls.append(v) or insert(self, v))
    kernel = m.kernel_basis()
    assert len(calls) == 5 and kernel.dim >= 6
    calls.clear()
    kernel_two_pass(m)
    assert len(calls) == 5 + kernel.dim


def test_spans_insert_by_descending_leading_index(monkeypatch):
    """Subspace, rank and kernel_basis insert by descending leading index,
    the pivot each vector would get; vectors that lead at the same index
    keep the order given, and a zero vector comes last.  kernel_basis
    orders the column-reversed rows, which are what it inserts."""
    vectors = [{0: 1, 1: 1, 2: 1}, {}, {3: 1}, {1: 2, 2: 1}, {4: 1}, {0: 1, 4: 1}]
    calls = []
    insert = Echelon.insert
    monkeypatch.setattr(Echelon, "insert", lambda self, v: calls.append(v) or insert(self, v))
    Subspace(QQ, 5, vectors)
    assert calls == [vectors[i] for i in (4, 2, 3, 0, 5, 1)]
    m = Matrix(QQ, 3, [{0: 1, 2: 1}, {1: 1, 2: 1}, {1: 1}])
    assert m.row_list() == [{0: 1}, {1: 1, 2: 1}, {0: 1, 1: 1}]
    calls.clear()
    m.rank()
    assert calls == [{1: 1, 2: 1}, {0: 1}, {0: 1, 1: 1}]
    calls.clear()
    m.kernel_basis()  # the rows with j -> 2 - j: {2: 1}, {1: 1, 0: 1}, {2: 1, 1: 1}
    assert calls == [{2: 1}, {2: 1, 1: 1}, {1: 1, 0: 1}]


# -- one pass per reduction: a pivot column that cancels and enters again ------


class _Recorder:
    """An elimination backend that records, after each step, whether one
    column is in the work row, and otherwise does what it wraps."""

    def __init__(self, ops, column: int):
        self.ops, self.column, self.present = ops, column, []

    def __getattr__(self, name):
        return getattr(self.ops, name)

    def eliminate(self, work, row, piv, pivots=(), heap=None):
        work = self.ops.eliminate(work, row, piv, pivots, heap)
        self.present.append(self.column in work)
        return work


def _scalars(field):
    if field.p is None:
        return st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])
    return st.integers(1, field.p - 1)


@st.composite
def reentry_cases(draw, field):
    """Rows r_i = e_i + s_i e_{i+1} + c_i e_k (i < m) and r_k = e_k, each
    with a drawn tail right of k, stored as given when inserted in this
    order (no row meets an earlier pivot), so r_0 and r_1 are only
    semi-reduced; and a probe with x at 0, x c_0 at k, nothing at 1 and
    drawn entries elsewhere.  Clearing pivot 0 cancels column k and brings
    in pivot 1, and clearing pivot 1 brings column k back while it is
    still on the heap."""
    scalar, m = _scalars(field), draw(st.integers(2, 4))
    k, tail = m + 1, draw(st.integers(0, 3))
    ambient = k + 1 + tail

    def tail_of():
        return {j: draw(scalar) for j in range(k + 1, ambient) if draw(st.booleans())}

    s = [draw(scalar) for _ in range(m)]
    c = [draw(scalar) if i < 2 or draw(st.booleans()) else 0 for i in range(m)]
    rows = [field.clean({i: 1, i + 1: s[i], k: c[i], **tail_of()}) for i in range(m)]
    rows.append({k: 1, **tail_of()})
    x = draw(scalar)
    probe = {0: x, k: x * c[0], **{j: draw(scalar) for j in range(2, ambient)
                                      if j != k and draw(st.booleans())}}
    return ambient, rows, k, field.clean(probe)


def reentry_defects(field, ambient: int, rows: list[dict], column: int, probe: dict) -> list[str]:
    """How Echelon.contains and Echelon.insert, on the rows inserted in the
    order given, fail on the probe and on the probe less its residual
    (which lies in the span, with the same entries at every pivot):
    membership against dense elimination, the span against
    ``rref_oracle`` and ``span_in_given_order``, and whether the column
    cancelled at the first step and entered again at the second.  Empty
    when none fails."""
    rref = rref_oracle(field, ambient, rows)
    residual = reduce_all_rows(Subspace(field, ambient, rref, _canonical=True), probe)
    out = []
    for v in (probe, field.clean(vec_sub(probe, residual))):
        acc = Echelon(field, ambient)
        for r in rows:
            acc.insert(r)
        rec = acc._ops = _Recorder(acc._ops, column)
        spanned = rref_oracle(field, ambient, rows + [v])
        if acc.contains(v) != (len(spanned) == len(rref)):
            out.append(f"contains({v}) is {acc.contains(v)}")
        if rec.present[:2] != [False, True]:
            out.append(f"column {column} after the first two steps: {rec.present[:2]}")
        acc.insert(v)
        if not acc.subspace().rows == span_in_given_order(field, ambient, rows + [v]).rows \
                == spanned:
            out.append(f"the span after insert({v}) is not the RREF")
    return out


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_pivot_that_cancels_and_enters_again_is_cleared(field, data):
    """Echelon.contains and Echelon.insert clear a pivot column that
    cancels and then enters the work row again, in one pass over the heap
    (``reentry_cases``), and agree with dense elimination."""
    ambient, rows, column, probe = data.draw(reentry_cases(field))
    assert reentry_defects(field, ambient, rows, column, probe) == []


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_an_elimination_that_pushes_no_entering_pivot_is_caught(field, monkeypatch):
    """With a backend eliminate that does not push the pivot columns that
    enter the work row, the cancelled column k is skipped when popped and
    pivot 1 is never cleared: ``reentry_defects`` reports it, and the
    session above fails."""
    q_eliminate, r_eliminate = _RationalRows.eliminate, _ResidueRows.eliminate
    monkeypatch.setattr(_RationalRows, "eliminate", staticmethod(
        lambda work, row, piv, pivots=(), heap=None: q_eliminate(work, row, piv)))
    monkeypatch.setattr(_ResidueRows, "eliminate",
                        lambda self, work, row, piv, pivots=(), heap=None: r_eliminate(self, work, row, piv))
    rows = [field.clean({0: 1, 1: 2, 3: 1}), field.clean({1: 1, 2: 1, 3: 1}), {3: 1, 4: 1}]
    assert reentry_defects(field, 5, rows, 3, {0: 1, 3: 1, 2: 1})
    with pytest.raises(AssertionError):
        test_a_pivot_that_cancels_and_enters_again_is_cleared(field)
# -- every canonical input is an RREF --------------------------------------------


def rref_defects(field, ambient: int, rows: list[dict]) -> list[str]:
    """Why a row list is not the canonical RREF of its span: pivots (least
    indices) strictly increasing, each pivot entry 1, every row zero at the
    other pivots, every entry a nonzero field-normal scalar of an ambient
    coordinate.  Empty when it is one."""
    if not all(rows):
        return ["a zero row"]
    pivots = [min(r) for r in rows]
    out = []
    if any(a >= b for a, b in zip(pivots, pivots[1:])):
        out.append(f"pivots not strictly increasing: {pivots}")
    for piv, r in zip(pivots, rows):
        if r[piv] != 1:
            out.append(f"pivot entry {r[piv]} at {piv}")
        if r.keys() & set(pivots) - {piv}:
            out.append(f"row at {piv} meets the pivots {sorted(r.keys() & set(pivots) - {piv})}")
        if not field_normal(field, r) or max(r) >= ambient:
            out.append(f"row at {piv} is not a normal vector of {ambient} coordinates: {r}")
    return out


def guard_canonical(monkeypatch) -> list[int]:
    """Check, from here on, every row list that ``Subspace`` takes as
    canonical; returns the list of their lengths, growing per check."""
    checked = []
    init = Subspace.__init__

    def guarded(self, field, ambient, vectors, _canonical=False):
        if _canonical:
            vectors = list(vectors)
            assert not rref_defects(field, ambient, vectors), rref_defects(field, ambient, vectors)
            checked.append(len(vectors))
        init(self, field, ambient, vectors, _canonical)

    monkeypatch.setattr(Subspace, "__init__", guarded)
    return checked


def _ce_gl21(F):
    P = matrix_gl(2, 1, ground_assoc(F))
    cx = ce_complex(P, trivial_module(P), 4)
    return [homology(P, None, n, complex_=cx).dim for n in range(4)]


def _hc_m11(F):
    A = matrix_assoc(1, 1, grassmann_line(F))
    cx = connes(A, 3)
    return [hc(A, n, complex_=cx).dim for n in range(3)]


def _tensor_square_gl21(F):
    P = matrix_gl(2, 1, ground_assoc(F))
    t, e = adjoint_tensor_square(P), exterior_square(P)
    return [t.algebra.dim, t.mu.kernel().dim, e.algebra.dim, e.mu.kernel().dim]


GUARDED = {"CE homology of gl(2|1)": _ce_gl21, "HC of M(1|1, L1)": _hc_m11,
           "adjoint tensor square of gl(2|1)": _tensor_square_gl21}


@pytest.mark.parametrize("p", [None, 5])
@pytest.mark.parametrize("case", tuple(GUARDED))
def test_canonical_inputs_are_rref(case, p, monkeypatch):
    """Every span marked canonical while the case runs, the kernels of
    kernel_basis among them, passes the RREF check, and the results are
    those computed without the guard."""
    F = Field(p)
    expected = GUARDED[case](F)
    kernels = []
    kernel_basis = Matrix.kernel_basis
    monkeypatch.setattr(Matrix, "kernel_basis", lambda m: kernels.append(m) or kernel_basis(m))
    checked = guard_canonical(monkeypatch)
    assert GUARDED[case](F) == expected
    assert kernels and len(checked) > len(kernels)
