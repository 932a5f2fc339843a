"""The order-aware elimination of ``linalg``: the canonical kernel read off
one elimination with the columns reversed, and spans inserted sparsest
first, against the two-pass kernel, insertion in the given order and dense
Gauss-Jordan elimination; and a guard that every row list handed to
``Subspace`` as already canonical is an RREF."""

import random
from fractions import Fraction

import pytest

from oracles import field_normal, kernel_oracle, kernel_two_pass, rref_oracle, span_in_given_order
from superlie.algebras import ground_assoc, matrix_assoc, matrix_gl
from superlie.cyclic import connes, grassmann_line, hc
from superlie.fields import QQ, Field
from superlie.homology import ce_complex, homology, trivial_module
from superlie.linalg import Echelon, Matrix, Subspace
from superlie.tensor import adjoint_tensor_square, exterior_square

FIELDS = [QQ, Field(3), Field(5), Field(7)]


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


def _rebased(rng, field, nrows, cols) -> Matrix:
    """The matrix in seeded permuted, rescaled bases of source and target:
    columns and rows reordered, each multiplied by a nonzero scalar."""
    row_perm = rng.sample(range(nrows), nrows)
    col_perm = rng.sample(range(len(cols)), len(cols))
    row_scale = [_entry(rng, field) for _ in range(nrows)]
    col_scale = [_entry(rng, field) for _ in cols]
    out = [{row_perm[i]: field.of(row_scale[i] * col_scale[j] * c) for i, c in cols[j].items()}
           for j in col_perm]
    return Matrix(field, nrows, out)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("shape", tuple(SHAPES))
@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_elimination_matches_the_oracles(field, shape, seed):
    """kernel_basis, image_basis, rank and Subspace agree with the
    two-pass kernel, insertion in the given order and dense elimination;
    every kernel row is normal and is annihilated by the matrix."""
    rng = random.Random(f"{field}-{shape}-{seed}")
    nrows, cols = SHAPES[shape](rng, field)
    m = _rebased(rng, field, nrows, cols)
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
    m = _rebased(rng, field, 5, _low_rank(rng, field, 5, 9, 3))
    calls = []
    insert = Echelon.insert
    monkeypatch.setattr(Echelon, "insert", lambda self, v: calls.append(v) or insert(self, v))
    kernel = m.kernel_basis()
    assert len(calls) == 5 and kernel.dim >= 6
    calls.clear()
    kernel_two_pass(m)
    assert len(calls) == 5 + kernel.dim


def test_spans_insert_the_sparsest_vectors_first(monkeypatch):
    """Subspace and rank insert in ascending order of nonzero count, and
    vectors with equal counts keep the order given."""
    vectors = [{0: 1, 1: 1, 2: 1}, {3: 1}, {1: 2, 2: 1}, {4: 1}, {0: 1, 4: 1}]
    calls = []
    insert = Echelon.insert
    monkeypatch.setattr(Echelon, "insert", lambda self, v: calls.append(v) or insert(self, v))
    Subspace(QQ, 5, vectors)
    assert calls == [vectors[i] for i in (1, 3, 2, 4, 0)]
    calls.clear()
    Matrix(QQ, 2, [{0: 1}, {0: 1, 1: 1}, {0: 1}]).rank()
    assert calls == [{1: 1}, {0: 1, 1: 1, 2: 1}]


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
