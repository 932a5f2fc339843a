"""The one construction of a bracket on a quotient whose bracket factors
through edge maps, :func:`superlie.algebras.factored_quotient_algebra`.

Its three callers are the non-abelian tensor product, V(A) and the
degree-2 comparison lemma.  V(A) is compared with the slot-by-slot oracle
over Q, F3, F5 and F7; the helper rebuilds ordinary quotient algebras;
and two mutations must trip its certificates: a left edge map that misses
one row of the bottom, and a symmetric pair.
"""

from functools import partial

import pytest

from oracles import v_algebra_table_oracle
from superlie.algebras import (
    BracketNotWellDefined,
    LieSuperAlgebra,
    factored_quotient_algebra,
    ground_assoc,
    heisenberg,
    lie_from_assoc,
    matrix_assoc,
    matrix_gl,
    matrix_sl,
    quotient_algebra,
    series,
)
from superlie.cyclic import dual_numbers, grassmann_line, hc1_kernel_model, v_algebra
from superlie.fields import Field
from superlie.linalg import Matrix, Subquotient, Subspace, vec_axpy
from superlie.spaces import tensor_vec
from superlie.tensor import adjoint_tensor_square

PRIMES = (None, 3, 5, 7)
ASSOC = {
    "q": ground_assoc,
    "dual": dual_numbers,
    "grassmann": grassmann_line,
    "m11": lambda F: matrix_assoc(1, 1, ground_assoc(F)),
    "M(1|1, L1)": lambda F: matrix_assoc(1, 1, grassmann_line(F)),
}


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", tuple(ASSOC))
def test_v_algebra_matches_the_slot_by_slot_oracle(name, p):
    A = ASSOC[name](Field(p))
    assert v_algebra(A).algebra.table == v_algebra_table_oracle(A)


def section_projection(field, dim: int, rows: list[dict]) -> Matrix:
    """e_i -> lift(reduce(e_i)) for W/span(rows): a linear map on W whose
    kernel is span(rows) and which fixes the section vectors."""
    sq = Subquotient(Subspace.full(field, dim), Subspace(field, dim, rows))
    return Matrix(field, dim, [sq.lift(sq.reduce({i: 1})) for i in range(dim)])


def ideals(p):
    F = Field(p)
    heis = heisenberg(F)
    gl11 = matrix_gl(1, 1, ground_assoc(F))
    sl21 = matrix_sl(2, 1, grassmann_line(F)).algebra
    full = gl11.full_subspace()
    return [(heis, series(heis).center), (gl11, gl11.product_subspace(full, full)),
            (gl11, series(gl11).center), (sl21, series(sl21).center)]


@pytest.mark.parametrize("p", PRIMES)
def test_quotient_algebras_are_factored_quotients(p):
    """L/I with both edge maps the projection onto the section and the
    pair L's bracket is the quotient algebra."""
    for L, I in ideals(p):
        Q, proj = quotient_algebra(L, I)
        edge = section_projection(L.field, L.dim, I.rows)
        assert factored_quotient_algebra(proj.quotient, edge, edge, L.bracket).table == Q.table


def bracket_map(L: LieSuperAlgebra) -> Matrix:
    """e_i (x) e_j -> [e_i, e_j]: mu = nu of the adjoint tensor square, and
    the commutator map alpha of V(A) for L the Lie algebra of A."""
    return Matrix(L.field, L.dim, [L.bracket_basis(*divmod(t, L.dim)) for t in range(L.dim ** 2)])


def quotients(name: str, p):
    """(q, the bracket map, pair, the production algebra on q)."""
    F = Field(p)
    if name == "sl(2|1) (x) sl(2|1)":
        L = matrix_sl(2, 1, ground_assoc(F)).algebra
        t = adjoint_tensor_square(L)
        return t.quotient, bracket_map(L), partial(tensor_vec, L.space, L.space), t.algebra
    A = matrix_assoc(1, 1, grassmann_line(F))
    L = lie_from_assoc(A)
    return (hc1_kernel_model(A).quotient, bracket_map(L), partial(tensor_vec, A.space, A.space),
            v_algebra(A).algebra)


CASES = [(name, p) for name in ("sl(2|1) (x) sl(2|1)", "V(M(1|1, L1))") for p in (None, 5)]


@pytest.mark.parametrize("name, p", CASES)
def test_edge_maps_rebuild_the_production_bracket(name, p):
    q, edge, pair, algebra = quotients(name, p)
    assert factored_quotient_algebra(q, edge, edge, pair).table == algebra.table


@pytest.mark.parametrize("name, p", CASES)
def test_a_left_edge_map_that_misses_one_row_is_refused(name, p):
    """left = alpha + phi(-) e_0, phi a functional that kills every row of
    the bottom but the last: left kills all rows of D except one."""
    q, edge, pair, _ = quotients(name, p)
    field, dim, rows = q.field, q.ambient, q.bottom.rows
    rest = Subquotient(Subspace.full(field, dim), Subspace(field, dim, rows[:-1]))
    k = min(rest.reduce(rows[-1]))
    cols = []
    for t, col in enumerate(edge.cols):
        col = dict(col)
        vec_axpy(col, rest.reduce({t: 1}).get(k, 0), {0: 1})
        cols.append(col)
    with pytest.raises(BracketNotWellDefined, match="edge map does not annihilate"):
        factored_quotient_algebra(q, Matrix(field, edge.nrows, cols), edge, pair)


@pytest.mark.parametrize("p", PRIMES)
def test_a_symmetric_pair_is_refused(p):
    """pair(u, v) = uv + (-1)^{|u||v|} vu on gl(1|1)/centre is graded
    symmetric and nonzero on an even class, so B is not antisymmetric."""
    A = matrix_assoc(1, 1, ground_assoc(Field(p)))
    L = lie_from_assoc(A)
    center = series(L).center
    _, proj = quotient_algebra(L, center)
    edge = section_projection(L.field, L.dim, center.rows)
    par = A.space.parities

    def symmetric(u: dict, v: dict) -> dict:
        out: dict = {}
        for i, a in u.items():
            for j, b in v.items():
                vec_axpy(out, a * b, A.product_basis(i, j))
                vec_axpy(out, -a * b if par[i] * par[j] else a * b, A.product_basis(j, i))
        return out

    with pytest.raises(BracketNotWellDefined, match="not antisymmetric on classes"):
        factored_quotient_algebra(proj.quotient, edge, edge, symmetric)
