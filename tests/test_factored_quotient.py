"""The one construction of a bracket on a quotient whose bracket factors
through edge maps, :func:`superlie.algebras.factored_quotient_algebra`.

Its three callers are the non-abelian tensor product, V(A) and the
degree-2 comparison lemma.  Each passes edge maps built by
:func:`superlie.algebras.induced_map`, the one check that a map kills a
quotient's bottom.  V(A) is compared with the slot-by-slot oracle over Q,
F3, F5 and F7; the helper rebuilds ordinary quotient algebras; and a
symmetric pair must trip its antisymmetry certificate.

:func:`superlie.algebras.induced_map` must refuse a map that misses one
row of the bottom, into a quotient and into a plain space (the plain case
is an edge map that does not descend), and
:func:`superlie.tensor.induced_tensor_map` must refuse a pair of maps that
does not preserve the actions.  The edge maps mu and nu of the tensor
product, induced that way, are compared column by column with an oracle
that rebuilds them from the actions; on an adjoint square they are one
map.
"""

from functools import partial

import pytest

from oracles import ASSOC, LIE, PRIMES, ideal_pair, tensor_edge_maps_oracle, v_algebra_table_oracle
from superlie.actions import trivial_action
from superlie.algebras import (
    BracketNotWellDefined,
    LieSuperAlgebra,
    abelian,
    factored_quotient_algebra,
    ground_assoc,
    heisenberg,
    induced_map,
    lie_from_assoc,
    matrix_assoc,
    matrix_gl,
    matrix_sl,
    quotient_algebra,
    series,
)
from superlie.corpus import bundled_path
from superlie.cyclic import grassmann_line, hc1_kernel_model, v_algebra
from superlie.fields import Field
from superlie.io import load_json, parse_action
from superlie.linalg import ContainmentError, Matrix, Subquotient, Subspace, vec_axpy
from superlie.spaces import GradedMap, tensor_vec
from superlie.tensor import adjoint_tensor_square, induced_tensor_map, nonabelian_tensor



@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", ("q", "dual", "grassmann", "m11", "M(1|1, L1)"))
def test_v_algebra_matches_the_slot_by_slot_oracle(name, p):
    A = ASSOC[name](Field(p))
    assert v_algebra(A).algebra.table == v_algebra_table_oracle(A)


def tensor_products(name: str, p):
    """(the tensor product, whether it is an adjoint square)."""
    F = Field(p)
    if name in ("heis", "gl(1|1)", "sl(2|1, L1)"):
        return adjoint_tensor_square(LIE[name](F)), True
    if name == "heis, file actions":
        # two parsed actions, as the command line reads --act-mn and --act-nm
        heis, obj = heisenberg(F), load_json(bundled_path("heis_adjoint"))
        return nonabelian_tensor(heis, heis, parse_action(obj, heis, heis),
                                 parse_action(obj, heis, heis)), False
    if name == "gl(1|1) (x) its derived algebra":
        L = matrix_gl(1, 1, ground_assoc(F))
        K, act_lk, act_kl = ideal_pair(L, "derived")
        return nonabelian_tensor(L, K, act_lk, act_kl), False
    A, B = abelian(F, 1, 1), abelian(F, 2, 1, "b")
    return nonabelian_tensor(A, B, trivial_action(A, B), trivial_action(B, A)), False


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", ("heis", "gl(1|1)", "sl(2|1, L1)", "heis, file actions",
                                  "abelian(1|1) (x) abelian(2|1)", "gl(1|1) (x) its derived algebra"))
def test_tensor_edge_maps_match_the_oracle(name, p):
    t, adjoint = tensor_products(name, p)
    mu_cols, nu_cols = tensor_edge_maps_oracle(t)
    assert t.mu.matrix.cols == mu_cols
    assert t.nu.matrix.cols == nu_cols
    if adjoint:
        assert t.mu is t.nu


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
        section = section_projection(L.field, L.dim, I.rows)
        edge = induced_map(proj.quotient, L.space, section.apply)
        assert factored_quotient_algebra(proj.quotient, edge, edge, L.bracket).table == Q.table


def bracket_map(L: LieSuperAlgebra) -> Matrix:
    """e_i (x) e_j -> [e_i, e_j]: mu = nu of the adjoint tensor square, and
    the commutator map alpha of V(A) for L the Lie algebra of A."""
    return Matrix(L.field, L.dim, [L.bracket_basis(*divmod(t, L.dim)) for t in range(L.dim ** 2)])


def quotients(name: str, p):
    """(q, the bracket map, pair, the production algebra on q, the space
    the bracket map lands in)."""
    F = Field(p)
    if name == "sl(2|1) (x) sl(2|1)":
        L = matrix_sl(2, 1, ground_assoc(F)).algebra
        t = adjoint_tensor_square(L)
        return (t.quotient, bracket_map(L), partial(tensor_vec, L.space, L.space), t.algebra,
                L.space)
    A = matrix_assoc(1, 1, grassmann_line(F))
    L = lie_from_assoc(A)
    return (hc1_kernel_model(A).quotient, bracket_map(L), partial(tensor_vec, A.space, A.space),
            v_algebra(A).algebra, L.space)


NAMES = ("sl(2|1) (x) sl(2|1)", "V(M(1|1, L1))")
CASES = [(name, p) for name in NAMES for p in (None, 5)]


def one_row_functional(q):
    """A linear functional on the parent of q that kills every row of the
    bottom of q but the last."""
    field, dim, rows = q.field, q.ambient, q.bottom.rows
    rest = Subquotient(Subspace.full(field, dim), Subspace(field, dim, rows[:-1]))
    k = min(rest.reduce(rows[-1]))
    return lambda v: rest.reduce(v).get(k, 0)


@pytest.mark.parametrize("name, p", CASES)
def test_edge_maps_rebuild_the_production_bracket(name, p):
    q, edge, pair, algebra, space = quotients(name, p)
    edge = induced_map(q, space, edge.apply)
    assert factored_quotient_algebra(q, edge, edge, pair).table == algebra.table


@pytest.mark.parametrize("target", ("quotient", "plain"))
@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", NAMES)
def test_an_induced_map_that_misses_one_row_is_refused(name, p, target):
    """f = g + phi(-) w, with g carrying the bottom of q into the target's
    bottom (the identity of q, or the bracket map, which kills it), phi
    the functional above and w outside the target's bottom: f misses
    exactly one row of the bottom.  g itself is accepted."""
    q, edge, _, _, space = quotients(name, p)
    if target == "quotient":
        dst, g, w = q, dict, q.section[0]
    else:
        dst, g, w = space, edge.apply, {0: 1}
    induced_map(q, dst, g)
    phi = one_row_functional(q)

    def f(v: dict) -> dict:
        out = g(v)
        vec_axpy(out, phi(v), w)
        return out

    with pytest.raises(ContainmentError):
        induced_map(q, dst, f)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("slot", ("left", "right"))
def test_an_induced_tensor_map_of_a_non_homomorphism_is_refused(slot, p):
    """x -> x, y -> 0, z -> z on heis does not preserve [x, y] = z; paired
    with the identity in either slot, f (x) g does not carry D(heis, heis)
    into itself.  The identity pair induces the identity."""
    H = heisenberg(Field(p))
    t = adjoint_tensor_square(H)
    ident = GradedMap.identity(H.space)
    assert induced_tensor_map(t, t, ident, ident).matrix.cols == \
        GradedMap.identity(t.algebra.space).matrix.cols
    kill_y = GradedMap.from_columns(H.space, H.space, [{0: 1}, {}, {2: 1}])
    pair = (kill_y, ident) if slot == "left" else (ident, kill_y)
    with pytest.raises(ContainmentError):
        induced_tensor_map(t, t, *pair)


@pytest.mark.parametrize("p", PRIMES)
def test_a_symmetric_pair_is_refused(p):
    """pair(u, v) = uv + (-1)^{|u||v|} vu on gl(1|1)/centre is graded
    symmetric and nonzero on an even class, so B is not antisymmetric."""
    A = matrix_assoc(1, 1, ground_assoc(Field(p)))
    L = lie_from_assoc(A)
    center = series(L).center
    _, proj = quotient_algebra(L, center)
    section = section_projection(L.field, L.dim, center.rows)
    edge = induced_map(proj.quotient, L.space, section.apply)
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
