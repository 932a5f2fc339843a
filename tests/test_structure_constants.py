"""Differential tests of the one structure-constant table behind brackets,
products and actions.

``LieSuperAlgebra.bracket``, ``AssocSuperAlgebra.product`` and
``Action.act`` all evaluate one bilinear loop over a row index; the
oracles in ``tests/oracles.py`` sum over every basis pair of the stored
table instead.  They are compared on drawn sparse vectors, over Q, F3, F5
and F7, in drawn permuted and rescaled bases.  The action tables of
``ideal_crossed`` and ``pullback_action``, which are spread from rows, are
compared with the loops over every basis pair, key order and entry order
included, on the ideals of each algebra and on the boundaries of its
tensor square.
"""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    bilinear_dense,
    ideal_action_dense,
    lie_table_dense,
    pullback_action_dense,
    rebase,
    rebase_assoc,
)
from superlie.actions import adjoint_action, ideal_crossed, pullback_action
from superlie.algebras import (
    ground_assoc,
    heisenberg,
    ideal_closure,
    matrix_assoc,
    matrix_gl,
    matrix_sl,
    subalgebra_on,
)
from superlie.cyclic import dual_numbers, grassmann_line
from superlie.fields import Field
from superlie.tensor import nonabelian_tensor

LIE = {
    "heis": heisenberg,
    "gl(1|1)": lambda F: matrix_gl(1, 1, ground_assoc(F)),
    "sl(2|1)": lambda F: matrix_sl(2, 1, ground_assoc(F)).algebra,
    "sl(2|1, L1)": lambda F: matrix_sl(2, 1, grassmann_line(F)).algebra,
}
ASSOC = {
    "K": ground_assoc,
    "K[e]": dual_numbers,
    "L1": grassmann_line,
    "M(1|1, L1)": lambda F: matrix_assoc(1, 1, grassmann_line(F)),
    "M(2|1)": lambda F: matrix_assoc(2, 1, ground_assoc(F)),
}
PRIMES = (None, 3, 5, 7)
COEFFS = (0, 1, -1, 2, 3, Fraction(1, 2), Fraction(-4, 11))


@lru_cache(maxsize=None)
def lie(name: str, p):
    return LIE[name](Field(p))


@lru_cache(maxsize=None)
def assoc(name: str, p):
    return ASSOC[name](Field(p))


def basis_change(data, dim: int, p):
    perm = data.draw(st.permutations(range(dim)))
    units = (1, -1) if p is None else (1, -1, 2, -2)
    return perm, data.draw(st.lists(st.sampled_from(units), min_size=dim, max_size=dim))


def vector(data, field, dim: int) -> dict:
    """A drawn sparse vector: a few entries, zero coefficients included."""
    entries = data.draw(st.dictionaries(st.integers(0, dim - 1), st.sampled_from(COEFFS),
                                        max_size=4))
    return {k: field.of(c) for k, c in entries.items()}


def pairs(data, field, left_dim: int, right_dim: int):
    for _ in range(4):
        yield vector(data, field, left_dim), vector(data, field, right_dim)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", sorted(LIE))
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_bracket_and_actions_match_dense_sums(data, name, p):
    """The bracket, the adjoint action and the action of L on [L, L]."""
    L = rebase(lie(name, p), *basis_change(data, lie(name, p).dim, p))
    table = lie_table_dense(L)
    for u, v in pairs(data, L.field, L.dim, L.dim):
        assert L.bracket(u, v) == bilinear_dense(L.field, table, L.dim, L.dim, u, v)
    derived = subalgebra_on(L, L.product_subspace(L.full_subspace(), L.full_subspace()))
    for a in (adjoint_action(L), ideal_crossed(L, derived).action):
        dim = a.target.dim
        for u, v in pairs(data, L.field, L.dim, dim):
            assert a.act(u, v) == bilinear_dense(L.field, a.table, L.dim, dim, u, v)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", sorted(ASSOC))
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_product_matches_dense_sum(data, name, p):
    A = rebase_assoc(assoc(name, p), *basis_change(data, assoc(name, p).dim, p))
    for u, v in pairs(data, A.field, A.dim, A.dim):
        assert A.product(u, v) == bilinear_dense(A.field, A.table, A.dim, A.dim, u, v)


def listing(table: dict) -> list:
    return [(key, list(v.items())) for key, v in table.items()]


def ideals(L) -> list:
    """L, [L, L], the center and the ideal generated by each basis element,
    each once."""
    full = L.full_subspace()
    found = {}
    for S in [full, L.product_subspace(full, full), L.center()] + [
            ideal_closure(L, [{i: 1}]) for i in range(L.dim)]:
        found.setdefault(tuple(tuple(sorted(r.items())) for r in S.rows), S)
    return list(found.values())


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", sorted(LIE))
@settings(max_examples=2, deadline=None)
@given(data=st.data())
def test_ideal_and_pullback_tables_match_dense_loops(data, name, p):
    """The action tables of L on each of its ideals I, and of I on L
    through the inclusion, against the loops over every basis pair."""
    L = rebase(lie(name, p), *basis_change(data, lie(name, p).dim, p))
    adj = adjoint_action(L)
    for I in ideals(L):
        view = subalgebra_on(L, I)
        cm = ideal_crossed(L, view)
        assert listing(cm.action.table) == listing(ideal_action_dense(L, view))
        pulled = pullback_action(adj, view.algebra, view.inclusion)
        assert listing(pulled.table) == listing(pullback_action_dense(adj, view.algebra,
                                                                      view.inclusion))


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", ["heis", "gl(1|1)", "sl(2|1)"])
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_pullback_through_tensor_boundaries_matches_dense_loop(data, name, p):
    """The actions of L (x) L on L through mu and nu, whose columns have
    several entries, against the loop over every basis pair."""
    L = rebase(lie(name, p), *basis_change(data, lie(name, p).dim, p))
    adj = adjoint_action(L)
    t = nonabelian_tensor(L, L, adj, adj)
    for cm in (t.cross_m, t.cross_n):
        pulled = pullback_action(adj, cm.m, cm.boundary)
        assert listing(pulled.table) == listing(pullback_action_dense(adj, cm.m, cm.boundary))
