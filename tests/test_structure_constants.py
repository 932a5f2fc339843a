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
tensor square.  The associativity certificate and the supercommutativity
test, which read the row index, are compared with the loops over every
basis triple and pair on intact and on corrupted tables.
"""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    ASSOC,
    LIE,
    PRIMES,
    bilinear_dense,
    change_basis,
    check_assoc_axioms_dense,
    ideal_action_dense,
    is_supercommutative_dense,
    lie_table_dense,
    monomial_basis,
    pullback_action_dense,
)
from superlie.actions import adjoint_action, ideal_crossed, pullback_action
from superlie.algebras import AssocSuperAlgebra, check_assoc_axioms, ideal_closure, subalgebra_on
from superlie.fields import Field
from superlie.tensor import nonabelian_tensor

LIE_NAMES = ("gl(1|1)", "heis", "sl(2|1)", "sl(2|1, L1)")
ASSOC_NAMES = ("M(1|1, L1)", "M(2|1, K)", "dual", "grassmann", "q")
# the test IDs of the catalogue names, as these tests have always been named
ASSOC_IDS = {"q": "K", "dual": "K[e]", "grassmann": "L1", "M(2|1, K)": "M(2|1)"}
COEFFS = (0, 1, -1, 2, 3, Fraction(1, 2), Fraction(-4, 11))


@lru_cache(maxsize=None)
def lie(name: str, p):
    return LIE[name](Field(p))


@lru_cache(maxsize=None)
def assoc(name: str, p):
    return ASSOC[name](Field(p))


def vector(data, field, dim: int) -> dict:
    """A drawn sparse vector: a few entries, zero coefficients included."""
    entries = data.draw(st.dictionaries(st.integers(0, dim - 1), st.sampled_from(COEFFS),
                                        max_size=4))
    return {k: field.of(c) for k, c in entries.items()}


def pairs(data, field, left_dim: int, right_dim: int):
    for _ in range(4):
        yield vector(data, field, left_dim), vector(data, field, right_dim)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", LIE_NAMES)
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_bracket_and_actions_match_dense_sums(data, name, p):
    """The bracket, the adjoint action and the action of L on [L, L]."""
    L = change_basis(lie(name, p), data.draw(monomial_basis(lie(name, p))))
    table = lie_table_dense(L)
    for u, v in pairs(data, L.field, L.dim, L.dim):
        assert L.bracket(u, v) == bilinear_dense(L.field, table, L.dim, L.dim, u, v)
    derived = subalgebra_on(L, L.product_subspace(L.full_subspace(), L.full_subspace()))
    for a in (adjoint_action(L), ideal_crossed(L, derived).action):
        dim = a.target.dim
        for u, v in pairs(data, L.field, L.dim, dim):
            assert a.act(u, v) == bilinear_dense(L.field, a.table, L.dim, dim, u, v)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", ASSOC_NAMES, ids=lambda n: ASSOC_IDS.get(n, n))
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_product_matches_dense_sum(data, name, p):
    A = change_basis(assoc(name, p), data.draw(monomial_basis(assoc(name, p))))
    for u, v in pairs(data, A.field, A.dim, A.dim):
        assert A.product(u, v) == bilinear_dense(A.field, A.table, A.dim, A.dim, u, v)


def corrupted(data, A):
    """A's table and unit with up to three drawn faults: a changed, a new
    or a dropped constant, an entry of the wrong parity, or a changed unit."""
    table = {key: dict(v) for key, v in A.table.items()}
    unit = dict(A.unit)
    idx = st.integers(0, A.dim - 1)
    for _ in range(data.draw(st.integers(0, 3))):
        kind = data.draw(st.sampled_from(["change", "new", "drop", "parity", "unit"]))
        key = (data.draw(idx), data.draw(idx))
        k = data.draw(idx)
        c = A.field.of(data.draw(st.sampled_from(COEFFS[1:])))
        if kind == "drop" and table:
            del table[data.draw(st.sampled_from(sorted(table)))]
        elif kind == "unit":
            unit[k] = unit.get(k, 0) + c
        elif kind == "parity" or kind == "new":
            want = (A.space.parities[key[0]] + A.space.parities[key[1]]) % 2
            wrong = (A.space.parities[k] != want)
            if wrong == (kind == "parity"):
                table.setdefault(key, {})[k] = c
        elif table:
            key = data.draw(st.sampled_from(sorted(table)))
            k = data.draw(st.sampled_from(sorted(table[key])))
            table[key][k] += c
    return AssocSuperAlgebra(A.space, table, unit=unit, name=A.name)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", ASSOC_NAMES, ids=lambda n: ASSOC_IDS.get(n, n))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_assoc_certificates_match_dense_loops(data, name, p):
    """check_assoc_axioms and is_supercommutative against the loops over
    every basis triple and pair: the same verdict and the same violations,
    in the same order and with the same entry order, up to the cap."""
    A = corrupted(data, change_basis(assoc(name, p), data.draw(monomial_basis(assoc(name, p)))))
    got, want = check_assoc_axioms(A), check_assoc_axioms_dense(A)
    assert got.ok == want.ok
    assert [str(v) for v in got.violations] == [str(v) for v in want.violations]
    assert got.violations == want.violations
    assert A.is_supercommutative() == is_supercommutative_dense(A)


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
@pytest.mark.parametrize("name", LIE_NAMES)
@settings(max_examples=2, deadline=None)
@given(data=st.data())
def test_ideal_and_pullback_tables_match_dense_loops(data, name, p):
    """The action tables of L on each of its ideals I, and of I on L
    through the inclusion, against the loops over every basis pair."""
    L = change_basis(lie(name, p), data.draw(monomial_basis(lie(name, p))))
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
    L = change_basis(lie(name, p), data.draw(monomial_basis(lie(name, p))))
    adj = adjoint_action(L)
    t = nonabelian_tensor(L, L, adj, adj)
    for cm in (t.cross_m, t.cross_n):
        pulled = pullback_action(adj, cm.m, cm.boundary)
        assert listing(pulled.table) == listing(pullback_action_dense(adj, cm.m, cm.boundary))
