"""Differential tests of the paths that read the left-bracket index:
``ideal_closure`` (a worklist that brackets each accepted vector once),
[L, I] through ``product_subspace`` and the ``is_graded_ideal``
certificate, which tests only the nonzero brackets.

The oracles in ``tests/oracles.py`` bracket every basis element with
every row, zero brackets included, round after round.  Both must agree
by ``Subspace`` equality over Q and over F3, F5 and F7, in permuted,
rescaled bases.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    LIE,
    PRIMES,
    change_basis,
    ideal_closure_rounds,
    is_graded_ideal_all_brackets,
    missing_brackets,
    monomial_basis,
    product_subspace_pairs,
)
from superlie.algebras import LieSuperAlgebra, check_lie_axioms, ideal_closure, is_graded_ideal
from superlie.fields import Field
from superlie.freelie import free_truncated, genset
from superlie.linalg import Subspace
from superlie.spaces import superspace


@lru_cache(maxsize=None)
def free_cover(p) -> LieSuperAlgebra:
    """The free nilpotent algebra of class 3 on x, y even and t odd.  Its
    structure constants are integers, so over GF(p) it is their reduction."""
    Q = free_truncated(genset([("x", 0), ("y", 0), ("t", 1)]), 3).algebra()
    if p is None:
        return Q
    L = LieSuperAlgebra(superspace(Field(p), list(zip(Q.space.labels, Q.space.parities))), Q.table,
                        name="free(x, y | t)/gamma_4")
    assert check_lie_axioms(L).ok
    return L


NAMES = ("heis", "gl(1|1)", "gl(2|1)", "sl(2|1, L1)", "free cover")
# Algebras with a subspace that misses exactly one nonzero [e_i, r].  No
# span of basis vectors of gl(2|1) or of sl(2|1, L1) misses exactly one,
# by a search over all of them.
ONE_MISSING = ("heis", "gl(1|1)", "free cover")


def drawn_seeds(data, L: LieSuperAlgebra) -> list[dict]:
    """One to three seed vectors: basis vectors, or sums of two (which
    need not be homogeneous)."""
    index = st.integers(min_value=0, max_value=L.dim - 1)
    coeff = st.sampled_from((1, -1, 2))
    return data.draw(st.lists(
        st.one_of(index.map(lambda i: {i: 1}),
                  st.tuples(index, coeff, index, coeff).map(
                      lambda t: L.field.clean({t[0]: t[1], t[2]: t[3]}) or {t[0]: 1})),
        min_size=1, max_size=3))


def one_missing_bracket(L: LieSuperAlgebra) -> Subspace | None:
    """A subspace whose rows have exactly one bracket [e_i, r] outside it:
    span(e_j), or span(e_j, [e_i, e_j] for i != i0) plus the ideal that
    the brackets of those generate."""
    def spans():
        for j in range(L.dim):
            yield Subspace(L.field, L.dim, [{j: 1}])
        for j in range(L.dim):
            brackets = [L.bracket({i: 1}, {j: 1}) for i in range(L.dim)]
            for i0, missed in enumerate(brackets):
                if not missed:
                    continue
                kept = [b for i, b in enumerate(brackets) if i != i0]
                ideal = ideal_closure_rounds(L, [L.bracket({k: 1}, b)
                                                 for k in range(L.dim) for b in kept])
                yield Subspace(L.field, L.dim, [{j: 1}, *kept, *ideal.rows])

    return next((J for J in spans() if len(missing_brackets(L, J)) == 1), None)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_left_bracket_paths_match_all_bracket_oracles(name, p, data):
    L = free_cover(p) if name == "free cover" else LIE[name](Field(p))
    L = change_basis(L, data.draw(monomial_basis(L)))
    seeds = drawn_seeds(data, L)
    full = L.full_subspace()
    I = ideal_closure(L, seeds)
    assert I == ideal_closure_rounds(L, seeds)
    S = Subspace(L.field, L.dim, seeds)
    for sub in (I, S):
        assert L.product_subspace(full, sub) == product_subspace_pairs(L, full, sub)
        assert is_graded_ideal(L, sub) == is_graded_ideal_all_brackets(L, sub)
    assert L.product_subspace(S, I) == product_subspace_pairs(L, S, I)
    assert L.product_subspace(full, full) == product_subspace_pairs(L, full, full)
    if name in ONE_MISSING:
        J = one_missing_bracket(L)
        assert J is not None
        assert all(L.space.parity_of_vec(r) is not None for r in J.rows)
        assert not is_graded_ideal(L, J)
