"""The pruned weight-0 enumerator of the Chevalley–Eilenberg complex.

``homology._weight0_chains`` extends a prefix of canonical factors only
while its weight can still be completed to weight 0; the oracle in
``tests/oracles.py`` enumerates every canonical monomial and keeps the
weight-0 chains at the end.  The chain lists must agree, order included,
over Q, F3, F5 and F7, in seeded permuted and rescaled bases.
"""

import importlib
import random
from functools import lru_cache

import pytest

from oracles import rebase, weight0_chains_oracle
from superlie.actions import adjoint_action
from superlie.algebras import ground_assoc, matrix_gl, matrix_sl
from superlie.cyclic import grassmann_line
from superlie.fields import QQ, Field

homology = importlib.import_module("superlie.homology")

ALGEBRAS = {
    "gl(2|2)": lambda F: matrix_gl(2, 2, ground_assoc(F)),
    "gl(2|1)": lambda F: matrix_gl(2, 1, ground_assoc(F)),
    "sl(2|1, L1)": lambda F: matrix_sl(2, 1, grassmann_line(F)).algebra,
}
PRIMES = (None, 3, 5, 7)


@lru_cache(maxsize=None)
def seeded(name: str, p):
    """The algebra in a seeded permuted basis, each vector rescaled by a unit."""
    L = ALGEBRAS[name](Field(p))
    rng = random.Random(f"{name}:{p}")
    perm = list(range(L.dim))
    rng.shuffle(perm)
    units = (1, -1) if p is None else (1, -1, 2, -2)
    return rebase(L, perm, [rng.choice(units) for _ in range(L.dim)])


def both_enumerations(P, M, max_n: int):
    weights = homology._cartan_weights(P, M)
    dm = M.target.dim
    return (homology._weight0_chains(P, dm, max_n, weights),
            weight0_chains_oracle(P, dm, max_n, weights))


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", tuple(ALGEBRAS))
def test_pruned_chains_match_the_oracle(name, p):
    P = seeded(name, p)
    for M, max_n in ((homology.trivial_module(P), 6), (adjoint_action(P), 4)):
        got, want = both_enumerations(P, M, max_n)
        assert got == want


def ce_dims(P, max_n: int) -> list[int]:
    return [s.dim for s in homology.ce_complex(P, homology.trivial_module(P), max_n).spaces]


def test_weight_vanishing_mod_3():
    """Over F3 a chain of gl(2|2) whose weight is 3 over Q has weight 0, so
    the weight-0 chains outnumber those over Q from degree 3 on; the pruned
    enumerator keeps them."""
    P = seeded("gl(2|2)", 3)
    got, want = both_enumerations(P, homology.trivial_module(P), 6)
    assert got == want
    over_q = ce_dims(seeded("gl(2|2)", None), 6)
    assert [len(level) for level in got][:3] == over_q[:3]
    assert all(len(level) > q for level, q in zip(got[3:], over_q[3:]))


def test_pruning_computes_fewer_prefix_weights(monkeypatch):
    """Each prefix costs one field reduction per Cartan element.  For
    gl(2|2) at degree 5 the pruned enumerator, its reach table included,
    computes fewer than a third of the reductions of the oracle, which
    visits every canonical monomial."""
    P = matrix_gl(2, 2, ground_assoc(QQ))
    M = homology.trivial_module(P)
    weights = homology._cartan_weights(P, M)
    calls = []
    reduce = Field.reduce
    monkeypatch.setattr(Field, "reduce", lambda self, a: calls.append(a) or reduce(self, a))
    pruned = homology._weight0_chains(P, 1, 5, weights)
    n_pruned = len(calls)
    full = weight0_chains_oracle(P, 1, 5, weights)
    n_full = len(calls) - n_pruned
    assert pruned == full
    assert 3 * n_pruned < n_full
