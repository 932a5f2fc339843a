"""The pruned weight-0 enumerator of both complexes.

``spaces.weight0_words`` extends a prefix of factors only while its weight
can still be completed to weight 0.  Under the Chevalley–Eilenberg rule
(canonical wedge monomials closed by the module index) the oracle in
``tests/oracles.py`` enumerates every canonical monomial and keeps the
weight-0 chains at the end; under the tensor-word rule of the Connes
complex (any factor after any, closed by the last factor) every basis
tuple is filtered by its weight.  The lists must agree, order included,
over Q, F3, F5 and F7, the Chevalley–Eilenberg ones in seeded permuted
and rescaled bases.
"""

import importlib
from functools import lru_cache

import pytest

from itertools import product

from oracles import (
    ASSOC,
    LIE,
    PRIMES,
    assoc_weights_dense,
    change_basis,
    seeded_basis,
    weight0_chains_oracle,
)
from superlie.actions import adjoint_action
from superlie.algebras import ground_assoc, matrix_gl
from superlie.cyclic import connes
from superlie.fields import QQ, Field
from superlie.spaces import exterior_power, weight0_words

homology = importlib.import_module("superlie.homology")
spaces = importlib.import_module("superlie.spaces")

@lru_cache(maxsize=None)
def algebra(name: str, p):
    """The algebra of the catalogue in a seeded permuted, rescaled basis."""
    L = LIE[name](Field(p))
    return change_basis(L, seeded_basis(L, f"{name}:{p}"))


def ce_words(P, max_n: int, lam, mu):
    """weight0_words under the Chevalley–Eilenberg rule, as
    ``homology.ce_complex`` calls it: factor i is followed by indices from
    i + 1 - |x_i| on, and the closing index is the module index."""
    par = P.space.parities
    return weight0_words(P.field, lam, [i + 1 - par[i] for i in range(P.dim)], mu, max_n)


def both_enumerations(P, M, max_n: int):
    _, lam, mu = P.inner_torus(M)
    return ce_words(P, max_n, lam, mu), weight0_chains_oracle(P, max_n, lam, mu)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", ("gl(2|2)", "gl(2|1)", "sl(2|1, L1)"))
def test_pruned_chains_match_the_oracle(name, p):
    P = algebra(name, p)
    for M, max_n in ((homology.trivial_module(P), 6), (adjoint_action(P), 4)):
        got, want = both_enumerations(P, M, max_n)
        assert got == want


def ce_dims(P, max_n: int) -> list[int]:
    return [s.dim for s in homology.ce_complex(P, homology.trivial_module(P), max_n).spaces]


def test_weight_vanishing_mod_3():
    """Over F3 a chain of gl(2|2) whose weight is 3 over Q has weight 0, so
    the weight-0 chains outnumber those over Q from degree 3 on; the pruned
    enumerator keeps them."""
    P = algebra("gl(2|2)", 3)
    got, want = both_enumerations(P, homology.trivial_module(P), 6)
    assert got == want
    over_q = ce_dims(algebra("gl(2|2)", None), 6)
    assert [len(level) for level in got][:3] == over_q[:3]
    assert all(len(level) > q for level, q in zip(got[3:], over_q[3:]))


def test_pruning_computes_fewer_prefix_weights(monkeypatch):
    """For gl(2|2) at degree 5 the pruned enumerator computes fewer than a
    third of the prefix weights of the oracle, its reach table included.
    The enumerator computes each prefix weight by one call of the sum that
    ``spaces._weight_adder`` returns; the oracle computes one per canonical
    monomial of 1 to 5 factors, each by one field reduction per Cartan
    element, besides one per Cartan element and module index for the
    weights it looks for."""
    P = matrix_gl(2, 2, ground_assoc(QQ))
    M = homology.trivial_module(P)
    _, lam, mu = P.inner_torus(M)
    sums = []
    adder = spaces._weight_adder

    def counting(field):
        plus = adder(field)
        return lambda w, l: sums.append(w) or plus(w, l)

    monkeypatch.setattr(spaces, "_weight_adder", counting)
    pruned = ce_words(P, 5, lam, mu)
    n_pruned = len(sums)
    reductions = []
    reduce = Field.reduce
    monkeypatch.setattr(Field, "reduce", lambda self, a: reductions.append(a) or reduce(self, a))
    full = weight0_chains_oracle(P, 5, lam, mu)
    n_full = sum(len(exterior_power(P.space, n)[1]) for n in range(1, 6))
    assert len(reductions) == len(lam[0]) * (n_full + len(mu))
    assert pruned == full
    assert 0 < 3 * n_pruned < n_full


def tensor_words_brute_force(A, max_n: int) -> list[list]:
    """Per degree n the basis tuples (a_0, ..., a_n) of weight 0 in the
    field under every weight read densely from the products, filtered from
    every tuple in row-major order, as (prefix, last factor)."""
    weights = assoc_weights_dense(A)
    return [[(t[:-1], t[-1]) for t in product(range(A.dim), repeat=n + 1)
             if not any(A.field.of(sum(lam[k] for k in t)) for lam in weights)]
            for n in range(max_n + 1)]


@pytest.mark.parametrize("p", PRIMES)
# the dual numbers have no inner grading: every tuple
@pytest.mark.parametrize("name", ("M(1|1, L1)", "M(2|1, K)", "dual"))
def test_tensor_words_match_brute_force(name, p):
    A = ASSOC[name](Field(p))
    lam = [tuple(w) for w in zip(*assoc_weights_dense(A))] or [()] * A.dim
    got = weight0_words(A.field, lam, [0] * A.dim, lam, 3)
    assert got == tensor_words_brute_force(A, 3)


def test_tensor_words_keep_weights_vanishing_mod_3():
    """Over F3 the tuples of M(1|1, Lambda1) of weight 3 or -3 over Q have
    weight 0, so degree 2 keeps more tuples than over Q."""
    counts = {}
    for p in (None, 3):
        A = ASSOC["M(1|1, L1)"](Field(p))
        lam = [tuple(w) for w in zip(*assoc_weights_dense(A))]
        counts[p] = [len(level) for level in weight0_words(A.field, lam, [0] * A.dim, lam, 3)]
    assert counts[None] == [4, 24, 160, 1120]
    assert counts[3] == [4, 24, 176, 1376]


def test_connes_labels_only_its_block():
    """The plain spaces of the Connes complex are the block's tuples, not
    the 8, 64, 512, 4096 of the full tensor powers."""
    A = ASSOC["M(1|1, L1)"](QQ)
    assert [sp.dim for sp in connes(A, 3).plain_spaces] == [4, 24, 160, 1120]
