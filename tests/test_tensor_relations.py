"""Differential tests of the relation space D(M, N) of the non-abelian
tensor product against the five-family oracle.

The production construction spans D with families (i) and (ii) only; the
oracle adds families (iii)-(v).  Both must give the same canonical
subspace, over Q and over F3, F5 and F7 (characteristic 3 is where graded
Jacobi is weakest), in randomly permuted and rescaled bases.  The oracle
alone also checks the two containments the tensor module docstring
proves, and dropping either generated family must trip the antisymmetry
certificate.

The adjoint square of an algebra with an inner grading is built by weight
blocks; its relations are compared with the full stream of families (i)
and (ii) of the oracle, in an F3 case where a weight vanishes only mod 3
too, and a non-Lie algebra must be refused before the blocks are used.
"""

from itertools import product

import pytest
from hypothesis import example, given, settings

from oracles import (
    IDEAL_ALGEBRAS,
    LIE,
    PRIMES,
    SQUARE_ALGEBRAS,
    catalogue_algebras,
    ideal_pair,
    inner_weights_dense,
    tensor_relations_oracle,
)
from superlie import tensor
from superlie.actions import adjoint_action
from superlie.algebras import LieSuperAlgebra, matrix_sl
from superlie.cyclic import grassmann_line
from superlie.fields import Field
from superlie.linalg import Echelon
from superlie.spaces import superspace
from superlie.tensor import BracketNotWellDefined, nonabelian_tensor

# algebras with an inner grading, beyond SQUARE_ALGEBRAS, for the weight blocks
GRADED_NAMES = ("sl(3)", "sl(2|1, L1)")


def assert_relations_match(M, N, act_mn, act_nm):
    t = nonabelian_tensor(M, N, act_mn, act_nm)
    assert t.d_generators == tensor_relations_oracle(M, N, act_mn, act_nm)


def standard(name, p):
    return LIE[name](Field(p))


@settings(max_examples=6, deadline=None)
@given(catalogue_algebras(LIE, SQUARE_ALGEBRAS))
@example(standard("heis", None))
@example(standard("abelian(1|1)", 3))
@example(standard("abelian(2|1)", 5))
@example(standard("gl(1|1)", 7))
@example(standard("gl(2|1)", 3))
@example(standard("gl(1|2)", 5))
@example(standard("gl(1|1, L1)", 3))
def test_adjoint_square_relations_match_five_family_oracle(L):
    adj = adjoint_action(L)
    assert_relations_match(L, L, adj, adj)


@pytest.mark.parametrize("which", ["derived", "center"])
@settings(max_examples=4, deadline=None)
@given(L=catalogue_algebras(LIE, IDEAL_ALGEBRAS))
def test_ideal_pair_relations_match_five_family_oracle(which, L):
    kalg, act_lk, act_kl = ideal_pair(L, which)
    assert_relations_match(kalg, L, act_kl, act_lk)
    assert_relations_match(L, kalg, act_lk, act_kl)


@pytest.mark.parametrize("p", PRIMES)
def test_jacobi_family_lies_in_families_i_and_iv(p):
    """The argument in the tensor module docstring: family (v) already lies
    in span(i) + span(iv), with no other family and no division."""
    L = standard("gl(1|1, L1)", p)
    adj = adjoint_action(L)
    base = tensor_relations_oracle(L, L, adj, adj, families=("i", "iv"))
    assert base.contains(tensor_relations_oracle(L, L, adj, adj, families=("v",)))


@pytest.mark.parametrize("p", PRIMES)
def test_families_iii_and_iv_lie_in_families_i_and_ii(p):
    """The argument in the tensor module docstring: compatibility puts
    families (iii) and (iv) in span(i) + span(ii), for every adjoint square
    and every ideal pair above."""
    cases = []
    for name in SQUARE_ALGEBRAS:
        L = standard(name, p)
        adj = adjoint_action(L)
        cases.append((L, L, adj, adj))
    for name in IDEAL_ALGEBRAS:
        for which in ("derived", "center"):
            L = standard(name, p)
            kalg, act_lk, act_kl = ideal_pair(L, which)
            cases += [(kalg, L, act_kl, act_lk), (L, kalg, act_lk, act_kl)]
    for M, N, act_mn, act_nm in cases:
        base = tensor_relations_oracle(M, N, act_mn, act_nm, families=("i", "ii"))
        assert base.contains(tensor_relations_oracle(M, N, act_mn, act_nm, families=("iii", "iv")))


@pytest.mark.parametrize("family", ["_family_i", "_family_ii"])
@pytest.mark.parametrize("name, p", [("gl(1|1)", None), ("gl(1|1, L1)", 5), ("sl(2|1, L1)", None)])
def test_antisymmetry_certificate_refuses_a_missing_family(monkeypatch, family, name, p):
    """Without one generated family the edge maps still kill D, but the
    bracket on classes is not antisymmetric, and the product is refused."""
    if name == "sl(2|1, L1)":
        L = matrix_sl(2, 1, grassmann_line(Field(p))).algebra
    else:
        L = standard(name, p)
    adj = adjoint_action(L)
    monkeypatch.setattr(tensor, family, lambda *args: iter(()))
    with pytest.raises(BracketNotWellDefined, match="not antisymmetric on classes"):
        nonabelian_tensor(L, L, adj, adj)


@settings(max_examples=10, deadline=None)
@given(catalogue_algebras(LIE, SQUARE_ALGEBRAS + GRADED_NAMES))
@example(standard("heis", 3))
@example(standard("sl(3)", 3))
def test_inner_weights_match_a_dense_diagonal_check(L):
    """inner_torus of the adjoint action against the dense check: the h
    with a nonzero weight, and their weights on L as the module too."""
    want = [(h, lam) for h, lam in inner_weights_dense(L) if any(lam)]
    hs, lam, mu = L.inner_torus(adjoint_action(L))
    assert hs == [h for h, _ in want]
    assert lam == mu == [tuple(w[i] for _, w in want) for i in range(L.dim)]


def tensor_weights(L):
    """The weight vector of each basis tensor, in the pair basis."""
    _, lam, _ = L.inner_torus(adjoint_action(L))
    return [tuple(L.field.reduce(a + b) for a, b in zip(lam[i], lam[j]))
            for i in range(L.dim) for j in range(L.dim)]


@settings(max_examples=6, deadline=None)
@given(catalogue_algebras(LIE, ("gl(2|1)", *GRADED_NAMES)))
@example(standard("gl(2|1)", 7))
@example(standard("sl(3)", 3))
@example(standard("sl(2|1, L1)", None))
@example(standard("sl(2|1, L1)", 5))
def test_weight_blocks_match_the_full_families(L):
    """The weight blocks against the oracle's full stream of families (i)
    and (ii), which spans D by the tests above (the five families of the
    oracle take seconds on sl(2|1, Lambda1))."""
    adj = adjoint_action(L)
    assert tensor._weight_blocks(L, adj) is not None
    t = nonabelian_tensor(L, L, adj, adj)
    assert t.d_generators == tensor_relations_oracle(L, L, adj, adj, families=("i", "ii"))


def test_weight_that_vanishes_mod_3_joins_the_weight_0_block():
    """In sl(3), h = E11 - E33 has weight 2 on E13 and 1 on E12, so
    E12 (x) E13 has weight 3: nonzero over Q, 0 over F3, where its
    generators are streamed with the weight-0 block."""
    over_q, over_3 = standard("sl(3)", None), standard("sl(3)", 3)
    assert over_q.space.labels == over_3.space.labels
    assert any(any(wq) and not any(w3)
               for wq, w3 in zip(tensor_weights(over_q), tensor_weights(over_3)))
    adj = adjoint_action(over_3)
    t = nonabelian_tensor(over_3, over_3, adj, adj)
    assert t.d_generators == tensor_relations_oracle(over_3, over_3, adj, adj)


@pytest.mark.parametrize("p", PRIMES)
def test_weight_blocks_refuse_an_algebra_that_fails_jacobi(p):
    """ad(h) is diagonal, [h, x] = x and [h, y] = y, but [x, y] = z with
    [h, z] = 0 breaks graded Jacobi at (h, x, y); the blocks rest on it,
    and the product refuses it at entry, naming the Lie axioms."""
    F = Field(p)
    sp = superspace(F, [("h", 0), ("x", 0), ("y", 0), ("z", 0)])
    P = LieSuperAlgebra(sp, {(0, 1): {1: 1}, (0, 2): {2: 1}, (1, 2): {3: 1}})
    adj = adjoint_action(P)
    assert P.inner_torus(adj) == ([0], [(0,), (1,), (1,), (0,)], [(0,), (1,), (1,), (0,)])
    with pytest.raises(BracketNotWellDefined, match="needs the Lie axioms of M and N"):
        nonabelian_tensor(P, P, adj, adj)


def test_weight_blocks_cut_the_membership_tests(monkeypatch):
    """The adjoint square of sl(2|1, Lambda1) by weight blocks takes fewer
    than a sixth of the membership tests of the stream from the generating
    set, which the square takes when its two actions are distinct objects."""
    L = standard("sl(2|1, L1)", None)
    calls = []
    contains = Echelon.contains

    def counting(self, v):
        calls.append(v)
        return contains(self, v)

    monkeypatch.setattr(Echelon, "contains", counting)
    adj = adjoint_action(L)
    by_blocks = nonabelian_tensor(L, L, adj, adj).d_generators
    n_blocks = len(calls)
    calls.clear()
    full = nonabelian_tensor(L, L, adj, adjoint_action(L)).d_generators
    assert by_blocks == full
    assert 0 < 6 * n_blocks < len(calls)


def weight_block_pairs_brute_force(L):
    """The two pair lists of ``tensor._weight_blocks`` by a filter over
    every (i, j, c), row-major, c the basis element of M or N that meets the
    basis tensor x = e_i (x) e_j: the pairs of total weight 0, and for x of
    nonzero weight w the pair (h_k, x), k the first index with w_k != 0,
    unless e_i is h_k."""
    reduce, dim = L.field.reduce, L.dim
    hs, lam, _ = L.inner_torus(adjoint_action(L))
    closed = [(i * dim + j, c) for i, j, c in product(range(dim), repeat=3)
              if not any(reduce(a + b + d) for a, b, d in zip(lam[i], lam[j], lam[c]))]
    spanning = []
    for i, j in product(range(dim), repeat=2):
        first = [h for h, a, b in zip(hs, lam[i], lam[j]) if reduce(a + b)]
        if first and first[0] != i:
            spanning.append((first[0], i * dim + j))
    return closed, spanning


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", ("gl(2|1)", "gl(1|1, L1)", *GRADED_NAMES))
def test_weight_block_pairs_match_brute_force(name, p):
    """The pairs come from the weight-0 words of spaces.weight0_words; the
    same pairs in the same order as the filter, so the relation space is
    accumulated in the same order."""
    L = standard(name, p)
    assert tensor._weight_blocks(L, adjoint_action(L)) == weight_block_pairs_brute_force(L)


def test_weight_block_pairs_keep_a_weight_vanishing_mod_3():
    """E12 (x) E13 of sl(3) has weight 3 under E11 - E33: a spanning pair
    over Q, and over F3 a basis tensor of the weight-0 block."""
    over_q, over_3 = standard("sl(3)", None), standard("sl(3)", 3)
    labels = over_3.space.labels
    x = labels.index("E12(1)'") * over_3.dim + labels.index("E13(1)'")
    pairs_q = tensor._weight_blocks(over_q, adjoint_action(over_q))
    pairs_3 = tensor._weight_blocks(over_3, adjoint_action(over_3))
    assert x in {y for _, y in pairs_q[1]} and x not in {y for y, _ in pairs_q[0]}
    assert x in {y for y, _ in pairs_3[0]} and x not in {y for _, y in pairs_3[1]}
    assert pairs_3 == weight_block_pairs_brute_force(over_3)
