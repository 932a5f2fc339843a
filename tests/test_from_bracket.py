"""Differential tests of the one bracket-table constructor.

``LieSuperAlgebra.from_bracket`` takes one sparse row per basis index,
which its four callers fill from the nonzero brackets, products and action
constants only; the oracle ``from_bracket_all_pairs`` evaluates the
bracket on every stored pair.  The tables of ``quotient_algebra``,
``subalgebra_on``, ``lie_from_assoc`` and ``semidirect`` are compared with
it, key order and entry order included, over Q, F3, F5 and F7, in seeded,
permuted and rescaled bases.  A call-count pin checks that a quotient takes
coordinates once per nonzero bracket, not once per pair.
"""

import random
from functools import lru_cache

import pytest

from oracles import ASSOC, LIE, PRIMES, change_basis, from_bracket_all_pairs, seeded_basis
from superlie import algebras
from superlie.actions import adjoint_action, ideal_crossed, semidirect
from superlie.algebras import (
    LieSuperAlgebra,
    NotAnIdeal,
    QuotientSpace,
    ideal_closure,
    lie_from_assoc,
    quotient_algebra,
    subalgebra_closure,
    subalgebra_on,
)
from superlie.fields import QQ, Field
from superlie.freelie import free_truncated, genset
from superlie.linalg import Subspace, vec_scale, vec_sub
from superlie.spaces import superspace

LIE_NAMES = ("heis", "gl(1|1)", "sl(2|1)", "sl(2|1, L1)")
# the names of this module's test IDs and seeds for algebras of the catalogue
ASSOC_NAMES = {"K[e]": "dual", "L1": "grassmann", "M(1|1, L1)": "M(1|1, L1)", "M(2|1)": "M(2|1, K)"}
SEEDS = (1, 2, 3)
Q_UNITS = (1, -1, 2, -3)


@lru_cache(maxsize=None)
def lie(name: str, p):
    if name == "free(x,y,z;c4)":
        return free_truncated(genset([("x", 0), ("y", 0), ("z", 0)]), 4).algebra()
    return LIE[name](Field(p))


LIE_CASES = [(name, p) for name in LIE_NAMES for p in PRIMES] + [("free(x,y,z;c4)", None)]


def listing(L: LieSuperAlgebra) -> list:
    """The table with its key order and the entry order of each value."""
    return [(key, list(v.items())) for key, v in L.table.items()]


def subspaces(L: LieSuperAlgebra, seed: int) -> dict[str, Subspace]:
    """Graded ideals of L, the ideal generated by a seeded basis vector
    among them, keyed by name."""
    full = L.full_subspace()
    k = random.Random(seed).randrange(L.dim)
    derived = L.product_subspace(full, full)
    return {
        "zero": Subspace(L.field, L.dim, []),
        "full": full,
        "derived": derived,
        "gamma3": L.product_subspace(full, derived),
        "center": L.center(),
        f"ideal(e{k})": ideal_closure(L, [{k: 1}]),
    }


def quotient_oracle(L: LieSuperAlgebra, I: Subspace) -> LieSuperAlgebra:
    q = QuotientSpace(L.space, L.full_subspace(), I, lambda k, lead: f"[{lead}]")
    section = q.section
    return from_bracket_all_pairs(q.space, lambda a, b: q.reduce(L.bracket(section[a], section[b])),
                                  "oracle")


def subalgebra_oracle(L: LieSuperAlgebra, S: Subspace, space) -> LieSuperAlgebra:
    rows = S.rows

    def bracket(a: int, b: int) -> dict:
        v = S.coords(L.bracket(rows[a], rows[b]))
        if v is None:
            raise NotAnIdeal("subspace is not closed under the bracket")
        return v

    return from_bracket_all_pairs(space, bracket, "oracle")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name,p", LIE_CASES)
def test_quotients_and_subalgebras_match_all_pairs(name, p, seed):
    L = lie(name, p)
    L = change_basis(L, seeded_basis(L, f"{name}:{p}:{seed}", units=Q_UNITS if p is None else None))
    for label, I in subspaces(L, seed).items():
        Q, proj = quotient_algebra(L, I)
        assert listing(Q) == listing(quotient_oracle(L, I)), label
        assert Q.space == proj.quotient.space
        view = subalgebra_on(L, I)
        assert listing(view.algebra) == listing(subalgebra_oracle(L, I, view.algebra.space)), label
    # a subalgebra that is not an ideal: the closure of two seeded basis vectors
    i, j = random.Random(seed).sample(range(L.dim), 2)
    S = subalgebra_closure(L, [{i: 1}, {j: 1}])
    view = subalgebra_on(L, S)
    assert listing(view.algebra) == listing(subalgebra_oracle(L, S, view.algebra.space))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("p", PRIMES)
def test_subalgebra_on_a_subspace_that_is_not_closed_raises(p, seed):
    """span(e_i, e_j) with [e_i, e_j] outside it, in sl(2|1)."""
    L = lie("sl(2|1)", p)
    L = change_basis(L, seeded_basis(L, f"sl(2|1):{p}:{seed}", units=Q_UNITS if p is None else None))
    pairs = [(i, j) for (i, j), w in L.table.items() if w.keys() - {i, j}]
    i, j = random.Random(seed).choice(pairs)
    S = Subspace(L.field, L.dim, [{i: 1}, {j: 1}])
    space = superspace(L.field, [("a", L.space.parities[i]), ("b", L.space.parities[j])])
    for build in (lambda: subalgebra_on(L, S), lambda: subalgebra_oracle(L, S, space)):
        with pytest.raises(NotAnIdeal) as caught:
            build()
        assert str(caught.value) == "subspace is not closed under the bracket"


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", sorted(ASSOC_NAMES))
def test_lie_from_assoc_matches_all_pairs(name, p, seed):
    A = ASSOC[ASSOC_NAMES[name]](Field(p))
    A = change_basis(A, seeded_basis(A, f"{name}:{p}:{seed}", units=Q_UNITS if p is None else None))
    par = A.space.parities

    def bracket(i: int, j: int) -> dict:
        sgn = -1 if par[i] * par[j] else 1
        return vec_sub(A.product({i: 1}, {j: 1}), vec_scale(A.product({j: 1}, {i: 1}), sgn))

    assert listing(lie_from_assoc(A)) == listing(from_bracket_all_pairs(A.space, bracket, "oracle"))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", sorted(LIE_NAMES))
def test_semidirect_matches_all_pairs(name, p, seed):
    """L on itself, and L on its derived algebra, in a seeded basis."""
    L = lie(name, p)
    L = change_basis(L, seeded_basis(L, f"{name}:{p}:{seed}", units=Q_UNITS if p is None else None))
    derived = subalgebra_on(L, L.product_subspace(L.full_subspace(), L.full_subspace()))
    for a in (adjoint_action(L), ideal_crossed(L, derived).action):
        M, P = a.target, a.actor
        dm = M.dim
        sd = semidirect(a)
        par = sd.space.parities

        def bracket(i: int, j: int) -> dict:
            if j < dm:
                return M.bracket({i: 1}, {j: 1})
            if i >= dm:
                return {dm + k: c for k, c in P.bracket({i - dm: 1}, {j - dm: 1}).items()}
            return vec_scale(a.act({j - dm: 1}, {i: 1}), 1 if par[i] * par[j] else -1)

        assert listing(sd) == listing(from_bracket_all_pairs(sd.space, bracket, "oracle"))


def test_from_bracket_keeps_the_stored_pairs_in_row_major_order():
    """Rows may list their entries in any order, below the diagonal and on
    an even diagonal too; the table keeps b >= a + 1 - |a|, b ascending,
    and drops zero values."""
    sp = superspace(QQ, [("x", 0), ("u", 1), ("v", 1)])
    rows = [
        {2: {2: 1}, 1: {1: 1}, 0: {0: 5}},  # (0, 0) is an even diagonal
        {2: {0: 1}, 1: {0: 2}, 0: {1: -1}},  # (1, 0) lies below the diagonal
        {2: {0: 0}},  # a zero value
    ]
    L = LieSuperAlgebra.from_bracket(sp, rows, name="t")
    assert listing(L) == [((0, 1), [(1, 1)]), ((0, 2), [(2, 1)]), ((1, 1), [(0, 2)]),
                          ((1, 2), [(0, 1)])]


def test_quotient_of_the_hopf_cover_takes_coordinates_once_per_nonzero_bracket(monkeypatch):
    """The class-5 free nilpotent cover on four even generators (dimension
    294) modulo gamma_5 (dimension 90), as the Hopf formula builds it for
    class 4: of the 4,005 stored pairs of the quotient basis, 485 have a
    nonzero bracket in the cover, and only those take coordinates through
    the projection; 125 of them are nonzero in the quotient."""
    trunc = free_truncated(genset([(f"x{i}", 0) for i in range(4)]), 5)
    cover, top = trunc.algebra(), trunc.offsets[5]
    gamma5 = Subspace(cover.field, cover.dim, [{i: 1} for i in range(top, cover.dim)])
    calls = []
    apply = algebras.Projection.apply
    monkeypatch.setattr(algebras.Projection, "apply", lambda self, v: calls.append(v) or apply(self, v))
    Q, _ = quotient_algebra(cover, gamma5)
    assert (cover.dim, Q.dim, len(Q.table)) == (294, 90, 125)
    assert len(calls) == sum(1 for _, b in cover.table if b < top) == 485
