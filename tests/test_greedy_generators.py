"""The generating set S of the certificates: the greedy walk of
``superlie.closure`` against the index-order walk of the oracles.

The certificates need only that S generates L (the ``algebras`` module
docstring), so the choice of S changes no result.  On the algebras of the
catalogue and on generated subalgebras of gl(2|1), in seeded shuffled and
unitriangular bases over Q, F3, F5 and F7, both walks give sets that
generate, and the adjoint square built with either one memoized has the
same relation space and the same certificate reports.  A walk that drops
its last pick is refused.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import superlie.algebras as algebras_module
import superlie.closure as closure
from oracles import (
    LIE,
    PRIMES,
    SQUARE_ALGEBRAS,
    change_basis,
    generating_set_by_index,
    gl21_subalgebras,
    perturbed,
    seeded_basis,
)
from superlie.actions import Action, check_action, check_crossed
from superlie.algebras import LieSuperAlgebra, check_lie_axioms, subalgebra_closure
from superlie.closure import generating_set
from superlie.fields import QQ, Field
from superlie.tensor import adjoint_tensor_square


@st.composite
def seeded_catalogue(draw, p, unitriangular):
    """An algebra of LIE over GF(p), or Q for p None, in a seeded shuffled
    basis, or a unitriangular one if ``unitriangular`` names it."""
    name = draw(st.sampled_from(sorted(LIE)))
    kinds = ("shuffle", "unitriangular") if name in unitriangular else ("shuffle",)
    L = LIE[name](Field(p))
    return change_basis(L, seeded_basis(L, draw(st.integers(0, 2 ** 16)), draw(st.sampled_from(kinds))))


def drawn(p, unitriangular=tuple(LIE)):
    return st.one_of(seeded_catalogue(p, unitriangular), gl21_subalgebras(p))


def listing(report):
    return report.ok, [(v.kind, v.witness, sorted(v.defect.items())) for v in report.violations]


def square_reports(L):
    """The relation space of the adjoint square of L, its bracket table,
    and the reports of its certificates, with those of a perturbed bracket
    and a perturbed action of L on it."""
    t = adjoint_tensor_square(L)
    table, rho = t.algebra.table, t.action_m.table
    bad_bracket = LieSuperAlgebra(t.algebra.space, perturbed(table) if table else {})
    bad_action = Action(L, t.algebra, perturbed(rho) if rho else {})
    return (t.d_generators, t.algebra.table, listing(check_lie_axioms(t.algebra)),
            listing(check_action(t.action_m)), listing(check_crossed(t.cross_m)),
            listing(check_lie_axioms(bad_bracket)), listing(check_action(bad_action)))


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_both_walks_generate(p, data):
    """Either S is ascending and its closure is the whole space, and the
    certificate memoizes the greedy one."""
    L = data.draw(drawn(p))
    greedy = generating_set(L)
    for S in (greedy, generating_set_by_index(L)):
        assert S == sorted(set(S))
        assert subalgebra_closure(L, [{s: 1} for s in S]).dim == L.dim
    assert check_lie_axioms(L) and L._generators == greedy


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_either_generating_set_gives_the_same_square(p, data):
    """The adjoint square built, and certified, with the greedy S memoized
    on every algebra, and on a fresh copy with the index-order S, has the
    same relation space and bracket, and every certificate report agrees.
    Unitriangular bases are drawn for the SQUARE_ALGEBRAS only: the larger
    algebras then have no inner torus, and their squares stream every
    relation, over a second each over Q."""
    L = data.draw(drawn(p, SQUARE_ALGEBRAS))
    fresh = change_basis(L, [{i: 1} for i in range(L.dim)])
    greedy = square_reports(L)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebras_module, "generating_set", generating_set_by_index)
        by_index = square_reports(fresh)
        assert fresh._generators == generating_set_by_index(fresh)
    assert L._generators == generating_set(L)
    assert greedy == by_index


@pytest.mark.parametrize("name", sorted(LIE))
def test_a_walk_that_drops_its_last_pick_is_refused(monkeypatch, name):
    """Mutation: the walk stops before its last pick, so the span closed on
    the other picks is not the whole space; the closure assertion refuses
    it, and no generating set is memoized."""
    L = LIE[name](QQ)
    picks, order = closure._picks, []

    def recording(L, acc):
        for i in picks(L, acc):
            order.append(i)
            yield i

    monkeypatch.setattr(closure, "_picks", recording)
    assert generating_set(L) == sorted(order)

    def dropping(L, acc):
        for i in picks(L, acc):
            if i == order[-1]:
                return
            yield i

    monkeypatch.setattr(closure, "_picks", dropping)
    with pytest.raises(RuntimeError, match="does not generate"):
        check_lie_axioms(L)
    assert L._generators is None
