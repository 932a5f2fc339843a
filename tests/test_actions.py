import random
from importlib import import_module

import pytest

from oracles import subspace_bracket_action
from superlie.actions import (
    Action,
    ActionInvalid,
    CrossedModule,
    adjoint_action,
    check_action,
    check_compatible,
    check_crossed,
    crossed_pullback_actions,
    ideal_crossed,
    identity_crossed,
    semidirect,
    supermodule_crossed,
    trivial_action,
)
from superlie.algebras import (
    abelian,
    check_lie_axioms,
    heisenberg,
    series,
    subalgebra_on,
)
from superlie.fields import QQ
from superlie.linalg import Matrix
from superlie.spaces import GradedMap

actions_module = import_module("superlie.actions")


def test_trivial_action_certified(heis):
    assert check_action(trivial_action(heis, heis)).ok


def test_adjoint_action_certified(heis, gl11, sl21):
    for alg in (heis, gl11, sl21):
        assert check_action(adjoint_action(alg)).ok


def test_a_crossed_module_pass_certifies_its_action(heis, monkeypatch):
    """The crossed module axioms include those of the action, so after
    check_crossed passes, check_action runs no loop on that action; a
    crossed module that fails, here with its boundary doubled on x,
    records nothing on its action."""
    cm = identity_crossed(heis)
    doubled = GradedMap.from_columns(heis.space, heis.space,
                                     [{i: 2 if i == 0 else 1} for i in range(heis.dim)])
    bad = CrossedModule(heis, heis, doubled, adjoint_action(heis))
    assert check_crossed(cm) and not check_crossed(bad)
    loops = []
    violations = actions_module._action_violations
    monkeypatch.setattr(actions_module, "_action_violations",
                        lambda *args: loops.append(args) or violations(*args))
    assert check_action(cm.action) and loops == []
    assert check_action(bad.action) and len(loops) == 1


def test_bracket_action_on_ideal(heis):
    s = series(heis)
    zview = subalgebra_on(heis, s.center, name="Z")
    cm = ideal_crossed(heis, zview)
    assert check_action(cm.action).ok


def test_random_action_constants_caught(gl11):
    rng = random.Random(7)
    adj = adjoint_action(gl11)
    for _ in range(20):
        table = {k: dict(v) for k, v in adj.table.items()}
        (p, m) = rng.choice(list(table))
        k = rng.choice(list(table[(p, m)]))
        table[(p, m)][k] = table[(p, m)][k] + rng.choice([1, -1, 2])
        bad = Action(gl11, gl11, table)
        rep = check_action(bad)
        assert not rep.ok
        assert rep.violations[0].witness


def test_compatible_adjoint(heis, sl21):
    for alg in (heis, sl21):
        adj = adjoint_action(alg)
        assert check_compatible(adj, adj).ok


def test_compatible_trivial():
    a = abelian(QQ, 1, 1)
    b = heisenberg(QQ)
    assert check_compatible(trivial_action(a, b), trivial_action(b, a)).ok


def test_compatible_ideal_bracket_actions(gl11):
    # two graded ideals of a common superalgebra with bracket actions
    slpart = gl11.product_subspace(gl11.full_subspace(), gl11.full_subspace())
    sview = subalgebra_on(gl11, slpart)
    full_view = subalgebra_on(gl11, gl11.full_subspace())
    a_fs = subspace_bracket_action(gl11, full_view, sview)
    a_sf = subspace_bracket_action(gl11, sview, full_view)
    assert check_compatible(a_fs, a_sf).ok


def test_mixed_mismatch_actions_caught(gl11):
    # adjoint against trivial fails compatibility once double brackets survive
    adj = adjoint_action(gl11)
    triv = trivial_action(gl11, gl11)
    rep = check_compatible(adj, triv)
    assert not rep.ok
    assert rep.violations[0].witness


def test_identity_crossed(heis, gl11, sl21):
    for alg in (heis, gl11, sl21):
        rep = check_crossed(identity_crossed(alg))
        assert rep.ok
        assert not {v.kind for v in rep.violations} & {
            "kernel-not-central", "image-not-ideal", "kernel-module"}


def test_ideal_inclusion_crossed(heis):
    s = series(heis)
    zview = subalgebra_on(heis, s.center, name="Z")
    assert check_crossed(ideal_crossed(heis, zview)).ok


def test_pullback_through_an_ideal_inclusion_is_the_bracket(heis, gl11, sl21):
    """K acts on L by k.e_i = [k, e_i]: the table right-exactness once built by hand."""
    for L, K in ((heis, series(heis).center),
                 (gl11, gl11.product_subspace(gl11.full_subspace(), gl11.full_subspace())),
                 (sl21, sl21.full_subspace())):
        view = subalgebra_on(L, K, name="K")
        cm = ideal_crossed(L, view)
        act_lk, act_kl = crossed_pullback_actions(cm)
        assert act_lk is cm.action
        by_hand = {(a, i): L.bracket(col, {i: 1})
                   for a, col in enumerate(view.inclusion.matrix.cols) for i in range(L.dim)}
        assert act_kl.table == {k: v for k, v in by_hand.items() if v}
        assert check_action(act_kl).ok


def test_supermodule_crossed(heis):
    k = abelian(QQ, 1, 0, prefix="k")
    cm = supermodule_crossed(heis, k, trivial_action(heis, k))
    rep = check_crossed(cm)
    assert rep.ok


def test_crossed_boundary_tamper_caught(heis, gl11, sl21):
    for alg in (heis, gl11, sl21):
        cid = identity_crossed(alg)
        cols = [dict(c) for c in cid.boundary.matrix.cols]
        cols[0] = {k: 2 * c for k, c in cols[0].items()}
        bad = CrossedModule(
            cid.m, cid.p,
            GradedMap(alg.space, alg.space, Matrix(QQ, alg.dim, cols)),
            cid.action)
        assert not check_crossed(bad).ok


def test_semidirect_trivial_is_direct_sum(heis):
    sd = semidirect(trivial_action(heis, heis))
    assert sd.dim == 6
    assert check_lie_axioms(sd).ok
    g2 = sd.product_subspace(sd.full_subspace(), sd.full_subspace())
    assert g2.dim == 2


def test_semidirect_adjoint(heis):
    sd = semidirect(adjoint_action(heis))
    assert sd.dim == 6
    assert check_lie_axioms(sd).ok


def test_semidirect_scalar_action_solvable():
    p = abelian(QQ, 1, 0, prefix="p")
    m = abelian(QQ, 1, 0, prefix="m")
    a = Action(p, m, {(0, 0): {0: 1}})
    sd = semidirect(a)
    assert sd.dim == 2
    assert check_lie_axioms(sd).ok
    s = series(sd)
    assert s.nil_class is None and s.derived_length == 2


def test_semidirect_rejects_invalid_action(gl11):
    bad = Action(gl11, gl11, {(0, 1): {2: 1}})
    with pytest.raises(ActionInvalid):
        semidirect(bad)


def test_semidirect_odd_parts(gl11):
    sd = semidirect(adjoint_action(gl11))
    assert sd.space.dim_pair == (4, 4)
    assert check_lie_axioms(sd).ok
