"""The fused zero test of the certificates.

Each certificate identity is tested one group at a time by one fused sum
(``superlie.linalg.add_spread``, ``add_composed`` and ``sum_is_zero``), and
``superlie.algebras._defects`` only writes the report of a group whose sum
is nonzero.  A zero test that is too weak would only cost speed, since
``_defects`` finds nothing in a group that holds, so the dense-oracle
tests of ``tests/test_certificates.py`` cannot see it; these tests count
the calls of ``_defects`` instead.  No group of a certified input calls
it, over Q and over F3, F5 and F7 on bases rescaled by +-2, where the
unreduced sums reach multiples of p; on a corrupted input each failing
group calls it once and no other group does.
"""

import pytest

from oracles import (
    LIE,
    PRIMES,
    change_basis,
    check_action_dense,
    check_assoc_axioms_dense,
    check_compatible_dense,
    check_crossed_dense,
    check_lie_axioms_dense,
    perturbed,
)
import superlie.algebras as algebras_module
from superlie.actions import (
    Action,
    CrossedModule,
    _action_violations,
    _compatibility_violations,
    _crossed_violations,
    adjoint_action,
    check_action,
    check_compatible,
    check_crossed,
)
from superlie.algebras import (
    AssocSuperAlgebra,
    LieSuperAlgebra,
    _assoc_violations,
    _lie_violations,
    check_assoc_axioms,
    check_lie_axioms,
    ground_assoc,
    matrix_assoc,
)
from superlie.fields import Field
from superlie.spaces import GradedMap
from superlie.tensor import adjoint_tensor_square

NAMES = ("heis", "gl(2|1)", "sl(2|1, L1)")
FUSED_KINDS = {"jacobi", "action-i", "action-ii", "compat-i", "compat-ii", "assoc",
               "boundary-hom", "equivariance", "peiffer"}
"""The violation kinds that _defects reports; the group of such a
violation is its kind and its witness less the last index."""


def rescaled(obj):
    """obj in the reversed basis, scaled by 2 and -2 in turn."""
    return change_basis(obj, [{obj.dim - 1 - a: 2 if a % 2 else -2} for a in range(obj.dim)])


def rescaled_m11(F: Field) -> AssocSuperAlgebra:
    return rescaled(matrix_assoc(1, 1, ground_assoc(F)))


@pytest.fixture
def defect_calls(monkeypatch):
    """The number of defects that each call of _defects yielded, in call
    order."""
    calls = []
    report = algebras_module._defects

    def counted(*args):
        found = list(report(*args))
        calls.append(len(found))
        return iter(found)

    monkeypatch.setattr(algebras_module, "_defects", counted)
    return calls


@pytest.mark.parametrize("p", PRIMES)
def test_certified_inputs_write_no_report(defect_calls, p):
    """Neither the checkers, nor their loops over every basis index, nor
    the construction of the adjoint tensor squares call _defects."""
    F = Field(p)
    for name in NAMES:
        L = rescaled(LIE[name](F))
        adj = adjoint_action(L)
        assert check_lie_axioms(L).ok and check_action(adj).ok and check_compatible(adj, adj).ok
        every = range(L.dim)
        assert not list(_lie_violations(L, every)) and not list(_action_violations(adj, every))
        t = adjoint_tensor_square(L)
        assert check_crossed(t.cross_m).ok
        assert not list(_crossed_violations(t.cross_m, every, range(t.algebra.dim)))
    A = rescaled_m11(F)
    assert check_assoc_axioms(A).ok and not list(_assoc_violations(A))
    assert defect_calls == []


def assert_one_call_per_failing_group(calls: list, violations) -> None:
    """An uncapped loop over every basis index calls _defects once for
    each group with a violation, and for no other group."""
    calls.clear()
    found = [v for v in violations if v.kind in FUSED_KINDS]
    groups = {(v.kind, v.witness[:-1]) for v in found}
    assert found and all(calls)
    assert len(calls) == len(groups) and sum(calls) == len(found)


def listing(report):
    return report.ok, [(v.kind, v.witness, list(v.defect.items())) for v in report.violations]


@pytest.mark.parametrize("p", PRIMES)
def test_corrupted_inputs_report_only_their_failing_groups(defect_calls, p):
    """One perturbed constant of gl(2|1), of its adjoint action and of
    M(1|1, K): each report equals the dense oracle's, and _defects runs
    for the failing groups only."""
    F = Field(p)
    L = rescaled(LIE["gl(2|1)"](F))
    every = range(L.dim)
    bad = LieSuperAlgebra(L.space, perturbed(L.table), name=L.name)
    assert listing(check_lie_axioms(bad)) == listing(check_lie_axioms_dense(bad))
    assert_one_call_per_failing_group(defect_calls, _lie_violations(bad, range(bad.dim)))

    adj = adjoint_action(L)
    a = Action(L, L, perturbed(adj.table))
    assert listing(check_action(a)) == listing(check_action_dense(a))
    assert_one_call_per_failing_group(defect_calls, _action_violations(a, every))
    assert listing(check_compatible(a, adj)) == listing(check_compatible_dense(a, adj))
    assert_one_call_per_failing_group(defect_calls, _compatibility_violations(a, adj))
    c = CrossedModule(L, L, GradedMap.identity(L.space), a)
    assert listing(check_crossed(c)) == listing(check_crossed_dense(c))
    assert_one_call_per_failing_group(defect_calls, _crossed_violations(c, every, every))

    A = rescaled_m11(F)
    bad_a = AssocSuperAlgebra(A.space, perturbed(A.table), unit=A.unit, name=A.name)
    assert listing(check_assoc_axioms(bad_a)) == listing(check_assoc_axioms_dense(bad_a))
    assert_one_call_per_failing_group(defect_calls, _assoc_violations(bad_a))
