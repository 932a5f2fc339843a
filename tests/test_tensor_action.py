"""Differential tests of :func:`superlie.actions.tensor_action`, the one
action x.(m (x) n) = x.m (x) n + (-1)^{|x||m|} m (x) x.n on a tensor
product, against the dense slot-by-slot oracle.

The action itself is compared on every basis tensor, and so are the
actions it induces on classes: those of M and N on the non-abelian tensor
product (the adjoint squares and ideal pairs of ``test_tensor_relations``)
and that of A on V(A) (M(1|1) and the Grassmann line), over Q, F3, F5 and
F7, in permuted, rescaled bases.  A tensor action without the Koszul sign
must be refused by both constructions: by the tensor product of gl(1|1)
and by V(M(1|1, Lambda1)).
"""

import pytest
from hypothesis import example, given, settings

from oracles import (
    ASSOC,
    IDEAL_ALGEBRAS,
    LIE,
    PRIMES,
    SQUARE_ALGEBRAS,
    catalogue_algebras,
    ideal_pair,
    tensor_action_oracle,
)
from superlie import cyclic, tensor
from superlie.actions import adjoint_action, tensor_action
from superlie.algebras import ground_assoc, matrix_assoc, matrix_gl
from superlie.cyclic import grassmann_line, v_algebra
from superlie.fields import Field
from superlie.homology import ComplexInconsistent
from superlie.linalg import ContainmentError, vec_axpy
from superlie.spaces import tensor_vec
from superlie.tensor import nonabelian_tensor


def induced_oracle(plain: dict, actor_dim: int, q) -> dict[tuple[int, int], dict]:
    """The oracle's constants ``plain`` on the plain tensor product applied
    to the section of its quotient q, reduced to class coordinates."""
    table = {}
    for k, s in enumerate(q.section):
        for a in range(actor_dim):
            v: dict = {}
            for t, c in s.items():
                vec_axpy(v, c, plain.get((a, t), {}))
            if w := q.reduce(v):
                table[(a, k)] = w
    return table


def assert_action_matches(left, right, q, induced):
    """tensor_action agrees with the oracle on every basis tensor of the
    plain product, and ``induced`` with the oracle's reduction to q."""
    act, want = tensor_action(left, right), tensor_action_oracle(left, right)
    field, dim = left.field, left.target.dim * right.target.dim
    for a in range(left.actor.dim):
        for t in range(dim):
            assert field.clean(act(a, {t: 1})) == want.get((a, t), {}), (a, t)
    assert induced.table == induced_oracle(want, left.actor.dim, q)


def assert_tensor_actions_match(M, N, act_mn, act_nm):
    t = nonabelian_tensor(M, N, act_mn, act_nm)
    assert_action_matches(adjoint_action(M), act_mn, t.quotient, t.action_m)
    assert_action_matches(act_nm, adjoint_action(N), t.quotient, t.action_n)


@settings(max_examples=6, deadline=None)
@given(catalogue_algebras(LIE, SQUARE_ALGEBRAS))
@example(LIE["heis"](Field(None)))
@example(LIE["abelian(1|1)"](Field(3)))
@example(LIE["gl(1|1)"](Field(7)))
@example(LIE["gl(2|1)"](Field(3)))
@example(LIE["gl(1|2)"](Field(5)))
@example(LIE["gl(1|1, L1)"](Field(5)))
def test_adjoint_square_actions_match_the_oracle(L):
    adj = adjoint_action(L)
    assert_tensor_actions_match(L, L, adj, adj)


@pytest.mark.parametrize("which", ["derived", "center"])
@settings(max_examples=4, deadline=None)
@given(L=catalogue_algebras(LIE, IDEAL_ALGEBRAS))
def test_ideal_pair_actions_match_the_oracle(which, L):
    kalg, act_lk, act_kl = ideal_pair(L, which)
    assert_tensor_actions_match(kalg, L, act_kl, act_lk)
    assert_tensor_actions_match(L, kalg, act_lk, act_kl)


@settings(max_examples=6, deadline=None)
@given(catalogue_algebras(ASSOC, ("m11", "grassmann")))
@example(ASSOC["m11"](Field(None)))
@example(ASSOC["m11"](Field(3)))
@example(ASSOC["grassmann"](Field(5)))
@example(ASSOC["m11"](Field(7)))
def test_v_algebra_action_matches_the_oracle(A):
    va = v_algebra(A)
    adj = adjoint_action(va.a_lie)
    assert_action_matches(adj, adj, va.quotient, va.action_a)


def unsigned_tensor_action(left, right):
    """tensor_action without the Koszul sign: x.(m (x) n) = x.m (x) n + m (x) x.n."""
    ms, ns = left.target.space, right.target.space

    def act(a: int, v: dict) -> dict:
        out: dict = {}
        for t, c in v.items():
            i, j = divmod(t, ns.dim)
            vec_axpy(out, c, tensor_vec(ms, ns, left.act_basis(a, i), {j: 1}))
            vec_axpy(out, c, tensor_vec(ms, ns, {i: 1}, right.act_basis(a, j)))
        return out

    return act


@pytest.mark.parametrize("p", PRIMES)
def test_tensor_product_refuses_an_unsigned_tensor_action(monkeypatch, p):
    L = matrix_gl(1, 1, ground_assoc(Field(p)))
    adj = adjoint_action(L)
    monkeypatch.setattr(tensor, "tensor_action", unsigned_tensor_action)
    with pytest.raises(ContainmentError, match="does not carry the bottom"):
        nonabelian_tensor(L, L, adj, adj)


@pytest.mark.parametrize("p", PRIMES)
def test_v_algebra_refuses_an_unsigned_tensor_action(monkeypatch, p):
    """On M(1|1, Lambda1) the unsigned action differs from a (x) [x, y] on
    classes.  (On M(1|1) over the ground field it does not: both forms
    agree on its three-dimensional V(A), so that case cannot refuse it.)"""
    monkeypatch.setattr(cyclic, "tensor_action", unsigned_tensor_action)
    with pytest.raises(ComplexInconsistent, match="two unequal forms"):
        v_algebra(matrix_assoc(1, 1, grassmann_line(Field(p))))
