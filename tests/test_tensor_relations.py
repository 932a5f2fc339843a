"""Differential tests of the relation space D(M, N) of the non-abelian
tensor product against the five-family oracle.

The production construction spans D with families (i) and (ii) only; the
oracle adds families (iii)-(v).  Both must give the same canonical
subspace, over Q and over F3, F5 and F7 (characteristic 3 is where graded
Jacobi is weakest), in randomly permuted and rescaled bases.  The oracle
alone also checks the two containments the tensor module docstring
proves, and dropping either generated family must trip the antisymmetry
certificate.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import rebase, tensor_relations_oracle
from superlie import tensor
from superlie.actions import Action, adjoint_action, ideal_crossed
from superlie.algebras import (
    LieSuperAlgebra,
    abelian,
    ground_assoc,
    heisenberg,
    matrix_gl,
    matrix_sl,
    subalgebra_on,
)
from superlie.cyclic import grassmann_line
from superlie.fields import Field
from superlie.tensor import BracketNotWellDefined, nonabelian_tensor

ALGEBRAS = {
    "heis": heisenberg,
    "abelian(1|1)": lambda F: abelian(F, 1, 1),
    "abelian(2|1)": lambda F: abelian(F, 2, 1),
    "gl(1|1)": lambda F: matrix_gl(1, 1, ground_assoc(F)),
    "gl(2|1)": lambda F: matrix_gl(2, 1, ground_assoc(F)),
    "gl(1|2)": lambda F: matrix_gl(1, 2, ground_assoc(F)),
    "gl(1|1, L1)": lambda F: matrix_gl(1, 1, grassmann_line(F)),
}
PRIMES = (None, 3, 5, 7)
IDEAL_ALGEBRAS = ("heis", "gl(1|1)", "gl(1|1, L1)")


@st.composite
def rebased_algebras(draw, names=tuple(ALGEBRAS)):
    p = draw(st.sampled_from(PRIMES))
    L = ALGEBRAS[draw(st.sampled_from(names))](Field(p))
    perm = draw(st.permutations(range(L.dim)))
    units = (1, -1) if p is None else (1, -1, 2, -2)
    scale = draw(st.lists(st.sampled_from(units), min_size=L.dim, max_size=L.dim))
    return rebase(L, perm, scale)


def assert_relations_match(M, N, act_mn, act_nm):
    t = nonabelian_tensor(M, N, act_mn, act_nm)
    assert t.d_generators == tensor_relations_oracle(M, N, act_mn, act_nm)


def standard(name, p):
    return ALGEBRAS[name](Field(p))


@settings(max_examples=6, deadline=None)
@given(rebased_algebras())
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


def ideal_pair(L: LieSuperAlgebra, which: str):
    """The derived algebra or the center of L as an algebra K, with the
    mutual bracket actions of K and L."""
    full = L.full_subspace()
    K = L.product_subspace(full, full) if which == "derived" else L.center()
    view = subalgebra_on(L, K, name="K")
    act_lk = ideal_crossed(L, view).action
    table = {}
    for a, col in enumerate(view.inclusion.matrix.cols):
        for i in range(L.dim):
            w = L.bracket(col, {i: 1})
            if w:
                table[(a, i)] = w
    return view.algebra, act_lk, Action(view.algebra, L, table)


@pytest.mark.parametrize("which", ["derived", "center"])
@settings(max_examples=4, deadline=None)
@given(L=rebased_algebras(IDEAL_ALGEBRAS))
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
    for name in ALGEBRAS:
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
