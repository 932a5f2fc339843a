from fractions import Fraction

import pytest

from oracles import commutator_subspace, hc0_direct
from superlie.algebras import check_assoc_axioms, ground_assoc, lie_from_assoc
from superlie.cyclic import (
    NotUnital,
    connes,
    cyclic_sixterm,
    dual_numbers,
    grassmann_line,
    hc,
    hc1_kernel_model,
    milnor_hc1,
    v_algebra,
)
from superlie.fields import QQ, Field


@pytest.fixture(scope="module")
def algebras(m11):
    return {
        "q": ground_assoc(QQ),
        "dual": dual_numbers(QQ),
        "grassmann": grassmann_line(QQ),
        "m11": m11,
    }


def test_negative_degree_is_refused(algebras):
    """A negative degree is refused, not read from the end of the complex."""
    A = algebras["grassmann"]
    cx = connes(A, 2)
    for n in (-1, -2):
        with pytest.raises(ValueError, match="negative degree"):
            hc(A, n, cx)
        with pytest.raises(ValueError, match="negative degree"):
            hc(A, n)
    for n in (-2, -1, 0, 3):
        with pytest.raises(IndexError, match=f"no boundary at degree {n}"):
            cx.boundary(n)
    assert [cx.boundary(n).source is cx.coinvariants[n].space for n in (1, 2)] == [True, True]


def test_hc_refuses_degrees_past_p_minus_2_over_gf_p():
    """The Connes complex gives H^lambda_n, which is HC_n over GF(p) only for
    n <= p - 2: for the dual numbers over F3 it reads H^lambda_3 = 0 where
    the total complex of CC(A) gives HC_3 = 1.  hc refuses those degrees,
    with a built complex too; the complex's own homology stays H^lambda."""
    A3 = dual_numbers(Field(3))
    cx = connes(A3, 4)
    assert [hc(A3, n, cx).dims for n in (0, 1)] == [(2, 0), (0, 0)]
    for n in (2, 3):
        for args in ((), (cx,)):
            with pytest.raises(ValueError, match=rf"H\^lambda_{n}, which equals HC_{n} over F3 "
                                                 r"only for n <= 1"):
                hc(A3, n, *args)
    assert cx.homology(3).dims == (0, 0)
    A5 = dual_numbers(Field(5))
    assert hc(A5, 3).dims == (0, 0)
    with pytest.raises(ValueError, match=r"H\^lambda_4"):
        hc(A5, 4)


def test_hc_over_q_reaches_every_degree(algebras):
    A = algebras["dual"]
    cx = connes(A, 5)
    assert [hc(A, n, cx).dims for n in range(5)] == [(2, 0), (0, 0), (2, 0), (0, 0), (2, 0)]


def test_hc_builds_the_complex_to_degree_n_plus_one(algebras, monkeypatch):
    """HC_n reads d_n and d_{n+1}, so hc builds the Connes complex to
    degree n + 1 and no further: HC_0 needs no degree 2."""
    import superlie.cyclic as cyclic

    built = []
    original = cyclic.connes

    def counted(A, max_n):
        built.append(max_n)
        return original(A, max_n)

    monkeypatch.setattr(cyclic, "connes", counted)
    A = algebras["grassmann"]
    assert [hc(A, n).dims for n in range(3)] == [(1, 1), (1, 0), (1, 1)]
    assert built == [1, 2, 3]


def test_corpus_associative(algebras):
    for a in algebras.values():
        assert check_assoc_axioms(a).ok
        assert a.unit is not None


def test_connes_ground_field(algebras):
    cx = connes(algebras["q"], 2)
    assert [c.space.dim for c in cx.coinvariants] == [1, 0, 1]
    assert hc(algebras["q"], 0, cx).dims == (1, 0)
    assert hc(algebras["q"], 1, cx).dims == (0, 0)


def test_connes_dual_number_dims(algebras):
    cx = connes(algebras["dual"], 2)
    # plain tensor powers have dimensions 2, 4, 8
    assert [sp.dim for sp in cx.plain_spaces] == [2, 4, 8]
    # coinvariants: antisymmetrized square has dim 1, cyclic cube dim 4
    assert [c.space.dim for c in cx.coinvariants] == [2, 1, 4]


def test_connes_grassmann_signs(algebras):
    cx = connes(algebras["grassmann"], 2)
    assert cx.coinvariants[1].space.dim == 2
    assert hc(algebras["grassmann"], 1, cx).dims == (1, 0)


def test_hc_refuses_a_complex_of_another_algebra(algebras):
    cx = connes(algebras["dual"], 2)
    with pytest.raises(ValueError, match="another algebra"):
        hc(algebras["grassmann"], 1, cx)


def test_hc0_is_commutator_quotient(algebras):
    for name, a in algebras.items():
        cx = connes(a, 2)
        assert hc(a, 0, cx).dims == hc0_direct(a), name


def test_hc1_two_paths_agree(algebras):
    for name, a in algebras.items():
        cx = connes(a, 2)
        assert hc(a, 1, cx).dims == hc1_kernel_model(a).dims, name


def test_milnor_supercommutative(algebras):
    for name in ("q", "dual", "grassmann"):
        a = algebras[name]
        assert a.is_supercommutative()
        assert milnor_hc1(a).dims == hc1_kernel_model(a).dims, name


def test_milnor_dual(algebras):
    assert milnor_hc1(algebras["dual"]).dims == (0, 0)


def test_v_algebra_ground_field(algebras):
    va = v_algebra(algebras["q"])
    assert va.algebra.dim == 0


def test_v_algebra_m11(m11):
    va = v_algebra(m11)
    hc1 = hc1_kernel_model(m11)
    comm = commutator_subspace(m11)
    assert va.algebra.dim == hc1.kernel.dim + comm.dim
    # the short exact sequence splits dimensions per parity too
    lie = lie_from_assoc(m11)
    k_dims = hc1.dims
    c_dims = lie.space.split_dims(comm.rows)
    v_dims = va.algebra.space.dim_pair
    assert v_dims == (k_dims[0] + c_dims[0], k_dims[1] + c_dims[1])


def test_v_algebra_action_form(m11):
    """The action of A on V(A) equals a (x) [x, y] on classes (certified
    inside the constructor; poke it explicitly here on basis elements)."""
    va = v_algebra(m11)
    lie = va.a_lie
    d = m11.dim
    for p in range(d):
        for k in range(va.algebra.dim):
            got = va.action_a.act_basis(p, k)
            direct = {}
            for idx, c in va.quotient.lift({k: 1}).items():
                x, y = divmod(idx, d)
                br = lie.bracket_basis(x, y)
                for e, ce in br.items():
                    direct[p * d + e] = direct.get(p * d + e, 0) + c * ce
            want = va.quotient.reduce(direct)
            assert m11.field.clean({i: got.get(i, 0) - want.get(i, 0)
                                    for i in set(got) | set(want)}) == {}


def test_v_algebra_kills_hc1(algebras):
    for name in ("grassmann", "m11"):
        va = v_algebra(algebras[name])
        for p in range(va.a_lie.dim):
            for r in va.hc1.section:
                assert not va.action_a.field.clean(va.action_a.act({p: 1}, r))


def test_cyclic_sixterm(algebras):
    for name, a in algebras.items():
        st = cyclic_sixterm(a)
        assert st.ok, (name, st.report.nodes, st.identifications)


def test_cyclic_sixterm_grassmann_dims(algebras):
    st = cyclic_sixterm(algebras["grassmann"])
    # HC1 = (1|0) and the Milnor quotient agrees (supercommutative)
    assert st.hc1_dims == (1, 0)
    assert st.milnor_dims == (1, 0)


def test_not_unital_guard():
    from superlie.algebras import AssocSuperAlgebra
    from superlie.spaces import SuperSpace

    sp = SuperSpace(QQ, ("n",), (0,))
    a = AssocSuperAlgebra(sp, {}, unit=None, name="nilp")
    with pytest.raises(NotUnital):
        v_algebra(a)
    with pytest.raises(NotUnital):
        cyclic_sixterm(a)


def test_sixterm_eliminates_relation_ideal_once(m11, monkeypatch, capsys):
    import superlie.cyclic as cyclic
    from superlie.cli import main

    calls = []
    original = cyclic.relation_ideal

    def counted(A):
        calls.append(A)
        return original(A)

    monkeypatch.setattr(cyclic, "relation_ideal", counted)
    assert cyclic_sixterm(m11).ok
    assert len(calls) == 1
    calls.clear()
    assert main(["cyclic", "@m11", "--sixterm"]) == 0
    assert "six-term sequence: exact" in capsys.readouterr().out
    assert len(calls) == 1


def test_lie_algebra_of_a_is_built_once(m11, monkeypatch):
    """V(A) takes the Lie algebra of A from the HC_1 kernel model, and the
    six-term sequence reads [A, A] as the image of V(A) -> A."""
    import superlie.cyclic as cyclic

    calls = []
    original = cyclic.lie_from_assoc

    def counted(A, *args, **kwargs):
        calls.append(A)
        return original(A, *args, **kwargs)

    monkeypatch.setattr(cyclic, "lie_from_assoc", counted)
    v_algebra(m11)
    assert len(calls) == 1
    calls.clear()
    assert cyclic_sixterm(m11).ok
    assert len(calls) == 1


def test_morita_invariance_m11_lambda1_over_q():
    """HC_n(M(1|1, Lambda1)) = HC_n(Lambda1) (Morita invariance, Loday,
    Cyclic Homology, 1.2.4 and 2.2.9), with M(1|1, Lambda1) in a seeded
    permuted, rescaled basis.  The full complex has the coinvariant
    dimensions of the elimination oracle, and ``connes`` keeps those of
    its weight-0 block under [E11(1), -]."""
    from oracles import change_basis, connes_oracle, seeded_basis
    from superlie.algebras import matrix_assoc

    lam = grassmann_line(QQ)
    m = matrix_assoc(1, 1, lam)
    a = change_basis(m, seeded_basis(m, 7, units=[1, -1, 2, Fraction(-1, 3)]))
    assert check_assoc_axioms(a).ok
    coinv, _ = connes_oracle(a, 3)
    assert [c.space.dim for c in coinv] == [8, 32, 176, 1024]
    cx = connes(a, 3)
    assert [c.space.dim for c in cx.coinvariants] == [4, 12, 56, 280]
    cl = connes(lam, 3)
    want = [hc(lam, n, cl).dims for n in range(3)]
    assert want == [(1, 1), (1, 0), (1, 1)]
    assert [hc(a, n, cx).dims for n in range(3)] == want
