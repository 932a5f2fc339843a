import pytest

from superlie.actions import (
    Action,
    adjoint_action,
    check_action,
    identity_crossed,
    supermodule_crossed,
    trivial_action,
)
from superlie.algebras import abelian, series
from superlie.fields import QQ
from superlie.freelie import Presentation, genset
from superlie.homology import (
    ClassExceeded,
    ce_complex,
    d3_lemma_check,
    exactness_check,
    h2_via_exterior,
    homology,
    hopf_formula,
    ideal_sixterm,
    nh,
    snake_sequence,
    trivial_module,
    zero_map_to_point,
)
from superlie.spaces import GradedMap, SuperSpace
from superlie.suites import standard_crossed_ses


# -- the chain complex ---------------------------------------------------------

def test_abelian_complex_vanishes():
    p = abelian(QQ, 2, 1)
    cx = ce_complex(p, trivial_module(p), 3)
    for n in (1, 2, 3):
        assert cx.boundary(n).is_zero()


def test_heis_d2_rank(heis):
    cx = ce_complex(heis, trivial_module(heis), 3)
    assert cx.boundary(2).matrix.rank() == 1
    assert cx.boundary(3).is_zero()


def test_dd_zero_on_corpus(heis, gl11, sl21):
    for alg in (heis, gl11, sl21, abelian(QQ, 1, 2)):
        cx = ce_complex(alg, trivial_module(alg), 3)
        for n in (2, 3):
            assert cx.boundary(n - 1).compose(cx.boundary(n)).is_zero()


def test_dd_zero_with_adjoint_coefficients(heis, gl11):
    for alg in (heis, gl11):
        m = adjoint_action(alg)
        assert check_action(m).ok
        cx = ce_complex(alg, m, 3)
        for n in (2, 3):
            assert cx.boundary(n - 1).compose(cx.boundary(n)).is_zero()


def test_heis_homology(heis):
    assert homology(heis, None, 0).dim == 1
    assert homology(heis, None, 1).dim == 2
    assert homology(heis, None, 2).dim == 2


def test_h1_is_abelianization(heis, gl11, sl21):
    for alg in (heis, gl11, sl21):
        h1 = homology(alg, None, 1)
        g2 = alg.product_subspace(alg.full_subspace(), alg.full_subspace())
        assert h1.dim == alg.dim - g2.dim


def test_h2_abelian_odd_line():
    assert homology(abelian(QQ, 0, 1), None, 2).dims == (1, 0)


def test_h2_heis_golden_representatives(heis):
    """Representatives are echelon-canonical, so they are stable: the
    kernel of d2 for heis is spanned by x^z and y^z."""
    r = homology(heis, None, 2)
    cx = ce_complex(heis, trivial_module(heis), 3)
    assert cx.spaces[2].labels == ("x^y", "x^z", "y^z")
    assert r.representatives == [{1: 1}, {2: 1}]


def test_h0_with_module_coefficients(heis):
    # H0(P, M) = M/(P.M); for the adjoint module of heis: heis/[heis,heis]
    m = adjoint_action(heis)
    r = homology(heis, m, 0)
    assert r.dim == 2


# -- degree-2 comparison ---------------------------------------------------------

def test_d3_lemma(heis, gl11, sl21):
    for alg in (abelian(QQ, 2, 1), heis, gl11, sl21):
        rep = d3_lemma_check(alg)
        assert rep.ok, rep.details
        assert rep.lhs_dims == rep.rhs_dims


def test_h2_via_exterior_matches_chain(heis, gl11, sl21):
    for alg in (abelian(QQ, 2, 0), abelian(QQ, 0, 1), heis, gl11, sl21):
        assert h2_via_exterior(alg).dims == homology(alg, None, 2).dims


def test_h2_gl11_grassmann_mixed_parity():
    """gl(1,1) over the rank-one Grassmann algebra has H2 of dimension
    (2|2): a case with genuinely odd homology on both comparison paths."""
    from superlie.algebras import matrix_gl
    from superlie.cyclic import grassmann_line

    alg = matrix_gl(1, 1, grassmann_line(QQ))
    chain = homology(alg, None, 2)
    wedge = h2_via_exterior(alg)
    assert chain.dims == wedge.dims == (2, 2)
    assert d3_lemma_check(alg).ok


def test_uce_kernel_is_h2(sl21, sl30):
    from superlie.tensor import uce

    for alg in (sl21, sl30):
        assert uce(alg).kernel_dims == homology(alg, None, 2).dims


# -- Hopf formula ------------------------------------------------------------------

def test_hopf_free_class2():
    pres = Presentation(genset([("x", 0), ("y", 0)]), ())
    h = hopf_formula(pres, 2)
    assert h.dims == (2, 0)
    assert h.presented.dim == 3


def test_hopf_heis_by_relators():
    pres = Presentation(genset([("x", 0), ("y", 0)]),
                        ([["x", "y"], "x"], [["x", "y"], "y"]))
    h = hopf_formula(pres, 2)
    assert h.dims == (2, 0)
    assert homology(h.presented, None, 2).dims == h.dims


def test_hopf_line():
    pres = Presentation(genset([("x", 0)]), ())
    assert hopf_formula(pres, 1).dim == 0


def test_hopf_matches_chain_on_free_nilpotent():
    for gens, c in [([("x", 0), ("y", 0)], 2), ([("x", 0), ("y", 0)], 3),
                    ([("x", 0), ("t", 1)], 2)]:
        pres = Presentation(genset(gens), ())
        h = hopf_formula(pres, c)
        chain = homology(h.presented, None, 2)
        assert h.dims == chain.dims, (gens, c)


def test_hopf_relator_degree_guard():
    deep = [[[["x", "y"], "x"], "x"], "x"]  # degree 5
    pres = Presentation(genset([("x", 0), ("y", 0)]), (deep,))
    with pytest.raises(ClassExceeded):
        hopf_formula(pres, 2)


# -- non-abelian homology ------------------------------------------------------------

def test_nh_identity_crossed(heis):
    r = nh(heis, identity_crossed(heis))
    assert r.nh0.dims == (2, 0)  # P/[P,P]


def test_nh_perfect_gives_h2(sl21):
    r = nh(sl21, identity_crossed(sl21))
    assert r.nh0.dims == (0, 0)
    assert r.nh1.dims == homology(sl21, None, 2).dims


def test_nh_supermodule_matches_homology(heis, gl11):
    for alg in (heis, gl11):
        k = abelian(QQ, 1, 0, prefix="k")
        cm = supermodule_crossed(alg, k, trivial_action(alg, k))
        r = nh(alg, cm)
        assert r.nh0.dims == homology(alg, None, 0).dims
        assert r.nh1.dims == homology(alg, None, 1).dims


def test_nh_adjoint_supermodule(heis):
    # the adjoint module with zero boundary: nh_i = H_i(P, ad)
    alg = abelian(QQ, 3, 0, prefix="m")
    m = Action(heis, alg, adjoint_action(heis).table)
    cm = supermodule_crossed(heis, alg, m)
    r = nh(heis, cm)
    assert r.nh0.dims == homology(heis, m, 0).dims
    assert r.nh1.dims == homology(heis, m, 1).dims


# -- exactness machinery -----------------------------------------------------------

def test_exactness_identity_sequence():
    sp = SuperSpace(QQ, ("a", "b"), (0, 0))
    ident = GradedMap.identity(sp)
    rep = exactness_check([ident, zero_map_to_point(sp)])
    assert rep.ok


def test_exactness_negative_control():
    sp = SuperSpace(QQ, ("a", "b"), (0, 0))
    zero_in = GradedMap.zero(sp, sp)
    # 0 -> V -> 0 with the middle map zero: Im(0) = 0 but Ker(->0) = V
    rep = exactness_check([zero_in, zero_map_to_point(sp)])
    assert not rep.ok
    assert rep.first_failure() == "node1"


def test_snake_sequences_exact():
    for label, ses in standard_crossed_ses():
        rep = snake_sequence(ses)
        assert rep.ok, (label, rep.exactness.nodes)


def test_ideal_sixterm(heis, gl11):
    rep = ideal_sixterm(heis, series(heis).center)
    assert rep.ok
    assert rep.dims[1] == (2, 0)  # H2(heis)
    assert rep.dims[2] == (1, 0)  # H2(heis/center) = H2(abelian(2|0))
    slpart = gl11.product_subspace(gl11.full_subspace(), gl11.full_subspace())
    rep2 = ideal_sixterm(gl11, slpart)
    assert rep2.ok


def test_ideal_sixterm_with_odd_terms(gl11):
    """The center of gl(1,1) is a 1-dimensional ideal whose quotient has
    odd dimensions, driving odd parities through every node."""
    center = gl11.center()
    assert center.dim == 1
    rep = ideal_sixterm(gl11, center)
    assert rep.ok, rep.exactness.nodes
    # the quotient is 3-dimensional of shape (1|2)
    assert rep.dims[5][0] + rep.dims[5][1] >= 1


def test_exterior_symmetry(gl11):
    """The tensor symmetry isomorphism descends to M^N = N^M."""
    from superlie.actions import ideal_crossed, identity_crossed
    from superlie.algebras import subalgebra_on
    from superlie.homology import crossed_pullback_actions
    from superlie.linalg import vec_clean
    from superlie.tensor import nonabelian_exterior, nonabelian_tensor, tensor_symmetry_iso

    slpart = gl11.product_subspace(gl11.full_subspace(), gl11.full_subspace())
    mview = subalgebra_on(gl11, slpart, name="sl")
    cm_p = identity_crossed(gl11)
    cm_m = ideal_crossed(gl11, mview)
    act_pm, act_mp = crossed_pullback_actions(cm_m)
    t_pm = nonabelian_tensor(gl11, mview.algebra, act_pm, act_mp)
    e_pm = nonabelian_exterior(t_pm, cm_p, cm_m)
    iso, t_mp = tensor_symmetry_iso(t_pm)
    e_mp = nonabelian_exterior(t_mp, cm_m, cm_p)
    assert e_pm.algebra.space.dim_pair == e_mp.algebra.space.dim_pair
    # the square ideal maps into the square ideal, so the iso descends
    for r in e_pm.square.rows:
        assert e_mp.square.contains_vec(iso.apply(r))
    cols = [vec_clean(e_mp.projection.apply(iso.apply(s))) for s in e_pm.sq.section]
    from superlie.linalg import Matrix

    descended = Matrix(gl11.field, e_mp.algebra.dim, cols)
    assert descended.rank() == e_pm.algebra.dim == e_mp.algebra.dim
