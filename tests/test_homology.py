import random

import pytest

from oracles import ce_complex_full, rebase
from superlie.actions import (
    Action,
    adjoint_action,
    check_action,
    identity_crossed,
    supermodule_crossed,
    trivial_action,
)
from superlie.algebras import (
    LieSuperAlgebra,
    abelian,
    check_lie_axioms,
    ground_assoc,
    heisenberg,
    matrix_gl,
    matrix_sl,
    series,
)
from superlie.cyclic import grassmann_line
from superlie.fields import QQ, Field
from superlie.freelie import Presentation, genset
from superlie.homology import (
    ChainComplex,
    ClassExceeded,
    ComplexInconsistent,
    CrossedSES,
    _chain_complex,
    _lift,
    ce_complex,
    d3_lemma_check,
    exact_sequence,
    h2_via_exterior,
    homology,
    hopf_formula,
    ideal_sixterm,
    nh,
    snake_sequence,
    trivial_module,
)
from superlie.spaces import GradedMap, SuperSpace, superspace
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
    assert r.section == [{1: 1}, {2: 1}]


def test_h0_with_module_coefficients(heis):
    # H0(P, M) = M/(P.M); for the adjoint module of heis: heis/[heis,heis]
    m = adjoint_action(heis)
    r = homology(heis, m, 0)
    assert r.dim == 2


# -- degrees out of range -------------------------------------------------------

def test_negative_degree_is_refused(heis):
    """A negative degree is refused, not read from the end of the complex."""
    cx = ce_complex(heis, trivial_module(heis), 3)
    for n in (-1, -2):
        with pytest.raises(ValueError, match="negative degree"):
            homology(heis, None, n, complex_=cx)
        with pytest.raises(ValueError, match="negative degree"):
            homology(heis, None, n)
    for n in (-2, -1, 0, 4):
        with pytest.raises(IndexError, match=f"no boundary at degree {n}"):
            cx.boundary(n)
    assert [cx.boundary(n).source.dim for n in (1, 2, 3)] == [3, 3, 1]


# -- a given complex must fit the arguments ---------------------------------------

def test_homology_refuses_a_complex_of_another_algebra(heis, gl11):
    cx = ce_complex(heis, trivial_module(heis), 3)
    with pytest.raises(ValueError, match="another algebra"):
        homology(gl11, None, 1, complex_=cx)


def test_homology_refuses_a_complex_of_another_module(gl11):
    adj = adjoint_action(gl11)
    cx = ce_complex(gl11, trivial_module(gl11), 3)
    with pytest.raises(ValueError, match="another module"):
        homology(gl11, adj, 1, complex_=cx)
    right = ce_complex(gl11, adj, 3)
    assert [homology(gl11, adj, n, complex_=right).dims for n in range(3)] \
        == [(1, 0), (2, 0), (1, 0)]


def test_homology_without_module_needs_ground_field_coefficients(gl11):
    cx = ce_complex(gl11, adjoint_action(gl11), 3)
    with pytest.raises(ValueError, match="ground field"):
        homology(gl11, None, 1, complex_=cx)
    # any trivial one-dimensional module stands for M = None
    cx = ce_complex(gl11, trivial_module(gl11), 3)
    assert [homology(gl11, None, n, complex_=cx).dims for n in range(3)] \
        == [homology(gl11, None, n).dims for n in range(3)]


def test_ce_complex_refuses_a_module_of_another_algebra(heis, gl11, sl21):
    """A module must be an action of P itself: before this check gl(1|1)
    with the adjoint module of an abelian (2|2) algebra gave H0 = (2|2),
    and heis with the adjoint module of sl(2|1) failed on a parity."""
    with pytest.raises(ValueError, match="another algebra object than P"):
        ce_complex(gl11, adjoint_action(abelian(QQ, 2, 2)), 2)
    with pytest.raises(ValueError, match="another algebra object than P"):
        ce_complex(heis, adjoint_action(sl21), 2)
    with pytest.raises(ValueError, match="another algebra object than P"):
        homology(heis, adjoint_action(sl21), 1)


def test_boundary_certificate_runs_when_the_complex_is_built():
    """d.d = 0 is certified when a complex is built: d_2 . d_3 is the
    Jacobiator, so a bracket that fails Jacobi (on e1, e2, e3 below; no
    basis element has diagonal ad, so every chain is kept) gives no
    complex, and neither do boundaries given directly."""
    sp = superspace(QQ, [(f"e{i}", 0) for i in range(4)])
    P = LieSuperAlgebra(sp, {(0, 1): {2: 1}, (0, 2): {3: 1}, (2, 3): {0: 1}})
    assert not check_lie_axioms(P).ok
    with pytest.raises(ComplexInconsistent, match=r"d_2 \. d_3 != 0"):
        ce_complex(P, trivial_module(P), 3)
    line = SuperSpace(QQ, ("x",), (0,))
    one = GradedMap.identity(line)
    with pytest.raises(ComplexInconsistent, match=r"d_1 \. d_2 != 0"):
        ChainComplex([None, one, one], P, trivial_module(P), [line] * 3, [[((), 0)]] * 3)


# -- the weight-0 subcomplex against the full complex -----------------------------

DIFFERENTIAL_ALGEBRAS = {
    "gl(1|1)": lambda F: matrix_gl(1, 1, ground_assoc(F)),
    "gl(2|1)": lambda F: matrix_gl(2, 1, ground_assoc(F)),
    "sl(2|1, L1)": lambda F: matrix_sl(2, 1, grassmann_line(F)).algebra,
    "heis": heisenberg,
}


def seeded_rebase(L: LieSuperAlgebra, seed: str) -> LieSuperAlgebra:
    """L in a seeded permuted basis, each vector rescaled by 1, -1 or 2."""
    rng = random.Random(seed)
    perm = list(range(L.dim))
    rng.shuffle(perm)
    return rebase(L, perm, [rng.choice((1, -1, 2)) for _ in range(L.dim)])


def diagonal_weights(P: LieSuperAlgebra, M: Action) -> list[tuple[list, list]]:
    """(lambda, mu) of each even basis element with diagonal ad on P and a
    diagonal action on M, read off the structure and action constants."""
    out = []
    for h in range(P.dim):
        if P.space.parities[h]:
            continue
        ad = [P.bracket_basis(h, i) for i in range(P.dim)]
        act = [M.act_basis(h, t) for t in range(M.target.dim)]
        if all(set(v) <= {i} for i, v in enumerate(ad)) \
                and all(set(v) <= {t} for t, v in enumerate(act)):
            out.append(([v.get(i, 0) for i, v in enumerate(ad)],
                        [v.get(t, 0) for t, v in enumerate(act)]))
    return out


def has_weight_zero(field: Field, weights, mono, t) -> bool:
    return all(field.is_zero(sum(lam[x] for x in mono) + mu[t])
               for lam, mu in weights)


def labeled(space: SuperSpace, v: dict) -> dict:
    return {space.labels[i]: c for i, c in v.items()}


def assert_matches_full_complex(P: LieSuperAlgebra, M: Action, max_n: int):
    cx = ce_complex(P, M, max_n)
    full = ce_complex_full(P, M, max_n)
    weights = diagonal_weights(P, M)
    for n in range(max_n + 1):
        kept = [full.spaces[n].labels[i]
                for i, (m, t) in enumerate(full.chains[n])
                if has_weight_zero(P.field, weights, m, t)]
        assert list(cx.spaces[n].labels) == kept, n
        for m, t in cx.chains[n]:
            assert has_weight_zero(P.field, weights, m, t)
    for n in range(max_n):
        want = homology(P, M, n, complex_=full)
        got = homology(P, M, n, complex_=cx)
        assert got.dims == want.dims, n
        assert [labeled(cx.spaces[n], r) for r in got.section] \
            == [labeled(full.spaces[n], r) for r in want.section], n


@pytest.mark.parametrize("p", (None, 3, 5, 7))
@pytest.mark.parametrize("name", tuple(DIFFERENTIAL_ALGEBRAS))
def test_weight0_complex_matches_full_complex(name, p):
    P = seeded_rebase(DIFFERENTIAL_ALGEBRAS[name](Field(p)), f"{name}:{p}")
    assert_matches_full_complex(P, trivial_module(P), 4)
    assert_matches_full_complex(P, adjoint_action(P), 3)


def test_outer_grading_trap_sl21_grassmann():
    """sl(2|1, L1) is graded by the Grassmann degree too, but that grading
    is outer: its degree-0 chains give H0-H3 = [1, 0, 0, 1], not the
    homology.  Only the weights of basis elements of P are used."""
    P = matrix_sl(2, 1, grassmann_line(QQ)).algebra
    assert [homology(P, None, n).dims for n in range(4)] \
        == [(1, 0), (0, 0), (1, 0), (2, 1)]
    degree = [int("(t)" in label) for label in P.space.labels]
    outer = _chain_complex(P, trivial_module(P), 4, [(degree, [0])])
    assert [homology(P, None, n, complex_=outer).dim for n in range(4)] == [1, 0, 0, 1]


# gl(1|1) in two bases in which no basis element has diagonal ad
GL11_MIXED_BASES = {
    # ad(E11) and ad(E22) swap the two odd vectors
    "E12 + E21, E12 - E21": (
        [("E11", 0), ("E22", 0), ("E12+E21", 1), ("E12-E21", 1)],
        {(0, 2): {3: 1}, (0, 3): {2: 1}, (1, 2): {3: -1}, (1, 3): {2: -1},
         (2, 2): {0: 2, 1: 2}, (3, 3): {0: -2, 1: -2}}),
    # ad(E11) is triangular, with the nonzero diagonal (0, 0, -1, 1)
    "E12 + E21, E12": (
        [("E11", 0), ("E22", 0), ("E12+E21", 1), ("E12", 1)],
        {(0, 2): {2: -1, 3: 2}, (0, 3): {3: 1}, (1, 2): {2: 1, 3: -2}, (1, 3): {3: -1},
         (2, 2): {0: 2, 1: 2}, (2, 3): {0: 1, 1: 1}}),
}


@pytest.mark.parametrize("odd_basis", tuple(GL11_MIXED_BASES))
def test_no_diagonal_ad_gives_the_full_complex(odd_basis, gl11):
    basis, table = GL11_MIXED_BASES[odd_basis]
    for p in (None, 3, 5, 7):
        P = LieSuperAlgebra(superspace(Field(p), basis), table, name="gl(1|1)")
        assert check_lie_axioms(P).ok
        for M in (trivial_module(P), adjoint_action(P)):
            assert [s.dim for s in ce_complex(P, M, 3).spaces] \
                == [s.dim for s in ce_complex_full(P, M, 3).spaces]
            assert_matches_full_complex(P, M, 3)
    assert [homology(P, None, n).dims for n in range(3)] \
        == [homology(gl11, None, n).dims for n in range(3)]


def test_gl22_weight0_chain_dims():
    """gl(2|2)/Q in a seeded basis: the weight-0 chains of degrees 0-5 and
    H0-H4, the Betti numbers 1, 1, 0, 1, 1 of gl(2) (Fuks)."""
    P = seeded_rebase(matrix_gl(2, 2, ground_assoc(QQ)), "gl(2|2)")
    cx = ce_complex(P, trivial_module(P), 5)
    assert [s.dim for s in cx.spaces] == [1, 4, 12, 36, 94, 212]
    assert [homology(P, None, n, complex_=cx).dim for n in range(5)] == [1, 1, 0, 1, 1]


def test_gl32_betti_numbers():
    """gl(3|2)/Q: H0-H5 are the Betti numbers 1, 1, 0, 1, 1, 1 of gl(3)
    (Fuks), from the weight-0 chains of degrees 0-6; the kernels of d_1 to
    d_5 come from one elimination each."""
    P = matrix_gl(3, 2, ground_assoc(QQ))
    cx = ce_complex(P, trivial_module(P), 6)
    assert [s.dim for s in cx.spaces] == [1, 5, 20, 80, 286, 906, 2588]
    assert [homology(P, None, n, complex_=cx).dim for n in range(6)] == [1, 1, 0, 1, 1, 1]


# -- degree-2 comparison ---------------------------------------------------------

def test_d3_lemma(heis, gl11, sl21):
    for alg in (abelian(QQ, 2, 1), heis, gl11, sl21):
        rep = d3_lemma_check(alg)
        assert rep.ok, rep.details
        assert rep.lhs_dims == rep.rhs_dims


@pytest.mark.parametrize("p", (3, 5, 7))
@pytest.mark.parametrize("name", ("gl(2|1)", "sl(2|1, L1)"))
def test_d3_lemma_over_prime_fields(name, p):
    """dim (Lambda^2 P / Im d3) = dim [P, P] + dim H2 with H2 from the chain
    complex, and the quotient is P ^ P as a Lie superalgebra."""
    F = Field(p)
    if name == "gl(2|1)":
        P = matrix_gl(2, 1, ground_assoc(F))
    else:
        P = matrix_sl(2, 1, grassmann_line(F)).algebra
    rep = d3_lemma_check(P)
    assert rep.ok, rep.details
    assert rep.lhs_dims == rep.rhs_dims
    full = P.full_subspace()
    assert sum(rep.lhs_dims) == P.product_subspace(full, full).dim + homology(P, None, 2).dim


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
    assert hopf_formula(pres, 1).dims == (0, 0)


def test_hopf_matches_chain_on_free_nilpotent():
    for gens, c in [([("x", 0), ("y", 0)], 2), ([("x", 0), ("y", 0)], 3),
                    ([("x", 0), ("t", 1)], 2)]:
        pres = Presentation(genset(gens), ())
        h = hopf_formula(pres, c)
        chain = homology(h.presented, None, 2)
        assert h.dims == chain.dims, (gens, c)


def witt_count(r: int, n: int) -> int:
    """Dimension of the degree-n part of the free Lie algebra on r even
    generators: (1/n) sum over d | n of mu(d) r^(n/d) (Witt's necklace count)."""
    def moebius(d: int) -> int:
        sign, k = 1, 2
        while k * k <= d:
            if d % k == 0:
                d //= k
                if d % k == 0:
                    return 0
                sign = -sign
            k += 1
        return -sign if d > 1 else sign

    return sum(moebius(d) * r ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


@pytest.mark.parametrize("r, c", [(2, 3), (3, 3), (4, 2), (4, 4)])
def test_hopf_free_nilpotent_is_witt_count(r, c):
    """The free nilpotent algebra F/gamma_{c+1} on r even generators has
    H2 = gamma_{c+1}/gamma_{c+2}, of dimension W(r, c+1)."""
    pres = Presentation(genset([(f"g{i}", 0) for i in range(r)]), ())
    h = hopf_formula(pres, c)
    assert h.dims == (witt_count(r, c + 1), 0)
    assert h.presented.dim == sum(witt_count(r, k) for k in range(1, c + 1))


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
    rep = exact_sequence(["node0", "node1"], [ident])
    assert rep.ok


def test_exactness_negative_control():
    sp = SuperSpace(QQ, ("a", "b"), (0, 0))
    zero_in = GradedMap.zero(sp, sp)
    # 0 -> V -> 0 with the middle map zero: Im(0) = 0 but Ker(->0) = V
    rep = exact_sequence(["node0", "node1"], [zero_in])
    assert not rep.ok
    assert [label for label, _, _, ok in rep.nodes if not ok] == ["node1"]


def test_exact_sequence_fails_at_a_last_node_the_last_map_misses():
    """V -> V -> W -> 0 with the identity, then the zero map onto W != 0:
    exact at the middle node, not at the last."""
    v = SuperSpace(QQ, ("a", "b"), (0, 0))
    w = SuperSpace(QQ, ("c",), (1,))
    rep = exact_sequence(["V", "V'", "W"], [GradedMap.identity(v), GradedMap.zero(v, w)])
    assert not rep.ok
    assert rep.nodes == [("V'", 2, 2, True), ("W", 0, 1, False)]
    assert rep.dims == [(2, 0), (2, 0), (0, 1)]


def test_snake_sequences_exact():
    for label, ses in standard_crossed_ses():
        rep = snake_sequence(ses)
        assert rep.ok, (label, rep.nodes)


@pytest.mark.parametrize("side, f_col, g_cols, n_action", [
    ("left", {0: 1}, [{}, {0: 1}], {}),
    ("right", {1: 1}, [{0: 1}, {}], {(0, 0): {0: 1}}),
])
def test_crossed_ses_refuses_a_map_that_is_not_equivariant(side, f_col, g_cols, n_action):
    """0 -> (L, 0) -> (M, 0) -> (N, 0) -> 0 over the line x, which acts on
    M by m0 -> m1 and trivially on L: exact, with zero boundaries, but f
    (l0 -> m0: x.l0 = 0, x.m0 = m1) or g (m0 -> n0, m1 -> 0, with x.n0 = n0:
    g(x.m0) = 0) does not commute with the action of x."""
    P = abelian(QQ, 1, 0, prefix="x")
    L, M, N = (abelian(QQ, n, 0, prefix=s) for n, s in ((1, "l"), (2, "m"), (1, "n")))
    ses = CrossedSES(P, supermodule_crossed(P, L, trivial_action(P, L)),
                     supermodule_crossed(P, M, Action(P, M, {(0, 0): {1: 1}})),
                     supermodule_crossed(P, N, Action(P, N, n_action)),
                     GradedMap.from_columns(L.space, M.space, [f_col]),
                     GradedMap.from_columns(M.space, N.space, g_cols))
    with pytest.raises(ValueError, match=f"{side} map is not equivariant"):
        ses.validate()


def test_crossed_ses_refuses_boundaries_that_do_not_commute_with_g():
    """The central line over gl(1|1), 0 -> (K, 0) -> (P + K, pr) -> (P, id)
    -> 0, with g = 2 pr in place of pr: still exact and equivariant, but
    d_N . g = 2 d_M."""
    _, ses = standard_crossed_ses()[2]
    ses.validate()
    twice = GradedMap.from_columns(ses.g.source, ses.g.target,
                                   [{k: 2 * c for k, c in col.items()} for col in ses.g.matrix.cols])
    bad = CrossedSES(ses.p, ses.l, ses.m, ses.n, ses.f, twice)
    with pytest.raises(ValueError, match="boundaries are not compatible with the right map"):
        bad.validate()


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
    assert rep.ok, rep.nodes
    # the quotient is 3-dimensional of shape (1|2)
    assert rep.dims[5][0] + rep.dims[5][1] >= 1


def test_ideal_sixterm_catches_a_connecting_element_outside_the_ideal(monkeypatch, gl11):
    """M the center of gl(1|1), H2(P/M) = (1|0): a lift of its class shifted
    by a wedge whose bracket leaves M sends the connecting element outside
    M, and the reduction of induced_map into M/[P, M] raises
    ContainmentError, on which the command line exits 1."""
    from importlib import import_module

    from superlie import cli, suites
    from superlie.linalg import ContainmentError, vec_axpy
    from superlie.tensor import exterior_square

    center = gl11.center()
    nu = exterior_square(gl11).nu
    t = next(k for k in range(nu.source.dim) if not center.contains_vec(nu.apply({k: 1})))

    def shifted_lift(f, v):
        x = dict(_lift(f, v))
        vec_axpy(x, 1, {t: 1})
        return x

    # the package binds the name homology to the function, not the module
    monkeypatch.setattr(import_module("superlie.homology"), "_lift", shifted_lift)
    with pytest.raises(ContainmentError, match="vector is not in the top subspace"):
        ideal_sixterm(gl11, center)
    # the suite's first row is ideal_sixterm(P, center of P), here for P = gl(1|1)
    monkeypatch.setattr(suites, "lie_algebra", lambda name: gl11)
    assert cli.main(["verify", "final-sixterm"]) == 1


def exterior_symmetry_dims(P: LieSuperAlgebra, ideals: bool):
    """Check that the tensor symmetry isomorphism descends to M^N = N^M, for
    M = [P, P] and N = P, or with ``ideals`` for M and N two copies of the
    ideal [P, P]; returns the dims of M (x) N and of M ^ N."""
    from superlie.actions import crossed_pullback_actions, ideal_crossed, pullback_action
    from superlie.algebras import subalgebra_on
    from superlie.linalg import Matrix, vec_clean
    from superlie.tensor import nonabelian_exterior, nonabelian_tensor, tensor_symmetry_iso

    slpart = P.product_subspace(P.full_subspace(), P.full_subspace())
    cm_m = ideal_crossed(P, subalgebra_on(P, slpart, name="sl"))
    if ideals:
        cm_p = ideal_crossed(P, subalgebra_on(P, slpart, name="sl'"))
        t_pm = nonabelian_tensor(cm_p.m, cm_m.m,
                                 pullback_action(cm_m.action, cm_p.m, cm_p.boundary),
                                 pullback_action(cm_p.action, cm_m.m, cm_m.boundary))
    else:
        cm_p = identity_crossed(P)
        t_pm = nonabelian_tensor(P, cm_m.m, *crossed_pullback_actions(cm_m))
    e_pm = nonabelian_exterior(t_pm, cm_p, cm_m)
    iso, t_mp = tensor_symmetry_iso(t_pm)
    e_mp = nonabelian_exterior(t_mp, cm_m, cm_p)
    assert e_pm.algebra.space.dim_pair == e_mp.algebra.space.dim_pair
    # the square ideal maps into the square ideal, so the iso descends
    for r in e_pm.square.rows:
        assert e_mp.square.contains_vec(iso.apply(r))
    cols = [vec_clean(e_mp.projection.apply(iso.apply(s))) for s in e_pm.projection.quotient.section]
    descended = Matrix(P.field, e_mp.algebra.dim, cols)
    assert descended.rank() == e_pm.algebra.dim == e_mp.algebra.dim
    return t_pm.algebra.space.dim_pair, e_pm.algebra.space.dim_pair


def test_exterior_symmetry(gl11):
    assert exterior_symmetry_dims(gl11, ideals=False) == ((1, 2), (1, 2))


@pytest.mark.parametrize("p", [None, 5])
def test_exterior_symmetry_with_odd_pullback(p):
    """M and N are both sl(1|1) inside gl(1|1): both have odd elements, and
    so has the pullback, whose odd pairs enter the square ideal with the
    sign (-1)^{|a||b|} = -1."""
    P = matrix_gl(1, 1, ground_assoc(Field(p)))
    assert exterior_symmetry_dims(P, ideals=True) == ((4, 0), (3, 0))


@pytest.mark.parametrize("p", [None, 3, 5, 7])
def test_lift_solves_or_raises(p):
    """The connecting maps lift through f with _lift: a vector in the
    image comes back as a preimage, one outside raises."""
    F = Field(p)
    src = superspace(F, [("a", 0), ("b", 0)])
    dst = superspace(F, [("u", 0), ("v", 0)])
    f = GradedMap.from_columns(src, dst, [{0: 1}, {0: 2}])  # image: the line of u
    x = _lift(f, {0: 3})
    assert F.clean(f.apply(x)) == F.clean({0: 3})
    with pytest.raises(ComplexInconsistent, match="outside the image"):
        _lift(f, {1: 1})
