import gc
import random
import weakref

import pytest

from oracles import change_basis
from superlie import algebras, corpus, suites, tensor
from superlie.actions import adjoint_action, trivial_action
from superlie.algebras import (
    LieSuperAlgebra,
    abelian,
    check_lie_axioms,
    ground_assoc,
    heisenberg,
    matrix_sl,
    series,
)
from superlie.fields import QQ
from superlie.freelie import free_nilpotent, genset
from superlie.homology import right_exactness_check
from superlie.linalg import Subspace
from superlie.spaces import SuperSpace
from superlie.tensor import (
    IncompatibleActions,
    NotPerfect,
    adjoint_tensor_square,
    exterior_square,
    nilpotency_bounds_check,
    nonabelian_tensor,
    tensor_symmetry_iso,
    trivial_action_tensor,
    uce,
)


def trivial_pair(m, n):
    return nonabelian_tensor(m, n, trivial_action(m, n), trivial_action(n, m))


def test_abelian_line_square():
    a, b = abelian(QQ, 1, 0, prefix="a"), abelian(QQ, 1, 0, prefix="b")
    t = trivial_pair(a, b)
    assert t.algebra.space.dim_pair == (1, 0)
    assert t.algebra.is_abelian()


def test_abelian_1_1_square():
    a, b = abelian(QQ, 1, 1, prefix="a"), abelian(QQ, 1, 1, prefix="b")
    t = trivial_pair(a, b)
    assert t.algebra.space.dim_pair == (2, 2)


def test_abelian_odd_square_is_even():
    a, b = abelian(QQ, 0, 1, prefix="a"), abelian(QQ, 0, 1, prefix="b")
    t = trivial_pair(a, b)
    assert t.algebra.space.dim_pair == (1, 0)


def test_trivial_action_tensor_formula(heis):
    a = abelian(QQ, 1, 0)
    sp = trivial_action_tensor(heis, a)
    assert sp.dim == 2  # heis abelianizes to dimension 2
    t = trivial_pair(heis, a)
    assert t.algebra.space.dim_pair == sp.dim_pair


def test_trivial_action_tensor_perfect(sl21):
    sp = trivial_action_tensor(sl21, sl21)
    assert sp.dim == 0


def test_incompatible_actions_rejected():
    from superlie.corpus import lie_algebra

    gl = lie_algebra("gl11")
    adj = adjoint_action(gl)
    triv = trivial_action(gl, gl)
    with pytest.raises(IncompatibleActions):
        nonabelian_tensor(gl, gl, adj, triv)


def test_random_pairs_match_abelianization_tensor():
    """dim(M (x) N) with trivial actions equals dim(Mab (x) Nab) and the
    product is abelian, over random structure-constant algebras."""
    rng = random.Random(20240817)
    pool = [
        lambda: abelian(QQ, rng.randint(0, 2), rng.randint(0, 2)),
        lambda: heisenberg(QQ),
        lambda: free_nilpotent(genset([("x", 0), ("t", 1)]), rng.randint(1, 2)),
        lambda: free_nilpotent(genset([("s", 1)]), 2),
        lambda: free_nilpotent(genset([("x", 0), ("y", 0)]), 2),
    ]
    for trial in range(50):
        m = rng.choice(pool)()
        n = rng.choice(pool)()
        if m.dim > 5 or n.dim > 5:
            continue
        t = trivial_pair(m, n)
        sp = trivial_action_tensor(m, n)
        assert t.algebra.space.dim_pair == sp.dim_pair, (trial, m.name, n.name)
        assert t.algebra.is_abelian()


def test_heis_adjoint_square_certificates(heis):
    t = adjoint_tensor_square(heis)
    # construction certified: D killed, Lie axioms, both crossed modules
    assert check_lie_axioms(t.algebra).ok
    assert t.im_mu == heis.product_subspace(heis.full_subspace(), heis.full_subspace())


def test_symmetry_iso(heis, sl21):
    for alg in (heis, sl21):
        t = adjoint_tensor_square(alg)
        iso, swapped = tensor_symmetry_iso(t)
        assert t.algebra.dim == swapped.algebra.dim
        # the swap composed with itself is the identity
        iso2, _ = tensor_symmetry_iso(swapped)
        comp = iso2.compose(iso)
        for i in range(t.algebra.dim):
            assert comp.apply({i: 1}) == {i: 1}


def test_tensor_props_builds_each_adjoint_square_once(monkeypatch):
    """The symmetry iso of an adjoint square is the swap on the square
    itself: the suite's four adjoint squares and two trivial products take
    one construction each, plus one N (x) M per trivial product."""
    calls = []
    build = tensor.nonabelian_tensor

    def counting(*args):
        calls.append(args)
        return build(*args)

    # the suite reads tensor.nonabelian_tensor when it runs
    monkeypatch.setattr(tensor, "nonabelian_tensor", counting)
    # fresh corpus objects, so no tensor memo survives from another test
    monkeypatch.setattr(suites, "lie_algebra", corpus.lie_algebra.__wrapped__)
    rows = suites.run_suite("tensor-props")
    assert rows and all(ok for _, ok, _ in rows)
    assert len(calls) == 8


def test_adjoint_square_certifies_one_crossed_module(monkeypatch):
    """On an adjoint square mu = nu and M, N act alike, so one crossed
    module serves both sides and is certified once; two distinct action
    objects keep two crossed modules and two certificates."""
    calls = []
    check = tensor.check_crossed

    def counting(cr):
        calls.append(cr)
        return check(cr)

    monkeypatch.setattr(tensor, "check_crossed", counting)
    for L in (heisenberg(QQ), corpus.lie_algebra.__wrapped__("gl11"),
              corpus.lie_algebra.__wrapped__("sl21")):
        calls.clear()
        t = adjoint_tensor_square(L)
        assert len(calls) == 1
        assert t.cross_m is t.cross_n and t.mu is t.nu and t.action_m is t.action_n
    h = heisenberg(QQ)
    calls.clear()
    t = nonabelian_tensor(h, h, adjoint_action(h), adjoint_action(h))
    assert len(calls) == 2
    assert t.cross_m is not t.cross_n
    assert t.mu.matrix.cols == t.nu.matrix.cols
    assert t.action_m.table == t.action_n.table


def test_symmetry_dims_on_asymmetric_pair(heis):
    a = abelian(QQ, 1, 1)
    t = trivial_pair(heis, a)
    iso, swapped = tensor_symmetry_iso(t)
    assert t.algebra.space.dim_pair == swapped.algebra.space.dim_pair


def test_right_exactness(heis):
    s = series(heis)
    rep = right_exactness_check(heis, s.center)
    assert rep.ok
    # K = 0: the middle map is injective on the nose
    rep0 = right_exactness_check(heis, Subspace(QQ, 3, []))
    assert rep0.ok
    # K = M: quotient tensor vanishes and alpha covers everything
    rep1 = right_exactness_check(heis, heis.full_subspace())
    assert rep1.ok
    assert rep1.dims[2] == (0, 0)


def test_nilpotency_bounds(heis):
    adj = adjoint_action(heis)
    rep = nilpotency_bounds_check(heis, heis, adj, adj)
    assert rep.ok
    assert rep.numbers["class([M,N]^M)"] == 1


def test_nilpotency_bounds_trivial_abelian():
    a, b = abelian(QQ, 1, 1), abelian(QQ, 2, 0)
    rep = nilpotency_bounds_check(a, b, trivial_action(a, b), trivial_action(b, a))
    assert rep.ok
    assert rep.numbers["class(M(x)N)"] <= 1


def test_nilpotency_bounds_solvable2():
    sp = SuperSpace(QQ, ("a", "b"), (0, 0))
    s2 = LieSuperAlgebra(sp, {(0, 1): {1: 1}})
    adj = adjoint_action(s2)
    rep = nilpotency_bounds_check(s2, s2, adj, adj)
    assert rep.ok
    assert rep.numbers["length([M,N]^M)"] is not None


def test_uce_guard(heis):
    with pytest.raises(NotPerfect):
        uce(heis)


def test_uce_tests_perfectness_without_series(monkeypatch):
    """uce reads [P, P] = P for P and for P (x) P directly: it builds
    neither the series reports nor a center, and still refuses heis."""
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for module in (algebras, tensor):
        monkeypatch.setattr(module, "series", counted("series", algebras.series))
    monkeypatch.setattr(LieSuperAlgebra, "center", counted("center", LieSuperAlgebra.center))
    assert uce(matrix_sl(2, 1, ground_assoc(QQ)).algebra).kernel_dims == (0, 0)
    with pytest.raises(NotPerfect):
        uce(heisenberg(QQ))
    assert calls == []


def test_uce_sl21(sl21):
    ce = uce(sl21)
    assert ce.base is sl21
    assert ce.proj.matrix.rank() == sl21.dim
    assert series(ce.total).is_perfect
    # kernel is central (certified during construction)
    center = ce.total.center()
    assert center.contains(ce.kernel)


def test_uce_sl30(sl30):
    ce = uce(sl30)
    assert ce.kernel_dims == (0, 0)


def test_uce_sl21_grassmann_kernel_is_hc1():
    """The central kernel of the extension of sl(2,1,A) recovers the first
    cyclic homology of the coefficient algebra: for the rank-one Grassmann
    algebra both are (1|0), triangulated against the chain complex and the
    exterior kernel."""
    from superlie.cyclic import grassmann_line, hc1_kernel_model
    from superlie.homology import h2_via_exterior, homology

    G = grassmann_line(QQ)
    slg = matrix_sl(2, 1, G).algebra
    ce = uce(slg)
    assert ce.kernel_dims == (1, 0)
    assert ce.kernel_dims == hc1_kernel_model(G).dims
    assert homology(slg, None, 2).dims == ce.kernel_dims
    assert h2_via_exterior(slg).dims == ce.kernel_dims


def test_tensor_basis_order_invariance(heis):
    """dim(M (x) N) does not depend on the basis order of the inputs."""
    shuffled = change_basis(heis, [{2: 1}, {0: 1}, {1: 1}])
    assert check_lie_axioms(shuffled).ok
    t1 = adjoint_tensor_square(heis)
    t2 = adjoint_tensor_square(shuffled)
    assert t1.algebra.space.dim_pair == t2.algebra.space.dim_pair


def test_perfect_tensor_square_is_perfect(sl21):
    t = adjoint_tensor_square(sl21)
    assert series(t.algebra).is_perfect


def test_ker_mu_central(heis, gl11):
    """The crossed module lemma applied to (M (x) N, mu): Ker mu is central."""
    for alg in (heis, gl11):
        t = adjoint_tensor_square(alg)
        center = t.algebra.center()
        assert center.contains(t.mu.kernel())
        assert center.contains(t.nu.kernel())


def test_tensor_memos_do_not_keep_the_algebra_alive():
    P = heisenberg(QQ)
    t = adjoint_tensor_square(P)
    ext = exterior_square(P)
    assert ext.tensor is t
    assert adjoint_tensor_square(P) is t and exterior_square(P) is ext
    ref = weakref.ref(P)
    del P, t, ext
    gc.collect()
    assert ref() is None
