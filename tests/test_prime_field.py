"""The full pipeline over an odd prime field (the rationals-only parts,
free Lie realizations, are guarded separately)."""

from superlie.actions import check_crossed, identity_crossed
from superlie.algebras import (
    abelian,
    check_lie_axioms,
    ground_assoc,
    heisenberg,
    matrix_gl,
    matrix_sl,
    series,
)
from superlie.cyclic import connes, grassmann_line, hc, hc1_kernel_model, milnor_hc1
from superlie.fields import Field
from superlie.homology import d3_lemma_check, h2_via_exterior, homology, nh
from superlie.tensor import adjoint_tensor_square, uce

F5 = Field(5)
F7 = Field(7)


def test_heis_f5_homology():
    h = heisenberg(F5)
    assert homology(h, None, 1).dims == (2, 0)
    assert homology(h, None, 2).dims == (2, 0)


def test_tensor_square_f5():
    h = heisenberg(F5)
    t = adjoint_tensor_square(h)
    assert t.algebra.space.dim_pair == (6, 0)
    assert check_lie_axioms(t.algebra).ok
    assert check_crossed(t.cross_m).ok


def test_d3_lemma_f5():
    for alg in (heisenberg(F5), abelian(F5, 2, 1), matrix_gl(1, 1, ground_assoc(F5))):
        rep = d3_lemma_check(alg)
        assert rep.ok, rep.details


def test_h2_paths_agree_f7():
    h = heisenberg(F7)
    assert h2_via_exterior(h).dims == homology(h, None, 2).dims


def test_uce_sl21_f5():
    sl = matrix_sl(2, 1, ground_assoc(F5)).algebra
    assert series(sl).is_perfect
    ce = uce(sl)
    assert ce.kernel_dims == homology(sl, None, 2).dims


def test_nh_identity_f5():
    h = heisenberg(F5)
    r = nh(h, identity_crossed(h))
    assert r.nh0.dims == (2, 0)


def test_cyclic_f5():
    g = grassmann_line(F5)
    cx = connes(g, 2)
    a = hc(g, 1, cx).dims
    b = hc1_kernel_model(g).dims
    assert a == b == (1, 0)
    assert milnor_hc1(g).dims == a


def test_cyclic_sixterm_f5():
    from superlie.algebras import matrix_assoc
    from superlie.cyclic import cyclic_sixterm, dual_numbers, v_algebra

    for A in (grassmann_line(F5), dual_numbers(F5),
              matrix_assoc(1, 1, ground_assoc(F5))):
        va = v_algebra(A)
        assert va.crossed is not None
        st = cyclic_sixterm(A)
        assert st.ok, (A.name, st.report.nodes)
