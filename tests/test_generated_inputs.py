"""The paper's routes to H2 on generated inputs.

Subalgebras of gl(2|1) generated by random homogeneous elements satisfy
the Jacobi identity by construction; in a drawn unitriangular basis they
have in general no basis element with diagonal ad, so their complexes
take the full paths.  On each, H2 from the Chevalley–Eilenberg complex
must equal the kernel of the exterior square over the bracket, over Q,
F3, F5 and F7.

On random presentations, H2 has three independent routes: the Hopf
formula (R ^ [F, F]) / [F, R] in the free nilpotent cover, the
Chevalley–Eilenberg complex of the presented algebra, and the kernel of
its exterior square over the bracket.  All three must agree.
"""

import pytest
from hypothesis import given, settings, strategies as st

from oracles import PRIMES, gl21_subalgebras, presentations
from superlie.homology import h2_via_exterior, homology, hopf_formula


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_h2_of_generated_subalgebras_is_the_exterior_kernel(data, p):
    R = data.draw(gl21_subalgebras(p))
    assert homology(R, None, 2).dims == h2_via_exterior(R).dims


@settings(max_examples=100, deadline=None)
@given(presentations())
def test_hopf_formula_agrees_with_both_routes_on_generated_presentations(drawn):
    pres, c = drawn
    h = hopf_formula(pres, c)
    assert h.dims == homology(h.presented, None, 2).dims == h2_via_exterior(h.presented).dims
