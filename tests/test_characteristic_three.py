"""Characteristic 3: the odd cube in the tensor and exterior products, and
divided powers in the Chevalley–Eilenberg complex.

Over F3 a Lie superalgebra satisfies [x, [x, x]] = 0 for odd x, which
graded Jacobi does not give.  The tensor square imposes it as a relation,
the exterior square kills x ^ [x, x], and the chain complex runs on
divided powers, so H_2 from the complex equals the kernel of the bracket
on the exterior square there, as over Q, F5 and F7.
"""

import pytest

from oracles import PRIMES
from superlie.algebras import LieSuperAlgebra, check_lie_axioms
from superlie.fields import Field
from superlie.homology import ce_complex, h2_via_exterior, homology, trivial_module
from superlie.spaces import superspace
from superlie.tensor import adjoint_tensor_square, exterior_square


def _free_odd(field: Field) -> LieSuperAlgebra:
    """The free Lie superalgebra on one odd generator x, spanned by x and
    b = [x, x]: [x, b] = 0 by Jacobi outside characteristic 3 and by the
    odd cube in it."""
    return LieSuperAlgebra(superspace(field, [("b", 0), ("x", 1)]), {(1, 1): {0: 1}},
                           name="free(x)")


@pytest.mark.parametrize("p", PRIMES)
def test_free_algebra_on_one_odd_generator_has_no_h2(p):
    """H_2 of a free algebra is 0.  On symmetric powers the boundary of
    x^x^x would be 3 b^x, which vanishes mod 3 and would leave b^x a class;
    x ^ [x, x] = x ^ b would survive in the exterior square likewise."""
    P = _free_odd(Field(p))
    assert [homology(P, None, n).dims for n in range(4)] == [(1, 0), (0, 1), (0, 0), (0, 0)]
    assert h2_via_exterior(P).dims == (0, 0)
    assert exterior_square(P).algebra.space.dim_pair == (1, 0)


@pytest.mark.parametrize("p", PRIMES)
def test_cube_of_an_odd_chain_bounds_on_divided_powers(p):
    """Over F3 the chain x^x^x stands for x^3 / 3, so its boundary is the
    one over Q divided by 3; below degree p, and over Q, the chains are the
    monomials."""
    P = _free_odd(Field(p))
    d3 = ce_complex(P, trivial_module(P), 3).boundary(3)
    col = d3.matrix.cols[d3.source.labels.index("x^x^x")]
    bx = d3.target.labels.index("b^x")
    assert col == {bx: P.field.of(-1 if p == 3 else -3)}


# a (3|2) subalgebra of gl(2|1) over F3, in a unitriangular basis, where
# the tensor square first failed the odd cube
SUB_GL21 = (
    [("E11", 0), ("E12", 0), ("E13", 1), ("E21", 0), ("E23", 1)],
    {(0, 1): {1: 2, 3: 1}, (0, 2): {2: 2, 4: 1}, (0, 3): {0: 2, 1: 2, 3: 1},
     (0, 4): {2: 2, 4: 1}, (1, 2): {2: 2, 4: 1}, (1, 3): {0: 1, 1: 1}, (1, 4): {2: 1, 4: 1},
     (2, 2): {0: 2, 1: 1}, (2, 3): {4: 2}, (2, 4): {0: 2, 1: 2, 3: 2}, (4, 4): {3: 1}},
)


def test_tensor_square_over_f3_imposes_the_odd_cube():
    """Families (i) and (ii) span 18 of the 25 dimensions of P (x) P and
    leave two odd cubes; the product has them as relations, passes the Lie
    axioms and gives H_2 = 0 as the complex does."""
    basis, table = SUB_GL21
    P = LieSuperAlgebra(superspace(Field(3), basis), table, name="sub")
    assert check_lie_axioms(P).ok
    t = adjoint_tensor_square(P)
    assert t.d_generators.dim == 20
    assert t.algebra.space.dim_pair == (3, 2)
    assert check_lie_axioms(t.algebra).ok
    assert homology(P, None, 2).dims == h2_via_exterior(P).dims == (0, 0)
