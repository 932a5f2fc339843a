"""The one change of basis of the differential tests, ``oracles.change_basis``.

For every algebra of the catalogue, over Q, F3, F5 and F7, in a seeded
permuted, rescaled basis and in a seeded unitriangular one, the columns
are an isomorphism from the algebra in the new basis to the original: of
Lie superalgebras by ``iso_fault``, and of associative superalgebras
product by product, unit included.  A changed constant of the new table
must break the isomorphism, and columns that are not a basis are refused.
"""

import pytest

from oracles import ASSOC, LIE, PRIMES, change_basis, perturbed, seeded_basis
from superlie.algebras import LieSuperAlgebra, iso_fault
from superlie.fields import Field
from superlie.spaces import GradedMap

KINDS = ("shuffle", "unitriangular")


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", tuple(LIE))
def test_columns_are_a_lie_isomorphism(name, p):
    L = LIE[name](Field(p))
    for kind in KINDS:
        cols = seeded_basis(L, f"{name}:{p}", kind)
        R = change_basis(L, cols)
        f = GradedMap.from_columns(R.space, L.space, cols)
        assert iso_fault(f, R, L) is None
        if R.table:
            bad = LieSuperAlgebra(R.space, perturbed(R.table), name=R.name)
            assert iso_fault(f, bad, L).startswith("bracket mismatch")


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", tuple(ASSOC))
def test_columns_carry_products_and_unit(name, p):
    A = ASSOC[name](Field(p))
    for kind in KINDS:
        cols = seeded_basis(A, f"{name}:{p}", kind)
        R = change_basis(A, cols)
        f = GradedMap.from_columns(R.space, A.space, cols)
        for a in range(R.dim):
            for b in range(R.dim):
                assert f.apply(R.product({a: 1}, {b: 1})) == A.product(cols[a], cols[b])
        assert (R.unit is None) == (A.unit is None)
        if A.unit is not None:
            assert f.apply(R.unit) == A.unit


def test_columns_that_are_not_a_basis_are_refused():
    L = LIE["heis"](Field(None))
    with pytest.raises(ValueError, match="not a basis"):
        change_basis(L, [{0: 1}, {0: 2}, {2: 1}])
