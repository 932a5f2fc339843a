"""I(A) and the Milnor relations from the degree-1 rotation orbits.

``relation_ideal`` takes the graded-symmetric part of I(A) as the
canonical rows of Im(1 - t_1), and ``milnor_hc1`` adds A (x) [A, A] with
[A, A] spanned by the graded commutators of the stored products.  The
oracles in ``tests/oracles.py`` eliminate the generator families basis
pair by basis pair and basis triple by basis triple.  They are compared
as canonical subspaces over Q, F3, F5 and F7, in drawn permuted and
rescaled bases.  The cyclic six-term sequence reads its identifications
from the nodes of its own snake sequence, so it builds each non-abelian
tensor product once.
"""

import importlib
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from oracles import milnor_relations_oracle, rebase_assoc, relation_ideal_oracle
from superlie.algebras import AssocSuperAlgebra, ground_assoc, matrix_assoc
from superlie.cyclic import cyclic_sixterm, dual_numbers, grassmann_line, milnor_hc1, relation_ideal
from superlie.fields import Field
from superlie.spaces import superspace

def zero_product(field) -> AssocSuperAlgebra:
    """The (1|1) superalgebra with every product zero and no unit: I(A) is
    then Im(1 - t_1) alone, spanned by e (x) e, whose orbit is dead, and
    e (x) t + t (x) e."""
    return AssocSuperAlgebra(superspace(field, [("e", 0), ("t", 1)]), {}, name="zero(1|1)")


ASSOC = {
    "K": ground_assoc,
    "dual": dual_numbers,
    "L1": grassmann_line,
    "M(1|1, L1)": lambda F: matrix_assoc(1, 1, grassmann_line(F)),
    "zero(1|1)": zero_product,
}
PRIMES = (None, 3, 5, 7)


@lru_cache(maxsize=None)
def assoc(name: str, p):
    return ASSOC[name](Field(p))


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", sorted(ASSOC))
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_relations_match_the_generator_families(data, name, p):
    base = assoc(name, p)
    perm = data.draw(st.permutations(range(base.dim)))
    units = (1, -1, 2, Fraction(-1, 3)) if p is None else (1, -1, 2, -2)
    scale = data.draw(st.lists(st.sampled_from(units), min_size=base.dim, max_size=base.dim))
    A = rebase_assoc(base, perm, scale)
    assert relation_ideal(A) == relation_ideal_oracle(A)
    assert milnor_hc1(A).bottom == milnor_relations_oracle(A)


def test_milnor_relations_are_coarser_than_the_ideal():
    """I(A) lies in the Milnor relations, properly when A is not
    supercommutative."""
    A = assoc("M(1|1, L1)", None)
    ideal, milnor = relation_ideal(A), milnor_hc1(A).bottom
    assert milnor.contains(ideal) and milnor.dim > ideal.dim


def test_sixterm_builds_each_tensor_product_once(m11, monkeypatch):
    """The identifications read nh0 and nh1 from the snake sequence, which
    builds one non-abelian tensor product per crossed module."""
    # the package re-exports the function homology under the module's name
    homology_module = importlib.import_module("superlie.homology")
    calls = []
    build = homology_module.nonabelian_tensor

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(homology_module, "nonabelian_tensor", counting)
    st6 = cyclic_sixterm(m11)
    assert st6.ok
    assert len(calls) == 3
    assert [flag for _, flag in st6.identifications] == [True] * 4
