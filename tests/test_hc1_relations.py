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

from oracles import (
    ASSOC,
    PRIMES,
    change_basis,
    milnor_relations_oracle,
    monomial_basis,
    relation_ideal_oracle,
)
from superlie.cyclic import cyclic_sixterm, milnor_hc1, relation_ideal
from superlie.fields import Field

NAMES = ("M(1|1, L1)", "dual", "grassmann", "q", "zero(1|1)")
# the test IDs of the catalogue names, as these tests have always been named
IDS = {"q": "K", "grassmann": "L1"}


@lru_cache(maxsize=None)
def assoc(name: str, p):
    return ASSOC[name](Field(p))


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", NAMES, ids=lambda n: IDS.get(n, n))
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_relations_match_the_generator_families(data, name, p):
    base = assoc(name, p)
    units = (1, -1, 2, Fraction(-1, 3)) if p is None else None
    A = change_basis(base, data.draw(monomial_basis(base, units)))
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
