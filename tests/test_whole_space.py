"""A quotient of the whole ambient space.

``Subspace.full`` stores no rows: its unit rows are made when read.  The
quotients built on it, the tensor product, V(A), the HC_1 kernel model,
the Milnor quotient and H_0 of the chain complex, must have the section,
labels and reductions that the same quotient has on a top that holds
every unit row.
"""

import pytest

from oracles import PRIMES
from superlie.algebras import QuotientSpace, ground_assoc, matrix_gl, quotient_space
from superlie.cyclic import grassmann_line, hc1_kernel_model, milnor_hc1, v_algebra
from superlie.fields import QQ, Field
from superlie.homology import homology
from superlie.linalg import Subquotient, Subspace
from superlie.tensor import adjoint_tensor_square


def unit_rows(field, ambient: int) -> Subspace:
    """The whole space with every unit row stored."""
    return Subspace(field, ambient, [{i: 1} for i in range(ambient)], _canonical=True)


def probes(ambient: int) -> list[dict]:
    """Every unit vector and a few sums of them."""
    units = [{i: 1} for i in range(ambient)]
    sums = [{i: 1, (3 * i + 1) % ambient: 2} for i in range(ambient)]
    return units + [v for v in sums if len(v) == 2]


def assert_same_quotient(sq: Subquotient, old: Subquotient):
    assert not isinstance(sq.top.rows, list)
    assert sq.top == old.top
    assert sq.section == old.section
    for v in probes(sq.ambient):
        assert sq.reduce(v) == old.reduce(v)
        assert sq.lift(sq.reduce(v)) == old.lift(old.reduce(v))


def whole_space_quotients(p) -> list[tuple[QuotientSpace, str]]:
    F = Field(p)
    gl21 = matrix_gl(2, 1, ground_assoc(F))
    A = grassmann_line(F)
    return [(adjoint_tensor_square(gl21).quotient, "t"),
            (v_algebra(A).quotient, "v"),
            (hc1_kernel_model(ground_assoc(F)).quotient, "v"),
            (milnor_hc1(A), "m")]


@pytest.mark.parametrize("p", PRIMES)
def test_whole_space_quotients_unchanged(p):
    for q, prefix in whole_space_quotients(p):
        old = quotient_space(q.parent, unit_rows(q.field, q.ambient), q.bottom, prefix)
        assert q.space == old.space
        assert_same_quotient(q, old)


@pytest.mark.parametrize("p", PRIMES)
def test_h0_on_the_whole_space_unchanged(p):
    P = matrix_gl(2, 1, ground_assoc(Field(p)))
    sq = homology(P, None, 0)
    old = Subquotient(unit_rows(P.field, sq.ambient), sq.bottom)
    assert_same_quotient(sq, old)


def test_unit_rows_read_like_a_list():
    full, old = Subspace.full(QQ, 5), unit_rows(QQ, 5)
    assert full.dim == 5 and full.pivots == range(5)
    assert list(full.rows) == old.rows
    assert full.rows[-1] == {4: 1} and full.rows[1:3] == [{1: 1}, {2: 1}]
    with pytest.raises(IndexError):
        full.rows[5]
    assert full.coords({3: 2, 0: -1}) == old.coords({3: 2, 0: -1}) == {0: -1, 3: 2}
    assert full.reduce_vec({2: 7}) == {}
    assert full.intersect(Subspace(QQ, 5, [{1: 1, 2: 1}])) == Subspace(QQ, 5, [{1: 1, 2: 1}])
