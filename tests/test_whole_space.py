"""A quotient of the whole ambient space.

``Subspace.full`` stores no rows: its unit rows are made when read.  The
quotients built on it, the tensor product, V(A), the HC_1 kernel model,
the Milnor quotient and H_0 of the chain complex, must have the section,
labels and reductions that the same quotient has on a top that holds
every unit row.

On a quotient of the whole space the section is the unit vectors at the
non-pivots of the bottom: ``Subquotient.reduce`` and ``reduce_basis`` read
the coordinates off the canonical bottom rows, and ``quotient_algebra``
reads each bracket off the bracket index.  They must equal the loop for
any top, the projection by reducing each unit vector and the bracket
spread from the section vectors, entry by entry, over Q, F3, F5 and F7 in
seeded permuted and unitriangular bases.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    LIE,
    PRIMES,
    change_basis,
    field_normal,
    projection_columns,
    quotient_rows_spread,
    reduce_on_section,
    seeded_basis,
)
from superlie.algebras import (
    LieSuperAlgebra,
    Projection,
    QuotientSpace,
    ground_assoc,
    ideal_closure,
    matrix_gl,
    quotient_algebra,
    quotient_space,
)
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


IDEALS = {
    "zero": lambda L, seed: Subspace(L.field, L.dim, []),
    "center": lambda L, seed: L.center(),
    "derived": lambda L, seed: L.product_subspace(L.full_subspace(), L.full_subspace()),
    "closure": lambda L, seed: ideal_closure(L, [{seed % L.dim: 1}]),
}


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from(PRIMES),
       name=st.sampled_from(("heis", "gl(1|1)", "gl(2|1)", "sl(2|1)", "gl(1|1, L1)")),
       kind=st.sampled_from(("shuffle", "unitriangular")), seed=st.integers(0, 2 ** 16),
       ideal=st.sampled_from(tuple(IDEALS)),
       drawn=st.lists(st.lists(st.tuples(st.integers(0, 63), st.integers(-2, 2)), max_size=4),
                      max_size=3))
@example(p=None, name="gl(2|1)", kind="unitriangular", seed=1, ideal="center", drawn=[])
def test_whole_space_quotient_matches_the_general_loop(p, name, kind, seed, ideal, drawn):
    """quotient_algebra of a catalogue algebra in a seeded basis by one of
    its ideals: the projection columns, the bracket table and the
    reductions of drawn vectors, of a vector with an entry at every bottom
    pivot and of the bottom rows equal the general paths, in normal form
    and ascending order."""
    L = LIE[name](Field(p))
    L = change_basis(L, seeded_basis(L, seed, kind))
    Q, proj = quotient_algebra(L, IDEALS[ideal](L, seed))
    q, field = proj.quotient, L.field
    assert q.whole
    cols = q.reduce_basis()
    assert cols == proj.matrix.cols == projection_columns(q)
    spread = LieSuperAlgebra.from_bracket(q.space, quotient_rows_spread(L, q, q.space), "")
    assert Q.table == spread.table
    probes = [{i % L.dim: c for i, c in v} for v in drawn]
    probes += [{i: 1 for i in range(L.dim)}, *q.bottom.rows]
    for v in [*cols, *(q.reduce(field.clean(v)) for v in probes)]:
        assert field_normal(field, v) and list(v) == sorted(v)
    for v in probes:
        assert q.reduce(field.clean(v)) == reduce_on_section(q, field.clean(v))


@pytest.mark.parametrize("p", PRIMES)
def test_the_pinned_quotients_have_an_odd_diagonal_bracket(p):
    """The example of the test above, over each field, keeps an odd a with
    [e_a, e_a] != 0 in the quotient, so a quotient that dropped the pairs
    b = a would differ from the spread bracket."""
    L = LIE["gl(2|1)"](Field(p))
    L = change_basis(L, seeded_basis(L, 1, "unitriangular"))
    Q, _ = quotient_algebra(L, L.center())
    assert any(a == b and Q.space.parities[a] for a, b in Q.table)


def test_projection_refuses_a_quotient_of_a_proper_top():
    """Only a quotient of the whole space has a projection: the derived
    algebra of gl(2|1) over 0 is refused, not reduced until a basis vector
    falls outside."""
    L = LIE["gl(2|1)"](QQ)
    top = L.product_subspace(L.full_subspace(), L.full_subspace())
    q = quotient_space(L.space, top, Subspace(QQ, L.dim, []), "s")
    assert not q.whole
    with pytest.raises(ValueError, match="whole space"):
        Projection(q)
