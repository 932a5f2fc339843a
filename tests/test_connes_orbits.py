"""The Connes complex built from signed rotation orbits.

``connes`` writes the canonical basis of Im(1 - t_n) orbit by orbit and
reduces in C_n by looking each basis tuple up in its orbit; the oracle in
``tests/oracles.py`` eliminates e_t - t_n e_t over every basis tuple t and
evaluates the Hochschild boundary tuple by tuple.  They are compared over
Q, F3, F5 and F7, in drawn permuted and rescaled bases: the bottoms as
subspaces, the section labels, the boundary columns, and the reduction
of drawn vectors against the row-by-row reduction by the oracle's bottom.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import superlie.cyclic as cyclic
from oracles import connes_oracle, quotient_coords_all_rows, rebase_assoc
from superlie.algebras import ground_assoc, matrix_assoc
from superlie.cyclic import connes, dual_numbers, grassmann_line
from superlie.fields import QQ, Field
from superlie.homology import ComplexInconsistent
from superlie.linalg import ContainmentError, Echelon, Subquotient, Subspace
from superlie.spaces import GradedMap

ASSOC = {
    "q": ground_assoc,
    "dual": dual_numbers,
    "grassmann": grassmann_line,
    "m11": lambda F: matrix_assoc(1, 1, ground_assoc(F)),
    "M(1|1, L1)": lambda F: matrix_assoc(1, 1, grassmann_line(F)),
}
PRIMES = (None, 3, 5, 7)


@lru_cache(maxsize=None)
def assoc(name: str, p):
    return ASSOC[name](Field(p))


def drawn_basis(data, name: str, p):
    """assoc(name, p) in a drawn permuted basis, each vector rescaled by a unit."""
    base = assoc(name, p)
    perm = data.draw(st.permutations(range(base.dim)))
    units = (1, -1) if p is None else (1, -1, 2, -2)
    scale = data.draw(st.lists(st.sampled_from(units), min_size=base.dim, max_size=base.dim))
    return rebase_assoc(base, perm, scale)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", sorted(ASSOC))
@settings(max_examples=2, deadline=None)
@given(data=st.data())
def test_orbit_complex_matches_elimination(data, name, p):
    A = drawn_basis(data, name, p)
    max_n = 3 if A.dim <= 4 else 2
    cx = connes(A, max_n)
    coinv, boundaries = connes_oracle(A, max_n)
    for n in range(max_n + 1):
        got, want = cx.coinvariants[n], coinv[n]
        assert got.bottom == want.bottom, n
        assert got.space == want.space, n
        if n:
            assert cx.boundary(n).matrix.cols == boundaries[n].matrix.cols, n


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", ("q", "grassmann", "M(1|1, L1)"))
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_orbit_reduce_matches_echelon_reduction(data, name, p):
    """The orbit lookup of C_n gives the section coordinates that reducing
    row by row against the oracle's bottom gives, on drawn sparse vectors
    with coefficients in and out of the orbit representatives."""
    A = drawn_basis(data, name, p)
    max_n = 3 if A.dim <= 4 else 2
    cx = connes(A, max_n)
    coinv, _ = connes_oracle(A, max_n)
    coeffs = st.integers(-4, 4) if p is None else st.integers(0, p - 1)
    for n in range(max_n + 1):
        size = A.dim ** (n + 1)
        v = data.draw(st.dictionaries(st.integers(0, size - 1), coeffs, max_size=12))
        assert cx.coinvariants[n].reduce(v) == quotient_coords_all_rows(coinv[n], v), n


def test_connes_reduces_by_lookup(monkeypatch):
    """Building the complex reduces no vector against a subspace: the
    boundary's descent certificate and columns reduce in C_{n-1} by
    lookup, and the whole-space tops need no reduction."""
    calls = []
    for cls, name in ((Subspace, "reduce_vec"), (Subquotient, "reduce")):
        original = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda self, v, f=original: calls.append(v) or f(self, v))
    connes(matrix_assoc(1, 1, grassmann_line(QQ)), 3)
    assert calls == []


def test_dead_orbits():
    """An orbit on which the signed rotation returns -1 puts each of its
    members in Im(1 - t_n); a live orbit gives one row fewer than its
    length.  In K, t_n is (-1)^n on 1 (x) ... (x) 1.  In the Grassmann line
    with basis 1 = e_0 and t = e_1 odd, a flat index is a binary number:
    in degree 1, 1 (x) t and t (x) 1 form a live orbit with the row
    e_1 + e_2, and in degree 3, t_3 is +1 on 1 (x) t (x) 1 (x) t and -1 on
    t (x) 1 (x) t (x) 1, a dead orbit of length 2."""
    cq = connes(ground_assoc(QQ), 3)
    assert [q.bottom.rows for q in cq.coinvariants] == [[], [{0: 1}], [], [{0: 1}]]
    cg = connes(grassmann_line(QQ), 3)
    assert cg.coinvariants[1].bottom.rows == [{0: 1}, {1: 1, 2: 1}]
    rows = cg.coinvariants[3].bottom.rows
    assert {5: 1} in rows and {10: 1} in rows


def test_connes_runs_no_elimination(monkeypatch):
    """connes builds Im(1 - t_n) without an Echelon insert; the elimination
    oracle needs one per basis tuple, 8 + 64 + 512 + 4096 for
    M(1|1, Lambda1) up to degree 3."""
    calls = []
    insert = Echelon.insert
    monkeypatch.setattr(Echelon, "insert", lambda self, v: calls.append(v) or insert(self, v))
    A = matrix_assoc(1, 1, grassmann_line(QQ))
    cx = connes(A, 3)
    assert calls == []
    coinv, _ = connes_oracle(A, 3)
    assert len(calls) == 4680
    assert [q.bottom for q in coinv] == [q.bottom for q in cx.coinvariants]


def test_boundary_certificates_still_run(monkeypatch):
    """The induced boundary keeps its descent certificate, and the complex
    its d.d = 0 check."""
    original = cyclic._hochschild_basis
    # drop the last factor: sends the dead 1 (x) 1 to 1, outside Im(1 - t_0) = 0
    monkeypatch.setattr(cyclic, "_hochschild_basis", lambda A, n, x: {x // A.dim: 1})
    with pytest.raises(ContainmentError):
        connes(ground_assoc(QQ), 1)
    monkeypatch.setattr(cyclic, "_hochschild_basis", original)

    def all_ones(A, n, src, dst):
        return GradedMap.from_columns(src.space, dst.space, [{0: 1}] * src.space.dim)

    monkeypatch.setattr(cyclic, "_induced_boundary", all_ones)
    with pytest.raises(ComplexInconsistent):
        connes(dual_numbers(QQ), 2)
