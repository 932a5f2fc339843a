"""The Connes complex built from signed rotation orbits.

``connes`` writes the canonical basis of Im(1 - t_n) orbit by orbit; the
oracle in ``tests/oracles.py`` eliminates e_t - t_n e_t over every basis
tuple t and evaluates the Hochschild boundary tuple by tuple.  They are
compared over Q, F3, F5 and F7, in drawn permuted and rescaled bases:
the bottoms as subspaces, the section labels and the boundary columns.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import superlie.cyclic as cyclic
from oracles import connes_oracle, rebase_assoc
from superlie.algebras import ground_assoc, matrix_assoc
from superlie.cyclic import connes, dual_numbers, grassmann_line
from superlie.fields import QQ, Field
from superlie.homology import ComplexInconsistent
from superlie.linalg import ContainmentError, Echelon
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


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", sorted(ASSOC))
@settings(max_examples=2, deadline=None)
@given(data=st.data())
def test_orbit_complex_matches_elimination(data, name, p):
    base = assoc(name, p)
    perm = data.draw(st.permutations(range(base.dim)))
    units = (1, -1) if p is None else (1, -1, 2, -2)
    scale = data.draw(st.lists(st.sampled_from(units), min_size=base.dim, max_size=base.dim))
    A = rebase_assoc(base, perm, scale)
    max_n = 3 if A.dim <= 4 else 2
    cx = connes(A, max_n)
    coinv, boundaries = connes_oracle(A, max_n)
    for n in range(max_n + 1):
        got, want = cx.coinvariants[n], coinv[n]
        assert got.bottom == want.bottom, n
        assert got.space == want.space, n
        if n:
            assert cx.boundary(n).matrix.cols == boundaries[n].matrix.cols, n


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
