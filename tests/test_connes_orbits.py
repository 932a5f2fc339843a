"""The Connes complex built from signed rotation orbits on its weight-0
block.

``connes`` writes the canonical basis of Im(1 - t_n) orbit by orbit over
the basis tuples of weight 0 under the diagonal inner derivations, indexed
by position, and reduces in C_n off those rows, as any quotient of the
whole space; the oracle in ``tests/oracles.py`` reads its weights densely from
the products, filters every basis tuple by weight and indexes the kept
ones by position, eliminates e_t - t_n e_t over them and evaluates the
Hochschild boundary tuple by tuple.  They are compared over Q, F3, F5 and
F7, in drawn permuted and rescaled bases: the bottoms as subspaces, the
section labels, the boundary columns, the homology against that of the
full oracle complex, and the reduction of drawn vectors against the
row-by-row reduction by the oracle's top and bottom.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import superlie.cyclic as cyclic
from oracles import ASSOC, PRIMES, change_basis, connes_oracle, monomial_basis, quotient_coords_all_rows
from superlie.algebras import ground_assoc, matrix_assoc
from superlie.cyclic import connes, dual_numbers, grassmann_line
from superlie.fields import QQ, Field
from superlie.homology import Complex, ComplexInconsistent
from superlie.linalg import ContainmentError, Echelon, Subspace
from superlie.spaces import GradedMap

NAMES = ("M(1|1, L1)", "M(2|1, K)", "dual", "grassmann", "m11", "q")
UNGRADED = ("q", "dual", "grassmann")  # no inner grading: the full complex


@lru_cache(maxsize=None)
def assoc(name: str, p):
    return ASSOC[name](Field(p))


def top_degree(name: str) -> int:
    """HC0-HC3 where the full oracle complex is small, HC0-HC2 otherwise."""
    return 4 if assoc(name, None).dim <= 4 else 3


@lru_cache(maxsize=None)
def full_hc(name: str, p, max_n: int) -> list[tuple[int, int]]:
    """HC_0, ..., HC_{max_n - 1} of the full oracle complex, in the
    standard basis: the dimensions do not depend on the basis."""
    _, boundaries = connes_oracle(assoc(name, p), max_n)
    cx = Complex(boundaries)
    return [cx.homology(n).dims for n in range(max_n)]


def check_block_matches_oracle(A, max_n: int, want_hc: list) -> None:
    """connes(A, max_n) against the oracle's weight-0 block: bottoms,
    labels and boundary columns, and its homology against want_hc."""
    cx = connes(A, max_n)
    coinv, boundaries = connes_oracle(A, max_n, weight0=True)
    for n in range(max_n + 1):
        got, want = cx.coinvariants[n], coinv[n]
        assert got.top == want.top, n
        assert got.bottom == want.bottom, n
        assert got.space == want.space, n
        if n:
            assert cx.boundary(n).matrix.cols == boundaries[n].matrix.cols, n
    assert [cx.homology(n).dims for n in range(max_n)] == want_hc


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=2, deadline=None)
@given(data=st.data())
def test_orbit_complex_matches_elimination(data, name, p):
    A = change_basis(assoc(name, p), data.draw(monomial_basis(assoc(name, p))))
    max_n = top_degree(name)
    check_block_matches_oracle(A, max_n, full_hc(name, p, max_n))


@pytest.mark.parametrize("name", UNGRADED)
def test_ungraded_algebras_keep_the_full_complex(name):
    """K, the dual numbers and Lambda1 have no inner grading: every basis
    tuple is kept, and the complex is the full oracle complex."""
    A = assoc(name, None)
    cx = connes(A, 3)
    coinv, _ = connes_oracle(A, 3)
    for n in range(4):
        assert cx.coinvariants[n].top == Subspace.full(QQ, A.dim ** (n + 1)), n
        assert cx.coinvariants[n].bottom == coinv[n].bottom, n
        assert cx.coinvariants[n].space == coinv[n].space, n


@pytest.mark.parametrize("name, p", [("M(1|1, L1)", 3), ("M(2|1, K)", 3)])
def test_block_hc3_matches_the_full_complex(name, p):
    """HC3 of the block against the full oracle complex, over F3, where
    some weights vanish mod 3 and the block keeps more tuples than over Q
    (64 degree-2 coinvariants of M(1|1, Lambda1) against 56)."""
    A = assoc(name, p)
    cx = connes(A, 4)
    assert [cx.homology(n).dims for n in range(4)] == full_hc(name, p, 4)


def test_block_keeps_the_tuples_of_weight_zero_in_the_field():
    """The coinvariant dimensions of the block of M(1|1, Lambda1): over F3
    the weights 1 + 1 + 1 and -1 - 1 - 1 vanish, so degree 2 keeps 64
    coinvariants, against 56 over Q; the full complex has 8, 32, 176, 1024."""
    dims = {p: [q.space.dim for q in connes(assoc("M(1|1, L1)", p), 3).coinvariants]
            for p in PRIMES}
    assert dims[None] == dims[5] == dims[7] == [4, 12, 56, 280]
    assert dims[3] == [4, 12, 64, 344]


def test_unreduced_weights_fail_the_f3_case(monkeypatch):
    """Tuple weights summed without reduction mod p miss the tuples whose
    weight vanishes only mod 3, and the comparison with the oracle fails."""
    original = cyclic.weight0_words
    monkeypatch.setattr(cyclic, "weight0_words", lambda field, *args: original(QQ, *args))
    with pytest.raises(AssertionError):
        check_block_matches_oracle(assoc("M(1|1, L1)", 3), 3, full_hc("M(1|1, L1)", 3, 3))


def test_hochschild_images_stay_in_the_block(monkeypatch):
    """connes(M(1|1, Lambda1), 3) evaluates d' on the 24 + 160 + 1120 block
    tuples of degrees 1-3, not on the 64 + 512 + 4096 of the full complex;
    a fallback to the full complex fails here."""
    calls = []
    original = cyclic._hochschild_basis
    monkeypatch.setattr(cyclic, "_hochschild_basis",
                        lambda A, t, position: calls.append(t) or original(A, t, position))
    connes(assoc("M(1|1, L1)", None), 3)
    assert len(calls) <= 1304


def test_a_face_leaving_the_block_raises(monkeypatch):
    """C_n lives on the block's tuples, so a face of d' outside the block
    of degree n - 1 has no coordinate there: it raises, as in the
    Chevalley-Eilenberg complex, instead of being read as 0."""
    A = assoc("m11", None)  # [E11, -] has weights 0, 1, -1, 0
    assert (1,) not in connes(A, 1).coinvariants[0].position
    monkeypatch.setattr(cyclic, "_hochschild_basis",
                        lambda A, t, position: {position[(1,)]: 1})  # E12, weight 1
    with pytest.raises(ComplexInconsistent, match="leaves the weight-0 block"):
        connes(A, 1)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", ("q", "grassmann", "M(1|1, L1)"))
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_orbit_reduce_matches_echelon_reduction(data, name, p):
    """The one-pass reduction of C_n off its bottom rows gives the section
    coordinates that reducing row by row against the oracle's bottom
    gives, on drawn sparse vectors of the block with coefficients in and
    out of the orbit representatives."""
    A = change_basis(assoc(name, p), data.draw(monomial_basis(assoc(name, p))))
    max_n = 3 if A.dim <= 4 else 2
    cx = connes(A, max_n)
    coinv, _ = connes_oracle(A, max_n, weight0=True)
    coeffs = st.integers(-4, 4) if p is None else st.integers(0, p - 1)
    for n in range(max_n + 1):
        block = coinv[n].top.pivots
        v = data.draw(st.dictionaries(st.sampled_from(block), coeffs, max_size=12))
        assert cx.coinvariants[n].reduce(v) == quotient_coords_all_rows(coinv[n], v), n


def test_connes_reduces_no_vector_against_a_subspace(monkeypatch):
    """Building the complex reduces no vector against a subspace: the
    boundary's descent certificate and columns reduce in C_{n-1}, a
    quotient of the whole space, off its bottom rows, and the whole-space
    tops need no reduction."""
    calls = []
    original = Subspace.reduce_vec
    monkeypatch.setattr(Subspace, "reduce_vec", lambda self, v: calls.append(v) or original(self, v))
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
    """connes builds Im(1 - t_n) without an Echelon insert; the full
    elimination oracle needs one per basis tuple, 8 + 64 + 512 + 4096 for
    M(1|1, Lambda1) up to degree 3, and its block has connes' bottoms."""
    calls = []
    insert = Echelon.insert
    monkeypatch.setattr(Echelon, "insert", lambda self, v: calls.append(v) or insert(self, v))
    A = matrix_assoc(1, 1, grassmann_line(QQ))
    cx = connes(A, 3)
    assert calls == []
    connes_oracle(A, 3)
    assert len(calls) == 4680
    coinv, _ = connes_oracle(A, 3, weight0=True)
    assert [q.bottom for q in coinv] == [q.bottom for q in cx.coinvariants]


def test_boundary_certificates_still_run(monkeypatch):
    """The induced boundary keeps its descent certificate, and the complex
    its d.d = 0 check."""
    original = cyclic._hochschild_basis
    # drop the last factor: sends the dead 1 (x) 1 to 1, outside Im(1 - t_0) = 0
    monkeypatch.setattr(cyclic, "_hochschild_basis", lambda A, t, position: {position[t[:-1]]: 1})
    with pytest.raises(ContainmentError):
        connes(ground_assoc(QQ), 1)
    monkeypatch.setattr(cyclic, "_hochschild_basis", original)

    def all_ones(A, n, src, dst):
        return GradedMap.from_columns(src.space, dst.space, [{0: 1}] * src.space.dim)

    monkeypatch.setattr(cyclic, "_induced_boundary", all_ones)
    with pytest.raises(ComplexInconsistent):
        connes(dual_numbers(QQ), 2)
