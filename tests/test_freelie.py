from itertools import accumulate, product
from math import comb

import pytest

from oracles import echelon_free_cover, evaluate_relator, magma_quotient_dims, product_subspace_pairs
from superlie import linalg
from superlie.algebras import LieSuperAlgebra, check_lie_axioms, iso_fault, series
from superlie.freelie import (
    DegreeOverflow,
    FreeTruncation,
    Presentation,
    free_nilpotent,
    free_truncated,
    genset,
    miller_truncated_check,
    word_parity,
)
from superlie.homology import homology
from superlie.spaces import GradedMap


def gs(*pairs):
    return genset(list(pairs))


def test_one_even_generator():
    assert free_truncated(gs(("x", 0)), 3).dims() == [1, 0, 0]


def test_one_odd_generator():
    F = free_truncated(gs(("t", 1)), 3)
    assert F.dims() == [1, 1, 0]
    # the square of the odd generator is a nonzero even element
    v = F.word_to_algebra_vec(["t", "t"])
    assert v
    alg = F.algebra()
    assert alg.space.parities[next(iter(v))] == 0


def test_no_generators():
    F = free_truncated(gs(), 3)
    assert (F.dims(), F.algebra().dim, F.words) == ([0, 0, 0], 0, [])


def test_two_even_generators_witt():
    assert free_truncated(gs(("x", 0), ("y", 0)), 3).dims() == [2, 1, 2]


def test_dims_match_magma_oracle_all_mixes():
    for g in range(1, 4):
        for bits in range(2 ** g):
            parities = [(bits >> i) & 1 for i in range(g)]
            gens = genset([(f"g{i}", p) for i, p in enumerate(parities)])
            lin = free_truncated(gens, 4).dims()
            oracle = magma_quotient_dims(parities, 4)
            assert lin == oracle, (parities, lin, oracle)


def super_witt_dims(even: int, odd: int, top: int) -> dict[tuple[int, int], int]:
    """The dimensions d_ij, i + j <= top, of the components of the free Lie
    superalgebra with i even and j odd generator letters, solved degree by
    degree from the PBW identity
    1/(1 - even x - odd y) = prod_{j odd} (1 + x^i y^j)^{d_ij} / prod_{j even} (1 - x^i y^j)^{d_ij}
    (Bahturin-Mikhalev-Petrogradsky-Zaicev, Infinite-Dimensional Lie
    Superalgebras, 1992): the left side counts the words, and a factor of
    total degree n adds d_ij x^i y^j and otherwise only terms of degree
    2n or more."""
    d: dict[tuple[int, int], int] = {}
    series = {(0, 0): 1}  # the product of the factors of total degree < n
    for n in range(1, top + 1):
        new = [(i, n - i) for i in range(n + 1)]
        for i, j in new:
            d[i, j] = comb(n, i) * even ** i * odd ** j - series.get((i, j), 0)
        for i, j in new:
            # (1 + t)^d or 1/(1 - t)^d with t = x^i y^j, to total degree top
            coeffs = [comb(d[i, j], k) if j % 2 else comb(d[i, j] + k - 1, k) if k else 1
                      for k in range(top // n + 1)]
            out: dict[tuple[int, int], int] = {}
            for (u, v), c in series.items():
                for k, ck in enumerate(coeffs):
                    if u + v + k * n <= top:
                        key = (u + k * i, v + k * j)
                        out[key] = out.get(key, 0) + c * ck
            series = out
    return d


def test_super_witt_dims_from_pbw():
    """The (even|odd) split of every component of degree <= 5, read through
    the parities of the truncated algebra, is the super-Witt count: the
    component of degree k is the sum of the d_ij with i + j = k, even for
    even j."""
    for gens in range(1, 5):
        for odd in range(gens + 1):
            parities = [0] * (gens - odd) + [1] * odd
            F = free_truncated(genset([(f"g{i}", p) for i, p in enumerate(parities)]), 5)
            par = F.algebra().space.parities
            d = super_witt_dims(gens - odd, odd, 5)
            for k in range(1, 6):
                block = par[F.offsets[k]:F.offsets[k + 1]]
                want = tuple(sum(d[i, k - i] for i in range(k + 1) if (k - i) % 2 == p)
                             for p in (0, 1))
                assert (block.count(0), block.count(1)) == want, (parities, k)
    assert super_witt_dims(3, 1, 5)[5, 0] == 48  # Witt(3, 5)
    F = free_truncated(gs(("x", 0), ("y", 0), ("z", 0), ("t", 1)), 5)
    top = F.algebra().space.parities[F.offsets[5]:]
    assert (top.count(0), top.count(1)) == (105, 99)


def test_free_nilpotent_class2_is_heisenberg():
    alg = free_nilpotent(gs(("x", 0), ("y", 0)), 2)
    assert alg.dim == 3
    assert check_lie_axioms(alg).ok
    s = series(alg)
    assert s.nil_class == 2 and s.center.dim == 1


def test_free_nilpotent_one_odd():
    alg = free_nilpotent(gs(("t", 1)), 2)
    assert alg.space.dim_pair == (1, 1)
    assert check_lie_axioms(alg).ok


def test_free_nilpotent_class1_abelian():
    alg = free_nilpotent(gs(("x", 0), ("t", 1)), 1)
    assert alg.is_abelian()


def test_free_nilpotent_class_is_exact():
    for gens, c in [((("x", 0), ("y", 0)), 2), ((("x", 0), ("y", 0)), 3),
                    ((("t", 1),), 2)]:
        alg = free_nilpotent(genset(list(gens)), c)
        assert series(alg).nil_class == c


def test_relator_evaluation():
    F = free_truncated(gs(("x", 0), ("y", 0)), 3)
    assert F.word_to_algebra_vec(["x", "y"])
    assert F.word_to_algebra_vec(["x", "x"]) == {}
    v = evaluate_relator(F, [["x", "y"], "x"])
    assert v.coords
    assert v.parity == 0


def test_relator_parity_respected():
    F = free_truncated(gs(("x", 0), ("t", 1)), 3)
    for word, want in [("t", 1), (["t", "t"], 0), ([["t", "t"], "t"], 1),
                       (["x", "t"], 1)]:
        v = evaluate_relator(F, word)
        if v.coords:
            assert v.parity == want, word


def test_relator_parity():
    g = gs(("x", 0), ("t", 1))
    assert word_parity("t", g) == 1
    assert word_parity(["t", "t"], g) == 0
    assert word_parity([["t", "t"], "t"], g) == 1


def test_degree_overflow():
    F = free_truncated(gs(("x", 0), ("y", 0)), 2)
    with pytest.raises(DegreeOverflow):
        F.evaluate_word([["x", "y"], "x"])


def test_limits():
    with pytest.raises(ValueError):
        free_truncated(genset([(f"g{i}", 0) for i in range(5)]), 2)
    with pytest.raises(ValueError):
        free_truncated(gs(("x", 0)), 6)


def test_h2_of_free_nilpotent_equals_next_degree():
    for gens, c in [((("x", 0), ("y", 0)), 2), ((("x", 0), ("t", 1)), 2),
                    ((("s", 1), ("t", 1)), 2)]:
        gg = genset(list(gens))
        alg = free_nilpotent(gg, c)
        h2 = homology(alg, None, 2)
        top = free_truncated(gg, c + 1).dims()[c]
        assert h2.dim == top, (gens, c)


@pytest.mark.parametrize("parities", [p for n in (1, 2, 3) for p in product((0, 1), repeat=n)],
                         ids=lambda p: "".join(map(str, p)))
def test_derived_subspace_is_the_span_of_all_brackets(parities):
    """[F, F] read off the grading, the unit rows of the words of length
    >= 2, is the span of the brackets of every pair of basis elements of
    the free nilpotent cover of class c + 1, for the class bounds c = 0..4
    of ``hopf_formula``; with odd generators it holds their squares."""
    gens = genset([(f"g{i}", p) for i, p in enumerate(parities)])
    for c in range(5):
        trunc = free_truncated(gens, c + 1)
        cover = trunc.algebra()
        full = cover.full_subspace()
        assert trunc.derived_subspace() == product_subspace_pairs(cover, full, full), c
    assert any(parities) == any(len(set(w)) == 1 for w in trunc.words if len(w) == 2)


def test_miller_all_small_cases():
    for gens in ([("x", 0)], [("t", 1)], [("x", 0), ("y", 0)],
                 [("x", 0), ("t", 1)], [("s", 1), ("t", 1)]):
        for c in (1, 2, 3):
            rep = miller_truncated_check(genset(gens), c)
            assert rep.ok, (gens, c, rep)


def test_generator_labels_may_contain_the_tensor_separator():
    """The tensor powers are labelled by generator position: with labels
    "a", "b*c", "a*b" and "c", the labels a*(b*c) and (a*b)*c would
    coincide."""
    F = free_truncated(gs(("a", 0), ("b*c", 0), ("a*b", 0), ("c", 0)), 2)
    assert F.dims() == [4, 6]
    assert F.algebra().space.labels[:4] == ("a", "b*c", "a*b", "c")


def test_presentation_validates_labels():
    with pytest.raises(KeyError):
        Presentation(gs(("x", 0)), (["x", "q"],))


def test_scalar_combination_relators():
    F = free_truncated(gs(("x", 0), ("y", 0), ("z", 0)), 2)
    rel = {"sum": [{"coeff": "1", "word": ["x", "y"]},
                   {"coeff": "-2", "word": ["x", "z"]}]}
    v = F.word_to_algebra_vec(rel)
    a = F.word_to_algebra_vec(["x", "y"])
    b = F.word_to_algebra_vec(["x", "z"])
    want = {k: a.get(k, 0) - 2 * b.get(k, 0) for k in set(a) | set(b)}
    assert v == {k: c for k, c in want.items() if c}
    assert word_parity(rel, gs(("x", 0), ("y", 0), ("z", 0))) == 0


def test_mixed_parity_sum_rejected():
    g = gs(("x", 0), ("t", 1))
    rel = {"sum": [{"coeff": "1", "word": "x"}, {"coeff": "1", "word": "t"}]}
    with pytest.raises(ValueError):
        Presentation(g, (rel,))


MALFORMED_RELATORS = [
    ([{"sum": [{"coeff": "1", "word": ["x", "y"]}]}, "x"],
     "a sum may stand only as a relator or as the word of a sum term"),
    ({"sum": []}, "a sum needs at least one term"),
    (["x"], "a bracket word is a label or a pair"),
]


@pytest.mark.parametrize("rel, message", MALFORMED_RELATORS,
                         ids=["sum-in-bracket", "sum-empty", "word-one-element"])
def test_presentation_refuses_malformed_relators(rel, message):
    """Presentation refuses the shapes the file parser refuses, with the
    same message, before any evaluation."""
    with pytest.raises(ValueError, match=message):
        Presentation(gs(("x", 0), ("y", 0)), (rel,))


@pytest.mark.parametrize("word, error, message", [
    (["x"], ValueError, "a bracket word is a label or a pair"),
    (["x", "y", "x"], ValueError, "a bracket word is a label or a pair"),
    (5, ValueError, "a bracket word is a label or a pair"),
    ([["x"], "y"], ValueError, "a bracket word is a label or a pair"),
    ({"sum": []}, ValueError, "a sum needs at least one term"),
    (["x", "q"], KeyError, "unknown generator"),
], ids=["one-element", "three-elements", "integer", "nested-one-element", "sum-empty",
        "unknown-label"])
def test_word_to_algebra_vec_refuses_malformed_words(word, error, message):
    """The public evaluation validates its word once, as Presentation does,
    instead of failing to unpack it or reading an empty sum as 0."""
    F = free_truncated(gs(("x", 0), ("y", 0)), 2)
    with pytest.raises(error, match=message):
        F.word_to_algebra_vec(word)
    if not isinstance(word, dict):
        with pytest.raises(error, match=message):
            F.evaluate_word(word)


def test_evaluate_word_returns_its_parity():
    F = free_truncated(gs(("x", 0), ("t", 1)), 3)
    assert [F.evaluate_word(w)[:2] for w in ("t", ["x", "t"], [["t", "t"], "x"])] == \
        [(1, 1), (2, 1), (3, 0)]


def test_hopf_with_combination_relator():
    from superlie.homology import homology, hopf_formula

    # impose [x,y] = [x,z] in the free class-2 algebra on three generators
    g = gs(("x", 0), ("y", 0), ("z", 0))
    rel = {"sum": [{"coeff": "1", "word": ["x", "y"]},
                   {"coeff": "-1", "word": ["x", "z"]}]}
    h = hopf_formula(Presentation(g, (rel,)), 2)
    chain = homology(h.presented, None, 2)
    assert h.dims == chain.dims


@pytest.mark.parametrize("coeff, message", [
    ("abc", "cannot parse scalar 'abc' over Q"),
    (None, "relator coefficient must be a string or an integer: None"),
    (True, "relator coefficient must be a string or an integer: True"),
    ("1/0", "cannot parse scalar '1/0' over Q"),
])
def test_presentation_refuses_a_coefficient_that_is_not_rational(coeff, message):
    with pytest.raises(ValueError, match=message):
        Presentation(gs(("x", 0)), ({"sum": [{"coeff": coeff, "word": "x"}]},))


def test_presentation_accepts_rational_coefficients():
    for coeff in ("3/4", "-2", 5):
        assert Presentation(gs(("x", 0)), ({"sum": [{"coeff": coeff, "word": "x"}]},))


# ---------------------------------------------------------------------------
# the super-Lyndon cover against the echelon construction in T(V)


def against_echelon(gens, degree):
    """The Lyndon cover, the echelon oracle's cover and the map e_w -> P_w
    between them, P_w read in the oracle's echelon coordinates."""
    F = free_truncated(gens, degree)
    L = F.algebra()
    components, E = echelon_free_cover(gens, degree)
    off = [0, *accumulate(c.dim for c in components)]
    cols = [{off[len(w)] + t: c for t, c in components[len(w)].coords(F._tensor(i)).items()}
            for i, w in enumerate(F.words)]
    return F, L, E, GradedMap.from_columns(L.space, E.space, cols)


PARITY_MIXES = [[(bits >> i) & 1 for i in range(g)] for g in range(1, 5) for bits in range(2 ** g)]


@pytest.mark.parametrize("parities", PARITY_MIXES, ids=lambda p: "".join(map(str, p)))
def test_lyndon_cover_is_isomorphic_to_the_echelon_cover(parities):
    """For every parity mix of 1-4 generators, P_w sends the Lyndon basis
    onto a basis of the oracle's components, degree by degree, and
    intertwines the two bracket tables up to degree 5."""
    gens = genset([(f"g{i}", p) for i, p in enumerate(parities)])
    _, L, E, f = against_echelon(gens, 5)
    assert iso_fault(f, L, E) is None


def test_a_flipped_sign_on_reversed_factorizations_fails_the_differential():
    """The entries [e_v, e_u] = -(-1)^{|u||v|} e_w stored for a factorization
    w = uv with v before u: negating them breaks the isomorphism."""
    F, L, E, f = against_echelon(genset([("x", 0), ("t", 1)]), 4)
    flipped = {(v, u) for u, v in filter(None, F._factors) if v < u}
    assert flipped and flipped <= set(L.table)
    table = {k: {w: -c for w, c in v.items()} if k in flipped else v for k, v in L.table.items()}
    assert iso_fault(f, LieSuperAlgebra(L.space, table, "flipped"), E) is not None


def test_a_corrupted_leading_word_raises(monkeypatch):
    """A P_w whose least word is not w (here x^k added to every bracket) is
    refused as it is built."""
    corrupt = FreeTruncation._supercommutator
    monkeypatch.setattr(FreeTruncation, "_supercommutator",
                        lambda self, *args: {**corrupt(self, *args), 0: 1})
    with pytest.raises(RuntimeError, match="does not lead with it"):
        free_truncated(gs(("x", 0), ("y", 0), ("z", 0)), 3).algebra()


def test_a_bracket_outside_the_span_raises(monkeypatch):
    """A bracket formed in T(V) whose remainder leads with a word that no
    basis element leads with (x^k, for even x) fails the closure check."""
    coords = FreeTruncation._coords
    monkeypatch.setattr(FreeTruncation, "_coords", lambda self, v, k: coords(self, {**v, 0: 1}, k))
    with pytest.raises(RuntimeError, match="free component is not closed under brackets"):
        free_truncated(gs(("x", 0), ("y", 0), ("z", 0)), 3).algebra()


def test_class_5_cover_on_four_even_generators_forms_195_brackets_and_no_echelon(monkeypatch):
    """Of the 485 stored pairs of the class-5 cover on four even generators,
    the 290 standard factorizations of the Lyndon words of length 2-5
    (6 + 20 + 60 + 204) are read off the definitions, and only the other
    195 are formed in V^{(x) k} and reduced; nothing is eliminated."""
    formed, echelons = [], []
    coords, init = FreeTruncation._coords, linalg.Echelon.__init__
    monkeypatch.setattr(FreeTruncation, "_coords",
                        lambda self, v, k: formed.append(k) or coords(self, v, k))
    monkeypatch.setattr(linalg.Echelon, "__init__",
                        lambda self, *args: echelons.append(args) or init(self, *args))
    L = free_truncated(genset([(f"x{i}", 0) for i in range(4)]), 5).algebra()
    assert (L.dim, len(L.table), len(formed), len(echelons)) == (294, 485, 195, 0)


def test_truncation_builds_no_tensor_until_a_bracket_needs_it(monkeypatch):
    """The components, their (even|odd) splits and the Miller check's top
    degree come from the basis words alone."""
    calls = []
    commutator = FreeTruncation._supercommutator
    monkeypatch.setattr(FreeTruncation, "_supercommutator",
                        lambda self, *args: calls.append(args) or commutator(self, *args))
    F = free_truncated(gs(("x", 0), ("y", 0), ("z", 0), ("t", 1)), 5)
    assert (F.components[5].dim_pair, sum(c.dim for c in F.components), calls) == ((105, 99), 298, [])
    assert F.word_to_algebra_vec(["x", "t"]) == {4 + 2: 1}  # [x, t] = e_{xt}, the third of degree 2
    assert len(calls) == 2  # the relator and the P_w it is reduced on
