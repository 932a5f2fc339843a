from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from oracles import count_wedge_monomials, koszul_sign
from superlie.fields import QQ, Field
from superlie.linalg import Matrix
from superlie.spaces import (
    GradedMap,
    SuperSpace,
    exterior_power,
    superspace,
    tensor_index,
    tensor_pair,
    tensor_space,
    tensor_vec,
    wedge_insert,
    wedge_normalize,
)


def space(*parities):
    return superspace(QQ, [(f"e{i}", p) for i, p in enumerate(parities)])


# -- koszul signs -------------------------------------------------------------

def test_koszul_identity_permutation():
    assert koszul_sign([0, 1, 2], [0, 1, 0]) == 1


def test_koszul_even_swap():
    assert koszul_sign([1, 0], [0, 0]) == -1


def test_koszul_odd_swap():
    # the Grassmann relation makes odd factors commute in the wedge
    assert koszul_sign([1, 0], [1, 1]) == 1


def test_koszul_mixed_swap():
    assert koszul_sign([1, 0], [0, 1]) == -1


def test_koszul_matches_insertion_sort():
    # on all permutations of up to 5 mixed-parity factors the sign computed
    # from inversions equals the sign accumulated by adjacent transpositions
    for n in range(1, 6):
        parities = [i % 2 for i in range(n)]
        for perm in permutations(range(n)):
            perm_parities = [parities[p] for p in perm]
            sign, mono = wedge_normalize(list(perm), parities)
            assert mono is not None
            assert mono == tuple(range(n))
            assert sign == koszul_sign(list(perm), perm_parities)


def test_koszul_composition_homomorphism():
    parities = [0, 1, 0, 1]
    base = list(range(4))
    for sigma in permutations(base):
        # decompose sigma into adjacent transpositions and accumulate
        sign = 1
        arr = list(sigma)
        arr_par = [parities[i] for i in arr]
        for i in range(len(arr)):
            for j in range(len(arr) - 1):
                if arr[j] > arr[j + 1]:
                    s = -1 if arr_par[j] * arr_par[j + 1] == 0 else 1
                    sign *= s
                    arr[j], arr[j + 1] = arr[j + 1], arr[j]
                    arr_par[j], arr_par[j + 1] = arr_par[j + 1], arr_par[j]
        assert sign == koszul_sign(list(sigma), [parities[i] for i in sigma])


# -- tensor spaces ------------------------------------------------------------

def test_tensor_dims():
    assert tensor_space(space(0), space(0)).dim_pair == (1, 0)
    assert tensor_space(space(0, 1), space(0, 1)).dim_pair == (2, 2)
    a = space(0, 0, 1)
    b = space(0, 1, 1)
    assert tensor_space(a, b).dim_pair == (4, 5)


def test_tensor_row_major_order():
    a = space(0, 1)
    b = space(0, 0)
    t = tensor_space(a, b)
    assert t.labels == ("e0*e0", "e0*e1", "e1*e0", "e1*e1")
    assert t.parities == (0, 0, 1, 1)


FACTOR_PARITIES = [(), (1,), (0, 1), (1, 0, 1)]


@pytest.mark.parametrize("p", [None, 3])
@pytest.mark.parametrize("pb", FACTOR_PARITIES)
@pytest.mark.parametrize("pa", FACTOR_PARITIES)
def test_tensor_pair_is_the_index_rule_of_tensor_space(pa, pb, p):
    """Position t of the pair basis is (i, j) = tensor_pair(dim b, t),
    row-major: it carries the label a_i*b_j and the parity |a_i| + |b_j|,
    tensor_index maps the pair back to t, and tensor_vec puts e_i (x) e_j
    there."""
    field = QQ if p is None else Field(p)
    a = superspace(field, [(f"a{i}", q) for i, q in enumerate(pa)])
    b = superspace(field, [(f"b{j}", q) for j, q in enumerate(pb)])
    t = tensor_space(a, b)
    pairs = [tensor_pair(b.dim, x) for x in range(t.dim)]
    assert pairs == list(product(range(a.dim), range(b.dim)))
    for x, (i, j) in enumerate(pairs):
        assert tensor_index(b.dim, i, j) == x
        assert t.labels[x] == f"a{i}*b{j}"
        assert t.parities[x] == (pa[i] + pb[j]) % 2
        assert tensor_vec(a, b, {i: 1}, {j: 1}) == {x: 1}


# -- wedge normalization --------------------------------------------------------

def test_wedge_swap_two_evens():
    sign, mono = wedge_normalize([1, 0], (0, 0))
    assert sign == -1 and mono == (0, 1)


def test_wedge_repeated_odd_survives():
    sign, mono = wedge_normalize([0, 0], (1,))
    assert sign == 1 and mono == (0, 0)


def test_wedge_repeated_even_dies():
    sign, mono = wedge_normalize([0, 0], (0,))
    assert sign == 0 and mono is None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=6).flatmap(
    lambda par: st.tuples(st.just(tuple(par)), st.integers(0, len(par) - 1),
                          st.lists(st.integers(0, len(par) - 1), max_size=6))))
def test_wedge_insert_matches_wedge_normalize(case):
    """Placing e in canonical factors by bisection gives the sign and the
    monomial of sorting (e, *rest) by swaps, repeated odd factors, even
    factors that vanish and odd e among even factors included."""
    par, e, factors = case
    _, rest = wedge_normalize(factors, par)
    if rest is not None:
        assert wedge_insert(e, rest, par) == wedge_normalize([e, *rest], par)


def test_wedge_normalize_idempotent():
    sign, mono = wedge_normalize([0, 2, 2], (0, 1, 1))
    assert mono is not None and sign == 1
    sign2, mono2 = wedge_normalize(list(mono), (0, 1, 1))
    assert sign2 == 1 and mono2 == mono


# -- exterior powers -----------------------------------------------------------

def test_exterior_even_line():
    sp, monos = exterior_power(space(0), 2)
    assert sp.dim == 0


def test_exterior_odd_line():
    sp, monos = exterior_power(space(1), 2)
    assert sp.dim == 1
    assert sp.parities == (0,)


def test_exterior_2_1_closed_form():
    sp, _ = exterior_power(space(0, 0, 1), 2)
    # p(p-1)/2 + pq + q(q+1)/2 with p=2, q=1
    assert sp.dim == 1 + 2 + 1


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1), min_size=0, max_size=4),
       st.integers(min_value=0, max_value=4))
def test_exterior_dims_match_bruteforce(parities, n):
    sp, monos = exterior_power(space(*parities) if parities else
                               SuperSpace(QQ, (), ()), n)
    assert sp.dim == count_wedge_monomials(parities, n)
    assert len(monos) == sp.dim


def test_exterior_closed_form_degree2():
    for p in range(4):
        for q in range(4):
            parities = [0] * p + [1] * q
            sp, _ = exterior_power(space(*parities) if parities else
                                   SuperSpace(QQ, (), ()), 2)
            assert sp.dim == p * (p - 1) // 2 + p * q + q * (q + 1) // 2


# -- graded maps ----------------------------------------------------------------

def test_graded_map_parity_validation():
    a = space(0, 1)
    b = space(0, 1)
    GradedMap(a, b, Matrix(QQ, 2, [{0: 1}, {1: 1}]))
    with pytest.raises(ValueError):
        GradedMap(a, b, Matrix(QQ, 2, [{1: 1}, {}]))


def test_parity_and_graded_maps_read_the_field_normal_form():
    """Over F5 the entry 5 is zero: {b: 1, c: 5} is the even vector b, and
    the column {c: 5} from the even b to the odd c is the zero map."""
    sp = SuperSpace(Field(5), ("b", "c"), (0, 1))
    assert sp.parity_of_vec({0: 1, 1: 5}) == 0
    assert sp.parity_of_vec({1: 10}) == 0
    f = GradedMap.from_columns(sp, sp, [{1: 5}, {}])
    assert f.is_zero() and f.matrix.cols == [{}, {}]


def test_graded_map_compose():
    a = space(0, 0)
    f = GradedMap(a, a, Matrix(QQ, 2, [{1: 1}, {}]))
    g = f.compose(f)
    assert g.is_zero()
