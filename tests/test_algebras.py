import itertools

import pytest

from oracles import PRIMES, explicit_matrix_bracket, is_engel_dense
from superlie.algebras import (
    LieSuperAlgebra,
    NotAnIdeal,
    SizeError,
    abelian,
    abelianization,
    check_assoc_axioms,
    check_lie_axioms,
    engel_degree,
    ground_assoc,
    heisenberg,
    ideal_closure,
    iso_fault,
    is_engel,
    lie_from_assoc,
    matrix_gl,
    matrix_sl,
    quotient_algebra,
    series,
    subalgebra_closure,
)
from superlie.corpus import lie_algebra
from superlie.cyclic import dual_numbers, grassmann_line
from superlie.fields import Field, QQ
from superlie.linalg import Subspace
from superlie.spaces import GradedMap, superspace


def test_abelian_certified():
    for p, q in [(0, 0), (1, 0), (0, 1), (2, 3)]:
        alg = abelian(QQ, p, q)
        assert check_lie_axioms(alg).ok
        assert alg.space.dim_pair == (p, q)


def test_heisenberg(heis):
    rep = check_lie_axioms(heis)
    assert rep.ok
    s = series(heis)
    assert s.nil_class == 2
    assert s.derived_length == 2
    assert s.center.dim == 1
    assert not s.is_perfect


def test_gl11_certified(gl11):
    assert gl11.space.dim_pair == (2, 2)
    assert check_lie_axioms(gl11).ok


def test_gl20_is_even_gl2():
    g = matrix_gl(2, 0, ground_assoc(QQ))
    assert g.space.dim_pair == (4, 0)
    assert check_lie_axioms(g).ok


def test_gl11_grassmann_coefficients():
    g = matrix_gl(1, 1, grassmann_line(QQ))
    assert g.space.dim_pair == (4, 4)
    assert check_lie_axioms(g).ok


def test_matrix_gl_against_explicit_matrices(gl11):
    """Independent oracle: recompute every bracket by multiplying explicit
    A-valued matrices."""
    cases = [(1, 1, ground_assoc(QQ), gl11),
             (1, 1, grassmann_line(QQ), matrix_gl(1, 1, grassmann_line(QQ)))]
    for m, n, A, alg in cases:
        size = m + n
        dimA = A.dim
        for a in range(alg.dim):
            for b in range(alg.dim):
                (ij, t1) = divmod(a, dimA)
                i, j = divmod(ij, size)
                (kl, t2) = divmod(b, dimA)
                k, l = divmod(kl, size)
                want = explicit_matrix_bracket(m, n, A, i, j, t1, k, l, t2)
                got = alg.bracket_basis(a, b)
                assert got == want, (a, b, got, want)


def test_tampered_gl11_caught(gl11):
    table = {k: dict(v) for k, v in gl11.table.items()}
    (i, j) = next(iter(table))
    k = next(iter(table[(i, j)]))
    table[(i, j)][k] = -table[(i, j)][k]
    bad = LieSuperAlgebra(gl11.space, table)
    rep = check_lie_axioms(bad)
    assert not rep.ok
    assert any(v.kind == "jacobi" for v in rep.violations)
    assert rep.violations[0].witness  # a witness triple is reported


def test_sl21(sl21):
    assert sl21.dim == 8
    assert check_lie_axioms(sl21).ok
    s = series(sl21)
    assert s.is_perfect
    ab, _ = abelianization(sl21)
    assert ab.dim == 0


def test_sl30(sl30):
    assert sl30.space.dim_pair == (8, 0)
    assert series(sl30).is_perfect


def test_sl_size_guard():
    with pytest.raises(SizeError):
        matrix_sl(1, 1, ground_assoc(QQ))


def test_subalgebra_closure(heis):
    full = subalgebra_closure(heis, [{i: 1} for i in range(3)])
    assert full.dim == 3
    single = subalgebra_closure(abelian(QQ, 2, 0), [{0: 1}])
    assert single.dim == 1
    # off-diagonal units in gl(2,1) close to the 8-dimensional sl(2,1)
    gl21 = matrix_gl(2, 1, ground_assoc(QQ))
    gens = []
    for i in range(3):
        for j in range(3):
            if i != j:
                gens.append({i * 3 + j: 1})
    assert subalgebra_closure(gl21, gens).dim == 8


def test_ideal_closure(heis):
    s = series(heis)
    z = ideal_closure(heis, [dict(r) for r in s.center.rows])
    assert z.dim == 1
    x_ideal = ideal_closure(heis, [{0: 1}])
    assert x_ideal.dim == 2  # x and z
    assert ideal_closure(heis, []).dim == 0


def test_series_abelian():
    s = series(abelian(QQ, 2, 1))
    assert s.nil_class == 1
    assert s.derived_length == 1
    assert not s.is_perfect
    s0 = series(abelian(QQ, 0, 0))
    assert s0.nil_class == 0


def test_series_monotone(heis, gl11, sl21):
    for alg in (heis, gl11, sl21):
        s = series(alg)
        for a, b in zip(s.lower_central, s.lower_central[1:]):
            assert a.contains(b)
        for a, b in zip(s.derived, s.derived[1:]):
            assert a.contains(b)
        if s.nil_class is not None:
            assert s.derived_length is not None  # nilpotent implies solvable


def test_engel(heis):
    assert is_engel(abelian(QQ, 2, 0), 1)
    assert is_engel(heis, 2)
    assert not is_engel(heis, 1)
    # monotone: n-Engel implies (n+1)-Engel
    assert is_engel(heis, 3)
    assert engel_degree(heis, 3) == 2


def _engel_cases(field: Field) -> dict[str, LieSuperAlgebra]:
    """The corpus algebras heis, gl11, sl21 and zheis, the free nilpotent
    algebras of class 3 on x, y and on x and an odd t, and the free 2-Engel
    algebra on x, y, z, all rebuilt over field from their tables over Q;
    gl(1|1) over the dual numbers and the tensor square of heis.  The
    2-Engel algebra is F/I, F free of class 3 on x, y, z and I the ideal of
    [a, [b, c]] + [b, [a, c]], which [u, [u, v]] = 0 needs of generators a,
    b, c: over F3 it keeps [x, [y, z]] != 0 and has class 3, so its
    coefficients of t^alpha in ad(x)^2 vanish only as symmetrized sums
    (elsewhere 3 [x, [y, z]] = 0 makes it class 2)."""
    from superlie.freelie import FreeTruncation, GradedGenSet
    from superlie.tensor import adjoint_tensor_square

    def over(L: LieSuperAlgebra) -> LieSuperAlgebra:
        return LieSuperAlgebra(superspace(field, list(zip(L.space.labels, L.space.parities))),
                               L.table, name=L.name)

    free = {f"free(x,{g};c3)": FreeTruncation(GradedGenSet((("x", 0), (g, par))), 3).algebra()
            for g, par in (("y", 0), ("t", 1))}
    out = {name: over(L) for name, L in free.items()}
    out.update((name, over(lie_algebra(name))) for name in ("heis", "gl11", "sl21", "zheis"))
    xyz = FreeTruncation(GradedGenSet((("x", 0), ("y", 0), ("z", 0))), 3)
    F = over(xyz.algebra())
    relators = [xyz.word_to_algebra_vec({"sum": [{"coeff": "1", "word": [a, [b, c]]},
                                                 {"coeff": "1", "word": [b, [a, c]]}]})
                for a in "xyz" for b in "xyz" for c in "xyz"]
    out["engel2(x,y,z)"] = quotient_algebra(F, ideal_closure(F, [field.clean(
        {k: field.of(c) for k, c in r.items()}) for r in relators]))[0]
    out["gl(1|1, dual)"] = matrix_gl(1, 1, dual_numbers(field))
    out["heis (x) heis"] = adjoint_tensor_square(heisenberg(field)).algebra
    return out


@pytest.mark.parametrize("p", PRIMES)
def test_engel_matches_the_dense_oracle(p):
    """ad(x)^n e_j walked once per basis vector agrees with the sums of
    products of dense ad matrices over every ordering of every multiset,
    for n = 1, 2, 3: 27 cases per field.  The Engel degree, read off one
    walk, is the least such n, or None when no n <= bound is one."""
    got, want = {}, {}
    cases = _engel_cases(Field(p))
    for name, L in cases.items():
        for n in (1, 2, 3):
            got[name, n] = is_engel(L, n)
            want[name, n] = is_engel_dense(L, n)
        for bound in (0, 1, 2, 3):
            got[name, "degree", bound] = engel_degree(L, bound)
            want[name, "degree", bound] = next(
                (n for n in range(1, bound + 1) if want[name, n]), None)
    assert got == want
    # both answers occur: heis is 2-Engel and not 1-Engel, the free
    # algebras of class 3 are 3-Engel and not 2-Engel, gl(1|1) is not 3-Engel
    assert got["heis", 2] and not got["heis", 1] and not got["gl11", 3]
    assert all(got[name, 3] and not got[name, 2] for name in ("free(x,y;c3)", "free(x,t;c3)"))
    engel2 = cases["engel2(x,y,z)"]
    assert got["engel2(x,y,z)", 2] and not got["engel2(x,y,z)", 1]
    assert (engel2.dim, series(engel2).nil_class) == ((7, 3) if p == 3 else (6, 2))


def test_quotient_algebra(heis, gl11):
    full = heis.full_subspace()
    q, proj = quotient_algebra(heis, full)
    assert q.dim == 0
    s = series(heis)
    q2, proj2 = quotient_algebra(heis, s.center)
    assert q2.space.dim_pair == (2, 0)
    assert q2.is_abelian()
    # projection is a homomorphism of Lie superalgebras
    for i in range(heis.dim):
        for j in range(heis.dim):
            lhs = proj2.apply(heis.bracket_basis(i, j))
            rhs = q2.bracket(proj2.apply({i: 1}), proj2.apply({j: 1}))
            assert lhs == rhs
    slpart = gl11.product_subspace(gl11.full_subspace(), gl11.full_subspace())
    q3, _ = quotient_algebra(gl11, slpart)
    assert q3.dim == 1 and q3.is_abelian()


def test_quotient_rejects_non_ideal(heis):
    not_ideal = Subspace(QQ, 3, [{0: 1}])  # span{x} is not an ideal
    with pytest.raises(NotAnIdeal):
        quotient_algebra(heis, not_ideal)


def test_quotient_rejects_non_split():
    alg = abelian(QQ, 1, 1)
    mixed = Subspace(QQ, 2, [{0: 1, 1: 1}])
    with pytest.raises(NotAnIdeal):
        quotient_algebra(alg, mixed)


def test_assoc_axioms(m11):
    assert check_assoc_axioms(m11).ok
    assert m11.unit is not None
    # break associativity
    table = {k: dict(v) for k, v in m11.table.items()}
    key = next(iter(table))
    k = next(iter(table[key]))
    table[key][k] = table[key][k] + 1
    from superlie.algebras import AssocSuperAlgebra
    bad = AssocSuperAlgebra(m11.space, table, unit=m11.unit)
    assert not check_assoc_axioms(bad).ok


@pytest.mark.parametrize("p, unit", [(None, {}), (None, {0: 0}), (5, {0: 5})])
def test_a_declared_zero_unit_is_kept(p, unit):
    """Only a unit that is not given is None: a unit that cleans to 0 is
    kept as {} and certified, so K with it fails the unit axioms, and the
    zero algebra is unital with 1 = 0."""
    from superlie.algebras import AssocSuperAlgebra
    F = Field(p)
    K = superspace(F, [("1", 0)])
    assert AssocSuperAlgebra(K, {(0, 0): {0: 1}}).unit is None
    A = AssocSuperAlgebra(K, {(0, 0): {0: 1}}, unit=unit)
    assert A.unit == {}
    assert [v.kind for v in check_assoc_axioms(A).violations] == ["unit-left", "unit-right"]
    zero = AssocSuperAlgebra(superspace(F, []), {}, unit={})
    assert zero.unit == {} and check_assoc_axioms(zero).ok


def test_lie_from_assoc_odd_diagonal():
    g = grassmann_line(QQ)
    lie = lie_from_assoc(g)
    assert check_lie_axioms(lie).ok
    # odd diagonal [t, t] = 2 t^2 = 0 in the rank-one Grassmann algebra
    assert lie.bracket_basis(1, 1) == {}


def test_structure_constant_storage_conventions():
    sp = superspace(QQ, [("x", 0), ("y", 0)])
    with pytest.raises(ValueError):
        LieSuperAlgebra(sp, {(1, 0): {0: 1}})  # i > j rejected
    with pytest.raises(ValueError):
        LieSuperAlgebra(sp, {(0, 0): {1: 1}})  # even diagonal rejected


def test_derived_antisymmetry():
    sp = superspace(QQ, [("x", 0), ("t", 1), ("z", 0)])
    alg = LieSuperAlgebra(sp, {(0, 1): {1: 1}, (1, 1): {2: 1}})
    # even-odd: [t,x] = -[x,t]
    assert alg.bracket_basis(1, 0) == {1: -1}
    # odd diagonal kept as given
    assert alg.bracket_basis(1, 1) == {2: 1}
    # even diagonal vanishes
    assert alg.bracket_basis(0, 0) == {}


def test_fp_heisenberg():
    F5 = Field(5)
    h5 = heisenberg(F5)
    assert check_lie_axioms(h5).ok
    s = series(h5)
    assert s.nil_class == 2 and s.center.dim == 1


def test_quotient_basis_labels_are_pinned(heis, m11):
    """Both label rules of QuotientSpace: ``[lead]`` for quotient algebras
    and ``{prefix}{k}:{lead}`` for labelled subquotients."""
    from superlie.actions import identity_crossed
    from superlie.cyclic import connes
    from superlie.homology import nh
    from superlie.tensor import exterior_square

    q, proj = quotient_algebra(heis, series(heis).center)
    assert q.space.labels == ("[x]", "[y]")
    assert proj.quotient.space is q.space and proj.quotient.parent is heis.space
    assert not hasattr(proj.quotient, "sq")
    assert nh(heis, identity_crossed(heis)).nh0.space.labels == ("h0.0:x", "h0.1:y")
    assert exterior_square(heis).algebra.space.labels == ("[t2:y*x]", "[t4:z*x]", "[t5:z*y]")
    # the coinvariants of the weight-0 block under [E11(1), -], numbered within it
    assert connes(m11, 2).coinvariants[2].space.labels[:4] == (
        "c2.0:E11(1)*E11(1)*E11(1)", "c2.1:E21(1)*E11(1)*E12(1)",
        "c2.2:E21(1)*E12(1)*E11(1)", "c2.3:E22(1)*E11(1)*E11(1)")


def _odd_cube(field):
    """a, c odd, e even, [a, a] = e, [e, a] = c: Jacobi holds on every basis
    triple over F3, but [a, [a, a]] = [a, e] = -c."""
    sp = superspace(field, [("a", 1), ("c", 1), ("e", 0)])
    return LieSuperAlgebra(sp, {(0, 0): {2: 1}, (0, 2): {1: -1}}, name="cube")


def test_odd_cube_fails_over_f3_and_jacobi_elsewhere():
    rep = check_lie_axioms(_odd_cube(Field(3)))
    assert not rep.ok
    assert [(v.kind, v.witness, v.defect) for v in rep.violations] == [("odd-cube", (0,), {1: 2})]
    for field, defect in ((QQ, {1: -3}), (Field(5), {1: 2}), (Field(7), {1: 4})):
        rep = check_lie_axioms(_odd_cube(field))
        assert [(v.kind, v.witness, v.defect) for v in rep.violations] == [
            ("jacobi", (0, 0, 0), defect)]


@pytest.mark.parametrize("build", [
    lambda F: matrix_gl(1, 1, ground_assoc(F)),
    lambda F: matrix_sl(2, 1, ground_assoc(F)).algebra,
    lambda F: matrix_gl(1, 1, grassmann_line(F)),
    lambda F: matrix_sl(2, 1, grassmann_line(F)).algebra,
], ids=["gl11", "sl21", "gl11-L1", "sl21-L1"])
def test_certified_f3_algebras_kill_every_odd_cube(build):
    """The check on odd basis elements suffices: each certified algebra over
    F3 has [x, [x, x]] = 0 for every odd x with coordinates in {0, 1, 2} on
    up to three odd basis elements."""
    L = build(Field(3))
    assert check_lie_axioms(L).ok
    odd = [i for i, p in enumerate(L.space.parities) if p == 1]
    for support in itertools.combinations(odd, min(3, len(odd))):
        for coeffs in itertools.product((1, 2), repeat=len(support)):
            x = dict(zip(support, coeffs))
            assert L.bracket(x, L.bracket(x, x)) == {}


@pytest.mark.parametrize("p", PRIMES)
def test_iso_fault_names_a_map_that_is_not_bijective(p):
    heis = heisenberg(Field(p))
    assert iso_fault(GradedMap.identity(heis.space), heis, heis) is None
    assert iso_fault(GradedMap.zero(heis.space, heis.space), heis, heis) == "map is not bijective"
    ab = abelian(Field(p), 2, 0)
    assert iso_fault(GradedMap.zero(heis.space, ab.space), heis, ab) == "map is not bijective"


@pytest.mark.parametrize("p", PRIMES)
def test_iso_fault_names_the_first_bracket_a_bijection_breaks(p):
    """Swapping x and z of heis is bijective, but f[x, y] = f(z) = x while
    [f x, f y] = [z, y] = 0; the bracket (y, x) breaks too, after (x, y)."""
    heis = heisenberg(Field(p))
    swap = GradedMap.from_columns(heis.space, heis.space, [{2: 1}, {1: 1}, {0: 1}])
    assert iso_fault(swap, heis, heis) == "bracket mismatch at (0,1)"
