"""Cyclic homology of associative superalgebras via the Connes complex.

The Hochschild boundary and the signed cyclic operator are

  d'_n(a_0 (x) ... (x) a_n) = sum_{i<n} (-1)^i a_0 (x)...(x) a_i a_{i+1} (x)...(x) a_n
                            + (-1)^{n + |a_n|(|a_0|+...+|a_{n-1}|)} a_n a_0 (x)...(x) a_{n-1}

  t_n(a_0 (x) ... (x) a_n)  = (-1)^{n + |a_n| sum_{k<n} |a_k|} a_n (x) a_0 (x)...(x) a_{n-1}

The Connes complex consists of the coinvariants modulo Im(1 - t_n); the
boundary is certified to descend, and d.d = 0 is asserted.  HC_1 is also
computed from its kernel model (A (x) A)/I(A) -> [A, A], the coarser
Milnor quotient, and the bracket algebra V(A) on (A (x) A)/I(A), which is
a crossed module over A and the bridge to non-abelian homology.

The bracket of V(A) factors through the commutator map
alpha(a (x) b) = [a, b], the edge map of the crossed module:

  [u, v] = alpha(u) (x) alpha(v),  so  [a (x) b, a' (x) b'] = [a, b] (x) [a', b'].

alpha kills I(A), so the bracket descends in both slots.  It is built by
:func:`~superlie.algebras.factored_quotient_algebra`, which certifies that
alpha kills I(A), that the bracket is antisymmetric on classes, and the
Lie axioms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .actions import Action, CrossedModule, check_crossed, ideal_crossed, trivial_action
from .algebras import (
    AssocSuperAlgebra,
    LieSuperAlgebra,
    QuotientSpace,
    factored_quotient_algebra,
    induced_action_table,
    lie_from_assoc,
    quotient_space,
    subalgebra_on,
)
from .homology import (
    ComplexInconsistent,
    CrossedSES,
    HomologyResult,
    SixTermReport,
    _homology_of,
    nh,
    snake_sequence,
    sub_space,
)
from .linalg import (
    Echelon,
    Matrix,
    Subspace,
    vec_axpy,
    vec_clean,
    vec_sub,
)
from .spaces import GradedMap, SuperSpace, tensor_power_space, tensor_vec


class NotUnital(ValueError):
    """The construction requires a unital associative superalgebra."""


# ---------------------------------------------------------------------------
# the Connes complex


@dataclass
class ConnesComplex:
    a: AssocSuperAlgebra
    max_n: int
    plain_spaces: list[SuperSpace]           # A^{(x)(n+1)}
    coinvariants: list[QuotientSpace]        # C_n(A)
    boundaries: list[GradedMap | None]       # induced d_n: C_n -> C_{n-1}

    def boundary(self, n: int) -> GradedMap:
        b = self.boundaries[n]
        if b is None:
            raise IndexError(f"no boundary at degree {n}")
        return b


def _tuple_indices(dim: int, length: int):
    out = [()]
    for _ in range(length):
        out = [t + (i,) for t in out for i in range(dim)]
    return out


def connes(A: AssocSuperAlgebra, max_n: int = 2) -> ConnesComplex:
    """Coinvariant spaces and induced boundaries up to degree max_n."""
    if max_n < 1:
        raise ValueError("the complex needs at least degree 1")
    field = A.field
    d = A.dim
    par = A.space.parities
    plain: list[SuperSpace] = []
    coinv: list[QuotientSpace] = []
    tuples_by_n: list[list[tuple]] = []
    for n in range(max_n + 1):
        sp = tensor_power_space(A.space, n + 1)
        plain.append(sp)
        tuples = _tuple_indices(d, n + 1)
        tuples_by_n.append(tuples)
        # Im(1 - t_n) from all basis tuples
        acc = Echelon(field, sp.dim)
        for idx, t in enumerate(tuples):
            s = (n + par[t[n]] * sum(par[k] for k in t[:n])) % 2
            rotated = (t[n],) + t[:n]
            r_idx = 0
            for k in rotated:
                r_idx = r_idx * d + k
            g = {idx: 1}
            g[r_idx] = g.get(r_idx, 0) - (-1 if s else 1)
            acc.insert(vec_clean(g))
        coinv.append(quotient_space(sp, Subspace.full(field, sp.dim), acc.subspace(), f"c{n}."))

    def hochschild(n: int, t: tuple) -> dict:
        """d'_n of a basis tuple, in A^{(x)n} coordinates."""
        out: dict = {}
        for i in range(n):
            prod = A.product_basis(t[i], t[i + 1])
            if not prod:
                continue
            s = -1 if i % 2 else 1
            head, tail = t[:i], t[i + 2:]
            for e, c in prod.items():
                idx = 0
                for k in head + (e,) + tail:
                    idx = idx * d + k
                out[idx] = out.get(idx, 0) + s * c
        prod = A.product_basis(t[n], t[0])
        if prod:
            s = (n + par[t[n]] * sum(par[k] for k in t[:n])) % 2
            sgn = -1 if s else 1
            for e, c in prod.items():
                idx = 0
                for k in (e,) + t[1:n]:
                    idx = idx * d + k
                out[idx] = out.get(idx, 0) + sgn * c
        return field.clean(out)

    boundaries: list[GradedMap | None] = [None]
    for n in range(1, max_n + 1):
        # certify the boundary descends: d'( (1 - t_n) x ) must die in C_{n-1}
        tuples = tuples_by_n[n]
        src, dst = coinv[n], coinv[n - 1]
        for r in src.bottom.rows:
            img: dict = {}
            for idx, c in r.items():
                vec_axpy(img, c, hochschild(n, tuples[idx]))
            if dst.reduce(img):
                raise ComplexInconsistent(
                    f"Hochschild boundary does not descend to coinvariants at n={n}")
        cols = []
        for k in range(src.space.dim):
            lift = src.lift({k: 1})
            img = {}
            for idx, c in lift.items():
                vec_axpy(img, c, hochschild(n, tuples[idx]))
            cols.append(dst.reduce(img))
        boundaries.append(GradedMap.from_columns(src.space, dst.space, cols))
    for n in range(2, max_n + 1):
        if not boundaries[n - 1].compose(boundaries[n]).is_zero():
            raise ComplexInconsistent(f"connes d_{n-1} . d_{n} != 0")
    return ConnesComplex(A, max_n, plain, coinv, boundaries)


def hc(A: AssocSuperAlgebra, n: int, complex_: ConnesComplex | None = None) -> HomologyResult:
    """Cyclic homology HC_n from the Connes complex (built for A when given)."""
    if complex_ is None:
        complex_ = connes(A, max(2, n + 1))
    elif complex_.a is not A:
        raise ValueError("complex_ was built for another algebra")
    if n + 1 > complex_.max_n:
        raise IndexError(f"complex too short for HC_{n}")
    return _homology_of(complex_, n, complex_.coinvariants[n].space)


# ---------------------------------------------------------------------------
# the kernel model of HC_1 and the Milnor quotient


def _pair_space(A: AssocSuperAlgebra) -> SuperSpace:
    return tensor_power_space(A.space, 2)


def _graded_symmetric_gens(A: AssocSuperAlgebra) -> list[dict]:
    """a (x) b + (-1)^{|a||b|} b (x) a over basis pairs."""
    d = A.dim
    par = A.space.parities
    gens = []
    for a in range(d):
        for b in range(a, d):
            g = {a * d + b: 1}
            s = -1 if par[a] * par[b] else 1
            g[b * d + a] = g.get(b * d + a, 0) + s
            g = vec_clean(g)
            if g:
                gens.append(g)
    return gens


def _cyclic_relation_gens(A: AssocSuperAlgebra) -> list[dict]:
    """ab (x) c - a (x) bc + (-1)^{|c|(|a|+|b|)} ca (x) b over basis triples."""
    d = A.dim
    par = A.space.parities
    gens = []
    for a in range(d):
        for b in range(d):
            ab = A.product_basis(a, b)
            for c in range(d):
                g: dict = {}
                for e, cc in ab.items():
                    g[e * d + c] = g.get(e * d + c, 0) + cc
                for e, cc in A.product_basis(b, c).items():
                    g[a * d + e] = g.get(a * d + e, 0) - cc
                s = -1 if (par[c] * ((par[a] + par[b]) % 2)) else 1
                for e, cc in A.product_basis(c, a).items():
                    g[e * d + b] = g.get(e * d + b, 0) + s * cc
                g = vec_clean(g)
                if g:
                    gens.append(g)
    return gens


def _milnor_extra_gens(A: AssocSuperAlgebra) -> list[dict]:
    """a (x) bc - (-1)^{|b||c|} a (x) cb over basis triples."""
    d = A.dim
    par = A.space.parities
    gens = []
    for a in range(d):
        for b in range(d):
            for c in range(d):
                g: dict = {}
                for e, cc in A.product_basis(b, c).items():
                    g[a * d + e] = g.get(a * d + e, 0) + cc
                s = -1 if par[b] * par[c] else 1
                for e, cc in A.product_basis(c, b).items():
                    g[a * d + e] = g.get(a * d + e, 0) - s * cc
                g = vec_clean(g)
                if g:
                    gens.append(g)
    return gens


def commutator_subspace(A: AssocSuperAlgebra) -> Subspace:
    """[A, A]: the span of graded commutators ab - (-1)^{|a||b|} ba."""
    lie = lie_from_assoc(A)
    return lie.product_subspace(lie.full_subspace(), lie.full_subspace())


def relation_ideal(A: AssocSuperAlgebra) -> Subspace:
    """I(A) inside A (x) A."""
    sp = _pair_space(A)
    acc = Echelon(A.field, sp.dim)
    for g in _graded_symmetric_gens(A) + _cyclic_relation_gens(A):
        acc.insert(g)
    return acc.subspace()


@dataclass
class HC1KernelModel:
    quotient: QuotientSpace        # (A (x) A)/I(A)
    commutator: Matrix             # alpha: a (x) b -> [a, b] on A (x) A
    to_commutators: GradedMap      # induced map onto [A, A] (ambient A coords)
    kernel: Subspace               # HC_1 inside the quotient coordinates
    dims: tuple[int, int]


def hc1_kernel_model(A: AssocSuperAlgebra) -> HC1KernelModel:
    """HC_1 as the kernel of (A (x) A)/I(A) -> [A, A], a (x) b -> [a, b]."""
    sp = _pair_space(A)
    ideal = relation_ideal(A)
    quot = quotient_space(sp, Subspace.full(A.field, sp.dim), ideal, "v")
    lie, d = lie_from_assoc(A), A.dim
    alpha = Matrix(A.field, d, [lie.bracket_basis(*divmod(t, d)) for t in range(sp.dim)])
    # the map must kill I(A)
    for r in ideal.rows:
        if alpha.apply(r):
            raise ComplexInconsistent("the commutator map does not kill I(A)")
    cols = [alpha.apply(s) for s in quot.section]
    gmap = GradedMap.from_columns(quot.space, A.space, cols)
    ker = gmap.kernel()
    dims = quot.space.split_dims(ker.rows)
    return HC1KernelModel(quot, alpha, gmap, ker, dims)


@dataclass
class MilnorHC1:
    quotient: QuotientSpace
    dims: tuple[int, int]


def milnor_hc1(A: AssocSuperAlgebra) -> MilnorHC1:
    """The first Milnor cyclic homology: A (x) A modulo the three families."""
    sp = _pair_space(A)
    acc = Echelon(A.field, sp.dim)
    for g in _graded_symmetric_gens(A) + _cyclic_relation_gens(A) + _milnor_extra_gens(A):
        acc.insert(g)
    quot = quotient_space(sp, Subspace.full(A.field, sp.dim), acc.subspace(), "m")
    return MilnorHC1(quot, quot.space.dim_pair)


# ---------------------------------------------------------------------------
# the bracket algebra V(A)


@dataclass
class VAlgebra:
    a_lie: LieSuperAlgebra
    algebra: LieSuperAlgebra       # on (A (x) A)/I(A)
    quotient: QuotientSpace
    to_a: GradedMap                # class of a (x) b -> [a, b], into A
    action_a: Action               # action of A on V(A)
    crossed: CrossedModule
    hc1_rows: Subspace             # HC_1 inside V(A) coordinates
    hc1_dims: tuple[int, int]


def v_algebra(A: AssocSuperAlgebra) -> VAlgebra:
    """The Lie superalgebra on (A (x) A)/I(A) with
    [a (x) b, a' (x) b'] = [a,b] (x) [a',b'], certified as a crossed module
    over A with the action a.(x (x) y) = a (x) [x, y].  The bracket is
    alpha(u) (x) alpha(v) for the commutator map alpha(a (x) b) = [a, b],
    which kills I(A), built by
    :func:`~superlie.algebras.factored_quotient_algebra`."""
    if A.unit is None:
        raise NotUnital("V(A) requires a unital algebra")
    d = A.dim
    lie = lie_from_assoc(A)
    km = hc1_kernel_model(A)
    quot = km.quotient
    algebra = factored_quotient_algebra(quot, km.commutator, km.commutator,
                                        partial(tensor_vec, A.space, A.space),
                                        name=f"V({A.name or 'A'})")

    # action of A on V(A): a.(x (x) y) = [a,x] (x) y + (-1)^{|a||x|} x (x) [a,y],
    # certified to coincide with a (x) [x,y] on the quotient
    par = A.space.parities

    def act(p: int, v: dict) -> dict:
        out: dict = {}
        direct: dict = {}
        for idx, c in v.items():
            x, y = divmod(idx, d)
            g = tensor_vec(A.space, A.space, lie.bracket_basis(p, x), {y: 1})
            s = -1 if par[p] * par[x] else 1
            vec_axpy(g, s, tensor_vec(A.space, A.space, {x: 1}, lie.bracket_basis(p, y)))
            vec_axpy(out, c, g)
            vec_axpy(direct, c, tensor_vec(A.space, A.space, {p: 1}, lie.bracket_basis(x, y)))
        if quot.reduce(vec_sub(out, direct)):
            raise ComplexInconsistent("the action of A on V(A) has two unequal forms")
        return out

    action_a = Action(lie, algebra, induced_action_table(quot, d, act))
    crossed = CrossedModule(algebra, lie, km.to_commutators, action_a)
    crep = check_crossed(crossed)
    if not crep.ok:
        raise ComplexInconsistent(f"(V(A), mu) fails the crossed module axioms: {crep.violations[:3]}")

    # A kills HC_1(A)
    for p in range(d):
        for r in km.kernel.rows:
            if vec_clean(action_a.act({p: 1}, r)):
                raise ComplexInconsistent("the action of A does not kill HC_1")
    return VAlgebra(lie, algebra, quot, km.to_commutators, action_a, crossed, km.kernel,
                    km.dims)


# ---------------------------------------------------------------------------
# the six-term sequence relating HC_1, Milnor HC_1 and non-abelian homology


@dataclass
class CyclicSixTerm:
    ok: bool
    report: SixTermReport
    identifications: list[tuple[str, bool]]
    table: list[tuple[str, tuple[int, int]]]
    hc1_dims: tuple[int, int]
    milnor_dims: tuple[int, int]


def cyclic_sixterm(A: AssocSuperAlgebra) -> CyclicSixTerm:
    """Certify the six-term sequence

    A/[A,A] (x) HC1(A) -> nh1(A,V(A)) -> nh1(A,[A,A])
        -> HC1(A) -> HC1^M(A) -> [A,A]/[A,[A,A]] -> 0

    as the snake sequence of 0 -> (HC1, 0) -> (V(A), mu) -> ([A,A], i) -> 0,
    together with the identifications of its outer terms."""
    if A.unit is None:
        raise NotUnital("the cyclic six-term sequence requires a unit")
    va = v_algebra(A)
    lie = va.a_lie
    field = A.field

    # the sub crossed module HC1 (abelian, zero boundary, trivial action)
    h_space = sub_space(va.algebra.space, va.hc1_rows, "hc.")
    h_alg = LieSuperAlgebra(h_space.space, {}, name="HC1")
    cm_l = CrossedModule(h_alg, lie, GradedMap.zero(h_space.space, lie.space),
                         trivial_action(lie, h_alg))
    f = GradedMap.from_columns(h_space.space, va.algebra.space,
                               [dict(r) for r in va.hc1_rows.rows])

    comm = commutator_subspace(A)
    cview = subalgebra_on(lie, comm, name="[A,A]")
    cm_n = ideal_crossed(lie, cview)
    gcols = []
    for k in range(va.algebra.dim):
        w = va.to_a.apply({k: 1})
        coords = comm.coords(w)
        if coords is None:
            raise ComplexInconsistent("V(A) does not map onto [A, A]")
        gcols.append(coords)
    g = GradedMap.from_columns(va.algebra.space, cview.algebra.space, gcols)

    ses = CrossedSES(lie, cm_l, va.crossed, cm_n, f, g)
    report = snake_sequence(ses)

    # identifications of the terms
    mil = milnor_hc1(A)
    idents: list[tuple[str, bool]] = []
    r_l = nh(lie, cm_l)
    # nh0(A, HC1) = HC1 (trivial action)
    idents.append(("nh0(A,HC1) = HC1", r_l.nh0.dims == va.hc1_dims))
    # nh1(A, HC1) ~ A/[A,A] (x) HC1
    comm_q = quotient_space(A.space, Subspace.full(field, A.dim), comm, "ab.")
    d0 = comm_q.dims
    h0, h1 = va.hc1_dims
    expect = (d0[0] * h0 + d0[1] * h1, d0[0] * h1 + d0[1] * h0)
    idents.append(("nh1(A,HC1) = A/[A,A] (x) HC1", r_l.nh1.dims == expect))
    # nh0(A,[A,A]) = [A,A]/[A,[A,A]]
    r_n = nh(lie, cm_n)
    ca = lie.product_subspace(lie.full_subspace(), comm)
    ca_in_view = Subspace(field, cview.algebra.dim,
                          [comm.coords(r) for r in ca.rows])
    mod_q = quotient_space(cview.algebra.space,
                           Subspace.full(field, cview.algebra.dim), ca_in_view, "q.")
    idents.append(("nh0(A,[A,A]) = [A,A]/[A,[A,A]]", r_n.nh0.dims == mod_q.dims))
    # nh0(A,V(A)) ~ HC1^M
    r_m = nh(lie, va.crossed)
    idents.append(("nh0(A,V(A)) = Milnor HC1", r_m.nh0.dims == mil.dims))

    ok = report.ok and all(flag for _, flag in idents)
    table = list(zip(report.labels, report.dims))
    return CyclicSixTerm(ok, report, idents, table, va.hc1_dims, mil.dims)


# standard small associative superalgebras


def dual_numbers(field) -> AssocSuperAlgebra:
    """K[e]/(e^2) with even e."""
    sp = SuperSpace(field, ("1", "e"), (0, 0))
    table = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}
    return AssocSuperAlgebra(sp, table, unit={0: 1}, name="dual")


def grassmann_line(field) -> AssocSuperAlgebra:
    """The rank-one Grassmann algebra K[t], t odd, t^2 = 0."""
    sp = SuperSpace(field, ("1", "t"), (0, 1))
    table = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}
    return AssocSuperAlgebra(sp, table, unit={0: 1}, name="grassmann")