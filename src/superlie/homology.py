"""Homology of Lie superalgebras and the six-term exact sequences.

The chain complex has C_n = (n-th super exterior power of P) (x) M with
the boundary

  d_n(x_1^...^x_n (x) y) =
      sum_i (-1)^{i + |x_i| sum_{k>i} |x_k|} (x_1^...^x_i-hat^...^x_n (x) x_i.y)
    + sum_{i<j} (-1)^{i+j+|x_i| sum_{k<i}|x_k| + |x_j| sum_{l<j}|x_l| + |x_i||x_j|}
          ([x_i,x_j]^x_1^...^x_i-hat^...^x_j-hat^...^x_n (x) y)

and d.d = 0 is asserted on every constructed complex: it is the global
sentinel for the sign conventions shared across the package.

Weight-0 reduction.  Let h be an even basis element of P with ad(h)
diagonal on P's basis, ad(h) x = lambda(x) x, that also acts diagonally
on M's basis, h.t = mu(t) t.  Then h acts on the chain x_1^...^x_n (x) t
by its weight lambda(x_1) + ... + lambda(x_n) + mu(t), d preserves
weights, and Cartan's formula L_h = d i_h + i_h d (i_h wedges with h)
makes h act by 0 on homology; so every block of chains whose weight is
nonzero in the field is acyclic (Hochschild-Serre, Ann. of Math. 57,
1953; Fuks, Cohomology of Infinite-Dimensional Lie Algebras, 1986,
ch. 1).  :func:`ce_complex` builds only the chains of weight 0 under
every such h (all chains when there is none, as for heis), and their
homology is H_*(P, M).  Only basis elements with diagonal ad are used: a
grading that is not inner, such as the Grassmann degree of
sl(2|1, Lambda1), has acyclic-looking blocks that carry homology.

The complex's ``spaces``, ``monomials`` and ``coefficients`` and the
representatives of :func:`homology` refer to the kept chains, listed in
the order of the full complex and labelled as there.  The canonical
echelon form of a direct sum over disjoint coordinate blocks is the
union of the blocks' forms and an acyclic block contributes no
representative, so dimensions and representatives, read through chain
labels, equal those of the full complex.

Degree-2 comparison.  On the ground field d_2(x^y) = -[x, y] for every
monomial, so d_2 is the edge map of the bracket of Lambda^2 P / Im d_3:

  [u, v] = d_2(u) ^ d_2(v),  so  [x^y, x'^y'] = [x, y] ^ [x', y'],

the two signs cancelling.  Im d_3 lies in Ker d_2 because d.d = 0 is
certified, so the bracket descends in both slots.
:func:`d3_lemma_check` builds it with
:func:`~superlie.algebras.factored_quotient_algebra`, which certifies the
annihilation, antisymmetry on classes and the Lie axioms, and compares it
with the non-abelian exterior square P ^ P.
"""

from __future__ import annotations

from dataclasses import dataclass

from .actions import (
    Action,
    CrossedModule,
    crossed_pullback_actions,
    identity_crossed,
    ideal_crossed,
    trivial_action,
)
from .algebras import (
    LieSuperAlgebra,
    NotAnIdeal,
    QuotientSpace,
    factored_quotient_algebra,
    hom_defects,
    ideal_closure,
    is_graded_ideal,
    quotient_algebra,
    quotient_space,
    subalgebra_on,
)
from .fields import Field
from .freelie import (
    MAX_DEGREE,
    Presentation,
    TruncationOutOfRange,
    free_truncated,
    word_degree,
)
from .linalg import (
    Subquotient,
    Subspace,
    vec_axpy,
    vec_clean,
)
from .spaces import (
    GradedMap,
    SuperSpace,
    WedgeMonomial,
    wedge_normalize,
)
from .tensor import (
    ExteriorProduct,
    TensorProduct,
    exterior_square,
    induced_tensor_map,
    nonabelian_exterior,
    nonabelian_tensor,
)


class ComplexInconsistent(RuntimeError):
    """d.d != 0 or an induced boundary failed to descend: a construction bug."""


class ClassExceeded(ValueError):
    """A presentation's relators cannot be evaluated in the chosen truncation."""


DEFAULT_MAX_DEGREE = 3


# ---------------------------------------------------------------------------
# coefficients: a P-module is an Action of P; the chain complex reads its
# action constants and its target's space, never the target's bracket


def trivial_module(P: LieSuperAlgebra) -> Action:
    """The ground field as a trivial P-module, on the single basis label "1"."""
    return trivial_action(P, LieSuperAlgebra(SuperSpace(P.field, ("1",), (0,)), {}, name="K"))


# ---------------------------------------------------------------------------
# the chain complex


@dataclass
class ChainComplex:
    """The chain complex of P with coefficients in M on its weight-0 chains:
    for every even basis element h of P with ad(h) diagonal on P's basis
    and a diagonal action on M's basis, only the chains on which h acts by
    0 are kept; the other blocks are acyclic by Cartan's formula
    (Hochschild-Serre, Ann. of Math. 57, 1953; Fuks, Cohomology of
    Infinite-Dimensional Lie Algebras, 1986, ch. 1).  With no such h every
    chain is kept.

    Chain i of degree n is ``monomials[n][i] (x) t`` with t the basis
    element ``coefficients[n][i]`` of M.  ``spaces``, ``monomials``,
    ``coefficients`` and the representatives of :func:`homology` refer to
    the kept chains, listed in the order of the full complex; a chain's
    label is its label in the full complex.
    """

    p: LieSuperAlgebra
    module: Action
    spaces: list[SuperSpace]
    monomials: list[list[WedgeMonomial]]
    coefficients: list[list[int]]
    boundaries: list[GradedMap | None]  # boundaries[n]: C_n -> C_{n-1}, n >= 1

    def boundary(self, n: int) -> GradedMap:
        b = self.boundaries[n]
        if b is None:
            raise IndexError(f"no boundary at degree {n}")
        return b


def _diagonal(column, dim: int, reduce) -> list | None:
    """The diagonal of the map with basis images column(i), or None if the
    map is not diagonal."""
    diag = []
    for i in range(dim):
        v = column(i)
        if v.keys() - {i}:
            return None
        diag.append(reduce(v.get(i, 0)))
    return diag


def _cartan_weights(P: LieSuperAlgebra, M: Action) -> list[tuple[list, list]]:
    """The weights (lambda on P's basis, mu on M's basis) of every even basis
    element h of P whose ad(h) is diagonal on P's basis and whose action is
    diagonal on M's basis; an h whose weights all vanish is left out."""
    reduce = P.field.reduce
    out = []
    for h in range(P.dim):
        if P.space.parities[h]:
            continue
        lam = _diagonal(lambda i: P.bracket_basis(h, i), P.dim, reduce)
        if lam is None:
            continue
        mu = _diagonal(lambda t: M.act_basis(h, t), M.target.dim, reduce)
        if mu is not None and (any(lam) or any(mu)):
            out.append((lam, mu))
    return out


def _weight0_chains(P: LieSuperAlgebra, dm: int, max_n: int,
                    weights: list[tuple[list, list]]) -> list[list[tuple[tuple[int, ...], int]]]:
    """Per degree, the chains (factors, t) whose weight sum_i lambda(x_i) +
    mu(t) is 0 in the field for every (lambda, mu) in weights, in the order
    of the full complex.  The weight of the wedge factors is carried as a
    prefix sum, so each chain costs one lookup."""
    reduce = P.field.reduce
    par = P.space.parities
    lam = [tuple(w[0][i] for w in weights) for i in range(P.dim)]
    wanted: dict[tuple, list[int]] = {}  # wedge weight -> the t it pairs with
    for t in range(dm):
        wanted.setdefault(tuple(reduce(-w[1][t]) for w in weights), []).append(t)
    level = [((), tuple(0 for _ in weights))]
    chains = []
    for n in range(max_n + 1):
        chains.append([(f, t) for f, w in level for t in wanted.get(w, ())])
        if n < max_n:
            # canonical monomials: weakly increasing, even factors strictly
            level = [(f + (i,), tuple(reduce(a + b) for a, b in zip(w, lam[i])))
                     for f, w in level
                     for i in range(f[-1] + 1 - par[f[-1]] if f else 0, P.dim)]
    return chains


def _chain_complex(P: LieSuperAlgebra, M: Action, max_n: int,
                   weights: list[tuple[list, list]]) -> ChainComplex:
    """The one construction loop: the chains of weight 0 under weights
    (every chain when weights is empty), their labels and boundaries, and
    the d.d = 0 certificate."""
    field = P.field
    par = P.space.parities
    plabels = P.space.labels
    msp = M.target.space
    ground = msp.dim == 1 and msp.labels[0] == "1"
    chains = _weight0_chains(P, msp.dim, max_n, weights)
    spaces: list[SuperSpace] = []
    index_of: list[dict[tuple[tuple[int, ...], int], int]] = []
    for level in chains:
        labels = []
        parities = []
        for f, t in level:
            wedge = "^".join(plabels[i] for i in f) if f else "1"
            labels.append(wedge if ground else f"{wedge}(x){msp.labels[t]}")
            parities.append((sum(par[i] for i in f) + msp.parities[t]) % 2)
        spaces.append(SuperSpace(field, tuple(labels), tuple(parities)))
        index_of.append({c: i for i, c in enumerate(level)})

    boundaries: list[GradedMap | None] = [None]
    for n in range(1, max_n + 1):
        below = index_of[n - 1]
        cols: list[dict] = []
        for xs, t in chains[n]:
            pre_par = [par[x] for x in xs]
            col: dict = {}
            try:
                # module-action terms
                for i in range(n):
                    acted = M.act_basis(xs[i], t)
                    if acted:
                        tail = sum(pre_par[k] for k in range(i + 1, n))
                        s = -1 if ((i + 1) + pre_par[i] * tail) % 2 else 1
                        rest = xs[:i] + xs[i + 1:]
                        for t2, c in acted.items():
                            key = below[(rest, t2)]
                            col[key] = col.get(key, 0) + s * c
                # bracket terms
                for i in range(n):
                    for j in range(i + 1, n):
                        br = P.bracket_basis(xs[i], xs[j])
                        if not br:
                            continue
                        head_i = sum(pre_par[k] for k in range(i))
                        head_j = sum(pre_par[l] for l in range(j))
                        exp = (i + 1) + (j + 1) + pre_par[i] * head_i \
                            + pre_par[j] * head_j + pre_par[i] * pre_par[j]
                        s = -1 if exp % 2 else 1
                        rest = tuple(x for k, x in enumerate(xs) if k not in (i, j))
                        for e, c in br.items():
                            s2, mono = wedge_normalize([e, *rest], par)
                            if mono is None:
                                continue
                            key = below[(mono.factors, t)]
                            col[key] = col.get(key, 0) + s * s2 * c
            except KeyError:
                raise ComplexInconsistent(
                    f"d_{n} leaves the weight-0 chains at {spaces[n].labels[len(cols)]}") from None
            cols.append(field.clean(col))
        boundaries.append(GradedMap.from_columns(spaces[n], spaces[n - 1], cols))

    for n in range(2, max_n + 1):
        comp = boundaries[n - 1].compose(boundaries[n])
        if not comp.is_zero():
            raise ComplexInconsistent(f"d_{n-1} . d_{n} != 0")
    monos = [[WedgeMonomial(f) for f, _ in level] for level in chains]
    coefficients = [[t for _, t in level] for level in chains]
    return ChainComplex(P, M, spaces, monos, coefficients, boundaries)


def ce_complex(P: LieSuperAlgebra, M: Action, max_n: int = DEFAULT_MAX_DEGREE) -> ChainComplex:
    """The chain complex of P with coefficients in the P-module M (an action
    of P on M.target) up to degree max_n, on its weight-0 chains (see the
    module docstring)."""
    return _chain_complex(P, M, max_n, _cartan_weights(P, M))


@dataclass
class HomologyResult:
    n: int
    dims: tuple[int, int]
    representatives: list[dict]
    subquotient: Subquotient | None = None

    @property
    def dim(self) -> int:
        return self.dims[0] + self.dims[1]


def homology(P: LieSuperAlgebra, M: Action | None, n: int,
             complex_: ChainComplex | None = None) -> HomologyResult:
    """H_n = Ker d_n / Im d_{n+1} with canonical representatives.

    M = None means the ground field.  A given ``complex_`` must have been
    built for P and M (for M = None: on a trivial one-dimensional module);
    without one, the complex is built up to degree n + 1."""
    if complex_ is None:
        complex_ = ce_complex(P, M if M is not None else trivial_module(P), n + 1)
    elif complex_.p is not P:
        raise ValueError("complex_ was built for another algebra")
    elif M is not None and complex_.module is not M:
        raise ValueError("complex_ was built for another module")
    elif M is None and not (complex_.module.is_trivial() and complex_.module.target.dim == 1):
        raise ValueError("complex_ has coefficients other than the ground field; pass its module")
    if n + 1 >= len(complex_.spaces):
        raise IndexError(f"complex too short for H_{n}")
    return _homology_of(complex_, n, complex_.spaces[n])


def _homology_of(complex_, n: int, space: SuperSpace) -> HomologyResult:
    """Ker d_n / Im d_{n+1} of a complex with ``boundary(k)`` maps, whose
    degree-n chains are ``space`` (all of them are cycles at n = 0)."""
    ker = complex_.boundary(n).kernel() if n >= 1 else Subspace.full(space.field, space.dim)
    sq = Subquotient(ker, complex_.boundary(n + 1).image())
    return HomologyResult(n, space.split_dims(sq.section), [dict(s) for s in sq.section], sq)


# ---------------------------------------------------------------------------
# labeled subquotient spaces and maps between them (sequence plumbing)


def sub_space(parent: SuperSpace, rows: Subspace, prefix: str) -> QuotientSpace:
    return quotient_space(parent, rows, Subspace(parent.field, parent.dim, []), prefix)


def connect(src: QuotientSpace, dst: QuotientSpace, raw_map) -> GradedMap:
    """The induced map on labeled spaces: lift, apply, reduce."""
    cols = []
    for i in range(src.space.dim):
        v = src.lift({i: 1})
        cols.append(dst.reduce(raw_map(v)))
    return GradedMap.from_columns(src.space, dst.space, cols)


@dataclass
class ExactnessReport:
    ok: bool
    nodes: list[tuple[str, int, int, bool]]  # (label, im_dim, ker_dim, ok)

    def first_failure(self) -> str | None:
        for label, _, _, ok in self.nodes:
            if not ok:
                return label
        return None


def exactness_check(maps: list[GradedMap]) -> ExactnessReport:
    """Im(f_k) = Ker(f_{k+1}) at every interior node, by canonical echelon
    equality; append a zero map to assert surjectivity onto the last space."""
    nodes = []
    ok = True
    for k in range(len(maps) - 1):
        f, g = maps[k], maps[k + 1]
        if f.target.dim != g.source.dim:
            raise ValueError(f"maps {k} and {k + 1} are not composable")
        im = f.image()
        ker = g.kernel()
        good = im == ker
        ok = ok and good
        nodes.append((f"node{k + 1}", im.dim, ker.dim, good))
    return ExactnessReport(ok, nodes)


def zero_map_to_point(space: SuperSpace) -> GradedMap:
    zero = SuperSpace(space.field, (), ())
    return GradedMap.from_columns(space, zero, [dict() for _ in range(space.dim)])


# ---------------------------------------------------------------------------
# the comparison lemma for degree 2


@dataclass
class D3LemmaReport:
    ok: bool
    lhs_dims: tuple[int, int]
    rhs_dims: tuple[int, int]
    details: str = ""


def d3_lemma_check(P: LieSuperAlgebra) -> D3LemmaReport:
    """Certify that the second exterior power modulo the image of d_3, with
    the bracket [x^y, x'^y'] = [x,y]^[x',y'], is isomorphic to the
    non-abelian exterior square as a Lie superalgebra.  The bracket is
    d_2(u) ^ d_2(v), built by
    :func:`~superlie.algebras.factored_quotient_algebra` (see the module
    docstring)."""
    cx = _chain_complex(P, trivial_module(P), 3, [])  # all of C_2
    c2 = cx.spaces[2]
    monos2 = cx.monomials[2]
    index2 = {m.factors: i for i, m in enumerate(monos2)}
    par = P.space.parities

    def wedge(u: dict, v: dict) -> dict:
        """u ^ v in C_2's monomial basis, for u, v in C_1 = P."""
        out: dict = {}
        for e1, cu in u.items():
            for e2, cv in v.items():
                s, mono = wedge_normalize([e1, e2], par)
                if mono is not None:
                    idx = index2[mono.factors]
                    out[idx] = out.get(idx, 0) + s * cu * cv
        return out

    lhs = quotient_space(c2, Subspace.full(P.field, c2.dim), cx.boundary(3).image(), "w")
    d2 = cx.boundary(2).matrix
    wedge_alg = factored_quotient_algebra(lhs, d2, d2, wedge)
    ext = exterior_square(P)
    rhs_dims = ext.algebra.space.dim_pair
    lhs_dims = lhs.space.dim_pair

    # canonical map: the class of x^y goes to the class of x(x)y
    t = ext.tensor

    def to_exterior(v: dict) -> dict:
        out: dict = {}
        for a, c in v.items():
            i, j = monos2[a].factors
            vec_axpy(out, c, t.embed(i, j))
        return ext.projection.apply(out)

    cols = [to_exterior(s) for s in lhs.section]
    phi = GradedMap.from_columns(lhs.space, ext.algebra.space, cols)
    if lhs.space.dim != ext.algebra.dim or phi.matrix.rank() != lhs.space.dim:
        return D3LemmaReport(False, lhs_dims, rhs_dims, "map is not bijective")
    for a, b, _ in hom_defects(phi, wedge_alg, ext.algebra):
        return D3LemmaReport(False, lhs_dims, rhs_dims, f"bracket mismatch at ({a},{b})")
    return D3LemmaReport(True, lhs_dims, rhs_dims)


def h2_via_exterior(P: LieSuperAlgebra) -> HomologyResult:
    """H_2 as the kernel of x^y -> [x,y] on the exterior square."""
    ext = exterior_square(P)
    ker = ext.nu.kernel()
    dims = ext.algebra.space.split_dims(ker.rows)
    return HomologyResult(2, dims, [dict(r) for r in ker.rows])


# ---------------------------------------------------------------------------
# Hopf formula via free nilpotent covers


@dataclass
class HopfResult:
    dims: tuple[int, int]
    subquotient: Subquotient
    cover: LieSuperAlgebra
    presented: LieSuperAlgebra
    relator_ideal: Subspace

    @property
    def dim(self) -> int:
        return self.dims[0] + self.dims[1]


def hopf_formula(pres: Presentation, class_bound: int, field: Field | None = None) -> HopfResult:
    """H_2 of the class-bounded presented algebra as (R ^ [F,F]) / [F,R],
    computed in the free nilpotent cover of class class_bound + 1.

    The cover is faithful: with R containing gamma_{c+1}, every term of
    the quotient already lives in F/gamma_{c+2} because gamma_{c+2} =
    [F, gamma_{c+1}] is contained in [F, R].
    """
    if not 0 <= class_bound < MAX_DEGREE:
        raise TruncationOutOfRange(
            f"class bound {class_bound} is outside the supported range 0..{MAX_DEGREE - 1}")
    trunc = free_truncated(pres.gens, class_bound + 1, field or Field())
    cover = trunc.algebra()
    rel_vecs = []
    for w in pres.relators:
        if word_degree(w) > class_bound + 1:
            raise ClassExceeded(
                f"relator of degree {word_degree(w)} cannot be truncated at class {class_bound}"
            )
        rel_vecs.append(trunc.word_to_algebra_vec(w))
    # R contains gamma_{c+1}: the top-degree component of the cover
    off = trunc.degree_offset(class_bound + 1)
    gamma_top = [{i: 1} for i in range(off, cover.dim)]
    R = ideal_closure(cover, rel_vecs + gamma_top)
    full = cover.full_subspace()
    commutator = cover.product_subspace(full, full)
    FR = cover.product_subspace(full, R)
    top = R.intersect(commutator)
    sq = Subquotient(top, FR)
    dims = cover.space.split_dims(sq.section)
    presented, _ = quotient_algebra(cover, R, name="presented")
    return HopfResult(dims, sq, cover, presented, R)


# ---------------------------------------------------------------------------
# non-abelian homology


@dataclass
class NHResult:
    nh0: QuotientSpace
    nh1: QuotientSpace
    tensor: TensorProduct
    nu_to_m: GradedMap  # P (x) M -> M in ambient M coordinates


def nh(P: LieSuperAlgebra, cm: CrossedModule) -> NHResult:
    """Zero and first non-abelian homology of P with coefficients in the
    crossed module: cokernel and kernel of p (x) m -> p.m."""
    if cm.p is not P:
        raise ValueError("the crossed module is over another algebra object than P")
    act_pm, act_mp = crossed_pullback_actions(cm)
    t = nonabelian_tensor(P, cm.m, act_pm, act_mp)
    nu = t.nu  # to M, in M coordinates
    M = cm.m
    im = nu.image()
    nh0 = quotient_space(M.space, Subspace.full(M.field, M.dim), im, "h0.")
    ker = nu.kernel()
    nh1 = sub_space(t.algebra.space, ker, "h1.")
    return NHResult(nh0, nh1, t, nu)


# ---------------------------------------------------------------------------
# the connecting six-term sequence for short exact sequences of crossed modules


@dataclass
class CrossedSES:
    """0 -> (L, 0) -> (M, d) -> (N, d') -> 0 over a common P."""

    p: LieSuperAlgebra
    l: CrossedModule
    m: CrossedModule
    n: CrossedModule
    f: GradedMap  # L -> M
    g: GradedMap  # M -> N

    def validate(self) -> None:
        if self.f.kernel().dim != 0:
            raise ValueError("the left map of the sequence is not injective")
        if self.g.matrix.rank() != self.n.m.dim:
            raise ValueError("the right map of the sequence is not surjective")
        if self.f.image() != self.g.kernel():
            raise ValueError("the sequence is not exact in the middle")
        if not self.l.boundary.is_zero():
            raise ValueError("the left coefficient must have zero boundary")
        comp = self.m.boundary.compose(self.f)
        if not comp.is_zero():
            raise ValueError("boundary of M does not restrict to zero on L")
        dn_g = self.n.boundary.compose(self.g)
        diff = dn_g.matrix.add(self.m.boundary.matrix.scale(-1))
        if not diff.is_zero():
            raise ValueError("boundaries are not compatible with the right map")
        for p in range(self.p.dim):
            for i in range(self.l.m.dim):
                lhs = self.f.apply(self.l.action.act_basis(p, i))
                rhs = self.m.action.act({p: 1}, self.f.apply({i: 1}))
                if vec_clean({k: lhs.get(k, 0) - rhs.get(k, 0) for k in set(lhs) | set(rhs)}):
                    raise ValueError("left map is not equivariant")
            for i in range(self.m.m.dim):
                lhs = self.g.apply(self.m.action.act_basis(p, i))
                rhs = self.n.action.act({p: 1}, self.g.apply({i: 1}))
                if vec_clean({k: lhs.get(k, 0) - rhs.get(k, 0) for k in set(lhs) | set(rhs)}):
                    raise ValueError("right map is not equivariant")


@dataclass
class SixTermReport:
    ok: bool
    labels: list[str]
    dims: list[tuple[int, int]]
    exactness: ExactnessReport


def snake_sequence(ses: CrossedSES) -> SixTermReport:
    """The six-term sequence

    nh1(P,L) -> nh1(P,M) -> nh1(P,N) -> nh0(P,L) -> nh0(P,M) -> nh0(P,N) -> 0

    built map by map and certified exact at every node."""
    ses.validate()
    P = ses.p
    r_l = nh(P, ses.l)
    r_m = nh(P, ses.m)
    r_n = nh(P, ses.n)
    ind_f = induced_tensor_map(r_l.tensor, r_m.tensor, GradedMap.identity(P.space), ses.f)
    ind_g = induced_tensor_map(r_m.tensor, r_n.tensor, GradedMap.identity(P.space), ses.g)

    m1 = connect(r_l.nh1, r_m.nh1, ind_f.apply)
    m2 = connect(r_m.nh1, r_n.nh1, ind_g.apply)

    def connecting(v: dict) -> dict:
        x = ind_g.matrix.solve(v)
        if x is None:
            raise ComplexInconsistent("induced map is not surjective on a kernel class")
        w = r_m.nu_to_m.apply(x)  # in M, lands in the image of f
        y = ses.f.matrix.solve(w)
        if y is None:
            raise ComplexInconsistent("connecting element does not pull back")
        return y

    m3 = connect(r_n.nh1, r_l.nh0, connecting)
    m4 = connect(r_l.nh0, r_m.nh0, ses.f.apply)
    m5 = connect(r_m.nh0, r_n.nh0, ses.g.apply)
    m6 = zero_map_to_point(r_n.nh0.space)

    maps = [m1, m2, m3, m4, m5, m6]
    report = exactness_check(maps)
    labels = ["nh1(P,L)", "nh1(P,M)", "nh1(P,N)", "nh0(P,L)", "nh0(P,M)", "nh0(P,N)"]
    dims = [r_l.nh1.dims, r_m.nh1.dims, r_n.nh1.dims,
            r_l.nh0.dims, r_m.nh0.dims, r_n.nh0.dims]
    return SixTermReport(report.ok, labels, dims, report)


# ---------------------------------------------------------------------------
# the homology six-term sequence of an ideal


def _descend_exterior_map(ind: GradedMap, e_src: ExteriorProduct,
                          e_dst: ExteriorProduct) -> GradedMap:
    """Push a tensor-level induced map down to the exterior quotients."""
    for r in e_src.square.rows:
        if vec_clean(e_dst.projection.apply(ind.apply(r))):
            raise ComplexInconsistent("induced map does not preserve the square ideals")
    cols = [e_dst.projection.apply(ind.apply(s)) for s in e_src.projection.quotient.section]
    return GradedMap.from_columns(e_src.algebra.space, e_dst.algebra.space, cols)


def ideal_sixterm(P: LieSuperAlgebra, M: Subspace) -> SixTermReport:
    """The sequence

    Ker(P^M -> P) -> H2(P) -> H2(P/M) -> M/[P,M] -> H1(P) -> H1(P/M) -> 0

    for a graded ideal M, with H2 realized as the kernel of the exterior
    square over the bracket (certified to match the chain complex by the
    degree-2 comparison lemma)."""
    if not is_graded_ideal(P, M):
        raise NotAnIdeal("the six-term sequence requires a graded ideal")
    field = P.field
    mview = subalgebra_on(P, M, name="M")
    Q, proj = quotient_algebra(P, M, name="P/M")

    cm_p = identity_crossed(P)
    cm_m = ideal_crossed(P, mview)
    act_pm, act_mp = crossed_pullback_actions(cm_m)
    t_pm = nonabelian_tensor(P, mview.algebra, act_pm, act_mp)
    e_pm = nonabelian_exterior(t_pm, cm_p, cm_m)
    e_pp = exterior_square(P)
    e_qq = exterior_square(Q)

    t_pp = e_pp.tensor
    t_qq = e_qq.tensor
    ident = GradedMap.identity(P.space)
    ind_incl = _descend_exterior_map(
        induced_tensor_map(t_pm, t_pp, ident, mview.inclusion), e_pm, e_pp)
    ind_proj = _descend_exterior_map(
        induced_tensor_map(t_pp, t_qq, proj, proj), e_pp, e_qq)

    ker_pm = sub_space(e_pm.algebra.space, e_pm.mu.kernel(), "kPM.")
    h2_p = sub_space(e_pp.algebra.space, e_pp.nu.kernel(), "h2P.")
    h2_q = sub_space(e_qq.algebra.space, e_qq.nu.kernel(), "h2Q.")
    full_p = Subspace.full(field, P.dim)
    m_mod = quotient_space(P.space, M, P.product_subspace(full_p, M), "m.")
    h1_p = quotient_space(P.space, full_p, P.product_subspace(full_p, full_p), "h1P.")
    full_q = Subspace.full(field, Q.dim)
    h1_q = quotient_space(Q.space, full_q, Q.product_subspace(full_q, full_q), "h1Q.")

    m1 = connect(ker_pm, h2_p, ind_incl.apply)
    m2 = connect(h2_p, h2_q, ind_proj.apply)

    def connecting(v: dict) -> dict:
        x = ind_proj.matrix.solve(v)
        if x is None:
            raise ComplexInconsistent("exterior projection is not surjective on a kernel class")
        w = e_pp.nu.apply(x)  # in P; lands in M because v is a kernel class
        if not M.contains_vec(w):
            raise ComplexInconsistent("connecting element escapes the ideal")
        return w

    m3 = connect(h2_q, m_mod, connecting)
    m4 = connect(m_mod, h1_p, lambda v: v)
    m5 = connect(h1_p, h1_q, proj.apply)
    m6 = zero_map_to_point(h1_q.space)

    maps = [m1, m2, m3, m4, m5, m6]
    report = exactness_check(maps)
    labels = ["Ker(P^M->P)", "H2(P)", "H2(P/M)", "M/[P,M]", "H1(P)", "H1(P/M)"]
    dims = [ker_pm.dims, h2_p.dims, h2_q.dims, m_mod.dims, h1_p.dims, h1_q.dims]
    return SixTermReport(report.ok, labels, dims, report)
