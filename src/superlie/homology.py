"""Homology of Lie superalgebras and the six-term exact sequences.

The chain complex has C_n = (n-th super exterior power of P) (x) M with
the boundary

  d_n(x_1^...^x_n (x) y) =
      sum_i (-1)^{i + |x_i| sum_{k>i} |x_k|} (x_1^...^x_i-hat^...^x_n (x) x_i.y)
    + sum_{i<j} (-1)^{i+j+|x_i| sum_{k<i}|x_k| + |x_j| sum_{l<j}|x_l| + |x_i||x_j|}
          ([x_i,x_j]^x_1^...^x_i-hat^...^x_j-hat^...^x_n (x) y)

and d.d = 0 is asserted on every constructed complex: it is the global
sentinel for the sign conventions shared across the package.

Divided powers.  An odd factor may repeat in a chain, and the formula
above, read on monomials, sums over positions: on x^x^x for odd x the
three pairs give 3 [x, x]^x, which vanishes mod 3.  The homology of P is
Tor over its enveloping algebra, whose Koszul complex has the divided
powers of the odd part, not its symmetric powers, and the two differ
once an odd factor repeats p times.  Over GF(p) the chain whose odd
factors repeat a_u times therefore stands for the monomial over p^v,
v = v_p(prod a_u!), and each boundary column is rescaled from the
monomials, entry times p^(v' - v) for a target of valuation v'.  That is
the divided power basis x^(a) = x^a / a! up to units, the formula above
has integer coefficients on it, and so every rescaled entry is an
integer, which the construction checks.  Below degree p every v is 0 and
nothing changes, and over Q nothing changes at all.  Over F3 the chain
x^x^x stands for x^3 / 3 and has the boundary -[x, x]^x, where the
monomial has -3 [x, x]^x, so on the free Lie superalgebra on one odd
generator x, spanned by x and [x, x], H_2 is 0 as in every other
characteristic.

Weight-0 reduction.  Let h be an even basis element of P with ad(h)
diagonal on P's basis, ad(h) x = lambda(x) x, that also acts diagonally
on M's basis, h.t = mu(t) t.  Then h acts on the chain x_1^...^x_n (x) t
by its weight lambda(x_1) + ... + lambda(x_n) + mu(t), d preserves
weights, and Cartan's formula L_h = d i_h + i_h d (i_h wedges with h)
makes h act by 0 on homology; so every block of chains whose weight is
nonzero in the field is acyclic (Hochschild-Serre, Ann. of Math. 57,
1953; Fuks, Cohomology of Infinite-Dimensional Lie Algebras, 1986,
ch. 1).  :func:`ce_complex` builds only the chains of weight 0 under
every such h, as :meth:`~superlie.algebras.LieSuperAlgebra.inner_torus`
reads them (all chains when there is none, as for heis), and their
homology is H_*(P, M).  Only basis elements with diagonal ad are used: a
grading that is not inner, such as the Grassmann degree of
sl(2|1, Lambda1), has acyclic-looking blocks that carry homology.  The
weight-0 chains are the words of :func:`~superlie.spaces.weight0_words`.

The complex's ``spaces`` and ``chains`` and the representatives of
:func:`homology` refer to the kept chains, listed in the order of the
full complex and labelled as there.  The canonical echelon form of a
direct sum over disjoint coordinate blocks is the union of the blocks'
forms and an acyclic block contributes no representative, so dimensions
and representatives, read through chain labels, equal those of the full
complex.

Degree-2 comparison.  On the ground field d_2(x^y) = -[x, y] for every
monomial, so d_2 is the edge map of the bracket of Lambda^2 P / Im d_3:

  [u, v] = d_2(u) ^ d_2(v),  so  [x^y, x'^y'] = [x, y] ^ [x', y'],

the two signs cancelling.  Im d_3 lies in Ker d_2 because d.d = 0 is
certified, so the bracket descends in both slots.
:func:`d3_lemma_check` induces d_2 on Lambda^2 P / Im d_3 with
:func:`~superlie.algebras.induced_map`, which certifies the annihilation,
builds the bracket with
:func:`~superlie.algebras.factored_quotient_algebra`, which certifies
antisymmetry on classes and the Lie axioms, and compares it with the
non-abelian exterior square P ^ P.

Induced maps.  Every map between quotients here, the comparison map
x^y -> x(^)y, the maps of both six-term sequences (the connecting maps
included), the exterior maps of :func:`ideal_sixterm` and those of
:func:`right_exactness_check`, is built by
:func:`~superlie.algebras.induced_map`, which certifies that the map
carries the bottom of its source into the bottom of its target and
raises :class:`~superlie.linalg.ContainmentError` otherwise.
"""

from __future__ import annotations

from itertools import accumulate

from .actions import (
    Action,
    CrossedModule,
    crossed_pullback_actions,
    identity_crossed,
    ideal_crossed,
    pullback_action,
    semidirect,
    trivial_action,
)
from .algebras import (
    LieSuperAlgebra,
    NotAnIdeal,
    QuotientSpace,
    factored_quotient_algebra,
    ideal_closure,
    induced_map,
    intertwining_defects,
    is_graded_ideal,
    iso_fault,
    quotient_algebra,
    quotient_space,
    sub_space,
    subalgebra_on,
)
from .fields import MathError, record
from .linalg import Subspace, add_composed, sum_is_zero, vec_axpy
from .spaces import (
    GradedMap,
    SuperSpace,
    tensor_vec,
    wedge_insert,
    wedge_normalize,
    weight0_words,
)
from .tensor import (
    TensorProduct,
    adjoint_tensor_square,
    exterior_square,
    induced_tensor_map,
    nonabelian_exterior,
    nonabelian_tensor,
)


class ComplexInconsistent(RuntimeError, MathError):
    """d.d != 0 or another identity of a construction fails: a
    construction bug.  A map that fails to descend to a quotient raises
    :class:`~superlie.linalg.ContainmentError` from
    :func:`~superlie.algebras.induced_map` instead."""


class ClassExceeded(ValueError, MathError):
    """A presentation's relators cannot be evaluated in the chosen truncation."""


# ---------------------------------------------------------------------------
# coefficients: a P-module is an Action of P; the chain complex reads its
# action constants and its target's space, never the target's bracket


def trivial_module(P: LieSuperAlgebra) -> Action:
    """The ground field as a trivial P-module, on the single basis label "1"."""
    return trivial_action(P, LieSuperAlgebra(SuperSpace(P.field, ("1",), (0,)), {}, name="K"))


# ---------------------------------------------------------------------------
# chain complexes


@record
class Complex:
    """A chain complex given by its boundaries d_n: C_n -> C_{n-1},
    ``boundaries[n]`` for n >= 1 (``boundaries[0]`` is None).  d.d = 0 is
    certified when the complex is built, so no complex exists uncertified:
    the columns of d_{n-1} d_n are added unreduced into one fused sum,
    tested once, and the composed map is never built."""

    boundaries: list[GradedMap | None]

    def __post_init__(self):
        for n in range(2, len(self.boundaries)):
            outer, inner = self.boundaries[n - 1], self.boundaries[n]
            if inner.target != outer.source:
                raise ValueError("maps are not composable")
            acc: dict = {}
            add_composed(acc, 1, dict(enumerate(outer.matrix.cols)), dict(enumerate(inner.matrix.cols)))
            if not sum_is_zero(outer.source.field, acc):
                raise ComplexInconsistent(f"d_{n-1} . d_{n} != 0")

    def boundary(self, n: int) -> GradedMap:
        if not 1 <= n < len(self.boundaries):
            raise IndexError(f"no boundary at degree {n}")
        return self.boundaries[n]

    def homology(self, n: int) -> QuotientSpace:
        """H_n = Ker d_n / Im d_{n+1}, labelled ``h{n}.``, whose section is
        the canonical representatives; C_n is the target of d_{n+1}, and
        every chain is a cycle at n = 0."""
        if not 0 <= n < len(self.boundaries) - 1:
            raise IndexError(f"complex too short for H_{n}")
        space = self.boundary(n + 1).target
        ker = self.boundary(n).kernel() if n >= 1 else Subspace.full(space.field, space.dim)
        return quotient_space(space, ker, self.boundary(n + 1).image(), f"h{n}.")


@record
class ChainComplex(Complex):
    """The chain complex of P with coefficients in M on its chains of
    weight 0 under ``P.inner_torus(M)``, every chain when there is none;
    the other blocks are acyclic (module docstring).  Chain i of degree n
    is ``x_1^...^x_k (x) t`` for ``chains[n][i] = ((x_1, ..., x_k), t)``,
    canonical wedge factors and a basis index t of M, labelled as in the
    full complex and listed in its order."""

    p: LieSuperAlgebra
    module: Action
    spaces: list[SuperSpace]
    chains: list[list[tuple[tuple[int, ...], int]]]


def _divided_valuation(xs: tuple[int, ...], p: int) -> int:
    """v_p(prod a_u!) over the multiplicities a_u of the factors of the
    canonical monomial xs, in which equal factors are adjacent."""
    v, start = 0, 0
    for i in range(1, len(xs) + 1):
        if i == len(xs) or xs[i] != xs[start]:
            a = (i - start) // p
            while a:
                v += a
                a //= p
            start = i
    return v


def _divided(col: dict, v: int, below: list[int], p: int, label: str) -> dict:
    """The boundary column of a monomial of valuation v, with its integer
    entries on the monomials of valuations ``below``, rescaled to the
    divided powers: the entry at key times p^(below[key] - v), which is an
    integer (module docstring)."""
    out = {}
    for key, c in col.items():
        shift = below[key] - v
        if shift < 0:
            if c % p ** -shift:
                raise ComplexInconsistent(f"the boundary of {label} is not integral "
                                          "on divided powers")
            c //= p ** -shift
        out[key] = c * p ** max(shift, 0)
    return out


def _chain_complex(P: LieSuperAlgebra, M: Action, max_n: int,
                   lam: list[tuple], mu: list[tuple]) -> ChainComplex:
    """The one construction loop: the chains of weight 0 under the weight
    tuples lam and mu of P's and M's basis (every chain when they are
    empty), their labels and boundaries.  The parity sums of a chain's
    prefixes give every sign, a factor with no nonzero bracket is skipped,
    and a bracket value enters the canonical rest by
    :func:`~superlie.spaces.wedge_insert`; :class:`GradedMap` cleans the
    columns."""
    field = P.field
    par = P.space.parities
    plabels = P.space.labels
    msp = M.target.space
    ground = msp.dim == 1 and msp.labels[0] == "1"
    # canonical wedge monomials, an odd factor may repeat, closed by the module index
    chains = weight0_words(field, lam, [i + 1 - par[i] for i in range(P.dim)], mu, max_n)
    index, rows = P.bracket_index(), M.rows
    spaces: list[SuperSpace] = []
    index_of: list[dict[tuple[tuple[int, ...], int], int]] = []
    for level in chains:
        wedges = ["^".join(plabels[i] for i in f) if f else "1" for f, _ in level]
        labels = wedges if ground else [f"{w}(x){msp.labels[t]}" for w, (_, t) in zip(wedges, level)]
        parities = [(sum(par[i] for i in f) + msp.parities[t]) % 2 for f, t in level]
        spaces.append(SuperSpace(field, tuple(labels), tuple(parities)))
        index_of.append({c: i for i, c in enumerate(level)})

    # over GF(p) a chain whose odd factors repeat a_u times stands for the
    # monomial over p^v, v = v_p(prod a_u!): the divided powers of the
    # module docstring; v = 0 below degree p
    p = field.p if field.p and field.p <= max_n else None
    vals = p and [[_divided_valuation(xs, p) if len(xs) >= p else 0 for xs, _ in level]
                  for level in chains]
    boundaries: list[GradedMap | None] = [None]
    for n in range(1, max_n + 1):
        below = index_of[n - 1]
        cols: list[dict] = []
        for src, (xs, t) in enumerate(chains[n]):
            pp = [par[x] for x in xs]
            head = list(accumulate(pp, initial=0))  # head[k]: odd factors before x_k
            col: dict = {}
            try:
                # module-action terms
                for i in range(n):
                    acted = rows[xs[i]].get(t)
                    if acted:
                        s = -1 if (i + 1 + pp[i] * (head[n] - head[i + 1])) % 2 else 1
                        rest = xs[:i] + xs[i + 1:]
                        for t2, c in acted.items():
                            key = below[(rest, t2)]
                            col[key] = col.get(key, 0) + s * c
                # bracket terms: [x_i, x_j] moves into the canonical rest
                for i in range(n):
                    bracket = index[xs[i]]
                    if not bracket:
                        continue
                    for j in range(i + 1, n):
                        br = bracket.get(xs[j])
                        if not br:
                            continue
                        exp = i + j + pp[i] * head[i] + pp[j] * head[j] + pp[i] * pp[j]
                        s = -1 if exp % 2 else 1
                        rest = xs[:i] + xs[i + 1:j] + xs[j + 1:]
                        for e, c in br.items():
                            s2, mono = wedge_insert(e, rest, par)
                            if mono is None:
                                continue
                            key = below[(mono, t)]
                            col[key] = col.get(key, 0) + s * s2 * c
            except KeyError:
                raise ComplexInconsistent(
                    f"d_{n} leaves the weight-0 chains at {spaces[n].labels[len(cols)]}") from None
            if p and (vals[n][src] or any(vals[n - 1][key] for key in col)):
                col = _divided(col, vals[n][src], vals[n - 1], p, spaces[n].labels[src])
            cols.append(col)
        boundaries.append(GradedMap.from_columns(spaces[n], spaces[n - 1], cols))
    return ChainComplex(boundaries, P, M, spaces, chains)


def ce_complex(P: LieSuperAlgebra, M: Action, max_n: int) -> ChainComplex:
    """The chain complex of P with coefficients in the P-module M (an action
    of P on M.target) up to degree max_n, on its weight-0 chains (see the
    module docstring)."""
    if M.actor is not P:
        raise ValueError("the module is an action of another algebra object than P")
    _, lam, mu = P.inner_torus(M)
    return _chain_complex(P, M, max_n, lam, mu)


def homology(P: LieSuperAlgebra, M: Action | None, n: int,
             complex_: ChainComplex | None = None) -> QuotientSpace:
    """H_n = Ker d_n / Im d_{n+1} (see :meth:`Complex.homology`).

    M = None means the ground field.  A given ``complex_`` must have been
    built for P and M (for M = None: on a trivial one-dimensional module);
    without one, the complex is built up to degree n + 1."""
    if n < 0:
        raise ValueError(f"no homology in negative degree {n}")
    if complex_ is None:
        complex_ = ce_complex(P, M if M is not None else trivial_module(P), n + 1)
    elif complex_.p is not P:
        raise ValueError("complex_ was built for another algebra")
    elif M is not None and complex_.module is not M:
        raise ValueError("complex_ was built for another module")
    elif M is None and not (complex_.module.is_trivial() and complex_.module.target.dim == 1):
        raise ValueError("complex_ has coefficients other than the ground field; pass its module")
    return complex_.homology(n)


# ---------------------------------------------------------------------------
# exact sequences


@record
class SequenceReport:
    ok: bool
    labels: list[str]
    dims: list[tuple[int, int]]
    nodes: list[tuple[str, int, int, bool]]  # (label, im_dim, ker_dim, ok)


def exact_sequence(labels: list[str], maps: list[GradedMap]) -> SequenceReport:
    """Certify V_0 -> V_1 -> ... -> V_k -> 0 for the maps f_j: V_{j-1} ->
    V_j, the nodes V_0, ..., V_k named by ``labels``: Im f_j = Ker f_{j+1}
    by canonical echelon equality at every V_j, j < k, and f_k onto V_k.
    The node dims are read from the maps' spaces."""
    if len(labels) != len(maps) + 1:
        raise ValueError(f"{len(maps)} maps join {len(maps) + 1} nodes, not {len(labels)}")
    last = maps[-1].target
    kernels = [g.kernel() for g in maps[1:]] + [Subspace.full(last.field, last.dim)]
    nodes = []
    for j, (f, ker) in enumerate(zip(maps, kernels)):
        im = f.image()
        if im.ambient != ker.ambient:
            raise ValueError(f"maps {j} and {j + 1} are not composable")
        nodes.append((labels[j + 1], im.dim, ker.dim, im == ker))
    dims = [maps[0].source.dim_pair] + [f.target.dim_pair for f in maps]
    return SequenceReport(all(node[3] for node in nodes), labels, dims, nodes)


# ---------------------------------------------------------------------------
# the comparison lemma for degree 2


@record
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
    cx = _chain_complex(P, trivial_module(P), 3, [()] * P.dim, [()])  # all of C_2
    c2 = cx.spaces[2]
    chains2 = cx.chains[2]
    index2 = {f: i for i, (f, _) in enumerate(chains2)}
    par = P.space.parities

    def wedge(u: dict, v: dict) -> dict:
        """u ^ v in C_2's monomial basis, for u, v in C_1 = P."""
        out: dict = {}
        for e1, cu in u.items():
            for e2, cv in v.items():
                s, mono = wedge_normalize([e1, e2], par)
                if mono is not None:
                    idx = index2[mono]
                    out[idx] = out.get(idx, 0) + s * cu * cv
        return out

    lhs = quotient_space(c2, Subspace.full(P.field, c2.dim), cx.boundary(3).image(), "w")
    d2 = induced_map(lhs, cx.spaces[1], cx.boundary(2).apply)  # certifies that d_2 kills Im d_3
    wedge_alg = factored_quotient_algebra(lhs, d2, d2, wedge)
    ext = exterior_square(P)
    rhs_dims = ext.algebra.space.dim_pair
    lhs_dims = lhs.space.dim_pair

    # canonical map: the class of x^y goes to the class of x(x)y
    def to_exterior(v: dict) -> dict:
        out: dict = {}
        for a, c in v.items():
            (i, j), _ = chains2[a]
            vec_axpy(out, c, tensor_vec(P.space, P.space, {i: 1}, {j: 1}))
        return ext.projection.apply(ext.tensor.quotient.reduce(out))

    phi = induced_map(lhs, ext.algebra.space, to_exterior)
    fault = iso_fault(phi, wedge_alg, ext.algebra)
    return D3LemmaReport(fault is None, lhs_dims, rhs_dims, fault or "")


def h2_via_exterior(P: LieSuperAlgebra) -> QuotientSpace:
    """H_2 as the kernel of x^y -> [x,y] on the exterior square (memoized
    on P), labelled ``h2.``."""
    ext = exterior_square(P)
    return sub_space(ext.algebra.space, ext.nu.kernel(), "h2.")


# ---------------------------------------------------------------------------
# Hopf formula via free nilpotent covers


@record
class HopfResult:
    dims: tuple[int, int]
    presented: LieSuperAlgebra


def hopf_formula(pres: Presentation, class_bound: int) -> HopfResult:
    """H_2 of the class-bounded presented algebra as (R ^ [F,F]) / [F,R],
    computed in the free nilpotent cover of class class_bound + 1.

    The cover is faithful: with R containing gamma_{c+1}, every term of
    the quotient already lives in F/gamma_{c+2} because gamma_{c+2} =
    [F, gamma_{c+1}] is contained in [F, R].

    [F, F] is read off the grading (``FreeTruncation.derived_subspace``),
    not eliminated from the brackets of all basis pairs: the cover is
    graded by word length, so no bracket has a component of length 1, and
    each basis word of length >= 2 is itself a bracket of basis words,
    [P_u, P_v] over its standard factorization or [P_w, P_w] for the
    square of an odd w.  [F, F] is therefore the span of the basis words
    of length >= 2, and their unit rows are its canonical basis.
    """
    # loaded here, so that the other homology commands start without it
    from .freelie import MAX_DEGREE, TruncationOutOfRange, free_truncated, word_degree

    if not 0 <= class_bound < MAX_DEGREE:
        raise TruncationOutOfRange(
            f"class bound {class_bound} is outside the supported range 0..{MAX_DEGREE - 1}")
    trunc = free_truncated(pres.gens, class_bound + 1)
    cover = trunc.algebra()
    rel_vecs = []
    for w in pres.relators:
        if word_degree(w) > class_bound + 1:
            raise ClassExceeded(
                f"relator of degree {word_degree(w)} cannot be truncated at class {class_bound}"
            )
        rel_vecs.append(trunc.word_to_algebra_vec(w))
    # R contains gamma_{c+1}: the top-degree component of the cover
    off = trunc.offsets[class_bound + 1]
    gamma_top = [{i: 1} for i in range(off, cover.dim)]
    R = ideal_closure(cover, rel_vecs + gamma_top)
    FR = cover.product_subspace(cover.full_subspace(), R)
    h2 = quotient_space(cover.space, R.intersect(trunc.derived_subspace()), FR, "h2.")
    presented, _ = quotient_algebra(cover, R, name="presented")
    return HopfResult(h2.dims, presented)


# ---------------------------------------------------------------------------
# non-abelian homology


@record
class NHResult:
    nh0: QuotientSpace
    nh1: QuotientSpace
    tensor: TensorProduct


def nh(P: LieSuperAlgebra, cm: CrossedModule) -> NHResult:
    """Zero and first non-abelian homology of P with coefficients in the
    crossed module: cokernel and kernel of p (x) m -> p.m."""
    if cm.p is not P:
        raise ValueError("the crossed module is over another algebra object than P")
    act_pm, act_mp = crossed_pullback_actions(cm)
    t = nonabelian_tensor(P, cm.m, act_pm, act_mp)
    M = cm.m
    nh0 = quotient_space(M.space, Subspace.full(M.field, M.dim), t.nu.image(), "h0.")
    nh1 = sub_space(t.algebra.space, t.nu.kernel(), "h1.")
    return NHResult(nh0, nh1, t)


# ---------------------------------------------------------------------------
# the connecting six-term sequence for short exact sequences of crossed modules


@record
class CrossedSES:
    """0 -> (L, 0) -> (M, d) -> (N, d') -> 0 over a common P."""

    p: LieSuperAlgebra
    l: CrossedModule
    m: CrossedModule
    n: CrossedModule
    f: GradedMap  # L -> M
    g: GradedMap  # M -> N

    def validate(self) -> None:
        """Raise ValueError unless this is a short exact sequence of
        crossed modules: 0 -> L -> M -> N -> 0 exact, certified by
        :func:`exact_sequence` from a zero map out of the zero space, with
        a message naming the node it fails at; L with zero boundary; and f
        and g commuting with the boundaries and the actions of P."""
        zero = SuperSpace(self.p.field, (), ())
        rep = exact_sequence(["0", "L", "M", "N"],
                             [GradedMap.zero(zero, self.f.source), self.f, self.g])
        for label, _, _, ok in rep.nodes:
            if not ok:
                raise ValueError(f"the sequence 0 -> L -> M -> N -> 0 is not exact at {label}")
        if not self.l.boundary.is_zero():
            raise ValueError("the left coefficient must have zero boundary")
        for h, src, dst, side in ((self.f, self.l, self.m, "left"),
                                  (self.g, self.m, self.n, "right")):
            if dst.boundary.compose(h).matrix.cols != src.boundary.matrix.cols:
                raise ValueError(f"boundaries are not compatible with the {side} map")
            if next(intertwining_defects(self.p.field, h.matrix.cols, src.action.rows,
                                         dst.action.rows), None):
                raise ValueError(f"{side} map is not equivariant")


def _lift(f: GradedMap, v: dict) -> dict:
    """Some x with f(x) = v, for the connecting maps; v outside the image
    of f raises :class:`ComplexInconsistent`."""
    x = f.matrix.solve(v)
    if x is None:
        raise ComplexInconsistent("a connecting element lies outside the image it lifts through")
    return x


def snake_sequence(ses: CrossedSES) -> SequenceReport:
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

    m1 = induced_map(r_l.nh1, r_m.nh1, ind_f.apply)
    m2 = induced_map(r_m.nh1, r_n.nh1, ind_g.apply)

    def connecting(v: dict) -> dict:
        # nu of a lift of v lies in M, in the image of f
        return _lift(ses.f, r_m.tensor.nu.apply(_lift(ind_g, v)))

    m3 = induced_map(r_n.nh1, r_l.nh0, connecting)
    m4 = induced_map(r_l.nh0, r_m.nh0, ses.f.apply)
    m5 = induced_map(r_m.nh0, r_n.nh0, ses.g.apply)
    return exact_sequence(
        ["nh1(P,L)", "nh1(P,M)", "nh1(P,N)", "nh0(P,L)", "nh0(P,M)", "nh0(P,N)"],
        [m1, m2, m3, m4, m5])


# ---------------------------------------------------------------------------
# the homology six-term sequence of an ideal


def ideal_sixterm(P: LieSuperAlgebra, M: Subspace) -> SequenceReport:
    """The sequence

    Ker(P^M -> P) -> H2(P) -> H2(P/M) -> M/[P,M] -> H1(P) -> H1(P/M) -> 0

    for a graded ideal M, with H2 realized as the kernel of the exterior
    square over the bracket, :func:`h2_via_exterior` (certified to match
    the chain complex by the degree-2 comparison lemma)."""
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
    ind_incl = induced_map(e_pm.projection.quotient, e_pp.projection.quotient,
                           induced_tensor_map(t_pm, t_pp, ident, mview.inclusion).apply)
    ind_proj = induced_map(e_pp.projection.quotient, e_qq.projection.quotient,
                           induced_tensor_map(t_pp, t_qq, proj, proj).apply)

    ker_pm = sub_space(e_pm.algebra.space, e_pm.mu.kernel(), "kPM.")
    h2_p = h2_via_exterior(P)
    h2_q = h2_via_exterior(Q)
    full_p = Subspace.full(field, P.dim)
    m_mod = quotient_space(P.space, M, P.product_subspace(full_p, M), "m.")
    h1_p = quotient_space(P.space, full_p, P.product_subspace(full_p, full_p), "h1P.")
    full_q = Subspace.full(field, Q.dim)
    h1_q = quotient_space(Q.space, full_q, Q.product_subspace(full_q, full_q), "h1Q.")

    m1 = induced_map(ker_pm, h2_p, ind_incl.apply)
    m2 = induced_map(h2_p, h2_q, ind_proj.apply)

    # the bracket of a lift of a kernel class lands in M; induced_map
    # reduces it in m_mod, whose top is M, and raises ContainmentError if not
    m3 = induced_map(h2_q, m_mod, lambda v: e_pp.nu.apply(_lift(ind_proj, v)))
    m4 = induced_map(m_mod, h1_p, lambda v: v)
    m5 = induced_map(h1_p, h1_q, proj.apply)
    return exact_sequence(["Ker(P^M->P)", "H2(P)", "H2(P/M)", "M/[P,M]", "H1(P)", "H1(P/M)"],
                          [m1, m2, m3, m4, m5])


# ---------------------------------------------------------------------------
# right exactness of the tensor product


def right_exactness_check(M: LieSuperAlgebra, K: Subspace) -> SequenceReport:
    """Certify exactness of (K(x)M) x| (M(x)K) -> M(x)M -> (M/K)(x)(M/K) -> 0."""
    if not is_graded_ideal(M, K):
        raise NotAnIdeal("right exactness requires a graded ideal")
    kview = subalgebra_on(M, K, name="K")
    kalg = kview.algebra
    # mutual bracket actions: M on K, and K on M through the inclusion
    act_mk, act_km = crossed_pullback_actions(ideal_crossed(M, kview))

    t_km = nonabelian_tensor(kalg, M, act_km, act_mk)
    t_mk = nonabelian_tensor(M, kalg, act_mk, act_km)
    t_mm = adjoint_tensor_square(M)
    Q, proj = quotient_algebra(M, K, name="M/K")
    t_qq = adjoint_tensor_square(Q)

    incl = kview.inclusion
    ident = GradedMap.identity(M.space)
    f_km = induced_tensor_map(t_km, t_mm, incl, ident)
    f_mk = induced_tensor_map(t_mk, t_mm, ident, incl)
    f_qq = induced_tensor_map(t_mm, t_qq, proj, proj)

    # the printed left node is the semidirect product of M(x)K acting on K(x)M
    # through nu: M(x)K -> K, included in M
    sd_action = pullback_action(t_km.action_n, t_mk.algebra, incl.compose(t_mk.nu))
    sd = semidirect(sd_action, name="(K(x)M) x| (M(x)K)")
    alpha = GradedMap.from_columns(sd.space, t_mm.algebra.space,
                                   f_km.matrix.cols + f_mk.matrix.cols)

    return exact_sequence([sd.name, "M(x)M", "(M/K)(x)(M/K)"], [alpha, f_qq])
