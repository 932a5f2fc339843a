"""Cyclic homology of associative superalgebras via the Connes complex.

The homology of the Connes complex is H^lambda_n.  It equals the cyclic
homology HC_n over Q, and over GF(p) for n <= p - 2 (Loday, Cyclic
Homology, 2.1.5): row q of the cyclic bicomplex CC(A) computes the
homology of Z/(q + 1) acting on A^{(x)(q+1)}, which is nonzero in positive
degrees only if p divides q + 1.  Past that bound the two differ (for the
dual numbers over F3, H^lambda_3 = 0 and HC_3 = 1), so :func:`hc` refuses
n >= p - 1 over GF(p), and :meth:`ConnesComplex.homology` stays H^lambda_n.

The Hochschild boundary and the signed cyclic operator are

  d'_n(a_0 (x) ... (x) a_n) = sum_{i<n} (-1)^i a_0 (x)...(x) a_i a_{i+1} (x)...(x) a_n
                            + (-1)^{n + |a_n|(|a_0|+...+|a_{n-1}|)} a_n a_0 (x)...(x) a_{n-1}

  t_n(a_0 (x) ... (x) a_n)  = (-1)^{n + |a_n| sum_{k<n} |a_k|} a_n (x) a_0 (x)...(x) a_{n-1}

The Connes complex consists of the coinvariants modulo Im(1 - t_n).  On
basis tuples t_n is a signed rotation, t_n e_t = s(t) e_{r(t)} with
r(a_0, ..., a_n) = (a_n, a_0, ..., a_{n-1}), so A^{(x)(n+1)} splits into
the spans of the rotation orbits, and Im(1 - t_n) is written orbit by
orbit in canonical form, with no elimination (Loday, Cyclic Homology,
2.1).  Walk an orbit x_0, x_1 = r(x_0), ..., and let s_i be the sign with
t_n^i e_{x_0} = s_i e_{x_i}; the product of the signs around the orbit is
s_k for its length k.

- A live orbit (s_k = +1): the vectors s_i e_{x_i} are permuted
  cyclically, so Im(1 - t_n) on the orbit is the sum-zero hyperplane in
  them, one coinvariant per orbit.  With rep the largest index of the
  orbit, its rows are e_x - s_x s_rep e_rep for the other members x, each
  with pivot x.
- A dead orbit (s_k = -1): t_n^k = -1 on the orbit, so 1 - t_n is
  invertible there (the characteristic is never 2), the orbit gives no
  coinvariant, and its rows are the unit vectors e_x.  1 (x) 1 in degree 1
  is one: t_1 = -1 on it.

The row of a non-rep x has pivot x, since rep is the largest index of
its orbit, so the section is the unit vectors at the reps, and C_n is
reduced by the one rule for quotients of the whole space
(:meth:`~superlie.linalg.Subquotient.reduce`): e_x is s_x s_rep e_rep
modulo Im(1 - t_n) for a member x of a live orbit, and 0 for a member of
a dead orbit, read off its bottom row.

Weight-0 block.  Let e be an even basis element of A for which [e, -]
is diagonal on the basis, [e, a] = lambda(a) a, and not central, as
:meth:`~superlie.algebras.LieSuperAlgebra.inner_torus` reads it from
``lie_from_assoc(A)`` and its adjoint action.
The weight of a basis tuple (a_0, ..., a_n) is lambda(a_0) + ... +
lambda(a_n), reduced in the field.

- [e, -] is a derivation, [e, ab] = [e, a] b + a [e, b] (e is even), so
  a product of basis elements a, b is a combination of basis elements of
  weight lambda(a) + lambda(b).  Every face of d' and the rotation t_n
  therefore keep a tuple's weight: A^{(x)(n+1)}, Im(1 - t_n) and d' split
  into weight blocks, and each rotation orbit lies in one block.
- Let h_e insert e into each of the n + 1 gaps after a_0, ..., a_n,
  h_e(a_0 (x) ... (x) a_n) = sum_i (-1)^{i+1} a_0 (x) ... (x) a_i (x) e
  (x) a_{i+1} (x) ... (x) a_n, with no Koszul sign since e is even.  Then
  h_e t_n agrees with t_{n+1} h_e modulo Im(1 - t_{n+1}), so h_e descends
  to C_n -> C_{n+1}.
- On the coinvariants, d' h_e + h_e d' = L_e, where L_e applies [e, -]
  to each factor in turn and so multiplies a block by its weight (Loday,
  Cyclic Homology, 1.3 and 4.1.10: inner derivations act by 0).  A block
  whose weight is nonzero in the field is therefore acyclic; the
  characteristic is never 2.

For two such e, e', [e, e'] is a multiple of e' and, by antisymmetry, of
e, so it is 0: e has weight 0 under every e', h_e keeps the joint
blocks, and a joint block with some nonzero weight is acyclic.
:func:`connes` keeps only the tuples of weight 0 under every e, all of
them when there is none (as for K, the dual numbers and Lambda1), and
its homology is that of the full complex.  The Grassmann degree is a
grading that is not inner, and its nonzero blocks carry homology, so
only inner weights are used.  The block's tuples are the words of
:func:`~superlie.spaces.weight0_words` with any factor after any, closed
by the last factor, in row-major order; C_n lives on their positions,
which keep the order of the tensor power, so the largest index of an
orbit is its largest flat index too, and every label is the label in
the tensor power.  A face of d' that leaves the block raises
:class:`~superlie.homology.ComplexInconsistent`, as in the
Chevalley-Eilenberg complex.  I(A) and the Milnor quotient read the full
degree-1 orbits.

The boundary is induced by :func:`~superlie.algebras.induced_map`, which
certifies that d' carries Im(1 - t_n) into Im(1 - t_{n-1}), and
:class:`~superlie.homology.Complex` certifies d.d = 0.  HC_1 is also
computed from its kernel model (A (x) A)/I(A) -> [A, A], the coarser
Milnor quotient, and the bracket algebra V(A) on (A (x) A)/I(A), which
is a crossed module over A and the bridge to non-abelian homology.  The
map of the kernel model is induced the same way, which certifies that
a (x) b -> [a, b] kills I(A).

I(A) is Im(1 - t_1) plus the cyclic relations
ab (x) c - a (x) bc + (-1)^{|c|(|a|+|b|)} ca (x) b: the graded-symmetric
generators are the images

  (1 - t_1)(a (x) b) = a (x) b + (-1)^{|a||b|} b (x) a,

so the degree-1 rotation orbits give their span in canonical form.  The
Milnor quotient divides I(A) further by A (x) [A, A], since

  a (x) bc - (-1)^{|b||c|} a (x) cb = a (x) [b, c],

and the graded commutators of the stored products span [A, A].

The bracket of V(A) factors through the commutator map
alpha(a (x) b) = [a, b], the edge map of the crossed module:

  [u, v] = alpha(u) (x) alpha(v),  so  [a (x) b, a' (x) b'] = [a, b] (x) [a', b'].

alpha kills I(A), so the bracket descends in both slots:
:func:`hc1_kernel_model` induces alpha on the quotient with
:func:`~superlie.algebras.induced_map`, which certifies that.  The
bracket is built from that induced map by
:func:`~superlie.algebras.factored_quotient_algebra`, which certifies
that it is antisymmetric on classes, and the Lie axioms.  A acts on V(A)
by the adjoint action on both factors,

  a.(x (x) y) = [a, x] (x) y + (-1)^{|a||x|} x (x) [a, y],

which is :func:`~superlie.actions.tensor_action`; each induced value is
checked to equal the class of a (x) alpha(x (x) y) = a (x) [x, y].
"""

from __future__ import annotations

from functools import partial

from .actions import (
    Action,
    CrossedModule,
    adjoint_action,
    check_crossed,
    ideal_crossed,
    tensor_action,
    trivial_action,
)
from .algebras import (
    AssocSuperAlgebra,
    LieSuperAlgebra,
    QuotientSpace,
    factored_quotient_algebra,
    induced_action_table,
    induced_map,
    lie_from_assoc,
    quotient_space,
    sub_space,
    subalgebra_on,
)
from .fields import MathError, record
from .homology import (
    Complex,
    ComplexInconsistent,
    CrossedSES,
    SequenceReport,
    snake_sequence,
)
from .linalg import (
    Matrix,
    Subspace,
    vec_axpy,
    vec_scale,
    vec_sub,
)
from .spaces import (
    GradedMap,
    SuperSpace,
    tensor_pair,
    tensor_power_space,
    tensor_vec,
    weight0_words,
)


class NotUnital(ValueError, MathError):
    """The construction requires a unital associative superalgebra."""


# ---------------------------------------------------------------------------
# the Connes complex


@record
class ConnesComplex(Complex):
    """The Connes complex of A; its boundaries are the induced d_n.  The
    coinvariants are those of the weight-0 block (see the module
    docstring): C_n is the span of the block's basis tuples
    ``plain_spaces[n]`` modulo Im(1 - t_n).  Its homology is H^lambda_n,
    which is HC_n over Q and, over GF(p), for n <= p - 2."""

    a: AssocSuperAlgebra
    plain_spaces: list[SuperSpace]           # the block of A^{(x)(n+1)}
    coinvariants: list[QuotientSpace]        # C_n(A)


def _rotation_image(field, tuples: list[tuple], par) -> tuple[Subspace, dict[tuple, int]]:
    """The canonical basis of Im(1 - t_n) on the span of ``tuples``, basis
    tuples of one degree closed under rotation, in row-major order and
    indexed by position, written orbit by orbit (see the module
    docstring): a live orbit gives e_x - s_x s_rep e_rep for its members x
    other than its largest index rep, a dead orbit the unit vector of each
    member.  Also the position of each tuple."""
    minus_one = field.of(-1)
    position = {t: x for x, t in enumerate(tuples)}
    rows: dict[int, dict] = {}
    seen = [False] * len(tuples)
    for x, t in enumerate(tuples):
        if seen[x]:
            continue
        # members (index, sign s of t_n^i e_t = s e_y), walking t_n; a step's
        # sign parity n + |a_n| sum_{k<n} |a_k| is n for an even a_n, and
        # n + S - 1 for an odd one, S the total parity, which rotations keep
        n = len(t) - 1
        flip = (n % 2, (n + sum(par[k] for k in t) - 1) % 2)
        orbit, sign, y = [], 1, t
        while True:
            i = position[y]
            seen[i] = True
            orbit.append((i, sign))
            if flip[par[y[n]]]:
                sign = -sign
            y = y[n:] + y[:n]
            if y == t:
                break
        if sign == 1:
            rep, s_rep = max(orbit)
            for i, s in orbit:
                if i != rep:
                    rows[i] = {i: 1, rep: minus_one if s == s_rep else 1}
        else:
            for i, _ in orbit:
                rows[i] = {i: 1}
    bottom = Subspace(field, len(tuples), [rows[i] for i in sorted(rows)], _canonical=True)
    return bottom, position


class _Coinvariants(QuotientSpace):
    """C_n = (span of the basis tuples)/Im(1 - t_n), on the tuples'
    positions, the tuples given as ``words`` (f, a_n) with the tuples of
    one prefix f consecutive, each labelled ``a0*a1*...`` as in the tensor
    power, its label and parity built once per prefix, and the section
    labelled as :func:`quotient_space` labels it.  It keeps the basis
    ``tuples`` and their ``position``, which the Hochschild boundary
    reads."""

    __slots__ = ("tuples", "position")

    def __init__(self, space: SuperSpace, words: list[tuple[tuple, int]], prefix: str):
        labels, par = space.labels, space.parities
        names, parities, last = [], [], None
        for f, a in words:
            if f != last:  # the words of one prefix are consecutive
                head, odd, last = "".join(labels[k] + "*" for k in f), sum(par[k] for k in f), f
            names.append(head + labels[a])
            parities.append((odd + par[a]) % 2)
        tuples = [f + (a,) for f, a in words]
        parent = SuperSpace(space.field, tuple(names), tuple(parities))
        bottom, self.position = _rotation_image(space.field, tuples, par)
        super().__init__(parent, Subspace.full(space.field, len(tuples)), bottom,
                         lambda k, lead: f"{prefix}{k}:{lead}")
        self.tuples = tuples


def _hochschild_basis(A: AssocSuperAlgebra, t: tuple, position: dict[tuple, int]) -> dict:
    """d'_n of the basis tuple t = (a_0, ..., a_n), keyed by the positions
    ``position`` gives the basis tuples of A^{(x)n} in the target block (a
    KeyError on a face outside it): the face that multiplies a_i a_{i+1},
    and the last one, a_n a_0 followed by a_1, ..., a_{n-1}, with the sign
    parity n + |a_n| sum_{k<n} |a_k| of t_n, read as in
    :func:`_rotation_image`.  Coefficients are left unreduced."""
    n, rows, par = len(t) - 1, A.rows, A.space.parities
    out: dict = {}
    for i in range(n + 1):
        prod = rows[t[i]].get(t[i + 1] if i < n else t[0])
        if not prod:
            continue
        odd, head, tail = ((i % 2, t[:i], t[i + 2:]) if i < n else
                           ((n + sum(par[k] for k in t) - 1 if par[t[n]] else n) % 2, (), t[1:n]))
        for e, c in prod.items():
            f = position[(*head, e, *tail)]
            out[f] = out.get(f, 0) + (-c if odd else c)
    return out


def _induced_boundary(A: AssocSuperAlgebra, n: int, src: _Coinvariants,
                      dst: _Coinvariants) -> GradedMap:
    """The map C_n -> C_{n-1} induced by d'_n, which raises
    ComplexInconsistent on a face outside the block of C_{n-1}.  The
    descent certificate and the columns evaluate d'_n on the bottom rows
    and the section of C_n, which share basis tuples, so each basis
    tuple's image is computed once, on first use, and kept for this call
    only."""
    images: dict[int, dict] = {}
    tuples, position = src.tuples, dst.position

    def hochschild(v: dict) -> dict:
        out: dict = {}
        for x, c in v.items():
            image = images.get(x)
            if image is None:
                try:
                    image = images[x] = _hochschild_basis(A, tuples[x], position)
                except KeyError:
                    raise ComplexInconsistent(
                        f"d'_{n} leaves the weight-0 block at {src.parent.labels[x]}") from None
            vec_axpy(out, c, image)
        return out  # dst.reduce puts each coordinate in normal form

    return induced_map(src, dst, hochschild)


def connes(A: AssocSuperAlgebra, max_n: int) -> ConnesComplex:
    """Coinvariant spaces of the weight-0 block and induced boundaries up
    to degree max_n: the complex whose homology is H^lambda_n, HC_n over Q
    and, over GF(p), for n <= p - 2."""
    if max_n < 1:
        raise ValueError("the complex needs at least degree 1")
    # the weights of the non-central e with diagonal [e, -] (module docstring)
    lie = lie_from_assoc(A)
    _, lam, _ = lie.inner_torus(adjoint_action(lie))
    # tensor words: any factor follows any, closed by the last factor a_n
    words = weight0_words(A.field, lam, [0] * A.dim, lam, max_n)
    coinv = [_Coinvariants(A.space, level, f"c{n}.")
             for n, level in enumerate(words)]

    # the boundary descends: induced_map certifies d'((1 - t_n) x) dies in C_{n-1}
    boundaries = [None] + [_induced_boundary(A, n, coinv[n], coinv[n - 1])
                           for n in range(1, max_n + 1)]
    return ConnesComplex(boundaries, A, [q.parent for q in coinv], coinv)


def hc(A: AssocSuperAlgebra, n: int, complex_: ConnesComplex | None = None) -> QuotientSpace:
    """Cyclic homology HC_n from the Connes complex (built for A when given),
    as :meth:`~superlie.homology.Complex.homology` returns it.  Over GF(p)
    a degree n >= p - 1 is refused: there the complex gives H^lambda_n,
    which can differ from HC_n (module docstring)."""
    if n < 0:
        raise ValueError(f"no cyclic homology in negative degree {n}")
    p = A.field.p
    if p is not None and n >= p - 1:
        raise ValueError(f"HC_{n} over F{p} is not computed: the Connes complex gives "
                         f"H^lambda_{n}, which equals HC_{n} over F{p} only for n <= {p - 2}")
    if complex_ is None:
        complex_ = connes(A, n + 1)
    elif complex_.a is not A:
        raise ValueError("complex_ was built for another algebra")
    return complex_.homology(n)


# ---------------------------------------------------------------------------
# the kernel model of HC_1 and the Milnor quotient


def _cyclic_relation_gens(A: AssocSuperAlgebra) -> list[dict]:
    """ab (x) c - a (x) bc + (-1)^{|c|(|a|+|b|)} ca (x) b over basis triples.
    Written apart from :func:`_hochschild_basis`, so that HC_1 from the
    Connes complex and from the kernel model stay two independent codings
    for the cross-path check to compare."""
    d, sp, par = A.dim, A.space, A.space.parities
    gens = []
    for a in range(d):
        for b in range(d):
            ab = A.product_basis(a, b)
            for c in range(d):
                g = tensor_vec(sp, sp, ab, {c: 1})
                vec_axpy(g, -1, tensor_vec(sp, sp, {a: 1}, A.product_basis(b, c)))
                s = -1 if (par[c] * ((par[a] + par[b]) % 2)) else 1
                vec_axpy(g, s, tensor_vec(sp, sp, A.product_basis(c, a), {b: 1}))
                if g:
                    gens.append(g)
    return gens


def _relation_gens(A: AssocSuperAlgebra) -> list[dict]:
    """Generators of I(A): the canonical rows of Im(1 - t_1), which span
    the graded-symmetric a (x) b + (-1)^{|a||b|} b (x) a, and the cyclic
    relations."""
    pairs = [tensor_pair(A.dim, t) for t in range(A.dim ** 2)]
    bottom, _ = _rotation_image(A.field, pairs, A.space.parities)
    return bottom.rows + _cyclic_relation_gens(A)


def relation_ideal(A: AssocSuperAlgebra) -> Subspace:
    """I(A) inside A (x) A."""
    return Subspace(A.field, A.dim ** 2, _relation_gens(A))


@record
class HC1KernelModel:
    lie: LieSuperAlgebra           # A with the graded commutator bracket
    quotient: QuotientSpace        # (A (x) A)/I(A)
    commutator: Matrix             # alpha: a (x) b -> [a, b] on A (x) A
    to_commutators: GradedMap      # induced map onto [A, A] (ambient A coords)
    kernel: Subspace               # HC_1 inside the quotient coordinates
    dims: tuple[int, int]


def hc1_kernel_model(A: AssocSuperAlgebra) -> HC1KernelModel:
    """HC_1 as the kernel of (A (x) A)/I(A) -> [A, A], a (x) b -> [a, b]."""
    sp = tensor_power_space(A.space, 2)
    ideal = relation_ideal(A)
    quot = quotient_space(sp, Subspace.full(A.field, sp.dim), ideal, "v")
    lie, d = lie_from_assoc(A), A.dim
    alpha = Matrix(A.field, d, [lie.bracket_basis(*tensor_pair(d, t)) for t in range(sp.dim)])
    gmap = induced_map(quot, A.space, alpha.apply)  # certifies that alpha kills I(A)
    ker = gmap.kernel()
    dims = quot.space.split_dims(ker.rows)
    return HC1KernelModel(lie, quot, alpha, gmap, ker, dims)


def milnor_hc1(A: AssocSuperAlgebra) -> QuotientSpace:
    """The first Milnor cyclic homology: A (x) A modulo I(A) and A (x) [A, A],
    [A, A] spanned by the graded commutators of the stored products."""
    sp = tensor_power_space(A.space, 2)
    par, field = A.space.parities, A.field
    comm = Subspace(field, A.dim, [vec_sub(v, vec_scale(A.product_basis(j, i),
                                                        -1 if par[i] * par[j] else 1))
                                   for (i, j), v in A.table.items()])
    a_comm = [tensor_vec(A.space, A.space, {a: 1}, c) for a in range(A.dim) for c in comm.rows]
    return quotient_space(sp, Subspace.full(field, sp.dim),
                          Subspace(field, sp.dim, _relation_gens(A) + a_comm), "m")


# ---------------------------------------------------------------------------
# the bracket algebra V(A)


@record
class VAlgebra:
    a_lie: LieSuperAlgebra
    algebra: LieSuperAlgebra       # on (A (x) A)/I(A)
    quotient: QuotientSpace
    to_a: GradedMap                # class of a (x) b -> [a, b], into A
    action_a: Action               # action of A on V(A)
    crossed: CrossedModule
    hc1: QuotientSpace             # HC_1 as a subspace of V(A)


def v_algebra(A: AssocSuperAlgebra) -> VAlgebra:
    """The Lie superalgebra on (A (x) A)/I(A) with
    [a (x) b, a' (x) b'] = [a,b] (x) [a',b'], certified as a crossed module
    over A with the action a.(x (x) y) = a (x) [x, y].  The bracket is
    alpha(u) (x) alpha(v) for the commutator map alpha(a (x) b) = [a, b],
    induced on the quotient by :func:`hc1_kernel_model`, built by
    :func:`~superlie.algebras.factored_quotient_algebra`."""
    if A.unit is None:
        raise NotUnital("V(A) requires a unital algebra")
    d = A.dim
    km = hc1_kernel_model(A)
    lie, quot = km.lie, km.quotient
    algebra = factored_quotient_algebra(quot, km.to_commutators, km.to_commutators,
                                        partial(tensor_vec, A.space, A.space),
                                        name=f"V({A.name or 'A'})")

    # the action of A on V(A) is the adjoint action on both tensor factors,
    # certified to coincide with a (x) [x,y] on the quotient
    adj = adjoint_action(lie)
    tensor_act = tensor_action(adj, adj)

    def act(p: int, v: dict) -> dict:
        out = tensor_act(p, v)
        if quot.reduce(vec_sub(out, tensor_vec(A.space, A.space, {p: 1}, km.commutator.apply(v)))):
            raise ComplexInconsistent("the action of A on V(A) has two unequal forms")
        return out

    action_a = Action(lie, algebra, induced_action_table(quot, d, act))
    crossed = CrossedModule(algebra, lie, km.to_commutators, action_a)
    check_crossed(crossed).require(ComplexInconsistent, "(V(A), mu) fails the crossed module axioms")

    # A kills HC_1(A): act has checked a.(x (x) y) = a (x) [x, y] on every
    # section vector, so by linearity a.k is the class of a (x) alpha(k) = 0
    # for k in Ker alpha
    return VAlgebra(lie, algebra, quot, km.to_commutators, action_a, crossed,
                    sub_space(algebra.space, km.kernel, "hc."))


# ---------------------------------------------------------------------------
# the six-term sequence relating HC_1, Milnor HC_1 and non-abelian homology


@record
class CyclicSixTerm:
    ok: bool
    report: SequenceReport
    identifications: list[tuple[str, bool]]
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
    hc1 = va.hc1
    h_alg = LieSuperAlgebra(hc1.space, {}, name="HC1")
    cm_l = CrossedModule(h_alg, lie, GradedMap.zero(hc1.space, lie.space),
                         trivial_action(lie, h_alg))
    f = GradedMap.from_columns(hc1.space, va.algebra.space, [dict(r) for r in hc1.section])

    comm = va.to_a.image()  # [A, A]: alpha maps A (x) A onto the commutators
    cview = subalgebra_on(lie, comm, name="[A,A]")
    cm_n = ideal_crossed(lie, cview)
    # cview's basis is the rows of comm, the image of to_a
    g = GradedMap.from_columns(va.algebra.space, cview.algebra.space,
                               [comm.coords(c) for c in va.to_a.matrix.cols])

    ses = CrossedSES(lie, cm_l, va.crossed, cm_n, f, g)
    report = snake_sequence(ses)

    # identifications of the outer terms, read from the nodes of the
    # sequence: dims holds nh1 of L, M, N, then nh0 of L, M, N
    nh1_l, _, _, nh0_l, nh0_m, nh0_n = report.dims
    mil = milnor_hc1(A)
    # A/[A,A] (x) HC1
    d0 = quotient_space(A.space, Subspace.full(field, A.dim), comm, "ab.").dims
    h0, h1 = hc1.dims
    ab_hc1 = (d0[0] * h0 + d0[1] * h1, d0[0] * h1 + d0[1] * h0)
    # [A,A]/[A,[A,A]]
    mod_q = quotient_space(A.space, comm, lie.product_subspace(lie.full_subspace(), comm), "q.")
    idents = [
        ("nh0(A,HC1) = HC1", nh0_l == hc1.dims),  # the action is trivial
        ("nh1(A,HC1) = A/[A,A] (x) HC1", nh1_l == ab_hc1),
        ("nh0(A,[A,A]) = [A,A]/[A,[A,A]]", nh0_n == mod_q.dims),
        ("nh0(A,V(A)) = Milnor HC1", nh0_m == mil.dims),
    ]

    ok = report.ok and all(flag for _, flag in idents)
    return CyclicSixTerm(ok, report, idents, hc1.dims, mil.dims)


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