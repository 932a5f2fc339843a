"""Non-abelian tensor and exterior products of Lie superalgebras, and
universal central extensions of perfect ones.

For compatibly acting M and N the product is realized as the quotient of
the plain tensor product T = M (x) N by the relation subspace D(M, N).
Write mu(m(x)n) = -(-1)^{|m||n|} n.m and nu(m(x)n) = m.n for the edge maps
to M and N.  The bracket installed on classes is

    B(x, y) = mu(x) (x) nu(y),  so  B(m(x)n, m'(x)n') = -(-1)^{|m||n|} (n.m) (x) (m'.n'),

and the defining relations are the generator families

    (i)   [m,m'] (x) n - m (x) m'.n + (-1)^{|m||m'|} m' (x) m.n
    (ii)  m (x) [n,n'] - (-1)^{|n'|(|m|+|n|)} n'.m (x) n + (-1)^{|m||n|} n.m (x) n'
    (iii) B(x, x) for x = m(x)n with |m| = |n|
    (iv)  A(x, y) = -(B(x, y) + (-1)^{|x||y|} B(y, x))
    (v)   the sum over rotations of (x, y, z) of (-1)^{|x||z|} B(B(x, y), z)

on basis elements.  :func:`nonabelian_tensor` generates (i) and (ii) only;
the other three lie in their span.  M acts on T by

    a.(m(x)n) = [a,m] (x) n + (-1)^{|a||m|} m (x) a.n,

and N by b.(m(x)n) = b.m (x) n + (-1)^{|b||m|} m (x) [b,n].  The generator
of (i) is a.x - a (x) nu(x) for x = m'(x)n, and that of (ii) is
-(-1)^{|b||x|} b.x - mu(x) (x) b for x = m(x)n.  Taking a = mu(x) and
b = nu(y) gives, for homogeneous x and y,

    B(x, y) = mu(x).y                        mod span(i),
    B(x, y) = -(-1)^{|x||y|} nu(y).x         mod span(ii).

The identities (m.n).m' = -(-1)^{|m||n|} [n.m, m'] and
(n.m).n' = -(-1)^{|m||n|} [m.n, n'] of compatible actions say that
[mu y, m] = nu(y).m and mu(y).n = [nu y, n], so mu(y) and nu(y) act on T
by the same operator.  Hence

    -A(x, y) = B(x, y) + (-1)^{|x||y|} B(y, x) = mu(x).y - nu(x).y = 0

modulo span(i) + span(ii), which contains (iv).  For even x,
A(x, x) = -2 B(x, x), and the characteristic is never 2, so (iii) lies
there too.

Family (v) lies in span(i) + span(iv).  The action of M on T is a Lie
action, and span(i) is M-stable, because the generator of (i) is built
from equivariant maps.  With the action axioms, the first compatibility
identity makes mu M-equivariant, mu(a.x) = [a, mu x], and makes it kill
span(i).  Hence B(x, -) preserves span(i), and mu(B(x, y)) = [mu x, mu y].
The Leibniz Jacobiator therefore reduces to

    B(x,B(y,z)) - B(B(x,y),z) - (-1)^{|x||y|} B(y,B(x,z))
      = mu x.(mu y.z) - [mu x, mu y].z - (-1)^{|x||y|} mu y.(mu x.z) = 0

modulo span(i).  A(u, v) lies in span(iv) for all u, v, and
mu(A(u, v)) = 0, so B(A(u, v), -) = 0.  Rewriting the cyclic sum (v) with
A turns it into -(-1)^{|x||z|} times the Leibniz Jacobiator plus terms
A(x, B(y,z)), A(y, B(x,z)) and B(A(x,z), y), all in span(i) + span(iv).
No division is used here.  In characteristic 3 the identity [x,[x,x]] = 0
for odd x does not follow from graded Jacobi; family (v) never imposed it
either, since its diagonal generator is three equal rotations and
vanishes mod 3.

The construction certifies, not assumes, the result.  The bracket is
built by :func:`~superlie.algebras.factored_quotient_algebra`, the one
construction of a bracket that factors through edge maps: both edge maps
must annihilate D(M, N), so B, which factors through them, is well defined
on classes; B must be antisymmetric on classes, which puts (iii) and (iv)
in D(M, N); and the product must satisfy the Lie axioms on every basis
triple, which puts (v) in D(M, N).  Both edge maps must be crossed
modules.  A failure raises :class:`BracketNotWellDefined`; it indicates a
transcription bug, never a property of compatible inputs, and the
construction cannot return a wrong product silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain

from .actions import (
    Action,
    CrossedModule,
    check_compatible,
    check_crossed,
    crossed_pullback_actions,
    adjoint_action,
    pullback_action,
    semidirect,
    ideal_crossed,
    identity_crossed,
)
from .algebras import (
    BracketNotWellDefined,
    LieSuperAlgebra,
    NotAnIdeal,
    Projection,
    QuotientSpace,
    engel_degree,
    factored_quotient_algebra,
    hom_defects,
    induced_action_table,
    is_engel,
    is_graded_ideal,
    quotient_algebra,
    quotient_space,
    series,
    subalgebra_on,
    abelianization,
)
from .linalg import (
    Echelon,
    Matrix,
    Subspace,
    vec_axpy,
    vec_clean,
    vec_scale,
)
from .spaces import GradedMap, SuperSpace, tensor_space, tensor_vec


class IncompatibleActions(ValueError):
    """The mutual actions fail the compatibility identities."""


class NotPerfect(ValueError):
    """A universal central extension was requested for a non-perfect algebra."""


class CrossedModuleMismatch(ValueError):
    """Exterior product inputs are not crossed modules over a common base."""


@dataclass
class TensorProduct:
    """The non-abelian tensor product together with its certified structure."""

    m: LieSuperAlgebra
    n: LieSuperAlgebra
    act_mn: Action
    act_nm: Action
    plain: SuperSpace            # M (x) N with row-major pair basis
    d_generators: Subspace       # D(M, N) inside the plain tensor space
    quotient: QuotientSpace      # T / D(M, N), labeled like the product's basis
    algebra: LieSuperAlgebra     # the product with its bracket
    mu: GradedMap                # to M
    nu: GradedMap                # to N
    action_m: Action             # induced action of M on the product
    action_n: Action             # induced action of N on the product
    cross_m: CrossedModule
    cross_n: CrossedModule

    def pair_index(self, i: int, j: int) -> int:
        return i * self.n.dim + j

    def embed(self, i: int, j: int) -> dict:
        """Class of e_i (x) e_j in product coordinates."""
        return self.quotient.reduce({self.pair_index(i, j): 1})

    @property
    def im_mu(self) -> Subspace:
        return self.mu.image()

    @property
    def im_nu(self) -> Subspace:
        return self.nu.image()


def _family_i(M: LieSuperAlgebra, N: LieSuperAlgebra, amn: list[dict]):
    """Generators [m,m'] (x) n - m (x) m'.n + (-1)^{|m||m'|} m' (x) m.n of
    D(M, N), with amn[i * N.dim + j] = m_i.n_j."""
    ms, ns, pm, dn = M.space, N.space, M.space.parities, N.dim
    for i in range(M.dim):
        for i2 in range(M.dim):
            bi = M.bracket_basis(i, i2)
            s = -1 if pm[i] * pm[i2] else 1
            for j in range(dn):
                g = tensor_vec(ms, ns, bi, {j: 1})
                vec_axpy(g, -1, tensor_vec(ms, ns, {i: 1}, amn[i2 * dn + j]))
                vec_axpy(g, s, tensor_vec(ms, ns, {i2: 1}, amn[i * dn + j]))
                yield g


def _family_ii(M: LieSuperAlgebra, N: LieSuperAlgebra, anm: list[dict]):
    """Generators m (x) [n,n'] - (-1)^{|n'|(|m|+|n|)} n'.m (x) n
    + (-1)^{|m||n|} n.m (x) n' of D(M, N), with anm[i * N.dim + j] = n_j.m_i."""
    ms, ns, pm, pn, dn = M.space, N.space, M.space.parities, N.space.parities, N.dim
    for i in range(M.dim):
        for j in range(dn):
            for j2 in range(dn):
                g = tensor_vec(ms, ns, {i: 1}, N.bracket_basis(j, j2))
                s1 = -1 if pn[j2] * ((pm[i] + pn[j]) % 2) else 1
                vec_axpy(g, -s1, tensor_vec(ms, ns, anm[i * dn + j2], {j: 1}))
                s2 = -1 if pm[i] * pn[j] else 1
                vec_axpy(g, s2, tensor_vec(ms, ns, anm[i * dn + j], {j2: 1}))
                yield g


def nonabelian_tensor(M: LieSuperAlgebra, N: LieSuperAlgebra,
                      act_mn: Action, act_nm: Action) -> TensorProduct:
    """Construct M (x) N from compatible mutual actions: act_mn of M on N,
    act_nm of N on M, on these very objects (ValueError otherwise)."""
    if act_mn.actor is not M or act_mn.target is not N:
        raise ValueError("actions are not between the same pair of algebras")
    comp = check_compatible(act_mn, act_nm)
    if not comp.ok:
        raise IncompatibleActions(f"actions are not compatible: {comp.violations[:3]}")

    field = M.field
    dm, dn = M.dim, N.dim
    ms, ns = M.space, N.space
    pm, pn = ms.parities, ns.parities
    plain = tensor_space(ms, ns)

    pairs = [(i, j) for i in range(dm) for j in range(dn)]
    anm = [act_nm.act_basis(j, i) for (i, j) in pairs]  # n.m in M
    amn = [act_mn.act_basis(i, j) for (i, j) in pairs]  # m.n in N

    acc = Echelon(field, plain.dim)
    for g in chain(_family_i(M, N, amn), _family_ii(M, N, anm)):
        g = field.clean(g)
        if g and not acc.contains(g):
            acc.insert(g)
    d_sub = acc.subspace()
    del acc  # its semi-reduced rows are not read again; free them before the certificates
    quot = quotient_space(plain, Subspace.full(field, plain.dim), d_sub, "t")

    # the edge maps on the plain pair basis: mu(m (x) n) = -(-1)^{|m||n|} n.m
    # and nu(m (x) n) = m.n; the bracket is B(u, v) = mu(u) (x) nu(v)
    mu_plain = Matrix(field, dm, [vec_scale(anm[t], 1 if pm[i] * pn[j] else -1)
                                  for t, (i, j) in enumerate(pairs)])
    nu_plain = Matrix(field, dn, amn)
    algebra = factored_quotient_algebra(quot, mu_plain, nu_plain, partial(tensor_vec, ms, ns),
                                        name=f"{M.name or 'M'}(x){N.name or 'N'}")
    mu = GradedMap.from_columns(quot.space, ms, [mu_plain.apply(s) for s in quot.section])
    nu = GradedMap.from_columns(quot.space, ns, [nu_plain.apply(s) for s in quot.section])

    # induced actions on classes:
    #   m'.(m (x) n) = [m',m] (x) n + (-1)^{|m||m'|} m (x) m'.n
    #   n'.(m (x) n) = n'.m (x) n + (-1)^{|m||n'|} m (x) [n',n]
    # The sign of the second formula is the Koszul sign of n' passing m;
    # any other choice breaks equivariance of the edge map on mixed parities
    # (the certificates below enforce this).
    def act_m(a: int, v: dict) -> dict:
        out: dict = {}
        for t, c in v.items():
            i, j = pairs[t]
            g = tensor_vec(ms, ns, M.bracket_basis(a, i), {j: 1})
            sg = -1 if pm[i] * pm[a] else 1
            vec_axpy(g, sg, tensor_vec(ms, ns, {i: 1}, act_mn.act_basis(a, j)))
            vec_axpy(out, c, g)
        return out

    def act_n(b: int, v: dict) -> dict:
        out: dict = {}
        for t, c in v.items():
            i, j = pairs[t]
            g = tensor_vec(ms, ns, act_nm.act_basis(b, i), {j: 1})
            sg = -1 if pm[i] * pn[b] else 1
            vec_axpy(g, sg, tensor_vec(ms, ns, {i: 1}, N.bracket_basis(b, j)))
            vec_axpy(out, c, g)
        return out

    action_m = Action(M, algebra, induced_action_table(quot, dm, act_m))
    action_n = Action(N, algebra, induced_action_table(quot, dn, act_n))

    cross_m = CrossedModule(algebra, M, mu, action_m)
    cross_n = CrossedModule(algebra, N, nu, action_n)
    for cr, label in ((cross_m, "mu"), (cross_n, "nu")):
        rep = check_crossed(cr)
        if not rep.ok:
            raise BracketNotWellDefined(
                f"({label}) fails the crossed module certificate: {rep.violations[:3]}"
            )

    return TensorProduct(
        m=M, n=N, act_mn=act_mn, act_nm=act_nm,
        plain=plain, d_generators=d_sub, quotient=quot,
        algebra=algebra, mu=mu, nu=nu,
        action_m=action_m, action_n=action_n,
        cross_m=cross_m, cross_n=cross_n,
    )


def adjoint_tensor_square(P: LieSuperAlgebra) -> TensorProduct:
    """P (x) P with the mutual adjoint actions (memoized on P)."""
    if P._tensor_square is None:
        adj = adjoint_action(P)
        P._tensor_square = nonabelian_tensor(P, P, adj, adj)
    return P._tensor_square


def induced_tensor_map(src: TensorProduct, dst: TensorProduct,
                       f_m: GradedMap, f_n: GradedMap) -> GradedMap:
    """The map src -> dst induced by an action-preserving pair (f_m, f_n)."""
    cols = []
    for s in src.quotient.section:
        out: dict = {}
        for t, c in s.items():
            i, j = divmod(t, src.n.dim)
            img = tensor_vec(dst.m.space, dst.n.space, f_m.apply({i: 1}), f_n.apply({j: 1}))
            vec_axpy(out, c, img)
        cols.append(dst.quotient.reduce(out))
    return GradedMap.from_columns(src.algebra.space, dst.algebra.space, cols)


def tensor_symmetry_iso(t: TensorProduct) -> tuple[GradedMap, TensorProduct]:
    """The isomorphism M (x) N -> N (x) M, m (x) n -> -(-1)^{|m||n|} n (x) m,
    verified bijective and bracket preserving."""
    swapped = nonabelian_tensor(t.n, t.m, t.act_nm, t.act_mn)
    dm, dn = t.m.dim, t.n.dim
    pm, pn = t.m.space.parities, t.n.space.parities

    def swap_plain(v: dict) -> dict:
        out: dict = {}
        for tt, c in v.items():
            i, j = divmod(tt, dn)
            sgn = -1 if not (pm[i] * pn[j]) else 1
            idx = j * dm + i
            out[idx] = out.get(idx, 0) + sgn * c
        return out

    for d in t.d_generators.rows:
        if swapped.quotient.reduce(swap_plain(d)):
            raise BracketNotWellDefined("symmetry map does not descend to the quotients")
    cols = [swapped.quotient.reduce(swap_plain(s)) for s in t.quotient.section]
    iso = GradedMap.from_columns(t.algebra.space, swapped.algebra.space, cols)
    if iso.matrix.rank() != t.algebra.dim or t.algebra.dim != swapped.algebra.dim:
        raise BracketNotWellDefined("symmetry map is not bijective")
    if next(hom_defects(iso, t.algebra, swapped.algebra), None):
        raise BracketNotWellDefined("symmetry map does not preserve brackets")
    return iso, swapped


def trivial_action_tensor(M: LieSuperAlgebra, N: LieSuperAlgebra) -> SuperSpace:
    """The plain tensor product of the abelianizations, M^ab (x) N^ab."""
    mab, _ = abelianization(M)
    nab, _ = abelianization(N)
    return tensor_space(mab.space, nab.space)


@dataclass
class ExactnessNode:
    at: str
    image_dim: int
    kernel_dim: int
    ok: bool


@dataclass
class RightExactnessReport:
    ok: bool
    middle: ExactnessNode
    right: ExactnessNode
    dims: dict


def right_exactness_check(M: LieSuperAlgebra, K: Subspace) -> RightExactnessReport:
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
    sd_action = pullback_action(t_km.action_m, t_mk.algebra, incl.compose(t_mk.nu))
    sd = semidirect(sd_action, name="(K(x)M) x| (M(x)K)")

    alpha_cols = [f_km.matrix.cols[v] for v in range(t_km.algebra.dim)]
    alpha_cols += [f_mk.matrix.cols[w] for w in range(t_mk.algebra.dim)]
    alpha = GradedMap.from_columns(sd.space, t_mm.algebra.space, alpha_cols)

    im_alpha = alpha.image()
    ker_f = f_qq.kernel()
    middle = ExactnessNode("M(x)M", im_alpha.dim, ker_f.dim, im_alpha == ker_f)
    im_f = f_qq.image()
    right = ExactnessNode("(M/K)(x)(M/K)", im_f.dim, t_qq.algebra.dim,
                          im_f.dim == t_qq.algebra.dim)
    dims = {
        "K(x)M": t_km.algebra.dim,
        "M(x)K": t_mk.algebra.dim,
        "M(x)M": t_mm.algebra.dim,
        "(M/K)(x)(M/K)": t_qq.algebra.dim,
    }
    return RightExactnessReport(middle.ok and right.ok, middle, right, dims)


@dataclass
class NilpotencyBoundsReport:
    ok: bool
    checks: list[tuple[str, bool]]
    numbers: dict


def nilpotency_bounds_check(M: LieSuperAlgebra, N: LieSuperAlgebra,
                            act_mn: Action, act_nm: Action) -> NilpotencyBoundsReport:
    """Nilpotency / solvability / Engel bounds for the tensor product in
    terms of the image ideal [M,N]^M."""
    t = nonabelian_tensor(M, N, act_mn, act_nm)
    im_mu = t.mu.image()
    im_nu = t.nu.image()
    mview = subalgebra_on(M, im_mu, name="[M,N]^M")
    nview = subalgebra_on(N, im_nu, name="[M,N]^N")
    s_m = series(mview.algebra)
    s_n = series(nview.algebra)
    s_t = series(t.algebra)

    numbers = {
        "class([M,N]^M)": s_m.nil_class,
        "class(M(x)N)": s_t.nil_class,
        "class([M,N]^N)": s_n.nil_class,
        "length([M,N]^M)": s_m.derived_length,
        "length(M(x)N)": s_t.derived_length,
        "length([M,N]^N)": s_n.derived_length,
    }
    checks: list[tuple[str, bool]] = []
    if s_m.nil_class is not None:
        c = s_m.nil_class
        checks.append(("M(x)N nilpotent", s_t.nil_class is not None))
        checks.append(("[M,N]^N nilpotent", s_n.nil_class is not None))
        if s_t.nil_class is not None:
            checks.append((f"{c} <= class(M(x)N) <= {c}+1", c <= s_t.nil_class <= c + 1))
        if s_n.nil_class is not None:
            checks.append((f"class([M,N]^N) <= {c}+1", s_n.nil_class <= c + 1))
    if s_m.derived_length is not None:
        l = s_m.derived_length
        checks.append(("M(x)N solvable", s_t.derived_length is not None))
        checks.append(("[M,N]^N solvable", s_n.derived_length is not None))
        if s_t.derived_length is not None:
            checks.append((f"{l} <= length(M(x)N) <= {l}+1", l <= s_t.derived_length <= l + 1))
        if s_n.derived_length is not None:
            checks.append((f"length([M,N]^N) <= {l}+1", s_n.derived_length <= l + 1))
    if s_m.nil_class is not None:
        bound = max(s_m.nil_class, 1)
        n_engel = engel_degree(mview.algebra, bound)
        numbers["engel([M,N]^M)"] = n_engel
        if n_engel is not None:
            checks.append((f"M(x)N is {n_engel + 1}-Engel", is_engel(t.algebra, n_engel + 1)))
            checks.append((f"[M,N]^N is {n_engel + 1}-Engel", is_engel(nview.algebra, n_engel + 1)))
    ok = all(flag for _, flag in checks)
    return NilpotencyBoundsReport(ok, checks, numbers)


# ---------------------------------------------------------------------------
# exterior product


@dataclass
class ExteriorProduct:
    tensor: TensorProduct
    square: Subspace             # M square N, in product coordinates
    algebra: LieSuperAlgebra
    projection: Projection       # product -> exterior quotient, keeps the quotient
    mu: GradedMap                # descended map to M
    nu: GradedMap                # descended map to N


def nonabelian_exterior(t: TensorProduct, cm_m: CrossedModule,
                        cm_n: CrossedModule) -> ExteriorProduct:
    """Quotient of the tensor product by the central graded ideal spanned by
    the pullback coincidence generators of the two crossed modules."""
    if cm_m.p is not cm_n.p:
        raise CrossedModuleMismatch("crossed modules are over different bases")
    if cm_m.m is not t.m or cm_n.m is not t.n:
        raise CrossedModuleMismatch("crossed modules do not match the tensor factors")
    M, N = t.m, t.n
    dm, dn = M.dim, N.dim
    field = M.field
    # pullback X = {(m, n) : dM(m) = dN(n)} inside M + N
    cols = []
    for i in range(dm):
        cols.append(cm_m.boundary.matrix.cols[i])
    for j in range(dn):
        cols.append(vec_scale(cm_n.boundary.matrix.cols[j], -1))
    pullback = Matrix(field, cm_m.p.dim, cols).kernel_basis()

    def part_m(row: dict) -> dict:
        return {k: c for k, c in row.items() if k < dm}

    def part_n(row: dict) -> dict:
        return {k - dm: c for k, c in row.items() if k >= dm}

    parity_of = []
    for row in pullback.rows:
        par = None
        for k in row:
            p = M.space.parities[k] if k < dm else N.space.parities[k - dm]
            if par is None:
                par = p
            elif par != p:
                raise CrossedModuleMismatch("pullback basis is not homogeneous")
        parity_of.append(par or 0)

    gens = []
    rows = pullback.rows
    for a in range(len(rows)):
        for b in range(a, len(rows)):
            u, v = rows[a], rows[b]
            g = tensor_vec(M.space, N.space, part_m(u), part_n(v))
            sgn = -1 if parity_of[a] * parity_of[b] else 1
            vec_axpy(g, sgn, tensor_vec(M.space, N.space, part_m(v), part_n(u)))
            if g:
                gens.append(g)
        if parity_of[a] == 0:
            g = tensor_vec(M.space, N.space, part_m(rows[a]), part_n(rows[a]))
            if g:
                gens.append(g)
    square_rows = [t.quotient.reduce(g) for g in gens]
    square = Subspace(field, t.algebra.dim, [r for r in square_rows if r])

    center = t.algebra.center()
    if not center.contains(square):
        raise BracketNotWellDefined("square ideal is not central in the product")
    mu_kill = all(not vec_clean(t.mu.apply(r)) for r in square.rows)
    nu_kill = all(not vec_clean(t.nu.apply(r)) for r in square.rows)
    if not (mu_kill and nu_kill):
        raise BracketNotWellDefined("edge maps do not descend to the exterior product")

    algebra, proj = quotient_algebra(t.algebra, square,
                                     name=f"{M.name or 'M'}(^){N.name or 'N'}")
    # descend mu, nu through the section
    section = proj.quotient.section
    mu_cols = [vec_clean(t.mu.apply(s)) for s in section]
    nu_cols = [vec_clean(t.nu.apply(s)) for s in section]
    mu = GradedMap.from_columns(algebra.space, M.space, mu_cols)
    nu = GradedMap.from_columns(algebra.space, N.space, nu_cols)
    return ExteriorProduct(t, square, algebra, proj, mu, nu)


def exterior_square(P: LieSuperAlgebra) -> ExteriorProduct:
    """P (^) P via the identity crossed module (memoized on P)."""
    if P._exterior_square is None:
        cid = identity_crossed(P)
        P._exterior_square = nonabelian_exterior(adjoint_tensor_square(P), cid, cid)
    return P._exterior_square


# ---------------------------------------------------------------------------
# universal central extensions


@dataclass
class CentralExtension:
    total: LieSuperAlgebra
    base: LieSuperAlgebra
    proj: GradedMap
    kernel: Subspace
    kernel_dims: tuple[int, int]
    tensor: TensorProduct


def uce(P: LieSuperAlgebra) -> CentralExtension:
    """The universal central extension P (x) P ->> P of a perfect P, with the
    kernel reported per parity (it realizes the second homology)."""
    if not series(P).is_perfect:
        raise NotPerfect("universal central extensions require a perfect algebra")
    t = adjoint_tensor_square(P)
    proj = t.nu  # p (x) p' -> p.p' = [p, p'] under the adjoint actions
    if proj.matrix.rank() != P.dim:
        raise BracketNotWellDefined("central extension map is not surjective")
    ker = proj.kernel()
    center = t.algebra.center()
    if not center.contains(ker):
        raise BracketNotWellDefined("kernel of the extension is not central")
    if not series(t.algebra).is_perfect:
        raise BracketNotWellDefined("tensor square of a perfect algebra must be perfect")
    dims = t.algebra.space.split_dims(ker.rows)
    return CentralExtension(t.algebra, P, proj, ker, dims, t)
