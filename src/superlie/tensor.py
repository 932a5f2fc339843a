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

on basis elements.  M acts on T by

    a.(m(x)n) = [a,m] (x) n + (-1)^{|a||m|} m (x) a.n,

and N by b.(m(x)n) = b.m (x) n + (-1)^{|b||m|} m (x) [b,n]; both are
:func:`~superlie.actions.tensor_action`, the one place that writes the
Koszul sign of a tensor action.  :func:`nonabelian_tensor` generates (i)
and (ii) only, in the forms

    (i)   a.x - a (x) nu(x)                   for a in M, x = m'(x)n,
    (ii)  -(-1)^{|b||x|} b.x - mu(x) (x) b    for b in N, x = m(x)n,

over basis elements a, b and basis tensors x, which expand to the forms
above; the other three families lie in their span.  Taking a = mu(x) and
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
vanishes mod 3.  The Lie-axiom certificate of the product checks it over
F3 (:func:`~superlie.algebras.check_lie_axioms`), so a product without it
raises :class:`BracketNotWellDefined` and is never returned.

Weight blocks of the adjoint square.  For M = N = P with one adjoint
action on both sides, mu(m(x)n) = nu(m(x)n) = [m, n].  Let h_1, ..., h_r
be the non-central even basis elements of P whose ad is diagonal on
P's basis, [h_k, e_i] = lambda_k(e_i) e_i (``P.inner_torus`` of the
adjoint action).  Then e_i(x)e_j has the weight vector
lambda(e_i) + lambda(e_j), with entries in the field, ad(h_k) acts on T
as a derivation, and so every generator of (i) and (ii) is homogeneous,
of weight lambda(a) + lambda(x) or lambda(x) + lambda(b).  So
D = (+)_w D_w over the blocks T_w of basis tensors, with disjoint
coordinates, and D_w is spanned by the
generators of weight w.  The block of weight 0 streams exactly those: a
basis tensor e_i(x)e_j against a basis element c with
lambda(e_i) + lambda(e_j) + lambda(c) = 0, the words (i, j) closed by c
of :func:`~superlie.spaces.weight0_words`.  In a block w != 0 pick k
with w_k != 0.  The generator (i) at a = h_k is

    h_k.x - h_k (x) nu(x) = w_k x - h_k (x) nu(x),

which is 0 for x in h_k (x) P_w, and for the other x has x as its only
coordinate outside h_k (x) P_w.  So these S_w are independent, and
T_w = S_w (+) h_k (x) P_w.  Graded Jacobi makes mu equivariant,
mu(c.x) = [c, mu x] for c acting through either factor, so mu maps (i)
to [a, mu x] - [a, nu x] = 0 and (ii) to
-(-1)^{|b||x|} [b, mu x] - [mu x, b] = 0 by graded antisymmetry: D lies
in Ker mu.  Take d in D_w and write d = s + h_k (x) p with s in
S_w and p in P_w.  Then 0 = mu(d) = mu(h_k (x) p) = [h_k, p] = w_k p, so
p = 0 and D_w = S_w: one generator per basis tensor spans the block, and
no membership test is needed.  Since the argument needs graded Jacobi of P,
the adjoint square first certifies the Lie axioms of P, on either path, and
raises :class:`BracketNotWellDefined` when they fail.  The block path is
taken only for the adjoint square of a P with such an h; every other
M (x) N streams (i) and (ii) over all basis tensors x, from generating
sets where it may.

Generating sets.  Write g(a, x) = a.x - a (x) nu(x) for the generator
(i).  M acts on T by a Lie action, which needs Jacobi in M and action
axiom (i) of M on N, and that axiom is also nu(a.x) = a.nu(x).  So for
homogeneous a1, a2 and s = (-1)^{|a1||a2|}

    g([a1, a2], x) = g(a1, a2.x) - s g(a2, a1.x) - g(a1, a2 (x) nu(x)),

and the a with g(a, T) in span g(S_M, T) form a subalgebra.  It contains
the generating set S_M of M that
:func:`~superlie.algebras.check_lie_axioms` certifies and memoizes, so it
is all of M: family (i) needs only a in S_M.  Family (ii) is the mirror
image, with N, the action of N on M and mu, and needs only b in S_N.  No
division is used, so this holds in every characteristic.  Each c in S is
a basis vector of one weight, so the weight-0 block is spanned by its
generators with c in S.  The generating set of a factor is used only
where these hypotheses are certified: on the adjoint square once the Lie
axioms of P pass, and otherwise for a factor L that passed
check_lie_axioms and whose action on the other factor passed
:func:`~superlie.actions.check_action`, both memoized, so no certificate
runs for it here.  Any other factor streams every basis element.

The construction certifies, not assumes, the result.  Both edge maps are
built by :func:`~superlie.algebras.induced_map`, which certifies that
each annihilates D(M, N), so B, which factors through them, is well
defined on classes.  On the adjoint square both edge maps read one bracket
index, which stores [e_j, e_i] = -(-1)^{|i||j|} [e_i, e_j], so
mu(e_i (x) e_j) = -(-1)^{|i||j|} [e_j, e_i] = [e_i, e_j] = nu(e_i (x) e_j);
M and N act on M (x) N by the same operators, and one induced map serves
both.  The same rule, with no even diagonal bracket, makes one adjoint
action compatible with itself for any table, Jacobi or not, exactly:
compat-i and compat-ii of :func:`~superlie.actions.check_compatible` both
read [[n, m], n'] = -(-1)^{|m||n|} [[m, n], n'], which the stored
[n, m] = -(-1)^{|m||n|} [m, n] gives.  So the adjoint square runs no
compatibility loop.  The bracket is built by
:func:`~superlie.algebras.factored_quotient_algebra`, the one construction
of a bracket that factors through edge maps: B must be antisymmetric on
classes, which puts (iii) and (iv) in D(M, N); and the product must
satisfy the Lie axioms on every basis triple, which puts (v) in D(M, N).
Both edge maps must be crossed modules; on the adjoint square the one
crossed module is certified once.  An edge map that does not descend
raises :class:`~superlie.linalg.ContainmentError`, any other failure
:class:`BracketNotWellDefined`; either indicates a transcription bug,
never a property of compatible inputs.  The certificates do not fix the
scale of an edge map, though: on an abelian product, such as heis (x)
heis, every certificate is homogeneous in nu, so a nu scaled by a
constant passes them all.  There the comparison of both edge maps with
the oracle in ``tests/test_factored_quotient.py`` is the guard.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, product

from .actions import (
    Action,
    CrossedModule,
    check_compatible,
    check_crossed,
    adjoint_action,
    identity_crossed,
    is_central,
    tensor_action,
)
from .algebras import (
    BracketNotWellDefined,
    LieSuperAlgebra,
    Projection,
    QuotientSpace,
    check_lie_axioms,
    engel_degree,
    factored_quotient_algebra,
    induced_action_table,
    induced_map,
    is_engel,
    iso_fault,
    quotient_algebra,
    quotient_space,
    series,
    subalgebra_on,
    abelianization,
)
from .fields import MathError, record
from .linalg import (
    Echelon,
    Matrix,
    Subspace,
    vec_axpy,
    vec_scale,
)
from .spaces import (
    GradedMap,
    SuperSpace,
    tensor_index,
    tensor_pair,
    tensor_space,
    tensor_vec,
    weight0_words,
)


class IncompatibleActions(ValueError, MathError):
    """The mutual actions fail the compatibility identities."""


class NotPerfect(ValueError, MathError):
    """A universal central extension was requested for a non-perfect algebra."""


class CrossedModuleMismatch(ValueError):
    """Exterior product inputs are not crossed modules over a common base."""


@record
class TensorProduct:
    """The non-abelian tensor product together with its certified structure."""

    m: LieSuperAlgebra
    n: LieSuperAlgebra
    act_mn: Action
    act_nm: Action
    d_generators: Subspace       # D(M, N) inside the plain M (x) N, row-major pair basis
    quotient: QuotientSpace      # T / D(M, N), labeled like the product's basis
    algebra: LieSuperAlgebra     # the product with its bracket
    mu: GradedMap                # to M
    nu: GradedMap                # to N
    action_m: Action             # induced action of M on the product
    action_n: Action             # induced action of N on the product
    cross_m: CrossedModule
    cross_n: CrossedModule

    @property
    def im_mu(self) -> Subspace:
        return self.mu.image()

    @property
    def im_nu(self) -> Subspace:
        return self.nu.image()


def _family_i(act_m, nu: Matrix, ms: SuperSpace, ns: SuperSpace, pairs):
    """Generators a.x - a (x) nu(x) of D(M, N), for the pairs (a, x) of a
    basis element a of M and a basis tensor x, with act_m the action of M
    on M (x) N."""
    for a, t in pairs:
        g = act_m(a, {t: 1})
        vec_axpy(g, -1, tensor_vec(ms, ns, {a: 1}, nu.cols[t]))
        yield g


def _family_ii(act_n, mu: Matrix, plain: SuperSpace, ms: SuperSpace, ns: SuperSpace, pairs):
    """Generators -(-1)^{|b||x|} b.x - mu(x) (x) b of D(M, N), for the
    pairs (x, b) of a basis tensor x of ``plain`` = M (x) N and a basis
    element b of N, with act_n the action of N on M (x) N."""
    px, pn = plain.parities, ns.parities
    for t, b in pairs:
        g = vec_scale(act_n(b, {t: 1}), 1 if px[t] & pn[b] else -1)
        vec_axpy(g, -1, tensor_vec(ms, ns, mu.cols[t], {b: 1}))
        yield g


def _weight_blocks(P: LieSuperAlgebra, adj: Action):
    """The generators of D(P, P) that the weight blocks of the adjoint
    square need (see the module docstring): the pairs (x, c) of a basis
    tensor x and a basis element c of total weight 0, which give family
    (ii) and, reversed, family (i), and one pair (h_k, x) of family (i) per
    basis tensor x of nonzero weight w, k the first index with w_k != 0,
    leaving out the x in h_k (x) P, whose generator is 0.  None when P has
    no inner grading; adj is the adjoint action of P."""
    hs, wt, _ = P.inner_torus(adj)
    if not hs:
        return None
    reduce, dim = P.field.reduce, P.dim
    # the words (i, j) closed by c: x = e_i (x) e_j row-major, c ascending
    closed = [(tensor_index(dim, i, j), c)
              for (i, j), c in weight0_words(P.field, wt, [0] * dim, wt, 2)[2]]
    # x of nonzero weight against the first h_k with w_k != 0; a pair of
    # weight 0 gets h = i and is left out, as is x in h_k (x) P
    spanning = [(h, x) for x, (i, j) in enumerate(map(partial(tensor_pair, dim), range(dim * dim)))
                if (h := next((h for h, a, b in zip(hs, wt[i], wt[j]) if reduce(a + b)), i)) != i]
    return closed, spanning


def _streamed(L: LieSuperAlgebra, a: Action, adjoint: bool):
    """The basis elements of L that stream the relation family of its
    action ``a`` on the other factor: the generating set of L when L
    satisfies the Lie axioms and ``a`` is certified, every basis element
    otherwise (see the module docstring).  On the adjoint square ``a`` is
    ad, and the Lie axioms of L have passed; any other ``a`` must have
    passed :func:`~superlie.actions.check_action`, and no certificate is
    run here."""
    gens = (adjoint or a._checked) and L._generators
    return gens or range(L.dim)


def nonabelian_tensor(M: LieSuperAlgebra, N: LieSuperAlgebra,
                      act_mn: Action, act_nm: Action) -> TensorProduct:
    """Construct M (x) N from compatible mutual actions: act_mn of M on N,
    act_nm of N on M, on these very objects (ValueError otherwise).
    Family (i) streams a over the generating set of M when M passed
    check_lie_axioms and act_mn passed check_action, and family (ii) b
    over that of N likewise with act_nm; on the adjoint square both need
    only the Lie axioms of P.  Otherwise every basis element streams."""
    if act_mn.actor is not M or act_mn.target is not N:
        raise ValueError("actions are not between the same pair of algebras")

    field = M.field
    dm, dn = M.dim, N.dim
    ms, ns = M.space, N.space
    pm, pn = ms.parities, ns.parities
    plain = tensor_space(ms, ns)

    pairs = [tensor_pair(dn, t) for t in range(plain.dim)]
    # the edge maps on the plain pair basis: mu(m (x) n) = -(-1)^{|m||n|} n.m
    # and nu(m (x) n) = m.n; the bracket is B(u, v) = mu(u) (x) nu(v)
    mu_plain = Matrix(field, dm, [field.clean(vec_scale(act_nm.act_basis(j, i),
                                                        1 if pm[i] * pn[j] else -1))
                                  for (i, j) in pairs])
    nu_plain = Matrix(field, dn, [act_mn.act_basis(i, j) for (i, j) in pairs])
    # the induced actions of M and N on the plain M (x) N, which give both
    # the relation families and the actions on classes
    adj_m = adjoint_action(M)
    # the adjoint square: one adjoint action serves both sides, so mu = nu
    # and M and N act on M (x) N by the same operators, and the actions are
    # compatible by the storage rule alone (module docstring)
    adjoint = M is N and act_mn is act_nm and act_mn.table == adj_m.table
    if not adjoint:
        check_compatible(act_mn, act_nm).require(IncompatibleActions, "actions are not compatible")
    act_m = tensor_action(adj_m, act_mn)
    act_n = act_m if adjoint else tensor_action(act_nm, adj_m if N is M else adjoint_action(N))

    if adjoint and M._generators is None:
        # the weight blocks rest on D(P, P) in Ker mu, and the generating
        # sets on the Lie action of P on T: both are graded Jacobi, which a
        # memoized generating set has already certified
        check_lie_axioms(M).require(BracketNotWellDefined, "the weight blocks and "
                                    "generating sets of D(P, P) need the Lie axioms of P")
    blocks = _weight_blocks(M, adj_m) if adjoint else None
    if blocks is None:
        s_m = _streamed(M, act_mn, adjoint)
        s_n = s_m if adjoint else _streamed(N, act_nm, False)
        xs = range(len(pairs))
        pairs_i, pairs_ii, spanning = product(s_m, xs), product(xs, s_n), ()
    else:
        closed, spanning = blocks
        gens = set(M._generators)
        pairs_ii = [(x, c) for x, c in closed if c in gens]
        pairs_i = [(c, x) for x, c in pairs_ii]

    acc = Echelon(field, plain.dim)
    for g in chain(_family_i(act_m, nu_plain, ms, ns, pairs_i),
                   _family_ii(act_n, mu_plain, plain, ms, ns, pairs_ii)):
        g = field.clean(g)
        if g and not acc.contains(g):
            acc.insert(g)
    # a block of nonzero weight: its generators are independent, so no
    # membership test is needed
    for g in _family_i(act_m, nu_plain, ms, ns, spanning):
        acc.insert(g)
    d_sub = acc.subspace()
    del acc  # its semi-reduced rows are not read again; free them before the certificates
    quot = quotient_space(plain, Subspace.full(field, plain.dim), d_sub, "t")

    mu = induced_map(quot, ms, mu_plain.apply)
    nu = mu if adjoint else induced_map(quot, ns, nu_plain.apply)
    algebra = factored_quotient_algebra(quot, mu, nu, partial(tensor_vec, ms, ns),
                                        name=f"{M.name or 'M'}(x){N.name or 'N'}")
    action_m = Action(M, algebra, induced_action_table(quot, dm, act_m))
    cross_m = CrossedModule(algebra, M, mu, action_m)
    if adjoint:
        action_n, cross_n = action_m, cross_m
        crossed = ((cross_m, "mu = nu"),)
    else:
        action_n = Action(N, algebra, induced_action_table(quot, dn, act_n))
        cross_n = CrossedModule(algebra, N, nu, action_n)
        crossed = ((cross_m, "mu"), (cross_n, "nu"))
    for cr, label in crossed:
        check_crossed(cr).require(BracketNotWellDefined,
                                  f"({label}) fails the crossed module certificate")

    return TensorProduct(m=M, n=N, act_mn=act_mn, act_nm=act_nm, d_generators=d_sub,
                         quotient=quot, algebra=algebra, mu=mu, nu=nu, action_m=action_m,
                         action_n=action_n, cross_m=cross_m, cross_n=cross_n)


def adjoint_tensor_square(P: LieSuperAlgebra) -> TensorProduct:
    """P (x) P with the mutual adjoint actions (memoized on P)."""
    if P._tensor_square is None:
        adj = adjoint_action(P)
        P._tensor_square = nonabelian_tensor(P, P, adj, adj)
    return P._tensor_square


def induced_tensor_map(src: TensorProduct, dst: TensorProduct,
                       f_m: GradedMap, f_n: GradedMap) -> GradedMap:
    """The map src -> dst induced by an action-preserving pair (f_m, f_n):
    f_m (x) f_n on the plain tensor products, certified by
    :func:`~superlie.algebras.induced_map` to carry D(src) into D(dst)."""
    images_m = [f_m.apply({i: 1}) for i in range(src.m.dim)]
    images_n = [f_n.apply({j: 1}) for j in range(src.n.dim)]

    def plain(v: dict) -> dict:
        out: dict = {}
        for t, c in v.items():
            i, j = tensor_pair(src.n.dim, t)
            vec_axpy(out, c, tensor_vec(dst.m.space, dst.n.space, images_m[i], images_n[j]))
        return out

    return induced_map(src.quotient, dst.quotient, plain)


def tensor_symmetry_iso(t: TensorProduct) -> tuple[GradedMap, TensorProduct]:
    """The isomorphism M (x) N -> N (x) M, m (x) n -> -(-1)^{|m||n|} n (x) m,
    verified to descend, bijective and bracket preserving.  When M is N with
    one action on both sides, N (x) M is the construction of t itself, and
    the isomorphism is the graded swap induced on t's quotient."""
    one = t.m is t.n and t.act_mn is t.act_nm
    swapped = t if one else nonabelian_tensor(t.n, t.m, t.act_nm, t.act_mn)
    dm, dn = t.m.dim, t.n.dim
    pm, pn = t.m.space.parities, t.n.space.parities
    # m_i (x) n_j -> -(-1)^{|m_i||n_j|} n_j (x) m_i, by position
    swap = [(tensor_index(dm, j, i), 1 if pm[i] * pn[j] else -1)
            for i, j in map(partial(tensor_pair, dn), range(dm * dn))]
    iso = induced_map(t.quotient, swapped.quotient,
                      lambda v: {swap[x][0]: swap[x][1] * c for x, c in v.items()})
    if fault := iso_fault(iso, t.algebra, swapped.algebra):
        raise BracketNotWellDefined(f"symmetry {fault}")
    return iso, swapped


def trivial_action_tensor(M: LieSuperAlgebra, N: LieSuperAlgebra) -> SuperSpace:
    """The plain tensor product of the abelianizations, M^ab (x) N^ab."""
    mab, _ = abelianization(M)
    nab, _ = abelianization(N)
    return tensor_space(mab.space, nab.space)


@record
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

    numbers: dict = {}
    checks: list[tuple[str, bool]] = []
    for inv, prop, (c, on_t, on_n) in (
            ("class", "nilpotent", (s_m.nil_class, s_t.nil_class, s_n.nil_class)),
            ("length", "solvable", (s_m.derived_length, s_t.derived_length, s_n.derived_length))):
        numbers.update({f"{inv}([M,N]^M)": c, f"{inv}(M(x)N)": on_t, f"{inv}([M,N]^N)": on_n})
        if c is None:
            continue
        checks.append((f"M(x)N {prop}", on_t is not None))
        checks.append((f"[M,N]^N {prop}", on_n is not None))
        if on_t is not None:
            checks.append((f"{c} <= {inv}(M(x)N) <= {c}+1", c <= on_t <= c + 1))
        if on_n is not None:
            checks.append((f"{inv}([M,N]^N) <= {c}+1", on_n <= c + 1))
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


@record
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
    dm, field = M.dim, M.field
    # pullback X = {(m, n) : dM(m) = dN(n)} inside M + N
    cols = cm_m.boundary.matrix.cols + [vec_scale(c, -1) for c in cm_n.boundary.matrix.cols]
    rows = Matrix(field, cm_m.p.dim, cols).kernel_basis().rows
    m_plus_n = SuperSpace(field, tuple(f"m.{l}" for l in M.space.labels)
                          + tuple(f"n.{l}" for l in N.space.labels),
                          M.space.parities + N.space.parities)
    parity_of = [m_plus_n.parity_of_vec(r) for r in rows]
    if None in parity_of:
        raise CrossedModuleMismatch("pullback basis is not homogeneous")
    part_m = [{k: c for k, c in r.items() if k < dm} for r in rows]
    part_n = [{k - dm: c for k, c in r.items() if k >= dm} for r in rows]

    # m_a (x) n_b + (-1)^{|a||b|} m_b (x) n_a over the pullback rows a <= b:
    # twice m_a (x) n_a for an even a = b, and 0 for an odd one, left out
    gens = []
    for a in range(len(rows)):
        for b in range(a + parity_of[a], len(rows)):
            g = tensor_vec(M.space, N.space, part_m[a], part_n[b])
            sgn = -1 if parity_of[a] * parity_of[b] else 1
            vec_axpy(g, sgn, tensor_vec(M.space, N.space, part_m[b], part_n[a]))
            if g:
                gens.append(g)
    square_rows = [t.quotient.reduce(g) for g in gens]
    square = Subspace(field, t.algebra.dim, [r for r in square_rows if r])

    if not is_central(t.algebra, square):
        raise BracketNotWellDefined("square ideal is not central in the product")

    algebra, proj = quotient_algebra(t.algebra, square,
                                     name=f"{M.name or 'M'}(^){N.name or 'N'}")
    # the edge maps descend: both kill the square ideal
    mu = induced_map(proj.quotient, M.space, t.mu.apply)
    nu = induced_map(proj.quotient, N.space, t.nu.apply)
    return ExteriorProduct(t, square, algebra, proj, mu, nu)


def exterior_square(P: LieSuperAlgebra) -> ExteriorProduct:
    """P (^) P via the identity crossed module (memoized on P)."""
    if P._exterior_square is None:
        cid = identity_crossed(P)
        P._exterior_square = nonabelian_exterior(adjoint_tensor_square(P), cid, cid)
    return P._exterior_square


# ---------------------------------------------------------------------------
# universal central extensions


@record
class CentralExtension:
    total: LieSuperAlgebra
    base: LieSuperAlgebra
    proj: GradedMap
    kernel: Subspace
    kernel_dims: tuple[int, int]
    tensor: TensorProduct


def _is_perfect(L: LieSuperAlgebra) -> bool:
    """[L, L] = L, without the series and the center that :func:`series` builds."""
    full = L.full_subspace()
    return L.product_subspace(full, full).dim == L.dim


def uce(P: LieSuperAlgebra) -> CentralExtension:
    """The universal central extension P (x) P ->> P of a perfect P, with the
    kernel reported per parity (it realizes the second homology)."""
    if not _is_perfect(P):
        raise NotPerfect("universal central extensions require a perfect algebra")
    t = adjoint_tensor_square(P)
    proj = t.nu  # p (x) p' -> p.p' = [p, p'] under the adjoint actions
    if proj.matrix.rank() != P.dim:
        raise BracketNotWellDefined("central extension map is not surjective")
    # Ker nu is central: on the adjoint square nu is mu, the boundary of
    # t.cross_m, and k in Ker mu gives [k, x] = mu(k).x = 0 by the Peiffer
    # identity that check_crossed has certified
    ker = proj.kernel()
    if not _is_perfect(t.algebra):
        raise BracketNotWellDefined("tensor square of a perfect algebra must be perfect")
    dims = t.algebra.space.split_dims(ker.rows)
    return CentralExtension(t.algebra, P, proj, ker, dims, t)
