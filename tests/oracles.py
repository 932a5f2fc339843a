"""Independent oracles used by the tests.

These deliberately avoid the production code paths: the free Lie
superalgebra dimensions come from a magma-quotient construction, the
matrix superalgebra bracket is recomputed by multiplying explicit
matrices entry by entry, the canonical row echelon form comes from dense
Gauss–Jordan elimination, reductions against a canonical subspace walk
every row instead of the vector's own pivot entries, and the relation space of the non-abelian tensor
product is spanned by all five generator families, including families
(iii)-(v), which the production construction omits.  Wedge
signs are counted inversion by inversion, HC_0 is read off A/[A, A]
directly instead of from the Connes complex, the Connes complex takes
Im(1 - t_n) by elimination over every basis tuple instead of from the
rotation orbits (its weight-0 block filtered from every basis tuple by
weights read densely from the products of basis vectors, instead of
enumerated from ``inner_weights``, and its top by elimination of the
block's unit vectors), and the Chevalley–Eilenberg
complex is built on every chain instead of the weight-0 chains only; its
weight-0 chains are also enumerated from every canonical monomial,
where the production code prunes the prefixes that cannot reach weight 0.
Ideal closures, [L, I] and the ideal certificate bracket every basis
element with every row, zero brackets included, where the production
code reads only the nonzero brackets from its bracket index; likewise
the Jacobi, associativity, action and compatibility certificates
evaluate their identities on every basis triple, and supercommutativity
on every basis pair, where the production code sums each
defect from the nonzero structure and action constants only; both stop
at the first MAX_VIOLATIONS violations of every kind.  I(A) and the
Milnor relations are eliminated from the graded-symmetric generators over
basis pairs, the cyclic relations through the public product and
a (x) bc - (-1)^{|b||c|} a (x) cb over basis triples, where the production
code takes Im(1 - t_1) from the rotation orbits and A (x) [A, A] from the
commutators of the stored products.  The
boundary-hom, equivariance and Peiffer certificates of a crossed module
evaluate every basis pair through the public bracket and action, where
the production code reads one intertwining defect per operator row.
[A, A] is the span of the commutators, where the production code takes
the image of the commutator map of the HC_1 kernel model.  The
bracket of V(A) is summed slot by slot and checked to preserve I(A) by
bracketing every row of I(A) with every basis tensor, where the
production code factors it through the commutator map.  The action on a
tensor product fills each image densely, coefficient by coefficient,
where the production code reads the nonzero action constants.  Brackets,
products and actions of vectors are summed over every basis pair, where
the production code reads one row index; a bracket table is evaluated
on every stored pair of basis indices, where ``from_bracket`` takes sparse
rows that its callers fill from the nonzero brackets, products and
actions only; intersections of subspaces come from a dense kernel, where
the production code returns the smaller span when the larger one
contains it; a kernel is eliminated twice, once in the natural column
order and once more as the span of the vectors read off that RREF, where
the production code reverses the columns and reads the canonical kernel
off one elimination; spans are inserted in the order given, where the
production code inserts the sparsest vectors first; the action tables of
an ideal and of a pullback are filled entry by entry through the public
bracket and action, where the production code spreads rows.
The module also holds the helpers that only tests use: algebras in a
permuted, rescaled basis, bracket actions between subalgebra views,
relators as graded vectors, and the bundled corpus files regenerated from
the public constructors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, islice, product
from pathlib import Path

from superlie.actions import Action, ActionInvalid, CrossedModule, adjoint_action, check_action
from superlie.algebras import (
    MAX_VIOLATIONS,
    AssocSuperAlgebra,
    AxiomReport,
    LieSuperAlgebra,
    Violation,
    abelian,
    ground_assoc,
    heisenberg,
    induced_map,
    is_graded_ideal,
    lie_from_assoc,
    matrix_assoc,
    matrix_gl,
    matrix_sl,
    quotient_space,
    series,
    subalgebra_on,
)
from superlie.cyclic import dual_numbers, grassmann_line, hc1_kernel_model
from superlie.fields import QQ, Field
from superlie.homology import ChainComplex
from superlie.io import action_to_json, algebra_to_json, dump_json
from superlie.linalg import Echelon, Subquotient, Subspace, vec_axpy, vec_clean, vec_scale, vec_sub
from superlie.spaces import (
    GradedMap,
    SuperSpace,
    exterior_power,
    superspace,
    tensor_power_space,
    tensor_vec,
    wedge_normalize,
)


# ---------------------------------------------------------------------------
# Koszul signs of wedge permutations, inversion by inversion


def koszul_sign(perm: list[int], parities: list[int]) -> int:
    """Sign of sorting wedge factors by perm: each inversion (i<j, perm[i]>perm[j])
    contributes -(-1)^{p_i p_j}."""
    if len(perm) != len(parities):
        raise ValueError("permutation and parity list differ in length")
    sign = 1
    n = len(perm)
    for i in range(n):
        for j in range(i + 1, n):
            if perm[i] > perm[j]:
                sign *= -1 if (parities[i] * parities[j]) == 0 else 1
    return sign


# ---------------------------------------------------------------------------
# HC_0 of an associative superalgebra as A/[A, A]


def commutator_subspace(A: AssocSuperAlgebra) -> Subspace:
    """[A, A]: the span of graded commutators ab - (-1)^{|a||b|} ba."""
    lie = lie_from_assoc(A)
    return lie.product_subspace(lie.full_subspace(), lie.full_subspace())


def hc0_direct(A: AssocSuperAlgebra) -> tuple[int, int]:
    """HC_0 = A/[A, A] computed directly."""
    comm = commutator_subspace(A)
    q = quotient_space(A.space, Subspace.full(A.field, A.dim), comm, "h0.")
    return q.dims


# ---------------------------------------------------------------------------
# the Connes complex by elimination over every basis tuple


def _flat_index(t: tuple, d: int) -> int:
    idx = 0
    for k in t:
        idx = idx * d + k
    return idx


def _hochschild_oracle(A: AssocSuperAlgebra, n: int, v: dict) -> dict:
    """d'_n(v) summed tuple by tuple: every face of every basis tuple of v,
    each product taken through the public product of A."""
    d, par = A.dim, A.space.parities
    out: dict = {}
    for x, cx in v.items():
        t = []
        for _ in range(n + 1):
            x, k = divmod(x, d)
            t.insert(0, k)
        faces = [(-1 if i % 2 else 1, t[:i], (i, i + 1), t[i + 2:]) for i in range(n)]
        twist = (n + par[t[n]] * sum(par[k] for k in t[:n])) % 2
        faces.append((-1 if twist else 1, [], (n, 0), t[1:n]))
        for sign, head, (a, b), tail in faces:
            for e, c in A.product({t[a]: 1}, {t[b]: 1}).items():
                key = _flat_index((*head, e, *tail), d)
                out[key] = out.get(key, 0) + sign * cx * c
    return A.field.clean(out)


def assoc_weights_dense(A: AssocSuperAlgebra) -> list[list]:
    """lambda for every even basis element e with e a_i - a_i e a multiple
    lambda[i] a_i of a_i for every i and some lambda[i] nonzero, from the
    public product of basis vectors."""
    out = []
    for e in range(A.dim):
        if A.space.parities[e]:
            continue
        images = [vec_sub(A.product({e: 1}, {i: 1}), A.product({i: 1}, {e: 1}))
                  for i in range(A.dim)]
        images = [A.field.clean(v) for v in images]
        if all(set(v) <= {i} for i, v in enumerate(images)):
            lam = [A.field.of(v.get(i, 0)) for i, v in enumerate(images)]
            if any(lam):
                out.append(lam)
    return out


def connes_oracle(A: AssocSuperAlgebra, max_n: int, weight0: bool = False):
    """The coinvariant spaces C_n = A^{(x)(n+1)}/Im(1 - t_n) and the induced
    boundaries of the Connes complex, with the labels of
    :func:`~superlie.cyclic.connes`: Im(1 - t_n) by elimination of
    e_t - t_n e_t over every basis tuple t, and d'_n by
    :func:`_hochschild_oracle`.  With ``weight0`` only over the tuples
    whose weight sum lambda(t_i), summed as integers or rationals and then
    taken into the field, is 0 for every lambda of
    :func:`assoc_weights_dense`: C_n is indexed by their positions in the
    row-major order, labelled from the tensor power, and its top is
    eliminated from the unit vectors when there is such a lambda."""
    d, par = A.dim, A.space.parities
    weights = assoc_weights_dense(A) if weight0 else []
    coinv, blocks, positions = [], [], []
    for n in range(max_n + 1):
        full = tensor_power_space(A.space, n + 1)
        tuples = list(product(range(d), repeat=n + 1))
        block = [idx for idx, t in enumerate(tuples)
                 if not any(A.field.of(sum(lam[k] for k in t)) for lam in weights)]
        position = {idx: i for i, idx in enumerate(block)}
        sp = SuperSpace(A.field, tuple(full.labels[idx] for idx in block),
                        tuple(full.parities[idx] for idx in block))
        acc = Echelon(A.field, sp.dim)
        for i, idx in enumerate(block):
            t = tuples[idx]
            twist = (n + par[t[n]] * sum(par[k] for k in t[:n])) % 2
            g = {i: 1}
            r = position[_flat_index(t[n:] + t[:n], d)]
            g[r] = g.get(r, 0) - (-1 if twist else 1)
            acc.insert(vec_clean(g))
        top = (Subspace(A.field, sp.dim, [{i: 1} for i in range(sp.dim)]) if weights
               else Subspace.full(A.field, sp.dim))
        coinv.append(quotient_space(sp, top, acc.subspace(), f"c{n}."))
        blocks.append(block)
        positions.append(position)

    def boundary(n: int, v: dict) -> dict:
        image = _hochschild_oracle(A, n, {blocks[n][i]: c for i, c in v.items()})
        return {positions[n - 1][idx]: c for idx, c in image.items()}

    boundaries = [None] + [induced_map(coinv[n], coinv[n - 1], partial(boundary, n))
                           for n in range(1, max_n + 1)]
    return coinv, boundaries


# ---------------------------------------------------------------------------
# reduced row echelon form by dense Gauss–Jordan elimination


def rref_oracle(field, ambient: int, vectors) -> list[dict]:
    """The RREF rows (pivot entry 1, sorted by pivot) of the span of sparse
    vectors, by dense Gauss–Jordan elimination over Fractions, or over
    residues mod p."""
    p = field.p
    if p is None:
        m = [[Fraction(v.get(j, 0)) for j in range(ambient)] for v in vectors]
    else:
        m = [[v.get(j, 0) % p for j in range(ambient)] for v in vectors]
    r = 0
    for col in range(ambient):
        hit = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if hit is None:
            continue
        m[r], m[hit] = m[hit], m[r]
        inv = 1 / m[r][col] if p is None else pow(m[r][col], -1, p)
        m[r] = [a * inv if p is None else a * inv % p for a in m[r]]
        for i in range(len(m)):
            f = m[i][col]
            if i != r and f != 0:
                m[i] = [a - f * b if p is None else (a - f * b) % p
                        for a, b in zip(m[i], m[r])]
        r += 1
    return [{j: c for j, c in enumerate(row) if c != 0} for row in m[:r]]


def field_normal(field, v: dict) -> bool:
    """Every value is nonzero and in normal form: a residue 1..p-1, or over
    Q an int when integral and a Fraction only when not."""
    if field.p is not None:
        return all(type(c) is int and 0 < c < field.p for c in v.values())
    return all(c != 0 and (type(c) is int or type(c) is Fraction and c.denominator != 1)
               for c in v.values())


def span_in_given_order(field, ambient: int, vectors) -> Subspace:
    """The canonical span of the vectors, inserted into one accumulator in
    the order given."""
    acc = Echelon(field, ambient)
    for v in vectors:
        acc.insert(v)
    return acc.subspace()


def kernel_two_pass(m) -> Subspace:
    """The kernel of a Matrix in two eliminations: the rows in the natural
    column order, one vector per free column j read off that RREF (e_j
    minus the pivot rows' entries in column j), and then the span of those
    vectors, inserted in the order read."""
    rref = span_in_given_order(m.field, m.ncols, m.row_list())
    kernel = {j: {j: 1} for j in range(m.ncols) if j not in rref.pivots}
    for piv, row in zip(rref.pivots, rref.rows):
        for j, c in row.items():
            if j != piv:
                kernel[j][piv] = m.field.neg(c)
    return span_in_given_order(m.field, m.ncols, kernel.values())


# ---------------------------------------------------------------------------
# reduction against a canonical subspace, row by row


def reduce_all_rows(sub: Subspace, v: dict) -> dict:
    """Residual of v against the canonical rows of sub: walk every row in
    order, recompute its pivot, and clear that pivot from the vector."""
    p = sub.field.p

    def clean(w: dict) -> dict:
        return {k: (c % p if p is not None else c) for k, c in w.items()
                if (c % p if p is not None else c) != 0}

    work = clean(v)
    for row in sub.rows:
        piv = min(row)
        c = work.get(piv)
        if c:
            for k, d in row.items():
                work[k] = work.get(k, 0) - c * d
            work = clean(work)
    return work


def kernel_oracle(field, ncols: int, equations) -> list[dict]:
    """The RREF rows of {x : e . x = 0 for every equation e}, by dense
    Gauss–Jordan elimination: one vector per free column f of the
    equations' RREF (x_f = 1, minus the pivot rows' entries in column f),
    then the RREF of those vectors."""
    rref = rref_oracle(field, ncols, equations)
    pivots = [min(r) for r in rref]
    vectors = []
    for f in range(ncols):
        if f not in pivots:
            x = {f: 1}
            for piv, r in zip(pivots, rref):
                if f in r:
                    x[piv] = field.neg(r[f])
            vectors.append(x)
    return rref_oracle(field, ncols, vectors)


def intersect_oracle(a: Subspace, b: Subspace) -> list[dict]:
    """The RREF rows of the intersection of a and b, by dense Gauss–Jordan
    elimination: the kernel of the stacked system sum x_j a_j = sum y_k b_k,
    mapped to the combinations of the rows of a."""
    field, da = a.field, a.dim
    cols = [dict(r) for r in a.rows] + [{k: field.neg(c) for k, c in r.items()} for r in b.rows]
    eqs = [{j: col[i] for j, col in enumerate(cols) if i in col} for i in range(a.ambient)]
    vectors = []
    for x in kernel_oracle(field, len(cols), eqs):
        out: dict = {}
        for j, c in x.items():
            if j < da:
                vec_axpy(out, c, a.rows[j])
        vectors.append(out)
    return rref_oracle(field, a.ambient, vectors)


def quotient_coords_all_rows(sq: Subquotient, v: dict) -> dict | None:
    """Section coordinates ``{k: c}`` of v in top/bottom by row-by-row
    reductions, or None if v is outside top: reduce by bottom, then read
    the section pivots (section rows vanish at the pivots of bottom)."""
    if reduce_all_rows(sq.top, v):
        return None
    r = reduce_all_rows(sq.bottom, v)
    return {k: r[min(s)] for k, s in enumerate(sq.section) if min(s) in r}


# ---------------------------------------------------------------------------
# free Lie superalgebra dimensions via the free magma modulo relations


def _trees(gens: int, degree: int):
    """All binary trees with `degree` leaves labeled by generators."""
    if degree == 1:
        return [g for g in range(gens)]
    out = []
    for left in range(1, degree):
        for a in _trees(gens, left):
            for b in _trees(gens, degree - left):
                out.append((a, b))
    return out


def _tree_parity(t, parities):
    if isinstance(t, int):
        return parities[t]
    return (_tree_parity(t[0], parities) + _tree_parity(t[1], parities)) % 2


def magma_quotient_dims(parities: list[int], max_degree: int) -> list[int]:
    """Degree component dimensions of the free Lie superalgebra on
    generators of the given parities, by quotienting the free magma
    algebra by the ideal generated by graded antisymmetry, the graded
    Jacobi identity, and the vanishing of even squares, with the
    relation arguments ranging over all homogeneous elements degree by
    degree (basis trees suffice by multilinearity)."""
    gens = len(parities)
    trees = {d: _trees(gens, d) for d in range(1, max_degree + 1)}
    index = {d: {t: i for i, t in enumerate(trees[d])} for d in trees}

    def mul(u: dict, v: dict, du: int, dv: int) -> dict:
        """Product of component vectors: (t1, t2) trees concatenated."""
        out: dict = {}
        tgt = index[du + dv]
        tu, tv = trees[du], trees[dv]
        for a, ca in u.items():
            for b, cb in v.items():
                k = tgt[(tu[a], tv[b])]
                out[k] = out.get(k, 0) + ca * cb
        return out

    def unit(d: int, i: int) -> dict:
        return {i: 1}

    # relation spans per degree
    rel: dict[int, Echelon] = {d: Echelon(QQ, len(trees[d])) for d in trees}
    # (a) xy + (-1)^{|x||y|} yx for homogeneous x, y (basis trees by degree)
    for d in range(2, max_degree + 1):
        for da in range(1, d):
            db = d - da
            for i, ta in enumerate(trees[da]):
                pa = _tree_parity(ta, parities)
                for j, tb in enumerate(trees[db]):
                    pb = _tree_parity(tb, parities)
                    g = mul({i: 1}, {j: 1}, da, db)
                    s = -1 if pa * pb else 1
                    for k, c in mul({j: 1}, {i: 1}, db, da).items():
                        g[k] = g.get(k, 0) + s * c
                    rel[d].insert({k: c for k, c in g.items() if c})
        # (c) x0 x0 for even homogeneous x0 (polarized by (a); squares added here)
        if d % 2 == 0:
            da = d // 2
            for i, ta in enumerate(trees[da]):
                if _tree_parity(ta, parities) == 0:
                    rel[d].insert(mul({i: 1}, {i: 1}, da, da))
    # (b) graded Jacobi for homogeneous x, y, z
    for d in range(3, max_degree + 1):
        for da in range(1, d - 1):
            for db in range(1, d - da):
                dc = d - da - db
                if dc < 1:
                    continue
                for i, ta in enumerate(trees[da]):
                    pa = _tree_parity(ta, parities)
                    for j, tb in enumerate(trees[db]):
                        pb = _tree_parity(tb, parities)
                        for k, tc in enumerate(trees[dc]):
                            pc = _tree_parity(tc, parities)
                            g: dict = {}
                            for s, (u, du, v, dv, w, dw) in (
                                (-1 if pa * pc else 1, (i, da, j, db, k, dc)),
                                (-1 if pb * pa else 1, (j, db, k, dc, i, da)),
                                (-1 if pc * pb else 1, (k, dc, i, da, j, db)),
                            ):
                                inner = mul({v: 1}, {w: 1}, dv, dw)
                                term = mul({u: 1}, inner, du, dv + dw)
                                for kk, cc in term.items():
                                    g[kk] = g.get(kk, 0) + s * cc
                            rel[d].insert({kk: cc for kk, cc in g.items() if cc})
    # two-sided ideal closure, degree by degree
    ideal: dict[int, Echelon] = {}
    for d in range(1, max_degree + 1):
        acc = Echelon(QQ, len(trees[d]))
        for r in rel[d].subspace().rows:
            acc.insert(dict(r))
        for da in range(1, d):
            db = d - da
            if db in ideal:
                for r in ideal[db].subspace().rows:
                    for i in range(len(trees[da])):
                        acc.insert(mul({i: 1}, dict(r), da, db))
                        acc.insert(mul(dict(r), {i: 1}, db, da))
        ideal[d] = acc
    return [len(trees[d]) - ideal[d].rank for d in range(1, max_degree + 1)]


# ---------------------------------------------------------------------------
# matrix superalgebra products by explicit matrix multiplication


def explicit_matrix_bracket(m: int, n: int, A: AssocSuperAlgebra,
                            i: int, j: int, t: int, k: int, l: int, u: int) -> dict:
    """[E_ij(a_t), E_kl(a_u)] computed by multiplying explicit matrices of
    A-valued entries, returned in the E-basis coordinates of gl(m,n,A)."""
    size = m + n
    rowpar = [0 if r < m else 1 for r in range(size)]
    par1 = (rowpar[i] + rowpar[j] + A.space.parities[t]) % 2
    par2 = (rowpar[k] + rowpar[l] + A.space.parities[u]) % 2

    def mat(i_, j_, vec):
        grid = [[{} for _ in range(size)] for _ in range(size)]
        grid[i_][j_] = dict(vec)
        return grid

    def matmul(x, y):
        out = [[{} for _ in range(size)] for _ in range(size)]
        for r in range(size):
            for c in range(size):
                acc: dict = {}
                for s in range(size):
                    xe, ye = x[r][s], y[s][c]
                    for a, ca in xe.items():
                        for b, cb in ye.items():
                            for e, ce in A.product_basis(a, b).items():
                                acc[e] = acc.get(e, 0) + ca * cb * ce
                out[r][c] = {e: c_ for e, c_ in acc.items() if c_ != 0}
        return out

    x = mat(i, j, {t: 1})
    y = mat(k, l, {u: 1})
    xy = matmul(x, y)
    yx = matmul(y, x)
    sgn = -1 if par1 * par2 else 1
    out: dict = {}
    dimA = A.dim
    for r in range(size):
        for c in range(size):
            for e, cv in xy[r][c].items():
                idx = (r * size + c) * dimA + e
                out[idx] = out.get(idx, 0) + cv
            for e, cv in yx[r][c].items():
                idx = (r * size + c) * dimA + e
                out[idx] = out.get(idx, 0) - sgn * cv
    return {k2: v for k2, v in out.items() if v != 0}


# ---------------------------------------------------------------------------
# brute-force wedge monomial count


def count_wedge_monomials(parities: list[int], n: int) -> int:
    """Enumerate sequences and count canonical super wedge monomials."""
    dim = len(parities)
    count = 0
    for combo in product(range(dim), repeat=n):
        if list(combo) != sorted(combo):
            continue
        ok = True
        for a, b in zip(combo, combo[1:]):
            if a == b and parities[a] == 0:
                ok = False
        if ok:
            count += 1
    return count


# ---------------------------------------------------------------------------
# relation space of the non-abelian tensor product, all five families


FAMILIES = ("i", "ii", "iii", "iv", "v")


def tensor_relations_oracle(M, N, act_mn, act_nm, families=FAMILIES) -> Subspace:
    """D(M, N) inside the plain M (x) N (row-major pair basis), spanned by
    generator families (i)-(iv) and the cyclic Jacobi-type family (v), or
    by the named subset of them:

      (i)   [m,m'] (x) n - m (x) m'.n + (-1)^{|m||m'|} m' (x) m.n
      (ii)  m (x) [n,n'] - (-1)^{|n'|(|m|+|n|)} n'.m (x) n + (-1)^{|m||n|} n.m (x) n'
      (iii) (n.m) (x) (m.n) for |m| = |n|
      (iv)  (-1)^{|m||n|} n.m (x) m'.n'
            + (-1)^{(|m|+|n|)(|m'|+|n'|)+|m'||n'|} n'.m' (x) m.n
      (v)   the cyclic sum over three pairs (m,n), (m',n'), (m'',n'') of
            (-1)^{(|m|+|n|)(|m''|+|n''|)+|m||n|+|m'||n'|} [n.m, n'.m'] (x) m''.n''
    """
    field = M.field
    dm, dn = M.dim, N.dim
    pm, pn = M.space.parities, N.space.parities
    pairs = [(i, j) for i in range(dm) for j in range(dn)]
    npairs = len(pairs)

    def ten(u: dict, v: dict) -> dict:
        return {i * dn + j: a * b for i, a in u.items() for j, b in v.items()}

    def add(dst: dict, coeff, src: dict) -> None:
        for k, c in src.items():
            dst[k] = dst.get(k, 0) + coeff * c

    def sign(e: int) -> int:
        return -1 if e % 2 else 1

    acc = Echelon(field, dm * dn)

    def feed(g: dict) -> None:
        g = field.clean(g)
        if g:
            acc.insert(g)

    nm = [act_nm.act_basis(j, i) for (i, j) in pairs]  # n.m in M
    mn = [act_mn.act_basis(i, j) for (i, j) in pairs]  # m.n in N
    par = [pm[i] + pn[j] for (i, j) in pairs]
    sig = [pm[i] * pn[j] for (i, j) in pairs]

    if "i" in families:
        for i in range(dm):
            for i2 in range(dm):
                for j in range(dn):
                    g = ten(M.bracket_basis(i, i2), {j: 1})
                    add(g, -1, ten({i: 1}, act_mn.act_basis(i2, j)))
                    add(g, sign(pm[i] * pm[i2]), ten({i2: 1}, act_mn.act_basis(i, j)))
                    feed(g)
    if "ii" in families:
        for i in range(dm):
            for j in range(dn):
                for j2 in range(dn):
                    g = ten({i: 1}, N.bracket_basis(j, j2))
                    add(g, -sign(pn[j2] * (pm[i] + pn[j])), ten(act_nm.act_basis(j2, i), {j: 1}))
                    add(g, sign(pm[i] * pn[j]), ten(act_nm.act_basis(j, i), {j2: 1}))
                    feed(g)
    if "iii" in families:
        for t, (i, j) in enumerate(pairs):
            if pm[i] == pn[j]:
                feed(ten(nm[t], mn[t]))
    if "iv" in families:
        for t1 in range(npairs):
            for t2 in range(npairs):
                g = {}
                add(g, sign(sig[t1]), ten(nm[t1], mn[t2]))
                add(g, sign(par[t1] * par[t2] + sig[t2]), ten(nm[t2], mn[t1]))
                feed(g)
    if "v" in families:
        # the generator is invariant under rotating the triple, so one
        # rotation of each triple suffices; it vanishes unless every pair
        # acts in some direction
        live = [t for t in range(npairs) if nm[t] or mn[t]]
        for k, t1 in enumerate(live):
            for t2 in live[k:]:
                for t3 in live[k:]:
                    if (t1, t2, t3) > (t2, t3, t1) or (t1, t2, t3) > (t3, t1, t2):
                        continue
                    g = {}
                    for a, b, c in ((t1, t2, t3), (t2, t3, t1), (t3, t1, t2)):
                        if nm[a] and nm[b] and mn[c]:
                            add(g, sign(par[a] * par[c] + sig[a] + sig[b]),
                                ten(M.bracket(nm[a], nm[b]), mn[c]))
                    feed(g)
    return acc.subspace()


# ---------------------------------------------------------------------------
# the action on a tensor product, slot by slot


def tensor_action_oracle(left, right) -> dict[tuple[int, int], dict]:
    """The constants {(a, t): a.(e_i (x) f_j)}, t = i * dim N + j, of the
    action of the common actor of ``left`` (on M) and ``right`` (on N) on
    the plain M (x) N, x.(m (x) n) = x.m (x) n + (-1)^{|x||m|} m (x) x.n.
    Each basis tensor's image is filled densely, one coefficient of
    e_k (x) f_j and of e_i (x) f_l at a time, zero constants included."""
    X, M, N = left.actor, left.target, right.target
    px, pm, dm, dn = X.space.parities, M.space.parities, M.dim, N.dim
    table = {}
    for a in range(X.dim):
        for i in range(dm):
            for j in range(dn):
                dense = [0] * (dm * dn)
                for k in range(dm):
                    dense[k * dn + j] += left.act_basis(a, i).get(k, 0)
                sign = -1 if px[a] and pm[i] else 1
                for l in range(dn):
                    dense[i * dn + l] += sign * right.act_basis(a, j).get(l, 0)
                v = X.field.clean(dict(enumerate(dense)))
                if v:
                    table[(a, i * dn + j)] = v
    return table


# ---------------------------------------------------------------------------
# the full Chevalley–Eilenberg complex: every chain, no weight reduction


def ce_complex_full(P, M, max_n: int):
    """The chain complex of P with coefficients in the P-module M up to
    degree max_n on every chain of the exterior powers: the construction
    loop as it was before the weight-0 reduction, kept as the oracle."""
    field = P.field
    par = P.space.parities
    msp = M.target.space
    dm = msp.dim
    spaces = []
    monos = []
    index_of = []
    for n in range(max_n + 1):
        wedge, mlist = exterior_power(P.space, n)
        labels = []
        parities = []
        for w_idx, m in enumerate(mlist):
            for t in range(dm):
                if dm == 1 and msp.labels[t] == "1":
                    labels.append(wedge.labels[w_idx])
                else:
                    labels.append(f"{wedge.labels[w_idx]}(x){msp.labels[t]}")
                parities.append((wedge.parities[w_idx] + msp.parities[t]) % 2)
        spaces.append(SuperSpace(field, tuple(labels), tuple(parities)))
        monos.append(mlist)
        index_of.append({m: i for i, m in enumerate(mlist)})

    boundaries = [None]
    for n in range(1, max_n + 1):
        cols = []
        for xs in monos[n]:
            pre_par = [par[x] for x in xs]
            for t in range(dm):
                col = {}
                for i in range(n):
                    acted = M.act_basis(xs[i], t)
                    if acted:
                        tail = sum(pre_par[k] for k in range(i + 1, n))
                        s = -1 if ((i + 1) + pre_par[i] * tail) % 2 else 1
                        rest = xs[:i] + xs[i + 1:]
                        w_idx = index_of[n - 1][rest]
                        for t2, c in acted.items():
                            key = w_idx * dm + t2
                            col[key] = col.get(key, 0) + s * c
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
                            key = index_of[n - 1][mono] * dm + t
                            col[key] = col.get(key, 0) + s * s2 * c
                cols.append(field.clean(col))
        boundaries.append(GradedMap.from_columns(spaces[n], spaces[n - 1], cols))
    chains = [[(m, t) for m in level for t in range(dm)] for level in monos]
    return ChainComplex(boundaries, P, M, spaces, chains)


def weight0_chains_oracle(P, dm: int, max_n: int, weights) -> list[list[tuple[tuple[int, ...], int]]]:
    """The chains (factors, t) of weight 0 per degree, in the order of the
    full complex, from every canonical monomial up to max_n: each weight is
    carried as a prefix sum and looked up once the monomial is complete,
    with no pruning of prefixes."""
    reduce = P.field.reduce
    par = P.space.parities
    lam = [tuple(w[0][i] for w in weights) for i in range(P.dim)]
    wanted: dict[tuple, list[int]] = {}
    for t in range(dm):
        wanted.setdefault(tuple(reduce(-w[1][t]) for w in weights), []).append(t)
    level = [((), tuple(0 for _ in weights))]
    chains = []
    for n in range(max_n + 1):
        chains.append([(f, t) for f, w in level for t in wanted.get(w, ())])
        if n < max_n:
            level = [(f + (i,), tuple(reduce(a + b) for a, b in zip(w, lam[i])))
                     for f, w in level
                     for i in range(f[-1] + 1 - par[f[-1]] if f else 0, P.dim)]
    return chains


# ---------------------------------------------------------------------------
# ideals and [L, I] by bracketing every basis element with every row


def ideal_closure_rounds(L, vectors) -> Subspace:
    """The ideal generated by the vectors, by rounds: each round brackets
    every basis element with every row of the span, old rows too, until a
    round adds nothing."""
    acc = Echelon(L.field, L.dim)
    for v in vectors:
        acc.insert(v)
    while True:
        rows = [dict(r) for r in acc.subspace().rows]
        grew = False
        for i in range(L.dim):
            for r in rows:
                if acc.insert(L.bracket({i: 1}, r)):
                    grew = True
        if not grew:
            return acc.subspace()


def missing_brackets(L, I: Subspace) -> list[tuple[int, int]]:
    """Every pair (i, k) whose bracket [e_i, row k of I] lies outside I."""
    return [(i, k) for i in range(L.dim) for k, r in enumerate(I.rows)
            if not I.contains_vec(L.bracket({i: 1}, r))]


def is_graded_ideal_all_brackets(L, I: Subspace) -> bool:
    """Whether the rows of I are homogeneous and no [e_i, r] leaves I."""
    return all(L.space.parity_of_vec(r) is not None for r in I.rows) \
        and not missing_brackets(L, I)


def product_subspace_pairs(L, a: Subspace, b: Subspace) -> Subspace:
    """[a, b] as the span of the bracket of every row of a with every row of b."""
    acc = Echelon(L.field, L.dim)
    for u in a.rows:
        for v in b.rows:
            acc.insert(L.bracket(u, v))
    return acc.subspace()


# ---------------------------------------------------------------------------
# Lie, associative, action and compatibility certificates on every basis triple


def first_violations(violations) -> AxiomReport:
    """The first MAX_VIOLATIONS violations of a search, of every kind."""
    found = list(islice(violations, MAX_VIOLATIONS))
    return AxiomReport(not found, found)


def check_lie_axioms_dense(L) -> AxiomReport:
    """check_lie_axioms with the Jacobi defect evaluated on every basis
    triple, and over F3 the odd cube on every odd basis element, through
    the public bracket, zero brackets included."""
    return first_violations(_lie_violations_dense(L))


def _lie_violations_dense(L):
    par = L.space.parities
    for (i, j), v in L.table.items():
        want = (par[i] + par[j]) % 2
        for k, c in v.items():
            if par[k] != want:
                yield Violation("parity", (i, j, k), {k: c})
    for i in range(L.dim):
        if par[i] == 0 and L.bracket_basis(i, i):
            yield Violation("even-square", (i, i), L.bracket_basis(i, i))
        for j in range(i + 1, L.dim):
            if par[i] == 0 and par[j] == 0:
                sym = dict(L.bracket_basis(i, j))
                vec_axpy(sym, 1, L.bracket_basis(j, i))
                if vec_clean(sym):
                    yield Violation("even-square", (i, j), sym)
    for i in range(L.dim):
        for j in range(L.dim):
            sgn = -1 if par[i] * par[j] else 1
            for k in range(L.dim):
                lhs = L.bracket({i: 1}, L.bracket_basis(j, k))
                rhs = L.bracket(L.bracket_basis(i, j), {k: 1})
                vec_axpy(rhs, sgn, L.bracket({j: 1}, L.bracket_basis(i, k)))
                defect = L.field.clean(vec_sub(lhs, rhs))
                if defect:
                    yield Violation("jacobi", (i, j, k), defect)
    if L.field.p == 3:  # [x, [x, x]] = 0 for odd x, not implied by Jacobi mod 3
        for i in range(L.dim):
            cube = L.field.clean(L.bracket({i: 1}, L.bracket_basis(i, i)))
            if par[i] == 1 and cube:
                yield Violation("odd-cube", (i,), cube)


def check_assoc_axioms_dense(A: AssocSuperAlgebra) -> AxiomReport:
    """check_assoc_axioms with associativity evaluated on every basis
    triple through the public product, zero products included."""
    return first_violations(_assoc_violations_dense(A))


def _assoc_violations_dense(A: AssocSuperAlgebra):
    par = A.space.parities
    for (i, j), v in A.table.items():
        want = (par[i] + par[j]) % 2
        for k, c in v.items():
            if par[k] != want:
                yield Violation("parity", (i, j, k), {k: c})
    for i in range(A.dim):
        for j in range(A.dim):
            for k in range(A.dim):
                lhs = A.product(A.product({i: 1}, {j: 1}), {k: 1})
                rhs = A.product({i: 1}, A.product({j: 1}, {k: 1}))
                defect = A.field.clean(vec_sub(lhs, rhs))
                if defect:
                    yield Violation("assoc", (i, j, k), defect)
    if A.unit is not None:
        for i in range(A.dim):
            left = A.product(A.unit, {i: 1})
            right = A.product({i: 1}, A.unit)
            for got, side in ((left, "unit-left"), (right, "unit-right")):
                defect = A.field.clean(vec_sub(got, {i: 1}))
                if defect:
                    yield Violation(side, (i,), defect)


def is_supercommutative_dense(A: AssocSuperAlgebra) -> bool:
    """e_i e_j = (-1)^{|i||j|} e_j e_i on every basis pair, through the
    public product."""
    par = A.space.parities
    for i in range(A.dim):
        for j in range(A.dim):
            sgn = -1 if par[i] * par[j] else 1
            d = vec_sub(A.product({i: 1}, {j: 1}), vec_scale(A.product({j: 1}, {i: 1}), sgn))
            if A.field.clean(d):
                return False
    return True


def check_action_dense(a: Action) -> AxiomReport:
    """check_action with both action axioms evaluated on every basis
    triple through the public bracket and action."""
    return first_violations(_action_violations_dense(a))


def _action_violations_dense(a: Action):
    P, M = a.actor, a.target
    pp, pm = P.space.parities, M.space.parities
    for (p, m), v in a.table.items():
        want = (pp[p] + pm[m]) % 2
        for k, c in v.items():
            if pm[k] != want:
                yield Violation("action-parity", (p, m, k), {k: c})
    for p in range(P.dim):
        for q in range(P.dim):
            sgn = -1 if pp[p] * pp[q] else 1
            for m in range(M.dim):
                lhs = a.act(P.bracket_basis(p, q), {m: 1})
                rhs = a.act({p: 1}, a.act_basis(q, m))
                vec_axpy(rhs, -sgn, a.act({q: 1}, a.act_basis(p, m)))
                defect = a.field.clean(vec_sub(lhs, rhs))
                if defect:
                    yield Violation("action-i", (p, q, m), defect)
    for p in range(P.dim):
        for m in range(M.dim):
            sgn = -1 if pp[p] * pm[m] else 1
            for m2 in range(M.dim):
                lhs = a.act({p: 1}, M.bracket_basis(m, m2))
                rhs = M.bracket(a.act_basis(p, m), {m2: 1})
                vec_axpy(rhs, sgn, M.bracket({m: 1}, a.act_basis(p, m2)))
                defect = a.field.clean(vec_sub(lhs, rhs))
                if defect:
                    yield Violation("action-ii", (p, m, m2), defect)


def check_compatible_dense(a_mn: Action, a_nm: Action) -> AxiomReport:
    """check_compatible on every basis triple, for a_mn an action of M on
    N and a_nm one of N on M."""
    return first_violations(_compatibility_violations_dense(a_mn, a_nm))


def _compatibility_violations_dense(a_mn: Action, a_nm: Action):
    M, N = a_mn.actor, a_mn.target
    pm, pn = M.space.parities, N.space.parities
    for m in range(M.dim):
        for n in range(N.dim):
            sgn = -1 if pm[m] * pn[n] else 1
            nm = a_nm.act_basis(n, m)  # n.m in M
            mn = a_mn.act_basis(m, n)  # m.n in N
            for n2 in range(N.dim):
                lhs = a_mn.act(nm, {n2: 1})
                rhs = vec_scale(N.bracket(mn, {n2: 1}), -sgn)
                defect = M.field.clean(vec_sub(lhs, rhs))
                if defect:
                    yield Violation("compat-i", (m, n, n2), defect)
            for m2 in range(M.dim):
                lhs = a_nm.act(mn, {m2: 1})
                rhs = vec_scale(M.bracket(nm, {m2: 1}), -sgn)
                defect = M.field.clean(vec_sub(lhs, rhs))
                if defect:
                    yield Violation("compat-ii", (m, n, m2), defect)


# ---------------------------------------------------------------------------
# crossed module certificates on every basis pair


def hom_defects_dense(f: GradedMap, src: LieSuperAlgebra, dst: LieSuperAlgebra):
    """Yield (i, j, f([e_i, e_j]) - [f e_i, f e_j]) for the nonzero defects
    of f: src -> dst, in row-major order over the basis pairs of src."""
    images = [f.apply({i: 1}) for i in range(src.dim)]
    for i in range(src.dim):
        for j in range(src.dim):
            lhs = f.apply(src.bracket_basis(i, j))
            defect = src.field.clean(vec_sub(lhs, dst.bracket(images[i], images[j])))
            if defect:
                yield i, j, defect


def check_crossed_dense(c: CrossedModule) -> AxiomReport:
    """check_crossed with the boundary-hom, equivariance and Peiffer
    identities evaluated on every basis pair through the public bracket,
    action and boundary."""
    M, P, d, act = c.m, c.p, c.boundary, c.action
    rep = first_violations(chain(check_action(act).violations, _crossed_violations_dense(c)))
    if not rep.ok:
        return rep

    # consequences
    violations: list[Violation] = []
    ker = d.kernel()
    if not M.center().contains(ker):
        violations.append(Violation("kernel-not-central", (), {}))
    img = d.image()
    if not is_graded_ideal(P, img):
        violations.append(Violation("image-not-ideal", (), {}))
    # induced module structure of Coker(d) on Ker(d): the image must act
    # trivially on the kernel and P must preserve the kernel
    if (any(vec_clean(act.act(r, k)) for r in img.rows for k in ker.rows)
            or not all(ker.contains_vec(act.act({p: 1}, k))
                       for p in range(P.dim) for k in ker.rows)):
        violations.append(Violation("kernel-module", (), {}))
    return AxiomReport(not violations, violations)


def _crossed_violations_dense(c: CrossedModule):
    M, P, d, act = c.m, c.p, c.boundary, c.action
    # boundary is a Lie homomorphism
    for i, j, defect in hom_defects_dense(d, M, P):
        yield Violation("boundary-hom", (i, j), defect)
    # (i) equivariance, (ii) Peiffer
    for p in range(P.dim):
        for m in range(M.dim):
            lhs = d.apply(act.act_basis(p, m))
            rhs = P.bracket({p: 1}, d.apply({m: 1}))
            defect = M.field.clean(vec_sub(lhs, rhs))
            if defect:
                yield Violation("equivariance", (p, m), defect)
    for m in range(M.dim):
        for m2 in range(M.dim):
            lhs = act.act(d.apply({m: 1}), {m2: 1})
            rhs = M.bracket_basis(m, m2)
            defect = M.field.clean(vec_sub(lhs, rhs))
            if defect:
                yield Violation("peiffer", (m, m2), defect)


# ---------------------------------------------------------------------------
# the bracket of V(A), slot by slot


def v_algebra_table_oracle(A: AssocSuperAlgebra) -> dict[tuple[int, int], dict]:
    """The structure constants of V(A) = (A (x) A)/I(A) on the section of
    the HC_1 kernel model's quotient, from the bracket
    [a (x) b, a' (x) b'] = [a, b] (x) [a', b'] summed term by term.  It
    first asserts that this bracket preserves I(A) in both slots, bracketing
    every row of I(A) with every basis tensor on either side."""
    lie = lie_from_assoc(A)
    quot = hc1_kernel_model(A).quotient
    d = A.dim

    def bracket(u: dict, v: dict) -> dict:
        out: dict = {}
        for i1, c1 in u.items():
            left = lie.bracket_basis(*divmod(i1, d))
            if not left:
                continue
            for i2, c2 in v.items():
                right = lie.bracket_basis(*divmod(i2, d))
                if right:
                    vec_axpy(out, c1 * c2, tensor_vec(A.space, A.space, left, right))
        return out

    for r in quot.bottom.rows:
        for k in range(d * d):
            assert not quot.reduce(bracket(r, {k: 1})), "the bracket does not preserve I(A)"
            assert not quot.reduce(bracket({k: 1}, r)), "the bracket does not preserve I(A)"
    section, par = quot.section, quot.space.parities
    table = {}
    for a in range(len(section)):
        for b in range(a, len(section)):
            if a == b and par[a] == 0:
                continue
            v = quot.reduce(bracket(section[a], section[b]))
            if v:
                table[(a, b)] = v
    return table


# ---------------------------------------------------------------------------
# I(A) and the Milnor relations, generator family by generator family


def graded_symmetric_gens(A: AssocSuperAlgebra) -> list[dict]:
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


def cyclic_relation_gens_dense(A: AssocSuperAlgebra) -> list[dict]:
    """ab (x) c - a (x) bc + (-1)^{|c|(|a|+|b|)} ca (x) b over basis
    triples, through the public product, zero products included."""
    d, sp = A.dim, A.space
    par = sp.parities
    gens = []
    for a, b, c in product(range(d), repeat=3):
        g = tensor_vec(sp, sp, A.product({a: 1}, {b: 1}), {c: 1})
        vec_axpy(g, -1, tensor_vec(sp, sp, {a: 1}, A.product({b: 1}, {c: 1})))
        s = -1 if par[c] * (par[a] + par[b]) % 2 else 1
        vec_axpy(g, s, tensor_vec(sp, sp, A.product({c: 1}, {a: 1}), {b: 1}))
        gens.append(A.field.clean(g))
    return gens


def milnor_extra_gens(A: AssocSuperAlgebra) -> list[dict]:
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


def relation_ideal_oracle(A: AssocSuperAlgebra) -> Subspace:
    """I(A) spanned by the graded-symmetric generators and the cyclic
    relations, eliminated together."""
    acc = Echelon(A.field, A.dim ** 2)
    for g in graded_symmetric_gens(A) + cyclic_relation_gens_dense(A):
        acc.insert(g)
    return acc.subspace()


def milnor_relations_oracle(A: AssocSuperAlgebra) -> Subspace:
    """The Milnor relations: I(A) and a (x) bc - (-1)^{|b||c|} a (x) cb
    over basis triples, eliminated together."""
    acc = Echelon(A.field, A.dim ** 2)
    for g in graded_symmetric_gens(A) + cyclic_relation_gens_dense(A) + milnor_extra_gens(A):
        acc.insert(g)
    return acc.subspace()


# ---------------------------------------------------------------------------
# the inner grading, from the bracket of basis vectors


def inner_weights_dense(L) -> list[tuple[int, list]]:
    """(h, lambda) for every even basis element h with [h, e_i] a multiple
    lambda[i] e_i of e_i for every i, from L.bracket of basis vectors."""
    out = []
    for h in range(L.dim):
        if L.space.parities[h]:
            continue
        images = [L.bracket({h: 1}, {i: 1}) for i in range(L.dim)]
        if all(set(v) <= {i} for i, v in enumerate(images)):
            out.append((h, [L.field.of(v.get(i, 0)) for i, v in enumerate(images)]))
    return out


# ---------------------------------------------------------------------------
# bilinear maps and action tables over every basis pair


def lie_table_dense(L) -> dict[tuple[int, int], dict]:
    """[e_i, e_j] for every basis pair, read from the stored pairs i <= j
    and, for i > j, by graded antisymmetry."""
    par = L.space.parities
    out = {}
    for i in range(L.dim):
        for j in range(L.dim):
            if i <= j:
                out[(i, j)] = L.table.get((i, j), {})
            else:
                out[(i, j)] = vec_scale(L.table.get((j, i), {}), 1 if par[i] * par[j] else -1)
    return out


def from_bracket_all_pairs(space: SuperSpace, bracket, name: str) -> LieSuperAlgebra:
    """The algebra on ``space`` with structure constants ``bracket(a, b)``
    on basis indices, evaluated on every stored pair (a < b, and a = b for
    odd a), zero brackets included, in row-major order; the zero values are
    dropped."""
    par, n = space.parities, space.dim
    table = {}
    for a in range(n):
        for b in range(a + 1 - par[a], n):
            if v := bracket(a, b):
                table[(a, b)] = v
    return LieSuperAlgebra(space, table, name=name)


def bilinear_dense(field, table, left_dim: int, right_dim: int, u: dict, v: dict) -> dict:
    """The sum of u_i v_j table[(i, j)] over every basis pair, zero
    coefficients and zero constants included."""
    out: dict = {}
    for i in range(left_dim):
        for j in range(right_dim):
            c = u.get(i, 0) * v.get(j, 0)
            for k, x in table.get((i, j), {}).items():
                out[k] = out.get(k, 0) + c * x
    return field.clean(out)


def ideal_action_dense(L, view) -> dict[tuple[int, int], dict]:
    """The action table of L on the ideal ``view`` that ideal_crossed builds,
    from the bracket of every basis element of L with every inclusion
    column, zero brackets included."""
    incl = view.inclusion
    table = {}
    for i in range(L.dim):
        for m in range(view.algebra.dim):
            w = L.bracket({i: 1}, incl.matrix.cols[m])
            if not w:
                continue
            v = view.subspace.coords(w)
            if v is None:
                raise ActionInvalid("subspace is not an ideal")
            if v:
                table[(i, m)] = v
    return table


def pullback_action_dense(a: Action, source, f: GradedMap) -> dict[tuple[int, int], dict]:
    """The action table of pullback_action, from f(s).e_m for every basis
    pair (s, m) through the public action."""
    table = {}
    for s in range(source.dim):
        fs = f.apply({s: 1})
        for m in range(a.target.dim):
            v = a.act(fs, {m: 1})
            if v:
                table[(s, m)] = v
    return table


# ---------------------------------------------------------------------------
# algebras in a permuted, rescaled basis


def rebase(L, perm: list[int], scale: list[int]):
    """L in the basis f_a = scale[a] * e_{perm[a]}, scale[a] a unit of the
    field given as an integer (a sign over Q keeps the constants integral)."""
    inverse = [L.field.of(Fraction(1, c)) for c in scale]
    where = {e: a for a, e in enumerate(perm)}
    basis = [(L.space.labels[e], L.space.parities[e]) for e in perm]
    table = {}
    for a in range(L.dim):
        for b in range(a, L.dim):
            w = L.bracket_basis(perm[a], perm[b])
            if w:
                table[(a, b)] = {where[e]: scale[a] * scale[b] * c * inverse[where[e]]
                                 for e, c in w.items()}
    return LieSuperAlgebra(superspace(L.field, basis), table, name=L.name)


def rebase_assoc(A, perm: list[int], scale: list):
    """The associative superalgebra A in the basis f_a = scale[a] * e_{perm[a]}."""
    inverse = [A.field.of(Fraction(1, c)) for c in scale]
    where = {e: a for a, e in enumerate(perm)}
    basis = [(A.space.labels[e], A.space.parities[e]) for e in perm]
    table = {}
    for a in range(A.dim):
        for b in range(A.dim):
            w = A.product_basis(perm[a], perm[b])
            if w:
                table[(a, b)] = {where[e]: scale[a] * scale[b] * c * inverse[where[e]]
                                 for e, c in w.items()}
    unit = A.unit and {where[e]: c * inverse[where[e]] for e, c in A.unit.items()}
    return AssocSuperAlgebra(superspace(A.field, basis), table, unit=unit, name=A.name)


# ---------------------------------------------------------------------------
# helpers that only tests use


def subspace_bracket_action(L, actor_view, target_view):
    """Action of one subalgebra view of L on another induced by the bracket
    (the target must be stable, e.g. an ideal)."""
    table = {}
    arows = actor_view.inclusion.matrix.cols
    trows = target_view.inclusion.matrix.cols
    for p, pa in enumerate(arows):
        for m, tm in enumerate(trows):
            w = L.bracket(pa, tm)
            if not w:
                continue
            v = target_view.subspace.coords(w)
            if v is None:
                raise ActionInvalid("bracket leaves the target subspace")
            if v:
                table[(p, m)] = v
    return Action(actor_view.algebra, target_view.algebra, table)


@dataclass(frozen=True)
class GradedVector:
    space: SuperSpace
    coords: tuple[tuple[int, object], ...]

    @staticmethod
    def of(space: SuperSpace, v: dict) -> "GradedVector":
        return GradedVector(space, tuple(sorted(vec_clean(v).items())))

    def as_dict(self) -> dict:
        return dict(self.coords)

    @property
    def parity(self) -> int | None:
        return self.space.parity_of_vec(self.as_dict())


def evaluate_relator(F, word) -> GradedVector:
    """The relator as a graded vector of the truncated algebra."""
    return GradedVector.of(F.algebra().space, F.word_to_algebra_vec(word))


# ---------------------------------------------------------------------------
# the bundled corpus, regenerated from the constructors


LIE_NAMES = ("abelian10", "abelian01", "abelian11", "abelian21",
             "heis", "gl11", "sl21", "sl30")
ASSOC_NAMES = ("q", "dual", "grassmann", "m11")


def corpus_files() -> dict[str, dict]:
    """Every bundled file as a JSON dict, keyed by file name: the algebras,
    their adjoint actions, a crossed module and two presentations.  The
    file names are set on the dicts; the algebra objects keep the names
    their constructors give them."""
    lie = {f"abelian{e}{o}": abelian(QQ, e, o) for e, o in ((1, 0), (0, 1), (1, 1), (2, 1))}
    lie["heis"] = heisenberg(QQ)
    lie["gl11"] = matrix_gl(1, 1, ground_assoc(QQ))
    lie["sl21"] = matrix_sl(2, 1, ground_assoc(QQ)).algebra
    lie["sl30"] = matrix_sl(3, 0, ground_assoc(QQ)).algebra
    assoc = {"q": ground_assoc(QQ), "dual": dual_numbers(QQ), "grassmann": grassmann_line(QQ),
             "m11": matrix_assoc(1, 1, ground_assoc(QQ))}
    algebras = {**lie, "heis_f5": heisenberg(Field(5)), **assoc}
    files = {f"{name}.json": {**algebra_to_json(alg), "name": name}
             for name, alg in algebras.items()}
    for name in ("heis", "gl11", "sl21", "sl30"):
        files[f"{name}_adjoint.json"] = {**action_to_json(adjoint_action(lie[name])),
                                         "actor": name, "target": name}
    # the center of heis as an ideal inclusion crossed module
    h = lie["heis"]
    zview = subalgebra_on(h, series(h).center, name="zheis")
    files["zheis.json"] = algebra_to_json(zview.algebra)
    files["heis_center_crossed.json"] = {
        "m": "zheis.json",
        "p": "heis.json",
        "boundary": [{"from": zview.algebra.space.labels[0], "value": [["z", "1"]]}],
        "action": [],
    }
    files["free2_pres.json"] = {
        "name": "free2",
        "generators": [["x", 0], ["y", 0]],
        "relators": [],
    }
    files["heis_pres.json"] = {
        "name": "heis",
        "generators": [["x", 0], ["y", 0]],
        "relators": [[["x", "y"], "x"], [["x", "y"], "y"]],
    }
    return files


def write_bundle(directory: Path) -> list[str]:
    """Write every file of ``corpus_files`` into ``directory``; the names written."""
    files = corpus_files()
    for name, obj in files.items():
        dump_json(obj, directory / name)
    return sorted(files)
