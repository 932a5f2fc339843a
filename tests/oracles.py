"""Independent oracles used by the tests.

These deliberately avoid the production code paths: the free Lie
superalgebra dimensions come from a magma-quotient construction, the
matrix superalgebra bracket is recomputed by multiplying explicit
matrices entry by entry, the canonical row echelon form comes from dense
Gauss–Jordan elimination, reductions against a canonical subspace walk
every row instead of the vector's own pivot entries, and the relation space of the non-abelian tensor
product is spanned by all five generator families, including the cyclic
Jacobi-type family (v) that the production construction omits.  Wedge
signs are counted inversion by inversion, and HC_0 is read off A/[A, A]
directly instead of from the Connes complex.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from superlie.algebras import AssocSuperAlgebra, quotient_space
from superlie.cyclic import commutator_subspace
from superlie.fields import QQ
from superlie.linalg import Echelon, Subquotient, Subspace


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


def hc0_direct(A: AssocSuperAlgebra) -> tuple[int, int]:
    """HC_0 = A/[A, A] computed directly."""
    comm = commutator_subspace(A)
    q = quotient_space(A.space, Subspace.full(A.field, A.dim), comm, "h0.")
    return q.dims


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


def quotient_coords_all_rows(sq: Subquotient, v: dict) -> list | None:
    """Section coordinates of v in top/bottom by row-by-row reductions, or
    None if v is outside top: reduce by bottom, then read the section
    pivots (section rows vanish at the pivots of bottom)."""
    if reduce_all_rows(sq.top, v):
        return None
    r = reduce_all_rows(sq.bottom, v)
    return [r.get(min(s), 0) for s in sq.section]


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
