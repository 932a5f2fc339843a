"""Lie and associative superalgebras given by structure constants.

A Lie superalgebra stores its bracket on ordered basis pairs i < j plus
odd diagonal pairs i = j; values for i > j follow from graded
antisymmetry and even diagonals vanish, so those two axioms hold by
construction and the checker certifies parity consistency and the graded
Jacobi identity, reporting witnesses for violations.

Lie brackets, associative products and actions (``actions.Action``) are
all tables {(i, j): e_i.e_j}; one set of helpers brings a table into the
field's normal form, indexes it by rows, evaluates it on two vectors and
lists its entries of the wrong parity.

Certificates on a generating set.  :func:`check_lie_axioms` certifies the
graded Jacobi identity on all basis triples, and proves it by checking
only the operators e_s, s in a set S of basis indices that generates L.
S is built greedily by :func:`~superlie.closure.generating_set`, which
takes next the e_i whose brackets reach furthest outside the span so far,
skips an e_i already in it, and closes the span by a worklist after each
pick, so S generates L by construction, which the walk asserts.  Each
identity below is linear in the operator p; the set of p that satisfy it
contains S and is a subalgebra, hence it is all of L.  The arguments use
bilinearity and the
graded antisymmetry that the bracket index stores, and no division, so
they hold in every characteristic.  Parities come first in every checker:
S and all brackets of its members are homogeneous once they pass.

(a) Jacobi.  If ad x is a derivation, then for every y

    [ad x, ad y] = ad x ad y - (-1)^{|x||y|} ad y ad x = ad [x, y],

which is the derivation rule of ad x applied to [y, -].  The supercommutator
of two derivations is a derivation, so {x : ad x is a derivation} is a
subalgebra, and Jacobi on all triples holds iff ad e_s is a derivation for
every s in S.

(b) Actions.  Let P satisfy Jacobi and act on M by rho.  If (i)
rho[p, q] = [rho p, rho q] holds for p1 and p2 against every q, then
Jacobi in P expands [[p1, p2], q] into brackets with p1 and p2, and the
supercommutators of End(M) satisfy Jacobi, so (i) holds for [p1, p2].
Once rho is a homomorphism, (ii) "rho p is a derivation of M" holds for
[p1, p2] when it holds for p1 and p2, as in (a).

(c) Crossed modules d: M -> P, with M and P satisfying Jacobi, checked in
this order.  d[m, m'] = [d m, d m'] for all m' spreads from m1, m2 to
[m1, m2] by Jacobi in M and in P, so it needs m in S_M.  Equivariance
d(p.m) = [p, d m] spreads from p1, p2 to [p1, p2] by (i) and Jacobi in P,
so it needs p in S_P.  Peiffer d(m).m' = [m, m'] spreads from m1, m2 to
[m1, m2] since d and rho are homomorphisms and M satisfies Jacobi, so it
needs m in S_M.

(d) Centrality.  The centralizer of a subspace is a subalgebra by
Jacobi, so a subspace is central iff it brackets to 0 with every e_s, s in
S (:func:`~superlie.actions.is_central`).  The consequences of (c), such
as Ker d central, are theorems of the axioms, proved in
:func:`~superlie.actions.check_crossed`, and are not checked again.

The fast path is taken only when the algebras an identity rests on are
certified, with S memoized on each of them by :func:`check_lie_axioms`,
and when the check on S finds no violation.  Otherwise the same loop runs
over every basis index, so a report with violations (kind, witness,
defect, order and the cut-off of MAX_VIOLATIONS) is that of the full
check.

One zero test per group.  Each identity above, lhs - a - sign b, is
tested one group at a time by one fused sum of :mod:`~superlie.linalg`
(:func:`_group_defects`); :func:`_defects` only writes the report of a
group whose sum is nonzero, so reports are those of the full evaluation.

(e) The odd cube.  A Lie superalgebra satisfies [x, [x, x]] = 0 for odd
x.  Jacobi at (a, a, a) gives 3[a, [a, a]] = 0, so outside characteristic
3 the identity follows from Jacobi, but in characteristic 3 it does not:
over F3 the table with a, c odd, e even, [a, a] = e and [e, a] = c
satisfies Jacobi on every basis triple, yet [a, [a, a]] = -c.  So over F3
:func:`check_lie_axioms` also checks [a, [a, a]] = 0 for each odd basis
element a, after Jacobi, which suffices: writing x = sum x_a a, the
coefficient of x_a^2 x_b in [x, [x, x]] is 2[a, [a, b]] + [b, [a, a]],
Jacobi at (a, a, b), and that of x_a x_b x_c for distinct a, b, c is
twice the cyclic sum, Jacobi at (a, b, c); only the x_a^3 terms remain.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, islice

from .closure import close_span, generating_set
from .fields import Field, MathError, record
from .linalg import (
    ContainmentError,
    Echelon,
    Matrix,
    Subquotient,
    Subspace,
    add_composed,
    add_spread,
    sum_is_zero,
    vec_axpy,
    vec_scale,
    vec_sub,
)
from .spaces import GradedMap, SuperSpace, superspace, tensor_index


MAX_VIOLATIONS = 16
"""Axiom checkers stop after this many violations, of every kind."""


class SizeError(ValueError):
    """A matrix-algebra size constraint fails."""


class NotAnIdeal(ValueError):
    """The given subspace is not a graded ideal."""


class BracketNotWellDefined(RuntimeError, MathError):
    """A bracket on a quotient fails to descend to it or fails a certificate
    there: a construction bug, never a property of valid inputs."""


@record
class Violation:
    kind: str
    witness: tuple
    defect: dict

    def __str__(self):
        return f"{self.kind} at {self.witness}: defect {self.defect}"


@record
class AxiomReport:
    ok: bool
    violations: list[Violation] = []

    def __bool__(self):
        return self.ok

    def require(self, error: type[Exception], message: str) -> None:
        """Raise ``error`` with ``message`` and the first three violations
        when the report failed."""
        if not self.ok:
            raise error(f"{message}: {self.violations[:3]}")


def _first_violations(violations) -> AxiomReport:
    """The report of a search that yields its violations in order: the
    first MAX_VIOLATIONS of them, after which the search stops."""
    found = list(islice(violations, MAX_VIOLATIONS))
    return AxiomReport(not found, found)


class LieSuperAlgebra:
    """Structure constants on a homogeneous ordered basis."""

    def __init__(self, space: SuperSpace, table: dict[tuple[int, int], dict], name: str = ""):
        self.space = space
        self.name = name
        self.field = space.field
        labels = space.labels
        for i, j in table:
            if i > j:
                raise ValueError(f"structure constants are given for ({labels[j]}, {labels[i]}), "
                                 f"not ({labels[i]}, {labels[j]})")
            if i == j and space.parities[i] == 0:
                raise ValueError(f"even diagonal bracket [{labels[i]}, {labels[i]}] must vanish")
        self.table = _normalize(self.field, table)
        self._bracket_index: list[dict[int, dict]] | None = None
        # the generating set S, set by check_lie_axioms once they pass on S
        self._generators: list[int] | None = None
        # memos of tensor.adjoint_tensor_square and tensor.exterior_square
        self._tensor_square = None
        self._exterior_square = None

    @classmethod
    def from_bracket(cls, space: SuperSpace, rows, name: str) -> "LieSuperAlgebra":
        """The algebra on ``space`` whose structure constants are given by
        one sparse row per basis index a, ``rows[a] = {b: [e_a, e_b]}``,
        listing the b whose bracket may be nonzero; a b it leaves out has
        bracket 0.  Only the stored pairs are kept, b >= a + 1 - |a| (a < b,
        and a = b for odd a), in ascending b, and the zero values are
        dropped, so the table is in row-major order whatever order a row
        lists its entries in, and a row may list the pairs below the
        diagonal too."""
        par = space.parities
        table = {}
        for a, row in enumerate(rows):
            lo = a + 1 - par[a]
            for b in sorted(row):
                if b >= lo and (v := row[b]):
                    table[(a, b)] = v
        return cls(space, table, name=name)

    @property
    def dim(self) -> int:
        return self.space.dim

    def __repr__(self):
        return f"LieSuperAlgebra({self.name or 'anon'}, dim {self.space})"

    # -- bracket -------------------------------------------------------

    def bracket_basis(self, i: int, j: int) -> dict:
        """[e_i, e_j], read from :meth:`bracket_index`; the dict is shared,
        so callers must not mutate it."""
        return self.bracket_index()[i].get(j, {})

    def bracket(self, u: dict, v: dict) -> dict:
        return _bilinear(self.field, self.bracket_index(), u, v)

    def bracket_index(self) -> list[dict[int, dict]]:
        """Row i is {j: [e_i, e_j]} over the nonzero brackets, built once
        from the stored table: entry (i, j) also gives [e_j, e_i] by graded
        antisymmetry.  The rows are shared; callers must not mutate them."""
        if self._bracket_index is None:
            par = self.space.parities
            rows: dict[int, dict[int, dict]] = {}
            for (i, j), b in self.table.items():
                rows.setdefault(i, {})[j] = b
                if i != j:
                    # [e_j, e_i] = -(-1)^{|i||j|} [e_i, e_j]: the same vector for two odd
                    rows.setdefault(j, {})[i] = b if par[i] & par[j] else vec_scale(b, -1)
            # central basis elements share one empty row: a free nilpotent
            # cover is mostly central
            empty: dict[int, dict] = {}
            self._bracket_index = [rows.get(i, empty) for i in range(self.dim)]
        return self._bracket_index

    def inner_torus(self, module) -> tuple[list[int], list[tuple], list[tuple]]:
        """The one inner grading (hs, lam, mu): hs, ascending, are the even
        basis elements h with ad(h) diagonal on the basis, [h, e_i] =
        lam[i] e_i, and diagonal on the basis of ``module``, an action of
        this algebra, h.e_t = mu[t] e_t, but for an h whose weights all
        vanish; lam[i] and mu[t] are tuples over hs.  A grading that is not
        inner, such as the Grassmann degree of sl(2|1, Lambda1), is not
        found here."""
        index, reduce, dm = self.bracket_index(), self.field.reduce, module.target.dim
        hs, lams, mus = [], [], []
        for h in range(self.dim):
            if self.space.parities[h] or (lam := _diagonal(index[h], self.dim, reduce)) is None:
                continue
            mu = _diagonal(module.rows[h], dm, reduce)
            if mu is not None and (any(lam) or any(mu)):
                hs.append(h)
                lams.append(lam)
                mus.append(mu)
        return (hs, [tuple(w[i] for w in lams) for i in range(self.dim)],
                [tuple(w[t] for w in mus) for t in range(dm)])

    def left_brackets(self, v: dict) -> dict[int, dict]:
        """{i: [e_i, v]} over the basis elements whose bracket with v is
        nonzero, read from :meth:`bracket_index` by graded antisymmetry."""
        index, par = self.bracket_index(), self.space.parities
        out: dict[int, dict] = {}
        for j, c in v.items():
            for i, b in index[j].items():
                vec_axpy(out.setdefault(i, {}), c if par[i] & par[j] else -c, b)
        out = {i: self.field.clean(w) for i, w in out.items()}
        return {i: w for i, w in out.items() if w}

    # -- subspace machinery ---------------------------------------------

    def full_subspace(self) -> Subspace:
        return Subspace.full(self.field, self.dim)

    def product_subspace(self, a: Subspace, b: Subspace) -> Subspace:
        if a.dim == b.dim == self.dim:
            # [L, L]: by graded antisymmetry every [e_i, e_j] is ± a table value
            return Subspace(self.field, self.dim, self.table.values())
        acc = Echelon(self.field, self.dim)
        if a.dim == self.dim:
            # [L, b] is spanned by the nonzero [e_i, r], r a row of b
            for r in b.rows:
                for w in self.left_brackets(r).values():
                    acc.insert(w)
            return acc.subspace()
        for u in a.rows:
            for v in b.rows:
                acc.insert(self.bracket(u, v))
        return acc.subspace()

    def center(self) -> Subspace:
        """The kernel of x -> ad(x) as a map into dim x dim matrices: column
        i is row i of :meth:`bracket_index`, flattened."""
        n = self.dim
        cols = [{tensor_index(n, j, k): c for j, b in row.items() for k, c in b.items()}
                for row in self.bracket_index()]
        return Matrix(self.field, n * n, cols).kernel_basis()

    def is_abelian(self) -> bool:
        return not self.table


def _diagonal(row: dict[int, dict], dim: int, reduce) -> list | None:
    """The diagonal of the map with the nonzero basis images row[i], or
    None if the map is not diagonal."""
    if any(v.keys() - {i} for i, v in row.items()):
        return None
    return [reduce(row[i][i]) if i in row else 0 for i in range(dim)]


def _normalize(field: Field, table: dict[tuple[int, int], dict]) -> dict[tuple[int, int], dict]:
    """Structure constants {(i, j): e_i.e_j} with every scalar in the normal
    form of the field and the zero values dropped, in the given order."""
    out = {}
    for key, v in table.items():
        if v := field.clean({k: field.of(c) for k, c in v.items()}):
            out[key] = v
    return out


def _row_index(table: dict[tuple[int, int], dict], dim: int) -> list[dict[int, dict]]:
    """Row i is {j: table[(i, j)]} over the stored constants, in table
    order, sharing their vectors."""
    rows: list[dict[int, dict]] = [{} for _ in range(dim)]
    for (i, j), v in table.items():
        rows[i][j] = v
    return rows


def _bilinear(field: Field, rows: list[dict[int, dict]], u: dict, v: dict) -> dict:
    """The sum of u_i v_j rows[i][j] over the nonzero constants, normalized:
    the bracket, product or action of u and v with the row index ``rows``."""
    out: dict = {}
    for i, ci in u.items():
        if ci == 0:
            continue
        row = rows[i]
        for j, cj in v.items():
            c = ci * cj
            if c == 0:
                continue
            b = row.get(j)
            if b:
                vec_axpy(out, c, b)
    return field.clean(out)


def _parity_violations(table: dict[tuple[int, int], dict], left, right, kind: str):
    """Yield a Violation of ``kind`` at (i, j, k) for each entry c e_k of
    table[(i, j)] whose parity right[k] is not left[i] + right[j], in table
    order: the values lie in the space of the right factor."""
    for (i, j), v in table.items():
        want = (left[i] + right[j]) % 2
        for k, c in v.items():
            if right[k] != want:
                yield Violation(kind, (i, j, k), {k: c})


def _spread(vec: dict, rows: list[dict[int, dict]]) -> dict[int, dict]:
    """{j: sum of c rows[x][j]} over the entries x: c of vec."""
    out: dict[int, dict] = {}
    for x, c in vec.items():
        for j, w in rows[x].items():
            vec_axpy(out.setdefault(j, {}), c, w)
    return out


def _compose(outer: dict[int, dict], inner: dict[int, dict]) -> dict[int, dict]:
    """{j: sum of c outer[k]} for each j: {k: c} of inner, over the k with
    a nonzero outer[k]."""
    out: dict[int, dict] = {}
    for j, v in inner.items():
        for k, c in v.items():
            w = outer.get(k)
            if w:
                vec_axpy(out.setdefault(j, {}), c, w)
    return out


def _defects(field: Field, lhs: dict, a: dict, b: dict, sign: int):
    """Yield (j, lhs[j] - a[j] - sign b[j]) for the nonzero values, j
    ascending; a j absent from all three has value 0.  This writes the
    report of a group that :func:`_group_defects` found nonzero: each value
    is tested with one normalization, and a nonzero one is recomputed with
    each part normalized as an evaluation one j at a time would normalize
    it, which fixes the order of its entries."""
    clean = field.clean
    for j in sorted(lhs.keys() | a.keys() | b.keys()):
        lj, aj, bj = lhs.get(j, {}), a.get(j, {}), b.get(j, {})
        defect = dict(lj)
        vec_axpy(defect, -1, aj)
        vec_axpy(defect, -sign, bj)
        if clean(defect):
            rhs = clean(aj)
            vec_axpy(rhs, sign, clean(bj))
            yield j, clean(vec_sub(clean(lj), rhs))


_FUSED = {_spread: add_spread, _compose: add_composed}


def _group_defects(field: Field, lhs, a, b, sign: int):
    """The defects of one group of lhs - a - sign b, each part a deferred
    call (_spread or _compose, x, y) or None for 0: one fused zero test,
    then :func:`_defects` on the built parts only when the sum is nonzero."""
    acc: dict = {}
    for part, coeff in ((lhs, 1), (a, -1), (b, -sign)):
        if part is not None:
            fn, x, y = part
            _FUSED[fn](acc, coeff, x, y)
    if sum_is_zero(field, acc):
        return ()
    return _defects(field, *({} if part is None else part[0](*part[1:]) for part in (lhs, a, b)),
                    sign)


def _derivation_defects(rho: list[dict[int, dict]], actor_par, M: LieSuperAlgebra, actors):
    """Yield (p, m, m2, defect), in that order, for the nonzero defects
    rho(p)[m, m2] - [rho(p)m, m2] - (-1)^{|p||m|} [m, rho(p)m2] over the
    actor indices p in ``actors``, where rho[p] is {m: rho(p)e_m} over the
    nonzero action constants of p on M.  Each term is summed from the
    nonzero structure constants only; a triple in which every term has a
    zero factor has defect 0."""
    index, par = M.bracket_index(), M.space.parities
    for p in actors:
        rp = rho[p]
        if not rp:
            continue
        for m, brackets in enumerate(index):
            sign = -1 if actor_par[p] * par[m] else 1
            for m2, defect in _group_defects(M.field, (_compose, rp, brackets),
                                             (_spread, rp.get(m, {}), index),
                                             (_compose, brackets, rp), sign):
                yield p, m, m2, defect


def check_lie_axioms(L: LieSuperAlgebra) -> AxiomReport:
    """Certify parity consistency, the graded Jacobi identity on all basis
    triples, proved on the generating set S of L by (a) of the module
    docstring, and over F3 the odd cube of (e); S is memoized on L when
    this passes.  Graded antisymmetry and [x, x] = 0 for even x hold by
    the storage rule, so they are not checked: the constructor refuses an
    even diagonal, :meth:`LieSuperAlgebra.from_bracket` drops one, and
    :meth:`LieSuperAlgebra.bracket_index` derives [e_j, e_i] from
    [e_i, e_j], so for even x = sum x_i e_i the coefficients of [x, x]
    cancel in pairs.  Each identity is evaluated from the nonzero
    structure constants: a triple with a zero factor in every term has
    defect 0, so only the others are computed.  Violations come in basis
    order, parities first, Jacobi triples next and odd cubes last, at most
    MAX_VIOLATIONS of them, from the loop over every basis index."""
    gens = L._generators if L._generators is not None else generating_set(L)
    if next(_lie_violations(L, gens), None) is None:
        L._generators = gens
        return AxiomReport(True)
    return _first_violations(_lie_violations(L, range(L.dim)))


def _lie_violations(L: LieSuperAlgebra, ops):
    par = L.space.parities
    yield from _parity_violations(L.table, par, par, "parity")
    # graded Jacobi: ad(e_i) is a derivation of the bracket
    for i, j, k, defect in _derivation_defects(L.bracket_index(), par, L, ops):
        yield Violation("jacobi", (i, j, k), defect)
    # [x, [x, x]] = 0 for odd x, which Jacobi implies unless p = 3: (e) of
    # the module docstring
    if L.field.p == 3:
        for i in range(L.dim):
            if par[i] == 1 and (i, i) in L.table:
                cube = L.bracket({i: 1}, L.table[(i, i)])
                if cube:
                    yield Violation("odd-cube", (i,), cube)


class AssocSuperAlgebra:
    """Associative superalgebra by structure constants, optionally unital:
    ``table`` maps (i, j) to e_i e_j and ``rows[i]`` is {j: e_i e_j}, both
    over the nonzero products only and sharing their vectors."""

    def __init__(self, space: SuperSpace, table: dict[tuple[int, int], dict],
                 unit: dict | None = None, name: str = ""):
        self.space = space
        self.name = name
        self.field = space.field
        self.table = _normalize(self.field, table)
        self.rows = _row_index(self.table, space.dim)
        # a declared unit that cleans to 0 stays declared: 1 = 0 is certified, not dropped
        self.unit = None if unit is None else self.field.clean(
            {k: self.field.of(c) for k, c in unit.items()})

    @property
    def dim(self) -> int:
        return self.space.dim

    def __repr__(self):
        return f"AssocSuperAlgebra({self.name or 'anon'}, dim {self.space})"

    def product_basis(self, i: int, j: int) -> dict:
        """e_i e_j, read from :attr:`rows`; the dict is shared, so callers
        must not mutate it."""
        return self.rows[i].get(j, {})

    def product(self, u: dict, v: dict) -> dict:
        return _bilinear(self.field, self.rows, u, v)

    def is_supercommutative(self) -> bool:
        """Whether e_i e_j = (-1)^{|i||j|} e_j e_i on every basis pair: the
        graded commutator bracket of :func:`lie_from_assoc` is zero (for odd
        i = j it is 2 e_i e_i, and the characteristic is never 2)."""
        return lie_from_assoc(self).is_abelian()


def check_assoc_axioms(A: AssocSuperAlgebra) -> AxiomReport:
    """Certify parity consistency, associativity on all basis triples and
    the unit.  (e_i e_j) e_k - e_i (e_j e_k) is summed from the nonzero
    constants: for fixed i and j, the left side for every k spreads
    e_i e_j over the rows and the right side composes row i with row j.
    Violations come in basis order, associativity after parity and the
    unit last, at most MAX_VIOLATIONS of them."""
    return _first_violations(_assoc_violations(A))


def _assoc_violations(A: AssocSuperAlgebra):
    par, rows = A.space.parities, A.rows
    yield from _parity_violations(A.table, par, par, "parity")
    for i, row in enumerate(rows):
        if not row:
            continue  # e_i times anything is 0
        for j in range(A.dim):
            for k, defect in _group_defects(A.field, (_spread, row.get(j, {}), rows),
                                            (_compose, row, rows[j]), None, 1):
                yield Violation("assoc", (i, j, k), defect)
    if A.unit is not None:
        for i in range(A.dim):
            left = A.product(A.unit, {i: 1})
            right = A.product({i: 1}, A.unit)
            for got, side in ((left, "unit-left"), (right, "unit-right")):
                defect = A.field.clean(vec_sub(got, {i: 1}))
                if defect:
                    yield Violation(side, (i,), defect)


# ---------------------------------------------------------------------------
# constructors


def abelian(field: Field, even: int, odd: int, prefix: str = "a") -> LieSuperAlgebra:
    basis = [(f"{prefix}{i}", 0) for i in range(even)]
    basis += [(f"{prefix}{even + i}", 1) for i in range(odd)]
    return LieSuperAlgebra(superspace(field, basis), {}, name=f"abelian({even}|{odd})")


def heisenberg(field: Field) -> LieSuperAlgebra:
    """The 3-dimensional even Heisenberg algebra: [x, y] = z."""
    sp = superspace(field, [("x", 0), ("y", 0), ("z", 0)])
    return LieSuperAlgebra(sp, {(0, 1): {2: 1}}, name="heis")


def lie_from_assoc(A: AssocSuperAlgebra, name: str = "") -> LieSuperAlgebra:
    """The Lie superalgebra on A with the graded commutator bracket
    [a, b] = ab - (-1)^{|a||b|} ba, which is 2a^2 for odd a = b.  Row a
    brackets e_a only with the e_b for which ab or ba is a nonzero
    product, read from :attr:`AssocSuperAlgebra.rows` and its transpose."""
    par, prod = A.space.parities, A.rows
    left: list[list[int]] = [[] for _ in range(A.dim)]  # left[b]: the a with ab != 0
    for a, row in enumerate(prod):
        for b in row:
            left[b].append(a)

    def bracket(i: int, j: int) -> dict:
        sgn = -1 if par[i] * par[j] else 1
        return vec_sub(A.product_basis(i, j), vec_scale(A.product_basis(j, i), sgn))

    rows = [{b: bracket(a, b) for b in chain(prod[a], left[a])} for a in range(A.dim)]
    return LieSuperAlgebra.from_bracket(A.space, rows, name=name or (A.name and f"lie({A.name})"))


def ground_assoc(field: Field) -> AssocSuperAlgebra:
    """The ground field as a one-dimensional associative superalgebra."""
    sp = superspace(field, [("1", 0)])
    return AssocSuperAlgebra(sp, {(0, 0): {0: 1}}, unit={0: 1}, name="K")


def _matrix_unit(size: int, dimA: int, i: int, j: int, t: int) -> int:
    """The position of E_ij(a_t) in the basis of :func:`matrix_assoc`: the
    matrix units row-major, each tensored with the basis of A."""
    return tensor_index(dimA, tensor_index(size, i, j), t)


def matrix_assoc(m: int, n: int, A: AssocSuperAlgebra) -> AssocSuperAlgebra:
    """Matrix superalgebra on (m+n)x(m+n) matrices with entries in unital A;
    the generator with a in slot (i, j) has parity |i| + |j| + |a|."""
    if m + n < 1:
        raise SizeError("need at least one row")
    if A.unit is None:
        raise ValueError("coefficient algebra must be unital")
    size = m + n
    dimA = A.dim
    rowpar = [0 if i < m else 1 for i in range(size)]
    idx = partial(_matrix_unit, size, dimA)
    labels = []
    parities = []
    for i in range(size):
        for j in range(size):
            for t in range(dimA):
                labels.append(f"E{i + 1}{j + 1}({A.space.labels[t]})")
                parities.append((rowpar[i] + rowpar[j] + A.space.parities[t]) % 2)
    sp = SuperSpace(A.field, tuple(labels), tuple(parities))
    table: dict[tuple[int, int], dict] = {}
    for i in range(size):
        for j in range(size):
            for t in range(dimA):
                a = idx(i, j, t)
                # E_ij(x) E_kl(y) vanishes unless k = j
                for l in range(size):
                    for u in range(dimA):
                        if prod := A.product_basis(t, u):
                            table[(a, idx(j, l, u))] = {idx(i, l, s): c for s, c in prod.items()}
    unit = {}
    unit_of_A = A.unit
    for i in range(size):
        for t, c in unit_of_A.items():
            unit[idx(i, i, t)] = c
    name = f"M({m},{n},{A.name or '?'})"
    return AssocSuperAlgebra(sp, table, unit=unit, name=name)


def matrix_gl(m: int, n: int, A: AssocSuperAlgebra) -> LieSuperAlgebra:
    """gl(m, n, A): the matrix superalgebra with the supercommutator bracket."""
    out = lie_from_assoc(matrix_assoc(m, n, A), name=f"gl({m},{n},{A.name or '?'})")
    return out


def subalgebra_closure(L: LieSuperAlgebra, vectors: list[dict]) -> Subspace:
    """Smallest subspace containing the vectors and closed under the bracket."""
    acc = Echelon(L.field, L.dim)
    close_span(L, acc, [], [v for v in vectors if acc.insert(v)])
    return acc.subspace()


def ideal_closure(L: LieSuperAlgebra, vectors: list[dict]) -> Subspace:
    """Smallest bracket ideal containing the vectors, from a worklist: each
    vector that grows the span is bracketed with the basis once, and each
    bracket that grows the span joins the worklist.  The accepted vectors
    span the result, and each one's brackets lie in it, so it is an ideal."""
    acc = Echelon(L.field, L.dim)
    work = [v for v in vectors if acc.insert(v)]
    while work:
        for w in L.left_brackets(work.pop()).values():
            if acc.insert(w):
                work.append(w)
    return acc.subspace()


def is_graded_ideal(L: LieSuperAlgebra, I: Subspace) -> bool:
    """Whether I is spanned by homogeneous vectors and [e_i, r] lies in I
    for every basis element e_i and row r; a zero bracket lies in every
    subspace, so only the nonzero ones are tested."""
    for r in I.rows:
        if L.space.parity_of_vec(r) is None:
            return False
    for r in I.rows:
        for w in L.left_brackets(r).values():
            if not I.contains_vec(w):
                return False
    return True


@record
class SeriesReport:
    lower_central: list[Subspace]
    derived: list[Subspace]
    center: Subspace
    nil_class: int | None
    derived_length: int | None
    is_perfect: bool


def _descent(start: Subspace, step) -> list[Subspace]:
    """start, step(start), step(step(start)), ... up to the first term that
    is 0 or that ``step`` no longer shrinks."""
    terms = [start]
    while terms[-1].dim:
        nxt = step(terms[-1])
        if nxt.dim == terms[-1].dim:
            break
        terms.append(nxt)
    return terms


def series(L: LieSuperAlgebra) -> SeriesReport:
    full = L.full_subspace()
    lower = _descent(full, lambda s: L.product_subspace(full, s))
    derived = _descent(full, lambda s: L.product_subspace(s, s))
    return SeriesReport(
        lower_central=lower,
        derived=derived,
        center=L.center(),
        nil_class=len(lower) - 1 if lower[-1].dim == 0 else None,
        derived_length=len(derived) - 1 if derived[-1].dim == 0 else None,
        is_perfect=len(lower) == 1,
    )


def is_engel(L: LieSuperAlgebra, n: int) -> bool:
    """Whether ad(x)^n = 0 for the generic x = sum t_i e_i, the t_i
    commuting (see :func:`engel_degree`).  Exact over Q; over GF(p) this
    is a sufficient condition only (documented limitation)."""
    if n < 1:
        raise ValueError("Engel degree must be >= 1")
    return engel_degree(L, n) is not None


def engel_degree(L: LieSuperAlgebra, bound: int) -> int | None:
    """The least n >= 1 with ad(x)^n = 0 for the generic x, or None when
    it exceeds ``bound``.  The coefficient of t^alpha in ad(x)^k is the
    symmetrized sum of the products of the ad(e_i), i in the multiset
    alpha.  Each ad(x)^k e_j is walked once, as {alpha: vector} over its
    nonzero coefficients, each step reading the brackets [e_i, v] from
    :meth:`LieSuperAlgebra.left_brackets`, until it vanishes; the degree
    is the most steps any e_j takes to vanish, and at least 1."""
    clean = L.field.clean
    degree = 1
    for j in range(L.dim):
        terms, k = {(): {j: 1}}, 0
        while terms:
            if k == bound:
                return None
            step: dict[tuple, dict] = {}
            for alpha, v in terms.items():
                for i, w in L.left_brackets(v).items():
                    vec_axpy(step.setdefault(tuple(sorted((*alpha, i))), {}), 1, w)
            terms = {alpha: w for alpha, v in step.items() if (w := clean(v))}
            k += 1
        degree = max(degree, k)
    return degree if degree <= bound else None


# ---------------------------------------------------------------------------
# subalgebras on subspaces, quotients


@record
class AlgebraView:
    """A Lie superalgebra living on a subspace of another one."""

    algebra: LieSuperAlgebra
    inclusion: GradedMap  # basis of the view expressed in the parent
    subspace: Subspace


def subalgebra_on(L: LieSuperAlgebra, S: Subspace, name: str = "") -> AlgebraView:
    """The Lie superalgebra structure on a bracket-closed, parity-split subspace."""
    rows = S.rows
    basis = []
    for r in rows:
        par = L.space.parity_of_vec(r)
        if par is None:
            raise NotAnIdeal("subspace is not spanned by homogeneous vectors")
        basis.append((f"{L.space.labels[min(r)]}'", par))
    sp = superspace(L.field, basis)

    def coords(w: dict) -> dict:
        v = S.coords(w)
        if v is None:
            raise NotAnIdeal("subspace is not closed under the bracket")
        return v

    alg = LieSuperAlgebra.from_bracket(sp, _span_rows(L, rows, sp.parities, coords), name=name)
    incl = GradedMap.from_columns(sp, L.space, [dict(r) for r in rows])
    return AlgebraView(alg, incl, S)


def _span_rows(L: LieSuperAlgebra, basis, parities, coords) -> list[dict[int, dict]]:
    """The rows of :meth:`LieSuperAlgebra.from_bracket` for the bracket of
    L on the vectors ``basis`` with ``parities``: row a is
    {b: coords([x_a, x_b])} over the stored pairs b >= a + 1 - |x_a| whose
    bracket in L is nonzero.  ad(x_a), {j: [x_a, e_j]}, is spread from the
    bracket index once, and x_a is paired only with the x_b that hold a
    coordinate j with [x_a, e_j] != 0, found through a map from each
    coordinate to the basis vectors holding it: every other bracket is 0."""
    index, clean = L.bracket_index(), L.field.clean
    holders: dict[int, list[int]] = {}
    for b, x in enumerate(basis):
        for j in x:
            holders.setdefault(j, []).append(b)
    rows = []
    for a, x in enumerate(basis):
        ad, lo = _spread(x, index), a + 1 - parities[a]
        partners = {b: basis[b] for j, w in ad.items() if w for b in holders.get(j, ()) if b >= lo}
        row = {}
        for b, w in _compose(ad, partners).items():
            if w := clean(w):
                row[b] = coords(w)
        rows.append(row)
    return rows


class QuotientSpace(Subquotient):
    """A :class:`~superlie.linalg.Subquotient` top/bottom of the labelled
    space ``parent``, with its section basis labelled as the graded space
    ``space``: ``label(k, lead)`` names section vector k by the parent label
    of its pivot.  ``reduce``, ``lift`` and ``section`` are the
    subquotient's."""

    __slots__ = ("space", "parent")

    def __init__(self, parent: SuperSpace, top: Subspace, bottom: Subspace, label):
        super().__init__(top, bottom)
        labels, parities = [], []
        for k, s in enumerate(self.section):
            par = parent.parities[min(s)] if len(s) == 1 else parent.parity_of_vec(s)
            if par is None:
                raise NotAnIdeal("section is not parity homogeneous")
            labels.append(label(k, parent.labels[min(s)]))
            parities.append(par)
        self.space = SuperSpace(parent.field, tuple(labels), tuple(parities))
        self.parent = parent

    @property
    def dims(self) -> tuple[int, int]:
        return self.space.dim_pair


def quotient_space(parent: SuperSpace, top: Subspace, bottom: Subspace,
                   prefix: str) -> QuotientSpace:
    """top/bottom with basis labels ``{prefix}{k}:{leading label}``."""
    return QuotientSpace(parent, top, bottom, lambda k, lead: f"{prefix}{k}:{lead}")


def sub_space(parent: SuperSpace, top: Subspace, prefix: str) -> QuotientSpace:
    """top/0, labelled as :func:`quotient_space` labels it."""
    return quotient_space(parent, top, Subspace(parent.field, parent.dim, []), prefix)


class Projection(GradedMap):
    """The projection of a space onto a quotient of all of it, by
    ``reduce_basis``, which refuses any other; keeps the quotient."""

    __slots__ = ("quotient",)

    def __init__(self, quotient: QuotientSpace):
        super().__init__(quotient.parent, quotient.space, Matrix(
            quotient.parent.field, quotient.space.dim, quotient.reduce_basis()))
        self.quotient = quotient


def induced_action_table(q: QuotientSpace, actor_dim: int, act) -> dict[tuple[int, int], dict]:
    """Action constants on the section basis of q of ``act(a, v)``, the
    action of basis element a on parent vectors, which preserves the bottom.
    Unlike :func:`induced_map` it does not certify that: the check would
    cost one evaluation per actor and bottom row on the tensor-product
    path, where the tensor product (like V(A)) certifies the resulting
    action as part of a crossed module instead."""
    table: dict[tuple[int, int], dict] = {}
    for k, s in enumerate(q.section):
        for a in range(actor_dim):
            v = q.reduce(act(a, s))
            if v:
                table[(a, k)] = v
    return table


def factored_quotient_algebra(q: QuotientSpace, left: GradedMap, right: GradedMap, pair,
                              name: str = "") -> LieSuperAlgebra:
    """The Lie superalgebra on q = W/D with the bracket

        B(e_a, e_b) = pair(left e_a, right e_b),

    ``left`` and ``right`` graded maps out of q.space, each built by
    :func:`induced_map`, which has certified that its map on W kills D, so
    B descends in both slots; ``pair`` is bilinear into W.  It certifies,
    raising :class:`BracketNotWellDefined`, that
    B(e_a, e_b) + (-1)^{|a||b|} B(e_b, e_a) lies in D, which the structure
    constants assume when they infer the pairs a > b (for a = b this tests
    2 B(e_a, e_a), and the characteristic is never 2); and the Lie axioms.
    Each B(e_a, e_b), a <= b, is evaluated once from the columns and
    serves both the certificate and the table, and B(e_b, e_a) once more
    for a < b."""
    lcols, rcols, spar = left.matrix.cols, right.matrix.cols, q.space.parities

    def rows():
        # the loop also certifies 2 B(e_a, e_a) in D for even a, a pair
        # from_bracket drops, and evaluates each B(e_a, e_b) once for the
        # certificate and the row
        for a, u in enumerate(lcols):
            row = {}
            for b in range(a, len(lcols)):
                g = pair(u, rcols[b])
                swapped = g if a == b else pair(lcols[b], rcols[a])
                anti = dict(g)
                vec_axpy(anti, -1 if spar[a] * spar[b] else 1, swapped)
                if q.bottom.reduce_vec(anti):
                    raise BracketNotWellDefined("bracket is not antisymmetric on classes")
                if a != b or spar[a]:
                    row[b] = q.reduce(g)
            yield row

    alg = LieSuperAlgebra.from_bracket(q.space, rows(), name=name)
    check_lie_axioms(alg).require(BracketNotWellDefined, "product fails Lie axioms")
    return alg


def induced_map(src: QuotientSpace, dst: QuotientSpace | SuperSpace, f) -> GradedMap:
    """The map src -> dst induced by ``f``, a linear map from the parent of
    src to the parent of dst (or to dst itself when dst is a plain space).
    It certifies, raising :class:`~superlie.linalg.ContainmentError`, that
    f maps every row of the bottom of src into the bottom of dst (to 0 for
    a plain dst), so the map descends; its columns are the reductions of f
    of the section of src."""
    if isinstance(dst, QuotientSpace):
        reduce, space = dst.reduce, dst.space
    else:
        reduce, space = dst.field.clean, dst
    for d in src.bottom.rows:
        if reduce(f(d)):
            raise ContainmentError("induced map does not carry the bottom into the target's bottom")
    return GradedMap.from_columns(src.space, space, [reduce(f(s)) for s in src.section])


def intertwining_defects(field: Field, h: list[dict], src, dst, ops=None):
    """Yield (p, i, h(src[p] e_i) - dst[p](h e_i)) for the nonzero defects,
    p in ``ops`` (every index of src by default) and i ascending: whether
    the linear map with columns h intertwines the operators src[p] and
    dst[p], each given as the row {i: op e_i} over its nonzero images.
    Each side is summed from the nonzero entries only."""
    cols = dict(enumerate(h))
    for p in range(len(src)) if ops is None else ops:
        for i, defect in _group_defects(field, (_compose, cols, src[p]),
                                        (_compose, dst[p], cols), None, 1):
            yield p, i, defect


def hom_defects(f: GradedMap, src: LieSuperAlgebra, dst: LieSuperAlgebra, ops=None):
    """Yield (i, j, f([e_i, e_j]) - [f e_i, f e_j]) for the nonzero defects
    of f: src -> dst, i in ``ops`` (every basis index by default), in
    row-major order: f intertwines ad(e_i) on src with ad(f e_i) on dst."""
    cols, index = f.matrix.cols, dst.bracket_index()
    ops = range(src.dim) if ops is None else ops
    return intertwining_defects(src.field, cols, src.bracket_index(),
                                {i: _spread(cols[i], index) for i in ops}, ops)


def iso_fault(f: GradedMap, src: LieSuperAlgebra, dst: LieSuperAlgebra) -> str | None:
    """Why f: src -> dst is not an isomorphism of Lie superalgebras, the
    first bracket it breaks in the order of :func:`hom_defects`, or None
    when it is one."""
    if src.dim != dst.dim or f.matrix.rank() != src.dim:
        return "map is not bijective"
    for a, b, _ in hom_defects(f, src, dst):
        return f"bracket mismatch at ({a},{b})"
    return None


def quotient_algebra(L: LieSuperAlgebra, I: Subspace, name: str = "") -> tuple[LieSuperAlgebra, Projection]:
    """Quotient by a graded ideal, with the projection as a graded map; each
    nonzero [e_a, e_b], e_a and e_b off the pivots of I, is projected."""
    if not is_graded_ideal(L, I):
        raise NotAnIdeal("quotient requires a graded ideal")
    q = QuotientSpace(L.space, L.full_subspace(), I, lambda k, lead: f"[{lead}]")
    proj, at, index, par = Projection(q), q._index, L.bracket_index(), q.space.parities
    rows = [{b: dict(sorted(proj.apply(w).items())) for j, w in index[i].items()
             if (b := at.get(j, -1)) >= a + 1 - par[a]} for i, a in at.items()]
    alg = LieSuperAlgebra.from_bracket(q.space, rows, name=name or (L.name and f"{L.name}/I"))
    return alg, proj


def abelianization(L: LieSuperAlgebra) -> tuple[LieSuperAlgebra, GradedMap]:
    gamma2 = L.product_subspace(L.full_subspace(), L.full_subspace())
    return quotient_algebra(L, gamma2, name=(L.name and f"{L.name}^ab"))


def matrix_sl(m: int, n: int, A: AssocSuperAlgebra) -> AlgebraView:
    """sl(m, n, A): the subalgebra of gl(m, n, A) generated by the
    off-diagonal matrix units, as the bracket closure of their span."""
    if m + n < 3:
        raise SizeError("sl(m, n, A) requires m + n >= 3")
    gl = matrix_gl(m, n, A)
    size, dimA = m + n, A.dim
    gens = [{_matrix_unit(size, dimA, i, j, t): 1}
            for i in range(size) for j in range(size) if i != j for t in range(dimA)]
    S = subalgebra_closure(gl, gens)
    view = subalgebra_on(gl, S, name=f"sl({m},{n},{A.name or '?'})")
    return view
