"""Lie and associative superalgebras given by structure constants.

A Lie superalgebra stores its bracket on ordered basis pairs i < j plus
odd diagonal pairs i = j; values for i > j follow from graded
antisymmetry and even diagonals vanish, so those two axioms hold by
construction and the checker certifies parity consistency and the graded
Jacobi identity, reporting witnesses for violations.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from itertools import combinations_with_replacement, permutations

from .fields import Field
from .linalg import (
    Echelon,
    Matrix,
    Subquotient,
    Subspace,
    vec_axpy,
    vec_clean,
    vec_scale,
    vec_sub,
)
from .spaces import GradedMap, SuperSpace, superspace


MAX_VIOLATIONS = 16
"""Axiom checkers stop after this many violations."""


class SizeError(ValueError):
    """A matrix-algebra size constraint fails."""


class NotAnIdeal(ValueError):
    """The given subspace is not a graded ideal."""


class BracketNotWellDefined(RuntimeError):
    """A bracket on a quotient fails to descend to it or fails a certificate
    there: a construction bug, never a property of valid inputs."""


@dataclass
class Violation:
    kind: str
    witness: tuple
    defect: dict

    def __str__(self):
        return f"{self.kind} at {self.witness}: defect {self.defect}"


@dataclass
class AxiomReport:
    ok: bool
    violations: list[Violation] = dfield(default_factory=list)

    def __bool__(self):
        return self.ok


def _pair_sign(pi: int, pj: int) -> int:
    """Sign relating [e_j,e_i] to [e_i,e_j]: -(-1)^{|i||j|}."""
    return 1 if pi * pj == 1 else -1


class LieSuperAlgebra:
    """Structure constants on a homogeneous ordered basis."""

    def __init__(self, space: SuperSpace, table: dict[tuple[int, int], dict], name: str = ""):
        self.space = space
        self.name = name
        self.field = space.field
        tab: dict[tuple[int, int], dict] = {}
        for (i, j), v in table.items():
            if i > j:
                raise ValueError("structure constants must be given for i <= j")
            if i == j and space.parities[i] == 0:
                raise ValueError("even diagonal brackets are forced to vanish")
            v = vec_clean({k: self.field.of(c) for k, c in v.items()})
            if v:
                tab[(i, j)] = v
        self.table = tab
        self._ad_cache: list[Matrix] | None = None
        self._bracket_index: list[dict[int, dict]] | None = None
        # memos of tensor.adjoint_tensor_square and tensor.exterior_square
        self._tensor_square = None
        self._exterior_square = None

    @property
    def dim(self) -> int:
        return self.space.dim

    def __repr__(self):
        return f"LieSuperAlgebra({self.name or 'anon'}, dim {self.space})"

    # -- bracket -------------------------------------------------------

    def bracket_basis(self, i: int, j: int) -> dict:
        if i < j or (i == j and self.space.parities[i] == 1):
            return self.table.get((i, j), {})
        if i == j:
            return {}
        base = self.table.get((j, i))
        if not base:
            return {}
        s = _pair_sign(self.space.parities[i], self.space.parities[j])
        return vec_scale(base, s)

    def bracket(self, u: dict, v: dict) -> dict:
        out: dict = {}
        for i, ci in u.items():
            if ci == 0:
                continue
            for j, cj in v.items():
                c = ci * cj
                if c == 0:
                    continue
                b = self.bracket_basis(i, j)
                if b:
                    vec_axpy(out, c, b)
        return self.field.clean(out)

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

    def ad(self, i: int) -> Matrix:
        if self._ad_cache is None:
            self._ad_cache = [
                Matrix(self.field, self.dim, [self.bracket_basis(a, b) for b in range(self.dim)])
                for a in range(self.dim)
            ]
        return self._ad_cache[i]

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
        n = self.dim
        cols = []
        for i in range(n):
            col: dict = {}
            for j in range(n):
                for k, c in self.bracket_basis(i, j).items():
                    col[j * n + k] = c
            cols.append(col)
        return Matrix(self.field, n * n, cols).kernel_basis()

    def is_abelian(self) -> bool:
        return not self.table


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
    ascending, each part normalized as an evaluation one j at a time would
    normalize it; a j absent from all three has value 0."""
    clean = field.clean
    for j in sorted(lhs.keys() | a.keys() | b.keys()):
        rhs = clean(a.get(j, {}))
        vec_axpy(rhs, sign, clean(b.get(j, {})))
        defect = clean(vec_sub(clean(lhs.get(j, {})), rhs))
        if defect:
            yield j, defect


def _derivation_defects(rho: list[dict[int, dict]], actor_par, M: LieSuperAlgebra):
    """Yield (p, m, m2, defect), in that order, for the nonzero defects
    rho(p)[m, m2] - [rho(p)m, m2] - (-1)^{|p||m|} [m, rho(p)m2], where
    rho[p] is {m: rho(p)e_m} over the nonzero action constants of p on M.
    Each term is summed from the nonzero structure constants only; a
    triple in which every term has a zero factor has defect 0."""
    index, par = M.bracket_index(), M.space.parities
    for p, rp in enumerate(rho):
        if not rp:
            continue
        for m, brackets in enumerate(index):
            sign = -1 if actor_par[p] * par[m] else 1
            for m2, defect in _defects(M.field, _compose(rp, brackets),
                                       _spread(rp.get(m, {}), index),
                                       _compose(brackets, rp), sign):
                yield p, m, m2, defect


def check_lie_axioms(L: LieSuperAlgebra) -> AxiomReport:
    """Certify parity consistency, graded antisymmetry (structural), the
    vanishing of [x, x] for general even x, and the graded Jacobi identity
    on all basis triples.  Each identity is evaluated from the nonzero
    structure constants: a triple with a zero factor in every term has
    defect 0, so only the others are computed.  Violations come in basis
    order, Jacobi triples after the rest, at most MAX_VIOLATIONS of them."""
    violations: list[Violation] = []
    par = L.space.parities
    for (i, j), v in L.table.items():
        want = (par[i] + par[j]) % 2
        for k, c in v.items():
            if par[k] != want:
                violations.append(Violation("parity", (i, j, k), {k: c}))
    # [x0, x0] = 0 for general even x0: expanding over even basis pairs the
    # coefficient of a_i a_j is c_ij + c_ji (i < j) and c_ii on the diagonal;
    # both vanish under the storage convention, re-derived here explicitly
    # for the pairs with a nonzero constant.
    for i, j in sorted(L.table):
        if par[i] == 0 and par[j] == 0:
            sym = dict(L.bracket_basis(i, j))
            if i != j:
                vec_axpy(sym, 1, L.bracket_basis(j, i))
            if vec_clean(sym):
                violations.append(Violation("even-square", (i, j), sym))
    # graded Jacobi: ad(e_i) is a derivation of the bracket
    for i, j, k, defect in _derivation_defects(L.bracket_index(), par, L):
        violations.append(Violation("jacobi", (i, j, k), defect))
        if len(violations) >= MAX_VIOLATIONS:
            return AxiomReport(False, violations)
    return AxiomReport(not violations, violations)


class AssocSuperAlgebra:
    """Associative superalgebra by structure constants, optionally unital."""

    def __init__(self, space: SuperSpace, table: dict[tuple[int, int], dict],
                 unit: dict | None = None, name: str = ""):
        self.space = space
        self.name = name
        self.field = space.field
        self.table = {
            key: vec_clean({k: self.field.of(c) for k, c in v.items()})
            for key, v in table.items()
        }
        self.table = {key: v for key, v in self.table.items() if v}
        self.unit = vec_clean({k: self.field.of(c) for k, c in (unit or {}).items()}) or None

    @property
    def dim(self) -> int:
        return self.space.dim

    def __repr__(self):
        return f"AssocSuperAlgebra({self.name or 'anon'}, dim {self.space})"

    def product_basis(self, i: int, j: int) -> dict:
        return self.table.get((i, j), {})

    def product(self, u: dict, v: dict) -> dict:
        out: dict = {}
        for i, ci in u.items():
            for j, cj in v.items():
                c = ci * cj
                if c == 0:
                    continue
                b = self.product_basis(i, j)
                if b:
                    vec_axpy(out, c, b)
        return self.field.clean(out)

    def is_supercommutative(self) -> bool:
        par = self.space.parities
        for i in range(self.dim):
            for j in range(self.dim):
                sgn = -1 if par[i] * par[j] else 1
                d = vec_sub(self.product_basis(i, j), vec_scale(self.product_basis(j, i), sgn))
                if self.field.clean(d):
                    return False
        return True


def check_assoc_axioms(A: AssocSuperAlgebra) -> AxiomReport:
    violations: list[Violation] = []
    par = A.space.parities
    for (i, j), v in A.table.items():
        want = (par[i] + par[j]) % 2
        for k, c in v.items():
            if par[k] != want:
                violations.append(Violation("parity", (i, j, k), {k: c}))
    for i in range(A.dim):
        for j in range(A.dim):
            for k in range(A.dim):
                lhs = A.product(A.product_basis(i, j), {k: 1})
                rhs = A.product({i: 1}, A.product_basis(j, k))
                defect = A.field.clean(vec_sub(lhs, rhs))
                if defect:
                    violations.append(Violation("assoc", (i, j, k), defect))
                    if len(violations) >= MAX_VIOLATIONS:
                        return AxiomReport(False, violations)
    if A.unit is not None:
        for i in range(A.dim):
            left = A.product(A.unit, {i: 1})
            right = A.product({i: 1}, A.unit)
            for got, side in ((left, "unit-left"), (right, "unit-right")):
                defect = A.field.clean(vec_sub(got, {i: 1}))
                if defect:
                    violations.append(Violation(side, (i,), defect))
    return AxiomReport(not violations, violations)


# ---------------------------------------------------------------------------
# constructors


def abelian(field: Field, even: int, odd: int, prefix: str = "a") -> LieSuperAlgebra:
    basis = [(f"{prefix}{i}", 0) for i in range(even)]
    basis += [(f"{prefix}{even + i}", 1) for i in range(odd)]
    return LieSuperAlgebra(superspace(field, basis), {}, name=f"abelian({even}|{odd})")


def heisenberg(field: Field) -> LieSuperAlgebra:
    """The 3-dimensional even Heisenberg algebra: [x, y] = z."""
    sp = superspace(field, [("x", 0), ("y", 0), ("z", 0)])
    return LieSuperAlgebra(sp, {(0, 1): {2: field.one}}, name="heis")


def lie_from_assoc(A: AssocSuperAlgebra, name: str = "") -> LieSuperAlgebra:
    """The Lie superalgebra on A with the graded commutator bracket."""
    par = A.space.parities
    table: dict[tuple[int, int], dict] = {}
    for i in range(A.dim):
        for j in range(i, A.dim):
            if i == j:
                if par[i] == 0:
                    continue
                v = vec_scale(A.product_basis(i, i), 2)
            else:
                # [a,b] = ab - (-1)^{|a||b|} ba
                sgn = -1 if par[i] * par[j] else 1
                v = vec_sub(A.product_basis(i, j), vec_scale(A.product_basis(j, i), sgn))
            v = vec_clean(v)
            if v:
                table[(i, j)] = v
    return LieSuperAlgebra(A.space, table, name=name or (A.name and f"lie({A.name})"))


def ground_assoc(field: Field) -> AssocSuperAlgebra:
    """The ground field as a one-dimensional associative superalgebra."""
    sp = superspace(field, [("1", 0)])
    return AssocSuperAlgebra(sp, {(0, 0): {0: field.one}}, unit={0: field.one}, name="K")


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

    def idx(i, j, t):
        return (i * size + j) * dimA + t

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
                for k in range(size):
                    if j != k:
                        continue
                    for l in range(size):
                        for u in range(dimA):
                            b = idx(k, l, u)
                            prod = A.product_basis(t, u)
                            if prod:
                                table[(a, b)] = {idx(i, l, s): c for s, c in prod.items()}
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
    for v in vectors:
        acc.insert(v)
    while True:
        rows = [dict(r) for r in acc.subspace().rows]
        grew = False
        for a in range(len(rows)):
            for b in range(a, len(rows)):
                if acc.insert(L.bracket(rows[a], rows[b])):
                    grew = True
        if not grew:
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


@dataclass
class SeriesReport:
    lower_central: list[Subspace]
    derived: list[Subspace]
    center: Subspace
    nil_class: int | None
    derived_length: int | None
    is_perfect: bool


def series(L: LieSuperAlgebra) -> SeriesReport:
    full = L.full_subspace()
    lower = [full]
    while True:
        nxt = L.product_subspace(full, lower[-1])
        if nxt.dim == lower[-1].dim:
            break
        lower.append(nxt)
        if nxt.dim == 0:
            break
    derived = [full]
    while True:
        nxt = L.product_subspace(derived[-1], derived[-1])
        if nxt.dim == derived[-1].dim:
            break
        derived.append(nxt)
        if nxt.dim == 0:
            break
    nil_class = len(lower) - 1 if lower[-1].dim == 0 else None
    if L.dim == 0:
        nil_class = 0
    der_length = len(derived) - 1 if derived[-1].dim == 0 else None
    if L.dim == 0:
        der_length = 0
    gamma2 = L.product_subspace(full, full)
    return SeriesReport(
        lower_central=lower,
        derived=derived,
        center=L.center(),
        nil_class=nil_class,
        derived_length=der_length,
        is_perfect=(gamma2.dim == L.dim),
    )


def is_engel(L: LieSuperAlgebra, n: int) -> bool:
    """Whether ad(x)^n = 0 for every x, via the symmetrized operator sums of
    the multilinear expansion.  Exact over Q; over GF(p) this is a
    sufficient condition only (documented limitation)."""
    if n < 1:
        raise ValueError("Engel degree must be >= 1")
    dim = L.dim
    for multiset in combinations_with_replacement(range(dim), n):
        total = Matrix.zero(L.field, dim, dim)
        for perm in set(permutations(multiset)):
            prod = Matrix.identity(L.field, dim)
            for i in perm:
                prod = prod.compose(L.ad(i))
            total = total.add(prod)
        if not total.is_zero():
            return False
    return True


def engel_degree(L: LieSuperAlgebra, bound: int) -> int | None:
    for n in range(1, bound + 1):
        if is_engel(L, n):
            return n
    return None


# ---------------------------------------------------------------------------
# subalgebras on subspaces, quotients


@dataclass
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
    table: dict[tuple[int, int], dict] = {}
    for a in range(len(rows)):
        for b in range(a, len(rows)):
            if a == b and sp.parities[a] == 0:
                continue
            v = S.coords(L.bracket(rows[a], rows[b]))
            if v is None:
                raise NotAnIdeal("subspace is not closed under the bracket")
            if v:
                table[(a, b)] = v
    alg = LieSuperAlgebra(sp, table, name=name)
    incl = GradedMap.from_columns(sp, L.space, [dict(r) for r in rows])
    return AlgebraView(alg, incl, S)


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
            par = parent.parity_of_vec(s)
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


class Projection(GradedMap):
    """The projection of a space onto a quotient of all of it; keeps the quotient."""

    __slots__ = ("quotient",)

    def __init__(self, quotient: QuotientSpace):
        cols = [quotient.reduce({i: 1}) for i in range(quotient.parent.dim)]
        super().__init__(quotient.parent, quotient.space, 0,
                         Matrix(quotient.parent.field, quotient.space.dim, cols))
        self.quotient = quotient


def quotient_table(q: QuotientSpace, bracket) -> dict[tuple[int, int], dict]:
    """Structure constants on the section basis of q of a bracket of the
    parent that preserves the bottom of q."""
    section, parities = q.section, q.space.parities
    table: dict[tuple[int, int], dict] = {}
    for a, u in enumerate(section):
        for b in range(a, len(section)):
            if a == b and parities[a] == 0:
                continue
            v = q.reduce(bracket(u, section[b]))
            if v:
                table[(a, b)] = v
    return table


def induced_action_table(q: QuotientSpace, actor_dim: int, act) -> dict[tuple[int, int], dict]:
    """Action constants on the section basis of q of ``act(a, v)``, the
    action of basis element a on parent vectors, which preserves the bottom."""
    table: dict[tuple[int, int], dict] = {}
    for k, s in enumerate(q.section):
        for a in range(actor_dim):
            v = q.reduce(act(a, s))
            if v:
                table[(a, k)] = v
    return table


def factored_quotient_algebra(q: QuotientSpace, left: Matrix, right: Matrix, pair,
                              name: str = "") -> LieSuperAlgebra:
    """The Lie superalgebra on q = W/D with the bracket

        B(u, v) = pair(left u, right v),

    ``left`` and ``right`` linear maps on W and ``pair`` bilinear into W.
    It certifies, raising :class:`BracketNotWellDefined`, that left and
    right kill every row of D, so B descends in both slots; that
    B(s_a, s_b) + (-1)^{|a||b|} B(s_b, s_a) lies in D on the section, which
    :func:`quotient_table` assumes when it infers the pairs a > b (for
    a = b this tests 2 B(s_a, s_a), and the characteristic is never 2);
    and the Lie axioms."""

    def bracket(u: dict, v: dict) -> dict:
        return pair(left.apply(u), right.apply(v))

    for d in q.bottom.rows:
        if left.apply(d) or right.apply(d):
            raise BracketNotWellDefined("edge map does not annihilate D(M, N)")
    section, spar = q.section, q.space.parities
    for a, u in enumerate(section):
        for b in range(a, len(section)):
            g = bracket(u, section[b])
            vec_axpy(g, -1 if spar[a] * spar[b] else 1, bracket(section[b], u))
            if q.bottom.reduce_vec(g):
                raise BracketNotWellDefined("bracket is not antisymmetric on classes")
    alg = LieSuperAlgebra(q.space, quotient_table(q, bracket), name=name)
    rep = check_lie_axioms(alg)
    if not rep.ok:
        raise BracketNotWellDefined(f"product fails Lie axioms: {rep.violations[:3]}")
    return alg


def hom_defects(f: GradedMap, src: LieSuperAlgebra, dst: LieSuperAlgebra):
    """Yield (i, j, f([e_i, e_j]) - [f e_i, f e_j]) for the nonzero defects
    of f: src -> dst, in row-major order over the basis pairs of src."""
    images = [f.apply({i: 1}) for i in range(src.dim)]
    for i in range(src.dim):
        for j in range(src.dim):
            lhs = f.apply(src.bracket_basis(i, j))
            defect = src.field.clean(vec_sub(lhs, dst.bracket(images[i], images[j])))
            if defect:
                yield i, j, defect


def quotient_algebra(L: LieSuperAlgebra, I: Subspace, name: str = "") -> tuple[LieSuperAlgebra, Projection]:
    """Quotient by a graded ideal, with the projection as a graded map."""
    if not is_graded_ideal(L, I):
        raise NotAnIdeal("quotient requires a graded ideal")
    q = QuotientSpace(L.space, L.full_subspace(), I, lambda k, lead: f"[{lead}]")
    alg = LieSuperAlgebra(q.space, quotient_table(q, L.bracket),
                          name=name or (L.name and f"{L.name}/I"))
    return alg, Projection(q)


def abelianization(L: LieSuperAlgebra) -> tuple[LieSuperAlgebra, GradedMap]:
    gamma2 = L.product_subspace(L.full_subspace(), L.full_subspace())
    return quotient_algebra(L, gamma2, name=(L.name and f"{L.name}^ab"))


def matrix_sl(m: int, n: int, A: AssocSuperAlgebra) -> AlgebraView:
    """sl(m, n, A): the subalgebra of gl(m, n, A) generated by the
    off-diagonal matrix units, as the bracket closure of their span."""
    if m + n < 3:
        raise SizeError("sl(m, n, A) requires m + n >= 3")
    gl = matrix_gl(m, n, A)
    size = m + n
    dimA = A.dim
    gens = []
    for i in range(size):
        for j in range(size):
            if i == j:
                continue
            for t in range(dimA):
                gens.append({(i * size + j) * dimA + t: 1})
    S = subalgebra_closure(gl, gens)
    view = subalgebra_on(gl, S, name=f"sl({m},{n},{A.name or '?'})")
    return view
