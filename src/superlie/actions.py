"""Actions of Lie superalgebras, compatibility, crossed modules, semidirect
products.

An action of P on M is an even bilinear map (p, m) -> p.m satisfying

    [p,p'].m = p.(p'.m) - (-1)^{|p||p'|} p'.(p.m)
    p.[m,m'] = [p.m, m'] + (-1)^{|p||m|} [m, p.m']

Mutual actions of M and N are compatible when acting through an acted
element collapses to a bracket:

    (n.m).n' = -(-1)^{|m||n|} [m.n, n']     and symmetrically.

A crossed module is an even Lie homomorphism d: M -> P with a P-action on
M that is equivariant (d(p.m) = [p, d m]) and satisfies the Peiffer
identity (d(m).m' = [m, m']).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebras import (
    MAX_VIOLATIONS,
    AxiomReport,
    LieSuperAlgebra,
    Violation,
    _compose,
    _defects,
    _derivation_defects,
    _spread,
    hom_defects,
    is_graded_ideal,
)
from .linalg import vec_axpy, vec_clean, vec_sub
from .spaces import GradedMap, SuperSpace


class ActionInvalid(ValueError):
    """A construction received an action that fails its axioms."""


class Action:
    """Bilinear action constants of ``actor`` on ``target``."""

    def __init__(self, actor: LieSuperAlgebra, target: LieSuperAlgebra,
                 table: dict[tuple[int, int], dict]):
        self.actor = actor
        self.target = target
        self.field = actor.field
        self.table = {
            key: vec_clean({k: self.field.of(c) for k, c in v.items()})
            for key, v in table.items()
        }
        self.table = {k: v for k, v in self.table.items() if v}

    def act_basis(self, p: int, m: int) -> dict:
        return self.table.get((p, m), {})

    def act(self, pvec: dict, mvec: dict) -> dict:
        out: dict = {}
        for p, cp in pvec.items():
            for m, cm in mvec.items():
                c = cp * cm
                if c == 0:
                    continue
                b = self.act_basis(p, m)
                if b:
                    vec_axpy(out, c, b)
        return self.field.clean(out)

    def is_trivial(self) -> bool:
        return not self.table

    def __repr__(self):
        return f"Action({self.actor.name or 'anon'} on {self.target.name or 'anon'})"


def trivial_action(actor: LieSuperAlgebra, target: LieSuperAlgebra) -> Action:
    return Action(actor, target, {})


def adjoint_action(L: LieSuperAlgebra) -> Action:
    """The self-action by the bracket."""
    table = {}
    for i in range(L.dim):
        for j in range(L.dim):
            v = L.bracket_basis(i, j)
            if v:
                table[(i, j)] = v
    return Action(L, L, table)


def _rows(a: Action) -> list[dict[int, dict]]:
    """Row p is {m: p.e_m} over the nonzero action constants of p."""
    rows: list[dict[int, dict]] = [{} for _ in range(a.actor.dim)]
    for (p, m), v in a.table.items():
        rows[p][m] = v
    return rows


def _representation_defects(a: Action, rho: list[dict[int, dict]]):
    """Yield (p, q, m, defect), in that order, for the nonzero defects
    [p,q].m - p.(q.m) + (-1)^{|p||q|} q.(p.m), rho being :func:`_rows` of a.
    Only the m in a nonzero column of p, of q or of some r in [p, q] are
    visited: for the others every term has a zero factor."""
    P = a.actor
    index, par = P.bracket_index(), P.space.parities
    for p, rp in enumerate(rho):
        for q, rq in enumerate(rho):
            sign = 1 if par[p] * par[q] else -1
            for m, defect in _defects(a.field, _spread(index[p].get(q, {}), rho),
                                      _compose(rp, rq), _compose(rq, rp), sign):
                yield p, q, m, defect


def check_action(a: Action) -> AxiomReport:
    """Certify the parity of the action constants and the two action
    axioms on all basis triples: (i) [p,q].m = p.(q.m) - (-1)^{|p||q|}
    q.(p.m) and (ii) p.[m,m'] = [p.m, m'] + (-1)^{|p||m|} [m, p.m'].  Each
    identity is evaluated from the nonzero structure and action constants:
    a triple with a zero factor in every term has defect 0, so only the
    others are computed.  Violations come in basis order, at most
    MAX_VIOLATIONS of them."""
    violations: list[Violation] = []
    P, M = a.actor, a.target
    pp, pm = P.space.parities, M.space.parities
    for (p, m), v in a.table.items():
        want = (pp[p] + pm[m]) % 2
        for k, c in v.items():
            if pm[k] != want:
                violations.append(Violation("action-parity", (p, m, k), {k: c}))
    rho = _rows(a)
    for kind, defects in (("action-i", _representation_defects(a, rho)),
                          ("action-ii", _derivation_defects(rho, pp, M))):
        for *witness, defect in defects:
            violations.append(Violation(kind, tuple(witness), defect))
            if len(violations) >= MAX_VIOLATIONS:
                return AxiomReport(False, violations)
    return AxiomReport(not violations, violations)


def check_compatible(a_mn: Action, a_nm: Action) -> AxiomReport:
    """Compatibility of mutual actions: a_mn is the action of M on N and
    a_nm the action of N on M.  For each basis pair (m, n) it checks
    (n.m).n' = -(-1)^{|m||n|} [m.n, n'] (compat-i) and (m.n).m' =
    -(-1)^{|m||n|} [n.m, m'] (compat-ii), evaluated from the nonzero
    constants; a pair on which both n.m and m.n vanish has defect 0.
    Violations come in basis order, at most MAX_VIOLATIONS of them.
    Raises ValueError unless a_nm is an action of N on M, the same objects."""
    M, N = a_mn.actor, a_mn.target
    if a_nm.actor is not N or a_nm.target is not M:
        raise ValueError("actions are not between the same pair of algebras")
    violations: list[Violation] = []
    pm, pn = M.space.parities, N.space.parities
    rho_mn, rho_nm = _rows(a_mn), _rows(a_nm)
    m_index, n_index = M.bracket_index(), N.bracket_index()
    for m in range(M.dim):
        for n in range(N.dim):
            nm = a_nm.act_basis(n, m)  # n.m in M
            mn = a_mn.act_basis(m, n)  # m.n in N
            if not nm and not mn:
                continue
            sign = 1 if pm[m] * pn[n] else -1
            for kind, lhs, bracket in (
                ("compat-i", _spread(nm, rho_mn), _spread(mn, n_index)),
                ("compat-ii", _spread(mn, rho_nm), _spread(nm, m_index)),
            ):
                for k, defect in _defects(M.field, lhs, {}, bracket, sign):
                    violations.append(Violation(kind, (m, n, k), defect))
                    if len(violations) >= MAX_VIOLATIONS:
                        return AxiomReport(False, violations)
    return AxiomReport(not violations, violations)


@dataclass
class CrossedModule:
    """(M, P, boundary, action): boundary an even Lie homomorphism M -> P,
    the action an action of P on M."""

    m: LieSuperAlgebra
    p: LieSuperAlgebra
    boundary: GradedMap
    action: Action

    def __post_init__(self):
        if self.boundary.degree != 0:
            raise ValueError("boundary must be of even degree")


def identity_crossed(P: LieSuperAlgebra) -> CrossedModule:
    return CrossedModule(P, P, GradedMap.identity(P.space), adjoint_action(P))


def supermodule_crossed(P: LieSuperAlgebra, M: LieSuperAlgebra, action: Action) -> CrossedModule:
    """An abelian M with a P-action, as the crossed module with zero boundary."""
    return CrossedModule(M, P, GradedMap.zero(M.space, P.space), action)


def ideal_crossed(L: LieSuperAlgebra, view) -> CrossedModule:
    """The inclusion of a graded ideal (given as an AlgebraView) into L."""
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
    return CrossedModule(view.algebra, L, incl, Action(L, view.algebra, table))


def pullback_action(a: Action, source: LieSuperAlgebra, f: GradedMap) -> Action:
    """The action of ``source`` on ``a.target`` through a Lie homomorphism
    f: source -> a.actor, that is s.m = f(s).m."""
    table = {}
    for s in range(source.dim):
        fs = f.apply({s: 1})
        for m in range(a.target.dim):
            v = a.act(fs, {m: 1})
            if v:
                table[(s, m)] = v
    return Action(source, a.target, table)


def crossed_pullback_actions(cm: CrossedModule) -> tuple[Action, Action]:
    """Mutual actions of P and M induced by a crossed module d: M -> P:
    P acts as given, M acts on P through the boundary."""
    return cm.action, pullback_action(adjoint_action(cm.p), cm.m, cm.boundary)


def check_crossed(c: CrossedModule) -> AxiomReport:
    """Certify the crossed module axioms together with their structural
    consequences: the kernel of the boundary is central (else a
    ``kernel-not-central`` violation), its image is a graded ideal
    (``image-not-ideal``), and the kernel carries a well-defined module
    structure over the cokernel of the boundary (``kernel-module``)."""
    violations: list[Violation] = []
    M, P, d, act = c.m, c.p, c.boundary, c.action

    rep = check_action(act)
    violations.extend(rep.violations)

    # boundary is a Lie homomorphism
    for i, j, defect in hom_defects(d, M, P):
        violations.append(Violation("boundary-hom", (i, j), defect))
    # (i) equivariance, (ii) Peiffer
    for p in range(P.dim):
        for m in range(M.dim):
            lhs = d.apply(act.act_basis(p, m))
            rhs = P.bracket({p: 1}, d.apply({m: 1}))
            defect = M.field.clean(vec_sub(lhs, rhs))
            if defect:
                violations.append(Violation("equivariance", (p, m), defect))
    for m in range(M.dim):
        for m2 in range(M.dim):
            lhs = act.act(d.apply({m: 1}), {m2: 1})
            rhs = M.bracket_basis(m, m2)
            defect = M.field.clean(vec_sub(lhs, rhs))
            if defect:
                violations.append(Violation("peiffer", (m, m2), defect))

    if violations:
        return AxiomReport(False, violations)

    # consequences
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


def semidirect(a: Action, name: str = "") -> LieSuperAlgebra:
    """The semidirect product M x| P of an action of P on M, on M + P with

    [(m,p),(m',p')] = ([m,m'] + p.m' - (-1)^{|m||p'|} p'.m, [p,p'])."""
    rep = check_action(a)
    if not rep.ok:
        raise ActionInvalid(f"action fails its axioms: {rep.violations[:3]}")
    M, P = a.target, a.actor
    dm = M.dim
    labels = tuple(f"m.{l}" for l in M.space.labels) + tuple(f"p.{l}" for l in P.space.labels)
    parities = M.space.parities + P.space.parities
    sp = SuperSpace(M.field, labels, parities)

    def embed_m(v):
        return dict(v)

    def embed_p(v):
        return {dm + k: c for k, c in v.items()}

    def pair_bracket(m1, p1, m2, p2, par_m1, par_p2):
        out = embed_m(M.bracket(m1, m2))
        vec_axpy(out, 1, embed_m(a.act(p1, m2)))
        sgn = -1 if par_m1 * par_p2 else 1
        vec_axpy(out, -sgn, embed_m(a.act(p2, m1)))
        vec_axpy(out, 1, embed_p(P.bracket(p1, p2)))
        return out

    table: dict[tuple[int, int], dict] = {}
    total = dm + P.dim
    for i in range(total):
        for j in range(i, total):
            if i == j and parities[i] == 0:
                continue
            m1 = {i: 1} if i < dm else {}
            p1 = {i - dm: 1} if i >= dm else {}
            m2 = {j: 1} if j < dm else {}
            p2 = {j - dm: 1} if j >= dm else {}
            v = vec_clean(pair_bracket(m1, p1, m2, p2, parities[i], parities[j]))
            if v:
                table[(i, j)] = v
    return LieSuperAlgebra(sp, table, name=name or "semidirect")
