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

from functools import partial

from .algebras import (
    AxiomReport,
    LieSuperAlgebra,
    Violation,
    _bilinear,
    _compose,
    _derivation_defects,
    _first_violations,
    _group_defects,
    _normalize,
    _parity_violations,
    _row_index,
    _spread,
    check_lie_axioms,
    hom_defects,
    intertwining_defects,
)
from .fields import record
from .linalg import Subspace, vec_scale
from .spaces import GradedMap, SuperSpace, tensor_index, tensor_pair


class ActionInvalid(ValueError):
    """A construction received an action that fails its axioms."""


class Action:
    """Bilinear action constants of ``actor`` on ``target``: ``table`` maps
    (p, m) to p.e_m, and ``rows[p]`` is {m: p.e_m}, both over the nonzero
    constants only and sharing their vectors, which callers must not
    mutate.  ``_checked`` records that :func:`check_action` passed, and
    ``_compatible_with`` the action of target on actor with which
    :func:`check_compatible` passed, in either order, as ``_generators``
    records the Lie axioms on the algebra."""

    def __init__(self, actor: LieSuperAlgebra, target: LieSuperAlgebra,
                 table: dict[tuple[int, int], dict]):
        self.actor = actor
        self.target = target
        self.field = actor.field
        self.table = _normalize(self.field, table)
        self.rows = _row_index(self.table, actor.dim)
        self._checked = False
        self._compatible_with: Action | None = None

    def act_basis(self, p: int, m: int) -> dict:
        return self.rows[p].get(m, {})

    def act(self, pvec: dict, mvec: dict) -> dict:
        return _bilinear(self.field, self.rows, pvec, mvec)

    def is_trivial(self) -> bool:
        return not self.table

    def __repr__(self):
        return f"Action({self.actor.name or 'anon'} on {self.target.name or 'anon'})"


def trivial_action(actor: LieSuperAlgebra, target: LieSuperAlgebra) -> Action:
    return Action(actor, target, {})


def adjoint_action(L: LieSuperAlgebra) -> Action:
    """The self-action by the bracket, read from the nonzero brackets of
    :meth:`~superlie.algebras.LieSuperAlgebra.bracket_index` in row-major
    order."""
    return Action(L, L, {(i, j): row[j] for i, row in enumerate(L.bracket_index())
                         for j in sorted(row)})


def tensor_action(left: Action, right: Action):
    """The action of the common actor X of ``left`` (X on M) and ``right``
    (X on N) on M (x) N,

        x.(m (x) n) = x.m (x) n + (-1)^{|x||m|} m (x) x.n,

    as ``act(a, v)``: basis element a of X on a vector v in the row-major
    pair basis of :func:`~superlie.spaces.tensor_space`.  The Koszul sign is
    the one of x passing m; it is written here and nowhere else.  Values
    are not normalized by the field."""
    if left.actor is not right.actor:
        raise ValueError("the two actions have different actors")
    rho_m, rho_n = left.rows, right.rows
    px, pm = left.actor.space.parities, left.target.space.parities
    dm, dn = left.target.dim, right.target.dim
    pair = [tensor_pair(dn, t) for t in range(dm * dn)]
    index = [[tensor_index(dn, i, j) for j in range(dn)] for i in range(dm)]

    def act(a: int, v: dict) -> dict:
        out: dict = {}
        ra, sa, odd = rho_m[a], rho_n[a], px[a]
        for t, c in v.items():
            i, j = pair[t]
            for k, ck in ra.get(i, {}).items():
                key = index[k][j]
                out[key] = out.get(key, 0) + c * ck
            row, c = index[i], -c if odd and pm[i] else c
            for k, ck in sa.get(j, {}).items():
                out[row[k]] = out.get(row[k], 0) + c * ck
        return out

    return act


def _certified_generators(L: LieSuperAlgebra) -> list[int] | None:
    """The generating set of L once L passes :func:`check_lie_axioms`, or
    None when it fails."""
    if L._generators is None:
        check_lie_axioms(L)
    return L._generators


def _certify(violations, *algebras) -> AxiomReport:
    """The report of ``violations(ops, ...)``, one index set per algebra:
    passed when the algebras are certified and it finds nothing on their
    generating sets, else the first MAX_VIOLATIONS of it on every index."""
    gens = [_certified_generators(L) for L in algebras]
    if None not in gens and next(violations(*gens), None) is None:
        return AxiomReport(True)
    return _first_violations(violations(*(range(L.dim) for L in algebras)))


def is_central(L: LieSuperAlgebra, S: Subspace) -> bool:
    """Whether [r, e_s] = 0 for every row r of S and every s in the
    generating set of a certified L, every basis index otherwise: a
    centralizer is a subalgebra, by (d) of the :mod:`~superlie.algebras`
    docstring."""
    ops = _certified_generators(L) or range(L.dim)
    return not any(L.bracket(r, {s: 1}) for s in ops for r in S.rows)


def _representation_defects(a: Action, actors):
    """Yield (p, q, m, defect), in that order, for the nonzero defects
    [p,q].m - p.(q.m) + (-1)^{|p||q|} q.(p.m) over the actor indices p in
    ``actors``.  Only the m in a nonzero column of p, of q or of some r in
    [p, q] are visited: for the others every term has a zero factor."""
    P, rho = a.actor, a.rows
    index, par = P.bracket_index(), P.space.parities
    for p in actors:
        rp = rho[p]
        for q, rq in enumerate(rho):
            sign = 1 if par[p] * par[q] else -1
            for m, defect in _group_defects(a.field, (_spread, index[p].get(q, {}), rho),
                                            (_compose, rp, rq), (_compose, rq, rp), sign):
                yield p, q, m, defect


def check_action(a: Action) -> AxiomReport:
    """Certify the parity of the action constants and the two action
    axioms on all basis triples: (i) [p,q].m = p.(q.m) - (-1)^{|p||q|}
    q.(p.m) and (ii) p.[m,m'] = [p.m, m'] + (-1)^{|p||m|} [m, p.m'].  Each
    identity is evaluated from the nonzero structure and action constants:
    a triple with a zero factor in every term has defect 0, so only the
    others are computed.  For a certified actor both axioms are proved on
    its generating set, by (b) of the :mod:`~superlie.algebras` docstring.
    Violations come in basis order, at most MAX_VIOLATIONS of them, from
    the loop over every basis index.  A pass is recorded on ``a``."""
    rep = _certify(partial(_action_violations, a), a.actor)
    a._checked = rep.ok
    return rep


def _action_violations(a: Action, actors):
    pp = a.actor.space.parities
    yield from _parity_violations(a.table, pp, a.target.space.parities, "action-parity")
    for kind, defects in (("action-i", _representation_defects(a, actors)),
                          ("action-ii", _derivation_defects(a.rows, pp, a.target, actors))):
        for *witness, defect in defects:
            yield Violation(kind, tuple(witness), defect)


def check_compatible(a_mn: Action, a_nm: Action) -> AxiomReport:
    """Compatibility of mutual actions: a_mn is the action of M on N and
    a_nm the action of N on M.  For each basis pair (m, n) it checks
    (n.m).n' = -(-1)^{|m||n|} [m.n, n'] (compat-i) and (m.n).m' =
    -(-1)^{|m||n|} [n.m, m'] (compat-ii), evaluated from the nonzero
    constants; a pair on which both n.m and m.n vanish has defect 0.
    Violations come in basis order, at most MAX_VIOLATIONS of them.
    check_compatible(a_nm, a_mn) checks the same two identities with the
    roles swapped, so a pass is recorded on both actions, and the loop runs
    once per pair of actions, in either order.  Raises ValueError unless
    a_nm is an action of N on M, the same objects."""
    if a_nm.actor is not a_mn.target or a_nm.target is not a_mn.actor:
        raise ValueError("actions are not between the same pair of algebras")
    if a_mn._compatible_with is a_nm:
        return AxiomReport(True)
    rep = _first_violations(_compatibility_violations(a_mn, a_nm))
    if rep.ok:
        a_mn._compatible_with, a_nm._compatible_with = a_nm, a_mn
    return rep


def _compatibility_violations(a_mn: Action, a_nm: Action):
    M, N = a_mn.actor, a_mn.target
    pm, pn = M.space.parities, N.space.parities
    rho_mn, rho_nm = a_mn.rows, a_nm.rows
    m_index, n_index = M.bracket_index(), N.bracket_index()
    for m in range(M.dim):
        for n in range(N.dim):
            nm = rho_nm[n].get(m, {})  # n.m in M
            mn = rho_mn[m].get(n, {})  # m.n in N
            if not nm and not mn:
                continue
            sign = 1 if pm[m] * pn[n] else -1
            for kind, lhs, bracket in (
                ("compat-i", (_spread, nm, rho_mn), (_spread, mn, n_index)),
                ("compat-ii", (_spread, mn, rho_nm), (_spread, nm, m_index)),
            ):
                for k, defect in _group_defects(M.field, lhs, None, bracket, sign):
                    yield Violation(kind, (m, n, k), defect)


@record
class CrossedModule:
    """(M, P, boundary, action): boundary an even Lie homomorphism M -> P,
    the action an action of P on M."""

    m: LieSuperAlgebra
    p: LieSuperAlgebra
    boundary: GradedMap
    action: Action


def identity_crossed(P: LieSuperAlgebra) -> CrossedModule:
    return CrossedModule(P, P, GradedMap.identity(P.space), adjoint_action(P))


def supermodule_crossed(P: LieSuperAlgebra, M: LieSuperAlgebra, action: Action) -> CrossedModule:
    """An abelian M with a P-action, as the crossed module with zero boundary."""
    return CrossedModule(M, P, GradedMap.zero(M.space, P.space), action)


def ideal_crossed(L: LieSuperAlgebra, view) -> CrossedModule:
    """The inclusion of a graded ideal (given as an AlgebraView) into L;
    the action constants [e_i, e_m] of L on the ideal are read from
    :meth:`~superlie.algebras.LieSuperAlgebra.left_brackets` of each
    inclusion column, in row-major order."""
    incl = view.inclusion
    brackets = [L.left_brackets(c) for c in incl.matrix.cols]
    table = {}
    for i in range(L.dim):
        for m, left in enumerate(brackets):
            if i not in left:
                continue
            v = view.subspace.coords(left[i])
            if v is None:
                raise ActionInvalid("subspace is not an ideal")
            if v:
                table[(i, m)] = v
    return CrossedModule(view.algebra, L, incl, Action(L, view.algebra, table))


def pullback_action(a: Action, source: LieSuperAlgebra, f: GradedMap) -> Action:
    """The action of ``source`` on ``a.target`` through a Lie homomorphism
    f: source -> a.actor, that is s.m = f(s).m, spread from the rows of
    the actor's basis elements in each column of f, in row-major order."""
    table = {}
    for s, col in enumerate(f.matrix.cols):
        row = _spread(col, a.rows)
        for m in sorted(row):
            if v := a.field.clean(row[m]):
                table[(s, m)] = v
    return Action(source, a.target, table)


def crossed_pullback_actions(cm: CrossedModule) -> tuple[Action, Action]:
    """Mutual actions of P and M induced by a crossed module d: M -> P:
    P acts as given, M acts on P through the boundary."""
    return cm.action, pullback_action(adjoint_action(cm.p), cm.m, cm.boundary)


def check_crossed(c: CrossedModule) -> AxiomReport:
    """Certify the crossed module axioms: the action axioms, the boundary a
    Lie homomorphism, equivariance d(p.m) = [p, d m] and Peiffer
    d(m).m' = [m, m'].  Violations come in that order, at most
    MAX_VIOLATIONS of them.  For a certified M and P the axioms are proved
    on their generating sets, by (b) and (c) of the :mod:`~superlie.algebras`
    docstring; violations are those of the loop over every basis index.
    Raises ValueError unless the action is one of P on M and the boundary
    maps the space of M to that of P.

    The structural consequences are theorems of a pass, so none is checked
    again.  The boundary d is even, since every ``GradedMap`` is, and a pass
    proves Peiffer and equivariance on every pair, checked there or by (c).
    For k in Ker d, [k, m'] = d(k).m' = 0, so Ker d is central.  For every
    p and m, [p, d m] = d(p.m), so Im d is an ideal; it is graded because d
    is even, and the canonical rows of a graded subspace are homogeneous.
    For k in Ker d, d(m).k = [m, k] = 0 and d(p.k) = [p, d k] = 0, so
    Ker d is a module over Coker d.  No division is used, so this holds in
    every characteristic."""
    if c.action.actor is not c.p or c.action.target is not c.m:
        raise ValueError("the action is not an action of P on M")
    if c.boundary.source != c.m.space or c.boundary.target != c.p.space:
        raise ValueError("the boundary does not map M to P")
    return _certify(partial(_crossed_violations, c), c.p, c.m)


def _crossed_violations(c: CrossedModule, ps, ms):
    """The axiom violations, with actors p in ``ps`` and m in ``ms``."""
    M, P, d, act = c.m, c.p, c.boundary, c.action
    yield from _action_violations(act, ps)
    # boundary is a Lie homomorphism; (i) equivariance: d intertwines the
    # action of p with ad(p); (ii) Peiffer: the action of d(m) is ad(m)
    cols = d.matrix.cols
    for kind, defects in (
        ("boundary-hom", hom_defects(d, M, P, ms)),
        ("equivariance", intertwining_defects(M.field, cols, act.rows, P.bracket_index(), ps)),
        ("peiffer", intertwining_defects(M.field, [{m: 1} for m in range(M.dim)],
                                         {m: _spread(cols[m], act.rows) for m in ms},
                                         M.bracket_index(), ms)),
    ):
        for *witness, defect in defects:
            yield Violation(kind, tuple(witness), defect)


def semidirect(a: Action, name: str = "") -> LieSuperAlgebra:
    """The semidirect product M x| P of an action of P on M, on M + P with

    [(m,p),(m',p')] = ([m,m'] + p.m' - (-1)^{|m||p'|} p'.m, [p,p'])."""
    check_action(a).require(ActionInvalid, "action fails its axioms")
    M, P = a.target, a.actor
    dm = M.dim
    labels = tuple(f"m.{l}" for l in M.space.labels) + tuple(f"p.{l}" for l in P.space.labels)
    parities = M.space.parities + P.space.parities
    # the M basis comes first, so row m of M holds [m, m'] and [m, p'] =
    # -(-1)^{|m||p'|} p'.m, read from the action rows; row p of P holds
    # [p, p'] only, since from_bracket keeps the pairs i <= j
    rows = [dict(r) for r in M.bracket_index()]
    for p, row in enumerate(a.rows):
        for m, v in row.items():
            rows[m][dm + p] = vec_scale(v, 1 if parities[m] * parities[dm + p] else -1)
    rows += [{dm + q: {dm + k: c for k, c in w.items()} for q, w in r.items()}
             for r in P.bracket_index()]
    return LieSuperAlgebra.from_bracket(SuperSpace(M.field, labels, parities), rows,
                                        name=name or "semidirect")
