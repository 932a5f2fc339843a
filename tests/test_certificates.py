"""Differential tests of the certificates that sum each defect from the
nonzero structure constants only: ``check_lie_axioms``, ``check_action``,
``check_compatible``, ``check_crossed`` and ``hom_defects``.

The oracles in ``tests/oracles.py`` are the dense loops, which evaluate
every identity on every basis triple through the public bracket and
action.  Both must report the same violations, in the same order, with
the same kind, witness and defect (entry order included) and the same
``MAX_VIOLATIONS`` cut-off.  The inputs are heis, gl(1|1), gl(2|1) and
sl(2|1, L1) over Q, F3, F5 and F7 in drawn permuted, rescaled bases, with
their adjoint actions and the induced actions of a tensor square, each
either valid or corrupted: one perturbed constant, one new constant in a
structurally zero slot, or a new constant in every such slot.  The crossed
modules are the identity crossed module of each algebra and the two
crossed modules (mu) and (nu) of its tensor square, with a perturbed or
new action constant or a changed boundary column.

The Jacobi, action and crossed module certificates are proved on a
generating set S of each certified algebra and fall back to the loop over
every basis index on any fault; the tests below also corrupt single
entries whose indices avoid S, pin the report of an actor that fails
Jacobi, and check that S is refused unless it generates and is smaller
than the basis where it can be.
"""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    LIE,
    PRIMES,
    change_basis,
    check_action_dense,
    check_assoc_axioms_dense,
    check_compatible_dense,
    check_crossed_dense,
    check_lie_axioms_dense,
    hom_defects_dense,
    monomial_basis,
)
import superlie.actions as actions_module
from superlie.actions import (
    Action,
    CrossedModule,
    _action_violations,
    adjoint_action,
    check_action,
    check_compatible,
    check_crossed,
    crossed_pullback_actions,
    identity_crossed,
    trivial_action,
)
from superlie.algebras import (
    MAX_VIOLATIONS,
    AssocSuperAlgebra,
    LieSuperAlgebra,
    abelian,
    check_assoc_axioms,
    check_lie_axioms,
    ground_assoc,
    heisenberg,
    hom_defects,
    matrix_gl,
    matrix_sl,
    subalgebra_closure,
)
from superlie.closure import generating_set
from superlie.cyclic import grassmann_line
from superlie.fields import QQ, Field
from superlie.linalg import Echelon, Matrix
from superlie.spaces import GradedMap, superspace
from superlie.tensor import adjoint_tensor_square, nonabelian_tensor

NAMES = ("gl(1|1)", "gl(2|1)", "heis", "sl(2|1, L1)")
MODES = ("valid", "perturb", "new", "every zero slot")
CROSSED_MODES = ("valid", "perturb", "new", "boundary")
DELTAS = (1, -1, 2, Fraction(1, 2))


@lru_cache(maxsize=None)
def algebra(name: str, p) -> LieSuperAlgebra:
    return LIE[name](Field(p))


def listing(report):
    return report.ok, [(v.kind, v.witness, list(v.defect.items())) for v in report.violations]


def corrupt(data, table: dict, free_slots: list, dim: int, mode: str) -> dict:
    """A copy of a table of constants, changed as the mode says."""
    table = {key: dict(v) for key, v in table.items()}
    if mode == "perturb" and table:
        key = data.draw(st.sampled_from(sorted(table)))
        k = data.draw(st.sampled_from(sorted(table[key])))
        table[key][k] = table[key][k] + data.draw(st.sampled_from(DELTAS))
    elif mode == "new" and free_slots:
        slot = data.draw(st.sampled_from(free_slots))
        table[slot] = {data.draw(st.integers(0, dim - 1)): data.draw(st.sampled_from(DELTAS))}
    elif mode == "every zero slot":
        for slot in free_slots:
            table[slot] = {data.draw(st.integers(0, dim - 1)): 1}
    return table


def corrupt_algebra(data, L: LieSuperAlgebra, mode: str) -> LieSuperAlgebra:
    par = L.space.parities
    free = [(i, j) for i in range(L.dim) for j in range(i, L.dim)
            if (i, j) not in L.table and not (i == j and par[i] == 0)]
    return LieSuperAlgebra(L.space, corrupt(data, L.table, free, L.dim, mode), name=L.name)


def corrupt_action(data, a: Action, mode: str) -> Action:
    free = [(p, m) for p in range(a.actor.dim) for m in range(a.target.dim)
            if (p, m) not in a.table]
    return Action(a.actor, a.target, corrupt(data, a.table, free, a.target.dim, mode))


def assert_same_certificates(data, L: LieSuperAlgebra, mode: str):
    bad = corrupt_algebra(data, L, mode)
    assert listing(check_lie_axioms(bad)) == listing(check_lie_axioms_dense(bad))
    adj = adjoint_action(L)
    a = corrupt_action(data, adj, mode)
    assert listing(check_action(a)) == listing(check_action_dense(a))
    assert listing(check_compatible(a, adj)) == listing(check_compatible_dense(a, adj))
    assert listing(check_compatible(adj, a)) == listing(check_compatible_dense(adj, a))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=2, deadline=None)
@given(data=st.data())
def test_certificates_match_dense_oracles(data, name, p, mode):
    L = algebra(name, p)
    assert_same_certificates(data, change_basis(L, data.draw(monomial_basis(L))), mode)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", ["heis", "gl(1|1)"])
@settings(max_examples=2, deadline=None)
@given(data=st.data())
def test_tensor_induced_actions_match_dense_oracles(data, name, p, mode):
    """The induced actions of M on M (x) M, and of the product on M through
    mu, from the crossed module (mu)."""
    L = algebra(name, p)
    L = change_basis(L, data.draw(monomial_basis(L)))
    adj = adjoint_action(L)
    t = nonabelian_tensor(L, L, adj, adj)
    act_m, act_t = crossed_pullback_actions(t.cross_m)
    a = corrupt_action(data, act_m, mode)
    assert listing(check_action(a)) == listing(check_action_dense(a))
    assert listing(check_action(act_t)) == listing(check_action_dense(act_t))
    b = corrupt_action(data, t.action_n, mode)
    assert listing(check_action(b)) == listing(check_action_dense(b))
    assert listing(check_compatible(a, act_t)) == listing(check_compatible_dense(a, act_t))


@pytest.mark.parametrize("name", ["gl(2|1)", "sl(2|1, L1)"])
@pytest.mark.parametrize("p", PRIMES)
def test_corruption_reaches_the_cap(name, p):
    """A new constant of the right parity in every structurally zero slot
    gives more identity violations than the cut-off, in every certificate,
    with the oracle's list."""
    L = algebra(name, p)
    par = L.space.parities
    of_parity = [[k for k in range(L.dim) if par[k] == q] for q in (0, 1)]

    def constant(i, j):
        """A basis vector of parity |i| + |j|, chosen by the slot."""
        choices = of_parity[(par[i] + par[j]) % 2]
        return {choices[(i + j) % len(choices)]: 1}

    table = dict(L.table)
    for i in range(L.dim):
        for j in range(i, L.dim):
            if (i, j) not in table and not (i == j and par[i] == 0):
                table[(i, j)] = constant(i, j)
    bad = LieSuperAlgebra(L.space, table)
    adj = adjoint_action(L)
    a = Action(L, L, {(q, m): constant(q, m) for q in range(L.dim) for m in range(L.dim)
                      if (q, m) not in adj.table} | adj.table)
    for got, want in ((check_lie_axioms(bad), check_lie_axioms_dense(bad)),
                      (check_action(a), check_action_dense(a)),
                      (check_compatible(a, adj), check_compatible_dense(a, adj))):
        assert len(got.violations) == MAX_VIOLATIONS
        assert listing(got) == listing(want)


def test_parity_faults_count_toward_the_cap():
    """Tables whose only faults are entries of the wrong parity: even
    products and actions land on an odd z that brackets, multiplies and
    is acted on by nothing, so every identity holds.  Each report stops at
    MAX_VIOLATIONS, with the oracle's list; before parity violations
    counted, they gave 21, 25, 20 and 20."""
    def basis(evens: int):
        return superspace(QQ, [(f"x{i}", 0) for i in range(evens)] + [("z", 1)])

    L = LieSuperAlgebra(basis(7), {(i, j): {7: 1} for i in range(7) for j in range(i + 1, 7)})
    A = AssocSuperAlgebra(basis(5), {(i, j): {5: 1} for i in range(5) for j in range(5)})
    P, M = abelian(QQ, 5, 0), abelian(QQ, 4, 1)
    a = Action(P, M, {(p, m): {4: 1} for p in range(5) for m in range(4)})
    c = CrossedModule(M, P, GradedMap.zero(M.space, P.space), a)
    for got, want in ((check_lie_axioms(L), check_lie_axioms_dense(L)),
                      (check_assoc_axioms(A), check_assoc_axioms_dense(A)),
                      (check_action(a), check_action_dense(a)),
                      (check_crossed(c), check_crossed_dense(c))):
        assert len(got.violations) == MAX_VIOLATIONS
        assert {v.kind for v in got.violations} <= {"parity", "action-parity"}
        assert listing(got) == listing(want)


def corrupt_crossed(data, c: CrossedModule, mode: str) -> CrossedModule:
    """A copy of c with a corrupted action or, in mode "boundary", one
    boundary entry changed by a drawn delta (kept in the field's normal
    form and of the map's parity)."""
    if mode != "boundary":
        return CrossedModule(c.m, c.p, c.boundary, corrupt_action(data, c.action, mode))
    d, field = c.boundary, c.m.field
    spar, tpar = d.source.parities, d.target.parities
    j = data.draw(st.sampled_from([j for j in range(d.source.dim) if spar[j] in tpar]))
    i = data.draw(st.sampled_from([i for i in range(d.target.dim) if tpar[i] == spar[j]]))
    cols = [dict(col) for col in d.matrix.cols]
    cols[j][i] = cols[j].get(i, 0) + data.draw(st.sampled_from(DELTAS))
    cols[j] = field.clean({k: field.of(v) for k, v in cols[j].items()})
    return CrossedModule(c.m, c.p, GradedMap(d.source, d.target, Matrix(field, d.target.dim, cols)),
                         c.action)


def hom_listing(defects):
    return [(i, j, list(defect.items())) for i, j, defect in defects]


@pytest.mark.parametrize("mode", CROSSED_MODES)
@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=2, deadline=None)
@given(data=st.data())
def test_crossed_certificates_match_dense_oracles(data, name, p, mode):
    """check_crossed and hom_defects, which read one intertwining defect per
    operator row, against the loops over every basis pair, on the identity
    crossed module of L and on (mu) and (nu) of L (x) L."""
    L = algebra(name, p)
    L = change_basis(L, data.draw(monomial_basis(L)))
    adj = adjoint_action(L)
    t = nonabelian_tensor(L, L, adj, adj)
    for c in (identity_crossed(L), t.cross_m, t.cross_n):
        c = corrupt_crossed(data, c, mode)
        assert listing(check_crossed(c)) == listing(check_crossed_dense(c))
        assert (hom_listing(hom_defects(c.boundary, c.m, c.p))
                == hom_listing(hom_defects_dense(c.boundary, c.m, c.p)))


def test_compatible_refuses_actions_between_other_algebras():
    """The action of N on M must have target M, and the tensor product's
    actions must be between its factors: otherwise the pair describes no
    tensor product.  Before these checks the first compatibility check
    passed, and both tensor products below were built, as (4|0) algebras."""
    heis = heisenberg(QQ)
    other = abelian(QQ, 3, 0)
    with pytest.raises(ValueError, match="actions are not between the same pair of algebras"):
        check_compatible(adjoint_action(heis), trivial_action(heis, other))
    with pytest.raises(ValueError, match="actions are not between the same pair of algebras"):
        check_compatible(adjoint_action(heis), trivial_action(other, heis))
    with pytest.raises(ValueError, match="actions are not between the same pair of algebras"):
        nonabelian_tensor(heis, heis, adjoint_action(heis), trivial_action(heis, other))
    with pytest.raises(ValueError, match="actions are not between the same pair of algebras"):
        nonabelian_tensor(heis, other, adjoint_action(heis), adjoint_action(heis))


def bumped(data, table: dict, key, parity_of: list, parity: int) -> dict:
    """A copy of a table of constants with entry k of table[key] changed by
    a drawn delta, k a drawn index of the given parity."""
    table = {slot: dict(v) for slot, v in table.items()}
    k = data.draw(st.sampled_from([k for k, q in enumerate(parity_of) if q == parity]))
    row = table.setdefault(key, {})
    row[k] = row.get(k, 0) + data.draw(st.sampled_from(DELTAS))
    return table


def assert_generator_path_matches_dense_oracles(data, L: LieSuperAlgebra):
    """The intact algebra is certified on a proper generating set S, and its
    identity crossed module with it.  A single bracket entry at (i, j), an
    action entry at (q, m) and a boundary entry in column m, with none of
    i, j, q, m in S, is found by the fallback to the full loop: the report
    is the dense oracle's.  When S leaves a single even index, no bracket
    slot (i, j) avoids S, and only the bracket corruption is skipped."""
    assert check_lie_axioms(L).ok
    S, par = L._generators, L.space.parities
    assert len(S) < L.dim
    outside = [i for i in range(L.dim) if i not in S]
    ident = identity_crossed(L)
    assert listing(check_crossed(ident)) == listing(check_crossed_dense(ident)) == (True, [])

    slots = [(i, j) for i in outside for j in outside if i < j or (i == j and par[i])]
    if slots:
        i, j = data.draw(st.sampled_from(slots))
        bad = LieSuperAlgebra(L.space, bumped(data, L.table, (i, j), par, (par[i] + par[j]) % 2))
        assert listing(check_lie_axioms(bad)) == listing(check_lie_axioms_dense(bad))

    q, m = data.draw(st.sampled_from(outside)), data.draw(st.sampled_from(outside))
    a = Action(L, L, bumped(data, ident.action.table, (q, m), par, (par[q] + par[m]) % 2))
    assert listing(check_action(a)) == listing(check_action_dense(a))
    cols = [dict(col) for col in ident.boundary.matrix.cols]
    cols[m] = bumped(data, {0: cols[m]}, 0, par, par[m])[0]
    d = GradedMap(L.space, L.space, Matrix(L.field, L.dim, [L.field.clean(
        {k: L.field.of(c) for k, c in col.items()}) for col in cols]))
    for c in (CrossedModule(L, L, ident.boundary, a), CrossedModule(L, L, d, ident.action)):
        assert listing(check_crossed(c)) == listing(check_crossed_dense(c))


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", ["gl(2|1)", "sl(2|1, L1)"])
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_generator_path_matches_dense_oracles(data, name, p):
    L = algebra(name, p)
    assert_generator_path_matches_dense_oracles(data, change_basis(L, data.draw(monomial_basis(L))))


@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_generator_path_with_one_even_index_outside_the_generators(data):
    """gl(1|1)/F3 in the basis permuted by [2, 0, 1, 3] with unit scales: S
    is [0, 1, 2], and the one index outside it, 3, is even.  The walk
    picked four or five of the nine elements of gl(2|1) in each of 300
    seeded permuted bases, so that algebra no longer serves here."""
    L = change_basis(algebra("gl(1|1)", 3), [{e: 1} for e in (2, 0, 1, 3)])
    assert check_lie_axioms(L).ok
    assert L._generators == [0, 1, 2] and L.space.parities[3] == 0
    assert_generator_path_matches_dense_oracles(data, L)


def test_actor_failing_jacobi_takes_the_full_loop():
    """P is the filiform algebra g, [e0, e1] = e2 and [e0, e2] = e3, with
    the extra bracket [e2, e3] = e0, so it fails Jacobi; it acts on g by
    the adjoint constants of g.  The action axioms hold for every p in the
    generating set {e0, e1} of P and fail at p = e2 and e3 only, so a check
    on the generators alone would pass; the actor is not certified, and the
    reports are those of the loop over every basis index, pinned here as
    the full checkers gave them before the generator path."""
    sp = superspace(QQ, [(f"e{i}", 0) for i in range(4)])
    g = LieSuperAlgebra(sp, {(0, 1): {2: 1}, (0, 2): {3: 1}})
    P = LieSuperAlgebra(sp, {(0, 1): {2: 1}, (0, 2): {3: 1}, (2, 3): {0: 1}})
    a = Action(P, g, adjoint_action(g).table)
    assert generating_set(P) == [0, 1]
    assert next(_action_violations(a, [0, 1]), None) is None
    action_i = [("action-i", (2, 3, 1), [(2, 1)]), ("action-i", (2, 3, 2), [(3, 1)]),
                ("action-i", (3, 2, 1), [(2, -1)]), ("action-i", (3, 2, 2), [(3, -1)])]
    assert listing(check_action(a)) == (False, action_i)
    c = CrossedModule(g, P, GradedMap.identity(sp), a)
    assert listing(check_crossed(c)) == (False, action_i + [
        ("boundary-hom", (2, 3), [(0, -1)]), ("boundary-hom", (3, 2), [(0, 1)]),
        ("equivariance", (2, 3), [(0, -1)]), ("equivariance", (3, 2), [(0, 1)])])
    assert not check_lie_axioms(P).ok and P._generators is None
    assert listing(check_action(a)) == listing(check_action_dense(a))
    assert listing(check_crossed(c)) == listing(check_crossed_dense(c))


def test_generating_set_that_does_not_generate_is_refused(monkeypatch):
    """A walk that wrongly skips e1 of heis as already spanned keeps {e0},
    whose closure is span(e0): the helper refuses it, and no generating
    set is memoized."""
    L = heisenberg(QQ)
    assert generating_set(L) == [0, 1]
    contains = Echelon.contains
    monkeypatch.setattr(Echelon, "contains", lambda self, v: v == {1: 1} or contains(self, v))
    with pytest.raises(RuntimeError, match="does not generate"):
        check_lie_axioms(L)
    assert L._generators is None


@pytest.mark.parametrize("build", [
    lambda: matrix_sl(2, 1, grassmann_line(QQ)).algebra,
    lambda: matrix_gl(2, 2, ground_assoc(Field(5))),
    lambda: matrix_gl(2, 2, ground_assoc(QQ)),
], ids=["sl(2|1, L1)", "gl(2|2)/F5", "gl(2|2)"])
def test_generating_sets_are_smaller_than_the_basis(build, monkeypatch):
    """The generating sets of the algebra and of its adjoint tensor square
    are proper subsets of the basis that generate it (checked by
    subalgebra_closure), and check_action visits exactly those operators."""
    P = build()
    t = adjoint_tensor_square(P)
    for L in (P, t.algebra):
        S = L._generators
        assert S == generating_set(L) and len(S) < L.dim
        assert subalgebra_closure(L, [{s: 1} for s in S]).dim == L.dim
    visited = []
    representation = actions_module._representation_defects
    monkeypatch.setattr(actions_module, "_representation_defects",
                        lambda a, actors: visited.append(list(actors)) or representation(a, actors))
    assert check_action(t.action_m).ok
    assert visited == [P._generators]
