"""Relation families (i) and (ii) of M (x) N streamed from generating sets.

``nonabelian_tensor`` certifies its inputs at entry: the compatibility of
the actions, the Lie axioms of M and N and the axioms of each action, the
adjoint square the Lie axioms of P only.  It then takes a in the
generating set S_M in family (i) and b in S_N in family (ii), as the tensor
module docstring proves it may, whether or not the caller certified
anything before.  The relation space is compared with the full stream of
the oracle over Q, F3, F5 and F7: adjoint squares in unitriangular bases
(no inner torus, so no weight blocks), non-adjoint pairs of ideals, and
every non-adjoint product the package builds itself; the weight blocks of
permuted and rescaled bases are compared in ``test_tensor_relations``.
Guards pin that a non-Lie factor, an invalid action and an incompatible
pair are refused before any relation is streamed, and that a generating
set with a member dropped is refused by a certificate.  The CLI runs the
compatibility loop once per ``tensor`` command.
"""

import contextlib
import importlib
import io
import json

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (
    IDEAL_ALGEBRAS,
    LIE,
    PRIMES,
    change_basis,
    check_compatible_dense,
    ideal_pair,
    monomial_basis,
    perturbed,
    seeded_basis,
    tensor_relations_oracle,
)
from superlie import actions, corpus, suites, tensor
from superlie.actions import (
    Action,
    ActionInvalid,
    adjoint_action,
    check_action,
    check_compatible,
    identity_crossed,
    trivial_action,
)
from superlie.algebras import (
    LieSuperAlgebra,
    abelian,
    check_lie_axioms,
    heisenberg,
    series,
)
from superlie.cli import main
from superlie.closure import generating_set
from superlie.corpus import bundled_path, lie_algebra
from superlie.cyclic import cyclic_sixterm, dual_numbers, grassmann_line
from superlie.fields import Field
from superlie.io import action_to_json, load_json, parse_action
from superlie.linalg import Echelon, Subspace
from superlie.spaces import superspace
from superlie.tensor import BracketNotWellDefined, IncompatibleActions, nonabelian_tensor

homology = importlib.import_module("superlie.homology")


def full_stream(M, N, act_mn, act_nm):
    return tensor_relations_oracle(M, N, act_mn, act_nm, families=("i", "ii"))


@pytest.fixture
def contains_calls(monkeypatch):
    """The number of ``Echelon.contains`` calls made so far, as a list."""
    calls = [0]
    contains = Echelon.contains

    def counting(self, v):
        calls[0] += 1
        return contains(self, v)

    monkeypatch.setattr(Echelon, "contains", counting)
    return calls


@contextlib.contextmanager
def recorded_streams():
    """The pairs that ``nonabelian_tensor`` passes to relation families (i)
    and (ii), and the generators they yield, by family, while the context
    is open."""
    seen = {"i": ([], []), "ii": ([], [])}
    with pytest.MonkeyPatch.context() as mp:
        for key in seen:
            family = getattr(tensor, f"_family_{key}")

            def recording(*args, family=family, key=key):
                pairs = list(args[-1])
                seen[key][0].extend(pairs)
                for g in family(*args[:-1], pairs):
                    seen[key][1].append(g)
                    yield g

            mp.setattr(tensor, f"_family_{key}", recording)
        yield seen


@pytest.fixture
def streamed():
    with recorded_streams() as seen:
        yield seen


def actors(seen) -> tuple[set, set]:
    """The a streamed in family (i) and the b streamed in family (ii)."""
    return {a for a, _ in seen["i"][0]}, {b for _, b in seen["ii"][0]}


UNITRIANGULAR_CASES = [("gl(2|1)", p, 1 + k % 2) for k, p in enumerate(PRIMES)] + [
    ("heis", p, 1 + k % 2) for k, p in enumerate(PRIMES)] + [
    ("gl(2|2)", 7, 2), ("sl(2|1, L1)", 3, 2)]


@pytest.mark.parametrize("name, p, seed", UNITRIANGULAR_CASES)
def test_unitriangular_adjoint_square_matches_the_full_stream(streamed, name, p, seed):
    """A unitriangular basis finds no inner torus, so no weight blocks, and
    a runs over the generating set in (i) and b over it in (ii)."""
    L = LIE[name](Field(p))
    L = change_basis(L, seeded_basis(L, seed, "unitriangular"))
    adj = adjoint_action(L)
    assert tensor._weight_blocks(L, adj) is None
    t = nonabelian_tensor(L, L, adj, adj)
    assert actors(streamed) == (set(L._generators), set(L._generators))
    assert len(L._generators) < L.dim
    assert t.d_generators == full_stream(L, L, adj, adj)


@pytest.mark.parametrize("which", ["derived", "center"])
@settings(max_examples=4, deadline=None)
@given(name=st.sampled_from(IDEAL_ALGEBRAS), p=st.sampled_from(PRIMES), data=st.data())
def test_certified_ideal_pairs_match_the_full_stream(which, name, p, data):
    """Ideal pairs whose actions nobody certified before the call are
    certified at entry, and stream from the generating sets of both
    factors, in either order."""
    L = LIE[name](Field(p))
    L = change_basis(L, data.draw(monomial_basis(L)))
    kalg, act_lk, act_kl = ideal_pair(L, which)
    assert not (act_lk._checked or act_kl._checked)
    for M, N, act_mn, act_nm in ((kalg, L, act_kl, act_lk), (L, kalg, act_lk, act_kl)):
        with recorded_streams() as seen:
            d = nonabelian_tensor(M, N, act_mn, act_nm).d_generators
        a_s, b_s = actors(seen)
        assert a_s <= set(M._generators) and b_s <= set(N._generators)
        assert d == full_stream(M, N, act_mn, act_nm)
    assert act_lk._checked and act_kl._checked


def heis_actions(heis):
    """The two actions of the bundled heis_adjoint file on heis, as the CLI
    reads them: distinct objects, so not the adjoint square."""
    obj = load_json(bundled_path("heis_adjoint"))
    return parse_action(obj, heis, heis), parse_action(obj, heis, heis)


@pytest.mark.parametrize("p", PRIMES)
def test_heis_action_files_stream_from_generators_once_checked(streamed, p):
    """heis with its action files over Q, and with two adjoint actions over
    F3, F5 and F7: nonabelian_tensor checks the actions itself, streams
    S = {x, y} only, and gives the relation space of the full stream."""
    heis = lie_algebra.__wrapped__("heis") if p is None else heisenberg(Field(p))
    if p is None:
        amn, anm = heis_actions(heis)
    else:
        amn, anm = adjoint_action(heis), adjoint_action(heis)
    assert heis._generators is None and not (amn._checked or anm._checked)
    d = nonabelian_tensor(heis, heis, amn, anm).d_generators
    assert amn._checked and anm._checked
    assert len(heis._generators) < heis.dim
    assert actors(streamed) == (set(heis._generators), set(heis._generators))
    assert d == full_stream(heis, heis, amn, anm)


def test_an_unchecked_action_is_certified_at_entry(streamed):
    """One certified action is enough for neither family: with only the
    action of M checked, the action of N is checked at entry, and family
    (ii) too streams b over the generating set of N only."""
    L = LIE["gl(2|1)"](Field(None))
    amn, anm = adjoint_action(L), adjoint_action(L)
    assert check_action(amn) and not anm._checked
    d = nonabelian_tensor(L, L, amn, anm).d_generators
    assert anm._checked
    assert actors(streamed) == (set(L._generators), set(L._generators))
    assert d == full_stream(L, L, amn, anm)


def non_lie_without_torus(p):
    """Even h, x, y, z with [h, x] = x, [h, y] = y, [x, y] = z and
    [h, z] = 0, which breaks Jacobi at (h, x, y), in a unitriangular basis
    that has no basis element with diagonal ad."""
    F = Field(p)
    sp = superspace(F, [("h", 0), ("x", 0), ("y", 0), ("z", 0)])
    P = LieSuperAlgebra(sp, {(0, 1): {1: 1}, (0, 2): {2: 1}, (1, 2): {3: 1}})
    return change_basis(P, seeded_basis(P, 1, "unitriangular"))


@pytest.mark.parametrize("p", PRIMES)
def test_a_non_lie_factor_is_refused_before_streaming(contains_calls, streamed, p):
    """An adjoint square of a P that fails Jacobi, with no inner torus, and
    a product of two distinct adjoint actions on it, which are compatible
    by the storage rule, are both refused by the Lie-axiom certificate at
    entry, naming the axioms: each takes only the membership tests of the
    certificate's generating-set walk, streams no relation and checks no
    action."""
    P = non_lie_without_torus(p)
    adj, other = adjoint_action(P), adjoint_action(P)
    assert P.inner_torus(adj)[0] == []
    assert len(generating_set(P)) < P.dim
    contains_calls[0] = 0
    assert not check_lie_axioms(P) and P._generators is None
    walk = contains_calls[0]
    for amn, anm in ((adj, adj), (adj, other)):
        contains_calls[0] = 0
        with pytest.raises(BracketNotWellDefined, match="needs the Lie axioms of M and N"):
            nonabelian_tensor(P, P, amn, anm)
        assert contains_calls[0] == walk > 0
    assert adj._compatible_with is other
    assert streamed == {"i": ([], []), "ii": ([], [])}
    assert not (adj._checked or other._checked)


def noncommuting_action(p):
    """abelian(2|0) acting on abelian(2|0) by E12 and E21, which do not
    commute though [a, b] = 0: action axiom (i) fails.  With the trivial
    action back, both compatibility identities read 0 = 0."""
    F = Field(p)
    M, N = abelian(F, 2, 0), abelian(F, 2, 0)
    return M, N, Action(M, N, {(0, 1): {0: 1}, (1, 0): {1: 1}}), trivial_action(N, M)


@pytest.mark.parametrize("p", PRIMES)
def test_invalid_actions_are_refused_before_streaming(streamed, p):
    """An action that fails its axioms, on compatible actions, is refused
    by check_action, and an incompatible pair by check_compatible, both at
    entry and before any relation is streamed."""
    M, N, amn, anm = noncommuting_action(p)
    assert check_compatible(amn, anm) and not check_action(Action(M, N, amn.table))
    with pytest.raises(ActionInvalid, match="the action of M on N fails its axioms"):
        nonabelian_tensor(M, N, amn, anm)
    L = LIE["gl(2|1)"](Field(p))
    bad = Action(L, L, perturbed(adjoint_action(L).table))
    with pytest.raises(IncompatibleActions, match="actions are not compatible"):
        nonabelian_tensor(L, L, bad, bad)
    assert streamed == {"i": ([], []), "ii": ([], [])}


@pytest.fixture
def built_products(monkeypatch):
    """The non-adjoint products that ``superlie.homology`` builds, as
    (M, N, act_mn, act_nm, relation space)."""
    built = []
    construct = homology.nonabelian_tensor

    def recording(M, N, act_mn, act_nm):
        t = construct(M, N, act_mn, act_nm)
        built.append((M, N, act_mn, act_nm, t.d_generators))
        return t

    monkeypatch.setattr(homology, "nonabelian_tensor", recording)
    return built


@pytest.mark.parametrize("p", PRIMES)
def test_products_the_package_builds_match_the_oracle(built_products, p):
    """nh of the identity crossed module, the P (x) M of ideal_sixterm, the
    K (x) M and M (x) K of right_exactness_check and the V(A) products of
    the cyclic snake, each streamed from generating sets, against the
    five-family oracle."""
    F = Field(p)
    for name in ("heis", "gl(1|1)"):
        P = LIE[name](F)
        homology.nh(P, identity_crossed(P))
        center, full = series(P).center, P.full_subspace()
        for K in (center, P.product_subspace(full, full)):
            assert homology.ideal_sixterm(P, K).ok
            assert homology.right_exactness_check(P, K).ok
    for A in (dual_numbers(F), grassmann_line(F)):
        assert cyclic_sixterm(A).ok
    assert len(built_products) == 2 * (1 + 2 * 3) + 2 * 3
    for M, N, act_mn, act_nm, d in built_products:
        assert act_mn._checked and act_nm._checked
        assert d == tensor_relations_oracle(M, N, act_mn, act_nm)


@pytest.mark.parametrize("p", PRIMES)
def test_a_dropped_generator_is_refused_by_the_antisymmetry_certificate(streamed, p):
    """Mutation: the certified generating set of gl(2|1) in this
    unitriangular basis is [1, 2, 5], and any two of its members stream all
    of D.  With the last two dropped, D shrinks, and the bracket on classes
    is no longer antisymmetric."""
    L = LIE["gl(2|1)"](Field(p))
    L = change_basis(L, seeded_basis(L, 1, "unitriangular"))
    adj = adjoint_action(L)
    assert check_lie_axioms(L) and L._generators == [1, 2, 5]
    del L._generators[1:]
    with pytest.raises(BracketNotWellDefined, match="not antisymmetric on classes"):
        nonabelian_tensor(L, L, adj, adj)
    kept = Subspace(L.field, L.dim * L.dim, [L.field.clean(g) for key in streamed
                                             for g in streamed[key][1]])
    assert kept.dim < full_stream(L, L, adj, adj).dim


def run_tensor(*argv) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--out", "json", "tensor", *argv])
    return code, json.loads(out.getvalue())


@pytest.fixture
def compatibility_loops(monkeypatch):
    """The number of runs of the compatibility loop, as a list."""
    runs = [0]
    loop = actions._compatibility_violations

    def counting(*args):
        runs[0] += 1
        return loop(*args)

    monkeypatch.setattr(actions, "_compatibility_violations", counting)
    return runs


def test_cli_tensor_runs_the_compatibility_loop_once(compatibility_loops):
    code, report = run_tensor("@heis", "@heis", "--act-mn", "@heis_adjoint",
                              "--act-nm", "@heis_adjoint")
    assert code == 0 and report["status"] == "ok"
    assert compatibility_loops == [1]


def test_a_compatibility_pass_covers_both_orders(compatibility_loops):
    """check_compatible(b, a) checks the identities of check_compatible(a, b)
    with the roles swapped, so a pass in one order serves the other."""
    L = lie_algebra.__wrapped__("gl11")
    a, b = adjoint_action(L), adjoint_action(L)
    assert check_compatible(a, b) and check_compatible(b, a)
    assert compatibility_loops == [1]


def test_tensor_props_runs_the_compatibility_loop_once_per_pair(monkeypatch, compatibility_loops):
    """The four adjoint squares run no loop, since one adjoint action is
    compatible with itself by the storage rule; each of the two trivial
    products runs it once: its symmetry iso builds N (x) M from the same
    two actions in the other order."""
    monkeypatch.setattr(suites, "lie_algebra", corpus.lie_algebra.__wrapped__)
    rows = suites.run_suite("tensor-props")
    assert rows and all(ok for _, ok, _ in rows)
    assert compatibility_loops == [2]


@st.composite
def stored_tables(draw, field: Field) -> LieSuperAlgebra:
    """An algebra on 2 to 4 basis elements with drawn structure constants
    under the storage rule (a < b, and a = b for odd a), each value
    homogeneous of parity |a| + |b|: Jacobi is not imposed."""
    par = draw(st.lists(st.integers(0, 1), min_size=2, max_size=4))
    table = {}
    for a in range(len(par)):
        for b in range(a + 1 - par[a], len(par)):
            targets = [e for e in range(len(par)) if par[e] == (par[a] + par[b]) % 2]
            if targets and (v := draw(st.dictionaries(st.sampled_from(targets),
                                                      st.integers(-3, 3), max_size=2))):
                table[(a, b)] = v
    return LieSuperAlgebra(superspace(field, [(f"e{i}", q) for i, q in enumerate(par)]), table)


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_one_adjoint_action_is_compatible_with_itself_without_jacobi(data, p):
    """With one adjoint action on both sides, compat-i and compat-ii both
    read [[n, m], n'] = -(-1)^{|m||n|} [[m, n], n'], which the stored
    antisymmetry gives for any table: the loop and its dense oracle find
    no violation on tables that fail the Lie axioms, over Q and mod p."""
    P = data.draw(stored_tables(Field(p)))
    assume(not check_lie_axioms(P).ok)
    ad = adjoint_action(P)
    assert list(actions._compatibility_violations(ad, ad)) == []
    assert check_compatible_dense(ad, ad).ok


@pytest.mark.parametrize("p", PRIMES)
def test_only_one_adjoint_action_skips_the_compatibility_loop(p, compatibility_loops):
    """The adjoint square runs no loop; two adjoint action objects run it
    once, and one action object whose table has a perturbed constant runs
    it and is refused."""
    L = LIE["gl(2|1)"](Field(p))
    adj = adjoint_action(L)
    nonabelian_tensor(L, L, adj, adj)
    assert compatibility_loops == [0]
    nonabelian_tensor(L, L, adjoint_action(L), adjoint_action(L))
    assert compatibility_loops == [1]
    bad = Action(L, L, perturbed(adj.table))
    with pytest.raises(IncompatibleActions):
        nonabelian_tensor(L, L, bad, bad)
    assert compatibility_loops == [2]


def test_cli_tensor_refuses_incompatible_actions_after_one_loop(tmp_path, compatibility_loops):
    """The adjoint action and the trivial one each pass check_action, but
    not the compatibility identities."""
    gl = lie_algebra("gl11")
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(action_to_json(trivial_action(gl, gl))), encoding="utf-8")
    code, report = run_tensor("@gl11", "@gl11", "--act-mn", "@gl11_adjoint", "--act-nm", str(path))
    assert code == 1 and report["status"] == "failed"
    assert report["results"]["compatible"] is False
    assert compatibility_loops == [1]
