"""Each refusal of a malformed call, each certificate that only a broken
input or a broken map can fail, and the command-line branches that no
corpus input reaches, run once.

``CALLS`` is one table of (call, exception type, message fragment): a
call that breaks one precondition of a library function, or feeds a
certificate what it exists to catch, raises that function's own
exception with its own message; the symmetry iso is broken by doubling
the map it induces.  The command-line tests below it pin the ``check`` lines for a solvable and for a non-solvable
algebra, the input errors of ``tensor`` and ``cyclic``, and each exit 1
of ``homology --hopf`` and ``cyclic``, forced by replacing the route
that the command compares against.
"""

import json
import types
from importlib import import_module
from pathlib import Path

import pytest

from oracles import run_cli
from superlie.actions import (
    ActionInvalid,
    CrossedModule,
    adjoint_action,
    identity_crossed,
    ideal_crossed,
    tensor_action,
    trivial_action,
)
from superlie.algebras import (
    AlgebraView,
    AssocSuperAlgebra,
    BracketNotWellDefined,
    LieSuperAlgebra,
    NotAnIdeal,
    SizeError,
    abelian,
    ground_assoc,
    heisenberg,
    is_engel,
    matrix_assoc,
    matrix_gl,
    quotient_space,
    subalgebra_on,
)
from superlie.corpus import lie_algebra
from superlie.cyclic import connes, dual_numbers
from superlie.fields import QQ, Field
from superlie.homology import (
    Complex,
    ComplexInconsistent,
    CrossedSES,
    _divided,
    exact_sequence,
    ideal_sixterm,
    right_exactness_check,
)
from superlie.io import (
    ParseError,
    algebra_to_json,
    load_algebra,
    load_crossed,
    parse_boundary,
    parse_module,
)
from superlie.linalg import AmbientMismatch, Subquotient, Subspace, vec_scale
from superlie.spaces import GradedMap, SuperSpace, exterior_power, superspace, tensor_space
from superlie.tensor import (
    CrossedModuleMismatch,
    _exterior,
    adjoint_tensor_square,
    nilpotency_bounds_check,
    nonabelian_exterior,
)

HEIS = heisenberg(QQ)
X_T = superspace(QQ, [("x", 0), ("t", 1)])  # an even and an odd basis vector
MIXED = Subspace(QQ, 2, [{0: 1, 1: 1}])      # spanned by x + t, not homogeneous


def not_an_ideal() -> AlgebraView:
    """The line of x in heis: a subalgebra that [y, x] = -z leaves."""
    return subalgebra_on(HEIS, Subspace(QQ, 3, [{0: 1}]), name="x")


def exact_but_l_has_a_boundary() -> CrossedSES:
    """0 -> heis -> heis -> 0 -> 0, exact, with L the identity crossed
    module of heis, whose boundary is not zero."""
    cid = identity_crossed(HEIS)
    zero = LieSuperAlgebra(superspace(QQ, []), {}, name="0")
    cz = CrossedModule(zero, HEIS, GradedMap.zero(zero.space, HEIS.space), trivial_action(HEIS, zero))
    return CrossedSES(HEIS, cid, cid, cz, GradedMap.identity(HEIS.space),
                      GradedMap.zero(HEIS.space, zero.space))


def boundary_doubled_at_0(P: LieSuperAlgebra) -> CrossedModule:
    """The identity crossed module of P with its boundary doubled on e_0:
    not a homomorphism, so not a crossed module, and on gl(1|1) the
    pullback pairs it gives do not span a central ideal of P (x) P."""
    cols = [{i: 2 if i == 0 else 1} for i in range(P.dim)]
    return CrossedModule(P, P, GradedMap.from_columns(P.space, P.space, cols), adjoint_action(P))


def write(tmp_path, name: str, obj) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def crossed_file(tmp_path, m: dict, p: dict) -> Path:
    """A crossed module file from the algebra object m to the algebra
    object p, with no boundary and no action entries."""
    write(tmp_path, "m.json", m)
    write(tmp_path, "p.json", p)
    return write(tmp_path, "crossed.json", {"m": "m.json", "p": "p.json", "boundary": [],
                                            "action": []})


HEIS_F5 = {**algebra_to_json(HEIS), "field": {"kind": "Fp", "p": 5}}

# name -> (call on a temporary directory, exception type, message fragment)
CALLS = {
    # spaces
    "labels-and-parities": (lambda tmp: SuperSpace(QQ, ("x",), ()), ValueError,
                            "labels and parities differ in length"),
    "parity-2": (lambda tmp: SuperSpace(QQ, ("x",), (2,)), ValueError, "parities must be 0 or 1"),
    "split-mixed": (lambda tmp: X_T.split_dims(MIXED.rows), ValueError,
                    "vector is not parity homogeneous"),
    "map-shape": (lambda tmp: GradedMap.from_columns(X_T, X_T, [{}]), ValueError,
                  "matrix shape does not match the spaces"),
    "compose-spaces": (lambda tmp: GradedMap.identity(X_T).compose(GradedMap.identity(HEIS.space)),
                       ValueError, "maps are not composable"),
    "tensor-fields": (lambda tmp: tensor_space(X_T, superspace(Field(5), [("u", 0)])),
                      ValueError, "tensor factors over different fields"),
    "exterior-negative": (lambda tmp: exterior_power(X_T, -1), ValueError,
                          "negative exterior power"),
    # homology
    "divided-powers": (lambda tmp: _divided({0: 1}, 1, [0], 3, "x^3"), ComplexInconsistent,
                       "the boundary of x^3 is not integral on divided powers"),
    "complex-spaces": (lambda tmp: Complex([None, GradedMap.identity(X_T),
                                            GradedMap.identity(HEIS.space)]),
                       ValueError, "maps are not composable"),
    "complex-short": (lambda tmp: Complex([None, GradedMap.identity(X_T)]).homology(1),
                      IndexError, "complex too short for H_1"),
    "sequence-labels": (lambda tmp: exact_sequence(["A"], [GradedMap.identity(X_T)]),
                        ValueError, "1 maps join 2 nodes, not 1"),
    "sequence-spaces": (lambda tmp: exact_sequence(["A", "B", "C"], [GradedMap.identity(X_T),
                                                                     GradedMap.identity(HEIS.space)]),
                        ValueError, "maps 0 and 1 are not composable"),
    "ses-left-boundary": (lambda tmp: exact_but_l_has_a_boundary().validate(), ValueError,
                          "the left coefficient must have zero boundary"),
    "sixterm-ideal": (lambda tmp: ideal_sixterm(HEIS, not_an_ideal().subspace), NotAnIdeal,
                      "the six-term sequence requires a graded ideal"),
    "right-exactness-ideal": (lambda tmp: right_exactness_check(HEIS, not_an_ideal().subspace),
                              NotAnIdeal, "right exactness requires a graded ideal"),
    # algebras
    "matrix-no-rows": (lambda tmp: matrix_assoc(0, 0, ground_assoc(QQ)), SizeError,
                       "need at least one row"),
    "matrix-no-unit": (lambda tmp: matrix_assoc(1, 0, AssocSuperAlgebra(superspace(QQ, [("a", 0)]), {})),
                       ValueError, "coefficient algebra must be unital"),
    "engel-0": (lambda tmp: is_engel(HEIS, 0), ValueError, "Engel degree must be >= 1"),
    "subalgebra-mixed": (lambda tmp: subalgebra_on(abelian(QQ, 1, 1), MIXED), NotAnIdeal,
                         "subspace is not spanned by homogeneous vectors"),
    "section-mixed": (lambda tmp: quotient_space(X_T, MIXED, Subspace(QQ, 2, []), "q"),
                      NotAnIdeal, "section is not parity homogeneous"),
    # actions
    "tensor-actors": (lambda tmp: tensor_action(adjoint_action(HEIS), adjoint_action(heisenberg(QQ))),
                      ValueError, "the two actions have different actors"),
    "ideal-crossed": (lambda tmp: ideal_crossed(HEIS, not_an_ideal()), ActionInvalid,
                      "subspace is not an ideal"),
    # cyclic
    "connes-0": (lambda tmp: connes(dual_numbers(QQ), 0), ValueError,
                 "the complex needs at least degree 1"),
    # linalg
    "subquotient-ambients": (lambda tmp: Subquotient(Subspace(QQ, 2, []), Subspace(QQ, 3, [])),
                             AmbientMismatch, "2 vs 3"),
    # tensor
    "exterior-bases": (lambda tmp: nonabelian_exterior(adjoint_tensor_square(HEIS),
                                                       identity_crossed(HEIS),
                                                       identity_crossed(heisenberg(QQ))),
                       CrossedModuleMismatch, "crossed modules are over different bases"),
    "exterior-not-a-crossed-module": (lambda tmp: nonabelian_exterior(
        adjoint_tensor_square(lie_algebra("gl11")), identity_crossed(lie_algebra("gl11")),
        boundary_doubled_at_0(lie_algebra("gl11"))),
        CrossedModuleMismatch, "input fails the crossed module axioms"),
    "exterior-heis-not-a-crossed-module": (lambda tmp: nonabelian_exterior(
        adjoint_tensor_square(HEIS), identity_crossed(HEIS), boundary_doubled_at_0(HEIS)),
        CrossedModuleMismatch, "input fails the crossed module axioms"),
    "exterior-square-not-central": (lambda tmp: _exterior(
        adjoint_tensor_square(lie_algebra("gl11")), identity_crossed(lie_algebra("gl11")),
        boundary_doubled_at_0(lie_algebra("gl11"))),
        BracketNotWellDefined, "square ideal is not central in the product"),
    "exterior-factors": (lambda tmp: nonabelian_exterior(adjoint_tensor_square(heisenberg(QQ)),
                                                         identity_crossed(HEIS),
                                                         identity_crossed(HEIS)),
                         CrossedModuleMismatch, "crossed modules do not match the tensor factors"),
    # io
    "module-algebra": (lambda tmp: parse_module({"name": "v", "algebra": "gl11", "basis": [],
                                                 "entries": []}, HEIS),
                       ParseError, "module is over 'gl11', not 'heis'"),
    "boundary-parity": (lambda tmp: parse_boundary([{"from": "x", "value": [["t", "1"]]}],
                                                   LieSuperAlgebra(X_T, {}), LieSuperAlgebra(X_T, {})),
                        ParseError, "violates parity"),
    "algebra-top-level": (lambda tmp: load_algebra(write(tmp, "list.json", [])), ParseError,
                          "top level must be an object"),
    "crossed-assoc": (lambda tmp: load_crossed(crossed_file(tmp, algebra_to_json(ground_assoc(QQ)),
                                                            algebra_to_json(HEIS))),
                      ParseError, "crossed modules are between Lie superalgebras"),
    "crossed-fields": (lambda tmp: load_crossed(crossed_file(tmp, HEIS_F5, algebra_to_json(HEIS))),
                       ParseError, "field mismatch: "),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_a_malformed_call_is_refused(name, tmp_path):
    call, exc, fragment = CALLS[name]
    with pytest.raises(exc) as info:
        call(tmp_path)
    assert fragment in str(info.value)


def test_outputs_that_no_corpus_input_reaches():
    assert vec_scale({0: 3, 1: -1}, 0) == {}
    assert repr(adjoint_action(HEIS)) == "Action(heis on heis)"
    assert repr(trivial_action(LieSuperAlgebra(X_T, {}), HEIS)) == "Action(anon on heis)"
    # [M, N]^M = sl(2|1) is neither nilpotent nor solvable: no bound to check
    sl21 = lie_algebra("sl21")
    report = nilpotency_bounds_check(sl21, sl21, adjoint_action(sl21), adjoint_action(sl21))
    assert (report.ok, report.checks) == (True, [])
    assert set(report.numbers.values()) == {None}


# -- the command line ------------------------------------------------------------

DATA = Path(__file__).parent.parent / "src" / "superlie" / "data"


def test_check_names_the_derived_length_or_its_absence(tmp_path):
    r = run_cli("check", "@gl11")
    assert (r.returncode, r.stdout) == (0, "gl11: certified Lie superalgebra, dim (2|2), "
                                           "solvable length 3\n")
    gl2 = write(tmp_path, "gl2.json", algebra_to_json(matrix_gl(2, 0, ground_assoc(QQ))))
    r = run_cli("check", gl2)
    assert (r.returncode, r.stdout) == (0, "gl(2,0,K): certified Lie superalgebra, dim (4|0), "
                                           "not solvable\n")


@pytest.mark.parametrize("argv, code, stderr", [
    (("tensor", "@m11", "@m11", "--adjoint"), 2,
     f"input error: {DATA / 'm11.json'} is not a Lie superalgebra file\n"),
    (("cyclic", "@heis"), 2,
     f"input error: {DATA / 'heis.json'} is not an associative superalgebra file\n"),
    (("tensor", "@heis", "@heis", "--act-mn", "@heis_adjoint"), 2,
     "input error: provide --act-mn and --act-nm, or --adjoint / --trivial\n"),
    (("tensor", "@heis", "@zheis", "--adjoint"), 2,
     "input error: --adjoint requires the same algebra on both sides\n"),
], ids=["tensor-of-assoc", "cyclic-of-lie", "one-action-file", "adjoint-of-two"])
def test_cli_refuses_with_one_message(argv, code, stderr):
    """A file of the wrong kind is named by its resolved path, whichever
    command reads it."""
    assert run_cli(*argv) == (code, "", stderr)


def test_cli_cyclic_of_a_non_unital_algebra_fails(tmp_path):
    path = write(tmp_path, "n.json", {"name": "N", "field": {"kind": "Q"}, "kind": "assoc",
                                      "basis": [["a", 0]], "table": []})
    assert run_cli("cyclic", path) == (
        1, "", "failed: cyclic homology commands require a unital algebra\n")


def other_dims(real):
    """A stand-in for ``real`` whose result has dimensions (9|9)."""
    return lambda A: types.SimpleNamespace(dims=(9, 9))


def hopf_other_dims(real):
    def hopf(pres, class_bound):
        return types.SimpleNamespace(dims=(9, 9), presented=real(pres, class_bound).presented)
    return hopf


def inexact(real):
    def sixterm(A):
        st = real(A)
        st.ok = False
        return st
    return sixterm


@pytest.mark.parametrize("module, name, replace, argv, line", [
    ("homology", "hopf_formula", hopf_other_dims, ("homology", "@heis", "--hopf", "@heis_pres"),
     "Hopf formula: (9|9)   chain H2: (2|0)   DISAGREE"),
    ("cyclic", "hc1_kernel_model", other_dims, ("cyclic", "@m11"), "HC1 cross-path MISMATCH"),
    ("cyclic", "milnor_hc1", other_dims, ("cyclic", "@grassmann"),
     "supercommutative: HC1 and Milnor HC1 UNEQUAL"),
    ("cyclic", "cyclic_sixterm", inexact, ("cyclic", "@m11", "--sixterm"),
     "six-term sequence: NOT exact"),
], ids=["hopf", "hc1-kernel-model", "milnor", "sixterm"])
def test_cli_exits_1_when_two_routes_disagree(monkeypatch, module, name, replace, argv, line):
    """Each comparison of a command exits 1 and says so when the route it
    compares against returns other dimensions, or an inexact sequence."""
    mod = import_module(f"superlie.{module}")  # the package binds homology to the function
    monkeypatch.setattr(mod, name, replace(getattr(mod, name)))
    r = run_cli(*argv)
    assert r.returncode == 1 and r.stderr == ""
    assert line in r.stdout.splitlines()


def test_a_symmetry_map_that_is_not_a_homomorphism_is_refused(monkeypatch):
    """The symmetry iso of a tensor square, induced as twice the swap,
    fails the bracket certificate of ``iso_fault``."""
    tensor = import_module("superlie.tensor")
    t = adjoint_tensor_square(lie_algebra("sl21"))
    real = tensor.induced_map

    def doubled(*args):
        g = real(*args)
        return GradedMap.from_columns(g.source, g.target, [vec_scale(c, 2) for c in g.matrix.cols])

    monkeypatch.setattr(tensor, "induced_map", doubled)
    with pytest.raises(BracketNotWellDefined, match="symmetry bracket mismatch"):
        tensor.tensor_symmetry_iso(t)
