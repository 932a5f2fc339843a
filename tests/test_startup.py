"""Start-up: ``import superlie`` loads no submodule, the command line loads
only what a command needs, and the lazily resolved public names are the
names the package has always exported.  Each check runs in a fresh
interpreter, since this test session has long loaded every module, and
without the ``site`` module (``python -S``), whose hooks may import
standard modules such as ``importlib.resources`` before the package does.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import superlie
from superlie.algebras import BracketNotWellDefined
from superlie.cyclic import NotUnital
from superlie.fields import FieldError, InputError, MathError
from superlie.freelie import DegreeOverflow, TruncationOutOfRange
from superlie.homology import ClassExceeded, ComplexInconsistent
from superlie.io import ParseError
from superlie.linalg import ContainmentError
from superlie.tensor import IncompatibleActions, NotPerfect

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = ("superlie.actions", "superlie.tensor", "superlie.homology", "superlie.cyclic",
         "superlie.freelie")
# standard modules that cost a command-line process more to import than
# some commands take to compute
SLOW_STDLIB = ("dataclasses", "inspect", "importlib.resources", "typing")

# the names ``from superlie import *`` bound when __init__ imported every
# submodule eagerly: the public names of the submodules and the submodules
STAR_NAMES = set("""
Action ActionInvalid AmbientMismatch AssocSuperAlgebra BracketNotWellDefined
CentralExtension ChainComplex ClassExceeded ComplexInconsistent ConnesComplex
ContainmentError CrossedModule CrossedSES DegreeOverflow Echelon ExteriorProduct
Field FieldError FreeTruncation GradedGenSet GradedMap IncompatibleActions
LieSuperAlgebra Matrix NotAnIdeal NotPerfect NotUnital Presentation QQ SizeError
Subquotient Subspace SuperSpace TensorProduct TruncationOutOfRange abelian
abelianization actions adjoint_action adjoint_tensor_square algebras ce_complex
check_action check_assoc_axioms check_compatible check_crossed check_lie_axioms
connes cyclic cyclic_sixterm d3_lemma_check dual_numbers exact_sequence
exterior_power exterior_square fields free_nilpotent free_truncated freelie genset
grassmann_line ground_assoc h2_via_exterior hc hc1_kernel_model heisenberg homology
hopf_formula ideal_closure ideal_crossed ideal_sixterm identity_crossed is_engel
lie_from_assoc linalg matrix_assoc matrix_gl matrix_sl miller_truncated_check
milnor_hc1 nh nilpotency_bounds_check nonabelian_exterior nonabelian_tensor
quotient_algebra right_exactness_check semidirect series snake_sequence spaces
subalgebra_closure subalgebra_on supermodule_crossed superspace tensor tensor_space
tensor_symmetry_iso trivial_action trivial_action_tensor trivial_module uce
v_algebra wedge_normalize
""".split())


def run_fresh(code: str):
    """Run code in a new interpreter on this checkout; it prints one JSON value."""
    r = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": str(SRC)})
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout.splitlines()[-1])


LOADED = "sorted(m for m in sys.modules if m.startswith('superlie'))"


def test_import_superlie_loads_no_submodule():
    assert run_fresh(f"import json, sys, superlie; print(json.dumps({LOADED}))") == ["superlie"]


def test_cli_start_and_check_load_no_heavy_module():
    code = f"""
import json, sys
import superlie.cli
after_import = {LOADED}
code = superlie.cli.main(["check", "@heis"])
print(json.dumps([code, after_import, {LOADED}]))
"""
    code, after_import, after_check = run_fresh(code)
    assert code == 0
    for loaded in (after_import, after_check):
        assert "superlie.cli" in loaded
        assert not set(HEAVY) & set(loaded)


@pytest.mark.parametrize("argv, unloaded", [
    (None, ("superlie.suites",)),
    (["check", "@heis"], ("superlie.suites",)),
    (["homology", "@heis", "-n", "2"], ("superlie.suites", "superlie.freelie")),
], ids=["import", "check", "homology"])
def test_cli_loads_no_slow_stdlib_module_and_no_unused_one_of_its_own(argv, unloaded):
    code = f"""
import contextlib, io, json, sys
import superlie.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = 0 if {argv!r} is None else superlie.cli.main({argv!r})
print(json.dumps([code, {LOADED}, sorted(sys.modules)]))
"""
    code, package, loaded = run_fresh(code)
    assert code == 0 and "superlie.cli" in package
    assert not set(SLOW_STDLIB + unloaded) & set(loaded)


@pytest.mark.parametrize("argv", [
    ["check", "@heis"],
    ["homology", "@heis", "-n", "2"],
    ["cyclic", "@m11", "--sixterm"],
], ids=["check", "homology", "cyclic"])
def test_cli_digests_its_inputs_without_hashlib(argv):
    """The input digests come from the interpreter's built-in SHA-256:
    hashlib and its OpenSSL binding ``_hashlib`` stay unloaded."""
    code = f"""
import contextlib, io, json, sys
import superlie.cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = superlie.cli.main(["--out", "json", *{argv!r}])
print(json.dumps([code, json.loads(out.getvalue())["inputs"], sorted(sys.modules)]))
"""
    code, inputs, loaded = run_fresh(code)
    path = SRC / "superlie" / "data" / f"{argv[1][1:]}.json"
    assert code == 0
    assert inputs == {str(path): hashlib.sha256(path.read_bytes()).hexdigest()[:16]}
    assert not {"hashlib", "_hashlib"} & set(loaded)


def test_negative_degree_is_refused_before_any_heavy_module_loads():
    code = f"""
import contextlib, io, json, sys
import superlie.cli
with contextlib.redirect_stderr(io.StringIO()) as err:
    code = superlie.cli.main(["homology", "@heis", "-n", "-1"])
print(json.dumps([code, err.getvalue(), {LOADED}]))
"""
    code, err, loaded = run_fresh(code)
    assert (code, err) == (2, "input error: --degree must be non-negative, got -1\n")
    assert not set(HEAVY) & set(loaded)


def test_every_exported_name_resolves_and_star_binds_the_eager_set():
    code = """
import json, superlie
missing = [n for n in superlie.__all__ if getattr(superlie, n, None) is None]
uncached = [n for n in superlie.__all__ if n not in vars(superlie)]
ns = {}
exec("from superlie import *", ns)
print(json.dumps([missing, uncached, sorted(n for n in ns if n != "__builtins__")]))
"""
    missing, uncached, star = run_fresh(code)
    assert missing == [] and uncached == []
    assert set(star) == STAR_NAMES == set(superlie.__all__)


def test_a_submodule_is_read_through_the_package_before_it_is_bound(monkeypatch):
    """A submodule the package has not bound yet is resolved by the lazy
    lookup: the module that the import system holds."""
    monkeypatch.delitem(vars(superlie), "spaces")
    assert superlie.spaces is sys.modules["superlie.spaces"]


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        superlie.nonexistent  # noqa: B018


@pytest.mark.parametrize("load", [
    "import superlie.homology",
    "superlie.grassmann_line",
    "import superlie.cli; superlie.cli.main(['homology', '@heis'])",
], ids=["import-submodule", "library-name", "cli-homology"])
def test_homology_stays_the_function(load):
    """The package name ``homology`` is the function, however the submodule
    of that name was loaded; the module is reached through sys.modules."""
    code = f"""
import contextlib, importlib, io, json, types
import superlie
with contextlib.redirect_stdout(io.StringIO()):
    {load}
import superlie.homology as h
print(json.dumps([callable(superlie.homology), h is superlie.homology,
                  isinstance(importlib.import_module("superlie.homology"), types.ModuleType)]))
"""
    assert run_fresh(code) == [True, True, True]


def test_every_error_the_cli_maps_has_its_base():
    """The command line exits 2 on an InputError and 1 on a MathError."""
    for cls in (FieldError, ParseError, TruncationOutOfRange):
        assert issubclass(cls, InputError) and not issubclass(cls, MathError)
    for cls in (IncompatibleActions, NotPerfect, NotUnital, BracketNotWellDefined,
                ComplexInconsistent, ClassExceeded, DegreeOverflow, ContainmentError):
        assert issubclass(cls, MathError) and not issubclass(cls, InputError)
