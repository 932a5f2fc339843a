"""The benchmark under ``perfbench/`` reaches into the package by name: the
span tracer wraps the entry points listed in ``perfbench/spans.py``, and
the library worker calls ``S.<name>`` on ``import superlie as S``.  A
rename or deletion of any of those names must fail here, not only when the
benchmark runs, and so must a change to the values the worker checks."""

import ast
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import superlie
import superlie.io  # noqa: F401  (the worker imports it for S.io)
from superlie import linalg

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _resolve(obj, dotted: str):
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def test_traced_entry_points_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.ENTRY_POINTS
    missing = []
    for name, module, attr in spans.ENTRY_POINTS:
        try:
            _resolve(importlib.import_module(module), attr)
        except (ImportError, AttributeError):
            missing.append((name, module, attr))
    assert not missing


def _chains_on(tree: ast.AST, root: str) -> set[str]:
    """Every attribute chain ``root.a.b...`` in the tree, as "a.b..."."""
    chains = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id == root:
            chains.add(".".join(reversed(parts)))
    return chains


def test_worker_names_resolve():
    tree = ast.parse((PERFBENCH / "worker.py").read_text(encoding="utf-8"))
    chains = _chains_on(tree, "S")
    assert {"ce_complex", "trivial_module", "adjoint_tensor_square"} <= chains
    missing = []
    for chain in sorted(chains):
        try:
            _resolve(superlie, chain)
        except AttributeError:
            missing.append(chain)
    assert not missing


@pytest.mark.parametrize("workload", ["tensor-squares", "complexes"])
def test_worker_round_is_correct(workload):
    """One round of a library workload, run as the benchmark runs it, gets
    the values the worker checks against and fails no operation."""
    r = subprocess.run([sys.executable, str(PERFBENCH / "worker.py"), "--workload", workload,
                        "--seed", "1"], capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    last = json.loads(r.stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, r.stderr


@pytest.mark.parametrize("workload", ["tensor-squares", "complexes"])
def test_traced_worker_round_is_correct(workload, tmp_path):
    """The same round under the span tracer, whose counters read attributes
    of the results (``spans.COUNTERS``): an attribute they read that is
    renamed or deleted fails an operation here.  The span file is written
    and records spans."""
    spans = tmp_path / "spans.bin"
    r = subprocess.run([sys.executable, str(PERFBENCH / "worker.py"), "--workload", workload,
                        "--seed", "1", "--spans", str(spans)],
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    last = json.loads(r.stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, r.stderr
    with open(spans, "rb") as fh:
        header = json.loads(fh.read(int.from_bytes(fh.read(8), "little")))
    assert header["n"] > 0


FIRST_IMPORTS = """
import json, sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import worker
import superlie as S
import superlie.io
x = worker.build_inputs(S, {workload!r}, 1, 0)
ops = (worker.tensor_squares_ops if {workload!r} == "tensor-squares" else worker.complexes_ops)(S, x)
before = set(sys.modules)
for _, op in ops:
    op()
print(json.dumps(sorted(m for m in set(sys.modules) - before if m.split(".")[0] == "superlie")))
"""


@pytest.mark.parametrize("workload", ["tensor-squares", "complexes"])
def test_timed_operations_import_no_superlie_module(workload):
    """In a fresh interpreter without site packages, the worker's
    ``build_inputs`` loads every ``superlie`` module that the workload's
    operations use, so ``wall_s`` never times the compile of one."""
    code = FIRST_IMPORTS.format(perfbench=str(PERFBENCH), src=str(PERFBENCH.parent / "src"),
                                workload=workload)
    r = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                       timeout=300)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout.splitlines()[-1]) == []


def _worker(monkeypatch):
    """``perfbench/worker.py`` as a module, loaded from its file, which it
    reads and does not change."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_worker", PERFBENCH / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker


def test_tensor_squares_inputs_certify_on_small_generating_sets(monkeypatch):
    """The certificates and the relation stream of ``tensor-squares`` run
    over the generating sets S that ``check_lie_axioms`` memoizes, so their
    cost follows |S|.  Over rounds 0-9 of seed 1, on sl(2|1, Lambda1)/Q,
    gl(2|2)/F5 and their adjoint squares, in the worker's own seeded bases,
    each round's four sets hold at most 8 basis elements and 6 on average.
    The worker's file is read, not changed."""
    worker = _worker(monkeypatch)
    for round_ in range(10):
        x = worker.build_inputs(superlie, "tensor-squares", 1, round_)
        algebras = [x["sl"], x["gl"]]
        algebras += [superlie.adjoint_tensor_square(P).algebra for P in algebras]
        sizes = [len(L._generators) for L in algebras]
        assert max(sizes) <= 8 and sum(sizes) <= 6 * len(sizes), (round_, sizes)


def test_complexes_image_of_d5_takes_few_elimination_steps(monkeypatch):
    """Spans are inserted by descending leading index, which cuts the
    elimination steps of the boundary images that ``complexes`` spends its
    time on.  For Im d_5 of gl(2|2)/Q in the worker's basis of round 0 of
    seed 1, the backend takes 573 steps, where inserting sparsest first
    took 851; the count must stay in that range."""
    x = _worker(monkeypatch).build_inputs(superlie, "complexes", 1, 0)
    gl = x["gl"]
    d5 = superlie.ce_complex(gl, superlie.trivial_module(gl), 5).boundary(5)
    steps = []
    eliminate = linalg._RationalRows.eliminate
    monkeypatch.setattr(linalg._RationalRows, "eliminate",
                        staticmethod(lambda work, row, piv, *rest:
                                     steps.append(piv) or eliminate(work, row, piv, *rest)))
    assert d5.image().dim == 67
    assert 573 <= len(steps) < 851, len(steps)


def test_hopf_formula_reads_the_commutator_off_the_grading(monkeypatch):
    """``hopf_formula`` on four even generators at class 4, the ``hopf``
    operation of ``complexes``, takes [F, F] from the grading of the cover:
    it inserts 204 vectors into echelon accumulators, 485 fewer than the
    689 it took when it eliminated [F, F] from the brackets of all pairs,
    which alone insert 485 on that cover."""
    inserts = []
    insert = linalg.Echelon.insert
    monkeypatch.setattr(linalg.Echelon, "insert", lambda self, v: inserts.append(v) or insert(self, v))
    pres = superlie.Presentation(superlie.genset([("a", 0), ("b", 0), ("c", 0), ("d", 0)]), ())
    assert superlie.hopf_formula(pres, 4).dims == (204, 0)
    assert len(inserts) == 204
    trunc = superlie.free_truncated(pres.gens, 5)
    full = trunc.algebra().full_subspace()
    inserts.clear()
    assert trunc.algebra().product_subspace(full, full) == trunc.derived_subspace()
    assert len(inserts) == 485
