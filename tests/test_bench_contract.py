"""The benchmark under ``perfbench/`` reaches into the package by name: the
span tracer wraps the entry points listed in ``perfbench/spans.py``, and
the library worker calls ``S.<name>`` on ``import superlie as S``.  A
rename or deletion of any of those names must fail here, not only when the
benchmark runs."""

import ast
import importlib
import importlib.util
from pathlib import Path

import superlie
import superlie.io  # noqa: F401  (the worker imports it for S.io)

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
