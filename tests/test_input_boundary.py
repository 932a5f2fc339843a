"""Each rule of the input boundary has one home.

A basis label of a file is looked up in one helper of ``io``: no other
function of ``src/superlie`` reads ``labels.index``, so the sparse tables
of algebras, actions, modules and boundaries, and the values inside them,
share one lookup and one "unknown basis label" refusal.  "An object with
exactly these fields" is ``io._require_keys`` only: the second spelling
``freelie._check_fields`` is gone.  The command line refuses an input that
fails its certificate in one way, ``Report.require``, which raises for
``main`` to emit the report with exit 1: ``Report.refuse`` and
``_refuse_uncertified`` are gone, and no ``cmd_*`` handler calls
``emit(1)`` itself.
"""

import ast
from pathlib import Path

import pytest

from oracles import name_lines

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "superlie").glob("*.py"))
LABEL_HOME = ("io.py", "_label_index")
GONE = ("_check_fields", "refuse", "_refuse_uncertified")


def label_index_functions(source: str) -> list[str]:
    """The enclosing function, or None at module level, of each read of
    ``labels.index``: ``labels.index`` or ``<expr>.labels.index``."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute) and node.attr == "index":
            owner = node.value
            if ((isinstance(owner, ast.Name) and owner.id == "labels")
                    or (isinstance(owner, ast.Attribute) and owner.attr == "labels")):
                found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def handler_emit1_lines(source: str) -> list[int]:
    """The lines on which a ``cmd_*`` function calls ``<x>.emit(1)``."""
    lines = []
    for fn in ast.walk(ast.parse(source)):
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_")):
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "emit" and len(node.args) == 1
                    and isinstance(node.args[0], ast.Constant) and node.args[0].value == 1):
                lines.append(node.lineno)
    return lines


def test_labels_are_looked_up_in_one_helper():
    homes = [(path.name, function) for path in PACKAGE
             for function in label_index_functions(path.read_text(encoding="utf-8"))]
    assert homes == [LABEL_HOME]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_second_spellings_are_gone(path):
    source = path.read_text(encoding="utf-8")
    assert {name: name_lines(source, name) for name in GONE} == {name: [] for name in GONE}


def test_no_handler_emits_exit_1_itself():
    assert handler_emit1_lines((ROOT / "src" / "superlie" / "cli.py").read_text(encoding="utf-8")) == []


def test_finders_see_each_case():
    source = ("i = space.labels.index(a)\n"
              "def f(labels):\n"
              "    return labels.index(b) + self.index(c)\n"
              "class R:\n"
              "    def g(self, sp):\n"
              "        return sp.space.labels.index(d)\n")
    assert label_index_functions(source) == [None, "f", "g"]
    source = ("def cmd_a(rep):\n"
              "    return rep.emit(1)\n"
              "def cmd_b(rep, ok):\n"
              "    return rep.emit(0 if ok else 1)\n"
              "def main(exc):\n"
              "    return exc.report.emit(1)\n")
    assert handler_emit1_lines(source) == [2]
