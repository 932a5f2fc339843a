"""Every import in the package and in the tests is used, and none is
repeated inside a function.

A name bound by an import counts as used when the module reads it as a
name (an attribute chain ``json.dumps`` reads ``json``) or lists it in
``__all__``.  ``from __future__`` imports set compiler flags, so they are
skipped.

A function-local ``from .m import ...`` belongs at the top of the file
when the file already imports from ``.m`` there; a local import from a
module the file does not import at top level (one that would make an
import cycle) is left alone.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "superlie").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, found", [
    ("import json\n", ["line 1: json"]),
    ("import os.path\nos.getcwd()\n", []),
    ("from a import b as c\nb = 1\n", ["line 1: c"]),
    ("from __future__ import annotations\n", []),
    ("from a import b\n__all__ = ['b']\n", []),
    ("from a import T\ndef f(x: T) -> None: ...\n", []),
    ("from a import b\n__all__ = sorted(NAMES)\n", ["line 1: b"]),
])
def test_unused_imports_finder(source, found):
    assert unused_imports(source) == found


def local_repeat_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    top = {(node.level, node.module) for node in tree.body
           if isinstance(node, ast.ImportFrom) and node.level}
    local = {sub for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for sub in ast.walk(fn) if isinstance(sub, ast.ImportFrom)}
    return [f"line {node.lineno}: from {'.' * node.level}{node.module or ''}"
            for node in sorted(local, key=lambda n: n.lineno)
            if node.level and (node.level, node.module) in top]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_function_local_repeat_of_a_top_level_import(path):
    assert local_repeat_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, found", [
    ("from .a import b\ndef f():\n    from .a import c\n", ["line 3: from .a"]),
    ("from .a import b\ndef f():\n    def g():\n        from .a import c\n",
     ["line 4: from .a"]),
    ("from .a import b\ndef f():\n    from .t import c\n", []),
    ("from .a import b\ndef f():\n    from ..a import c\n", []),
    ("from a import b\ndef f():\n    from a import c\n", []),
])
def test_local_repeat_imports_finder(source, found):
    assert local_repeat_imports(source) == found
