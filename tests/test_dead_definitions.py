"""Every module-level function and class of the package is used.

A definition in ``src/superlie/*.py`` (the package ``__init__``, which only
re-exports, aside) counts as used when its name is read outside its own
definition: as a name or an attribute (``S.uce`` reads ``uce``) in the
package, in ``tests/`` or in ``perfbench/``.  A read inside the definition
itself, such as a recursive call, does not count, and neither does the
re-export in ``__init__``: a helper that only the package's public list
names is dead code.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(p for p in (ROOT / "src" / "superlie").glob("*.py") if p.name != "__init__.py")
READERS = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def names_read(node: ast.AST) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def dead_definitions(package: dict[str, str], readers: dict[str, str]) -> list[str]:
    """``"file: name"`` for each module-level def or class of the package
    sources that no other statement of the package or the readers reads."""
    statements = []  # (file, top-level statement, names it reads)
    for name, source in {**package, **readers}.items():
        for stmt in ast.parse(source).body:
            statements.append((name, stmt, names_read(stmt)))
    dead = []
    for name, stmt, _ in statements:
        if name not in package or not isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not any(stmt.name in read for _, other, read in statements if other is not stmt):
            dead.append(f"{name}: {stmt.name}")
    return dead


def test_no_dead_definition():
    package = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE}
    readers = {f"{p.parent.name}/{p.name}": p.read_text(encoding="utf-8") for p in READERS}
    assert dead_definitions(package, readers) == []


@pytest.mark.parametrize("package, readers, found", [
    ({"a.py": "def f():\n    return f()\n"}, {}, ["a.py: f"]),
    ({"a.py": "def f(): ...\ndef g():\n    return f()\n"}, {"t.py": "g()\n"}, []),
    ({"a.py": "class C: ...\n"}, {"t.py": "import a\na.C()\n"}, []),
    ({"a.py": "def f(): ...\n", "b.py": "from .a import f\nX = f\n"}, {}, []),
    ({"a.py": "def connect(): ...\ndef g(): ...\n"}, {"t.py": "g()\n"}, ["a.py: connect"]),
])
def test_dead_definitions_finder(package, readers, found):
    assert dead_definitions(package, readers) == found
