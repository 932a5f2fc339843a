"""Every module-level function and class of the package is used, and so
is every method and property of its classes.

A definition in ``src/superlie/*.py`` (the package ``__init__``, which only
re-exports, aside) counts as used when its name is read outside its own
definition: as a name or an attribute (``S.uce`` reads ``uce``) in the
package, in ``tests/`` or in ``perfbench/``.  A read inside the definition
itself, such as a recursive call, does not count, and neither does the
re-export in ``__init__``: a helper that only the package's public list
names is dead code.  A method or property of a package class (dunder
methods aside, which Python calls itself) counts as used when its name is
read as an attribute outside its own body, such as ``m.apply(v)`` or
``self.rank``.  A read whose receiver names its class, ``self.`` or
``cls.`` inside a class body or ``Matrix.`` for a package class, counts
only for that class and the package classes it inherits from or that
inherit from it: ``Matrix.zero(...)`` does not keep ``Field.zero`` alive.
A field of a package record (a class decorated with ``record`` or
``frozen_record`` of ``superlie.fields``, or with ``dataclass``) counts as
used by the same rule, when its name is read as an attribute: building the
record or assigning to the field does not read it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(p for p in (ROOT / "src" / "superlie").glob("*.py") if p.name != "__init__.py")
READERS = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def names_read(node: ast.AST) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def attributes_read(node: ast.AST, owner: str | None, classes) -> set[tuple[str | None, str]]:
    """(receiver class, name) for each attribute read in node: the receiver
    class is ``owner`` for a read through ``self`` or ``cls``, the class
    for a read through a package class name, and None otherwise."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            receiver = sub.value.id if isinstance(sub.value, ast.Name) else None
            if receiver in ("self", "cls"):
                receiver = owner
            elif receiver not in classes:
                receiver = None
            out.add((receiver, sub.attr))
    return out


RECORD_DECORATORS = ("record", "frozen_record", "dataclass")


def is_dataclass(cls: ast.ClassDef) -> bool:
    """Whether cls is decorated with one of ``RECORD_DECORATORS``, called or not."""
    for dec in cls.decorator_list:
        if isinstance(dec, ast.Call):
            dec = dec.func
        if (dec.id if isinstance(dec, ast.Name) else getattr(dec, "attr", None)) in RECORD_DECORATORS:
            return True
    return False


def related_classes(trees) -> dict[str, set[str]]:
    """Each package class with the package classes it inherits from or
    that inherit from it, itself included."""
    bases = {stmt.name: {b.id for b in stmt.bases if isinstance(b, ast.Name)}
             for tree in trees for stmt in tree.body if isinstance(stmt, ast.ClassDef)}

    def ancestors(name: str) -> set[str]:
        out = {name}
        for b in bases.get(name, ()):
            if b in bases:
                out |= ancestors(b)
        return out

    up = {name: ancestors(name) for name in bases}
    return {name: {other for other in bases if name in up[other] or other in up[name]}
            for name in bases}


def dead_definitions(package: dict[str, str], readers: dict[str, str]) -> list[str]:
    """``"file: name"`` for each module-level def or class of the package
    sources that no other statement of the package or the readers reads,
    then ``"file: Class.member"`` for each method or property of a package
    class whose name no statement outside its body reads as an attribute
    of an unknown receiver or of a related class, and for each field of a
    package record whose name no statement reads that way."""
    trees = {name: ast.parse(source) for name, source in {**package, **readers}.items()}
    related = related_classes(trees[name] for name in package)
    statements = []  # (file, top-level statement, names it reads)
    units = []  # (statement, attributes it reads), each class body statement apart
    members = []  # (file, class, method or field)
    for name, tree in trees.items():
        for stmt in tree.body:
            statements.append((name, stmt, names_read(stmt)))
            owner = stmt.name if isinstance(stmt, ast.ClassDef) else None
            body = stmt.body if owner else [stmt]
            units += [(sub, attributes_read(sub, owner, related)) for sub in body]
            if name in package and owner:
                members += [(name, stmt, sub) for sub in body if isinstance(sub, FUNCTIONS)
                            and not (sub.name.startswith("__") and sub.name.endswith("__"))]
                if is_dataclass(stmt):
                    members += [(name, stmt, sub) for sub in body if isinstance(sub, ast.AnnAssign)
                                and isinstance(sub.target, ast.Name)]
    dead = []
    for name, stmt, _ in statements:
        if name not in package or not isinstance(stmt, (*FUNCTIONS, ast.ClassDef)):
            continue
        if not any(stmt.name in read for _, other, read in statements if other is not stmt):
            dead.append(f"{name}: {stmt.name}")
    for name, cls, member in members:
        receivers = {None} | related[cls.name]
        key = member.name if isinstance(member, FUNCTIONS) else member.target.id
        if not any((receiver, key) in read for other, read in units if other is not member
                   for receiver in receivers):
            dead.append(f"{name}: {cls.name}.{key}")
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
    ({"a.py": "class C:\n    def f(self):\n        return self.f()\n"}, {"t.py": "C()\n"},
     ["a.py: C.f"]),
    ({"a.py": "class C:\n    def f(self): ...\n    def __repr__(self): ...\n"},
     {"t.py": "c = C()\nc.f()\n"}, []),
    ({"a.py": "class Field:\n    def zero(self): ...\n"
              "class Matrix:\n    @staticmethod\n    def zero(n): ...\n"},
     {"t.py": "Field()\nMatrix.zero(2)\n"}, ["a.py: Field.zero"]),
    ({"a.py": "class C:\n    def f(self): ...\n    def g(self):\n        return self.f()\n"
              "class D:\n    def f(self): ...\n"},
     {"t.py": "C().g()\nD()\n"}, ["a.py: D.f"]),
    ({"a.py": "class B:\n    def f(self): ...\nclass C(B):\n    def g(self):\n        return self.f()\n"},
     {"t.py": "C().g()\n"}, []),
    ({"a.py": "from dataclasses import dataclass\n@dataclass\nclass C:\n    x: int\n    y: int\n"},
     {"t.py": "C(1, 2).x\n"}, ["a.py: C.y"]),
    ({"a.py": "import dataclasses\n@dataclasses.dataclass(frozen=True)\nclass C:\n    x: int\n"},
     {"t.py": "C(1)\n"}, ["a.py: C.x"]),
    ({"a.py": "from dataclasses import dataclass\n@dataclass\nclass C:\n    x: int\n"},
     {"t.py": "c = C(1)\nc.x = 2\n"}, ["a.py: C.x"]),
    ({"a.py": "from dataclasses import dataclass\n@dataclass\nclass C:\n    x: int\n"
              "    def f(self):\n        return self.x\n"},
     {"t.py": "C(1).f()\n"}, []),
    ({"a.py": "class C:\n    x: int\n"}, {"t.py": "C()\n"}, []),
    ({"a.py": "from .fields import record\n@record\nclass C:\n    x: int\n    y: int\n"},
     {"t.py": "C(1, 2).y\n"}, ["a.py: C.x"]),
    ({"a.py": "from . import fields\n@fields.frozen_record\nclass C:\n    x: int\n"},
     {"t.py": "C(1)\n"}, ["a.py: C.x"]),
])
def test_dead_definitions_finder(package, readers, found):
    assert dead_definitions(package, readers) == found
