"""Every parameter default of the package is relied on by some call.

A default of a function, or of a method of a class, defined at module
level in ``src/superlie/*.py`` is relied on when a call in the package, in
``tests/`` or in ``perfbench/`` leaves that argument out: it passes fewer
positional arguments than the parameter's position and no keyword of its
name.  A call reaches every package function or method of its name,
``f(...)`` and ``x.f(...)`` alike, and a class called by name reaches its
``__init__``; the receiver of a method fills ``self`` or ``cls``, except
for a static method.  A call with ``*args`` may leave out any parameter
after its plain positional arguments, and one with ``**kwargs`` any
parameter it does not pass by position, so both count as leaving those
out.  Matching by name alone can only keep a default, never flag one that
a call relies on.  A default that every call passes is a required
parameter in disguise.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(p for p in (ROOT / "src" / "superlie").glob("*.py") if p.name != "__init__.py")
READERS = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def decorated(fn: ast.AST, name: str) -> bool:
    return any(isinstance(d, ast.Name) and d.id == name for d in fn.decorator_list)


def defaults_of(fn: ast.AST, method: bool):
    """(name, position or None for a keyword-only one) for each parameter
    of fn with a default, positions counted after the receiver of a method."""
    args = fn.args
    positional = args.posonlyargs + args.args
    if method and not decorated(fn, "staticmethod"):
        positional = positional[1:]
    with_default = positional[len(positional) - len(args.defaults):] if args.defaults else []
    out = [(a.arg, positional.index(a)) for a in with_default]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def callee(call: ast.Call) -> str | None:
    f = call.func
    if isinstance(f, ast.Name):
        return f.id
    if isinstance(f, ast.Attribute):
        return f.attr
    return None


def leaves_out(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether call may leave out the parameter ``name`` at ``position``:
    it passes no keyword of that name, and fewer plain positional arguments
    before its first ``*args``, if any, than the position."""
    if name in {k.arg for k in call.keywords}:
        return False
    plain = 0
    for a in call.args:
        if isinstance(a, ast.Starred):
            break
        plain += 1
    return position is None or position >= plain


def unused_defaults(package: dict[str, str], readers: dict[str, str]) -> list[str]:
    """``"file: function.parameter"`` (``"file: Class.method.parameter"``
    for a method) for each default of a package function that no call of
    the package or the readers leaves out, in file and source order."""
    trees = {name: ast.parse(source) for name, source in {**package, **readers}.items()}
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and (name := callee(node)) is not None:
                calls.setdefault(name, []).append(node)
    found = []
    for file in package:
        for stmt in trees[file].body:
            if isinstance(stmt, FUNCTIONS):
                defs = [(stmt.name, stmt, {stmt.name}, False)]
            elif isinstance(stmt, ast.ClassDef):
                defs = [(f"{stmt.name}.{fn.name}", fn,
                         {fn.name, stmt.name} if fn.name == "__init__" else {fn.name}, True)
                        for fn in stmt.body if isinstance(fn, FUNCTIONS)]
            else:
                continue
            for qualname, fn, names, method in defs:
                for param, position in defaults_of(fn, method):
                    if not any(leaves_out(c, param, position)
                               for n in names for c in calls.get(n, ())):
                        found.append(f"{file}: {qualname}.{param}")
    return found


def test_every_default_is_relied_on():
    package = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE}
    readers = {f"{p.parent.name}/{p.name}": p.read_text(encoding="utf-8")
               for p in [ROOT / "src" / "superlie" / "__init__.py", *READERS]}
    assert unused_defaults(package, readers) == []


@pytest.mark.parametrize("package, readers, found", [
    # every call passes n: the default is flagged
    ({"a.py": "def f(x, n=2): ...\n"}, {"t.py": "f(1, 3)\nf(1, n=4)\n"}, ["a.py: f.n"]),
    ({"a.py": "def f(x, n=2): ...\n"}, {"t.py": "f(1, 3)\nf(1)\n"}, []),
    # no call at all
    ({"a.py": "def f(x=1): ...\n"}, {}, ["a.py: f.x"]),
    # a call through an attribute reaches the function of that name
    ({"a.py": "def f(x, n=2): ...\n"}, {"t.py": "import a\na.f(1)\n"}, []),
    # the receiver fills self; a static method has none
    ({"a.py": "class C:\n    def m(self, x, n=0): ...\n"}, {"t.py": "C().m(1)\n"}, []),
    ({"a.py": "class C:\n    def m(self, x, n=0): ...\n"}, {"t.py": "C().m(1, 2)\n"},
     ["a.py: C.m.n"]),
    ({"a.py": "class C:\n    @staticmethod\n    def m(x, n=0): ...\n"}, {"t.py": "C.m(1, 2)\n"},
     ["a.py: C.m.n"]),
    ({"a.py": "class C:\n    @classmethod\n    def m(cls, x, n=0): ...\n"}, {"t.py": "C.m(1)\n"},
     []),
    # a class called by name, or super().__init__, reaches __init__
    ({"a.py": "class C:\n    def __init__(self, x, name=''): ...\n"},
     {"t.py": "C(1, name='c')\n"}, ["a.py: C.__init__.name"]),
    ({"a.py": "class C:\n    def __init__(self, x, name=''): ...\n"}, {"t.py": "C(1)\n"}, []),
    ({"a.py": "class C:\n    def __init__(self, x, name=''): ...\n"
              "class D(C):\n    def __init__(self):\n        super().__init__(1)\n"},
     {"t.py": "D()\n"}, []),
    # keyword-only defaults
    ({"a.py": "def f(*, n=1, k=2): ...\n"}, {"t.py": "f(n=3)\n"}, ["a.py: f.n"]),
    # *args and **kwargs may leave out what they do not pass by position
    ({"a.py": "def f(x, n=2): ...\n"}, {"t.py": "f(*xs)\n"}, []),
    ({"a.py": "def f(x, n=2): ...\n"}, {"t.py": "f(1, 2, *xs)\n"}, ["a.py: f.n"]),
    ({"a.py": "def f(x, n=2): ...\n"}, {"t.py": "f(1, **kw)\n"}, []),
    # two functions of one name share their calls
    ({"a.py": "def f(x, n=2): ...\n", "b.py": "def f(n=3): ...\n"}, {"t.py": "f(1)\n"},
     ["b.py: f.n"]),
])
def test_unused_defaults_finder(package, readers, found):
    assert unused_defaults(package, readers) == found
