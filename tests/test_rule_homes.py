"""Each core rule has one home in the package.

A sparse vector is put in the normal form of its field by ``Field.clean``
only: no module of ``src/superlie`` names ``vec_clean``, a helper that
dropped exact zeros only and so kept an unreduced zero such as 5 over F5.
A computed Lie bracket table goes through
``LieSuperAlgebra.from_bracket``, which applies the storage rule (pairs
a < b, and a = b for odd a) to sparse rows: a direct
``LieSuperAlgebra(...)`` call passes a literal table, a dict display.  The
file parser ``io.parse_algebra`` is the one exception: it passes the table
of a file as read, zero values included, so that the constructor refuses
an entry against the storage rule with a message naming it.  A failed
certificate raises through ``AxiomReport.require`` only: no other
``raise`` formats a report's ``.violations``.  The inner grading is read
by ``LieSuperAlgebra.inner_torus`` only: no module but ``algebras.py``
names the diagonal reader ``_diagonal``, and none names the
``inner_weights`` it replaced.

The tests share one module, ``tests/oracles.py``: no test module imports
another, and only the oracles assign the catalogue of algebras and fields
(``PRIMES``, ``LIE`` and ``ASSOC``).
"""

import ast
from pathlib import Path

import pytest

from oracles import name_lines

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "superlie").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
TABLE_PARSERS = {"io.py": {"parse_algebra"}}
CATALOGUE = {"PRIMES", "LIE", "ASSOC"}


def callee(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def computed_table_lines(source: str, exempt=frozenset()) -> list[int]:
    """The lines of the ``LieSuperAlgebra(...)`` calls whose table, the
    second argument, is not a dict display, outside the functions named in
    ``exempt``."""
    tree = ast.parse(source)
    skip = {id(n) for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef) and f.name in exempt for n in ast.walk(f)}
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in skip:
            continue
        if callee(node) != "LieSuperAlgebra":
            continue
        table = node.args[1] if len(node.args) > 1 else next(
            (k.value for k in node.keywords if k.arg == "table"), None)
        if not isinstance(table, ast.Dict):
            lines.append(node.lineno)
    return sorted(lines)


def violation_raise_lines(source: str) -> list[int]:
    """The lines of the ``raise`` statements that read an attribute
    ``violations``, outside the method ``require`` of ``AxiomReport``."""
    tree = ast.parse(source)
    skip = {id(n) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) and c.name == "AxiomReport"
            for f in c.body if isinstance(f, ast.FunctionDef) and f.name == "require"
            for n in ast.walk(f)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Raise) and id(node) not in skip
                  and any(isinstance(n, ast.Attribute) and n.attr == "violations"
                          for n in ast.walk(node)))


def cross_import_lines(tree: ast.AST) -> list[int]:
    """The lines that import a module ``test_*``: ``import test_x``,
    ``from test_x import ...``, ``from tests.test_x import ...`` or
    ``from tests import test_x``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
            if node.module in (None, "tests"):
                names += [a.name for a in node.names]
        else:
            continue
        if any(name.split(".")[-1].startswith("test_") for name in names):
            lines.append(node.lineno)
    return sorted(lines)


def catalogue_lines(tree: ast.AST) -> list[int]:
    """The lines that assign a name of the catalogue, at any level."""
    lines = []
    for node in ast.walk(tree):
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        if any(isinstance(t, ast.Name) and t.id in CATALOGUE for t in targets):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_module_names_vec_clean(path):
    assert name_lines(path.read_text(encoding="utf-8"), "vec_clean") == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_inner_grading_is_read_by_inner_torus_only(path):
    source = path.read_text(encoding="utf-8")
    assert name_lines(source, "inner_weights") == []
    if path.name != "algebras.py":
        assert name_lines(source, "_diagonal") == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_computed_tables_go_through_from_bracket(path):
    source = path.read_text(encoding="utf-8")
    assert computed_table_lines(source, TABLE_PARSERS.get(path.name, frozenset())) == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_failed_certificates_raise_through_require(path):
    assert violation_raise_lines(path.read_text(encoding="utf-8")) == []


def test_finders_see_each_case():
    source = ("from .linalg import vec_clean\n"
              "def vec_clean(v):\n"
              "    return linalg.vec_clean(v)\n"
              "w = vec_clean(v)\n"
              "a = LieSuperAlgebra(sp, {(0, 1): {2: 1}}, name='a')\n"
              "b = LieSuperAlgebra(sp, table, name='b')\n"
              "c = algebras.LieSuperAlgebra(sp, table={k: v for k, v in t.items()})\n"
              "d = LieSuperAlgebra.from_bracket(sp, rows, 'd')\n"
              "def parse(obj):\n"
              "    return LieSuperAlgebra(sp, table)\n")
    assert name_lines(source, "vec_clean") == [1, 2, 3, 4]
    assert computed_table_lines(source) == [6, 7, 10]
    assert computed_table_lines(source, {"parse"}) == [6, 7]
    source = ("class AxiomReport:\n"
              "    def require(self, error, message):\n"
              "        if not self.ok:\n"
              "            raise error(f'{message}: {self.violations[:3]}')\n"
              "rep = check(a)\n"
              "if not rep.ok:\n"
              "    raise E(f'bad: {rep.violations[:3]}')\n"
              "def require(rep):\n"
              "    raise E(str(rep.violations))\n"
              "check(a).require(E, 'bad')\n"
              "raise E(f'{len(violations)} found')\n")
    assert violation_raise_lines(source) == [7, 9]
    source = ("from .algebras import LieSuperAlgebra, _diagonal\n"
              "mu = _diagonal(M.rows[h], M.target.dim, reduce)\n"
              "pairs = P.inner_weights()\n"
              "hs, lam, mu = P.inner_torus(M)\n"
              "diagonal = _diagonal_of(row)\n")
    assert name_lines(source, "_diagonal") == [1, 2]
    assert name_lines(source, "inner_weights") == [3]


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.name)
def test_tests_share_only_the_oracles(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert cross_import_lines(tree) == []
    if path.name != "oracles.py":
        assert catalogue_lines(tree) == []


def test_sharing_finders_see_each_case():
    source = ("import test_a\n"
              "from test_b import f\n"
              "from tests.test_c import g\n"
              "from tests import test_d\n"
              "from oracles import test_vectors\n"
              "import oracles, testing\n")
    assert cross_import_lines(ast.parse(source)) == [1, 2, 3, 4]
    source = ("PRIMES = (None, 3)\n"
              "LIE: dict = {}\n"
              "def f():\n"
              "    ASSOC = {}\n"
              "FIELDS = [Field(p) for p in PRIMES]\n")
    assert catalogue_lines(ast.parse(source)) == [1, 2, 4]
