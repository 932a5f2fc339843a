"""The row-major index of a tensor basis is computed in ``spaces`` only.

``spaces.tensor_index`` turns a pair (i, j) of factor indices into the
position of a_i (x) b_j in :func:`~superlie.spaces.tensor_space`, and
``spaces.tensor_pair`` turns a position back into its pair.  Every other
module of the package reads the rule from them, so no module but
``spaces.py`` names ``divmod``, the inverse spelled by hand.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(p for p in (ROOT / "src" / "superlie").glob("*.py") if p.name != "spaces.py")


def divmod_lines(source: str) -> list[int]:
    """The lines on which source names ``divmod``, called or passed on."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Name) and node.id == "divmod")


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_divmod_outside_spaces(path):
    assert divmod_lines(path.read_text(encoding="utf-8")) == []


def test_finder_sees_each_divmod():
    source = "i, j = divmod(t, n)\nf(*divmod(t, d))\npairs = map(divmod, ts, ns)\nq = t // n\n"
    assert divmod_lines(source) == [1, 2, 3]
