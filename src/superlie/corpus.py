"""The bundled example corpus: the JSON files under ``superlie/data``.

This is the one module that knows where those files live.  ``lie_algebra``
and ``assoc_algebra`` parse a file by name and are memoized, so one name
gives one object, and the tensor and exterior memos that live on that
object are shared by every suite that asks for it.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path

from .algebras import AssocSuperAlgebra, LieSuperAlgebra
from .io import ParseError, load_algebra

DATA = Path(__file__).parent / "data"


def bundled_path(name: str) -> Path:
    """The bundled file ``name`` (``.json`` optional); KeyError for any other name."""
    file = name if name.endswith(".json") else f"{name}.json"
    if file not in file_names():
        raise KeyError(f"no bundled file named {name!r}")
    return DATA / file


def file_names() -> list[str]:
    return sorted(p.name for p in DATA.glob("*.json"))


def export(target: Path) -> list[str]:
    """Copy every bundled file into the directory ``target``, creating it."""
    target.mkdir(parents=True, exist_ok=True)
    names = file_names()
    for name in names:
        (target / name).write_bytes((DATA / name).read_bytes())
    return names


def _algebra(name: str, kind: type):
    try:
        alg = load_algebra(bundled_path(name))
    except ParseError:
        alg = None
    if not isinstance(alg, kind):
        raise KeyError(f"{name!r} is not a bundled {kind.__name__}")
    return alg


@lru_cache(maxsize=None)
def lie_algebra(name: str) -> LieSuperAlgebra:
    return _algebra(name, LieSuperAlgebra)


@lru_cache(maxsize=None)
def assoc_algebra(name: str) -> AssocSuperAlgebra:
    return _algebra(name, AssocSuperAlgebra)
