"""The bundled example corpus: small algebras every suite runs against.

Constructors are memoized so repeated suite invocations share the cached
tensor and exterior products keyed on object identity.
"""

from __future__ import annotations

from functools import lru_cache

from .algebras import (
    AssocSuperAlgebra,
    LieSuperAlgebra,
    abelian,
    ground_assoc,
    heisenberg,
    matrix_assoc,
    matrix_gl,
    matrix_sl,
)
from .cyclic import dual_numbers, grassmann_line
from .fields import Field


@lru_cache(maxsize=None)
def _field(p: int | None) -> Field:
    return Field(p)


@lru_cache(maxsize=None)
def lie_algebra(name: str, p: int | None = None) -> LieSuperAlgebra:
    field = _field(p)
    if name == "heis":
        out = heisenberg(field)
    elif name.startswith("abelian"):
        even, odd = int(name[-2]), int(name[-1])
        out = abelian(field, even, odd)
        out.name = f"abelian{even}{odd}"
    elif name == "gl11":
        out = matrix_gl(1, 1, ground_assoc(field))
        out.name = "gl11"
    elif name == "sl21":
        out = matrix_sl(2, 1, ground_assoc(field)).algebra
        out.name = "sl21"
    elif name == "sl30":
        out = matrix_sl(3, 0, ground_assoc(field)).algebra
        out.name = "sl30"
    else:
        raise KeyError(f"unknown Lie algebra {name!r}")
    if name == "heis":
        out.name = "heis" if p is None else f"heis_f{p}"
    return out


@lru_cache(maxsize=None)
def assoc_algebra(name: str, p: int | None = None) -> AssocSuperAlgebra:
    field = _field(p)
    if name == "q":
        out = ground_assoc(field)
        out.name = "q"
    elif name == "dual":
        out = dual_numbers(field)
    elif name == "grassmann":
        out = grassmann_line(field)
    elif name == "m11":
        out = matrix_assoc(1, 1, ground_assoc(field))
        out.name = "m11"
    else:
        raise KeyError(f"unknown associative algebra {name!r}")
    return out


LIE_NAMES = ("abelian10", "abelian01", "abelian11", "abelian21",
             "heis", "gl11", "sl21", "sl30")
ASSOC_NAMES = ("q", "dual", "grassmann", "m11")


def write_bundle(directory) -> list[str]:
    """Materialize the corpus as JSON files: all algebras, the adjoint
    action files, a crossed module example, and two presentations."""
    from pathlib import Path

    from .actions import adjoint_action
    from .algebras import series, subalgebra_on
    from .io import action_to_json, algebra_to_json, dump_json

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []

    def put(name: str, obj: dict):
        dump_json(obj, directory / f"{name}.json")
        written.append(f"{name}.json")

    for name in LIE_NAMES:
        put(name, algebra_to_json(lie_algebra(name)))
    put("heis_f5", algebra_to_json(lie_algebra("heis", 5)))
    for name in ASSOC_NAMES:
        put(name, algebra_to_json(assoc_algebra(name)))
    for name in ("heis", "gl11", "sl21", "sl30"):
        put(f"{name}_adjoint", action_to_json(adjoint_action(lie_algebra(name))))
    # the center of heis as an ideal inclusion crossed module
    h = lie_algebra("heis")
    zview = subalgebra_on(h, series(h).center, name="zheis")
    put("zheis", algebra_to_json(zview.algebra))
    put("heis_center_crossed", {
        "m": "zheis.json",
        "p": "heis.json",
        "boundary": [{"from": zview.algebra.space.labels[0],
                      "value": [["z", "1"]]}],
        "action": [],
    })
    put("free2_pres", {
        "name": "free2",
        "generators": [["x", 0], ["y", 0]],
        "relators": [],
    })
    put("heis_pres", {
        "name": "heis",
        "generators": [["x", 0], ["y", 0]],
        "relators": [[["x", "y"], "x"], [["x", "y"], "y"]],
    })
    return written
