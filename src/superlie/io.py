"""JSON file formats: algebras, actions, crossed modules, coefficient
modules, and presentations.

All coefficients are strings ("3/4", "5") so files stay exact in every
field.  Unknown JSON fields are rejected outright: a silently ignored typo
in a structure constant table is the worst possible failure mode.

Reading an algebra file loads no more than :mod:`superlie.algebras`;
the parsers of actions, crossed modules and presentations import
:mod:`superlie.actions` and :mod:`superlie.freelie` when they run.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

from .algebras import AssocSuperAlgebra, LieSuperAlgebra
from .fields import Field, FieldError, InputError
from .linalg import Matrix
from .spaces import GradedMap, SuperSpace

if TYPE_CHECKING:
    from .actions import Action, CrossedModule
    from .freelie import Presentation


class ParseError(InputError):
    """A file fails to parse or validate against its schema."""


def _require_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{what} must be a list: {value!r}")
    return value


def _require_str(value, what: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{what} must be a string: {value!r}")
    return value


def _is_parity(value) -> bool:
    """A parity is the JSON integer 0 or 1, not a boolean or a float."""
    return type(value) is int and value in (0, 1)


def _require_keys(obj: dict, required: set[str], optional: set[str], what: str) -> None:
    if not isinstance(obj, dict):
        raise ParseError(f"{what} must be an object: {obj!r}")
    keys = set(obj)
    missing = required - keys
    if missing:
        raise ParseError(f"{what}: missing fields {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise ParseError(f"{what}: unknown fields {sorted(unknown)}")


def parse_field(obj) -> Field:
    if not isinstance(obj, dict):
        raise ParseError("field must be an object")
    _require_keys(obj, {"kind"}, {"p"}, "field")
    kind = obj["kind"]
    if kind == "Q":
        if "p" in obj:
            raise ParseError("field Q takes no modulus")
        return Field()
    if kind == "Fp":
        if "p" not in obj:
            raise ParseError("field Fp requires a modulus")
        p = obj["p"]
        if type(p) is not int and not (isinstance(p, str) and p.isascii() and p.isdigit()):
            raise ParseError(f"field modulus must be an integer: {p!r}")
        try:
            return Field(int(p))
        except FieldError as exc:
            raise ParseError(str(exc)) from exc
    raise ParseError(f"unknown field kind {kind!r}")


def field_to_json(field: Field) -> dict:
    return {"kind": "Q"} if field.p is None else {"kind": "Fp", "p": field.p}


def _parse_basis(items, field: Field) -> SuperSpace:
    labels, parities = [], []
    for it in _require_list(items, "basis"):
        if not (isinstance(it, list) and len(it) == 2):
            raise ParseError(f"basis entry must be [label, parity]: {it!r}")
        label, par = it
        if not _is_parity(par):
            raise ParseError(f"parity must be 0 or 1: {it!r}")
        labels.append(_require_str(label, "basis label"))
        parities.append(par)
    if len(set(labels)) != len(labels):
        raise ParseError("duplicate basis labels")
    return SuperSpace(field, tuple(labels), tuple(parities))


def _parse_value(value, space: SuperSpace, field: Field) -> dict:
    out = {}
    for pair in _require_list(value, "value"):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ParseError(f"value entry must be [label, coeff]: {pair!r}")
        label, coeff = pair
        try:
            idx = space.labels.index(label)
        except ValueError:
            raise ParseError(f"unknown basis label {label!r}") from None
        try:
            c = field.parse(str(coeff))
        except FieldError as exc:
            raise ParseError(str(exc)) from exc
        out[idx] = field.of(out.get(idx, 0) + c)
    return field.clean(out)


def parse_algebra(obj: dict, what: str = "algebra") -> LieSuperAlgebra | AssocSuperAlgebra:
    _require_keys(obj, {"name", "field", "kind", "basis", "table"}, {"unit"}, what)
    name = _require_str(obj["name"], "algebra name")
    field = parse_field(obj["field"])
    space = _parse_basis(obj["basis"], field)
    kind = obj["kind"]
    if kind not in ("lie", "assoc"):
        raise ParseError(f"kind must be 'lie' or 'assoc', got {kind!r}")
    table: dict[tuple[int, int], dict] = {}
    for entry in _require_list(obj["table"], "table"):
        _require_keys(entry, {"left", "right", "value"}, set(), "table entry")
        try:
            i = space.labels.index(entry["left"])
            j = space.labels.index(entry["right"])
        except ValueError:
            raise ParseError(f"unknown label in table entry {entry!r}") from None
        if (i, j) in table:
            raise ParseError(f"duplicate table entry for ({entry['left']}, {entry['right']})")
        v = _parse_value(entry["value"], space, field)
        if kind == "lie":
            if i > j:
                raise ParseError(
                    f"lie tables are given for left <= right; saw ({entry['left']}, {entry['right']})")
            if i == j and space.parities[i] == 0:
                raise ParseError(f"even diagonal bracket [{entry['left']},{entry['left']}] must vanish")
        if v:
            table[(i, j)] = v
    if kind == "lie":
        if "unit" in obj:
            raise ParseError("lie algebras take no unit")
        return LieSuperAlgebra(space, table, name=name)
    unit = None
    if "unit" in obj:
        unit = _parse_value(obj["unit"], space, field)
    return AssocSuperAlgebra(space, table, unit=unit, name=name)


def algebra_to_json(alg: LieSuperAlgebra | AssocSuperAlgebra) -> dict:
    space = alg.space
    field = alg.field
    table = []
    for (i, j), v in sorted(alg.table.items()):
        table.append({
            "left": space.labels[i],
            "right": space.labels[j],
            "value": [[space.labels[k], field.format(c)] for k, c in sorted(v.items())],
        })
    out = {
        "name": alg.name,
        "field": field_to_json(field),
        "kind": "lie" if isinstance(alg, LieSuperAlgebra) else "assoc",
        "basis": [[l, p] for l, p in zip(space.labels, space.parities)],
        "table": table,
    }
    if isinstance(alg, AssocSuperAlgebra) and alg.unit is not None:
        out["unit"] = [[space.labels[k], field.format(c)] for k, c in sorted(alg.unit.items())]
    return out


def parse_action(obj: dict, actor: LieSuperAlgebra, target: LieSuperAlgebra) -> Action:
    from .actions import Action

    _require_keys(obj, {"actor", "target", "entries"}, set(), "action")
    if obj["actor"] != actor.name:
        raise ParseError(f"action actor {obj['actor']!r} does not match algebra {actor.name!r}")
    if obj["target"] != target.name:
        raise ParseError(f"action target {obj['target']!r} does not match algebra {target.name!r}")
    table: dict[tuple[int, int], dict] = {}
    for entry in _require_list(obj["entries"], "entries"):
        _require_keys(entry, {"p", "m", "value"}, set(), "action entry")
        try:
            p = actor.space.labels.index(entry["p"])
            m = target.space.labels.index(entry["m"])
        except ValueError:
            raise ParseError(f"unknown label in action entry {entry!r}") from None
        if (p, m) in table:
            raise ParseError(f"duplicate action entry ({entry['p']}, {entry['m']})")
        v = _parse_value(entry["value"], target.space, target.field)
        if v:
            table[(p, m)] = v
    return Action(actor, target, table)


def action_to_json(a: Action) -> dict:
    entries = []
    for (p, m), v in sorted(a.table.items()):
        entries.append({
            "p": a.actor.space.labels[p],
            "m": a.target.space.labels[m],
            "value": [[a.target.space.labels[k], a.field.format(c)] for k, c in sorted(v.items())],
        })
    return {"actor": a.actor.name, "target": a.target.name, "entries": entries}


def parse_module(obj: dict, p: LieSuperAlgebra) -> Action:
    """A coefficient module of p: a graded space with action constants, read
    as an action of p on the abelian algebra on that space."""
    _require_keys(obj, {"name", "algebra", "basis", "entries"}, set(), "module")
    if obj["algebra"] != p.name:
        raise ParseError(f"module is over {obj['algebra']!r}, not {p.name!r}")
    target = LieSuperAlgebra(_parse_basis(obj["basis"], p.field), {},
                             name=_require_str(obj["name"], "module name"))
    return parse_action({"actor": p.name, "target": target.name, "entries": obj["entries"]},
                        p, target)


def parse_boundary(items, m_alg: LieSuperAlgebra, p_alg: LieSuperAlgebra) -> GradedMap:
    cols = [dict() for _ in range(m_alg.dim)]
    seen = set()
    for entry in _require_list(items, "boundary"):
        _require_keys(entry, {"from", "value"}, set(), "boundary entry")
        try:
            i = m_alg.space.labels.index(entry["from"])
        except ValueError:
            raise ParseError(f"unknown label in boundary entry {entry!r}") from None
        if i in seen:
            raise ParseError(f"duplicate boundary entry for {entry['from']}")
        seen.add(i)
        cols[i] = _parse_value(entry["value"], p_alg.space, p_alg.field)
    try:
        return GradedMap(m_alg.space, p_alg.space, Matrix(p_alg.field, p_alg.dim, cols))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def load_json(path: str | Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def load_algebra(path: str | Path):
    obj = load_json(path)
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: top level must be an object")
    return parse_algebra(obj, what=str(path))


def load_crossed(path: str | Path) -> CrossedModule:
    """A crossed module file references two algebra files (relative to its
    own directory) plus a boundary matrix and the action entries."""
    from .actions import CrossedModule

    obj = load_json(path)
    _require_keys(obj, {"m", "p", "boundary", "action"}, set(), str(path))
    for key in ("m", "p"):
        if not isinstance(obj[key], str):
            raise ParseError(f"{path}: {key!r} must be an algebra file name: {obj[key]!r}")
    base = Path(path).parent
    m_alg = load_algebra(base / obj["m"])
    p_alg = load_algebra(base / obj["p"])
    if not isinstance(m_alg, LieSuperAlgebra) or not isinstance(p_alg, LieSuperAlgebra):
        raise ParseError("crossed modules are between Lie superalgebras")
    if m_alg.field != p_alg.field:
        raise ParseError(f"field mismatch: {m_alg.field} vs {p_alg.field}")
    boundary = parse_boundary(obj["boundary"], m_alg, p_alg)
    action = parse_action(
        {"actor": p_alg.name, "target": m_alg.name, "entries": obj["action"]},
        p_alg, m_alg)
    return CrossedModule(m_alg, p_alg, boundary, action)


def load_presentation(path: str | Path) -> Presentation:
    from .freelie import GradedGenSet, Presentation

    obj = load_json(path)
    _require_keys(obj, {"name", "generators", "relators"}, set(), str(path))
    gens = []
    for it in _require_list(obj["generators"], "generators"):
        if not (isinstance(it, list) and len(it) == 2 and _is_parity(it[1])):
            raise ParseError(f"generator must be [label, parity]: {it!r}")
        gens.append((_require_str(it[0], "generator label"), it[1]))
    try:
        gg = GradedGenSet(tuple(gens))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    relators = tuple(_require_list(obj["relators"], "relators"))
    try:
        return Presentation(gg, relators)  # validates every relator
    except (KeyError, ValueError) as exc:
        raise ParseError(str(exc)) from exc


def dump_json(obj: dict, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True, ensure_ascii=False)
        fh.write("\n")


def dumps_canonical(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True, ensure_ascii=False) + "\n"
