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

from .algebras import AssocSuperAlgebra, LieSuperAlgebra
from .fields import _PRIME_BOUND, Field, FieldError, InputError
from .linalg import Matrix
from .spaces import GradedMap, SuperSpace


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
        # int() refuses a string of more than 4300 digits
        if isinstance(p, str) and len(p.lstrip("0")) > len(str(_PRIME_BOUND)):
            raise ParseError(f"modulus must be below {_PRIME_BOUND}, where the primality test is exact")
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


def _label_index(space: SuperSpace, label) -> int:
    """The position of ``label`` in the basis of ``space``: the one lookup
    of a basis label in a file."""
    try:
        return space.labels.index(label)
    except ValueError:
        raise ParseError(f"unknown basis label {label!r}") from None


def _parse_value(value, space: SuperSpace) -> dict:
    """A vector of ``space`` given as [label, coeff] pairs, each label at
    most once."""
    field = space.field
    out = {}
    for pair in _require_list(value, "value"):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ParseError(f"value entry must be [label, coeff]: {pair!r}")
        label, coeff = pair
        idx = _label_index(space, label)
        if idx in out:
            raise ParseError(f"value repeats basis label {label!r}")
        try:
            out[idx] = field.parse(str(coeff))
        except FieldError as exc:
            raise ParseError(str(exc)) from exc
    return field.clean(out)


def _read_table(entries: list, what: str, keys: dict[str, SuperSpace],
                space: SuperSpace) -> dict[tuple[int, ...], dict]:
    """The one reader of a sparse table: each entry is an object with one
    basis label of ``keys[k]`` under each key k and a ``value`` in
    ``space``.  It returns {(index, ...): vector} in file order, zero
    vectors included, and refuses a repeated key."""
    table: dict[tuple[int, ...], dict] = {}
    for entry in entries:
        _require_keys(entry, {*keys, "value"}, set(), what)
        key = tuple(_label_index(sp, entry[k]) for k, sp in keys.items())
        if key in table:
            raise ParseError(f"duplicate {what} for {', '.join(entry[k] for k in keys)}")
        table[key] = _parse_value(entry["value"], space)
    return table


def _value_to_json(v: dict, space: SuperSpace) -> list:
    return [[space.labels[k], space.field.format(c)] for k, c in sorted(v.items())]


def parse_algebra(obj: dict, what: str = "algebra") -> LieSuperAlgebra | AssocSuperAlgebra:
    _require_keys(obj, {"name", "field", "kind", "basis", "table"}, {"unit"}, what)
    name = _require_str(obj["name"], "algebra name")
    space = _parse_basis(obj["basis"], parse_field(obj["field"]))
    kind = obj["kind"]
    if kind not in ("lie", "assoc"):
        raise ParseError(f"kind must be 'lie' or 'assoc', got {kind!r}")
    table = _read_table(_require_list(obj["table"], "table"), "table entry",
                        {"left": space, "right": space}, space)
    if kind == "assoc":
        unit = _parse_value(obj["unit"], space) if "unit" in obj else None
        return AssocSuperAlgebra(space, table, unit=unit, name=name)
    if "unit" in obj:
        raise ParseError("lie algebras take no unit")
    try:
        return LieSuperAlgebra(space, table, name=name)
    except ValueError as exc:  # the storage rule of Lie tables
        raise ParseError(str(exc)) from exc


def algebra_to_json(alg: LieSuperAlgebra | AssocSuperAlgebra) -> dict:
    space = alg.space
    out = {
        "name": alg.name,
        "field": field_to_json(alg.field),
        "kind": "lie" if isinstance(alg, LieSuperAlgebra) else "assoc",
        "basis": [[l, p] for l, p in zip(space.labels, space.parities)],
        "table": [{"left": space.labels[i], "right": space.labels[j],
                   "value": _value_to_json(v, space)} for (i, j), v in sorted(alg.table.items())],
    }
    if isinstance(alg, AssocSuperAlgebra) and alg.unit is not None:
        out["unit"] = _value_to_json(alg.unit, space)
    return out


def _read_action(entries, actor: LieSuperAlgebra, target: LieSuperAlgebra) -> Action:
    """The action of ``actor`` on ``target`` whose constants are the
    {"p", "m", "value"} objects of ``entries``."""
    from .actions import Action

    return Action(actor, target, _read_table(_require_list(entries, "entries"), "action entry",
                                             {"p": actor.space, "m": target.space}, target.space))


def parse_action(obj: dict, actor: LieSuperAlgebra, target: LieSuperAlgebra) -> Action:
    _require_keys(obj, {"actor", "target", "entries"}, set(), "action")
    if obj["actor"] != actor.name:
        raise ParseError(f"action actor {obj['actor']!r} does not match algebra {actor.name!r}")
    if obj["target"] != target.name:
        raise ParseError(f"action target {obj['target']!r} does not match algebra {target.name!r}")
    return _read_action(obj["entries"], actor, target)


def action_to_json(a: Action) -> dict:
    entries = [{"p": a.actor.space.labels[p], "m": a.target.space.labels[m],
                "value": _value_to_json(v, a.target.space)} for (p, m), v in sorted(a.table.items())]
    return {"actor": a.actor.name, "target": a.target.name, "entries": entries}


def parse_module(obj: dict, p: LieSuperAlgebra) -> Action:
    """A coefficient module of p: a graded space with action constants, read
    as an action of p on the abelian algebra on that space."""
    _require_keys(obj, {"name", "algebra", "basis", "entries"}, set(), "module")
    if obj["algebra"] != p.name:
        raise ParseError(f"module is over {obj['algebra']!r}, not {p.name!r}")
    target = LieSuperAlgebra(_parse_basis(obj["basis"], p.field), {},
                             name=_require_str(obj["name"], "module name"))
    return _read_action(obj["entries"], p, target)


def parse_boundary(items, m_alg: LieSuperAlgebra, p_alg: LieSuperAlgebra) -> GradedMap:
    table = _read_table(_require_list(items, "boundary"), "boundary entry",
                        {"from": m_alg.space}, p_alg.space)
    cols = [table.get((i,), {}) for i in range(m_alg.dim)]
    try:
        return GradedMap(m_alg.space, p_alg.space, Matrix(p_alg.field, p_alg.dim, cols))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def load_json(path: str | Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path, or not UTF-8
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
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
    return CrossedModule(m_alg, p_alg, parse_boundary(obj["boundary"], m_alg, p_alg),
                         _read_action(obj["action"], p_alg, m_alg))


def load_presentation(path: str | Path) -> Presentation:
    from .freelie import GradedGenSet, Presentation

    obj = load_json(path)
    _require_keys(obj, {"name", "generators", "relators"}, set(), str(path))
    _require_str(obj["name"], "presentation name")
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
        fh.write(dumps_canonical(obj))


def dumps_canonical(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True, ensure_ascii=False) + "\n"
