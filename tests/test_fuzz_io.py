"""Fuzzing of the file parsers: one mutated node of a valid object either
parses or is refused with an ``InputError``.

Each case starts from a valid algebra, action, coefficient module, crossed
module or presentation object and changes one node of its JSON tree: it
replaces the node by a small JSON value, deletes it from its object or
list, or adds a key or an element next to it.  The parser may accept the
result, since many mutations keep it valid, but any exception other than
an ``InputError`` (exit 2 on the command line) fails the test: it would
end a command in a traceback.  The crossed module and the presentation
are read from files, as the command line reads them.
"""

import copy
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from superlie.actions import adjoint_action
from superlie.corpus import assoc_algebra, lie_algebra
from superlie.fields import InputError
from superlie.io import (
    action_to_json,
    algebra_to_json,
    load_crossed,
    load_presentation,
    parse_action,
    parse_algebra,
    parse_module,
)

DATA = Path(__file__).parent.parent / "src" / "superlie" / "data"
HEIS = lie_algebra("heis")
HEIS_ADJ = action_to_json(adjoint_action(HEIS))

SCALARS = (st.none() | st.booleans() | st.integers(-3, 7)
           | st.floats(allow_nan=False, allow_infinity=False, width=16)
           | st.sampled_from(["x", "y", "z", "z'", "t", "heis", "1", "-1/2", "0", "abc", "",
                              "lie", "assoc", "Q", "Fp", "sum", "\x00"])
           | st.text(max_size=3))
KEYS = st.sampled_from(["name", "field", "kind", "basis", "table", "unit", "left", "right",
                        "value", "p", "m", "actor", "target", "entries", "algebra", "from",
                        "boundary", "action", "generators", "relators", "sum", "coeff", "word",
                        "extra"])
JSON = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(KEYS, inner, max_size=3), max_leaves=6)


def nodes(obj, path=()):
    """Every node of a JSON tree, as the path of keys and indices to it."""
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for k, v in items:
        yield from nodes(v, path + (k,))


@st.composite
def mutants(draw, seeds):
    """One seed with one node replaced, deleted, or given a new sibling."""
    obj = copy.deepcopy(draw(st.sampled_from(seeds)))
    path = draw(st.sampled_from(list(nodes(obj))))
    op = draw(st.sampled_from(["replace", "delete", "add"]))
    if not path:  # the root can only be replaced
        return draw(JSON)
    parent = obj
    for k in path[:-1]:
        parent = parent[k]
    last = path[-1]
    if op == "replace":
        parent[last] = draw(JSON)
    elif op == "delete":
        del parent[last]
    elif isinstance(parent, dict):
        parent[draw(KEYS)] = draw(JSON)
    else:
        parent.insert(last, draw(JSON))
    return obj


def accepted_or_refused(parse, obj):
    """Run ``parse(obj)``; an ``InputError`` is a refusal, any other
    exception propagates and fails the test."""
    try:
        parse(obj)
    except InputError:
        pass


def read_from_file(load, obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        return load(path)


ALGEBRAS = [algebra_to_json(HEIS), algebra_to_json(lie_algebra("sl21")),
            algebra_to_json(lie_algebra("heis_f5")), algebra_to_json(assoc_algebra("grassmann")),
            algebra_to_json(assoc_algebra("dual"))]
ACTIONS = [HEIS_ADJ, {"actor": "heis", "target": "heis", "entries": []}]
MODULES = [{"name": "adj", "algebra": "heis", "basis": ALGEBRAS[0]["basis"],
            "entries": HEIS_ADJ["entries"]},
           {"name": "v", "algebra": "heis", "basis": [["v", 0], ["w", 1]],
            "entries": [{"p": "x", "m": "v", "value": []}]}]
CROSSED = [{"m": str(DATA / "zheis.json"), "p": str(DATA / "heis.json"),
            "boundary": [{"from": "z'", "value": [["z", "1"]]}], "action": []},
           {"m": str(DATA / "heis.json"), "p": str(DATA / "heis.json"),
            "boundary": [{"from": a, "value": [[a, "1"]]} for a in ("x", "y", "z")],
            "action": HEIS_ADJ["entries"]}]
PRESENTATIONS = [json.loads((DATA / "heis_pres.json").read_text(encoding="utf-8")),
                 {"name": "g", "generators": [["x", 0], ["t", 1]],
                  "relators": [["t", "t"], {"sum": [{"coeff": "2", "word": ["x", ["x", "t"]]},
                                                    {"coeff": -1, "word": ["t", ["t", "t"]]}]}]}]

CASES = {
    "algebra": (ALGEBRAS, parse_algebra),
    "action": (ACTIONS, lambda obj: parse_action(obj, HEIS, HEIS)),
    "module": (MODULES, lambda obj: parse_module(obj, HEIS)),
    "crossed": (CROSSED, lambda obj: read_from_file(load_crossed, obj)),
    "presentation": (PRESENTATIONS, lambda obj: read_from_file(load_presentation, obj)),
}


@pytest.mark.parametrize("kind", sorted(CASES))
def test_seeds_parse(kind):
    seeds, parse = CASES[kind]
    for obj in seeds:
        parse(obj)


@pytest.mark.parametrize("kind", sorted(CASES))
def test_one_mutated_node_parses_or_is_an_input_error(kind):
    seeds, parse = CASES[kind]

    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(mutants(seeds))
    def run(obj):
        accepted_or_refused(parse, obj)

    run()
