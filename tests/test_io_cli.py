import hashlib
import json
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

from oracles import ASSOC_NAMES, LIE_NAMES, run_cli, write_bundle
from superlie.algebras import AssocSuperAlgebra, LieSuperAlgebra, check_lie_axioms
from superlie.corpus import assoc_algebra, lie_algebra
from superlie.io import (
    ParseError,
    algebra_to_json,
    action_to_json,
    load_algebra,
    load_crossed,
    load_presentation,
    parse_algebra,
    parse_field,
)
from superlie.actions import adjoint_action, check_crossed, identity_crossed
from superlie.homology import nh


DATA = Path(__file__).parent.parent / "src" / "superlie" / "data"


def run_module(*args):
    """``python -m superlie.cli`` in a fresh process: for the tests whose
    subject is the process itself (its exit code and its output bytes)."""
    return subprocess.run([sys.executable, "-m", "superlie.cli", *args],
                          capture_output=True, text=True)


# -- schema ----------------------------------------------------------------------

def test_field_schema():
    assert parse_field({"kind": "Q"}).p is None
    assert parse_field({"kind": "Fp", "p": 5}).p == 5
    with pytest.raises(ParseError):
        parse_field({"kind": "R"})
    with pytest.raises(ParseError):
        parse_field({"kind": "Fp"})
    with pytest.raises(ParseError):
        parse_field({"kind": "Q", "p": 3})
    with pytest.raises(ParseError):
        parse_field({"kind": "Fp", "p": 4})


def test_unknown_fields_rejected():
    obj = algebra_to_json(lie_algebra("heis"))
    obj["extra"] = 1
    with pytest.raises(ParseError):
        parse_algebra(obj)


def test_unknown_table_keys_rejected():
    obj = algebra_to_json(lie_algebra("heis"))
    obj["table"][0]["typo"] = 1
    with pytest.raises(ParseError):
        parse_algebra(obj)


def test_unknown_label_rejected():
    obj = algebra_to_json(lie_algebra("heis"))
    obj["table"][0]["value"][0][0] = "nope"
    with pytest.raises(ParseError):
        parse_algebra(obj)


def test_lie_storage_conventions_enforced():
    obj = algebra_to_json(lie_algebra("heis"))
    obj["table"].append({"left": "y", "right": "x", "value": [["z", "-1"]]})
    with pytest.raises(ParseError):
        parse_algebra(obj)
    obj2 = algebra_to_json(lie_algebra("heis"))
    obj2["table"] = [{"left": "x", "right": "x", "value": [["z", "1"]]}]
    with pytest.raises(ParseError):
        parse_algebra(obj2)
    # the rule is about the stored pairs, so an entry with a zero value breaks it too
    for left, right in (("y", "x"), ("x", "x")):
        obj3 = algebra_to_json(lie_algebra("heis"))
        obj3["table"].append({"left": left, "right": right, "value": []})
        with pytest.raises(ParseError):
            parse_algebra(obj3)


def test_lie_unit_rejected():
    obj = algebra_to_json(lie_algebra("heis"))
    obj["unit"] = [["z", "1"]]
    with pytest.raises(ParseError):
        parse_algebra(obj)


def test_roundtrip_all_corpus():
    for name in LIE_NAMES:
        alg = lie_algebra(name)
        obj = algebra_to_json(alg)
        back = parse_algebra(obj)
        assert isinstance(back, LieSuperAlgebra)
        assert algebra_to_json(back) == obj
        assert check_lie_axioms(back).ok
    for name in ASSOC_NAMES:
        alg = assoc_algebra(name)
        obj = algebra_to_json(alg)
        back = parse_algebra(obj)
        assert isinstance(back, AssocSuperAlgebra)
        assert algebra_to_json(back) == obj


def test_fp_algebra_roundtrip():
    alg = lie_algebra("heis_f5")
    obj = algebra_to_json(alg)
    assert obj["field"] == {"kind": "Fp", "p": 5}
    back = parse_algebra(obj)
    assert algebra_to_json(back) == obj


def test_action_roundtrip(heis):
    adj = adjoint_action(heis)
    obj = action_to_json(adj)
    from superlie.io import parse_action

    back = parse_action(obj, heis, heis)
    assert action_to_json(back) == obj


def test_oracle_regenerates_every_bundled_file(tmp_path):
    """Each file under data/ is what the constructors give, byte for byte."""
    for name in write_bundle(tmp_path):
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), \
            f"{name} drifted from the constructors"


def test_bundled_files_are_the_oracle_files(tmp_path):
    assert sorted(p.name for p in DATA.glob("*.json")) == write_bundle(tmp_path)


def test_corpus_returns_the_parsed_files():
    for name in LIE_NAMES + ("heis_f5",):
        alg = lie_algebra(name)
        assert isinstance(alg, LieSuperAlgebra)
        assert algebra_to_json(alg) == json.loads((DATA / f"{name}.json").read_text("utf-8"))
        assert lie_algebra(name) is alg
    for name in ASSOC_NAMES:
        alg = assoc_algebra(name)
        assert isinstance(alg, AssocSuperAlgebra)
        assert algebra_to_json(alg) == json.loads((DATA / f"{name}.json").read_text("utf-8"))
        assert assoc_algebra(name) is alg


@pytest.mark.parametrize("lookup, name", [
    (lie_algebra, "nope"), (assoc_algebra, "nope"),
    (lie_algebra, "m11"), (assoc_algebra, "heis"),
    (lie_algebra, "heis_adjoint"), (lie_algebra, "heis_pres"),
    (assoc_algebra, "heis_center_crossed"), (lie_algebra, "../data/heis"),
    (lie_algebra, str(DATA / "heis")),
])
def test_corpus_unknown_or_other_kind_is_key_error(lookup, name):
    with pytest.raises(KeyError):
        lookup(name)


def test_load_crossed_bundled():
    cm = load_crossed(DATA / "heis_center_crossed.json")
    assert cm.m.dim == 1 and cm.p.dim == 3
    assert check_crossed(cm).ok


def test_load_presentation_bundled():
    pres = load_presentation(DATA / "heis_pres.json")
    assert pres.gens.count == 2
    assert len(pres.relators) == 2


# -- CLI --------------------------------------------------------------------------

def test_cli_check_certified():
    r = run_module("check", "@heis")
    assert r.returncode == 0
    assert "certified" in r.stdout
    assert "class 2" in r.stdout


def test_cli_check_assoc():
    r = run_cli("check", "@dual")
    assert r.returncode == 0
    assert "associative" in r.stdout and "unital" in r.stdout
    assert "supercommutative" in r.stdout


def test_cli_check_prime_field_file():
    r = run_cli("check", "@heis_f5")
    assert r.returncode == 0
    assert "certified" in r.stdout


def test_cli_bundled_name_is_not_a_path():
    for arg in (f"@{DATA / 'heis'}", "@../data/heis"):
        r = run_cli("check", arg)
        assert r.returncode == 2
        assert r.stderr.startswith("input error: no bundled file named")
        assert r.stdout == ""


def test_cli_check_tampered(tmp_path):
    obj = algebra_to_json(lie_algebra("gl11"))
    for entry in obj["table"]:
        if entry["value"]:
            entry["value"][0][1] = "5"
            break
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(obj), encoding="utf-8")
    r = run_module("check", str(p))
    assert r.returncode == 1
    assert "violation" in r.stdout


def write_json(tmp_path, name: str, obj: dict) -> str:
    p = tmp_path / f"{name}.json"
    p.write_text(json.dumps(obj), encoding="utf-8")
    return str(p)


def ground_with_unit(field: dict, unit: list) -> dict:
    return {"name": "K", "field": field, "kind": "assoc", "basis": [["1", 0]],
            "table": [{"left": "1", "right": "1", "value": [["1", "1"]]}], "unit": unit}


ZERO_LIE = {"name": "zero", "field": {"kind": "Q"}, "kind": "lie", "basis": [], "table": []}
ZERO_ASSOC = {"name": "zero", "field": {"kind": "Q"}, "kind": "assoc", "basis": [],
              "table": [], "unit": []}


@pytest.mark.parametrize("field, unit", [
    ({"kind": "Q"}, []),
    ({"kind": "Fp", "p": 5}, [["1", "5"]]),
], ids=("Q-empty", "F5-five"))
def test_cli_check_refuses_a_declared_unit_that_is_zero(tmp_path, field, unit):
    """A unit that cleans to 0 is still declared, so K with it fails the
    unit axioms, as a unit of 2 does; it is not read as "no unit"."""
    r = run_cli("--out", "json", "check", write_json(tmp_path, "k", ground_with_unit(field, unit)))
    assert r.returncode == 1
    report = json.loads(r.stdout)["results"]
    assert not report["certified"]
    assert [v.split(" at ")[0] for v in report["violations"]] == ["unit-left", "unit-right"]


def dim_pairs(value) -> list:
    """Every [even, odd] dimension pair in a JSON report's results."""
    if isinstance(value, dict):
        return [d for v in value.values() for d in dim_pairs(v)]
    if isinstance(value, list):
        if len(value) == 2 and all(type(c) is int for c in value):
            return [value]
        return [d for v in value for d in dim_pairs(v)]
    return []


@pytest.mark.parametrize("data, args", [
    (ZERO_LIE, ("check", "{0}")),
    (ZERO_LIE, ("homology", "{0}", "-n", "3")),
    (ZERO_LIE, ("homology", "{0}", "--nonabelian", "identity")),
    (ZERO_LIE, ("tensor", "{0}", "{0}", "--adjoint", "--uce", "--exterior")),
    (ZERO_LIE, ("tensor", "{0}", "{0}", "--trivial")),
    (ZERO_ASSOC, ("check", "{0}")),
    (ZERO_ASSOC, ("cyclic", "{0}")),
    (ZERO_ASSOC, ("cyclic", "{0}", "--sixterm")),
], ids=lambda v: " ".join(a for a in v if a != "{0}") if isinstance(v, tuple) else v["kind"])
def test_cli_runs_every_command_on_a_zero_algebra(tmp_path, data, args):
    """Every dimension of the zero algebra is (0|0), but H0 with trivial
    coefficients, which is K; the zero associative algebra is unital, with
    1 = 0."""
    path = write_json(tmp_path, "zero", data)
    r = run_cli("--out", "json", *(a.format(path) for a in args))
    assert r.returncode == 0, r.stdout + r.stderr
    results = json.loads(r.stdout)["results"]
    if args[0] == "homology":
        assert results["homology"][0] == [1, 0]
        results["homology"] = results["homology"][1:]
    pairs = dim_pairs(results)
    assert pairs and all(d == [0, 0] for d in pairs)


def test_cli_parse_error_exit2(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json", encoding="utf-8")
    r = run_cli("check", str(p))
    assert r.returncode == 2
    r2 = run_cli("check", str(tmp_path / "missing.json"))
    assert r2.returncode == 2


def test_cli_tensor_with_action_files():
    r = run_cli("tensor", "@heis", "@heis",
                "--act-mn", "@heis_adjoint", "--act-nm", "@heis_adjoint")
    assert r.returncode == 0
    assert "(6|0)" in r.stdout


def test_cli_tensor_incompatible_actions(tmp_path):
    gl = lie_algebra("gl11")
    # hand-edit the adjoint action: tamper one entry
    obj = action_to_json(adjoint_action(gl))
    obj["entries"][0]["value"][0][1] = "2"
    p = tmp_path / "bad_action.json"
    p.write_text(json.dumps(obj), encoding="utf-8")
    r = run_cli("tensor", "@gl11", "@gl11", "--act-mn", str(p), "--act-nm", "@gl11_adjoint")
    assert r.returncode == 1
    assert "axioms" in r.stdout or "compatible" in r.stdout


def test_cli_tensor_uce():
    r = run_cli("tensor", "@sl21", "@sl21", "--adjoint", "--uce")
    assert r.returncode == 0
    assert "universal central extension kernel" in r.stdout
    assert "(0|0)" in r.stdout


def test_cli_homology_table():
    r = run_cli("homology", "@heis", "-n", "2")
    assert r.returncode == 0
    assert "H0: dim (1|0)" in r.stdout
    assert "H1: dim (2|0)" in r.stdout
    assert "H2: dim (2|0)" in r.stdout


def test_cli_homology_hopf():
    r = run_cli("homology", "@heis", "--hopf", "@heis_pres", "--class", "2")
    assert r.returncode == 0
    assert "agree" in r.stdout


def test_cli_homology_nonabelian():
    r = run_cli("homology", "@sl21", "--nonabelian", "identity")
    assert r.returncode == 0
    assert "nh0: dim (0|0)" in r.stdout


@pytest.mark.parametrize("algebra, message", [
    ("@sl21", "not over 'sl21'"),
    ("@heis_f5", "(Q), not over 'heis_f5' (F5)"),
])
def test_cli_nonabelian_file_over_another_algebra_exit2(algebra, message):
    r = run_cli("homology", algebra, "--nonabelian", "@heis_center_crossed")
    assert r.returncode == 2
    assert r.stderr.startswith("input error: ") and message in r.stderr
    assert "Traceback" not in r.stderr
    assert r.stdout == ""


def test_cli_nonabelian_file_fails_its_axioms(tmp_path):
    # z' -> x is not equivariant: d(y.z') = 0 but [y, d z'] = [y, x] = -z
    obj = json.loads((DATA / "heis_center_crossed.json").read_text(encoding="utf-8"))
    obj["m"], obj["p"] = str(DATA / "zheis.json"), str(DATA / "heis.json")
    obj["boundary"] = [{"from": "z'", "value": [["x", "1"]]}]
    p = tmp_path / "bad_crossed.json"
    p.write_text(json.dumps(obj), encoding="utf-8")
    r = run_cli("homology", "@heis", "--nonabelian", str(p))
    assert r.returncode == 1
    assert "crossed module fails its axioms: " in r.stdout
    assert "Traceback" not in r.stderr
    r = run_cli("--out", "json", "homology", "@heis", "--nonabelian", str(p))
    assert r.returncode == 1
    rep = json.loads(r.stdout)
    assert rep["results"]["crossed_valid"] is False
    assert rep["status"] == "failed"


def test_cli_nonabelian_bundled_crossed_module():
    # Z -> heis: the action is trivial and P (x) Z = heis^ab (x) Z has dim 2
    r = run_cli("--out", "json", "homology", "@heis", "--nonabelian", "@heis_center_crossed")
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["results"]["nh0"] == [1, 0]
    assert rep["results"]["nh1"] == [2, 0]


def test_nh_refuses_a_crossed_module_over_another_object(heis):
    with pytest.raises(ValueError, match="another algebra object"):
        nh(lie_algebra("heis"), identity_crossed(parse_algebra(algebra_to_json(heis))))


def test_cli_cyclic():
    r = run_cli("cyclic", "@grassmann")
    assert r.returncode == 0
    assert "HC1: dim (1|0)" in r.stdout
    assert "supercommutative" in r.stdout


def test_cli_cyclic_sixterm():
    r = run_cli("cyclic", "@m11", "--sixterm")
    assert r.returncode == 0
    assert "exact" in r.stdout


def test_cli_deterministic_output():
    """A run in a fresh process and two in this one, where the corpus
    cache that the suites read and the memos on its algebras outlive each
    run, print the same bytes and exit with the same code."""
    for args in (["check", "@sl21"], ["homology", "@heis", "-n", "2"],
                 ["cyclic", "@grassmann"], ["--out", "json", "check", "@heis"],
                 ["tensor", "@sl21", "@sl21", "--adjoint", "--uce", "--exterior"],
                 ["verify", "uce"]):
        a = subprocess.run([sys.executable, "-m", "superlie.cli", *args], capture_output=True)
        b = run_cli(*args)
        c = run_cli(*args)
        assert a.stdout == b.stdout.encode("utf-8") == c.stdout.encode("utf-8")
        assert a.returncode == b.returncode == c.returncode


def test_cli_json_output_parses():
    r = run_cli("--out", "json", "homology", "@heis", "-n", "2")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["results"]["homology"] == [[1, 0], [2, 0], [2, 0]]
    assert data["status"] == "ok"


def recorded_digest(path: Path) -> str:
    """The digest that ``Report.read`` records for the file ``path``."""
    from superlie.cli import Report

    rep = Report("check", "json")
    rep.read(str(path), lambda p: None)
    return rep.data["inputs"][str(path)]


def test_recorded_digest_is_the_sha256_prefix(tmp_path):
    """Every bundled file and an arbitrary byte string are recorded with
    the first 16 hex digits of their SHA-256, as hashlib computes it."""
    arbitrary = tmp_path / "bytes"
    arbitrary.write_bytes(bytes(range(256)) * 3 + b"\x00superlie\xff")
    for path in [*sorted(DATA.glob("*.json")), arbitrary]:
        assert recorded_digest(path) == hashlib.sha256(path.read_bytes()).hexdigest()[:16], path


@pytest.mark.parametrize("missing, used", [(("_sha256",), "_sha2"),
                                           (("_sha256", "_sha2"), "hashlib")],
                         ids=["sha2", "hashlib"])
def test_recorded_digest_falls_back(tmp_path, monkeypatch, missing, used):
    """Without ``_sha256`` the digest comes from ``_sha2`` (its name from
    Python 3.12 on), and without either from hashlib: the same digest."""
    path = tmp_path / "bytes"
    path.write_bytes(b"[e, f] = h\n" * 40)
    expected = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
    calls = []

    def recording(name, real=hashlib.sha256):
        return lambda data: calls.append(name) or real(data)

    stand_in = types.ModuleType("_sha2")
    stand_in.sha256 = recording("_sha2")
    monkeypatch.setitem(sys.modules, "_sha2", stand_in)
    monkeypatch.setattr(hashlib, "sha256", recording("hashlib"))
    for name in missing:
        monkeypatch.setitem(sys.modules, name, None)  # its import raises ImportError
    assert recorded_digest(path) == expected
    assert calls == [used]


def test_cli_verify_suite():
    r = run_cli("verify", "d3-lemma")
    assert r.returncode == 0
    assert r.stdout.count("[pass]") == 4


def test_cli_unknown_suite_is_input_error(capsys):
    from superlie.cli import main

    assert main(["verify", "no-such-suite"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("input error: unknown suite 'no-such-suite'; choose from [")
    assert "'d3-lemma'" in err


def test_cli_corpus_export(tmp_path):
    r = run_cli("corpus", "export", str(tmp_path / "out"))
    assert r.returncode == 0
    assert (tmp_path / "out" / "heis.json").exists()


def test_cli_corpus_export_to_a_file_is_input_error(tmp_path):
    f = tmp_path / "file"
    f.write_text("", encoding="utf-8")
    for target in (f, f / "under"):
        r = run_cli("corpus", "export", str(target))
        assert r.returncode == 2
        assert r.stderr.startswith("input error: ")
        assert "Traceback" not in r.stderr
        assert r.stdout == ""


def test_cli_corpus_list_and_export_match_the_data_directory(tmp_path):
    names = sorted(p.name for p in DATA.glob("*.json"))
    r = run_cli("--out", "json", "corpus", "list")
    assert r.returncode == 0 and json.loads(r.stdout)["results"]["files"] == names
    run_cli("corpus", "export", str(tmp_path))
    for name in names:
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes()


def test_cli_field_mismatch_rejected(tmp_path):
    obj = algebra_to_json(lie_algebra("heis_f5"))
    p = tmp_path / "heis5.json"
    p.write_text(json.dumps(obj), encoding="utf-8")
    r = run_cli("tensor", "@heis", str(p), "--trivial")
    assert r.returncode == 2
    assert "field mismatch" in r.stderr


def test_presentation_with_sum_relators(tmp_path):
    obj = {
        "name": "combo",
        "generators": [["x", 0], ["y", 0], ["z", 0]],
        "relators": [{"sum": [{"coeff": "1", "word": ["x", "y"]},
                              {"coeff": "-1", "word": ["x", "z"]}]}],
    }
    p = tmp_path / "combo.json"
    p.write_text(json.dumps(obj), encoding="utf-8")
    pres = load_presentation(p)
    assert len(pres.relators) == 1
    bad = dict(obj)
    bad["relators"] = [{"sum": [{"coeff": "1", "word": "x", "typo": 1}]}]
    p2 = tmp_path / "bad.json"
    p2.write_text(json.dumps(bad), encoding="utf-8")
    with pytest.raises(ParseError):
        load_presentation(p2)


def test_reports_round_trip_quotients(tmp_path):
    """Serialized quotient algebras re-parse and re-certify."""
    from superlie.algebras import quotient_algebra, series
    from superlie.io import dump_json

    heis = lie_algebra("heis")
    q, _ = quotient_algebra(heis, series(heis).center, name="heis_mod_z")
    p = tmp_path / "q.json"
    dump_json(algebra_to_json(q), p)
    back = load_algebra(p)
    assert check_lie_axioms(back).ok
    assert algebra_to_json(back) == algebra_to_json(q)


def test_cli_negative_degree_is_input_error():
    r = run_module("homology", "@heis", "-n", "-1")
    assert r.returncode == 2
    assert "--degree" in r.stderr
    assert "Traceback" not in r.stderr
    assert r.stdout == ""


def test_cli_hopf_truncation_limits_are_input_errors(tmp_path):
    r = run_cli("homology", "@heis", "--hopf", "@heis_pres", "--class", "9")
    assert r.returncode == 2
    assert "class bound 9" in r.stderr
    assert "Traceback" not in r.stderr
    five = {"name": "five", "generators": [[f"g{i}", 0] for i in range(5)], "relators": []}
    p = tmp_path / "five.json"
    p.write_text(json.dumps(five), encoding="utf-8")
    r = run_cli("homology", "@heis", "--hopf", str(p))
    assert r.returncode == 2
    assert "5 generators given" in r.stderr
    assert "Traceback" not in r.stderr


def _heis_module(tmp_path, name, basis, entries):
    p = tmp_path / f"{name}.json"
    obj = {"name": name, "algebra": "heis", "basis": basis, "entries": entries}
    p.write_text(json.dumps(obj), encoding="utf-8")
    return p


def test_cli_homology_module_fails_its_axioms(tmp_path):
    # only z acts, by 1: [x, y].v = v but x.(y.v) - y.(x.v) = 0
    p = _heis_module(tmp_path, "bad", [["v", 0]],
                     [{"p": "z", "m": "v", "value": [["v", "1"]]}])
    r = run_cli("homology", "@heis", "--module", str(p), "-n", "1")
    assert r.returncode == 1
    assert "module fails its axioms" in r.stdout
    assert "Traceback" not in r.stderr
    r = run_cli("--out", "json", "homology", "@heis", "--module", str(p), "-n", "1")
    assert r.returncode == 1
    rep = json.loads(r.stdout)
    assert rep["results"]["module_valid"] is False
    assert rep["status"] == "failed"


NOT_LIE = {  # even x, y, z; [x,y] = y, [x,z] = x, [y,z] = z fails Jacobi
    "name": "notlie", "kind": "lie", "field": {"kind": "Q"},
    "basis": [["x", 0], ["y", 0], ["z", 0]],
    "table": [{"left": "x", "right": "y", "value": [["y", "1"]]},
              {"left": "x", "right": "z", "value": [["x", "1"]]},
              {"left": "y", "right": "z", "value": [["z", "1"]]}],
}
NOT_ASSOC = {  # commutative and unital, but (xx)y = y y = 0 and x(xy) = xx = y
    "name": "notassoc", "kind": "assoc", "field": {"kind": "Q"},
    "basis": [["1", 0], ["x", 0], ["y", 0]],
    "table": [{"left": "1", "right": b, "value": [[b, "1"]]} for b in ("1", "x", "y")]
    + [{"left": b, "right": "1", "value": [[b, "1"]]} for b in ("x", "y")]
    + [{"left": "x", "right": "x", "value": [["y", "1"]]},
       {"left": "x", "right": "y", "value": [["x", "1"]]},
       {"left": "y", "right": "x", "value": [["x", "1"]]}],
    "unit": [["1", "1"]],
}


@pytest.mark.parametrize("command", [
    ("check", "{lie}"),
    ("homology", "{lie}", "-n", "0"),
    ("homology", "{lie}", "-n", "1"),
    ("tensor", "{lie}", "{lie}", "--trivial"),
    ("tensor", "@heis", "{lie}", "--trivial"),
    ("tensor", "{lie}", "{lie}", "--adjoint"),
    ("check", "{assoc}"),
    ("cyclic", "{assoc}"),
], ids=lambda c: "-".join(c).replace("{", "").replace("}", ""))
def test_cli_refuses_an_algebra_file_that_fails_its_axioms(tmp_path, command):
    """Every command that computes on an algebra file certifies its axioms
    first and refuses a file that fails them, as ``check`` does."""
    files = {}
    for kind, obj in (("lie", NOT_LIE), ("assoc", NOT_ASSOC)):
        files[kind] = tmp_path / f"{kind}.json"
        files[kind].write_text(json.dumps(obj), encoding="utf-8")
    args = [a.format(lie=files["lie"], assoc=files["assoc"]) for a in command]
    r = run_cli(*args)
    assert r.returncode == 1
    assert "NOT" in r.stdout
    assert "Traceback" not in r.stderr
    if command[0] != "check":
        rep = json.loads(run_cli("--out", "json", *args).stdout)
        assert rep["results"] == {"certified": False} and rep["status"] == "failed"


ODD_CUBE_F3 = {  # a, c odd, e even, [a, a] = e, [e, a] = c: [a, [a, a]] = -c
    "name": "oddcube", "kind": "lie", "field": {"kind": "Fp", "p": 3},
    "basis": [["a", 1], ["c", 1], ["e", 0]],
    "table": [{"left": "a", "right": "a", "value": [["e", "1"]]},
              {"left": "a", "right": "e", "value": [["c", "-1"]]}],
}


@pytest.mark.parametrize("field, violation", [
    ({"kind": "Fp", "p": 3}, "violation: odd-cube at (0,): defect {1: 2}"),
    ({"kind": "Q"}, "violation: jacobi at (0, 0, 0): defect {1: -3}"),
], ids=["F3", "Q"])
def test_cli_check_refuses_the_odd_cube(tmp_path, field, violation):
    p = tmp_path / "oddcube.json"
    p.write_text(json.dumps({**ODD_CUBE_F3, "field": field}), encoding="utf-8")
    r = run_cli("check", str(p))
    assert r.returncode == 1
    assert r.stdout.splitlines() == ["oddcube: NOT a Lie superalgebra", f"  {violation}"]


def test_cli_homology_valid_module_file(tmp_path):
    # the adjoint module of heis: H0 = heis/[heis, heis] has dimension (2|0)
    p = _heis_module(tmp_path, "ad", [["x", 0], ["y", 0], ["z", 0]], [
        {"p": "x", "m": "y", "value": [["z", "1"]]},
        {"p": "y", "m": "x", "value": [["z", "-1"]]},
    ])
    r = run_cli("--out", "json", "homology", "@heis", "--module", str(p), "-n", "0")
    assert r.returncode == 0
    assert json.loads(r.stdout)["results"]["homology"][0] == [2, 0]


@pytest.mark.parametrize("basis, entries, message", [
    ([["v", 0]], 5, "entries must be a list"),
    ([["v", 0]], [{"p": "z", "m": "v", "value": 5}], "value must be a list"),
    (7, [], "basis must be a list"),
])
def test_cli_homology_malformed_module_containers(tmp_path, basis, entries, message):
    p = _heis_module(tmp_path, "m", basis, entries)
    r = run_cli("homology", "@heis", "--module", str(p), "-n", "1")
    assert r.returncode == 2
    assert message in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("obj, message", [
    ({"name": "a", "field": {"kind": "Q"}, "kind": "lie", "basis": [["x", 0]], "table": {}},
     "table must be a list"),
    ({"name": "a", "field": {"kind": "Q"}, "kind": "lie", "basis": [["x", 0]], "table": [3]},
     "table entry must be an object"),
    ({"name": "a", "field": {"kind": "Q"}, "kind": "lie", "basis": "x", "table": []},
     "basis must be a list"),
])
def test_malformed_algebra_containers_rejected(obj, message):
    with pytest.raises(ParseError, match=message):
        parse_algebra(obj)


def _heis_over(field: dict) -> dict:
    obj = algebra_to_json(lie_algebra("heis"))
    obj["field"] = field
    return obj


def _crossed_with(**fields) -> dict:
    obj = json.loads((DATA / "heis_center_crossed.json").read_text(encoding="utf-8"))
    obj.update(fields)
    return obj


@pytest.mark.parametrize("command, obj, message", [
    (("check",), _heis_over({"kind": "Fp", "p": "abc"}), "field modulus must be an integer"),
    (("check",), _heis_over({"kind": "Fp", "p": 5.9}), "field modulus must be an integer"),
    (("homology", "@heis", "--hopf"), {"name": "g", "generators": 5, "relators": []},
     "generators must be a list"),
    (("homology", "@heis", "--hopf"),
     {"name": "g", "generators": [["x", 0], ["x", 0]], "relators": []},
     "duplicate generator labels"),
    (("homology", "@heis", "--hopf"),
     {"name": "g", "generators": [["x", 0], ["y", 0]], "relators": [{"sum": 5}]},
     "relator sum must be a list"),
    (("homology", "@heis", "--hopf"),
     {"name": "g", "generators": [["x", 0], ["y", 0]],
      "relators": [[{"sum": [{"coeff": "1", "word": ["x", "y"]}]}, "x"]]},
     "a sum may stand only as a relator or as the word of a sum term"),
    (("homology", "@heis", "--hopf"),
     {"name": "g", "generators": [["x", 0], ["y", 0]], "relators": [{"sum": []}]},
     "a sum needs at least one term"),
    (("homology", "@heis", "--hopf"),
     {"name": "g", "generators": [["x", 0], ["y", 0]], "relators": [["x"]]},
     "a bracket word is a label or a pair"),
    (("homology", "@heis", "--nonabelian"), _crossed_with(m=5), "'m' must be an algebra file"),
    (("homology", "@heis", "--nonabelian"),
     _crossed_with(m=str(DATA / "zheis.json"), p=str(DATA / "heis.json"),
                   boundary=[{"from": "z'", "value": [["z", "1"]]}, {"from": "z'", "value": []}]),
     "duplicate boundary entry for z'"),
    (("check",), {**_heis_over({"kind": "Q"}), "basis": [["x", True], ["y", 0], ["z", 0]]},
     "parity must be 0 or 1"),
    (("homology", "@heis", "--hopf"),
     {"name": "g", "generators": [["x", 1.0], ["y", False]], "relators": []},
     "generator must be [label, parity]"),
    (("homology", "@heis", "--hopf"),
     {"name": "g", "generators": [["x", 0]], "relators": [{"sum": [{"coeff": "abc", "word": "x"}]}]},
     "cannot parse scalar 'abc' over Q"),
    (("homology", "@heis", "--hopf"),
     {"name": "g", "generators": [["x", 0]], "relators": [{"sum": [{"coeff": None, "word": "x"}]}]},
     "relator coefficient must be a string or an integer: None"),
    (("check",), {**_heis_over({"kind": "Q"}), "basis": [["x", 0], ["y", 0], ["x", 0]]},
     "duplicate basis labels"),
    (("check",), {"name": "a", "field": {"kind": "Q"}, "kind": "lie", "basis": [[["x"], 0]],
                  "table": []},
     "basis label must be a string: ['x']"),
    (("check",), {**_heis_over({"kind": "Q"}), "name": {"a": 1}},
     "algebra name must be a string: {'a': 1}"),
    (("homology", "@heis", "--hopf"), {"name": "g", "generators": [[["x"], 0]], "relators": []},
     "generator label must be a string: ['x']"),
    (("homology", "@heis", "-m"),
     {"name": ["m"], "algebra": "heis", "basis": [["m0", 0]], "entries": []},
     "module name must be a string: ['m']"),
    (("check",), {**_heis_over({"kind": "Q"}),
                  "table": [{"left": "x", "right": "y", "value": [["z", "1"], ["z", "2"]]}]},
     "value repeats basis label 'z'"),
    (("homology", "@heis", "--hopf"), {"name": {"a": 1}, "generators": [["x", 0]], "relators": []},
     "presentation name must be a string: {'a': 1}"),
    (("homology", "@heis", "--nonabelian"), _crossed_with(m="zheis\x00.json"), "embedded null byte"),
    (("check",), _heis_over({"kind": "Fp", "p": "9" * 5000}),
     "modulus must be below 3317044064679887385961981"),
    (("check",), _heis_over({"kind": "Fp", "p": 3317044064679887385961981}), "modulus must be below"),
    (("check",), _heis_over({"kind": "Fp", "p": str(10 ** 18 + 1)}),
     "modulus 1000000000000000001 is not prime"),
], ids=["modulus-abc", "modulus-5.9", "generators-5", "duplicate-generators", "sum-5",
        "sum-in-bracket", "sum-empty", "word-one-element", "crossed-m-5", "duplicate-boundary",
        "basis-parity-true", "generator-parities-float-false", "coeff-abc", "coeff-none",
        "duplicate-basis-labels", "basis-label-list", "algebra-name-object",
        "generator-label-list", "module-name-list", "value-repeated-label",
        "presentation-name-object", "crossed-m-nul", "modulus-5000-digits", "modulus-at-bound",
        "modulus-1e18+1"])
def test_cli_malformed_input_files_exit2(tmp_path, command, obj, message):
    p = tmp_path / "input.json"
    p.write_text(json.dumps(obj), encoding="utf-8")
    r = run_cli(*command, str(p))
    assert r.returncode == 2
    assert r.stderr.startswith("input error: ") and message in r.stderr
    assert "Traceback" not in r.stderr
    assert r.stdout == ""


def test_cli_accepts_a_large_prime_modulus_in_bounded_time(tmp_path):
    """10^18 + 3 is prime, and the primality test takes bounded time on it."""
    p = tmp_path / "heis.json"
    p.write_text(json.dumps(_heis_over({"kind": "Fp", "p": str(10 ** 18 + 3)})), encoding="utf-8")
    start = time.perf_counter()
    r = run_cli("check", str(p))
    assert r.returncode == 0 and r.stderr == ""
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("labels, command, lines", [
    (["a", "b*c", "a*b", "c"], ("tensor", "F", "F", "--adjoint", "--exterior"),
     ["M (x) N: dim (16|0)", "M (^) M: dim (6|0)"]),
    (["a", "b^c", "a^b", "c"], ("homology", "F", "-n", "3"),
     ["H0: dim (1|0)", "H1: dim (4|0)", "H2: dim (6|0)", "H3: dim (4|0)"]),
], ids=["tensor-labels-with-star", "homology-labels-with-wedge"])
def test_cli_accepts_labels_whose_derived_labels_coincide(tmp_path, labels, command, lines):
    """The tensor label a*b and the wedge label a^b are for display only:
    input labels that make two of them coincide are valid.  The abelian
    algebra on four even labels has M (x) M = (16|0), M (^) M = (6|0) and
    H_n = Lambda^n of dimension 1, 4, 6, 4."""
    p = tmp_path / "labels.json"
    p.write_text(json.dumps({"name": "F", "field": {"kind": "Q"}, "kind": "lie",
                             "basis": [[label, 0] for label in labels], "table": []}),
                 encoding="utf-8")
    r = run_cli(*(str(p) if arg == "F" else arg for arg in command))
    assert r.returncode == 0, r.stderr
    for line in lines:
        assert line in r.stdout


def test_field_modulus_is_a_json_integer_or_digit_string():
    assert parse_field({"kind": "Fp", "p": 7}).p == 7
    assert parse_field({"kind": "Fp", "p": "7"}).p == 7
    for bad in (5.0, True, "7.0", "-7", None, [7]):
        with pytest.raises(ParseError, match="field modulus must be an integer"):
            parse_field({"kind": "Fp", "p": bad})


def test_cli_tensor_exterior_needs_adjoint():
    r = run_cli("tensor", "@heis", "@heis", "--trivial", "--exterior")
    assert r.returncode == 2
    assert "--exterior is supported for the self tensor square" in r.stderr
    assert "Traceback" not in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize("choice", [
    ("--adjoint", "--trivial"),
    ("--trivial", "--act-mn", "missing_mn.json", "--act-nm", "missing_nm.json"),
    ("--adjoint", "--act-mn", "missing_mn.json"),
])
def test_cli_tensor_action_choices_are_exclusive(tmp_path, choice):
    choice = [str(tmp_path / a) if a.endswith(".json") else a for a in choice]
    r = run_cli("tensor", "@heis", "@heis", *choice)
    assert r.returncode == 2
    assert "choose one of --adjoint, --trivial" in r.stderr
    assert "Traceback" not in r.stderr
    assert r.stdout == ""


def test_cli_class_without_hopf_is_input_error():
    """--class bounds the class of --hopf only; without it the bound would
    be ignored."""
    r = run_cli("homology", "@heis", "--class", "9")
    assert r.returncode == 2
    assert r.stderr.startswith("input error: ") and "--class" in r.stderr and "--hopf" in r.stderr
    assert "Traceback" not in r.stderr
    assert r.stdout == ""


def test_cli_corpus_list_takes_no_directory():
    """A directory is the target of export; list would ignore it."""
    r = run_cli("corpus", "list", "/any/dir")
    assert r.returncode == 2
    assert r.stderr.startswith("input error: ") and "corpus list takes no directory" in r.stderr
    assert "Traceback" not in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize("content, message", [
    (b'{"name": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
    (b"[" * 100000, "is not valid JSON"),
], ids=["not-utf8", "nested-too-deep"])
def test_cli_unreadable_json_is_input_error(tmp_path, content, message):
    """A file that is not UTF-8 and JSON nested deeper than the decoder
    recurses are input errors, not tracebacks."""
    p = tmp_path / "input.json"
    p.write_bytes(content)
    r = run_cli("check", str(p))
    assert r.returncode == 2
    assert r.stderr.startswith("input error: ") and message in r.stderr
    assert "Traceback" not in r.stderr
    assert r.stdout == ""
