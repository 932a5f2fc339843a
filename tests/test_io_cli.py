import json
import subprocess
import sys
from pathlib import Path

import pytest

from superlie.algebras import AssocSuperAlgebra, LieSuperAlgebra, check_lie_axioms
from superlie.corpus import ASSOC_NAMES, LIE_NAMES, assoc_algebra, lie_algebra, write_bundle
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
from superlie.actions import adjoint_action, check_crossed


DATA = Path(__file__).parent.parent / "src" / "superlie" / "data"


def run_cli(*args):
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
    alg = lie_algebra("heis", 5)
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


def test_bundle_matches_generated(tmp_path):
    """The checked-in data files regenerate byte for byte (determinism and
    round-trip of every emitted algebra)."""
    files = write_bundle(tmp_path)
    for name in files:
        fresh = (tmp_path / name).read_text(encoding="utf-8")
        bundled = (DATA / name).read_text(encoding="utf-8")
        assert fresh == bundled, f"{name} drifted from the bundled corpus"


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
    r = run_cli("check", "@heis")
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


def test_cli_check_tampered(tmp_path):
    obj = algebra_to_json(lie_algebra("gl11"))
    for entry in obj["table"]:
        if entry["value"]:
            entry["value"][0][1] = "5"
            break
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(obj), encoding="utf-8")
    r = run_cli("check", str(p))
    assert r.returncode == 1
    assert "violation" in r.stdout


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
    for args in (["check", "@sl21"], ["homology", "@heis", "-n", "2"],
                 ["cyclic", "@grassmann"], ["--out", "json", "check", "@heis"]):
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.stdout == b.stdout
        assert a.returncode == b.returncode


def test_cli_json_output_parses():
    r = run_cli("--out", "json", "homology", "@heis", "-n", "2")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["results"]["homology"] == [[1, 0], [2, 0], [2, 0]]
    assert data["status"] == "ok"


def test_cli_verify_suite():
    r = run_cli("verify", "d3-lemma")
    assert r.returncode == 0
    assert r.stdout.count("[pass]") == 4


def test_cli_corpus_export(tmp_path):
    r = run_cli("corpus", "export", str(tmp_path / "out"))
    assert r.returncode == 0
    assert (tmp_path / "out" / "heis.json").exists()


def test_cli_field_mismatch_rejected(tmp_path):
    obj = algebra_to_json(lie_algebra("heis", 5))
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
    r = run_cli("homology", "@heis", "-n", "-1")
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
