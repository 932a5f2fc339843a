"""The ``--out json`` reports of the README commands and of every
verification suite, compared byte for byte with a recorded copy.

Reports must stay byte-identical across refactors of the computation
layer.  The only machine-dependent part of a report is the absolute path
of each bundled input file, which is rewritten relative to the package
directory before comparing.  After an intended change of a report,
rewrite the recorded copy with ``PYTHONPATH=src python tests/test_cli_reports.py``.
"""

import json
from pathlib import Path

import pytest

import superlie
from oracles import run_cli
from superlie.io import dumps_canonical
from superlie.suites import SUITES

RECORDED = Path(__file__).parent / "data" / "cli_reports.json"

README_COMMANDS = (
    "check @heis",
    "check @m11",
    "tensor @sl21 @sl21 --adjoint --uce --exterior",
    "tensor @heis @heis --act-mn @heis_adjoint --act-nm @heis_adjoint",
    "homology @heis -n 2",
    "homology @heis --hopf @heis_pres --class 2",
    "homology @sl21 --nonabelian identity",
    "cyclic @m11 --sixterm",
)
COMMANDS = README_COMMANDS + tuple(f"verify {s}" for s in sorted(SUITES))


def run_report(command: str) -> dict:
    """Exit code and canonical JSON report of one in-process CLI run."""
    code, raw, _ = run_cli("--out", "json", *command.split())
    data = json.loads(raw)
    assert dumps_canonical(data) == raw, "report is not in canonical form"
    pkg = Path(superlie.__file__).parent
    data["inputs"] = {Path(k).relative_to(pkg).as_posix(): v
                      for k, v in data["inputs"].items()}
    return {"exit": code, "report": dumps_canonical(data)}


@pytest.mark.parametrize("command", COMMANDS)
def test_report_matches_recorded(command):
    recorded = json.loads(RECORDED.read_text(encoding="utf-8"))
    assert run_report(command) == recorded[command]


if __name__ == "__main__":
    RECORDED.parent.mkdir(exist_ok=True)
    RECORDED.write_text(
        json.dumps({c: run_report(c) for c in COMMANDS}, indent=1) + "\n", encoding="utf-8")
