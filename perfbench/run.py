"""Cold-start benchmark of superlie: tensor squares, chain complexes and the CLI.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports ``superlie`` from ``src/``.
It repeats whole rounds of the workload until ``--seconds`` have passed,
every round in fresh processes, and prints one JSON line last:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones (medians over the run); with ``--trace 1``
the run makes one untraced and one traced round and reports the per-layer
metrics.  Times are in reference seconds: every timed process samples the
host's speed while it works and its wall time is rescaled to the host's
uncontended speed (pace.py).  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from inputs import adjoint_action_file, change_basis, shuffle_generators  # noqa: E402
import pace  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("tensor-squares", "complexes", "cli-corpus")
SETUP_SAMPLES = 9      # extra fresh processes per run that only set up
RUN_LIMIT_S = 170      # a run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed operation)."""


# ---------------------------------------------------------------------------
# child processes


class Child:
    def __init__(self, code, out: bytes, err: bytes, spawn_ns: int, wall_s: float, rss_kb: int):
        self.code, self.out, self.err = code, out, err
        self.spawn_ns, self.wall_s, self.rss_kb = spawn_ns, wall_s, rss_kb

    def last_json(self) -> dict:
        lines = self.out.decode().strip().splitlines()
        if self.code != 0 or not lines:
            raise BenchError(f"worker exited {self.code}: {self.err.decode()[-2000:]}")
        return json.loads(lines[-1])


def spawn(argv: list[str], work: Path, deadline: float) -> Child:
    """Run one child to its end; its wall time is measured from spawn to exit
    and its peak RSS comes from the kernel's rusage of that child."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_path, err_path = work / "child.out", work / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        spawn_ns = time.monotonic_ns()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                cwd=ROOT, env=env)

        def on_alarm(signum, frame):
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        old = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, max(deadline - time.monotonic(), 0.01))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        wall_s = (time.monotonic_ns() - spawn_ns) / 1e9
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode < 0:
        raise BenchError(f"{argv[1:4]} was killed (signal {-proc.returncode}); over the time limit")
    return Child(proc.returncode, out_path.read_bytes(), err_path.read_bytes(),
                 spawn_ns, wall_s, usage.ru_maxrss)


# ---------------------------------------------------------------------------
# tensor-squares and complexes: one worker process per round


def worker_setup_s(child: Child, got: dict) -> float:
    """Spawn to ready, at reference speed (see pace.py)."""
    wall_s = (got["ready_ns"] - child.spawn_ns) / 1e9
    return (wall_s - got["setup_spent_s"]) * got["setup_speed"]


def library_setup(args, work: Path, deadline: float) -> float:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    child = spawn(argv, work, deadline)
    return worker_setup_s(child, child.last_json())


def library_round(args, work: Path, deadline: float, traced: bool, round_: int) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--round", str(round_)]
    if traced:
        argv += ["--spans", str(work / "round.spans")]
    child = spawn(argv, work, deadline)
    got = child.last_json()
    sys.stderr.write(child.err.decode())
    return {
        "setup_s": worker_setup_s(child, got),
        "wall_s": got["wall_s"], "raw_wall_s": got["raw_wall_s"],
        "peak_rss_mb": got["peak_rss_kb"] / 1024,
        "attempted": got["attempted"], "failed": got["failed"], "correct": got["correct"],
        "results": got["results"],
        "spans": [spans.load(str(work / "round.spans"))] if traced else [],
    }


# ---------------------------------------------------------------------------
# cli-corpus: the verify suites and the README examples, one process each

SUITES = ("tensor-props", "nil-bounds", "uce", "d3-lemma", "hopf", "snake",
          "cyclic-sixterm", "final-sixterm", "miller", "cyclic-crosspath")


def seeded_corpus(work: Path, seed: int) -> dict[str, str]:
    """Seeded copies of the corpus files the README examples read."""
    rng = random.Random(seed)
    data = SRC / "superlie" / "data"
    files = {}
    for name in ("heis", "sl21", "m11"):
        obj = change_basis(json.loads((data / f"{name}.json").read_text()), rng)
        files[name] = obj
    files["heis_adjoint"] = adjoint_action_file(files["heis"])
    pres = json.loads((data / "heis_pres.json").read_text())
    pres["generators"] = shuffle_generators(pres["generators"], rng)
    files["heis_pres"] = pres
    paths = {}
    for name, obj in files.items():
        path = work / f"{name}.json"
        path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
        paths[name] = str(path.relative_to(ROOT))
    return paths


def hc_of_ground_field(n: int) -> list[int]:
    """HC_n of the ground field: K in even degrees, 0 in odd ones."""
    return [1, 0] if n % 2 == 0 else [0, 0]


def cli_commands(f: dict[str, str]) -> list[tuple[str, list[str], object]]:
    """(slug, arguments, check) for one round.  A check takes the exit code,
    the parsed JSON report and the stderr text and returns None when the
    result is right, otherwise a description of what is wrong; the string
    "fault" marks a command that must exit 2 with a message."""

    def ok_status(code, rep, err):
        return None if code == 0 and rep.get("status") == "ok" else f"exit {code}"

    def expect(**want):
        def check(code, rep, err):
            if code != 0:
                return f"exit {code}"
            res = rep["results"]
            for key, value in want.items():
                if res.get(key) != value:
                    return f"{key} = {res.get(key)}, expected {value}"
            return None
        return check

    def verify_rows(code, rep, err):
        rows = rep["results"]["rows"]
        bad = [r["name"] for r in rows if not r["ok"]]
        if code != 0 or bad or not rows:
            return f"exit {code}, failing rows {bad}"
        return None

    cmds = [(f"verify-{s}", ["verify", s], verify_rows) for s in SUITES]
    heis, sl21, m11 = f["heis"], f["sl21"], f["m11"]
    cmds += [
        ("check-heis", ["check", heis], expect(certified=True)),
        ("check-m11", ["check", m11], expect(certified=True)),
        # sl(2|1) is perfect with H2 = 0, so its UCE is itself: dim (4|4)
        ("tensor-sl21", ["tensor", sl21, sl21, "--adjoint", "--uce", "--exterior"],
         expect(uce_kernel=[0, 0], dim=[4, 4])),
        ("tensor-heis-actions", ["tensor", heis, heis, "--act-mn", f["heis_adjoint"],
                                 "--act-nm", f["heis_adjoint"]], ok_status),
        # Betti numbers of the Heisenberg algebra: 1, 2, 2
        ("homology-heis", ["homology", heis, "-n", "2"],
         expect(homology=[[1, 0], [2, 0], [2, 0]])),
        ("homology-heis-hopf", ["homology", heis, "--hopf", f["heis_pres"], "--class", "2"],
         expect(hopf={"formula": [2, 0], "chain": [2, 0], "agree": True})),
        # perfect, with H2 = 0: nh0 = P/[P,P] = 0 and nh1 = H2 = 0
        ("homology-sl21-nonabelian", ["homology", sl21, "--nonabelian", "identity"],
         expect(nh0=[0, 0], nh1=[0, 0])),
        # Morita invariance: HC(M(1|1, K)) = HC(K)
        ("cyclic-m11-sixterm", ["cyclic", m11, "--sixterm"],
         expect(HC0=hc_of_ground_field(0), HC1=hc_of_ground_field(1), sixterm_ok=True)),
        ("homology-heis-repeat", ["homology", heis, "-n", "2"], "same-as:homology-heis"),
        # known faults, on the bundled files: both should exit 2 with a message
        ("fault-negative-degree", ["homology", "@heis", "-n", "-1"], "fault"),
        ("fault-hopf-class-9", ["homology", "@heis", "--hopf", "@heis_pres", "--class", "9"],
         "fault"),
    ]
    return cmds


def cli_child(work: Path, deadline: float, mode: str, cli_args=(), span_path=None,
              run_id: int = 0) -> tuple[Child, float]:
    """One ``cli_child.py`` process; returns it and its spawn-to-exit time
    at reference speed."""
    pace_path = work / "child.pace"
    argv = [sys.executable, str(HERE / "cli_child.py"), str(pace_path),
            str(span_path or "-"), str(run_id), mode, *cli_args]
    child = spawn(argv, work, deadline)
    if not pace_path.is_file():
        raise BenchError(f"{cli_args[:2]} wrote no pacer samples: {child.err.decode()[-2000:]}")
    state = json.loads(pace_path.read_text())
    pace_path.unlink()
    return child, pace.process_reference_seconds(child.wall_s, state)


def cli_setup(work: Path, deadline: float) -> float:
    child, ref_s = cli_child(work, deadline, "import")
    if child.code != 0:
        raise BenchError(f"import superlie.cli failed: {child.err.decode()[-2000:]}")
    return ref_s


def cli_round(files: dict, work: Path, deadline: float, traced: bool) -> dict:
    cmds = cli_commands(files)
    failed, problems, outputs, walls, rss, span_files, slug_s, startup = 0, [], {}, [], [], [], {}, []
    raw_walls = []
    for run_id, (slug, cli_args, check) in enumerate(cmds):
        span_path = work / f"cli-{run_id}.spans"
        child, ref_s = cli_child(work, deadline, "run", ["--out", "json", *cli_args],
                                 span_path if traced else None, run_id)
        walls.append(ref_s)
        raw_walls.append(child.wall_s)
        rss.append(child.rss_kb)
        outputs[slug] = child.out
        if traced:
            if not span_path.is_file():
                raise BenchError(f"{slug} wrote no spans: {child.err.decode()[-2000:]}")
            data = spans.load(str(span_path))
            span_path.unlink()
            span_files.append(data)
            slug_s[slug] = spans.cli_main_seconds(data)
            startup.append(data["extra"]["startup_s"])
        err = child.err.decode()
        if check == "fault":
            if not (child.code == 2 and err.strip()):
                failed += 1  # known fault: counted as failed, the result stays correct
            continue
        if isinstance(check, str):  # byte-identical to an earlier report
            if child.out != outputs[check.split(":", 1)[1]] or child.code != 0:
                failed += 1
                problems.append(f"{slug}: report differs from {check}")
            continue
        try:
            rep = json.loads(child.out)
        except json.JSONDecodeError:
            rep = {}
        what = check(child.code, rep, err) if rep else f"exit {child.code}, no report"
        if what:
            failed += 1
            problems.append(f"{slug}: {what} {err[-500:]}")
    for text in problems:
        print(text, file=sys.stderr)
    return {
        "wall_s": sum(walls), "raw_wall_s": sum(raw_walls), "peak_rss_mb": max(rss) / 1024,
        "attempted": len(cmds), "failed": failed, "correct": not problems,
        "results": {k: v.decode() for k, v in outputs.items()},
        "spans": span_files, "cli_s": slug_s, "startup_s": startup,
    }


# ---------------------------------------------------------------------------


def per_layer(untraced: dict, traced: dict) -> dict:
    out = spans.derive(traced["spans"])
    slugs = [slug for slug, _, _ in cli_commands(defaultdict(str))]
    for slug in slugs:
        out[f"cli.{slug}.s"] = traced.get("cli_s", {}).get(slug, 0.0)
    out["cli.startup_s"] = statistics.median(traced["startup_s"]) if "startup_s" in traced else 0.0
    out["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    out["host.raw_wall_s"] = untraced["raw_wall_s"]
    out["host.slowdown"] = untraced["raw_wall_s"] / untraced["wall_s"]
    return out


def metric_units(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "ratio" if name.endswith(("ratio", "slowdown")) else "count"


def run(args) -> dict:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / ".work"))
    try:
        cli = args.workload == "cli-corpus"
        files = seeded_corpus(work, args.seed) if cli else None

        def one_round(traced: bool, round_: int) -> dict:
            if cli:
                return cli_round(files, work, deadline, traced)
            return library_round(args, work, deadline, traced, round_)

        if args.trace:
            plain, traced = one_round(False, 0), one_round(True, 0)
            rounds = [plain, traced]
            if traced["results"] != plain["results"]:
                rounds[1]["correct"] = False
                print("traced results differ from untraced results", file=sys.stderr)
            metrics = per_layer(plain, traced)
        else:
            setups = [cli_setup(work, deadline) if cli else library_setup(args, work, deadline)
                      for _ in range(SETUP_SAMPLES)]
            rounds = []
            while not rounds or time.monotonic() - start < args.seconds:
                rounds.append(one_round(False, len(rounds)))
            setups += [r["setup_s"] for r in rounds if "setup_s" in r]
            metrics = {
                "setup_s": statistics.median(setups),
                "wall_s": statistics.median(r["wall_s"] for r in rounds),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
            }
            print(f"{len(rounds)} round(s); wall time as measured, median "
                  f"{statistics.median(r['raw_wall_s'] for r in rounds):.3f} s", file=sys.stderr)
            if any(r["results"] != rounds[0]["results"] for r in rounds):
                rounds[0]["correct"] = False
                print("rounds of one run disagree", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": v, "unit": metric_units(k)} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "superlie" / "__init__.py").is_file():
        print(f"no superlie sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
