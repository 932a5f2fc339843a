"""One round of a library workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload tensor-squares --seed 1 --round 0 [--setup-only] [--spans FILE]

The worker imports ``superlie`` from ``src/`` of the checkout, builds its
seeded inputs, stamps the monotonic clock (the parent takes set-up time as
that stamp minus its own stamp at spawn), runs the workload's computations,
and only then checks the results against values computed apart from the
program.  With ``--spans`` the computations run under the tracer and the
spans are written to FILE.  A pacer (pace.py) samples the host's speed from
the start of the process to the end of the computations, so set-up and
wall time are also reported in reference seconds.  The last line of standard output is one JSON
object.  Each round starts cold: the tensor memos and the corpus cache of
the package live in this process only.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


# ---------------------------------------------------------------------------
# expected values, from the mathematics rather than from the program


def moebius(n: int) -> int:
    out, k = 1, 2
    while k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            out = -out
        k += 1
    return -out if n > 1 else out


def witt_dimension(r: int, n: int) -> int:
    """Dimension of the degree-n part of the free Lie algebra on r even
    generators: (1/n) sum_{d | n} mu(d) r^(n/d) (Witt's necklace count)."""
    return sum(moebius(d) * r ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


def gl_betti(m: int, top: int) -> list[int]:
    """Betti numbers of gl(m): H*(gl(m)) is an exterior algebra on classes of
    degrees 1, 3, ..., 2m-1.  By Fuks, H*(gl(m|n)) = H*(gl(m)) for m >= n."""
    poly = [1]
    for i in range(1, m + 1):
        shifted = [0] * (2 * i - 1) + poly
        poly = [a + b for a, b in zip(poly + [0] * len(shifted), shifted + [0] * len(poly))]
    return (poly + [0] * (top + 1))[: top + 1]


# The UCE kernel of sl(m|n, A) is H2(sl(m|n, A)) = HC1(A) (Kassel-Loday); for
# the rank-one Grassmann algebra HC1 is one-dimensional and even.
UCE_KERNEL_SL21_LAMBDA1 = (1, 0)


# ---------------------------------------------------------------------------
# inputs


def reseeded(S, alg, rng: random.Random):
    """The algebra rewritten in a seeded permuted, rescaled basis, handed to
    the program through its own file parser."""
    from inputs import change_basis

    return S.io.parse_algebra(change_basis(S.io.algebra_to_json(alg), rng))


def build_inputs(S, workload: str, seed: int, round_: int) -> dict:
    """Round r of a run with seed s gets its own change of basis, made from
    the string "s:r", so a run's median spans several bases."""
    rng = random.Random(f"{seed}:{round_}")
    Q, F5 = S.Field(), S.Field(5)
    lam = reseeded(S, S.grassmann_line(Q), rng)
    if workload == "tensor-squares":
        return {
            "lam": lam,
            "sl": reseeded(S, S.matrix_sl(2, 1, S.grassmann_line(Q)).algebra, rng),
            "gl": reseeded(S, S.matrix_gl(2, 2, S.ground_assoc(F5)), rng),
        }
    from inputs import shuffle_generators

    gens = shuffle_generators([("a", 0), ("b", 0), ("c", 0), ("d", 0)], rng)
    return {
        "lam": lam,
        "gl": reseeded(S, S.matrix_gl(2, 2, S.ground_assoc(Q)), rng),
        "m11": reseeded(S, S.matrix_assoc(1, 1, S.grassmann_line(Q)), rng),
        "pres": S.Presentation(S.genset(gens), ()),
    }


# ---------------------------------------------------------------------------
# the computations; each operation returns the invariants the user reads


def tensor_squares_ops(S, x: dict) -> list:
    def uce():
        return {"uce_kernel": S.uce(x["sl"]).kernel_dims}

    def square():
        t = S.adjoint_tensor_square(x["gl"])
        return {"dim": t.algebra.space.dim_pair, "im_nu": t.im_nu.dim}

    def exterior():
        return {"dim": S.exterior_square(x["gl"]).algebra.space.dim_pair}

    return [("uce", uce), ("square", square), ("exterior", exterior)]


def complexes_ops(S, x: dict) -> list:
    def homology():
        gl = x["gl"]
        cx = S.ce_complex(gl, S.trivial_module(gl), 5)
        return {"H": [S.homology(gl, None, n, complex_=cx).dims for n in range(5)]}

    def cyclic():
        cx = S.connes(x["m11"], 3)
        return {"HC": [S.hc(x["m11"], n, cx).dims for n in range(3)]}

    def hopf():
        return {"H2": S.hopf_formula(x["pres"], 4).dims}

    return [("homology", homology), ("cyclic", cyclic), ("hopf", hopf)]


# ---------------------------------------------------------------------------
# checks, run after the timed part


def check_inputs(S, x: dict) -> list[str]:
    bad = []
    for key, alg in x.items():
        if isinstance(alg, S.LieSuperAlgebra):
            ok = S.check_lie_axioms(alg).ok
        elif isinstance(alg, S.AssocSuperAlgebra):
            ok = S.check_assoc_axioms(alg).ok
        else:
            continue
        if not ok:
            bad.append(f"seeded input {key} fails its axioms")
    return bad


def expected(S, workload: str, x: dict) -> dict:
    """For each operation, (what, value read from its result, expected value).
    Program routines used here share no code with the routine under test
    (Chevalley-Eilenberg homology against the tensor product, the HC1 kernel
    model against the UCE, the Connes complex of Lambda1 against that of
    M(1|1, Lambda1))."""
    if workload == "tensor-squares":
        sl22 = (2 + 2) ** 2 - 1  # [gl(2|2), gl(2|2)] = sl(2|2), kernel of the supertrace
        kernel = lambda r: tuple(r["uce_kernel"])  # noqa: E731
        return {
            "uce": [("UCE kernel", kernel, UCE_KERNEL_SL21_LAMBDA1),
                    ("UCE kernel = CE H2", kernel, S.homology(x["sl"], None, 2).dims),
                    ("UCE kernel = HC1(Lambda1)", kernel, S.hc1_kernel_model(x["lam"]).dims)],
            "square": [("dim Im nu = dim sl(2|2)", lambda r: r["im_nu"], sl22)],
            "exterior": [("dim P^P = dim [P,P] + dim H2", lambda r: sum(r["dim"]),
                          sl22 + S.homology(x["gl"], None, 2).dim)],
        }
    cx = S.connes(x["lam"], 3)
    return {
        "homology": [("dim H_k(gl(2|2))", lambda r: [sum(d) for d in r["H"]], gl_betti(2, 4))],
        "cyclic": [("HC_n(M(1|1, L1)) = HC_n(L1)", lambda r: [tuple(d) for d in r["HC"]],
                    [S.hc(x["lam"], n, cx).dims for n in range(3)])],
        "hopf": [("Hopf H2 = Witt count", lambda r: tuple(r["H2"]), (witt_dimension(4, 5), 0))],
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    from pace import Pacer, speed

    pacer = Pacer().start()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("tensor-squares", "complexes"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="trace the computations and write spans here")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import superlie as S
    import superlie.io  # noqa: F401  (the file parser the inputs go through)

    if Path(S.__file__).resolve().parent != SRC / "superlie":
        print(f"superlie imported from {S.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    x = build_inputs(S, args.workload, args.seed, args.round)
    ready_ns = time.monotonic_ns()
    ready = pacer.mark()
    # the parent converts spawn-to-ready time with this share of its pass time
    setup = {"ready_ns": ready_ns, "setup_spent_s": ready[1],
             "setup_speed": speed(pacer.passes[: ready[0] + 1])}
    if args.setup_only:
        pacer.stop()
        print(json.dumps(setup))
        return 0

    ops = (tensor_squares_ops if args.workload == "tensor-squares" else complexes_ops)(S, x)
    tracer = None
    if args.spans:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    results, errors = {}, {}
    begin = pacer.mark()
    t0 = time.perf_counter()
    for run_id, (name, op) in enumerate(ops):
        if tracer:
            tracer.run_id = run_id
        try:
            results[name] = op()
        except Exception:  # an operation that raises is a failed operation
            errors[name] = traceback.format_exc(limit=3)
    wall_s = time.perf_counter() - t0
    end = pacer.mark()
    pacer.stop()
    ref_wall_s = pacer.reference_seconds(wall_s, begin, end)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.uninstall()
        tracer.dump(args.spans)

    problems = check_inputs(S, x)
    failed = len(errors)
    want = expected(S, args.workload, x)
    for name, result in results.items():
        for what, read, value in want[name]:
            got = read(result)
            if got != value:
                problems.append(f"{name}: {what}: got {got}, expected {value}")
                failed += 1
                break
    for name, text in errors.items():
        print(f"{name} raised:\n{text}", file=sys.stderr)
    for text in problems:
        print(text, file=sys.stderr)
    print(json.dumps({
        **setup, "raw_wall_s": wall_s, "wall_s": ref_wall_s, "peak_rss_kb": peak_rss_kb,
        "attempted": len(ops), "failed": failed, "correct": not problems,
        "results": results,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
