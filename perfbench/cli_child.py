"""Run one ``superlie`` command, or only import the command line, while
sampling the host's speed.

    python3 perfbench/cli_child.py PACEFILE SPANFILE|- RUN_ID import|run [superlie arguments...]

With ``run`` the exit code and output are those of ``python -m superlie.cli``
with the same arguments; with ``import`` the process imports
``superlie.cli`` and exits.  The pacer's samples are written to PACEFILE
(see pace.py).  With a SPANFILE the command runs under the span tracer and
the spans, and the time the bare ``import superlie.cli`` took, are written
there.
"""

import sys
import time

from pace import Pacer

pacer = Pacer().start()
t0 = time.perf_counter()
import superlie.cli  # noqa: E402

startup_s = time.perf_counter() - t0


def main() -> int:
    pace_path, span_path, run_id, mode, argv = (
        sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4], sys.argv[5:])
    code = 0
    try:
        if mode == "run" and span_path == "-":
            code = superlie.cli.main(argv)
        elif mode == "run":
            from spans import Tracer

            tracer = Tracer()
            tracer.run_id = run_id
            tracer.install()
            try:
                code = superlie.cli.main(argv)
            finally:
                tracer.uninstall()
                tracer.dump(span_path, extra={"startup_s": startup_s})
    finally:
        pacer.stop()
        pacer.dump(pace_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
