"""Host-speed sampling for the timed processes of the benchmark.

The benchmark runs on a shared host whose speed changes from second to
second with a neighbour's load: the same computation takes up to 1.8 times
longer from one minute to the next, and a process's CPU time follows its
wall time, so no clock of its own removes that.  A :class:`Pacer` measures
the host's speed inside the timed process, at the same moments as the work:
every ``INTERVAL_S`` of wall time a ``SIGALRM`` handler runs one fixed
calibration pass and records how long it took.  Samples are therefore
spread evenly over the process's wall time, slow phases and fast ones in
their proportion.

A time is reported in reference seconds: the wall time minus the time spent
in the handler, multiplied by ``REF_PASS_S`` times the mean of 1/pass over
the samples, which is the share of the interval's work a pass at reference
speed would have done.  On an uncontended host a pass takes about
``REF_PASS_S`` and a reference second is a second.

The pass is the benchmark's own code and calls nothing of ``superlie``, so
a change to the program never changes it.  It imitates what the program's
hot loops do: it allocates small dicts, does Fraction arithmetic and takes
sparse dot products reduced mod p.  Of the passes tried on this host, this
mix followed the slowdown of both the library computations and the
command-line processes best (README.md).  It runs with the garbage
collector switched off, so a collection the program's garbage makes due is
not charged to the pass.
"""

from __future__ import annotations

import gc
import json
import signal
import time
from array import array
from fractions import Fraction

INTERVAL_S = 0.05
REF_PASS_S = 0.0006

_P = 10007


def calibration_pass() -> int:
    """About 0.6 ms on an uncontended host: builds 100 small
    dicts of Fractions and of residues mod p, and takes dot products of
    consecutive residue rows."""
    acc, prev, kept = 0, {}, []
    for i in range(100):
        kept.append({(7 * i + j) % 23: Fraction(i + j, 3) for j in range(4)})
        row = {(5 * i + j) % 23: (i * j + 1) % _P for j in range(6)}
        for k, c in row.items():
            d = prev.get(k)
            if d:
                acc += c * d % _P
        prev = row
    return acc + len(kept)


class Pacer:
    """Samples the host's speed in this process while it is started.

    ``passes`` holds the duration of every pass, ``spent_s`` the time all
    passes took together; :meth:`mark` notes both, so that an interval
    between two marks can be converted by :meth:`reference_seconds`."""

    def __init__(self):
        self.passes = array("d")
        self.spent_s = 0.0
        self._old = None

    def sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        was_on = gc.isenabled()
        gc.disable()
        try:
            calibration_pass()
            t1 = time.perf_counter()
        finally:
            if was_on:
                gc.enable()
        self.passes.append(t1 - t0)
        self.spent_s += time.perf_counter() - t0

    def start(self) -> "Pacer":
        """One pass now, then one every INTERVAL_S of wall time.  A fresh
        process's first pass runs cold, about a fifth slower than the next
        ones, so it is timed into ``spent_s`` but not sampled."""
        self._old = signal.signal(signal.SIGALRM, self.sample)
        t0 = time.perf_counter()
        calibration_pass()
        self.spent_s += time.perf_counter() - t0
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        """Stop sampling and take one last pass."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.sample()

    def mark(self) -> tuple[int, float]:
        return len(self.passes), self.spent_s

    def reference_seconds(self, wall_s: float, begin, end) -> float:
        """Wall time ``wall_s`` of the interval between the marks ``begin``
        and ``end``, with the passes in it taken out, at reference speed.
        The speed comes from the passes in the interval and the one on each
        side of it."""
        (n0, spent0), (n1, spent1) = begin, end
        return (wall_s - (spent1 - spent0)) * speed(self.passes[max(n0 - 1, 0):n1 + 1])

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"passes": list(self.passes), "spent_s": self.spent_s}, f)


def speed(passes) -> float:
    """Work done per second, in reference seconds: REF_PASS_S times the
    mean of 1/pass."""
    return REF_PASS_S * sum(1 / t for t in passes) / len(passes)


def process_reference_seconds(wall_s: float, state: dict) -> float:
    """Reference seconds of a whole process that dumped ``state`` at its end."""
    return (wall_s - state["spent_s"]) * speed(state["passes"])
