"""Pieces shared by the workloads: paths, call timing and round accounting."""

from __future__ import annotations

import os
import random
import statistics
import time
from fractions import Fraction
from pathlib import Path

import ref

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"


# The reference computation that gauges the host's momentary speed: one
# exact elimination of a fixed 10 x 10 rational matrix, done apart from addalg.
_GAUGE = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(10)]
          for rng in [random.Random(20150409)] for _ in range(10)]
# Its duration on an unloaded 2.0 GHz Xeon host, the speed times are scaled to.
NOMINAL_GAUGE_S = 0.0032


def gauge():
    """Seconds the reference computation takes now (fastest of three)."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        ref.rank(_GAUGE)
        best = min(best, time.perf_counter() - t0)
    return best


class Timer:
    """Durations of top-level calls into the program, scaled to nominal host speed.

    The host this was built on slows a process by up to 2x for stretches of
    seconds to a minute, in CPU time as much as in wall time.  So the
    reference computation is timed at the start of every round and again
    whenever GAUGE_EVERY_S has passed since, and the durations of the calls
    in between are scaled by NOMINAL_GAUGE_S over the mean of the two gauges.
    Every round makes the same calls in the same order; per_call() gives each
    call's median scaled duration over the rounds.
    """

    GAUGE_EVERY_S = 0.2

    def __init__(self):
        self.rounds = []
        self.gauges = []

    def start_round(self):
        self._current = []
        self._open = []
        self._gauge, self._since = gauge(), time.perf_counter()

    def _settle(self):
        g = gauge()
        scale = 2 * NOMINAL_GAUGE_S / (self._gauge + g)
        for i in self._open:
            self._current[i] *= scale
        self.gauges.append(g)
        self._open = []
        self._gauge, self._since = g, time.perf_counter()

    def call(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._current.append(time.perf_counter() - t0)
            self._open.append(len(self._current) - 1)
            if time.perf_counter() - self._since >= self.GAUGE_EVERY_S:
                self._settle()

    def end_round(self):
        if self._open:
            self._settle()
        self.rounds.append(self._current)

    def per_call(self):
        return [statistics.median(col) for col in zip(*self.rounds)]


class Round:
    """Outcome of one whole round of a workload's operations."""

    def __init__(self):
        self.checks = 0
        self.attempted = 0
        self.failed = 0
        self.outputs = []  # plain-data digests, compared across rounds
        self.errors = []

    def fail(self, what, exc, ops=1):
        self.attempted += ops
        self.failed += ops
        self.outputs.append((what, "failed"))
        self.errors.append(f"{what}: {type(exc).__name__}: {exc}")


def child_env():
    """Environment for addalg processes: the checkout's sources come first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
