"""addalg benchmark: one workload per run, closed loop, one client.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Set-up is repeated several times and its median reported as setup_s.  The
timed phase runs whole rounds of the workload's operations until --seconds
have passed, then the outputs are checked against computations made apart
from the program (perfbench/ref.py).  Times are scaled to nominal host speed
(harness.Timer).  The last line of stdout is one JSON
object: correct, attempted, failed and metrics (end-to-end metrics with
--trace 0, per-layer metrics with --trace 1).
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

from harness import NOMINAL_GAUGE_S, SRC, WORK_DIR, Timer, child_env, gauge

# Set-up runs at least SETUP_REPEATS times and, when it is quick, until
# SETUP_MIN_S have gone by (at most SETUP_MAX_REPEATS times), so that the
# median of a 25 ms set-up rests on as many repeats as that of a 300 ms one.
SETUP_REPEATS, SETUP_MIN_S, SETUP_MAX_REPEATS = 5, 1.0, 40


def nearest_rank(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def pin_to_one_cpu():
    """Run this process on one CPU.

    The host gauge (harness.gauge) must run on the CPU that runs the work it
    scales; the host's CPUs slow down independently of each other.
    """
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def fresh_import(names):
    """Import the named addalg modules from scratch, as a new process would."""
    for key in [k for k in sys.modules if k == "addalg" or k.startswith("addalg.")]:
        del sys.modules[key]
    return {name: importlib.import_module(name) for name in names}


WORKLOADS = {"sweep": ("sweep", "Sweep"), "certify": ("certify", "Certify"),
             "lattice": ("lattice", "Lattice"), "cli": ("cliflow", "CliFlow")}


def load_workload(name):
    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    module, cls = WORKLOADS[name]
    return getattr(importlib.import_module(module), cls)()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "addalg" / "__init__.py").is_file():
        print(f"error: no addalg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing

    workload = load_workload(args.workload)
    WORK_DIR.mkdir(exist_ok=True)
    pin_to_one_cpu()
    tracer = tracing.Tracer() if args.trace else None

    setup_times = []
    setup_start = time.perf_counter()
    while not setup_times or (tracer is None and (
            len(setup_times) < SETUP_REPEATS
            or (time.perf_counter() - setup_start < SETUP_MIN_S
                and len(setup_times) < SETUP_MAX_REPEATS))):
        state = None  # let the previous set-up go before building the next
        g = gauge()
        t0 = time.perf_counter()
        mods = fresh_import(workload.modules)
        if tracer is not None:
            tracer.install()
        state = workload.build(mods, args.seed, tracer)
        took = time.perf_counter() - t0
        setup_times.append(took * NOMINAL_GAUGE_S * 2 / (g + gauge()))
    spec_file = Path(sys.modules["addalg"].__file__).resolve()
    if SRC.resolve() not in spec_file.parents:
        print(f"error: addalg imported from {spec_file}, not {SRC}", file=sys.stderr)
        return 2

    timer = Timer()
    first, later = None, []
    snapshot = None
    t_start = time.perf_counter()
    while True:
        timer.start_round()
        rnd = workload.round(state, timer, tracer)
        timer.end_round()
        if first is None:
            first = rnd
            if tracer is not None:
                # per-layer figures cover set-up and one round, so they repeat exactly
                snapshot = tracer.snapshot()
        else:
            # keep counts only, so memory does not grow with the number of rounds
            later.append((rnd.attempted, rnd.failed, rnd.checks, rnd.outputs == first.outputs))
        elapsed = time.perf_counter() - t_start
        if elapsed >= args.seconds:
            break

    problems = workload.verify(state, first)
    for i, (_, _, _, same) in enumerate(later, start=2):
        if not same:
            problems.append(f"round {i} outputs differ from round 1 on the same inputs")
    for err in first.errors:
        print(f"failed: {err}", file=sys.stderr)
    for p in problems:
        print(f"incorrect: {p}", file=sys.stderr)

    attempted = first.attempted + sum(r[0] for r in later)
    failed = first.failed + sum(r[1] for r in later)
    per_call = timer.per_call()
    checks_per_s = first.checks / sum(per_call)
    print(f"{args.workload}: {1 + len(later)} rounds of {len(per_call)} calls in {elapsed:.3f} s; "
          f"{(first.checks + sum(r[2] for r in later)) / elapsed:.4g} checks/s as timed, "
          f"{checks_per_s:.4g} at nominal host speed; host at "
          f"{NOMINAL_GAUGE_S / max(timer.gauges):.2f}-{NOMINAL_GAUGE_S / min(timer.gauges):.2f}x "
          f"nominal", file=sys.stderr)

    if tracer is None:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "checks_per_s": {"value": checks_per_s, "unit": "checks/s"},
            "call_p50_ms": {"value": 1000 * nearest_rank(per_call, 0.5), "unit": "ms"},
            "call_p90_ms": {"value": 1000 * nearest_rank(per_call, 0.9), "unit": "ms"},
            "peak_rss_mib": {"value": rss_kib / 1024, "unit": "MiB"},
        }
    else:
        import_s = tracing.measure_cli_import(sys.executable, child_env())
        print(tracing.self_time_table(snapshot), file=sys.stderr)
        units = {name: unit for name, unit, _ in tracing.per_layer_spec()}
        values = tracing.per_layer_metrics(snapshot, import_s, checks_per_s)
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
