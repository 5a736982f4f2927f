"""Benchmark pairs: a parent commit and a change, each run through its own perfbench.

Usage (from anywhere inside the repository):
    python3 tests/benchpair.py PARENT CHANGE --workload W --pairs N --seconds S --seed K

Both commits are exported with `git archive` to a temporary directory, and
each runs its own `perfbench/run.py --workload W --seed K --seconds S
--trace 0` there.  Pair i runs the parent first when i is even and the
change first when it is odd.

The report goes to BENCH_<short sha of CHANGE>.json at the root of the
repository (or in --out DIR), under the workload's name with the
parent's sha; a file that already holds other workloads keeps them.  It
records every run's report and, for each end-to-end metric of the
change's BENCHMARK.json, which is only read:
  - each side's quartiles;
  - the change's wins out of N pairs, ties counting for neither side;
  - the gain of the change's median over the parent's, signed so that a
    positive gain is better, against the parent's interquartile range;
  - whether the change's median stays within the metric's bound.
A gain is shown when the change wins at least nine pairs in ten and its
median gain exceeds the parent's interquartile range.

It takes minutes, so neither the tier-1 suite nor CI runs it;
tests/test_benchpair.py checks the statistics on fixed numbers.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quartiles(values) -> list[float]:
    """[q1, median, q3] of the values, by the inclusive method; one value is all three."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(parent, change, better: str, bound: float) -> dict:
    """The pair statistics of one metric, from its values in run order, pair by pair."""
    sign = 1 if better == "higher" else -1
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gain = sign * (cm - pm)
    limit = pm * (1 + bound) if better == "lower" else pm * (1 - bound)
    return {
        "better": better,
        "parent_quartiles": [p1, pm, p3],
        "change_quartiles": [c1, cm, c3],
        "wins": wins,
        "pairs": len(parent),
        "median_gain": gain,
        "parent_iqr": p3 - p1,
        "gain_exceeds_parent_iqr": gain > p3 - p1,
        "gain_shown": 10 * wins >= 9 * len(parent) and gain > p3 - p1,
        "bound": bound,
        "bound_holds": cm <= limit if better == "lower" else cm >= limit,
    }


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(sha: str, dest: Path) -> Path:
    """The tree of commit sha, written under dest by git archive."""
    data = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT, check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON report, the last stdout line, of one perfbench run in the checkout root."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} in {root} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, default=ROOT)
    args = ap.parse_args(argv)
    shas = {side: _git("rev-parse", "--verify", f"{rev}^{{commit}}")
            for side, rev in (("parent", args.parent), ("change", args.change))}
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="benchpair-") as tmp:
        roots = {side: export(sha, Path(tmp) / side) for side, sha in shas.items()}
        spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
        for i in range(args.pairs):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                report = run_side(roots[side], args.workload, args.seed, args.seconds)
                runs[side].append(report)
                print(f"pair {i + 1} {side}: " + ", ".join(
                    f"{k} {v['value']:.4g}" for k, v in report["metrics"].items()),
                    file=sys.stderr, flush=True)
    metrics = {m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in runs["parent"]],
                                    [r["metrics"][m["name"]]["value"] for r in runs["change"]],
                                    m["better"], m["bound"])
               for m in spec["end_to_end"]}
    path = args.out / f"BENCH_{_git('rev-parse', '--short', shas['change'])}.json"
    bench = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
    bench["change"] = shas["change"]
    bench["workloads"][args.workload] = {
        "parent": shas["parent"], "seed": args.seed, "seconds": args.seconds,
        "pairs": args.pairs,
        "all_correct": all(r["correct"] for rs in runs.values() for r in rs),
        "metrics": metrics, "runs": runs}
    path.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
