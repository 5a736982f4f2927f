"""The CI checks that need no network, in one script with only the standard library.

Usage (from anywhere; the paths are read off this file):
    python3 tests/ci_local.py PYTHON [PYTHON ...]

The checkout it sits in decides what it tests.  With a src/ directory
(the usual case) src goes first on PYTHONPATH, so each interpreter runs
the sources.  Without one nothing is added to the path, so each
interpreter runs its own installed addalg; the CI package job runs it
that way, after installing the checkout into a fresh venv and deleting
src/.

Runs, in this order:
  - under each interpreter, the import check: it prints the resolved
    addalg.__file__ and fails unless that file lies under src/, or, with
    no src/, under the interpreter's sys.prefix;
  - the golden replay (tests/golden_cases.py) under each interpreter;
  - the deep-nesting check under each interpreter: `python -m addalg info`
    on a file of 100,000 nested arrays exits 2 with one `error:` line on
    stderr, nothing on stdout and no traceback;
  - with src/ only, the bench-smoke loop under the first interpreter:
    every benchmark workload for one second at --trace 1 and at --trace 0,
    each run's last stdout line a JSON report with correct true and
    failed 0 (perfbench/run.py refuses to run without src/).
Prints one line per step and exits 1 unless every step passed.

Installing the package stays in CI: building it needs setuptools >= 68
and wheel, which an offline host may lack.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOADS = ("sweep", "certify", "lattice", "cli")
DEPTH = 100_000


def _env():
    env = dict(os.environ)
    if SRC.is_dir():
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _run(argv, **kwargs):
    return subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True, text=True, **kwargs)


def imported_from(python):
    proc = _run([python, "-c", "import addalg, sys; print(addalg.__file__); print(sys.prefix)"])
    if proc.returncode != 0:
        return False, proc.stderr.strip()[-200:]
    where, prefix = (Path(line).resolve() for line in proc.stdout.splitlines())
    return where.is_relative_to(SRC if SRC.is_dir() else prefix), str(where)


def golden(python):
    proc = _run([python, "tests/golden_cases.py"])
    lines = proc.stdout.splitlines()
    return proc.returncode == 0, lines[-1] if lines else proc.stderr.strip()[-200:]


def deep_nesting(python, tmp):
    deep = Path(tmp) / "deep.json"
    deep.write_text('{"algebra": ' + "[" * DEPTH + "]" * DEPTH + "}")
    proc = _run([python, "-m", "addalg", "info", "--in", str(deep), "--json"])
    lines = proc.stderr.splitlines()
    ok = (proc.returncode == 2 and proc.stdout == "" and len(lines) == 1
          and lines[0].startswith("error: ") and "Traceback" not in proc.stderr)
    return ok, f"exit {proc.returncode}, stdout bytes {len(proc.stdout)}, stderr lines {len(lines)}"


def bench_smoke(python, workload, trace):
    proc = _run([python, "perfbench/run.py", "--workload", workload, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace)])
    try:
        report = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return False, f"exit {proc.returncode}, no JSON report"
    ok = report.get("correct") is True and report.get("failed") == 0
    return ok, f"correct {report.get('correct')}, failed {report.get('failed')}"


def main(pythons) -> int:
    if not pythons:
        print("usage: python3 tests/ci_local.py PYTHON [PYTHON ...]", file=sys.stderr)
        return 2
    steps = []
    with tempfile.TemporaryDirectory() as tmp:
        for python in pythons:
            steps.append((f"import {python}", lambda p=python: imported_from(p)))
            steps.append((f"golden {python}", lambda p=python: golden(p)))
            steps.append((f"deep-nesting {python}", lambda p=python: deep_nesting(p, tmp)))
        if SRC.is_dir():
            for trace in (1, 0):
                for w in WORKLOADS:
                    steps.append((f"bench-smoke {w} --trace {trace}",
                                  lambda w=w, t=trace: bench_smoke(pythons[0], w, t)))
        failed = 0
        for name, step in steps:
            ok, detail = step()
            failed += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}", flush=True)
    print(f"{len(steps) - failed} of {len(steps)} steps passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
