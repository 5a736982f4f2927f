"""Per-layer tracing by wrapping addalg's public functions from outside.

Each traced function is replaced, in every loaded addalg module that binds
it (and on its class for methods), by a wrapper that keeps a span stack per
thread.  A span's self time is its duration minus the time of the spans it
caused.  Spans are aggregated per function as they close, so memory stays
flat however many calls a run makes.
"""

from __future__ import annotations

import functools
import statistics
import subprocess
import sys
import threading
import time

# (layer, module, attribute path) for every traced function.
TRACED = [
    ("linalg", "addalg.linalg", "rref"),
    ("linalg", "addalg.linalg", "nullspace"),
    ("linalg", "addalg.linalg", "solve"),
    ("linalg", "addalg.linalg", "det"),
    ("algebra", "addalg.algebra", "Algebra.mul_coords"),
    ("algebra", "addalg.algebra", "Algebra.left_mul_matrix"),
    ("algebra", "addalg.algebra", "Algebra.right_mul_matrix"),
    ("algebra", "addalg.algebra", "Element.invert"),
    ("algebra", "addalg.algebra", "Element.is_invertible"),
    ("algebra", "addalg.algebra", "min_poly"),
    ("polynomials", "addalg.polynomials", "squarefree_decompose"),
    ("polynomials", "addalg.polynomials", "poly_gcd"),
    ("subspace", "addalg.subspace", "from_vecs"),
    ("subspace", "addalg.subspace", "product_span"),
    ("subspace", "addalg.subspace", "stabilizer"),
    ("subspace", "addalg.subspace", "lattice_intersect"),
    ("subspace", "addalg.subspace", "translate"),
    ("subspace", "addalg.subspace", "contains_invertible"),
    ("subspace", "addalg.subspace", "invertible_basis"),
    ("subspace", "addalg.subspace", "subalgebra_generated"),
    ("subspace", "addalg.subspace", "is_subalgebra"),
    ("classify", "addalg.classify", "finite_subalgebras_verdict"),
    ("classify", "addalg.classify", "enumerate_subalgebras_split"),
    ("sumsets", "addalg.sumsets", "diderrich_certificate"),
    ("sumsets", "addalg.sumsets", "e_transform"),
    ("sumsets", "addalg.sumsets", "DiderrichCertificate.violations"),
    ("sumsets", "addalg.sumsets", "kneser_check"),
    ("sumsets", "addalg.sumsets", "kneser_nfold_check"),
    ("sumsets", "addalg.sumsets", "atom_exact_split"),
    ("sumsets", "addalg.sumsets", "connectivity_value"),
    ("sumsets", "addalg.sumsets", "hamidoune_check"),
    ("sumsets", "addalg.sumsets", "tao_check"),
    ("discrete", "addalg.discrete", "group_kneser_sweep"),
    ("discrete", "addalg.discrete", "minkowski"),
    ("discrete", "addalg.discrete", "combinatorial_stabilizer"),
    ("discrete", "addalg.discrete", "lift_subset"),
    ("gen", "addalg.gen", "gen_instance"),
    ("serialize", "addalg.serialize", "load_instance"),
    ("serialize", "addalg.serialize", "algebra_from_desc"),
    ("serialize", "addalg.serialize", "dumps"),
    ("cli", "addalg.cli", "main"),
]

FAMILIES = ("split", "group", "polyprod")

# Counts kept besides calls and self time, with the direction that is better.
COUNTERS = (
    ("linalg.rref.cells", "lower"),
    ("subspace.contains_invertible.trials", "lower"),
    ("classify.finite_subalgebras_verdict.trials", "lower"),
    ("sumsets.recursion_depth", "higher"),
)


def span_name(layer, attr):
    return f"{layer}.{attr}"


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for layer, _, attr in TRACED:
        spec.append((span_name(layer, attr) + ".calls", "count", "lower"))
        spec.append((span_name(layer, attr) + ".self_s", "s", "lower"))
    spec.extend((name, "count", better) for name, better in COUNTERS)
    spec.append(("sumsets.pivot_yield", "ratio", "higher"))
    for fam in FAMILIES:
        spec.append((f"sumsets.pivot_yield.{fam}", "ratio", "higher"))
    spec.append(("cli.import_s", "s", "lower"))
    spec.append(("trace.checks_per_s", "checks/s", "higher"))
    return spec


class Tracer:
    """Span recorder; install() wraps the TRACED functions in place."""

    def __init__(self):
        self._local = threading.local()
        self._tables = []  # one stats table per thread that recorded spans
        self._lock = threading.Lock()
        self.counters = {}
        self.tag = None  # set by a workload to attribute e-transform work

    def _table(self):
        table = getattr(self._local, "table", None)
        if table is None:
            table = self._local.table = {}
            self._local.stack = [[0.0]]
            with self._lock:
                self._tables.append(table)
        return table

    def count(self, name, amount=1):
        with self._lock:  # the cli workload's --threads 2 sweep counts from two threads
            self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name, fn, pre=None, post=None):
        local = self._local
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            table = tracer._table()
            stack = local.stack
            if pre is not None:
                args = pre(args)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stack[-1][0] += dur
                entry = table.get(name)
                if entry is None:
                    entry = table[name] = [0, 0.0]
                entry[0] += 1
                entry[1] += dur - frame[0]
            if post is not None:
                post(result)
            return result

        return wrapper

    # -- hooks for the counters -------------------------------------

    def _rref_pre(self, args):
        rows = args[0]
        if not isinstance(rows, (list, tuple)):
            rows = list(rows)
            args = (rows,) + tuple(args[1:])
        if rows:
            self.count("linalg.rref.cells", len(rows) * len(rows[0]))
        return args

    def _hooks(self, name):
        if name == "linalg.rref":
            return self._rref_pre, None
        if name == "subspace.contains_invertible":
            return None, lambda r: self.count("subspace.contains_invertible.trials", r.trials_used)
        if name == "classify.finite_subalgebras_verdict":
            return None, lambda r: self.count("classify.finite_subalgebras_verdict.trials",
                                              r.trials_used)
        if name == "sumsets.diderrich_certificate":
            def post(cert):
                self.count("sumsets.recursion_depth", cert.recursion_depth)
                if self.tag:
                    self.count(f"depth.{self.tag}", cert.recursion_depth)
            return None, post
        if name == "sumsets.e_transform":
            def post(_):
                if self.tag:
                    self.count(f"e_transform.{self.tag}")
            return None, post
        return None, None

    def install(self):
        """Wrap every TRACED function wherever addalg binds it."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "addalg" or name.startswith("addalg.")}
        for layer, modname, attr in TRACED:
            if modname not in mods:
                continue
            name = span_name(layer, attr)
            pre, post = self._hooks(name)
            owner = mods[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, property):
                    setattr(cls, meth, property(self.wrap(name, raw.fget, pre, post)))
                else:
                    setattr(cls, meth, self.wrap(name, raw, pre, post))
                continue
            orig = getattr(owner, attr)
            wrapped = self.wrap(name, orig, pre, post)
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)

    def snapshot(self):
        """Plain-data aggregate: {span: [calls, self_s]} plus counters."""
        spans = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, (calls, self_s) in list(table.items()):
                agg = spans.setdefault(name, [0, 0.0])
                agg[0] += calls
                agg[1] += self_s
        return {"spans": spans, "counters": dict(self.counters)}


def measure_cli_import(python, env, repeats=5):
    """Median time to import addalg.cli in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import addalg.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(repeats):
        proc = subprocess.run([python, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        times.append(float(proc.stdout.strip()))
    return statistics.median(times)


def per_layer_metrics(snapshot, import_s, checks_per_s):
    """Every per-layer metric by name, from a tracer snapshot."""
    spans, counters = snapshot["spans"], snapshot["counters"]
    out = {}
    for layer, _, attr in TRACED:
        name = span_name(layer, attr)
        calls, self_s = spans.get(name, (0, 0.0))
        out[name + ".calls"] = calls
        out[name + ".self_s"] = self_s
    for name, _ in COUNTERS:
        out[name] = counters.get(name, 0)
    e_calls = spans.get("sumsets.e_transform", (0, 0.0))[0]
    out["sumsets.pivot_yield"] = counters.get("sumsets.recursion_depth", 0) / e_calls \
        if e_calls else 0.0
    for fam in FAMILIES:
        fam_calls = counters.get(f"e_transform.{fam}", 0)
        out[f"sumsets.pivot_yield.{fam}"] = counters.get(f"depth.{fam}", 0) / fam_calls \
            if fam_calls else 0.0
    out["cli.import_s"] = import_s
    out["trace.checks_per_s"] = checks_per_s
    return out


def self_time_table(snapshot, top=12):
    """Human-readable share of self time per span, largest first."""
    spans = snapshot["spans"]
    total = sum(s for _, s in spans.values()) or 1.0
    rows = sorted(spans.items(), key=lambda kv: -kv[1][1])[:top]
    return "\n".join(f"  {name:<44} {calls:>10} calls {self_s:9.3f} s {100 * self_s / total:5.1f}%"
                     for name, (calls, self_s) in rows)
