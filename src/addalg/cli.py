"""Command-line frontend.

Subcommands map one-to-one onto library operations; output is canonical
JSON (--json) or aligned human text.  Exit codes: 0 all checks pass,
1 a checked inequality or validation failed, 2 input/schema error,
3 budget exhausted or the requested oracle is unavailable.
"""

from __future__ import annotations

import argparse
import sys

from . import classify, discrete, fixtures, gen, serialize, sumsets
from . import subspace as sub
from .errors import (
    AddalgError,
    BudgetExhausted,
    CapExceeded,
    NotSplitEtale,
    RetryBudgetExhausted,
    SchemaError,
)
from .serialize import SCHEMA_VERSION, dumps, parse_rat, rat_str

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_SCHEMA = 2
EXIT_BUDGET = 3


def _emit(args, payload) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    if args.json:
        sys.stdout.write(dumps(payload))
        return
    def walk(obj, indent=0):
        pad = "  " * indent
        if isinstance(obj, dict):
            for k in sorted(obj):
                v = obj[k]
                if isinstance(v, (dict, list)):
                    print(f"{pad}{k}:")
                    walk(v, indent + 1)
                else:
                    print(f"{pad}{k}: {v}")
        elif isinstance(obj, list):
            for v in obj:
                if isinstance(v, (dict, list)):
                    walk(v, indent + 1)
                else:
                    print(f"{pad}{v}")
    walk(payload)


def _load_algebra(args):
    if getattr(args, "infile", None):
        _, alg, spaces = serialize.load_instance(args.infile)
        return alg, spaces
    if getattr(args, "fixture", None):
        return fixtures.algebra_fixture(args.fixture), {}
    raise SchemaError("need --fixture NAME or --in FILE")


def _space(args, spaces, flag):
    name = getattr(args, flag, None)
    if name is None:
        raise SchemaError(f"missing --{flag}")
    if name not in spaces:
        raise SchemaError(f"no subspace {name!r} in the instance file "
                          f"(have: {', '.join(sorted(spaces)) or 'none'})")
    return spaces[name]


def _table(args):
    if getattr(args, "infile", None):
        raw, _, _ = serialize.load_instance(args.infile)
        return serialize.table_from_json(raw["algebra"])
    if getattr(args, "fixture", None):
        return fixtures.table_fixture(args.fixture)
    raise SchemaError("need --fixture NAME or --in FILE")


def _subset(table, csv, flag):
    if not csv:
        raise SchemaError(f"missing --{flag} (comma-separated element labels)")
    return table.subset(csv.split(","))


def _basis_json(space):
    return [[rat_str(c) for c in row] for row in space.basis]


# -- subcommand handlers ----------------------------------------------


def cmd_fixtures(args):
    _emit(args, {"tables": list(fixtures.TABLE_NAMES),
                 "algebras": list(fixtures.ALGEBRA_NAMES)})
    return EXIT_OK


def cmd_validate(args):
    alg, _ = _load_algebra(args)
    try:
        alg._validate()
        ok = True
        detail = None
    except AddalgError as e:
        ok, detail = False, str(e)
    payload = {"label": alg.label, "dim": alg.dim, "valid": ok}
    if detail:
        payload["error"] = detail
    _emit(args, payload)
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_info(args):
    alg, spaces = _load_algebra(args)
    _emit(args, {
        "label": alg.label,
        "dim": alg.dim,
        "commutative": alg.commutative,
        "split_etale": alg.split_etale,
        "unit": [rat_str(c) for c in alg.unit],
        "subspaces": {n: s.dim for n, s in spaces.items()},
    })
    return EXIT_OK


def cmd_span(args):
    _, spaces = _load_algebra(args)
    v = _space(args, spaces, "V")
    _emit(args, {"name": args.V, "dim": v.dim, "basis": _basis_json(v)})
    return EXIT_OK


def cmd_product(args):
    _, spaces = _load_algebra(args)
    a, b = _space(args, spaces, "A"), _space(args, spaces, "B")
    p = sub.product_span(a, b)
    _emit(args, {"dim_A": a.dim, "dim_B": b.dim, "dim_AB": p.dim,
                 "basis": _basis_json(p)})
    return EXIT_OK


def _cmd_solution_space(args, op):
    _, spaces = _load_algebra(args)
    v = _space(args, spaces, "V")
    out = op(v, args.side)
    _emit(args, {"side": args.side, "dim": out.dim, "basis": _basis_json(out),
                 "is_subalgebra": sub.is_subalgebra(out) if out.dim else False})
    return EXIT_OK


def cmd_stabilizer(args):
    return _cmd_solution_space(args, sub.stabilizer)


def cmd_annihilator(args):
    return _cmd_solution_space(args, sub.annihilator)


def cmd_classify(args):
    alg, _ = _load_algebra(args)
    verdict = classify.finite_subalgebras_verdict(alg, trials=args.trials,
                                                  seed=args.seed)
    _emit(args, {"label": alg.label, **verdict.to_json()})
    return EXIT_OK


def cmd_certificate(args):
    _, spaces = _load_algebra(args)
    a, b = _space(args, spaces, "A"), _space(args, spaces, "B")
    cert = sumsets.diderrich_certificate(a, b, budget=args.trials, seed=args.seed)
    violations = cert.violations()
    _emit(args, {
        "a": [rat_str(c) for c in cert.a.coords],
        "dim_subalgebra": cert.subalgebra.dim,
        "dim_space": cert.space.dim,
        "recursion_depth": cert.recursion_depth,
        "dim_A": a.dim,
        "dim_B": b.dim,
        "violations": violations,
    })
    return EXIT_OK if not violations else EXIT_VIOLATION


def cmd_kneser(args):
    _, spaces = _load_algebra(args)
    a, b = _space(args, spaces, "A"), _space(args, spaces, "B")
    report = sumsets.kneser_check(a, b)
    _emit(args, report.to_json())
    ok = report.bound_holds and report.strong_bound_holds is not False
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_nfold(args):
    _, spaces = _load_algebra(args)
    names = args.spaces.split(",") if args.spaces else []
    if len(names) < 2:
        raise SchemaError(f"--spaces needs at least two comma-separated names, "
                          f"got {args.spaces!r}")
    picked = []
    for n in names:
        if n not in spaces:
            raise SchemaError(f"no subspace {n!r} in the instance file")
        picked.append(spaces[n])
    report = sumsets.kneser_nfold_check(picked)
    _emit(args, report.to_json())
    ok = report.bound_holds and report.strong_bound_holds
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_atom(args):
    _, spaces = _load_algebra(args)
    v = _space(args, spaces, "V")
    report = sumsets.atom_exact_split(v, parse_rat(args.lam), cap=args.cap)
    _emit(args, report.to_json())
    return EXIT_OK if not report.tie_anomaly else EXIT_VIOLATION


def cmd_hamidoune(args):
    _, spaces = _load_algebra(args)
    w, v = _space(args, spaces, "W"), _space(args, spaces, "V")
    lam = parse_rat(args.lam)
    atom = sumsets.atom_exact_split(v, lam, cap=args.cap).atom
    report = sumsets.hamidoune_check(w, v, lam, atom)
    _emit(args, report.to_json())
    return EXIT_OK if report.holds else EXIT_VIOLATION


def cmd_tao(args):
    _, spaces = _load_algebra(args)
    v, w = _space(args, spaces, "V"), _space(args, spaces, "W")
    report = sumsets.tao_check(v, w, parse_rat(args.epsilon), cap=args.cap)
    _emit(args, report.to_json())
    if report.hypotheses_met and not report.conclusions_hold:
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_group_sweep(args):
    table = _table(args)
    report = discrete.group_kneser_sweep(
        table, exhaustive=args.exhaustive, seed=args.seed, count=args.count)
    _emit(args, {"fixture": table.label, **report.to_json()})
    return EXIT_OK if report.ok else EXIT_VIOLATION


def cmd_monoid_check(args):
    table = _table(args)
    a = _subset(table, args.A, "A")
    b = _subset(table, args.B, "B")
    report = discrete.monoid_hamidoune_check(table, a, b, parse_rat(args.lam))
    _emit(args, {"fixture": table.label, **report.to_json()})
    ok = report.hamidoune_ok and report.atom_dominates_stab
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_gen(args):
    try:
        dims = tuple(int(d) for d in args.dims.split(","))
    except ValueError:
        raise SchemaError(f"--dims must be comma-separated integers, "
                          f"got {args.dims!r}") from None
    inst = gen.gen_instance(args.family, args.seed, n=args.n, dims=dims)
    sys.stdout.write(dumps(inst.to_json()))
    return EXIT_OK


# -- argument wiring ---------------------------------------------------


def nonnegative_int(text):
    """argparse type for --trials, --count and --cap."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one `error:` line on stderr and exits 2."""

    def error(self, message):
        self.exit(EXIT_SCHEMA, f"error: {self.prog}: {message}\n")


def _add_common(p, fixture=True, infile=True):
    p.add_argument("--json", action="store_true", help="emit canonical JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=nonnegative_int, default=64)
    p.add_argument("--cap", type=nonnegative_int, default=10)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; every run is single-threaded "
                        "and the output does not depend on it")
    if fixture:
        p.add_argument("--fixture")
    if infile:
        p.add_argument("--in", dest="infile")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="addalg",
        description="Exact additive combinatorics in finite-dimensional "
                    "algebras over Q")
    subs = top.add_subparsers(dest="command", required=True)

    def add(name, func, **kw):
        p = subs.add_parser(name, **kw)
        _add_common(p)
        p.set_defaults(func=func)
        return p

    add("fixtures", cmd_fixtures, help="list built-in fixtures")
    add("validate", cmd_validate, help="check unit law and associativity")
    add("info", cmd_info, help="algebra summary")
    p = add("span", cmd_span, help="canonical basis of a named subspace")
    p.add_argument("--V", required=True)
    p = add("product", cmd_product, help="span of the Minkowski product")
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    for name, func in (("stabilizer", cmd_stabilizer),
                       ("annihilator", cmd_annihilator)):
        p = add(name, func, help=f"{name} of a named subspace")
        p.add_argument("--V", required=True)
        p.add_argument("--side", choices=("left", "right"), default="left")
    add("classify", cmd_classify, help="finitely-many-subalgebras verdict")
    p = add("certificate", cmd_certificate, help="e-transform certificate")
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    p = add("kneser", cmd_kneser, help="dimension lower bound for a pair")
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    p = add("nfold", cmd_nfold, help="n-fold dimension lower bounds")
    p.add_argument("--spaces", required=True, help="comma-separated names")
    p = add("atom", cmd_atom, help="exact atom in a split etale algebra")
    p.add_argument("--V", required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p = add("hamidoune", cmd_hamidoune, help="connectivity lower bound")
    p.add_argument("--W", required=True)
    p.add_argument("--V", required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p = add("tao", cmd_tao, help="small-doubling structure check")
    p.add_argument("--V", required=True)
    p.add_argument("--W", required=True)
    p.add_argument("--epsilon", required=True)
    p = add("group-sweep", cmd_group_sweep, help="subset-pair bound sweep")
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--count", type=nonnegative_int, default=200)
    p = add("monoid-check", cmd_monoid_check,
            help="monoid connectivity bound on labeled subsets")
    p.add_argument("--A", required=True, help="comma-separated element labels")
    p.add_argument("--B", required=True, help="comma-separated element labels")
    p.add_argument("--lambda", dest="lam", required=True)
    p = add("gen", cmd_gen, help="generate a seeded random instance file")
    p.add_argument("--family", required=True, choices=gen.FAMILIES)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--dims", default="2,2", help="comma-separated dims/sizes")
    return top


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on bad usage already; normalize other codes
        return EXIT_SCHEMA if e.code not in (0,) else 0
    try:
        return args.func(args)
    except (BudgetExhausted, RetryBudgetExhausted, NotSplitEtale, CapExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except AddalgError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SCHEMA
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
