"""Command-line frontend.

Subcommands map one-to-one onto library operations; output is canonical
JSON (--json) or aligned human text.  COMMANDS declares each subcommand
with only the options its handler reads, besides group-sweep's --threads
and certificate's --trials, which are accepted for compatibility; any other
flag is a usage error.  Exit codes: 0 all checks pass, 1 a checked
inequality failed, 2 input/schema error (an invalid structure-constant
table among them), 3 the generator's retry budget exhausted, the
requested oracle unavailable, or no exact atom to decide a monoid-check
whose candidate atom's bound fails.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import classify, discrete, fixtures, gen, serialize, sumsets
from . import subspace as sub
from .errors import (
    AddalgError,
    CapExceeded,
    NotSplitEtale,
    RetryBudgetExhausted,
    SchemaError,
)
from .serialize import SCHEMA_VERSION, basis_json, dumps, parse_rat, rat_str

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


def _source(infile, fixture=None, table=False):
    """What --in FILE or --fixture NAME names, reading a file once: the
    monoid table when `table`, else the algebra and its named subspaces."""
    if infile:
        if table:
            return serialize.table_from_json(serialize.read_instance(infile)["algebra"])
        _, alg, spaces = serialize.load_instance(infile)
        return alg, spaces
    if fixture:
        if table:
            return fixtures.table_fixture(fixture)
        return fixtures.algebra_fixture(fixture), {}
    raise SchemaError("need --fixture NAME or --in FILE")


def _space(spaces, name):
    if name not in spaces:
        raise SchemaError(f"no subspace {name!r} in the instance file "
                          f"(have: {', '.join(sorted(spaces)) or 'none'})")
    return spaces[name]


# -- subcommand handlers ----------------------------------------------


def cmd_fixtures(args):
    _emit(args, {"tables": list(fixtures.TABLE_NAMES),
                 "algebras": list(fixtures.ALGEBRA_NAMES)})
    return EXIT_OK


def cmd_validate(args):
    # loading validates: structure constants are checked as they are built
    # (an invalid table exits 2), and every other kind is valid by construction
    alg, _ = _source(args.infile, args.fixture)
    _emit(args, {"label": alg.label, "dim": alg.dim, "valid": True})
    return EXIT_OK


def cmd_info(args):
    alg, spaces = _source(args.infile, args.fixture)
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
    _, spaces = _source(args.infile)
    v = _space(spaces, args.V)
    _emit(args, {"name": args.V, "dim": v.dim, "basis": basis_json(v)})
    return EXIT_OK


def cmd_product(args):
    _, spaces = _source(args.infile)
    a, b = _space(spaces, args.A), _space(spaces, args.B)
    p = sub.product_span(a, b)
    _emit(args, {"dim_A": a.dim, "dim_B": b.dim, "dim_AB": p.dim,
                 "basis": basis_json(p)})
    return EXIT_OK


def _cmd_solution_space(args, op):
    _, spaces = _source(args.infile)
    v = _space(spaces, args.V)
    out = op(v, args.side)
    _emit(args, {"side": args.side, "dim": out.dim, "basis": basis_json(out),
                 "is_subalgebra": sub.is_subalgebra(out) if out.dim else False})
    return EXIT_OK


def cmd_stabilizer(args):
    return _cmd_solution_space(args, sub.stabilizer)


def cmd_annihilator(args):
    return _cmd_solution_space(args, sub.annihilator)


def cmd_classify(args):
    alg, _ = _source(args.infile, args.fixture)
    verdict = classify.finite_subalgebras_verdict(alg, trials=args.trials,
                                                  seed=args.seed)
    _emit(args, {"label": alg.label, **verdict.to_json()})
    return EXIT_OK


def cmd_certificate(args):
    _, spaces = _source(args.infile)
    a, b = _space(spaces, args.A), _space(spaces, args.B)
    cert = sumsets.diderrich_certificate(a, b, seed=args.seed)
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
    _, spaces = _source(args.infile)
    a, b = _space(spaces, args.A), _space(spaces, args.B)
    report = sumsets.kneser_check(a, b)
    _emit(args, report.to_json())
    ok = report.bound_holds and report.strong_bound_holds is not False
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_nfold(args):
    _, spaces = _source(args.infile)
    names = args.spaces.split(",")
    if len(names) < 2:
        raise SchemaError(f"--spaces needs at least two comma-separated names, "
                          f"got {args.spaces!r}")
    report = sumsets.kneser_nfold_check([_space(spaces, n) for n in names])
    _emit(args, report.to_json())
    ok = report.bound_holds and report.strong_bound_holds is not False
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_atom(args):
    _, spaces = _source(args.infile)
    v = _space(spaces, args.V)
    report = sumsets.atom_exact_split(v, parse_rat(args.lam), cap=args.cap)
    _emit(args, report.to_json())
    return EXIT_OK if not report.tie_anomaly else EXIT_VIOLATION


def cmd_hamidoune(args):
    _, spaces = _source(args.infile)
    w, v = _space(spaces, args.W), _space(spaces, args.V)
    lam = parse_rat(args.lam)
    atom = sumsets.atom_exact_split(v, lam, cap=args.cap).atom
    report = sumsets.hamidoune_check(w, v, lam, atom)
    _emit(args, report.to_json())
    return EXIT_OK if report.holds else EXIT_VIOLATION


def cmd_tao(args):
    _, spaces = _source(args.infile)
    v, w = _space(spaces, args.V), _space(spaces, args.W)
    report = sumsets.tao_check(v, w, parse_rat(args.epsilon), cap=args.cap)
    _emit(args, report.to_json())
    if report.hypotheses_met and not report.conclusions_hold:
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_group_sweep(args):
    table = _source(args.infile, args.fixture, table=True)
    report = discrete.group_kneser_sweep(
        table, exhaustive=args.exhaustive, seed=args.seed, count=args.count)
    _emit(args, {"fixture": table.label, **report.to_json()})
    return EXIT_OK if report.ok else EXIT_VIOLATION


def cmd_monoid_check(args):
    table = _source(args.infile, args.fixture, table=True)
    a, b = table.subset(args.A.split(",")), table.subset(args.B.split(","))
    report = discrete.monoid_hamidoune_check(table, a, b, parse_rat(args.lam))
    _emit(args, {"fixture": table.label, **report.to_json()})
    if report.hamidoune_ok is None:
        print(f"error: no exact atom at lambda {rat_str(report.lam)}, and the "
              f"candidate atom's bound fails", file=sys.stderr)
        return EXIT_BUDGET
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

    def _get_values(self, action, arg_strings):
        # Python 3.11's argparse drops a lone "--" from an option's values,
        # so `--seed=--` would parse to [] without meeting its type: keep
        # "--" as the literal value instead.
        if action.option_strings and action.nargs is None and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


# add_argument keywords of every option, by flag
OPTIONS = {
    "--json": {"action": "store_true", "help": "emit canonical JSON"},
    "--in": {"dest": "infile"},
    "--fixture": {},
    "--seed": {"type": int, "default": 0},
    "--trials": {"type": nonnegative_int, "default": 64,
                 "help": "classify: sampled generators; certificate: accepted for "
                         "compatibility, the output does not depend on it"},
    "--cap": {"type": nonnegative_int, "default": 10},
    "--count": {"type": nonnegative_int, "default": 200},
    "--threads": {"type": int, "default": 1,
                  "help": "accepted for compatibility; every run is single-threaded "
                          "and the output does not depend on it"},
    "--exhaustive": {"action": "store_true"},
    "--side": {"choices": ("left", "right"), "default": "left"},
    "--spaces": {"required": True, "help": "comma-separated subspace names"},
    "--lambda": {"dest": "lam", "required": True},
    "--epsilon": {"required": True},
    "--family": {"required": True, "choices": gen.FAMILIES},
    "--n": {"type": int, "default": None},
    "--dims": {"default": "2,2", "help": "comma-separated dims/sizes"},
    **{flag: {"required": True, "help": "subspace name; for monoid-check, "
                                        "comma-separated element labels"}
       for flag in ("--A", "--B", "--V", "--W")},
}

# name: (handler, summary, options besides --json)
COMMANDS = {
    "fixtures": (cmd_fixtures, "list built-in fixtures", ()),
    "validate": (cmd_validate, "check unit law and associativity", ("--in", "--fixture")),
    "info": (cmd_info, "algebra summary", ("--in", "--fixture")),
    "span": (cmd_span, "canonical basis of a named subspace", ("--in", "--V")),
    "product": (cmd_product, "span of the Minkowski product", ("--in", "--A", "--B")),
    "stabilizer": (cmd_stabilizer, "stabilizer of a named subspace",
                   ("--in", "--V", "--side")),
    "annihilator": (cmd_annihilator, "annihilator of a named subspace",
                    ("--in", "--V", "--side")),
    "classify": (cmd_classify, "finitely-many-subalgebras verdict",
                 ("--in", "--fixture", "--seed", "--trials")),
    "certificate": (cmd_certificate, "e-transform certificate",
                    ("--in", "--A", "--B", "--seed", "--trials")),
    "kneser": (cmd_kneser, "dimension lower bound for a pair", ("--in", "--A", "--B")),
    "nfold": (cmd_nfold, "n-fold dimension lower bounds", ("--in", "--spaces")),
    "atom": (cmd_atom, "exact atom in a split etale algebra",
             ("--in", "--V", "--lambda", "--cap")),
    "hamidoune": (cmd_hamidoune, "connectivity lower bound",
                  ("--in", "--W", "--V", "--lambda", "--cap")),
    "tao": (cmd_tao, "small-doubling structure check",
            ("--in", "--V", "--W", "--epsilon", "--cap")),
    "group-sweep": (cmd_group_sweep, "subset-pair bound sweep",
                    ("--in", "--fixture", "--exhaustive", "--seed", "--count", "--threads")),
    "monoid-check": (cmd_monoid_check, "monoid connectivity bound on labeled subsets",
                     ("--in", "--fixture", "--A", "--B", "--lambda")),
    "gen": (cmd_gen, "generate a seeded random instance file",
            ("--family", "--seed", "--n", "--dims")),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing leaves it unchanged, so it is built once."""
    top = _Parser(
        prog="addalg",
        description="Exact additive combinatorics in finite-dimensional "
                    "algebras over Q")
    subs = top.add_subparsers(dest="command", required=True)
    for name, (func, summary, flags) in COMMANDS.items():
        p = subs.add_parser(name, help=summary)
        p.set_defaults(func=func)
        for flag in ("--json", *flags):
            kw = OPTIONS[flag]
            if flag == "--in":  # required unless --fixture is offered in its place
                kw = {**kw, "required": "--fixture" not in flags}
            p.add_argument(flag, **kw)
    return top


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on bad usage already; normalize other codes
        return EXIT_SCHEMA if e.code not in (0,) else 0
    try:
        return args.func(args)
    except (RetryBudgetExhausted, NotSplitEtale, CapExceeded) as e:
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
