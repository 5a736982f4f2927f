"""cli: a fixed sequence of addalg subcommands through the CLI entry point.

Why: it is the only workload that measures cli and serialize, and the
threaded sweep copy behind `group-sweep --threads 2` runs only here.  Each
call goes through `addalg.cli.main(argv)` in this process with stdout and
stderr captured; an uncaught exception becomes exit 1 with a traceback, as
the `addalg` console script would give.  (Run as processes, the calls spread
by 12-16% between runs on the build host; interpreter start-up and import
are measured apart, by cli.import_s and setup_s.)

Two calls are known to fail today: malformed `nfold --spaces` and `gen --dims`
end in an uncaught ValueError (exit 1, traceback) where the CLI contract asks
for exit 2 and a one-line `error:` message.  They are kept and counted as
failed until the program is fixed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import traceback
from collections import namedtuple
from fractions import Fraction

import ref
from harness import WORK_DIR, Round
from lattice import c_values, has_unit_point

# The sampled sweep runs on fixed inputs, like the other group-sweep calls:
# the three slowest calls, whose last is the nearest-rank p90, are seed-free.
SAMPLE_COUNT, SAMPLE_SEED = 100, 9
TABLES = {f"Z{n}" for n in range(2, 13)} | {"V4", "S3", "paper-m7", "graded-m"}
ALGEBRAS = ({f"QT{n}" for n in range(2, 5)} | {"QP2", "QT2xQT2", "M2x2", "QV4", "QS3",
            "Q[paper-m7]", "Q[graded-m]"} | {f"Q{n}" for n in range(1, 7)}
            | {f"QZ{n}" for n in range(2, 13)})


# Exit code and captured output of one CLI call.
Outcome = namedtuple("Outcome", "returncode stdout stderr")


def invoke(main, argv):
    """Run addalg.cli.main(argv) as the console script would, capturing its output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # what the interpreter does with an uncaught exception
            traceback.print_exc()
            code = 1
    return Outcome(code, out.getvalue(), err.getvalue())


def canonical(text):
    """Parsed JSON if text is canonical JSON as addalg prints it, else None."""
    try:
        obj = json.loads(text)
    except ValueError:
        return None
    return obj if json.dumps(obj, sort_keys=True, separators=(", ", ": ")) + "\n" == text else None


def rats(rows):
    return [[Fraction(c) for c in row] for row in rows]


def paper_m7_table():
    """{1, a, b, a^2, a^3}: a non-unit product is a^(total word length), a^4 = a."""
    length = [0, 1, 1, 2, 3]
    power = {1: 1, 2: 3, 3: 4}  # a^k -> element index

    def mul(x, y):
        if x == 0 or y == 0:
            return x + y
        return power[(length[x] + length[y] - 1) % 3 + 1]

    return [[mul(x, y) for y in range(5)] for x in range(5)]


class CliFlow:
    modules = ("addalg.cli",)

    def build(self, mods, seed, tracer):
        rng = random.Random(seed)
        gens = {
            "split4": ["--family", "split", "--n", "4", "--dims", "2,2,1"],
            "split5": ["--family", "split", "--n", "5", "--dims", "2,3"],
            "group7": ["--family", "group", "--n", "7", "--dims", "2,3"],
            "poly3": ["--family", "polyprod", "--n", "3", "--dims", "2,2"],
        }
        main = mods["addalg.cli"].main
        files, data, gen_argv = {}, {}, {}
        for name, spec in gens.items():
            argv = ["gen", "--seed", str(rng.randrange(10 ** 6)), *spec]
            res = invoke(main, argv)
            if res.returncode != 0:
                raise RuntimeError(f"addalg {' '.join(argv)} failed: {res.stderr}")
            path = WORK_DIR / f"cli-{name}.json"
            path.write_text(res.stdout)
            files[name], data[name], gen_argv[name] = str(path), json.loads(res.stdout), argv
        f = files
        calls = [
            ("fixtures", ["fixtures", "--json"]),
            ("validate", ["validate", "--in", f["poly3"], "--json"]),
            ("info", ["info", "--in", f["group7"], "--json"]),
            ("span", ["span", "--in", f["split4"], "--V", "A", "--json"]),
            ("product", ["product", "--in", f["group7"], "--A", "A", "--B", "B", "--json"]),
            ("stabilizer", ["stabilizer", "--in", f["group7"], "--V", "B", "--json"]),
            ("annihilator", ["annihilator", "--in", f["split4"], "--V", "A", "--json"]),
            ("classify-QT4", ["classify", "--fixture", "QT4", "--json"]),
            ("classify-Q5", ["classify", "--fixture", "Q5", "--json"]),
            ("certificate", ["certificate", "--in", f["poly3"], "--A", "A", "--B", "B", "--json"]),
            ("kneser", ["kneser", "--in", f["group7"], "--A", "A", "--B", "B", "--json"]),
            ("nfold", ["nfold", "--in", f["split4"], "--spaces", "A,B,C", "--json"]),
            ("atom", ["atom", "--in", f["split5"], "--V", "A", "--lambda", "1/2", "--json"]),
            ("hamidoune", ["hamidoune", "--in", f["split5"], "--W", "B", "--V", "A",
                           "--lambda", "1/2", "--json"]),
            ("tao", ["tao", "--in", f["split5"], "--V", "A", "--W", "B", "--epsilon", "1",
                     "--json"]),
            ("sweep-threads-1", ["group-sweep", "--fixture", "Z5", "--exhaustive", "--json",
                                 "--threads", "1"]),
            ("sweep-threads-2", ["group-sweep", "--fixture", "Z5", "--exhaustive", "--json",
                                 "--threads", "2"]),
            ("sweep-sampled", ["group-sweep", "--fixture", "Z9", "--count", str(SAMPLE_COUNT),
                               "--seed", str(SAMPLE_SEED), "--json"]),
            ("monoid-check", ["monoid-check", "--fixture", "paper-m7", "--A", "1,a,b",
                              "--B", "1,a,b", "--lambda", "1", "--json"]),
            ("gen", gen_argv["group7"]),
            # malformed input: the contract is exit 2 with a one-line error
            ("nfold-one-space", ["nfold", "--in", f["split4"], "--spaces", "A", "--json"]),
            ("gen-bad-dims", ["gen", "--family", "split", "--dims", "x"]),
        ]
        return {"mods": mods, "data": data, "calls": calls}

    def round(self, st, timer, tracer):
        main = st["mods"]["addalg.cli"].main
        rnd = Round()
        results = {}
        for label, argv in st["calls"]:
            res = timer.call(invoke, main, argv)
            rnd.attempted += 1
            if label in ("nfold-one-space", "gen-bad-dims"):
                lines = res.stderr.splitlines()
                ok = (res.returncode == 2 and res.stdout == "" and len(lines) == 1
                      and lines[0].startswith("error:"))
            else:
                ok = res.returncode == 0 and canonical(res.stdout) is not None
            if ok:
                rnd.checks += 1
            else:
                rnd.failed += 1
                tail = res.stderr.strip().splitlines()[-1:] or [""]
                rnd.errors.append(f"addalg {label}: exit {res.returncode}: {tail[0]}")
            rnd.outputs.append((label, res.returncode, res.stdout))
            results[label] = res.stdout if ok else None
        st.setdefault("first", results)
        return rnd

    def verify(self, st, rnd):
        problems = []
        for name, inst in st["data"].items():
            problems.extend(f"generated {name}: {p}" for p in check_instance_file(inst))
        out = {label: canonical(text) for label, text in st["first"].items() if text is not None}
        raw = st["first"]
        for label, obj in out.items():
            check = CHECKS.get(label)
            if check is None:
                continue
            try:
                problems.extend(f"addalg {label}: {p}" for p in check(obj, st))
            except (KeyError, TypeError, ValueError) as exc:
                problems.append(f"addalg {label}: malformed output ({exc!r})")
        if raw.get("sweep-threads-1") != raw.get("sweep-threads-2"):
            problems.append("group-sweep output differs between --threads 1 and --threads 2")
        if raw.get("gen") is not None and json.loads(raw["gen"]) != st["data"]["group7"]:
            problems.append("gen is not deterministic for the same seed")
        return problems


def check_instance_file(inst):
    alg = inst["algebra"]
    n = len(ref.Mult.from_desc(alg).unit)
    out = []
    spaces = {k: rats(v) for k, v in inst["subspaces"].items()}
    if inst["family"] == "group":
        if alg["table"] != ref.cyclic_table(n):
            out.append("group table is not the cyclic group law")
        for k, subset in inst["subsets"].items():
            if spaces[k] != [[Fraction(int(i == j)) for i in range(n)] for j in subset]:
                out.append(f"subspace {k} is not the indicator span of {subset}")
    if inst["family"] == "split":
        for k, rows in spaces.items():
            if not has_unit_point(rows, n):
                out.append(f"subspace {k} holds no invertible element")
    for k, rows in spaces.items():
        if ref.rank(rows) != len(rows):
            out.append(f"subspace {k} rows are dependent")
    return out


def _space(st, name, key):
    inst = st["data"][name]
    return ref.Mult.from_desc(inst["algebra"]), rats(inst["subspaces"][key])


def _fixtures(obj, st):
    return [] if set(obj["tables"]) == TABLES and set(obj["algebras"]) == ALGEBRAS \
        else ["fixture lists differ from the catalog"]


def _validate(obj, st):
    return [] if obj["valid"] is True and obj["dim"] == 3 else [f"unexpected {obj}"]


def _info(obj, st):
    inst = st["data"]["group7"]
    dims = {k: ref.rank(rats(v)) for k, v in inst["subspaces"].items()}
    want = {"dim": 7, "commutative": True, "split_etale": False, "subspaces": dims,
            "unit": ["1"] + ["0"] * 6}
    return [] if all(obj[k] == v for k, v in want.items()) else [f"{obj} differs from {want}"]


def _span(obj, st):
    _, rows = _space(st, "split4", "A")
    return [] if obj["dim"] == ref.rank(rows) and ref.same_span(rats(obj["basis"]), rows) \
        else ["span differs from the generating rows"]


def _product(obj, st):
    mult, a = _space(st, "group7", "A")
    _, b = _space(st, "group7", "B")
    prods = mult.products(a, b)
    return [] if obj["dim_AB"] == ref.rank(prods) and ref.same_span(rats(obj["basis"]), prods) \
        else ["product span differs from independent products"]


def _stabilizer(obj, st):
    mult, b = _space(st, "group7", "B")
    stab = mult.left_stabilizer(b)
    ok = obj["dim"] == len(stab) and ref.same_span(rats(obj["basis"]), stab) \
        and obj["is_subalgebra"] is True
    return [] if ok else ["stabilizer differs from independent kernel"]


def _annihilator(obj, st):
    mult, a = _space(st, "split4", "A")
    ann = mult.left_annihilator(a)
    ok = obj["dim"] == len(ann) and (not ann or ref.same_span(rats(obj["basis"]), ann)) \
        and obj["is_subalgebra"] is False
    return [] if ok else ["annihilator differs from independent kernel"]


def _verdict(want):
    def check(obj, st):
        return [] if obj["verdict"] == want else [f"verdict {obj['verdict']}, theory says {want}"]
    return check


def _certificate(obj, st):
    mult, a = _space(st, "poly3", "A")
    _, b = _space(st, "poly3", "B")
    out = []
    if obj["violations"] or obj["dim_space"] + obj["dim_subalgebra"] < ref.rank(a) + ref.rank(b):
        out.append(f"certificate fails: {obj}")
    if (obj["dim_A"], obj["dim_B"]) != (ref.rank(a), ref.rank(b)):
        out.append("dims of A and B differ from independent rank")
    if not ref.contains(a, [[Fraction(c) for c in obj["a"]]]):
        out.append("certificate element a is not in A")
    return out


def _kneser(obj, st):
    mult, a = _space(st, "group7", "A")
    _, b = _space(st, "group7", "B")
    ab = ref.basis(mult.products(a, b))
    stab = mult.left_stabilizer(ab)
    dha, dhb = ref.rank(mult.products(stab, a)), ref.rank(mult.products(stab, b))
    want = {"dim_A": len(a), "dim_B": len(b), "dim_AB": len(ab), "dim_H": len(stab),
            "bound_holds": True, "dim_HA": dha, "dim_HB": dhb, "strong_bound_holds": True,
            "schema_version": 1}
    ok = obj == want and len(ab) >= dha + dhb - len(stab)
    return [] if ok else [f"{obj} differs from {want}"]


def _nfold(obj, st):
    mult, a = _space(st, "split4", "A")
    spaces = [a] + [_space(st, "split4", k)[1] for k in ("B", "C")]
    prod = spaces[0]
    for s in spaces[1:]:
        prod = ref.basis(mult.products(prod, s))
    stab = mult.left_stabilizer(prod)
    dims_ih = [ref.rank(mult.products(s, stab)) for s in spaces]
    ok = (obj["dim_product"] == len(prod) and obj["dim_H"] == len(stab)
          and obj["dims_AiH"] == dims_ih and obj["bound_holds"] and obj["strong_bound_holds"]
          and len(prod) >= sum(dims_ih) - 2 * len(stab))
    return [] if ok else [f"n-fold report {obj} differs from independent dims"]


def _atom(obj, st):
    _, v = _space(st, "split5", "A")
    cvals = c_values(5, v, Fraction(1, 2))
    got = {tuple(tuple(b) for b in e["partition"]): Fraction(e["c"]) for e in obj["evaluated"]}
    ok = got == cvals and Fraction(obj["kappa"]) == min(cvals.values())
    return [] if ok else ["atom report differs from independent partition values"]


def _hamidoune(obj, st):
    _, v = _space(st, "split5", "A")
    _, w = _space(st, "split5", "B")
    cvals = c_values(5, v, Fraction(1, 2))
    atom_dim = len(min((c, len(p), p) for p, c in cvals.items())[2])
    dim_wv = ref.rank([ref.split_mul(x, y) for x in w for y in v])
    rhs = Fraction(1, 2) * len(w) + len(v) - Fraction(1, 2) * atom_dim
    ok = obj["dim_WV"] == dim_wv and obj["atom_dim"] == atom_dim and obj["holds"] \
        and dim_wv >= rhs
    return [] if ok else [f"Hamidoune report {obj} wrong or bound fails"]


def _tao(obj, st):
    _, v = _space(st, "split5", "A")
    _, w = _space(st, "split5", "B")
    dim_wv = ref.rank([ref.split_mul(x, y) for x in w for y in v])
    met = len(w) >= len(v) and dim_wv <= len(v)
    ok = obj["hypotheses_met"] == met and (not met or obj["conclusions_hold"])
    return [] if ok else [f"Tao report {obj} wrong"]


def _sweep_exhaustive(obj, st):
    subsets = ref.nonempty_subsets(5)
    pairs = [(a, b) for a in subsets for b in subsets]
    want = ref.kneser_violations(ref.cyclic_table(5), pairs)
    ok = obj["pairs_checked"] == len(pairs) and obj["violations"] == want == [] and obj["ok"]
    return [] if ok else ["Z5 sweep report differs from brute force"]


def _sweep_sampled(obj, st):
    pairs = ref.sampled_pairs(9, SAMPLE_SEED, SAMPLE_COUNT)
    want = ref.kneser_violations(ref.cyclic_table(9), pairs)
    ok = obj["pairs_checked"] == SAMPLE_COUNT and obj["violations"] == want == [] and obj["ok"]
    return [] if ok else ["sampled Z9 sweep report differs from brute force"]


def _monoid_check(obj, st):
    table = paper_m7_table()
    a = frozenset({0, 1, 2})
    ba = ref.set_product(table, a, a)
    rhs = len(a) + len(a) - len(ref.set_left_stabilizer(table, ba))
    h_a = ref.set_left_stabilizer(table, a)
    ok = (obj["|BA|"] == len(ba) == 4 and obj["kneser_rhs"] == rhs
          and obj["kneser_bound_holds"] is False and len(ba) < rhs
          and obj["|H_A|"] == len(h_a) and obj["hamidoune_bound_holds"]
          and len(ba) >= len(a) + len(a) - obj["atom_dim"] and obj["atom_dim >= |H_A|"])
    return [] if ok else [f"monoid check {obj} differs from the paper's counterexample"]


CHECKS = {
    "fixtures": _fixtures, "validate": _validate, "info": _info, "span": _span,
    "product": _product, "stabilizer": _stabilizer, "annihilator": _annihilator,
    "classify-QT4": _verdict("Infinite"), "classify-Q5": _verdict("Finite"),
    "certificate": _certificate, "kneser": _kneser, "nfold": _nfold, "atom": _atom,
    "hamidoune": _hamidoune, "tao": _tao, "sweep-threads-1": _sweep_exhaustive,
    "sweep-sampled": _sweep_sampled, "monoid-check": _monoid_check,
}
