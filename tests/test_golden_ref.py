"""CLI goldens re-derived from the reference alone.

Each stabilizer, annihilator, kneser, nfold and group-sweep record of
golden_cli.json is recomputed from its argv and its instance with
perfbench/ref.py, not with addalg: an "@NAME" instance is the literal of
test_golden_cli.INSTANCES or the recorded stdout of the command saved as
NAME, and its products come from ref.Mult.from_desc, or from the dense
tensor of a structure-constant description.  A golden recorded
from a wrong library answer fails here even when it replays byte for byte.
"""

import json
from fractions import Fraction

import pytest

from oracles import ref, ref_mul, ref_side
from test_golden_cli import GOLDEN, INSTANCES, cases

DERIVED = ("stabilizer", "annihilator", "kneser", "nfold", "group-sweep")
INDICES = [i for i, (argv, _) in enumerate(cases()) if argv[0] in DERIVED]
TABLES = {"Z5": ref.cyclic_table(5), "S3": ref.s3_table()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def instances(golden):
    texts = dict(INSTANCES)
    for (_, save_as), rec in zip(cases(), golden):
        if save_as:
            texts[save_as] = rec["stdout"]
    return {name: json.loads(text) for name, text in texts.items()}


def _flags(argv):
    """Each --name of argv with the value after it, or True when none follows."""
    out = {}
    for i, tok in enumerate(argv):
        if tok.startswith("--"):
            nxt = argv[i + 1] if i + 1 < len(argv) else "--"
            out[tok] = True if nxt.startswith("--") else nxt
    return out


def _commutative(mult):
    units = [[Fraction(int(i == j)) for j in range(mult.dim)] for i in range(mult.dim)]
    return all(mult.mul(a, b) == mult.mul(b, a) for a in units for b in units)


def _solution_space(cmd, mult, space, side):
    op = ref_side(mult, side)
    found = op.left_stabilizer(space) if cmd == "stabilizer" else op.left_annihilator(space)
    basis = ref.basis(found)
    closed = bool(basis) and ref.contains(basis, [mult.unit, *mult.products(basis, basis)])
    out = {"side": side, "dim": len(basis), "is_subalgebra": closed,
           "basis": [[str(c) for c in row] for row in basis]}
    return out, 0


def _nfold(mult, spaces):
    """The n-fold Kneser report, and its exit code."""
    prod = spaces[0]
    for s in spaces[1:]:
        prod = ref.basis(mult.products(prod, s))
    h = ref.basis(mult.left_stabilizer(prod))
    dims = [ref.rank(s) for s in spaces]
    lost = (len(spaces) - 1) * len(h)
    out = {"dims": dims, "dim_product": len(prod), "dim_H": len(h),
           "bound_holds": len(prod) >= sum(dims) - lost}
    if _commutative(mult):
        dims_ih = [ref.rank(mult.products(h, s)) for s in spaces]
        out.update(dims_AiH=dims_ih, strong_bound_holds=len(prod) >= sum(dims_ih) - lost)
    ok = out["bound_holds"] and out.get("strong_bound_holds") is not False
    return out, 0 if ok else 1


def _kneser(mult, a, b):
    rep, code = _nfold(mult, [a, b])
    out = {"dim_A": rep["dims"][0], "dim_B": rep["dims"][1], "dim_AB": rep["dim_product"],
           "dim_H": rep["dim_H"], "bound_holds": rep["bound_holds"]}
    if "dims_AiH" in rep:
        out.update(dim_HA=rep["dims_AiH"][0], dim_HB=rep["dims_AiH"][1],
                   strong_bound_holds=rep["strong_bound_holds"])
    return out, code


def _group_sweep(flags):
    table = TABLES[flags["--fixture"]]
    if "--exhaustive" in flags:
        subsets = ref.nonempty_subsets(len(table))
        pairs = [(a, b) for a in subsets for b in subsets]
    else:
        pairs = ref.sampled_pairs(len(table), int(flags["--seed"]), int(flags["--count"]))
    # Kneser holds in a group, so a sweep that reports any violation fails here
    violations = ref.kneser_violations(table, pairs)
    out = {"fixture": flags["--fixture"], "ok": not violations,
           "pairs_checked": len(pairs), "violations": violations}
    return out, 0 if not violations else 1


def _mult(desc):
    """The reference product of an algebra description."""
    if desc["kind"] != "structure_constants":
        return ref.Mult.from_desc(desc)
    table = [[[Fraction(c) for c in cell] for cell in row] for row in desc["table"]]
    return ref.Mult(len(table), lambda x, y: list(ref_mul(table, x, y)),
                    [Fraction(c) for c in desc["unit"]])


def derive(argv, instances):
    """(stdout payload without schema_version, exit code) of argv, from ref."""
    cmd, flags = argv[0], _flags(argv)
    if cmd == "group-sweep":
        return _group_sweep(flags)
    inst = instances[flags["--in"][1:]]
    mult = _mult(inst["algebra"])
    space = {name: [[Fraction(c) for c in row] for row in rows]
             for name, rows in inst["subspaces"].items()}
    if cmd in ("stabilizer", "annihilator"):
        return _solution_space(cmd, mult, space[flags["--V"]], flags.get("--side", "left"))
    if cmd == "kneser":
        return _kneser(mult, space[flags["--A"]], space[flags["--B"]])
    return _nfold(mult, [space[name] for name in flags["--spaces"].split(",")])


def test_derived_goldens_cover_every_record_of_their_commands():
    counts = {cmd: sum(argv[0] == cmd for argv, _ in cases()) for cmd in DERIVED}
    assert counts == {"stabilizer": 40, "annihilator": 40, "kneser": 19, "nfold": 37,
                      "group-sweep": 3}
    assert len(INDICES) == 139


@pytest.mark.parametrize("index", INDICES)
def test_golden_matches_reference(golden, instances, index):
    rec = golden[index]
    payload, code = derive(rec["argv"], instances)
    assert rec["stderr"] == "" and rec["code"] == code
    assert json.loads(rec["stdout"]) == {"schema_version": 1, **payload}
