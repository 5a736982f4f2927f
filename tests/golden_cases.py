"""The CLI golden cases, and a replay of them that needs no pytest.

`golden_cli.json` records the argv, exit code, stdout and stderr of a
fixed list of commands: the criterion-9 commands, generated instances of
every family, the certificate, kneser, stabilizer and annihilator
reports on each of them, the atom, hamidoune and tao reports on split
instances, with their error exits, the nfold reports on the generated
instances and on one pair in the non-commutative Q[S3], and stabilizers
and annihilators on both sides in M_2(Q) and Q[S3], most of them neither
the scalars nor 0, monoid-check at lambda = 1 and 1/2, and info and
classify on a companion-matrix instance.  The
generated instances and certificates depend on the order in which the
seeded candidate streams draw, so a replay that matches byte for byte
shows that order is unchanged.

An argv item "@NAME" stands for a file holding instance NAME: either a
literal from INSTANCES or the stdout of the command saved as NAME.

Replay every case against golden_cli.json, with only the standard library
and the addalg on the path:
    PYTHONPATH=src python tests/golden_cases.py
It prints `N of M equal`, names each record that differs on stderr, and
exits 1 unless every record is equal.
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile

from addalg import cli
from addalg.fixtures import table_fixture
from addalg.serialize import dumps

from oracles import ref_matrix_tensor

GOLDEN = pathlib.Path(__file__).with_name("golden_cli.json")

# Q^5 with a 4-dimensional A whose column 4 is zero, so it holds no
# invertible: the invertibility search walks the Vandermonde line through
# A's basis to its end and reports NO_PROVEN.
INSTANCES = {
    "q5-singular": dumps({
        "algebra": {"kind": "poly_quotient_product",
                    "factors": [["0", "1"]] * 5, "label": "Q5"},
        "subspaces": {
            "A": [["1", "0", "0", "0", "0"], ["0", "1", "0", "0", "0"],
                  ["0", "0", "1", "0", "0"], ["0", "0", "0", "1", "0"]],
            "B": [["1", "0", "0", "0", "1"], ["0", "1", "0", "0", "0"],
                  ["0", "0", "1", "0", "0"], ["0", "0", "0", "1", "0"]],
        },
    }),
    # Q^5 with V = x*S for the partition subalgebra S of {0,2},{1},{3,4} and
    # x = (2, -3, 5, 1, -4): span(VV) = x^2 S has dim V, so Tao's hypotheses hold.
    "q5-translate": dumps({
        "algebra": {"kind": "poly_quotient_product",
                    "factors": [["0", "1"]] * 5, "label": "Q5"},
        "subspaces": {
            "V": [["2", "0", "5", "0", "0"], ["0", "-3", "0", "0", "0"],
                  ["0", "0", "0", "1", "-4"]],
            "S": [["1", "0", "1", "0", "0"], ["0", "1", "0", "0", "0"],
                  ["0", "0", "0", "1", "1"]],
        },
    }),
    # Q[T]/(T^2) x Q, not split etale: U holds the unit, N holds no invertible.
    "nonsplit": dumps({
        "algebra": {"kind": "poly_quotient_product",
                    "factors": [["0", "0", "1"], ["0", "1"]], "label": "QT2xQ"},
        "subspaces": {
            "U": [["1", "0", "1"], ["0", "1", "0"]],
            "N": [["0", "1", "0"], ["0", "0", "1"]],
        },
    }),
    # Q[S3], not commutative: nfold checks the plain bound only.  H lifts
    # the subgroup A3 = {e, (012), (021)}, so its stabilizers are H itself;
    # D = e - (12) is annihilated on each side by a 3-dimensional space.
    "qs3": dumps({
        "algebra": {**table_fixture("S3").to_json(), "kind": "group_table",
                    "label": "QS3"},
        "subspaces": {"A": [["1", "0", "0", "0", "0", "0"]],
                      "B": [["0", "1", "0", "0", "0", "0"], ["0", "0", "0", "1", "0", "0"]],
                      "H": [["1", "0", "0", "0", "0", "0"], ["0", "0", "0", "1", "0", "0"],
                            ["0", "0", "0", "0", "1", "0"]],
                      "D": [["1", "-1", "0", "0", "0", "0"]]},
    }),
    # M_2(Q) on E_ij at index 2i + j, V = span(E11, E21), the first column:
    # left stabilizer all of M_2, right stabilizer dim 3, right annihilator dim 2.
    "m2x2": dumps({
        "algebra": {"kind": "structure_constants", "label": "M2x2",
                    "table": [[[str(c) for c in cell] for cell in row]
                              for row in ref_matrix_tensor(2)[0]],
                    "unit": [str(c) for c in ref_matrix_tensor(2)[1]]},
        "subspaces": {"V": [["1", "0", "0", "0"], ["0", "0", "1", "0"]]},
    }),
    # Q[M] for M block-diagonal with companion blocks T - 1, T - 2, T - 1:
    # the quotient by their lcm (T - 1)(T - 2), in the power basis of M.
    "companion": dumps({
        "algebra": {"kind": "companion", "polys": [["-1", "1"], ["-2", "1"], ["-1", "1"]]},
        "subspaces": {"V": [["1", "1"]]},
    }),
}

GEN_CASES = [(family, n, dims, seed)
             for family, n, dims in (("split", 4, "2,2"), ("group", 7, "2,2"),
                                     ("polyprod", 3, "2,2"), ("polyprod", 5, "2,2"),
                                     ("split", 5, "3,4"), ("group", 7, "3,4"))
             for seed in (0, 1, 2)]

# Split instances for the exact atom: V is A, W is B.
ATOM_GEN_CASES = [(n, dims, seed)
                  for n, pairs in ((4, (("1,3", 0), ("3,2", 1))),
                                   (5, (("2,4", 0), ("4,3", 1))),
                                   (6, (("3,5", 0), ("5,2", 1))))
                  for dims, seed in pairs]
LAMBDAS = ("1/4", "1/2", "3/4", "1")
EPSILONS = ("1/2", "1")

CLASSIFY_FIXTURES = ("QT2", "QT3", "QT4", "QP2", "QT2xQT2", "Q1", "Q3", "Q5",
                     "M2x2", "QZ4", "QZ6", "QV4", "QS3", "Q[paper-m7]", "Q[graded-m]")


def cases():
    """(argv, save_as) for every recorded command, in replay order."""
    out = [
        (["fixtures", "--json"], None),
        (["classify", "--fixture", "QT4", "--json"], None),
        (["classify", "--fixture", "Q5", "--json"], None),
        (["monoid-check", "--fixture", "paper-m7", "--A", "1,a,b",
          "--B", "1,a,b", "--lambda", "1", "--json"], None),
        (["group-sweep", "--fixture", "Z5", "--exhaustive", "--json"], None),
        (["group-sweep", "--fixture", "Z5", "--exhaustive", "--json",
          "--threads", "8"], None),
        (["gen", "--family", "group", "--seed", "3", "--n", "7", "--dims", "2,3"],
         "crit9"),
        (["kneser", "--in", "@crit9", "--A", "A", "--B", "B", "--json"], None),
        (["group-sweep", "--fixture", "S3", "--seed", "1", "--count", "40", "--json"],
         None),
    ]
    for name in CLASSIFY_FIXTURES:
        for seed in ("0", "1"):
            out.append((["classify", "--fixture", name, "--seed", seed,
                         "--trials", "16", "--json"], None))
    for family, n, dims, seed in GEN_CASES:
        name = f"{family}-n{n}-d{dims.replace(',', '')}-s{seed}"
        out.append((["gen", "--family", family, "--seed", str(seed), "--n", str(n),
                     "--dims", dims], name))
        inst = f"@{name}"
        out += [
            (["certificate", "--in", inst, "--A", "A", "--B", "B", "--json"], None),
            (["certificate", "--in", inst, "--A", "B", "--B", "A", "--seed", "1",
              "--trials", "4", "--json"], None),
            (["kneser", "--in", inst, "--A", "A", "--B", "B", "--json"], None),
            (["stabilizer", "--in", inst, "--V", "A", "--json"], None),
            (["stabilizer", "--in", inst, "--V", "B", "--side", "right", "--json"],
             None),
            (["annihilator", "--in", inst, "--V", "A", "--side", "right", "--json"],
             None),
            (["annihilator", "--in", inst, "--V", "B", "--side", "right", "--json"],
             None),
        ]
    for seed in ("0", "5"):
        out.append((["certificate", "--in", "@q5-singular", "--A", "A", "--B", "B",
                     "--seed", seed, "--json"], None))
        out.append((["certificate", "--in", "@q5-singular", "--A", "B", "--B", "B",
                     "--seed", seed, "--json"], None))
    out += _atom_cases()
    out += _nfold_cases()
    out += _solution_space_cases()
    out += _lambda_one_cases()
    out += _monoid_candidate_cases()
    out += [([cmd, "--in", "@companion", "--json"], None) for cmd in ("info", "classify")]
    return out


def _connectivity_cases(inst, v, w):
    """atom of V at every lambda, hamidoune of (W, V), tao of (V, V) and (V, W)."""
    out = [(["atom", "--in", inst, "--V", v, "--lambda", lam, "--json"], None)
           for lam in LAMBDAS]
    out += [(["hamidoune", "--in", inst, "--W", w, "--V", v, "--lambda", lam,
              "--json"], None) for lam in LAMBDAS]
    out += [(["tao", "--in", inst, "--V", v, "--W", other, "--epsilon", eps,
              "--json"], None) for other in (v, w) for eps in EPSILONS]
    return out


def _atom_cases():
    out = []
    for n, dims, seed in ATOM_GEN_CASES:
        name = f"split-n{n}-d{dims.replace(',', '')}-s{seed}"
        out.append((["gen", "--family", "split", "--seed", str(seed), "--n", str(n),
                     "--dims", dims], name))
        out += _connectivity_cases(f"@{name}", "A", "B")
    out += _connectivity_cases("@q5-translate", "V", "S")
    # no invertible in V: exit 2, before the split and cap checks
    out += [
        (["atom", "--in", "@q5-singular", "--V", "A", "--lambda", "1/2", "--json"], None),
        (["atom", "--in", "@q5-singular", "--V", "A", "--lambda", "1/2", "--cap", "4",
          "--json"], None),
        (["hamidoune", "--in", "@q5-singular", "--W", "B", "--V", "A", "--lambda", "1",
          "--json"], None),
        (["atom", "--in", "@nonsplit", "--V", "N", "--lambda", "1", "--json"], None),
    ]
    # above the partition cap, or not split etale: exit 3
    out += [
        (["atom", "--in", "@q5-singular", "--V", "B", "--lambda", "1/2", "--json"], None),
        (["atom", "--in", "@q5-singular", "--V", "B", "--lambda", "1/2", "--cap", "4",
          "--json"], None),
        (["tao", "--in", "@q5-translate", "--V", "V", "--W", "V", "--epsilon", "1",
          "--cap", "4", "--json"], None),
        (["atom", "--in", "@nonsplit", "--V", "U", "--lambda", "1", "--json"], None),
    ]
    return out


def _nfold_cases():
    """nfold of (A, B) and (B, A, B) on each generated instance (all
    commutative), then of (A, B) in Q[S3]."""
    out = []
    for family, n, dims, seed in GEN_CASES:
        inst = f"@{family}-n{n}-d{dims.replace(',', '')}-s{seed}"
        out += [(["nfold", "--in", inst, "--spaces", spaces, "--json"], None)
                for spaces in ("A,B", "B,A,B")]
    out.append((["nfold", "--in", "@qs3", "--spaces", "A,B", "--json"], None))
    return out


def _solution_space_cases():
    """Stabilizers and annihilators on both sides in M_2(Q) and in Q[S3];
    only the left annihilator in M_2(Q) is 0."""
    return [([cmd, "--in", inst, "--V", v, "--side", side, "--json"], None)
            for cmd, inst, v in (("stabilizer", "@m2x2", "V"), ("annihilator", "@m2x2", "V"),
                                 ("stabilizer", "@qs3", "H"), ("annihilator", "@qs3", "D"))
            for side in ("left", "right")]


def _lambda_one_cases():
    """hamidoune at lambda = 1 where the atom needs neither a split etale
    algebra nor the partition cap: (W, V) = (U, U) in Q[T]/(T^2) x Q,
    (B, H) and (B, A) in Q[S3], (V, V) in Q^5 at --cap 4, and (B, A) in
    the group algebra of Z7 and in a product of polynomial quotients."""
    return [(["hamidoune", "--in", inst, "--W", w, "--V", v, "--lambda", "1", *cap,
              "--json"], None)
            for inst, w, v, cap in (("@nonsplit", "U", "U", ()), ("@qs3", "B", "H", ()),
                                    ("@qs3", "B", "A", ()),
                                    ("@q5-translate", "V", "V", ("--cap", "4")),
                                    ("@group-n7-d22-s0", "B", "A", ()),
                                    ("@polyprod-n3-d22-s0", "B", "A", ()))]


def _monoid_candidate_cases():
    """monoid-check at lambda = 1/2, where the atom is the candidate left
    stabilizer of lift(A): Z3 passes, and Z6 and Z4 fail, which decides
    nothing (exit 3)."""
    return [(["monoid-check", "--fixture", name, "--A", a, "--B", b, "--lambda", "1/2",
              "--json"], None)
            for name, a, b in (("Z3", "0,1", "0,1,2"), ("Z6", "0,1,2,3,4", "0,1,2,3"),
                               ("Z4", "0,1,2", "0,1,2,3"))]


def run_cases(tmpdir):
    """Run every case in-process; returns the records in replay order."""
    files = {}

    def path_of(name, text):
        p = pathlib.Path(tmpdir) / f"{name}.json"
        p.write_text(text)
        files[name] = str(p)

    for name, text in INSTANCES.items():
        path_of(name, text)
    records = []
    for argv, save_as in cases():
        real = [files[a[1:]] if a.startswith("@") else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(real)
        records.append({"argv": argv, "code": code, "stdout": out.getvalue(),
                        "stderr": err.getvalue()})
        if save_as:
            path_of(save_as, out.getvalue())
    return records


def main() -> int:
    golden = json.loads(GOLDEN.read_text())
    with tempfile.TemporaryDirectory() as tmp:
        replayed = run_cases(tmp)
    equal = 0
    for i, (got, want) in enumerate(zip(replayed, golden)):
        if got == want:
            equal += 1
        else:
            print(f"record {i} differs: {' '.join(want['argv'])}", file=sys.stderr)
    if len(replayed) != len(golden):
        print(f"{len(replayed)} cases, {len(golden)} records", file=sys.stderr)
    print(f"{equal} of {len(golden)} equal")
    return 0 if equal == len(golden) == len(replayed) else 1


if __name__ == "__main__":
    sys.exit(main())
