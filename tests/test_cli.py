import contextlib
import io
import json
import os
import pathlib
import string
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addalg import classify, cli, fixtures, gen
from addalg.algebra import (
    companion_algebra,
    direct_product,
    matrix_algebra,
    poly_quotient_product,
    split_etale_algebra,
)
from addalg.errors import SchemaError
from addalg.polynomials import Poly
from addalg.serialize import algebra_from_desc, dumps, load_instance, parse_rat

from test_sumsets import sampled_witness_rows


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_instance(tmp_path, payload, name="inst.json"):
    p = tmp_path / name
    p.write_text(dumps(payload))
    return str(p)


Q4_INSTANCE = {
    "algebra": {"kind": "poly_quotient_product",
                "factors": [["0", "1"]] * 4, "label": "Q4"},
    "subspaces": {
        "A": [["1", "0", "0", "1"], ["0", "1", "2", "0"]],
        "B": [["1", "1", "0", "0"], ["0", "0", "1", "1"]],
        "C": [["1", "1", "1", "1"]],
    },
}


def test_fixtures_listing(capsys):
    code, out = run(capsys, "fixtures", "--json")
    assert code == 0
    data = json.loads(out)
    assert "Z5" in data["tables"] and "QT4" in data["algebras"]
    assert data["schema_version"] == 1


def test_python_dash_m_runs_the_cli(capsys):
    """`python -m addalg` with src/ on PYTHONPATH and nothing installed."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "addalg", "fixtures", "--json"],
                          capture_output=True, text=True, env=env, timeout=60)
    code, out = run(capsys, "fixtures", "--json")
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, "")
    assert code == 0


def test_classify_fixture(capsys):
    code, out = run(capsys, "classify", "--fixture", "QT4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "Infinite" and data["reason"] == "BadProfile"

    code, out = run(capsys, "classify", "--fixture", "QT3", "--json")
    assert json.loads(out)["verdict"] == "Finite"


def test_validate_and_info(capsys, tmp_path):
    path = write_instance(tmp_path, Q4_INSTANCE)
    code, out = run(capsys, "validate", "--in", path, "--json")
    assert code == 0 and json.loads(out)["valid"]
    code, out = run(capsys, "info", "--in", path, "--json")
    data = json.loads(out)
    assert code == 0 and data["dim"] == 4 and data["split_etale"]
    assert data["subspaces"] == {"A": 2, "B": 2, "C": 1}


def test_span_product_stabilizer_annihilator(capsys, tmp_path):
    path = write_instance(tmp_path, Q4_INSTANCE)
    code, out = run(capsys, "span", "--in", path, "--V", "A", "--json")
    assert code == 0 and json.loads(out)["dim"] == 2
    code, out = run(capsys, "product", "--in", path, "--A", "A", "--B", "B", "--json")
    assert code == 0 and json.loads(out)["dim_AB"] >= 2
    code, out = run(capsys, "stabilizer", "--in", path, "--V", "A", "--json")
    assert code == 0 and json.loads(out)["is_subalgebra"]
    code, out = run(capsys, "annihilator", "--in", path, "--V", "C", "--json")
    assert code == 0 and json.loads(out)["dim"] == 0  # C has an invertible


def test_certificate_and_kneser(capsys, tmp_path):
    path = write_instance(tmp_path, Q4_INSTANCE)
    code, out = run(capsys, "certificate", "--in", path, "--A", "A", "--B", "B",
                    "--json")
    assert code == 0
    data = json.loads(out)
    assert data["violations"] == []
    assert data["dim_space"] + data["dim_subalgebra"] >= 4

    code, out = run(capsys, "kneser", "--in", path, "--A", "A", "--B", "B", "--json")
    assert code == 0 and json.loads(out)["bound_holds"]

    code, out = run(capsys, "nfold", "--in", path, "--spaces", "A,B,C", "--json")
    assert code == 0 and json.loads(out)["bound_holds"]


@pytest.mark.parametrize("argv, missing", [
    (["hamidoune", "--W", "X", "--V", "Y", "--lambda", "1"], "X"),
    (["tao", "--V", "X", "--W", "Y", "--epsilon", "1"], "X"),
    (["nfold", "--spaces", "A,X,Y"], "X"),
])
def test_first_missing_subspace_name_is_reported(capsys, tmp_path, argv, missing):
    # names are looked up in the order the command declares its flags
    path = write_instance(tmp_path, Q4_INSTANCE)
    code = cli.main([argv[0], "--in", path, *argv[1:]])
    assert (code, capsys.readouterr().err) == (
        2, f"error: no subspace {missing!r} in the instance file (have: A, B, C)\n")


def test_certificate_refuses_a_b_without_invertibles(tmp_path):
    # Q[T]/(T^2): B = span(T) is nilpotent, so the search proves it holds no unit
    inst = {"algebra": {"kind": "poly_quotient_product", "factors": [["0", "0", "1"]]},
            "subspaces": {"A": [["1", "0"], ["0", "1"]], "B": [["0", "1"]]}}
    path = write_instance(tmp_path, inst)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["certificate", "--in", path, "--A", "A", "--B", "B", "--json"])
    assert (code, out.getvalue(), err.getvalue()) == (
        2, "", "error: certificate NO_PROVEN for B\n")


# Q^9 with a B whose Vandermonde line through the unit is singular at
# t = 1, ..., 12: its third invertible point is at t = 14
Q9_INSTANCE = {
    "algebra": {"kind": "poly_quotient_product", "factors": [["0", "1"]] * 9},
    "subspaces": {
        "A": [["1"] * 9, ["1"] + ["0"] * 8],
        "B": [["1", "0", "0", "-3/2", "-7/12", "-11/30", "-15/56", "-19/90", "-23/132"],
              ["0", "1", "0", "1/2", "1/12", "1/30", "1/56", "1/90", "1/132"],
              ["0", "0", "1", "2", "3/2", "4/3", "5/4", "6/5", "7/6"]],
    },
}


def test_certificate_with_many_singular_line_points(capsys, tmp_path):
    path = write_instance(tmp_path, Q9_INSTANCE)
    code, out = run(capsys, "certificate", "--in", path, "--A", "A", "--B", "B", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["violations"] == [] and data["recursion_depth"] == 1


def test_certificate_output_does_not_depend_on_the_seed(capsys, tmp_path):
    # A's invertible is found only by sampling (test_sumsets.sampled_witness_rows),
    # and the samples come from one fixed stream, so --seed is not read
    alg = direct_product(matrix_algebra(2), split_etale_algebra(8))
    inst = {"algebra": structure_constants(alg),
            "subspaces": {"A": [list(map(str, row)) for row in sampled_witness_rows()],
                          "B": [[str(int(i == j)) for j in range(12)] for i in range(12)]}}
    path = write_instance(tmp_path, inst)
    outs = [run(capsys, "certificate", "--in", path, "--A", "A", "--B", "B",
                "--seed", seed, "--json") for seed in ("0", "1", "5")]
    assert outs[0][0] == 0 and json.loads(outs[0][1])["violations"] == []
    assert outs[1] == outs[0] and outs[2] == outs[0]


def test_atom_hamidoune_tao(capsys, tmp_path):
    path = write_instance(tmp_path, Q4_INSTANCE)
    code, out = run(capsys, "atom", "--in", path, "--V", "A", "--lambda", "1/2",
                    "--json")
    assert code == 0
    assert not json.loads(out)["tie_anomaly"]

    code, out = run(capsys, "hamidoune", "--in", path, "--W", "B", "--V", "A",
                    "--lambda", "1", "--json")
    assert code == 0 and json.loads(out)["holds"]

    code, out = run(capsys, "tao", "--in", path, "--V", "C", "--W", "C",
                    "--epsilon", "1", "--json")
    assert code == 0


def test_group_sweep_z5(capsys):
    code, out = run(capsys, "group-sweep", "--fixture", "Z5", "--exhaustive",
                    "--json")
    assert code == 0
    data = json.loads(out)
    assert data["pairs_checked"] == 961 and data["ok"]


def test_monoid_check_counterexample(capsys):
    code, out = run(capsys, "monoid-check", "--fixture", "paper-m7",
                    "--A", "1,a,b", "--B", "1,a,b", "--lambda", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["|BA|"] == 4
    assert data["kneser_rhs"] == 5 and not data["kneser_bound_holds"]
    assert data["hamidoune_bound_holds"]


def test_monoid_check_in_a_group_holds(capsys):
    # Q[Z3] at lambda = 1: the exact atom is all of Q[Z3], so the rhs is
    # 2 + 3 - 3 = 2 <= |BA| = 3 (the scalars as a candidate gave rhs 4)
    code, out = run(capsys, "monoid-check", "--fixture", "Z3", "--A", "0,1",
                    "--B", "0,1,2", "--lambda", "1", "--json")
    data = json.loads(out)
    assert code == 0
    assert (data["hamidoune_bound_holds"], data["atom_dim"], data["atom_exact"]) == (True, 3, True)


def test_monoid_check_passed_candidate_exits_0(capsys):
    code = cli.main(["monoid-check", "--fixture", "Z3", "--A", "0,1",
                     "--B", "0,1,2", "--lambda", "1/2", "--json"])
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert code == 0 and captured.err == ""
    assert (data["hamidoune_bound_holds"], data["atom_exact"]) == (True, False)


def test_monoid_check_failed_candidate_exits_3(capsys):
    code = cli.main(["monoid-check", "--fixture", "Z4", "--A", "0,1,2",
                     "--B", "0,1,2,3", "--lambda", "1/2", "--json"])
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert code == 3
    assert (data["hamidoune_bound_holds"], data["atom_exact"]) == (None, False)
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_exit_code_schema_errors(capsys, tmp_path):
    code, _ = run(capsys, "classify", "--fixture", "NOPE")
    assert code == 2
    code, _ = run(capsys, "classify", "--in", str(tmp_path / "missing.json"))
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run(capsys, "info", "--in", str(bad))
    assert code == 2
    path = write_instance(tmp_path, Q4_INSTANCE)
    code, _ = run(capsys, "span", "--in", path, "--V", "Z")
    assert code == 2
    # "subspaces" not an object, falsy ones too; a subspace row not a list
    for name, subspaces in (("list.json", [1]), ("row.json", {"A": [1]}),
                            ("empty.json", []), ("zero.json", 0),
                            ("false.json", False), ("blank.json", "")):
        path = write_instance(tmp_path, {**Q4_INSTANCE, "subspaces": subspaces}, name)
        code, _ = run(capsys, "info", "--in", path)
        assert code == 2
    # a table entry out of range, read as a table without building the algebra
    table = {"algebra": {"kind": "group_table", "table": [[0, 5], [1, 0]]}}
    code, _ = run(capsys, "group-sweep", "--in", write_instance(tmp_path, table, "t.json"))
    assert code == 2
    # a unit index outside the table, more labels than elements, and a
    # repeated label, which would leave an element without a name
    for name, desc, argv in (
            ("unit.json", {"kind": "monoid_table", "table": [[1, 0], [0, 1]], "unit": -1},
             ["info"]),
            ("labels.json", {"kind": "group_table", "table": [[0, 1], [1, 0]],
                             "labels": ["e", "a", "b"]},
             ["monoid-check", "--A", "e", "--B", "e,b", "--lambda", "1"]),
            ("repeated.json", {"kind": "group_table", "table": [[0, 1], [1, 0]],
                               "labels": ["e", "e"]},
             ["monoid-check", "--A", "e", "--B", "e", "--lambda", "1"])):
        path = write_instance(tmp_path, {"algebra": desc}, name)
        code = cli.main([argv[0], "--in", path, *argv[1:]])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
    # the dense entry point's shape checks: dimension, tensor shape, unit length
    square = [[["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]]
    for name, table, unit, message in (
            ("no-cells.json", [], [], "algebra must have positive dimension"),
            ("ragged.json", [square[0], [["0", "1"], ["1"]]], ["1", "0"],
             "structure-constant tensor is not n x n x n"),
            ("short-unit.json", square, ["1"], "unit vector has wrong length")):
        desc = {"kind": "structure_constants", "table": table, "unit": unit}
        code = cli.main(["info", "--in", write_instance(tmp_path, {"algebra": desc}, name)])
        assert (code, capsys.readouterr().err) == (2, f"error: {message}\n")
    # a table, row, cell or unit given as a string, which iterates by character
    for name, table, unit, what in (
            ("cells.json", [["10", "01"], ["01", "10"]], "10", "structure-constant cell"),
            ("rows.json", ["1001", "0110"], ["1", "0"], "structure-constant row"),
            ("table.json", "10", ["1", "0"], "structure-constant table"),
            ("unit.json", square, "10", "unit")):
        desc = {"kind": "structure_constants", "table": table, "unit": unit}
        code = cli.main(["info", "--in", write_instance(tmp_path, {"algebra": desc}, name)])
        assert (code, capsys.readouterr().err) == (2, f"error: {what} must be a JSON array\n")
    # a monoid table, row or labels given as a string, a boolean unit or
    # entry, and a label or element label that is not a string
    monoid_check = ["monoid-check", "--A", "e", "--B", "e,a", "--lambda", "1"]
    for name, desc, argv, message in (
            ("int-labels.json", {"kind": "group_table", "table": [[0, 1], [1, 0]],
                                 "labels": [1, 2]},
             ["info"], "element label must be a string"),
            ("list-label.json", {"kind": "poly_quotient_product", "factors": [["0", "1"]],
                                 "label": ["x"]},
             ["info"], "label must be a string"),
            ("table-label.json", {"kind": "group_table", "table": [[0, 1], [1, 0]],
                                  "label": 2},
             ["group-sweep"], "label must be a string"),
            ("labels.json", {"kind": "group_table", "table": [[0, 1], [1, 0]], "labels": "ea"},
             monoid_check, "labels must be a JSON array"),
            ("bool-unit.json", {"kind": "monoid_table", "table": [[1, 0], [0, 1]], "unit": True,
                                "labels": ["a", "e"]},
             monoid_check, "table unit must be an integer"),
            ("bool-entry.json", {"kind": "group_table", "table": [[0, True], [True, 0]]},
             ["info"], "table entry must be an integer"),
            ("table-rows.json", {"kind": "group_table", "table": ["01", "10"]},
             ["group-sweep"], "table row must be a JSON array"),
            ("table-string.json", {"kind": "group_table", "table": "0110"},
             ["group-sweep"], "table must be a JSON array")):
        path = write_instance(tmp_path, {"algebra": desc}, name)
        code = cli.main([argv[0], "--in", path, *argv[1:]])
        assert (code, capsys.readouterr().err) == (2, f"error: {message}\n")


def test_monoid_table_entries_out_of_range_exit_2_naming_the_cell(capsys, tmp_path):
    # -1 used to wrap as an index and fail associativity; 5 used to end in
    # "bad monoid table: tuple index out of range"
    for rows, cell in (([[0, 1], [1, -1]], "-1 at (1,1)"), ([[0, 1], [1, 5]], "5 at (1,1)")):
        path = write_instance(tmp_path, {"algebra": {"kind": "monoid_table", "table": rows}})
        for argv in (["info", "--in", path], ["group-sweep", "--in", path],
                     ["monoid-check", "--in", path, "--A", "0", "--B", "0", "--lambda", "1"]):
            assert cli.main(argv) == 2
            assert capsys.readouterr() == ("", f"error: table entry {cell} is not in 0..1\n")


def test_table_errors_come_row_by_row(capsys, tmp_path):
    # each row is checked in full before the next, as the first error names
    for name, rows, message in (
            ("entry-first.json", [[0, True], "10"], "table entry must be an integer"),
            ("row-first.json", ["01", [0, True]], "table row must be a JSON array"),
            ("late-entry.json", [[0, 1], [1, 0.5]], "table entry must be an integer")):
        path = write_instance(tmp_path, {"algebra": {"kind": "group_table", "table": rows}},
                              name)
        assert cli.main(["group-sweep", "--in", path]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_instance_nested_past_the_recursion_limit_exits_2(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text('{"algebra": ' + "[" * 100_000 + "]" * 100_000 + "}")
    code = cli.main(["info", "--in", str(deep), "--json"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read instance file") and err.count("\n") == 1


def test_description_nested_past_the_recursion_limit_is_a_schema_error():
    leaf = {"kind": "poly_quotient_product", "factors": [["0", "1"]]}
    desc = leaf
    for _ in range(sys.getrecursionlimit()):
        desc = {"kind": "direct_product", "left": desc, "right": leaf}
    with pytest.raises(SchemaError, match="nested too deeply"):
        algebra_from_desc(desc)


def test_absent_or_null_subspaces_mean_none(capsys, tmp_path):
    for name, inst in (("absent.json", {"algebra": Q4_INSTANCE["algebra"]}),
                       ("null.json", {**Q4_INSTANCE, "subspaces": None})):
        code, out = run(capsys, "info", "--in", write_instance(tmp_path, inst, name), "--json")
        assert code == 0 and json.loads(out)["subspaces"] == {}


def test_json_integers_are_rationals_and_booleans_are_not(capsys, tmp_path):
    ints = {**Q4_INSTANCE, "subspaces": {"A": [[1, 0, 0, 1], [0, 1, 2, 0]]}}
    want = run(capsys, "span", "--in", write_instance(tmp_path, Q4_INSTANCE), "--V", "A", "--json")
    got = run(capsys, "span", "--in", write_instance(tmp_path, ints, "ints.json"), "--V", "A",
              "--json")
    assert got == want and want[0] == 0
    bools = {**Q4_INSTANCE, "subspaces": {"A": [[True, 0, 0, 1]]}}
    code = cli.main(["span", "--in", write_instance(tmp_path, bools, "bools.json"), "--V", "A"])
    assert (code, capsys.readouterr().err) == (2, "error: not a rational: True\n")


def test_companion_and_direct_product_instances(capsys, tmp_path):
    comp = {"kind": "companion", "polys": [["-1", "1"], ["-2", "1"]]}
    nilp = {"kind": "poly_quotient_product", "factors": [["0", "0", "1"]]}
    cases = (
        (comp, companion_algebra([Poly.of(-1, 1), Poly.of(-2, 1)])),
        ({"kind": "direct_product", "left": nilp, "right": comp, "label": "P"},
         direct_product(poly_quotient_product([Poly.monomial(2)]),
                        companion_algebra([Poly.of(-1, 1), Poly.of(-2, 1)]), label="P")),
    )
    for i, (desc, alg) in enumerate(cases):
        path = write_instance(tmp_path, {"algebra": desc}, f"kind{i}.json")
        _, loaded, _ = load_instance(path)
        assert (loaded.table, loaded.unit, loaded.label) == (alg.table, alg.unit, alg.label)
        code, out = run(capsys, "info", "--in", path, "--json")
        data = json.loads(out)
        assert code == 0 and (data["label"], data["dim"]) == (alg.label, alg.dim)
    # a malformed description nested inside a direct product
    for i, right in enumerate(({"kind": "companion"}, {"kind": "companion", "polys": [["1"]]},
                               5, {"kind": "nope"})):
        desc = {"kind": "direct_product", "left": nilp, "right": right}
        path = write_instance(tmp_path, {"algebra": desc}, f"bad{i}.json")
        assert run(capsys, "info", "--in", path)[0] == 2


def structure_constants(alg):
    """alg's constants as a structure_constants description."""
    return {"kind": "structure_constants", "label": alg.label, "unit": list(map(str, alg.unit)),
            "table": [[list(map(str, cell)) for cell in row] for row in alg.table]}


def test_structure_constants_q_n_gets_the_exact_atom(capsys, tmp_path):
    # Q^4 read from its constants has the idempotent basis, so the exact
    # atom runs on it and agrees with the poly_quotient_product description
    sc = {**Q4_INSTANCE, "algebra": structure_constants(split_etale_algebra(4))}
    paths = write_instance(tmp_path, Q4_INSTANCE), write_instance(tmp_path, sc, "sc.json")
    code, out = run(capsys, "info", "--in", paths[1], "--json")
    assert code == 0 and json.loads(out)["split_etale"]
    for lam in ("1/2", "1"):
        outs = [run(capsys, "atom", "--in", p, "--V", "A", "--lambda", lam, "--json")
                for p in paths]
        assert outs[0] == outs[1] and outs[0][0] == 0


def test_kneser_noncommutative_exit_follows_the_plain_bound(capsys, tmp_path):
    m2 = matrix_algebra(2)
    inst = {"algebra": structure_constants(m2),
            "subspaces": {"A": [["1", "1", "0", "1"]], "B": [["0", "1", "0", "0"],
                                                         ["1", "0", "0", "0"]]}}
    code, out = run(capsys, "kneser", "--in", write_instance(tmp_path, inst), "--A", "A",
                    "--B", "B", "--json")
    data = json.loads(out)
    assert "strong_bound_holds" not in data and "dim_HA" not in data
    assert code == (0 if data["bound_holds"] else 1) == 0


# Q[S3] with A = span(e) and B = span((12), (012)): span(AB) = B, its left
# stabilizer H has dim 2 and span(BH) has dim 4, so the strengthened bound
# with H on the right reads false; it is a theorem only for commutative algebras
QS3_INSTANCE = {
    "algebra": {**fixtures.table_fixture("S3").to_json(), "kind": "group_table",
                "label": "QS3"},
    "subspaces": {"A": [[1, 0, 0, 0, 0, 0]], "B": [[0, 1, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0]]},
}


def test_nfold_noncommutative_exit_follows_the_plain_bound(capsys, tmp_path):
    path = write_instance(tmp_path, QS3_INSTANCE)
    code, out = run(capsys, "nfold", "--in", path, "--spaces", "A,B", "--json")
    data = json.loads(out)
    assert "strong_bound_holds" not in data and "dims_AiH" not in data
    assert code == 0 and data["bound_holds"]
    code, out = run(capsys, "kneser", "--in", path, "--A", "A", "--B", "B", "--json")
    pair = json.loads(out)
    assert code == 0 and (pair["dim_AB"], pair["dim_H"]) == (data["dim_product"], data["dim_H"])


def test_monoid_check_b_missing_the_unit_group_exits_2(capsys):
    code = cli.main(["monoid-check", "--fixture", "paper-m7", "--A", "1,a", "--B", "a,b",
                     "--lambda", "1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: B misses the unit group of the monoid\n"


@pytest.mark.parametrize("argv", [
    ["nfold", "--spaces", "A"],
    ["nfold", "--spaces", ""],
    ["gen", "--family", "split", "--dims", "x"],
    ["gen", "--family", "group", "--dims", "2,x"],
    ["classify", "--fixture", "QT2", "--trials", "-1"],
    ["certificate", "--A", "A", "--B", "B", "--trials", "-3"],
    ["group-sweep", "--fixture", "Z5", "--count", "-1"],
    ["atom", "--V", "A", "--lambda", "1", "--cap", "-1"],
    ["classify", "--fixture", "QT2", "--trials", "x"],
    ["gen", "--family", "polyprod", "--n", "12"],
    ["gen", "--family", "split", "--n", "0"],
    ["gen", "--family", "group", "--n", "0"],
    ["classify", "--fixture", "QT2", "--seed=--"],
    ["classify", "--fixture", "QT2", "--trials=--"],
    ["group-sweep", "--fixture", "Z5", "--seed=--"],
    ["group-sweep", "--fixture", "Z5", "--count=--"],
    ["gen", "--family", "split", "--dims=--"],
    ["atom", "--V=--", "--lambda", "1"],
    ["atom", "--V", "A", "--lambda=--"],
])
def test_exit_code_malformed_nfold_and_gen(capsys, tmp_path, argv):
    if argv[0] in ("nfold", "atom"):
        argv = argv + ["--in", write_instance(tmp_path, Q4_INSTANCE)]
    code = cli.main(argv + ["--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("family, n, message", [
    ("split", "0", "split dimension must be at least 1, got 0"),
    ("group", "-1", "group order must be at least 1, got -1"),
])
def test_gen_n_below_one_names_the_family(capsys, family, n, message):
    code = cli.main(["gen", "--family", family, "--n", n])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


# A valid call of every subcommand: (source flags, other flags).  "@INST"
# stands for a file holding Q4_INSTANCE.
VALID_CALLS = {
    "fixtures": ([], []),
    "validate": (["--in", "@INST"], []),
    "info": (["--in", "@INST"], []),
    "span": (["--in", "@INST"], ["--V", "A"]),
    "product": (["--in", "@INST"], ["--A", "A", "--B", "B"]),
    "stabilizer": (["--in", "@INST"], ["--V", "A"]),
    "annihilator": (["--in", "@INST"], ["--V", "C"]),
    "classify": (["--fixture", "QT2"], []),
    "certificate": (["--in", "@INST"], ["--A", "A", "--B", "B"]),
    "kneser": (["--in", "@INST"], ["--A", "A", "--B", "B"]),
    "nfold": (["--in", "@INST"], ["--spaces", "A,B,C"]),
    "atom": (["--in", "@INST"], ["--V", "A", "--lambda", "1/2"]),
    "hamidoune": (["--in", "@INST"], ["--W", "B", "--V", "A", "--lambda", "1"]),
    "tao": (["--in", "@INST"], ["--V", "C", "--W", "C", "--epsilon", "1"]),
    "group-sweep": (["--fixture", "Z3"], []),
    "monoid-check": (["--fixture", "paper-m7"],
                     ["--A", "1,a,b", "--B", "1,a,b", "--lambda", "1"]),
    "gen": ([], ["--family", "split"]),
}
SPACE_FLAGS = {"span": ["--V"], "product": ["--A", "--B"], "stabilizer": ["--V"],
               "annihilator": ["--V"], "certificate": ["--A", "--B"],
               "kneser": ["--A", "--B"], "nfold": ["--spaces"], "atom": ["--V"],
               "hamidoune": ["--W", "--V"], "tao": ["--V", "--W"]}
# rational flags and the interval each must lie in: (flag, low, high, high included)
RATIONAL_FLAGS = {"atom": ("--lambda", 0, 1, True), "hamidoune": ("--lambda", 0, 1, True),
                  "monoid-check": ("--lambda", 0, 1, True), "tao": ("--epsilon", 0, 2, False)}
TABLE_COMMANDS = ("group-sweep", "monoid-check")
GEN_N_RANGE = {"split": (1, None), "group": (1, None), "polyprod": (1, 9)}
GEN_DEFAULT_N = {"split": 4, "group": 5, "polyprod": 3}


def _is_int(text):
    try:
        int(text)
    except ValueError:
        return False
    return True


NOT_INT = st.text(alphabet="0123456789-+./ex", max_size=5).filter(lambda t: not _is_int(t))
NAME = st.text(alphabet=string.ascii_letters + string.digits + "[]-", min_size=1, max_size=8)


@st.composite
def malformed_calls(draw):
    """argv of one subcommand with one flag malformed or out of range."""
    cmd = draw(st.sampled_from(sorted(VALID_CALLS)))
    source, rest = VALID_CALLS[cmd]
    faults = ["int", "negative"]
    if source:
        faults.append("source")
    if cmd in SPACE_FLAGS:
        faults.append("space")
    if cmd in RATIONAL_FLAGS:
        faults.append("rational")
    if cmd == "monoid-check":
        faults.append("label")
    if cmd == "group-sweep":
        faults.append("count")
    if cmd == "gen":
        faults += ["gen-n", "gen-dims"]
    fault = draw(st.sampled_from(faults))
    extra = []
    if fault == "int":
        flag = draw(st.sampled_from(["--seed", "--threads", "--trials", "--cap"]
                                    + (["--n"] if cmd == "gen" else [])))
        extra = [f"{flag}={draw(NOT_INT)}"]
    elif fault == "negative":
        flag = draw(st.sampled_from(["--trials", "--cap"]))
        extra = [f"{flag}={draw(st.integers(max_value=-1))}"]
    elif fault == "count":
        extra = [f"--count={draw(st.one_of(st.integers(max_value=-1), NOT_INT))}"]
    elif fault == "source":
        known = fixtures.TABLE_NAMES if cmd in TABLE_COMMANDS else fixtures.ALGEBRA_NAMES
        source = draw(st.sampled_from([
            [],
            ["--in", "@MISSING"],
            ["--fixture=" + draw(NAME.filter(lambda t: t not in known))],
        ]))
    elif fault == "space":
        flag = draw(st.sampled_from(SPACE_FLAGS[cmd]))
        names = draw(st.lists(NAME.filter(lambda t: t not in Q4_INSTANCE["subspaces"]),
                              min_size=1, max_size=3))
        extra = [f"{flag}={','.join(names)}"]
    elif fault == "rational":
        flag, low, high, closed = RATIONAL_FLAGS[cmd]

        def bad(text):
            try:
                q = parse_rat(text)
            except SchemaError:
                return True
            return not (low < q and (q <= high if closed else q < high))

        value = draw(st.one_of(st.fractions().map(str), st.text("0123456789/-.ex", max_size=5))
                     .filter(bad))
        extra = [f"{flag}={value}"]
    elif fault == "label":
        extra = [f"--A=1,{draw(NAME.filter(lambda t: t not in '1ab'))}"]
    elif fault == "gen-n":
        family = draw(st.sampled_from(sorted(GEN_N_RANGE)))
        low, high = GEN_N_RANGE[family]
        n = draw(st.integers(-10 ** 6, 10 ** 6).filter(
            lambda n: n < low or (high is not None and n > high)))
        extra = [f"--family={family}", f"--n={n}"]
    elif fault == "gen-dims":
        family = draw(st.sampled_from(sorted(GEN_N_RANGE)))
        n = GEN_DEFAULT_N[family]
        bad_dim = st.integers(max_value=0) if family == "polyprod" else st.one_of(
            st.integers(max_value=0), st.integers(n + 1, 10 ** 6))
        dims = draw(st.lists(st.integers(1, min(n, 3)), max_size=2))
        dims.insert(draw(st.integers(0, len(dims))), draw(bad_dim))
        extra = [f"--family={family}", f"--dims={','.join(map(str, dims))}"]
    return [cmd, *source, *rest, *extra]


@settings(max_examples=300, deadline=None)
@given(malformed_calls())
def test_malformed_flags_exit_2_or_3_with_one_error_line(tmp_path_factory, argv):
    inst = tmp_path_factory.getbasetemp() / "q4-cli.json"
    inst.write_text(dumps(Q4_INSTANCE))
    missing = tmp_path_factory.getbasetemp() / "missing.json"
    argv = [str(inst) if a == "@INST" else str(missing) if a == "@MISSING" else a
            for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (2, 3), argv
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), (argv, lines)


# Generated instance files to mutate, and the arguments each subcommand
# that reads --in takes besides it.
FUZZ_SEEDS = [gen.gen_instance(family, 0, n=n).to_json()
              for family, n in (("split", 4), ("group", 7), ("polyprod", 3))]
FUZZ_CALLS = {"validate": [], "info": [], "span": ["--V", "A"],
              "product": ["--A", "A", "--B", "B"], "stabilizer": ["--V", "A"],
              "annihilator": ["--V", "A", "--side", "right"], "classify": ["--trials", "4"],
              "certificate": ["--A", "A", "--B", "B"], "kneser": ["--A", "A", "--B", "B"],
              "nfold": ["--spaces", "A,B"], "atom": ["--V", "A", "--lambda", "1/2"],
              "hamidoune": ["--W", "B", "--V", "A", "--lambda", "1"],
              "tao": ["--V", "A", "--W", "B", "--epsilon", "1/2"],
              "group-sweep": ["--count", "5"],
              "monoid-check": ["--A", "0,1", "--B", "0", "--lambda", "1/2"]}
SWAPS = (None, True, 0, 2, -1, 1.5, "x", "1/0", [], {})


def _paths(node, path=()):
    """The path of every node below the root, as keys and indices."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@st.composite
def mutated_instances(draw):
    """A generated instance file with one to three type swaps, deletions or
    duplications, each at a node drawn from the whole tree."""
    inst = json.loads(json.dumps(draw(st.sampled_from(FUZZ_SEEDS))))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(inst))
        if not paths:
            break
        *parent_path, key = draw(st.sampled_from(paths))
        parent = inst
        for step in parent_path:
            parent = parent[step]
        op = draw(st.sampled_from(("swap", "delete", "duplicate")))
        if op == "swap":
            parent[key] = draw(st.sampled_from(SWAPS))
        elif op == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, json.loads(json.dumps(parent[key])))
        else:
            other = draw(st.sampled_from(sorted(parent)))
            parent[key] = json.loads(json.dumps(parent[other]))
    return inst


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutated_instances(), st.sampled_from(sorted(FUZZ_CALLS)))
def test_mutated_instance_files_keep_the_exit_contract(tmp_path_factory, inst, cmd):
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(inst))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([cmd, "--in", str(path), *FUZZ_CALLS[cmd], "--json"])
    assert code in (0, 1, 2, 3), (cmd, inst)
    if code in (2, 3):
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (cmd, inst, lines)


# Declared options no handler reads: gen prints its instance as JSON
# whatever --json says, and --threads is kept for callers that pass it.
# So are certificate's --trials and --seed: the e-transform recursion
# samples no pivots, and the invertibility search samples from one fixed
# stream.  So are classify's --trials and --seed: its generator search
# samples nothing.
UNREAD_OPTIONS = {"gen": {"json"}, "group-sweep": {"threads"}, "certificate": {"trials", "seed"},
                  "classify": {"trials", "seed"}}


class ReadRecorder:
    """Stands in for a parsed namespace and records the attributes read."""

    def __init__(self, namespace):
        self.namespace, self.read = namespace, set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self.namespace, name)


@pytest.mark.parametrize("cmd", sorted(VALID_CALLS))
def test_every_declared_option_is_read(capsys, tmp_path, cmd):
    inst = write_instance(tmp_path, Q4_INSTANCE)
    source, rest = VALID_CALLS[cmd]
    parser = cli.build_parser()
    args = parser.parse_args([cmd, *(inst if a == "@INST" else a for a in source), *rest])
    subparser = parser._subparsers._group_actions[0].choices[cmd]
    declared = {a.dest for a in subparser._actions if a.option_strings and a.dest != "help"}
    recorder = ReadRecorder(args)
    assert args.func(recorder) == 0
    capsys.readouterr()
    assert recorder.read == declared - UNREAD_OPTIONS.get(cmd, set())


@pytest.mark.parametrize("cmd", sorted(set(VALID_CALLS) - {"gen"}))
def test_text_mode_carries_the_json_payload(capsys, tmp_path, cmd):
    # one `key: value` line per JSON key, in sorted order: a list or an
    # object as its JSON, any other value as its str
    inst = write_instance(tmp_path, Q4_INSTANCE)
    source, rest = VALID_CALLS[cmd]
    argv = [cmd, *(inst if a == "@INST" else a for a in source), *rest]
    code, out = run(capsys, *argv)
    json_code, json_out = run(capsys, *argv, "--json")
    payload = json.loads(json_out)
    lines = [line.partition(": ") for line in out.splitlines()]
    assert code == json_code and all(sep for _, sep, _ in lines), out
    assert [key for key, _, _ in lines] == sorted(payload)
    for key, _, text in lines:
        want = payload[key]
        if isinstance(want, (dict, list)):
            assert json.loads(text) == want, key
        else:
            assert text == str(want), key


def test_exit_code_oracle_unavailable(capsys, tmp_path):
    # atom on a non-split algebra is exit 3
    inst = {
        "algebra": {"kind": "poly_quotient_product", "factors": [["0", "0", "1"]],
                    "label": "QT2x"},
        "subspaces": {"V": [["1", "0"], ["0", "1"]]},
    }
    path = write_instance(tmp_path, inst)
    code, _ = run(capsys, "atom", "--in", path, "--V", "V", "--lambda", "1")
    assert code == 3
    # enumeration cap exceeded is exit 3 too
    path2 = write_instance(tmp_path, Q4_INSTANCE, "q4.json")
    code, _ = run(capsys, "atom", "--in", path2, "--V", "A", "--lambda", "1",
                  "--cap", "2")
    assert code == 3


def test_hamidoune_at_lambda_one_answers_where_the_atom_command_refuses(capsys, tmp_path):
    # the same non-split algebra and cap as above: the lambda = 1 atom needs
    # only an invertible in V, while other lambda still exit 3
    inst = {
        "algebra": {"kind": "poly_quotient_product", "factors": [["0", "0", "1"]],
                    "label": "QT2x"},
        "subspaces": {"V": [["1", "0"], ["0", "1"]]},
    }
    path = write_instance(tmp_path, inst)
    code, out = run(capsys, "hamidoune", "--in", path, "--W", "V", "--V", "V",
                    "--lambda", "1", "--json")
    data = json.loads(out)
    assert code == 0 and (data["atom_dim"], data["slack"]) == (2, "0")
    code, _ = run(capsys, "hamidoune", "--in", path, "--W", "V", "--V", "V",
                  "--lambda", "1/2")
    assert code == 3
    path2 = write_instance(tmp_path, Q4_INSTANCE, "q4.json")
    code, out = run(capsys, "hamidoune", "--in", path2, "--W", "B", "--V", "A",
                    "--lambda", "1", "--cap", "2", "--json")
    assert code == 0 and json.loads(out)["holds"]
    code, _ = run(capsys, "hamidoune", "--in", path2, "--W", "B", "--V", "A",
                  "--lambda", "1/2", "--cap", "2")
    assert code == 3


def test_invalid_structure_constants_exit_2(capsys, tmp_path):
    inst = {
        "algebra": {
            "kind": "structure_constants",
            "table": [[["1", "0"], ["0", "1"]], [["1", "0"], ["0", "1"]]],
            "unit": ["1", "0"],
        },
    }
    path = write_instance(tmp_path, inst)
    # structure constants are validated at build time, surfacing as exit 2
    code, _ = run(capsys, "validate", "--in", path)
    assert code == 2


def test_gen_deterministic_and_loadable(capsys, tmp_path):
    outs = []
    for _ in range(3):
        code, out = run(capsys, "gen", "--family", "split", "--seed", "1",
                        "--n", "4", "--dims", "2,2")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    path = tmp_path / "gen.json"
    path.write_text(outs[0])
    raw, alg, spaces = load_instance(str(path))
    assert alg.dim == 4 and spaces["A"].dim == 2 and spaces["B"].dim == 2


def test_gen_families():
    inst = gen.gen_instance("group", 2, n=7, dims=(2, 3))
    assert inst.algebra.dim == 7
    assert inst.subspaces["A"].dim == 2 and inst.subspaces["B"].dim == 3
    assert inst.subsets["A"] == tuple(sorted(inst.subsets["A"]))

    inst = gen.gen_instance("polyprod", 5, n=3, dims=(2, 2))
    from addalg import classify

    assert classify.finite_subalgebras_verdict(inst.algebra).kind == "Finite"

    with pytest.raises(SchemaError):
        gen.gen_instance("nope", 0)


def test_polyprod_instances_are_finite_at_the_first_candidate():
    # P has distinct integer roots, so Q[T]/(P) is Q^n and T (or 1 when n = 1)
    # generates it; gen does not classify, so the invariant is pinned here
    for n in range(1, 10):
        for seed in range(5):
            verdict = classify.finite_subalgebras_verdict(
                gen.gen_instance("polyprod", seed, n=n).algebra)
            assert (verdict.kind, verdict.trials_used) == ("Finite", 1), (n, seed)


def test_gen_instance_does_not_classify(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("gen classified an algebra")

    monkeypatch.setattr(classify, "finite_subalgebras_verdict", refuse)
    for family in gen.FAMILIES:
        assert gen.gen_instance(family, 3).algebra.dim >= 1


def test_gen_reruns_are_identical_objects():
    a = gen.gen_instance("split", 9, n=5, dims=(2, 3))
    b = gen.gen_instance("split", 9, n=5, dims=(2, 3))
    assert a.to_json() == b.to_json()
    c = gen.gen_instance("split", 10, n=5, dims=(2, 3))
    assert a.to_json() != c.to_json()


def test_golden_determinism_across_runs_and_threads(capsys):
    goldens = {}
    cmds = {
        "classify": ["classify", "--fixture", "QT4", "--json"],
        "monoid": ["monoid-check", "--fixture", "paper-m7", "--A", "1,a,b",
                   "--B", "1,a,b", "--lambda", "1", "--json"],
        "sweep": ["group-sweep", "--fixture", "Z4", "--exhaustive", "--json"],
    }
    for name, argv in cmds.items():
        runs = [run(capsys, *argv)[1] for _ in range(3)]
        assert runs[0] == runs[1] == runs[2], name
        goldens[name] = runs[0]
    # thread count must not change the bytes
    for threads in ("1", "8"):
        _, out = run(capsys, "group-sweep", "--fixture", "Z4", "--exhaustive",
                     "--json", "--threads", threads)
        assert out == goldens["sweep"]


def test_human_output_mode(capsys):
    code, out = run(capsys, "classify", "--fixture", "QT2")
    assert code == 0
    assert "verdict: Finite" in out
