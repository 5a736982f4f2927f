import json

import pytest

from addalg import cli, gen
from addalg.errors import SchemaError
from addalg.serialize import dumps, load_instance


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
])
def test_exit_code_malformed_nfold_and_gen(capsys, tmp_path, argv):
    if argv[0] == "nfold":
        argv = argv + ["--in", write_instance(tmp_path, Q4_INSTANCE)]
    code = cli.main(argv + ["--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


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


def test_exit_code_violation_on_failed_validation(capsys, tmp_path):
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
