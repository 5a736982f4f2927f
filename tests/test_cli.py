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

from addalg import cli, fixtures, gen
from addalg.errors import SchemaError
from addalg.serialize import dumps, load_instance, parse_rat


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
    # "subspaces" not an object; a subspace row not a list
    for name, subspaces in (("list.json", [1]), ("row.json", {"A": [1]})):
        path = write_instance(tmp_path, {**Q4_INSTANCE, "subspaces": subspaces}, name)
        code, _ = run(capsys, "info", "--in", path)
        assert code == 2
    # a table entry out of range, read as a table without building the algebra
    table = {"algebra": {"kind": "group_table", "table": [[0, 5], [1, 0]]}}
    code, _ = run(capsys, "group-sweep", "--in", write_instance(tmp_path, table, "t.json"))
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
    ["gen", "--family", "polyprod", "--n", "12"],
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


# Declared options no handler reads: gen prints its instance as JSON
# whatever --json says, and --threads is kept for callers that pass it.
UNREAD_OPTIONS = {"gen": {"json"}, "group-sweep": {"threads"}}


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
