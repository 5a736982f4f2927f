"""CLI goldens re-derived from the reference alone.

Each stabilizer, annihilator, kneser, nfold, group-sweep and monoid-check
record of golden_cli.json, and each hamidoune record at lambda = 1, is
recomputed from its argv and its instance with perfbench/ref.py and
tests/oracles.py, not with addalg.  Every certificate record is
checked against the e-transform certificate's invariants instead, since
its space and subalgebra are not the only ones that satisfy them, and
every classify record against the fixture's definition: a generator's
reference minimal polynomial has degree dim, its Yun decomposition is
the profile and decides the verdict, and a NotMonogenic verdict has a
commutant dimension other than dim J/J^2.  An
"@NAME" instance is the literal of golden_cases.INSTANCES or the
recorded stdout of the command saved as NAME, and its products come from
ref.Mult.from_desc, or from the dense tensor of a structure-constant
description.  The paper-m7 table is written from its presentation, and
the cyclic ones are ref's, and so is graded-m's.  A golden recorded from a wrong library answer
fails here even when it replays byte for byte.
"""

import json
from fractions import Fraction

import pytest

from golden_cases import GOLDEN, INSTANCES, cases
from oracles import (
    generated_subalgebra,
    monoid_atom_dim,
    monoid_hamidoune_holds,
    ref,
    ref_commutant_dim,
    ref_matrix_tensor,
    ref_min_poly,
    ref_mul,
    ref_side,
    ref_tensor,
    yun,
)

REBUILT = ("stabilizer", "annihilator", "kneser", "nfold", "group-sweep", "monoid-check")
DERIVED = REBUILT + ("certificate", "classify")
INDICES = [i for i, (argv, _) in enumerate(cases()) if argv[0] in REBUILT]
CERTIFICATES = [i for i, (argv, _) in enumerate(cases()) if argv[0] == "certificate"]
CLASSIFIED = [i for i, (argv, _) in enumerate(cases()) if argv[0] == "classify"]
LAMBDA_ONE = [i for i, (argv, _) in enumerate(cases())
              if argv[0] == "hamidoune" and argv[argv.index("--lambda") + 1] == "1"]
TABLES = {"Z5": ref.cyclic_table(5), "S3": ref.s3_table()}
UNDECIDED = "error: no exact atom at lambda {}, and the candidate atom's bound fails\n"


def _presented(words, rules):
    """The table of a monoid on its normal words: a product is the
    concatenated word, rewritten by the first rule that applies until none
    does."""
    def normal(word):
        while any(lhs in word for lhs, _ in rules):
            for lhs, rhs in rules:
                word = word.replace(lhs, rhs, 1)
        return word

    return [[words.index(normal(x + y)) for y in words] for x in words]


# a^2 = b^2 = ab = ba: a word of length two or more is a power of a
SQUARES = (("ab", "aa"), ("ba", "aa"), ("bb", "aa"))


def _paper_m7():
    """(labels, table) of the monoid <a, b | a^2 = b^2 = ab = ba, a^4 = a>.

    A word of length two or more is a power of a, and a^4 = a leaves a,
    a^2 and a^3; so the elements are 1, a, b, a^2 and a^3.
    """
    return ["1", "a", "b", "a2", "a3"], _presented(["", "a", "b", "aa", "aaa"],
                                                  SQUARES + (("aaaa", "a"),))


def _graded_m():
    """The table of <a, b, z | a^2 = b^2 = ab = ba, a^4 = z, z zero>: the
    words 1, a, b, a^2 and a^3, and every longer word collapsed to z."""
    zero = tuple((w, "z") for w in ("za", "az", "zb", "bz", "zz"))
    return _presented(["", "a", "b", "aa", "aaa", "z"], SQUARES + (("aaaa", "z"),) + zero)


MONOIDS = {"paper-m7": _paper_m7(),
           **{f"Z{n}": ([str(i) for i in range(n)], ref.cyclic_table(n)) for n in (3, 4, 6)}}


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


def _monoid_check(flags):
    """The monoid-check report, and its exit code: 3 when a candidate
    atom's bound fails at lambda != 1."""
    labels, table = MONOIDS[flags["--fixture"]]
    a = frozenset(labels.index(x) for x in flags["--A"].split(","))
    b = frozenset(labels.index(x) for x in flags["--B"].split(","))
    lam = Fraction(flags["--lambda"])
    atom_dim = monoid_atom_dim(table, a, lam)
    holds = monoid_hamidoune_holds(table, a, b, lam, atom_dim)
    ba = ref.set_product(table, b, a)
    h_a = ref.set_left_stabilizer(table, a)
    kneser_rhs = len(a) + len(b) - len(ref.set_left_stabilizer(table, ba))
    out = {"fixture": flags["--fixture"], "lambda": str(lam), "|BA|": len(ba),
           "|A|": len(a), "|B|": len(b), "atom_dim": atom_dim, "atom_exact": lam == 1,
           "hamidoune_bound_holds": holds, "|H_A|": len(h_a),
           "atom_dim >= |H_A|": atom_dim >= len(h_a), "kneser_rhs": kneser_rhs,
           "kneser_bound_holds": len(ba) >= kneser_rhs}
    if holds is None:
        return out, 3
    return out, 0 if holds and atom_dim >= len(h_a) else 1


def _mult(desc):
    """The reference product of an algebra description."""
    if desc["kind"] != "structure_constants":
        return ref.Mult.from_desc(desc)
    table = [[[Fraction(c) for c in cell] for cell in row] for row in desc["table"]]
    return ref.Mult(len(table), lambda x, y: list(ref_mul(table, x, y)),
                    [Fraction(c) for c in desc["unit"]])


def _invertible(mult, x):
    """Whether y -> x y has full rank."""
    units = [[Fraction(int(i == j)) for j in range(mult.dim)] for i in range(mult.dim)]
    return ref.rank([mult.mul(x, e) for e in units]) == mult.dim


def _inputs(argv, instances):
    """(flags, reference product, {name: rows}) of a command on an instance."""
    flags = _flags(argv)
    inst = instances[flags["--in"][1:]]
    space = {name: [[Fraction(c) for c in row] for row in rows]
             for name, rows in inst["subspaces"].items()}
    return flags, _mult(inst["algebra"]), space


def check_certificate(rec, instances):
    """The certificate record's claims, each checked from ref.

    a lies in A and is invertible; it is the unit when A holds it, else
    the first invertible row of A's canonical basis when one is.  The
    space V and the subalgebra H satisfy dim B <= dim V <= dim span(AB),
    dim V + dim H >= dim A + dim B and dim H >= 1, and the recursion
    shrank A at most dim A - 1 times.  A refusal for A is a proof: A has a
    zero column k, so the idempotent e_k, nonzero, has e_k x = 0 for every
    row x of A, and no element of A is invertible; the same holds for
    every nonzero z with x z = 0.
    """
    flags, mult, space = _inputs(rec["argv"], instances)
    a_rows, b_rows = space[flags["--A"]], space[flags["--B"]]
    if rec["code"] == 2:
        assert (rec["stdout"], rec["stderr"]) == ("", "error: certificate NO_PROVEN for A\n")
        (k,) = [k for k in range(mult.dim) if not any(x[k] for x in a_rows)]
        e_k = [Fraction(int(i == k)) for i in range(mult.dim)]
        assert mult.mul(e_k, e_k) == e_k and not any(any(mult.mul(e_k, x)) for x in a_rows)
        assert ref_side(mult, "right").left_annihilator(a_rows)
        return
    out = json.loads(rec["stdout"])
    assert rec["code"] == 0 and rec["stderr"] == "" and out.pop("schema_version") == 1
    assert set(out) == {"a", "dim_A", "dim_B", "dim_space", "dim_subalgebra",
                        "recursion_depth", "violations"}
    dim_a, dim_b = ref.rank(a_rows), ref.rank(b_rows)
    assert (out["dim_A"], out["dim_B"], out["violations"]) == (dim_a, dim_b, [])
    a = [Fraction(c) for c in out["a"]]
    assert ref.contains(a_rows, [a]) and _invertible(mult, a)
    if ref.contains(a_rows, [mult.unit]):
        assert a == mult.unit
    else:
        rows = [row for row in ref.basis(a_rows) if _invertible(mult, row)]
        assert not rows or a == rows[0]
    dim_v, dim_h = out["dim_space"], out["dim_subalgebra"]
    assert dim_b <= dim_v <= ref.rank(mult.products(a_rows, b_rows))
    assert dim_v + dim_h >= dim_a + dim_b and dim_h >= 1
    assert 0 <= out["recursion_depth"] < dim_a


def check_lambda_one_hamidoune(rec, instances):
    """The lambda = 1 hamidoune record, from the oracle's atom: the
    subalgebra generated by V u^-1, or exit 2 when V holds no invertible."""
    flags, mult, space = _inputs(rec["argv"], instances)
    v, w = space[flags["--V"]], space[flags["--W"]]
    atom = generated_subalgebra(*ref_tensor(mult), v)
    if atom is None:
        assert (rec["code"], rec["stdout"]) == (2, "")
        assert rec["stderr"] == "error: V must contain an invertible element\n"
        return
    dim_wv, dim_w, dim_v = ref.rank(mult.products(w, v)), ref.rank(w), ref.rank(v)
    rhs = dim_w + dim_v - len(atom)
    out = {"schema_version": 1, "lambda": "1", "dim_WV": dim_wv, "dim_W": dim_w,
           "dim_V": dim_v, "atom_dim": len(atom), "rhs": str(rhs),
           "holds": dim_wv >= rhs, "slack": str(dim_wv - rhs)}
    assert rec["stderr"] == "" and rec["code"] == (0 if dim_wv >= rhs else 1)
    assert json.loads(rec["stdout"]) == out


QUOTIENTS = {**{f"QT{n}": [[0] * n + [1]] for n in (2, 3, 4)}, "QP2": [[1, 0, 2, 0, 1]],
             "QT2xQT2": [[0, 0, 1]] * 2, **{f"Q{n}": [[0, 1]] * n for n in (1, 3, 5)}}
GROUP_LABELS = {"QZ4": "Q[Z4]", "QZ6": "Q[Z6]", "QV4": "Q[V4]", "QS3": "Q[S3]"}


def _fixture_mult(name):
    """The reference product of a classify fixture, from its definition."""
    if name in QUOTIENTS:
        return ref.Mult.from_desc({"kind": "poly_quotient_product", "factors": QUOTIENTS[name]})
    if name == "M2x2":
        table, unit = ref_matrix_tensor(2)
        return ref.Mult(4, lambda x, y: list(ref_mul(table, x, y)), list(unit))
    tables = {"QZ4": ref.cyclic_table(4), "QZ6": ref.cyclic_table(6), "QV4": ref.klein_table(),
              "QS3": ref.s3_table(), "Q[paper-m7]": _paper_m7()[1],
              "Q[graded-m]": _graded_m()}
    return ref.Mult.from_table(tables[name], 0)


def _finite_profile(parts):
    """The profile rule: no repeated factor, or one, linear, of multiplicity 2 or 3."""
    repeated = [(m, f) for m, f in parts if m > 1]
    return not repeated or (len(repeated) == 1 and repeated[0][0] in (2, 3)
                            and len(repeated[0][1]) == 2)


def check_classify(rec):
    """The classify record, from the fixture's definition alone.

    A non-commutative table is Infinite, NonCommutative, with no candidate
    tried.  A record without a generator is NotMonogenic: the commutant
    dimension differs from dim J/J^2, after the 2n + 3 fixed candidates.
    Otherwise the generator's reference minimal polynomial has degree n,
    its Yun decomposition is the profile, and the profile rule gives the
    verdict; the commutant dimension then equals dim J/J^2.
    """
    flags = _flags(rec["argv"])
    name = flags["--fixture"]
    mult = _fixture_mult(name)
    table, unit = ref_tensor(mult)
    n = mult.dim
    out = json.loads(rec["stdout"])
    assert (rec["code"], rec["stderr"], out.pop("schema_version")) == (0, "", 1)
    assert out.pop("label") == GROUP_LABELS.get(name, name)
    if not _commutative(mult):
        assert out == {"verdict": "Infinite", "reason": "NonCommutative", "trials_used": 0}
        return
    end, m = ref_commutant_dim(table)
    if "generator" not in out:
        assert end != m
        assert out == {"verdict": "Infinite", "reason": "NotMonogenic", "trials_used": 2 * n + 3}
        return
    assert end == m
    mu = ref_min_poly(table, unit, [Fraction(c) for c in out.pop("generator")])
    assert len(mu) == n + 1
    content, parts = yun(mu)
    assert out.pop("profile") == {"content": str(content),
                                  "parts": [[k, [str(c) for c in f]] for k, f in parts]}
    finite = _finite_profile(parts)
    assert out.pop("verdict") == ("Finite" if finite else "Infinite")
    assert out.pop("reason", None) == (None if finite else "BadProfile")
    assert 1 <= out.pop("trials_used") <= 2 * n + 3 + int(flags.get("--trials", 64))
    assert out == {}


def derive(argv, instances):
    """(stdout payload without schema_version, exit code) of argv, from ref."""
    cmd = argv[0]
    if cmd == "group-sweep":
        return _group_sweep(_flags(argv))
    if cmd == "monoid-check":
        return _monoid_check(_flags(argv))
    flags, mult, space = _inputs(argv, instances)
    if cmd in ("stabilizer", "annihilator"):
        return _solution_space(cmd, mult, space[flags["--V"]], flags.get("--side", "left"))
    if cmd == "kneser":
        return _kneser(mult, space[flags["--A"]], space[flags["--B"]])
    return _nfold(mult, [space[name] for name in flags["--spaces"].split(",")])


def test_derived_goldens_cover_every_record_of_their_commands():
    counts = {cmd: sum(argv[0] == cmd for argv, _ in cases()) for cmd in DERIVED}
    assert counts == {"stabilizer": 40, "annihilator": 40, "kneser": 19, "nfold": 37,
                      "group-sweep": 3, "monoid-check": 4, "certificate": 40, "classify": 32}
    assert (len(INDICES), len(CERTIFICATES)) == (143, 40)
    # 8 among the split-instance records, 6 where the atom needs no split algebra
    assert len(LAMBDA_ONE) == 14


@pytest.mark.parametrize("index", INDICES)
def test_golden_matches_reference(golden, instances, index):
    rec = golden[index]
    payload, code = derive(rec["argv"], instances)
    assert rec["code"] == code
    assert rec["stderr"] == ("" if code != 3 else UNDECIDED.format(payload["lambda"]))
    assert json.loads(rec["stdout"]) == {"schema_version": 1, **payload}


@pytest.mark.parametrize("index", CERTIFICATES)
def test_certificate_golden_holds_from_reference(golden, instances, index):
    check_certificate(golden[index], instances)


@pytest.mark.parametrize("index", LAMBDA_ONE)
def test_lambda_one_hamidoune_golden_matches_the_oracle(golden, instances, index):
    check_lambda_one_hamidoune(golden[index], instances)


@pytest.mark.parametrize("index", CLASSIFIED)
def test_classify_golden_holds_from_reference(golden, index):
    check_classify(golden[index])
