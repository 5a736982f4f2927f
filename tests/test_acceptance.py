"""Acceptance suite: one test per release criterion, each printing a
single PASS line with its runtime.  Budgets are asserted, not aspirational.
"""

import json
import time
from fractions import Fraction as F

from addalg import classify, cli, discrete, gen, sumsets
from addalg import subspace as sub
from addalg.fixtures import algebra_fixture, cyclic, klein_four, paper_m7, symmetric_3

from oracles import ref


def report(num, desc, elapsed, budget):
    print(f"criterion {num}: PASS ({desc}) in {elapsed:.2f}s (budget {budget}s)")
    assert elapsed < budget, f"criterion {num} exceeded {budget}s: {elapsed:.2f}s"


def test_criterion_1_monoid_counterexample():
    t0 = time.time()
    m = paper_m7()
    a = m.subset(["1", "a", "b"])
    sq = discrete.minkowski(m, a, a)
    assert len(sq) == 4
    h = discrete.combinatorial_stabilizer(m, sq, "left")
    assert h == frozenset({m.unit_index})
    assert 2 * len(a) - len(h) == 5
    assert len(sq) < 5  # the classical bound genuinely fails here
    rep = discrete.monoid_hamidoune_check(m, a, a, F(1))
    assert rep.hamidoune_ok and not rep.kneser_ok
    report(1, "|A^2|=4 < 2|A|-|H|=5, algebra bound holds", time.time() - t0, 1)


def test_criterion_2_classifier_truth_table():
    t0 = time.time()
    expected = {
        "QT2": "Finite",
        "QT3": "Finite",
        "QT4": "Infinite",
        "QP2": "Infinite",
        "QT2xQT2": "Infinite",
        "Q1": "Finite",
        "Q2": "Finite",
        "Q3": "Finite",
        "Q4": "Finite",
        "Q5": "Finite",
    }
    for name, want in expected.items():
        for seed in (0, 1, 2):  # exact branch must be seed-independent
            v = classify.finite_subalgebras_verdict(algebra_fixture(name), seed=seed)
            assert v.kind == want, (name, seed, v.kind)
    v = classify.finite_subalgebras_verdict(algebra_fixture("M2x2"))
    assert v.kind == "Infinite" and v.reason == "NonCommutative"
    report(2, "truth table exact and deterministic", time.time() - t0, 5)


def test_criterion_3_subalgebra_census():
    t0 = time.time()
    for n in range(1, 6):
        got = classify.enumerate_subalgebras_split(algebra_fixture(f"Q{n}"))
        oracle_count = len(ref.partitions(range(n)))
        assert len(got) == oracle_count == [1, 1, 2, 5, 15, 52][n]
        seen = set()
        for _, space in got:
            assert space.contains_unit()
            assert sub.is_subalgebra(space)
            seen.add(space.basis)
        assert len(seen) == len(got)
    report(3, "census 1,2,5,15,52 vs independent enumerator", time.time() - t0, 30)


def test_criterion_4_group_kneser_recovery():
    t0 = time.time()
    total = 0
    for m in [cyclic(n) for n in range(2, 11)] + [symmetric_3(), klein_four()]:
        rep = discrete.group_kneser_sweep(m, exhaustive=True)
        assert rep.ok, (m.label, rep.violations[:3])
        assert rep.pairs_checked == (2 ** m.size - 1) ** 2
        total += rep.pairs_checked
    assert total == 1_398_211
    report(4, f"{total} subset pairs, both routes agree", time.time() - t0, 60)


def _instance_stream(count, base_seed):
    dims_cycle = [(2, 2), (1, 3), (2, 3), (3, 2)]
    fams = [("split", {"n": 4}), ("split", {"n": 5}), ("group", {"n": 5}),
            ("group", {"n": 7}), ("group", {"n": 8}), ("polyprod", {"n": 2}),
            ("polyprod", {"n": 3})]
    for i in range(count):
        fam, kw = fams[i % len(fams)]
        dims = dims_cycle[i % len(dims_cycle)]
        yield gen.gen_instance(fam, base_seed + i, dims=dims, **kw)


def test_criterion_5_certificate_suite():
    t0 = time.time()
    checked = 0
    for inst in _instance_stream(500, 10_000):
        a, b = inst.subspaces["A"], inst.subspaces["B"]
        cert = sumsets.diderrich_certificate(a, b)
        bad = cert.violations()
        assert not bad, (inst.family, inst.seed, bad)
        checked += 1
    assert checked == 500
    report(5, "500 certificates, all five invariants", time.time() - t0, 120)


def test_criterion_6_kneser_diderrich_sweep():
    t0 = time.time()
    verdicts = {}
    finite = 0
    for inst in _instance_stream(500, 10_000):
        key = (inst.family, inst.desc.get("label"))
        if key not in verdicts:
            verdicts[key] = classify.finite_subalgebras_verdict(inst.algebra).kind
        if verdicts[key] != "Finite":
            continue
        finite += 1
        rep = sumsets.kneser_check(inst.subspaces["A"], inst.subspaces["B"])
        assert rep.bound_holds, (inst.family, inst.seed)
        assert rep.strong_bound_holds, (inst.family, inst.seed)
    assert finite >= 400  # the generated families are Finite by construction
    nfold_checked = 0
    for i in range(100):
        inst = gen.gen_instance(("split", "group")[i % 2], 20_000 + i,
                                dims=(2, 2, 1))
        spaces = [inst.subspaces[k] for k in ("A", "B", "C")]
        rep = sumsets.kneser_nfold_check(spaces)
        assert rep.bound_holds and rep.strong_bound_holds, (inst.family, i)
        nfold_checked += 1
    assert nfold_checked == 100
    report(6, f"{finite} pair bounds + 100 threefold bounds", time.time() - t0, 120)


def test_criterion_7_connectivity_suite():
    t0 = time.time()
    import random

    rng = random.Random(77)

    def rand_space(alg, dim):
        while True:
            vecs = [
                tuple(F(rng.randint(-3, 3)) for _ in range(alg.dim))
                for _ in range(dim)
            ]
            got = sub.from_vecs(alg, vecs)
            if got.dim == dim:
                return got

    # translation invariance on 200 sampled invertible x
    for i in range(200):
        alg = algebra_fixture(f"Q{3 + i % 3}")
        v = rand_space(alg, 1 + i % 3)
        w = rand_space(alg, 1 + (i + 1) % 3)
        x = alg.element([F(rng.randint(1, 6)) for _ in range(alg.dim)])
        assert x.is_invertible
        lam = F(1 + i % 4, 4)
        assert sumsets.connectivity_value(w, v, lam) == \
            sumsets.connectivity_value(sub.translate(x, w, "left"), v, lam)

    # submodularity on 200 random pairs
    done = 0
    while done < 200:
        alg = algebra_fixture(f"Q{3 + done % 4}")
        v = rand_space(alg, 1 + done % 3)
        w1 = rand_space(alg, rng.randint(1, alg.dim - 1))
        w2 = rand_space(alg, rng.randint(1, alg.dim - 1))
        inter = sub.lattice_intersect(w1, w2)
        if inter.dim == 0:
            continue
        lam = F(1 + done % 4, 4)
        c = lambda w: sumsets.connectivity_value(w, v, lam)
        assert c(sub.lattice_sum(w1, w2)) + c(inter) <= c(w1) + c(w2)
        done += 1

    # exact atoms in Q^n (n <= 6) plus the connectivity lower bound on 200 W
    done = 0
    while done < 200:
        n = 3 + done % 4  # up to Q^6
        alg = algebra_fixture(f"Q{n}")
        v = rand_space(alg, rng.randint(1, n))
        if sub.contains_invertible(v).kind != "YES":
            continue
        lam = F(rng.randint(1, 4), 4)
        rep = sumsets.atom_exact_split(v, lam)
        assert sub.is_subalgebra(rep.atom) and rep.atom.contains_unit()
        assert rep.atom.contains_space(sub.stabilizer(v, "left"))
        assert not rep.tie_anomaly
        for _, cval in rep.evaluated:
            assert cval >= rep.kappa
        # the lower bound assumes W contains an invertible element
        while True:
            w = rand_space(alg, rng.randint(1, n))
            if sub.contains_invertible(w).kind == "YES":
                break
        check = sumsets.hamidoune_check(w, v, lam, rep.atom)
        assert check.holds, (n, done)
        done += 1
    report(7, "invariance, submodularity, atoms, bound", time.time() - t0, 120)


def test_criterion_8_tao_suite():
    t0 = time.time()
    import random

    rng = random.Random(88)
    met = {F(1, 2): 0, F(1): 0, F(3, 2): 0}
    for n in (3, 4, 5):
        alg = algebra_fixture(f"Q{n}")
        candidates = [space for _, space in classify.enumerate_subalgebras_split(alg)]
        for _ in range(30):
            vecs = [
                tuple(F(rng.randint(-2, 2)) for _ in range(n))
                for _ in range(rng.randint(1, n))
            ]
            got = sub.from_vecs(alg, vecs)
            if got.dim and sub.contains_invertible(got).kind == "YES":
                candidates.append(got)
        for v in candidates:
            if sub.contains_invertible(v).kind != "YES":
                continue
            for w in (v, sub.full_space(alg)):
                for eps in met:
                    rep = sumsets.tao_check(v, w, eps)
                    if not rep.hypotheses_met:
                        continue
                    met[eps] += 1
                    assert rep.conclusions_hold, (n, eps)
    # eps = 3/2 demands dim<WV> < dim V, impossible when V has an invertible
    # and dim W >= dim V, so only the two smaller epsilons can fire
    assert met[F(1, 2)] > 0 and met[F(1)] > 0
    report(8, f"hypothesis hits {sum(met.values())}, zero violations",
           time.time() - t0, 120)


def test_criterion_9_cli_determinism(capsys, tmp_path):
    t0 = time.time()
    inst_path = tmp_path / "inst.json"
    cmds = [
        ["fixtures", "--json"],
        ["classify", "--fixture", "QT4", "--json"],
        ["classify", "--fixture", "Q5", "--json"],
        ["monoid-check", "--fixture", "paper-m7", "--A", "1,a,b",
         "--B", "1,a,b", "--lambda", "1", "--json"],
        ["group-sweep", "--fixture", "Z5", "--exhaustive", "--json"],
        ["gen", "--family", "group", "--seed", "3", "--n", "7", "--dims", "2,3"],
    ]
    goldens = []
    for argv in cmds:
        runs = []
        for _ in range(3):
            code = cli.main(list(argv))
            out = capsys.readouterr().out
            assert code == 0, argv
            runs.append(out)
        assert runs[0] == runs[1] == runs[2], argv
        goldens.append(runs[0])
        json.loads(runs[0])  # every golden is valid JSON
    inst_path.write_text(goldens[-1])
    follow = ["kneser", "--in", str(inst_path), "--A", "A", "--B", "B", "--json"]
    base = None
    for threads in ("1", "8", "1"):
        code = cli.main(["group-sweep", "--fixture", "Z5", "--exhaustive",
                         "--json", "--threads", threads])
        out = capsys.readouterr().out
        assert code == 0
        if base is None:
            base = out
        assert out == base
    code = cli.main(list(follow))
    out = capsys.readouterr().out
    assert code == 0
    code = cli.main(list(follow))
    assert capsys.readouterr().out == out
    report(9, "byte-identical across 3 runs and threads 1/8", time.time() - t0, 120)
