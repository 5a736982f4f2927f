"""sweep: exhaustive and sampled group Kneser sweeps with the algebra cross-check.

Why: the 0/1 monoid-algebra matrices spend almost all their time in
subspace.stabilizer, linalg.rref and Algebra.mul_coords; the workload never
calls det, the invertibility search or the e-transform.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import ref
from harness import Round

EXHAUSTIVE = ("Z2", "Z3", "Z4", "V4", "Z5")
# Pairs per round of each sampled group.  Order-6 groups are sampled, not
# swept: one exhaustive Z6 or S3 sweep takes 4-5 s, too long to repeat
# within a run.  Every sampled call costs less than the Z5 sweep, and with
# nine calls the nearest-rank p90 is that seed-free call; large samples keep
# the seed's effect on the other calls small.
SAMPLED = {"Z6": 300, "S3": 300, "Z8": 150, "Z12": 100}
ALGEBRA_SAMPLE = 16  # pairs whose algebra route is recomputed apart from the program


def own_table(name):
    if name == "V4":
        return ref.klein_table()
    if name == "S3":
        return ref.s3_table()
    return ref.cyclic_table(int(name[1:]))


def indicator(subset, n):
    return [Fraction(int(i in subset)) for i in range(n)]


class Sweep:
    modules = ("addalg.discrete", "addalg.fixtures", "addalg.subspace")

    def build(self, mods, seed, tracer):
        fixtures = mods["addalg.fixtures"]
        rng = random.Random(seed)
        tables = {name: fixtures.table_fixture(name) for name in (*EXHAUSTIVE, *SAMPLED)}
        algebras = {name: tables[name].algebra() for name in (*EXHAUSTIVE, "Z6", "S3")}
        seeds = [(name, rng.randrange(2 ** 31)) for name in SAMPLED]
        sample = []
        for _ in range(ALGEBRA_SAMPLE):
            name = rng.choice(sorted(algebras))
            n = tables[name].size
            subsets = ref.nonempty_subsets(n)
            sample.append((name, rng.choice(subsets), rng.choice(subsets)))
        return {"mods": mods, "tables": tables, "algebras": algebras,
                "seeds": seeds, "sample": sample}

    def round(self, st, timer, tracer):
        sweep = st["mods"]["addalg.discrete"].group_kneser_sweep
        rnd = Round()
        calls = [(name, {"exhaustive": True}) for name in EXHAUSTIVE] + [
            (name, {"exhaustive": False, "seed": seed, "count": SAMPLED[name]})
            for name, seed in st["seeds"]]
        for name, kwargs in calls:
            m = st["tables"][name]
            pairs = (2 ** m.size - 1) ** 2 if kwargs["exhaustive"] else kwargs["count"]
            try:
                rep = timer.call(sweep, m, **kwargs)
            except Exception as exc:  # a failed call is counted, the round goes on
                rnd.fail(name, exc, ops=pairs)
                continue
            rnd.attempted += pairs
            rnd.checks += rep.pairs_checked
            rnd.outputs.append((name, kwargs.get("seed"), rep.pairs_checked,
                                tuple(json.dumps(v, sort_keys=True) for v in rep.violations)))
        return rnd

    def verify(self, st, rnd):
        problems = []
        tables = st["tables"]
        for name in tables:
            if [list(r) for r in tables[name].table] != own_table(name):
                problems.append(f"{name}: fixture table is not the group law")
        for out in rnd.outputs:
            if out[1] == "failed":
                continue
            name, seed, pairs_checked, violations = out
            n = tables[name].size
            if name in EXHAUSTIVE:
                subsets = ref.nonempty_subsets(n)
                pairs = [(a, b) for a in subsets for b in subsets]
            else:
                pairs = ref.sampled_pairs(n, seed, SAMPLED[name])
            if pairs_checked != len(pairs):
                problems.append(f"{name}: {pairs_checked} pairs checked, expected {len(pairs)}")
            got = [json.loads(v) for v in violations]
            if any(v["issue"] != "combinatorial bound" for v in got):
                problems.append(f"{name}: the algebra route disagrees with |AB| or |H|")
            want = ref.kneser_violations(own_table(name), pairs)
            if [(v["A"], v["B"]) for v in got if v["issue"] == "combinatorial bound"] != want:
                problems.append(f"{name}: violations differ from brute force")
        problems.extend(self._verify_algebra_route(st))
        return problems

    def _verify_algebra_route(self, st):
        """dim span(lift A * lift B) and its stabilizer, recomputed apart."""
        discrete = st["mods"]["addalg.discrete"]
        sub = st["mods"]["addalg.subspace"]
        problems = []
        for name, a, b in st["sample"]:
            table = own_table(name)
            n = len(table)
            mult = ref.Mult.from_table(table)
            alg = st["algebras"][name]
            span = sub.product_span(discrete.lift_subset(alg, a), discrete.lift_subset(alg, b))
            stab = sub.stabilizer(span, "left")
            products = mult.products([indicator({x}, n) for x in a],
                                     [indicator({y}, n) for y in b])
            ab = ref.set_product(table, a, b)
            h = ref.set_left_stabilizer(table, ab)
            own_dim = ref.rank(products)
            own_stab = len(mult.left_stabilizer(products))
            if not (span.dim == own_dim == len(ab)) or not ref.same_span(span.basis, products):
                problems.append(f"{name}: span of lift(A)lift(B) wrong for A={sorted(a)} B={sorted(b)}")
            if not (stab.dim == own_stab == len(h)):
                problems.append(f"{name}: stabilizer dim {stab.dim}, expected {own_stab}")
        return problems
