"""lattice: exact atoms in split etale Q^3..Q^6 and the subalgebra classifier.

Why: its time goes to rebuilding the Bell-number partition lattice and to
many small product_spans, so a cache of the lattice shows here and nowhere
else; it barely touches stabilizer.  The non-monogenic Q[x,y]/(x,y)^2
exercises the sampling path of the classifier.
"""

from __future__ import annotations

import random
from fractions import Fraction

import ref
from harness import Round

# Subspaces V per dimension n of Q^n in one pass; Q^6 has 203 partitions.
PER_N = {3: 12, 4: 12, 5: 9, 6: 6}
LAMBDAS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
EPSILONS = (Fraction(1, 2), Fraction(1))

# What the theory says of each classified algebra.
VERDICTS = {"QT2": "Finite", "QT3": "Finite", "QT4": "Infinite", "QP2": "Infinite",
            "QT2xQT2": "Infinite", "QS3": "Infinite", "M2x2": "Infinite", "QV4": "Finite"}
VERDICTS.update({f"Q{n}": "Finite" for n in range(1, 7)})
VERDICTS.update({f"QZ{n}": "Finite" for n in range(2, 13)})
NON_COMMUTATIVE = ("QS3", "M2x2")
NON_MONOGENIC = "Q[x,y]/(x,y)^2"


def square_zero_algebra(algebra_mod):
    """Q[x,y]/(x,y)^2 from structure constants: basis 1, x, y; all products of x, y vanish."""
    table = [[[0, 0, 0] for _ in range(3)] for _ in range(3)]
    for i in range(3):
        table[0][i][i] = 1
        table[i][0][i] = 1
    return algebra_mod.from_structure_constants(table, [1, 0, 0], label=NON_MONOGENIC)


def has_unit_point(vecs, n):
    """A subspace of Q^n holds an invertible element iff no coordinate vanishes on it."""
    return all(any(v[i] for v in vecs) for i in range(n))


class Lattice:
    modules = ("addalg.gen", "addalg.sumsets", "addalg.classify", "addalg.fixtures",
               "addalg.algebra", "addalg.subspace")

    def build(self, mods, seed, tracer):
        gen, sub = mods["addalg.gen"], mods["addalg.subspace"]
        rng = random.Random(seed)
        cases = []
        for n, count in PER_N.items():
            for i in range(count):
                # dimensions, lambda and epsilon follow fixed cycles; the seed
                # picks coefficients, so every seed asks for the same work
                dv, dw = 1 + i % n, 1 + (2 * i + 1) % n
                inst = gen.gen_instance("split", rng.randrange(2 ** 31), n=n, dims=(dv, dw))
                v, w = inst.subspaces["A"], inst.subspaces["B"]
                if i % 3 == 0:
                    # a translate x*S of a partition subalgebra S meets Tao's hypotheses
                    part = rng.choice([p for p in ref.partitions(range(n)) if len(p) == dv])
                    x = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 5)) for _ in range(n)]
                    v = sub.from_vecs(inst.algebra, [ref.split_mul(x, blk)
                                                     for blk in ref.block_vectors(part, n)])
                cases.append((v, w, LAMBDAS[i % len(LAMBDAS)], EPSILONS[i % len(EPSILONS)]))
        fixtures = mods["addalg.fixtures"]
        algebras = [(name, fixtures.algebra_fixture(name)) for name in VERDICTS]
        algebras.append((NON_MONOGENIC, square_zero_algebra(mods["addalg.algebra"])))
        return {"mods": mods, "cases": cases, "algebras": algebras}

    def round(self, st, timer, tracer):
        sumsets = st["mods"]["addalg.sumsets"]
        classify = st["mods"]["addalg.classify"]
        rnd = Round()
        results = []
        for v, w, lam, eps in st["cases"]:
            try:
                atom = timer.call(sumsets.atom_exact_split, v, lam)
                ham = timer.call(sumsets.hamidoune_check, w, v, lam, atom.atom)
                tao = timer.call(sumsets.tao_check, v, v, eps)
            except Exception as exc:  # a failed case is counted, the round goes on
                rnd.fail(f"Q{v.algebra.dim} V dim {v.dim}", exc)
                continue
            rnd.attempted += 1
            rnd.checks += 1
            rnd.outputs.append((atom.kappa, atom.atom_partition, atom.evaluated,
                                atom.tie_anomaly, ham.to_json(), tao.to_json()))
            results.append((v, w, lam, eps, atom, ham, tao))
        verdicts = []
        for name, alg in st["algebras"]:
            try:
                verdict = timer.call(classify.finite_subalgebras_verdict, alg)
            except Exception as exc:
                rnd.fail(name, exc)
                continue
            rnd.attempted += 1
            rnd.checks += 1
            rnd.outputs.append((name, verdict.kind, verdict.reason, verdict.trials_used))
            verdicts.append((name, verdict))
        st.setdefault("first", (results, verdicts))
        return rnd

    def verify(self, st, rnd):
        results, verdicts = st["first"]
        problems = []
        for v, w, lam, eps, atom, ham, tao in results:
            where = f"Q{v.algebra.dim} V dim {v.dim} lambda {lam}"
            problems.extend(f"{where}: {p}" for p in check_case(v, w, lam, eps, atom, ham, tao))
        for name, verdict in verdicts:
            want = VERDICTS.get(name)
            if name == NON_MONOGENIC:
                if verdict.kind == "Finite":
                    problems.append(f"{name}: verdict Finite for a non-monogenic algebra")
            elif verdict.kind != want:
                problems.append(f"{name}: verdict {verdict.kind}, theory says {want}")
            elif name in NON_COMMUTATIVE and verdict.reason != "NonCommutative":
                problems.append(f"{name}: reason {verdict.reason}, expected NonCommutative")
        return problems


def c_values(n, vecs, lam):
    """c(W_P) = dim span(W_P V) - lam dim W_P for every partition P of range(n)."""
    out = {}
    for part in ref.partitions(range(n)):
        blocks = ref.block_vectors(part, n)
        span = ref.rank([ref.split_mul(b, v) for b in blocks for v in vecs])
        out[part] = Fraction(span) - lam * len(part)
    return out


def atom_of(cvals):
    """Partition minimising (c, dim), and whether the minimum is shared."""
    keyed = sorted((c, len(p), p) for p, c in cvals.items())
    tie = len(keyed) > 1 and keyed[0][:2] == keyed[1][:2]
    return keyed[0][2], tie


def check_case(v, w, lam, eps, atom, ham, tao):
    n = v.algebra.dim
    V, W = [list(x) for x in v.basis], [list(x) for x in w.basis]
    out = []
    if not has_unit_point(V, n):
        return ["input V holds no invertible element"]
    cvals = c_values(n, V, lam)
    if len(atom.evaluated) != len(cvals):
        out.append(f"{len(atom.evaluated)} partitions evaluated, Bell number is {len(cvals)}")
    got = {tuple(tuple(b) for b in p): c for p, c in atom.evaluated}
    if got != cvals:
        out.append("connectivity values differ from independent recomputation")
    if atom.kappa != min(cvals.values()):
        out.append(f"kappa {atom.kappa} is not the minimum {min(cvals.values())}")
    part, tie = atom_of(cvals)
    if tuple(tuple(b) for b in atom.atom_partition) != part or atom.tie_anomaly != tie:
        out.append("atom partition differs from the independent minimiser")
    atom_vecs = ref.block_vectors(part, n)
    if not ref.contains(atom_vecs, stabilizer_split(V, n)):
        out.append("atom does not contain the stabilizer of V")
    dim_wv = ref.rank([ref.split_mul(a, b) for a in W for b in V])
    rhs = lam * len(W) + len(V) - lam * len(part)
    if ham.dim_wv != dim_wv or ham.atom_dim != len(part) or not ham.holds or dim_wv < rhs:
        out.append(f"Hamidoune report {ham.to_json()} wrong or bound fails")
    dim_vv = ref.rank([ref.split_mul(a, b) for a in V for b in V])
    met = dim_vv <= (2 - eps) * len(V)
    if tao.hypotheses_met != met:
        out.append(f"Tao hypotheses_met {tao.hypotheses_met}, expected {met}")
    elif met:
        h_part, _ = atom_of(c_values(n, V, 1 - eps / 2))
        H = ref.block_vectors(h_part, n)
        HV = ref.basis([ref.split_mul(a, b) for a in H for b in V])
        budget = 2 / eps - 1
        holds = (len(H) <= budget * len(V) and ref.contains(HV, V) and len(HV) <= budget * len(H))
        if (tao.dim_h, tao.dim_hv) != (len(H), len(HV)) or not holds or not tao.conclusions_hold:
            out.append(f"Tao report {tao.to_json()} wrong or conclusions fail")
    return out


def stabilizer_split(V, n):
    """Basis of {x : x V <= V} in Q^n, from the kernel of the membership conditions."""
    mult = ref.Mult(n, ref.split_mul, [Fraction(1)] * n)
    return mult.left_stabilizer(V)
