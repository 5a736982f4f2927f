"""certify: a seeded stream of generated instances through the certificate API.

Why: dense rational rows with growing denominators use linalg differently
from sweep, and this is the workload that exercises contains_invertible,
invertible_basis and the pivot search; its polyprod instances form the tail.
"""

from __future__ import annotations

import random

import ref
from harness import Round

# The family mix of the certificate and Kneser-Diderrich acceptance streams.
MIX = (("split", 4), ("split", 5), ("group", 5), ("group", 7), ("group", 8),
       ("polyprod", 2), ("polyprod", 3))
DIMS = ((2, 2), (1, 3), (2, 3), (3, 2), (2, 2, 1))
POOL = 210  # distinct instances; six passes over every (family, dims) pairing


def rows(space):
    return [list(v) for v in space.basis]


class Certify:
    modules = ("addalg.gen", "addalg.sumsets")

    def build(self, mods, seed, tracer):
        gen = mods["addalg.gen"]
        base = random.Random(seed).randrange(2 ** 31)
        pool = []
        for i in range(POOL):
            fam, n = MIX[i % len(MIX)]
            pool.append(gen.gen_instance(fam, base + i, n=n, dims=DIMS[i % len(DIMS)]))
        return {"mods": mods, "pool": pool}

    def round(self, st, timer, tracer):
        sumsets = st["mods"]["addalg.sumsets"]
        rnd = Round()
        results = []
        for inst in st["pool"]:
            if tracer is not None:
                tracer.tag = inst.family
            spaces = [inst.subspaces[k] for k in sorted(inst.subspaces)]
            a, b = spaces[0], spaces[1]
            try:
                cert = timer.call(sumsets.diderrich_certificate, a, b)
                violations = timer.call(cert.violations)
                kn = timer.call(sumsets.kneser_check, a, b)
                nf = timer.call(sumsets.kneser_nfold_check, spaces) if len(spaces) > 2 else None
            except Exception as exc:  # a failed instance is counted, the round goes on
                rnd.fail(f"{inst.family} seed {inst.seed}", exc)
                continue
            rnd.attempted += 1
            rnd.checks += 1
            rnd.outputs.append((inst.seed, cert.a.coords, cert.subalgebra.basis,
                                cert.space.basis, cert.recursion_depth, tuple(violations),
                                kn.to_json(), nf.to_json() if nf else None))
            results.append((inst, spaces, cert, violations, kn, nf))
        if tracer is not None:
            tracer.tag = None
        st.setdefault("first", results)
        return rnd

    def verify(self, st, rnd):
        problems = []
        for inst, spaces, cert, violations, kn, nf in st["first"]:
            where = f"{inst.family} n={inst.algebra.dim} seed {inst.seed}"
            problems.extend(f"{where}: {p}" for p in
                            check_instance(inst, spaces, cert, violations, kn, nf))
        return problems


def check_instance(inst, spaces, cert, violations, kn, nf):
    desc = inst.desc
    if desc["kind"] == "group_table" and desc["table"] != ref.cyclic_table(len(desc["table"])):
        return ["group table is not the cyclic group law"]
    mult = ref.Mult.from_desc(desc)
    out = []
    if violations:
        out.append(f"certificate violations {violations}")
    A, B = rows(spaces[0]), rows(spaces[1])
    H, V = rows(cert.subalgebra), rows(cert.space)
    dA, dB, dH, dV = ref.rank(A), ref.rank(B), ref.rank(H), ref.rank(V)
    if (dA, dB, dH, dV) != (spaces[0].dim, spaces[1].dim, cert.subalgebra.dim, cert.space.dim):
        out.append("reported dimensions differ from independent rank")
    if dV + dH < dA + dB:
        out.append("dim V + dim H < dim A + dim B")
    a = list(cert.a.coords)
    if not ref.contains(A, [a]):
        out.append("certificate element a is not in A")
    AB = ref.basis(mult.products(A, B))
    if not ref.contains(V, [mult.mul(a, b) for b in B]):
        out.append("aB is not inside V")
    if not ref.contains(AB, V):
        out.append("V is not inside span(AB)")
    if not ref.contains(H, [mult.unit]):
        out.append("H does not contain the unit")
    if not ref.contains(H, mult.products(H, H)):
        out.append("H is not closed under products")
    stab = mult.left_stabilizer(AB)
    dHA = ref.rank(mult.products(stab, A))
    dHB = ref.rank(mult.products(stab, B))
    want = {"dim_A": dA, "dim_B": dB, "dim_AB": len(AB), "dim_H": len(stab),
            "bound_holds": len(AB) >= dA + dB - len(stab),
            "dim_HA": dHA, "dim_HB": dHB, "strong_bound_holds": len(AB) >= dHA + dHB - len(stab)}
    if kn.to_json() != want:
        out.append(f"kneser report {kn.to_json()} differs from {want}")
    if not (want["bound_holds"] and want["strong_bound_holds"]):
        out.append("Kneser bound fails")
    if nf is not None:
        prod = AB
        for s in spaces[2:]:
            prod = ref.basis(mult.products(prod, rows(s)))
        stab = mult.left_stabilizer(prod)
        dims = [ref.rank(rows(s)) for s in spaces]
        dims_ih = [ref.rank(mult.products(rows(s), stab)) for s in spaces]
        k = len(spaces) - 1
        want = {"dims": dims, "dim_product": len(prod), "dim_H": len(stab), "dims_AiH": dims_ih,
                "bound_holds": len(prod) >= sum(dims) - k * len(stab),
                "strong_bound_holds": len(prod) >= sum(dims_ih) - k * len(stab)}
        if nf.to_json() != want:
            out.append(f"n-fold report {nf.to_json()} differs from {want}")
        if not (want["bound_holds"] and want["strong_bound_holds"]):
            out.append("n-fold Kneser bound fails")
    return out
