"""Finite monoids and groups as multiplication tables.

Bridges combinatorial Minkowski products and stabilizers to the monoid
algebra: subsets lift to indicator-vector subspaces, where cardinalities
become dimensions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import subspace as sub
from .algebra import Algebra, monoid_algebra
from .errors import (
    EmptySubset,
    LambdaOutOfRange,
    NotAGroup,
    NotAssociative,
    NoUnitIntersection,
    TableMismatch,
)

__all__ = [
    "MulTable",
    "units",
    "minkowski",
    "combinatorial_stabilizer",
    "lift_subset",
    "stab_correspondence_check",
    "group_kneser_sweep",
    "monoid_hamidoune_check",
]


@dataclass(frozen=True)
class MulTable:
    """Multiplication table of a finite monoid (or group)."""

    size: int
    table: tuple[tuple[int, ...], ...]
    unit_index: int
    labels: tuple[str, ...]
    label: str = ""

    def __post_init__(self):
        n = self.size
        t = self.table
        if len(t) != n or any(len(r) != n for r in t):
            raise TableMismatch("table is not n x n")
        for i in range(n):
            if t[self.unit_index][i] != i or t[i][self.unit_index] != i:
                raise NotAssociative(f"unit law fails at element {i}")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if t[t[i][j]][k] != t[i][t[j][k]]:
                        raise NotAssociative(f"associativity fails at ({i},{j},{k})")

    @staticmethod
    def build(rows, unit_index=0, labels=None, label=""):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if labels is None:
            labels = tuple(str(i) for i in range(n))
        return MulTable(n, rows, unit_index, tuple(labels), label)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def index_of(self, name: str) -> int:
        try:
            return self.labels.index(name)
        except ValueError:
            raise TableMismatch(f"no element named {name!r} in {self.label}") from None

    def subset(self, names) -> frozenset[int]:
        return frozenset(self.index_of(n) for n in names)

    def is_group(self) -> bool:
        return len(units(self)) == self.size

    def algebra(self) -> Algebra:
        return monoid_algebra(self)

    def to_json(self):
        return {
            "kind": "monoid_table",
            "size": self.size,
            "unit": self.unit_index,
            "table": [list(r) for r in self.table],
            "labels": list(self.labels),
        }


def units(m: MulTable) -> frozenset[int]:
    """Two-sided invertible element indices."""
    out = set()
    for x in range(m.size):
        for y in range(m.size):
            if m.mul(x, y) == m.unit_index and m.mul(y, x) == m.unit_index:
                out.add(x)
                break
    return frozenset(out)


def minkowski(m: MulTable, a: frozenset[int], b: frozenset[int]) -> frozenset[int]:
    if not a or not b:
        raise EmptySubset("Minkowski product of an empty subset")
    return frozenset(m.mul(x, y) for x in a for y in b)


def combinatorial_stabilizer(m: MulTable, a: frozenset[int], side="left") -> frozenset[int]:
    """{h : hA = A} (left) or {h : Ah = A} (right); always a submonoid."""
    if not a:
        raise EmptySubset("stabilizer of the empty subset")
    out = set()
    for h in range(m.size):
        if side == "left":
            image = {m.mul(h, x) for x in a}
        else:
            image = {m.mul(x, h) for x in a}
        if image == a:
            out.add(h)
    return frozenset(out)


def lift_subset(alg: Algebra, a: frozenset[int]) -> sub.Subspace:
    """Indicator span of a subset in the monoid algebra built from its table."""
    if alg.source_table is None:
        raise TableMismatch("algebra was not built from a multiplication table")
    if not a:
        raise EmptySubset("cannot lift the empty subset")
    return sub.coordinate_span(alg, a)


@dataclass(frozen=True)
class StabCorrespondence:
    subset_size: int
    comb_stab_size: int
    algebra_stab_dim: int
    is_group: bool

    @property
    def matches(self) -> bool:
        return self.comb_stab_size == self.algebra_stab_dim

    def to_json(self):
        return {
            "subset_size": self.subset_size,
            "combinatorial_stabilizer_size": self.comb_stab_size,
            "algebra_stabilizer_dim": self.algebra_stab_dim,
            "is_group": self.is_group,
            "matches": self.matches,
        }


def stab_correspondence_check(m: MulTable, a: frozenset[int],
                              alg: Algebra | None = None) -> StabCorrespondence:
    """Compare |{h : hA=A}| with dim of the algebra stabilizer of the lift.

    Equal for groups; may differ (algebra side bigger) for monoids.
    """
    if alg is None:
        alg = m.algebra()
    lifted = lift_subset(alg, a)
    hdim = sub.stabilizer(lifted, "left").dim
    hsize = len(combinatorial_stabilizer(m, a, "left"))
    return StabCorrespondence(len(a), hsize, hdim, m.is_group())


@dataclass
class SweepReport:
    pairs_checked: int = 0
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self):
        return {
            "pairs_checked": self.pairs_checked,
            "violations": self.violations,
            "ok": self.ok,
        }


def _subset(n: int, mask: int) -> frozenset:
    """The subset of range(n) whose elements are the set bits of mask."""
    return frozenset(i for i in range(n) if mask >> i & 1)


def group_kneser_sweep(m: MulTable, exhaustive=True, seed=0, count=200) -> SweepReport:
    """Check |AB| >= |A| + |B| - |H_AB| over subset pairs of a group.

    Each pair is also re-derived through the group algebra: the lift of
    AB must have dimension |AB| and its left stabilizer dimension |H_AB|.
    Every pair computes its own product span; the values that depend on
    one subset or one span alone (lifts, stabilizers) are computed once
    per call and reused.
    """
    if exhaustive and not m.is_group():
        raise NotAGroup(f"{m.label} has non-invertible elements")
    alg = m.algebra()
    report = SweepReport()
    n = m.size
    masks = range(1, 1 << n)
    if exhaustive:
        subsets = [_subset(n, mask) for mask in masks]
        pairs = ((a, b) for a in subsets for b in subsets)
    else:
        # choice draws the same index from masks as from the list of all
        # subsets; only the drawn subsets are built, each once
        rng = random.Random(seed)
        picks = [rng.choice(masks) for _ in range(2 * count)]
        drawn = {mask: _subset(n, mask) for mask in set(picks)}
        pairs = ((drawn[a], drawn[b]) for a, b in zip(picks[::2], picks[1::2]))
    lifts = {}  # subset -> its lift
    comb_stabs = {}  # AB -> H(AB)
    stab_dims = {}  # rows of a computed product span -> dim of its left stabilizer
    for a, b in pairs:
        ab = minkowski(m, a, b)
        if ab not in comb_stabs:
            comb_stabs[ab] = combinatorial_stabilizer(m, ab, "left")
        h = comb_stabs[ab]
        report.pairs_checked += 1
        if len(ab) < len(a) + len(b) - len(h):
            report.violations.append({
                "A": sorted(a), "B": sorted(b),
                "issue": "combinatorial bound",
                "|AB|": len(ab), "|A|": len(a), "|B|": len(b), "|H|": len(h),
            })
            continue
        for s in (a, b):
            if s not in lifts:
                lifts[s] = lift_subset(alg, s)
        pspan = sub.product_span(lifts[a], lifts[b])
        # keyed on this pair's own span, so the stabilizer is that span's
        if pspan.rows not in stab_dims:
            stab_dims[pspan.rows] = sub.stabilizer(pspan, "left").dim
        hdim = stab_dims[pspan.rows]
        if pspan.dim != len(ab) or hdim != len(h):
            report.violations.append({
                "A": sorted(a), "B": sorted(b),
                "issue": "algebra route disagrees",
                "dim_span": pspan.dim, "|AB|": len(ab),
                "dim_stab": hdim, "|H|": len(h),
            })
    return report


@dataclass
class MonoidHamidouneReport:
    ba_size: int
    a_size: int
    b_size: int
    lam: Fraction
    atom_dim: int
    atom_exact: bool  # exact enumeration vs best candidate (upper bound on kappa)
    hamidoune_ok: bool
    stab_size: int
    atom_dominates_stab: bool
    kneser_rhs: int
    kneser_ok: bool

    def to_json(self):
        return {
            "|BA|": self.ba_size,
            "|A|": self.a_size,
            "|B|": self.b_size,
            "lambda": str(self.lam),
            "atom_dim": self.atom_dim,
            "atom_exact": self.atom_exact,
            "hamidoune_bound_holds": self.hamidoune_ok,
            "|H_A|": self.stab_size,
            "atom_dim >= |H_A|": self.atom_dominates_stab,
            "kneser_rhs": self.kneser_rhs,
            "kneser_bound_holds": self.kneser_ok,
        }


def monoid_hamidoune_check(m: MulTable, a: frozenset[int], b: frozenset[int],
                           lam: Fraction) -> MonoidHamidouneReport:
    """|BA| >= lam*|A| + |B| - lam*dim(atom) in the monoid algebra.

    When the monoid algebra is split etale the atom is computed exactly;
    otherwise the minimum runs over two candidate subalgebras (the
    scalars and the stabilizer of the lift of A), which only upper-bounds
    the true atom term.
    """
    from . import sumsets

    u = units(m)
    if not (a & u):
        raise NoUnitIntersection("A misses the unit group of the monoid")
    if not (b & u):
        raise NoUnitIntersection("B misses the unit group of the monoid")
    if not (0 < lam <= 1):
        raise LambdaOutOfRange(f"lambda must be in (0,1], got {lam}")
    alg = m.algebra()
    va = lift_subset(alg, a)
    ba = minkowski(m, b, a)
    if alg.split_etale:
        report = sumsets.atom_exact_split(va, lam)
        atom, exact = report.atom, True
    else:
        best = None
        for c in (sub.unit_span(alg), sub.stabilizer(va, "left")):
            if not sub.is_subalgebra(c):
                continue
            val = sumsets.connectivity_value(c, va, lam)
            key = (val, c.dim)
            if best is None or key < best[0]:
                best = (key, c)
        atom, exact = best[1], False
    hstab = combinatorial_stabilizer(m, a, "left")
    lhs = Fraction(len(ba))
    rhs = lam * len(a) + len(b) - lam * atom.dim
    kneser_rhs = len(a) + len(b) - len(combinatorial_stabilizer(m, ba, "left"))
    return MonoidHamidouneReport(
        ba_size=len(ba), a_size=len(a), b_size=len(b), lam=lam,
        atom_dim=atom.dim, atom_exact=exact,
        hamidoune_ok=lhs >= rhs,
        stab_size=len(hstab),
        atom_dominates_stab=atom.dim >= len(hstab),
        kneser_rhs=kneser_rhs,
        kneser_ok=len(ba) >= kneser_rhs,
    )
