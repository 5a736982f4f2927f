"""Finite monoids and groups as multiplication tables.

Bridges combinatorial Minkowski products and stabilizers to the monoid
algebra: subsets lift to indicator-vector subspaces, where cardinalities
become dimensions.  The single-pair checks take subsets as frozensets
(minkowski, combinatorial_stabilizer, lift_subset); the group sweep holds
each subset as its integer mask, bit i for element i, reads AB and H(AB)
as ORs of bits off the multiplication table, once the algebra's cells are
found to copy that table, and tests each pair against one limit per
distinct AB.  A table owns its algebra, which keeps no pointer back:
lift_subset reads the cells alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from operator import or_

from . import subspace as sub
from .algebra import Algebra, monoid_algebra
from .errors import (
    EmptySubset,
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
        if not 0 <= self.unit_index < n:
            raise TableMismatch(f"unit index {self.unit_index} is not in 0..{n - 1}")
        if len(self.labels) != n:
            raise TableMismatch(f"{len(self.labels)} labels for {n} elements")
        if len(set(self.labels)) != n:
            raise TableMismatch("element labels are not distinct")
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

    def index_of(self, name: str) -> int:
        try:
            return self.labels.index(name)
        except ValueError:
            raise TableMismatch(f"no element named {name!r} in {self.label}") from None

    def subset(self, names) -> frozenset[int]:
        return frozenset(self.index_of(n) for n in names)

    def is_group(self) -> bool:
        return len(units(self)) == self.size

    @cached_property
    def _algebra(self) -> Algebra:
        return monoid_algebra(self)

    def algebra(self) -> Algebra:
        """The monoid algebra, built on the first call and owned by the table."""
        return self._algebra

    def to_json(self):
        return {
            "kind": "monoid_table",
            "size": self.size,
            "unit": self.unit_index,
            "table": [list(r) for r in self.table],
            "labels": list(self.labels),
        }


def units(m: MulTable) -> frozenset[int]:
    """Two-sided invertible element indices: in a finite monoid xy = 1 gives
    yx = 1, as z -> xz is onto, so one-to-one, and x(yx) = x1."""
    return frozenset(x for x, row in enumerate(m.table) if m.unit_index in row)


def minkowski(m: MulTable, a: frozenset[int], b: frozenset[int]) -> frozenset[int]:
    if not a or not b:
        raise EmptySubset("Minkowski product of an empty subset")
    t = m.table
    return frozenset([t[x][y] for x in a for y in b])


def combinatorial_stabilizer(m: MulTable, a: frozenset[int], side="left") -> frozenset[int]:
    """{h : hA = A} (left) or {h : Ah = A} (right); always a submonoid."""
    if not a:
        raise EmptySubset("stabilizer of the empty subset")
    rows = m.table if side == "left" else tuple(zip(*m.table))  # rows[h][x] = hx or xh
    return frozenset(h for h in range(m.size) if {rows[h][x] for x in a} == a)


def _cell_table(alg: Algebra) -> tuple[tuple[int, ...], ...]:
    """The k of each cell b_x b_y = c b_k, as a table like MulTable.table.

    Raises TableMismatch unless every cell holds exactly one (k, c) pair, so
    each b_x b_y is a nonzero multiple of one b_k and span(lift A lift B) is
    the lift of those k over x in A, y in B.
    """
    if any(len(cell) != 1 for row in alg.sparse for cell in row):
        raise TableMismatch("some b_i b_j is not a nonzero multiple of one basis vector")
    return tuple(tuple(cell[0][0] for cell in row) for row in alg.sparse)


def lift_subset(alg: Algebra, a: frozenset[int]) -> sub.Subspace:
    """Indicator span of a subset in a monoid algebra, read off the cells
    alone; an algebra _cell_table refuses is refused here too."""
    _cell_table(alg)
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


def stab_correspondence_check(m: MulTable, a: frozenset[int]) -> StabCorrespondence:
    """Compare |{h : hA=A}| with dim of the algebra stabilizer of the lift.

    Equal for groups; may differ (algebra side bigger) for monoids.
    """
    lifted = lift_subset(m.algebra(), a)
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


def _bits(mask: int) -> list[int]:
    """The set bits of mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def group_kneser_sweep(m: MulTable, exhaustive=True, seed=0, count=200) -> SweepReport:
    """Check |AB| >= |A| + |B| - |H_AB| over subset pairs of a group.

    A subset is its integer mask, bit i for element i.  Each pair is also
    re-derived through the group algebra: the span of lift(A) lift(B) must
    have dimension |AB| and its left stabilizer dimension |H_AB|.  That span
    is the lift of the k of the cells b_x b_y = c b_k over x in A, y in B,
    so it is the lift of AB for every pair once the cells' k table equals
    the multiplication table: one comparison of all n^2 cells checks that,
    or raises TableMismatch.

    Per distinct AB, |H_AB| (the g with gAB = AB) and the stabilizer
    dimension of AB's lift are computed once, and both checks fold into
    one limit: |AB| + |H_AB|, or -1 when the dimension differs from |H_AB|.
    A pair is reported iff its limit is below |A| + |B|, and only then is
    its record built.  An exhaustive sweep forms, per A, the n translates
    Ay and then AB for every B at once by doubling over the bits of B; a
    sampled one forms AB as the OR of xy over the drawn A and B.
    """
    if exhaustive and not m.is_group():
        raise NotAGroup(f"{m.label} has non-invertible elements")
    alg = m.algebra()
    t = m.table
    if _cell_table(alg) != t:
        raise TableMismatch(f"the algebra's cells do not copy the table of {m.label}")
    report = SweepReport()
    n = m.size
    masks = range(1, 1 << n)
    table_bits = [[1 << k for k in row] for row in t]
    stabs = {}  # AB -> (|H(AB)|, dim of the left stabilizer of AB's lift)
    limits = {}  # AB -> |AB| + |H(AB)|, or -1 where the two routes disagree

    def add_limits(products):
        for ab in products:
            members = _bits(ab)
            h = sum(reduce(or_, [row[z] for z in members]) == ab for row in table_bits)
            hdim = sub.stabilizer(sub.coordinate_span(alg, members), "left").dim
            stabs[ab] = h, hdim
            limits[ab] = len(members) + h if hdim == h else -1

    def record(xs, ys, ab):
        h, hdim = stabs[ab]
        size_ab = ab.bit_count()
        if size_ab < len(xs) + len(ys) - h:
            return {"A": list(xs), "B": list(ys), "issue": "combinatorial bound",
                    "|AB|": size_ab, "|A|": len(xs), "|B|": len(ys), "|H|": h}
        return {"A": list(xs), "B": list(ys), "issue": "algebra route disagrees",
                "dim_span": size_ab, "|AB|": size_ab, "dim_stab": hdim, "|H|": h}

    if exhaustive:
        sizes = [b.bit_count() for b in range(1 << n)]
        columns = list(zip(*table_bits))  # columns[y][x] is the bit of xy
        for a in masks:
            xs = _bits(a)
            prods = [0]  # prods[B] = AB: bit y of B adds the translate Ay
            for column in columns:
                ay = reduce(or_, [column[x] for x in xs])
                prods += [p | ay for p in prods]
            add_limits(set(prods).difference(limits, (0,)))  # the new ABs; B = 0 is no pair
            size_a = len(xs)
            report.pairs_checked += len(masks)
            report.violations += [record(xs, _bits(b), prods[b]) for b in masks
                                  if limits[prods[b]] < size_a + sizes[b]]
        return report
    # choice draws the same index from masks as from the list of all subsets
    rng = random.Random(seed)
    members = {}  # drawn mask -> its set bits
    for _ in range(count):
        a, b = rng.choice(masks), rng.choice(masks)
        for mask in (a, b):
            if mask not in members:
                members[mask] = _bits(mask)
        xs, ys = members[a], members[b]
        ab = 0
        for x in xs:
            row = table_bits[x]
            for y in ys:
                ab |= row[y]
        if ab not in limits:
            add_limits((ab,))
        report.pairs_checked += 1
        if limits[ab] < len(xs) + len(ys):
            report.violations.append(record(xs, ys, ab))
    return report


@dataclass
class MonoidHamidouneReport:
    ba_size: int
    a_size: int
    b_size: int
    lam: Fraction
    atom_dim: int
    atom_exact: bool  # True at lambda = 1; else the atom is the left stabilizer of V, a candidate
    hamidoune_ok: bool | None  # None: a candidate atom's bound fails, which decides nothing
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
    """|BA| >= lam*|B| + |A| - lam*dim(atom): sumsets.hamidoune_check's bound
    in the monoid algebra, with W = lift(B) and V = lift(A).

    W = lift(B) because b_y b_x = b_yx, so span(WV) = lift(BA), whose
    dimension is |BA|.  At lambda = 1 the atom is exact, sumsets.atom(V, 1):
    the subalgebra generated by V u^-1 for u a unit in A.  At other lambda
    the candidate is the left stabilizer H of V.  HV = V, so c(H) = |A| -
    lambda dim H, and the bound through H is lambda|B| + c(H) >= lambda|B|
    + kappa.  A pass therefore proves the kappa form |BA| >= lambda|B| +
    kappa and, as kappa >= dim V - lambda dim(atom), the dim-atom form too.
    A failure decides nothing and is reported as None, not as a violation.
    The bound reads |BA| off the set BA, so only A is lifted.
    """
    from . import sumsets

    u = units(m)
    if not (a & u):
        raise NoUnitIntersection("A misses the unit group of the monoid")
    if not (b & u):
        raise NoUnitIntersection("B misses the unit group of the monoid")
    lam = Fraction(lam)
    sumsets._check_lambda(lam)
    exact = lam == 1
    va = lift_subset(m.algebra(), a)
    atom = sumsets.atom(va, 1) if exact else sub.stabilizer(va, "left")
    ba = minkowski(m, b, a)
    holds = len(ba) >= lam * len(b) + len(a) - lam * atom.dim
    hstab = combinatorial_stabilizer(m, a, "left")
    kneser_rhs = len(a) + len(b) - len(combinatorial_stabilizer(m, ba, "left"))
    return MonoidHamidouneReport(
        ba_size=len(ba), a_size=len(a), b_size=len(b), lam=lam,
        atom_dim=atom.dim, atom_exact=exact,
        hamidoune_ok=holds if holds or exact else None,
        stab_size=len(hstab),
        atom_dominates_stab=atom.dim >= len(hstab),
        kneser_rhs=kneser_rhs,
        kneser_ok=len(ba) >= kneser_rhs,
    )
