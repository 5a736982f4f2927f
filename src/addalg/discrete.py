"""Finite monoids and groups as multiplication tables.

Bridges combinatorial Minkowski products and stabilizers to the monoid
algebra: subsets lift to indicator-vector subspaces, where cardinalities
become dimensions.  The single-pair checks take subsets as frozensets
(minkowski, combinatorial_stabilizer, lift_subset); the group sweep holds
each subset as its integer mask, bit i for element i, and reads AB, H(AB)
and the span of lift(A) lift(B) as ORs of image masks, off the
multiplication table and off the algebra's cells.  A table owns its
algebra, which keeps no pointer back: lift_subset reads the cells alone.
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
    t = m.table
    out = set()
    for h in range(m.size):
        if side == "left":
            image = {t[h][x] for x in a}
        else:
            image = {t[x][h] for x in a}
        if image == a:
            out.add(h)
    return frozenset(out)


def lift_subset(alg: Algebra, a: frozenset[int]) -> sub.Subspace:
    """Indicator span of a subset in a monoid algebra: one (k, c) per cell, so each
    b_x b_y is a nonzero multiple of one b_k and dim span(lift A lift B) = |AB|."""
    if any(len(cell) != 1 for row in alg.sparse for cell in row):
        raise TableMismatch("some b_i b_j is not a nonzero multiple of one basis vector")
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


def _images(rows, members) -> list[int]:
    """The mask of xS for each x, S the set of members: the OR of rows[x][y]
    over y in S, where rows[x][y] is the bit of xy."""
    return [reduce(or_, [row[y] for y in members]) for row in rows]


def _cell_span(cell_images, members) -> int:
    """The basis indices of span(lift(A) lift(B)) as a mask: the OR over x in
    A (members) of the indices of b_x lift(B), read off the cells."""
    span = 0
    for x in members:
        span |= cell_images[x]
    return span


def group_kneser_sweep(m: MulTable, exhaustive=True, seed=0, count=200) -> SweepReport:
    """Check |AB| >= |A| + |B| - |H_AB| over subset pairs of a group.

    A subset is its integer mask, bit i for element i.  Each pair is also
    re-derived through the group algebra: the span of lift(A) lift(B) must
    have dimension |AB| and its left stabilizer dimension |H_AB|.  Two bit
    tables drive the routes, 1 << xy from the multiplication table and
    1 << k from each cell b_x b_y = c b_k of the algebra, and per distinct
    B mask the images xB under both are computed once.  AB is the OR of xB
    over x in A, and the pair's span the OR of the cell images; |H_AB|
    counts the g with gAB = AB, once per AB, and the stabilizer is that of
    the pair's own span, once per span.
    """
    if exhaustive and not m.is_group():
        raise NotAGroup(f"{m.label} has non-invertible elements")
    alg = m.algebra()
    report = SweepReport()
    n = m.size
    masks = range(1, 1 << n)
    if exhaustive:
        pairs = ((a, b) for a in masks for b in masks)
    else:
        # choice draws the same index from masks as from the list of all subsets
        rng = random.Random(seed)
        picks = [rng.choice(masks) for _ in range(2 * count)]
        pairs = zip(picks[::2], picks[1::2])
    t = m.table
    table_bits = [[1 << k for k in row] for row in t]
    cell_bits = [[1 << cell[0][0] for cell in row] for row in alg.sparse]
    members = {}  # mask -> its set bits
    images = {}  # B -> (xB for each x, off the table; the same off the cells)
    stab_sizes = {}  # AB -> |H(AB)|
    stab_dims = {}  # span -> dim of its left stabilizer
    for a, b in pairs:
        if a not in members:
            members[a] = _bits(a)
        xs = members[a]
        if b not in images:
            if b not in members:
                members[b] = _bits(b)
            images[b] = _images(table_bits, members[b]), _images(cell_bits, members[b])
        by_table, by_cells = images[b]
        ab = 0
        for x in xs:
            ab |= by_table[x]
        if ab not in stab_sizes:
            # gAB is the OR of (gx)B over x in A
            stab_sizes[ab] = sum(reduce(or_, [by_table[row[x]] for x in xs]) == ab
                                 for row in t)
        h = stab_sizes[ab]
        report.pairs_checked += 1
        size_ab, size_a, size_b = ab.bit_count(), len(xs), b.bit_count()
        if size_ab < size_a + size_b - h:
            report.violations.append({
                "A": list(xs), "B": list(members[b]),
                "issue": "combinatorial bound",
                "|AB|": size_ab, "|A|": size_a, "|B|": size_b, "|H|": h,
            })
            continue
        span = _cell_span(by_cells, xs)
        # keyed on this pair's own span, so the stabilizer is that span's
        if span not in stab_dims:
            stab_dims[span] = sub.stabilizer(sub.coordinate_span(alg, _bits(span)),
                                             "left").dim
        hdim = stab_dims[span]
        if span.bit_count() != size_ab or hdim != h:
            report.violations.append({
                "A": list(xs), "B": list(members[b]),
                "issue": "algebra route disagrees",
                "dim_span": span.bit_count(), "|AB|": size_ab,
                "dim_stab": hdim, "|H|": h,
            })
    return report


@dataclass
class MonoidHamidouneReport:
    ba_size: int
    a_size: int
    b_size: int
    lam: Fraction
    atom_dim: int
    atom_exact: bool  # True at lambda = 1; else the atom is the best of two candidates
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
    """|BA| >= lam*|A| + |B| - lam*dim(atom) in the monoid algebra, V = lift(A).

    At lambda = 1 the atom is exact: for u a unit in A and W a subalgebra,
    span(WV) holds Wu, so c(W) = dim span(WV) - dim W >= 0, with equality
    iff V u^-1 lies in W; the atom is the subalgebra generated by V u^-1.
    At other lambda the minimum of c runs over two candidate subalgebras,
    the scalars and the left stabilizer of V.  A candidate C only gives
    c(C) >= kappa, so its bound may exceed the theorem's: a failure there
    decides nothing and is reported as None, not as a violation.
    """
    from . import sumsets

    u = units(m)
    if not (a & u):
        raise NoUnitIntersection("A misses the unit group of the monoid")
    if not (b & u):
        raise NoUnitIntersection("B misses the unit group of the monoid")
    lam = Fraction(lam)
    sumsets._check_lambda(lam)
    alg = m.algebra()
    va = lift_subset(alg, a)
    ba = minkowski(m, b, a)
    exact = lam == 1
    if exact:
        t = m.table
        unit = min(a & u)
        inverse = t[unit].index(m.unit_index)
        atom = sub.subalgebra_generated([alg.basis_element(t[x][inverse]) for x in sorted(a)])
    else:
        atom = min((sub.unit_span(alg), sub.stabilizer(va, "left")),
                   key=lambda c: (sumsets.connectivity_value(c, va, lam), c.dim))
    hstab = combinatorial_stabilizer(m, a, "left")
    holds = len(ba) >= lam * len(a) + len(b) - lam * atom.dim
    if not (holds or exact):
        holds = None  # a candidate's bound may exceed the theorem's
    kneser_rhs = len(a) + len(b) - len(combinatorial_stabilizer(m, ba, "left"))
    return MonoidHamidouneReport(
        ba_size=len(ba), a_size=len(a), b_size=len(b), lam=lam,
        atom_dim=atom.dim, atom_exact=exact,
        hamidoune_ok=holds,
        stab_size=len(hstab),
        atom_dominates_stab=atom.dim >= len(hstab),
        kneser_rhs=kneser_rhs,
        kneser_ok=len(ba) >= kneser_rhs,
    )
