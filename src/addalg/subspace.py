"""Subspace calculus inside an algebra.

A subspace is stored as its canonical reduced row echelon form in
primitive integer rows (linalg.int_rref), so equality and hashing are
structural; `basis` is the cached Fraction view of the same form.  Spans,
lattice operations, product spans, stabilizers and annihilators work on
these rows and on the integer rows of Elements.  Membership and the
solution-space kernel _solutions of stabilizers (x*V <= V, target V) and
annihilators (x*V = 0, target 0) read one cached residual projection per
subspace, built directly for a coordinate space.  The kernel's equations
are read off the algebra's sparse cells and summed sparsely; those with one
variable force it to 0 without elimination, and only the rest, on the
other columns, are eliminated.
In a monomial algebra (Algebra.monomial) the product span of two
coordinate spaces (Subspace.coordinate), such as the lifts of two subsets
of a monoid, is the coordinate span of the cells' basis indices, with no
multiplication and no elimination.  Invertibility certificates and
invertible bases take their points from one Vandermonde line; the module
also builds generated subalgebras.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice, product
from math import lcm

from . import linalg
from .algebra import Algebra, Element
from .errors import (
    AlgebraMismatch,
    EmptyGeneratingSet,
    NoInvertibleFound,
    ZeroSubspace,
)
from .linalg import Vec

__all__ = [
    "Subspace",
    "span_of",
    "from_vecs",
    "coordinate_span",
    "block_span",
    "full_space",
    "unit_span",
    "zero_space",
    "lattice_sum",
    "lattice_intersect",
    "product_span",
    "stabilizer",
    "annihilator",
    "translate",
    "contains_invertible",
    "invertible_basis",
    "vandermonde_line",
    "subalgebra_generated",
    "is_subalgebra",
    "InvertibilityCertificate",
]


@dataclass(frozen=True)
class Subspace:
    """A subspace, stored as its canonical RREF in primitive integer rows.

    rows are the RREF rows scaled to coprime integers with a positive pivot,
    with every other pivot column cleared (linalg.int_rref).
    """

    algebra: Algebra
    rows: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...]

    @cached_property
    def basis(self) -> tuple[Vec, ...]:
        """The canonical RREF over Fraction, pivot entries 1."""
        return linalg.fraction_rows(self.rows, self.pivots)

    @cached_property
    def row_nonzeros(self) -> tuple[list[tuple[int, int]], ...]:
        """The nonzero (column, entry) pairs of each row, as linalg.nonzeros gives them."""
        return tuple(linalg.nonzeros(r) for r in self.rows)

    @cached_property
    def coordinate(self) -> bool:
        """Whether V is spanned by basis vectors: a primitive row with a positive
        pivot and one nonzero is a unit row."""
        return all(row.count(0) == len(row) - 1 for row in self.rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def _projection(self) -> list[Sequence[tuple[int, int]]]:
        """proj[k]: the (f, entry) pairs of the residual of b_k at V's free columns.

        The residual of y is L*y less y[pc] * L / row[pc] times each row, L
        the lcm of the pivots; it is 0 at the pivot columns, linear in y, and
        0 iff y lies in V.  The free columns are numbered f = 0, 1, ... in order.
        For a coordinate space the scale is 1 and the unit rows have no free
        entries, so proj[k] is ((f, 1),) at the free columns and empty at the
        pivots; those are built directly.
        """
        n = self.algebra.dim
        if self.coordinate:
            pivots = set(self.pivots)
            proj = [()] * n
            for f, k in enumerate([k for k in range(n) if k not in pivots]):
                proj[k] = ((f, 1),)
            return proj
        free = [k for k in range(n) if k not in self.pivots]
        scale = lcm(*[row[pc] for row, pc in zip(self.rows, self.pivots)])
        proj = [None] * n
        for f, k in enumerate(free):
            proj[k] = [(f, scale)]
        for row, pc in zip(self.rows, self.pivots):
            m = scale // row[pc]
            proj[pc] = [(f, -m * row[k]) for f, k in enumerate(free) if row[k]]
        return proj

    def _holds(self, y) -> bool:
        """Whether the integer row y lies in the subspace: its residual is zero."""
        res = [0] * (self.algebra.dim - len(self.rows))
        proj = self._projection
        for k, a in enumerate(y):
            if a:
                for f, p in proj[k]:
                    res[f] += a * p
        return not any(res)

    def contains(self, x: Element) -> bool:
        if x.algebra is not self.algebra:
            raise AlgebraMismatch("element from a different algebra")
        return self._holds(x.num)

    def contains_space(self, other: "Subspace") -> bool:
        return all(self._holds(y) for y in other.rows)

    def elements(self) -> list[Element]:
        return [Element(self.algebra, row, row[pc]) for row, pc in zip(self.rows, self.pivots)]

    def contains_unit(self) -> bool:
        return self._holds(self.algebra.unit_num)

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.algebra.label or 'algebra'})"


def _span(algebra: Algebra, rows) -> Subspace:
    """Span of integer rows."""
    return Subspace(algebra, *linalg.int_rref(rows))


def from_vecs(algebra: Algebra, vecs) -> Subspace:
    return _span(algebra, [linalg.integer_row(linalg.vec(v))[0] for v in vecs])


def span_of(vectors: list[Element]) -> Subspace:
    if not vectors:
        raise EmptyGeneratingSet("span of empty list")
    alg = vectors[0].algebra
    for v in vectors[1:]:
        if v.algebra is not alg:
            raise AlgebraMismatch("generators from different algebras")
    return _span(alg, [v.num for v in vectors])


def coordinate_span(algebra: Algebra, indices) -> Subspace:
    """Span of the basis vectors b_i, i in indices; their unit rows are already canonical."""
    n = algebra.dim
    pivots = tuple(sorted(set(indices)))
    if pivots and not 0 <= pivots[0] <= pivots[-1] < n:
        raise ValueError(f"basis indices must lie in 0..{n - 1}")
    units = linalg.unit_rows(n)
    return Subspace(algebra, tuple([units[i] for i in pivots]), pivots)


def block_span(algebra: Algebra, blocks) -> Subspace:
    """Span of the block indicators sum_{i in P} b_i, P in blocks.

    The blocks are non-empty and disjoint, so their 0/1 indicators, sorted
    by least index, are already canonical rows with pivot min(P).
    """
    n = algebra.dim
    blocks = sorted(sorted(b) for b in blocks)
    members = [i for b in blocks for i in b]
    if not all(blocks) or len(set(members)) < len(members) \
            or not all(0 <= i < n for i in members):
        raise ValueError(f"blocks must be non-empty, disjoint subsets of 0..{n - 1}")
    rows = tuple(tuple(int(i in b) for i in range(n)) for b in blocks)
    return Subspace(algebra, rows, tuple(b[0] for b in blocks))


def full_space(algebra: Algebra) -> Subspace:
    return coordinate_span(algebra, range(algebra.dim))


def unit_span(algebra: Algebra) -> Subspace:
    return _span(algebra, [algebra.unit_num])


def zero_space(algebra: Algebra) -> Subspace:
    return Subspace(algebra, (), ())


def _check_same(v: Subspace, w: Subspace):
    if v.algebra is not w.algebra:
        raise AlgebraMismatch("subspaces of different algebras")


def lattice_sum(v: Subspace, w: Subspace) -> Subspace:
    _check_same(v, w)
    return _span(v.algebra, v.rows + w.rows)


def lattice_intersect(v: Subspace, w: Subspace) -> Subspace:
    """Exact intersection via the joint-coefficient kernel."""
    _check_same(v, w)
    if v.dim == 0 or w.dim == 0:
        return zero_space(v.algebra)
    v_cols = list(zip(*v.rows))
    mat = [col_v + tuple(-a for a in col_w) for col_v, col_w in zip(v_cols, zip(*w.rows))]
    combos = linalg.int_kernel(*linalg.int_rref(mat), v.dim + w.dim)[0]
    # the first dim V entries of a kernel vector combine V's rows into a vector of V n W
    return _span(v.algebra, [[sum(c * a for c, a in zip(cs, col)) for col in v_cols]
                             for cs in combos])


def product_span(v: Subspace, w: Subspace) -> Subspace:
    """Span of all pairwise products of basis vectors (the span of VW).

    When the algebra is monomial and V and W are coordinate spaces, each
    product b_i b_j of their basis vectors is c b_k with c != 0, read off
    the cell sparse[i][j], or 0; the span is then the coordinate span of
    those k.  Other spaces multiply their integer rows through mul_pairs.
    """
    _check_same(v, w)
    if v.dim == 0 or w.dim == 0:
        return zero_space(v.algebra)
    alg = v.algebra
    if alg.monomial and v.coordinate and w.coordinate:
        sparse = alg.sparse
        return coordinate_span(alg, {sparse[i][j][0][0] for i in v.pivots
                                     for j in w.pivots if sparse[i][j]})
    right = w.row_nonzeros
    # dict keys dedup the integer products and keep their order
    products = {}
    for left in v.row_nonzeros:
        for b in right:
            products[tuple(alg.mul_pairs(left, b))] = None
    return _span(alg, products)


def translate(x: Element, v: Subspace, side="left") -> Subspace:
    """Span of x*V (left) or V*x (right)."""
    alg = v.algebra
    if x.algebra is not alg:
        raise AlgebraMismatch("element from a different algebra")
    xs = linalg.nonzeros(x.num)
    if side == "left":
        rows = [alg.mul_pairs(xs, b) for b in v.row_nonzeros]
    else:
        rows = [alg.mul_pairs(b, xs) for b in v.row_nonzeros]
    return _span(alg, rows)


def _solutions(v: Subspace, t: Subspace, side: str) -> Subspace:
    """Solution space of x*V <= T (left) or V*x <= T (right).

    The kernel of x -> (residual of x*b against T) over the rows b of V,
    one equation per row b and free column f of T, read through T's
    projection (the one membership reads).  The images are read off the
    cells: den * b_i*b (left side) is the sum of b_j * sparse[i][j] over
    b's nonzero (j, b_j), and den * b*b_i (right side) the sum of
    b_j * sparse[j][i]; each term's residual is its entry times the
    projection at its column.  Each equation is summed sparsely, as its
    (i, coefficient) terms.  An equation with one nonzero coefficient
    forces x_i = 0 with no elimination, and one whose coefficients cancel
    is dropped.  The others, restricted to the columns not forced to 0, go
    through int_rref and int_kernel, and the kernel is embedded back in n
    columns; when none is left, the answer is the coordinate span of the
    columns not forced to 0.
    """
    alg = v.algebra
    n = alg.dim
    proj = t._projection
    # cells[i][j] is the cell of b_i * b_j (left side) or of b_j * b_i (right side)
    cells = alg.sparse if side == "left" else tuple(zip(*alg.sparse))
    forced = set()
    rest = []
    for b in v.row_nonzeros:
        # eqs[f] holds the terms of the equation at T's free column f; the
        # images of one b, and their residuals, share one integer scale,
        # which leaves the kernel alone
        eqs = {}
        for i, row in enumerate(cells):
            for j, a in b:
                for k, c in row[j]:
                    for f, p in proj[k]:
                        if f in eqs:
                            eqs[f].append((i, a * c * p))
                        else:
                            eqs[f] = [(i, a * c * p)]
        for terms in eqs.values():
            # a, c and p are nonzero, so only repeated columns can cancel
            if len(terms) > 1:
                eq = {}
                for i, c in terms:
                    eq[i] = eq.get(i, 0) + c
                terms = [(i, c) for i, c in eq.items() if c]
            if len(terms) == 1:
                forced.add(terms[0][0])
            elif terms:
                rest.append(terms)
    free = [i for i in range(n) if i not in forced]
    col = {i: pos for pos, i in enumerate(free)}
    rows = []
    for terms in rest:
        row = [0] * len(free)
        for i, c in terms:
            if i in col:
                row[col[i]] = c
        if any(row):
            rows.append(row)
    if not rows:
        return coordinate_span(alg, free)
    kernel = linalg.int_kernel(*linalg.int_rref(rows), len(free))[0]
    return _span(alg, [[x[col[i]] if i in col else 0 for i in range(n)] for x in kernel])


def stabilizer(v: Subspace, side="left") -> Subspace:
    """Solution space of x*V <= V (left) or V*x <= V (right)."""
    if v.dim in (0, v.algebra.dim):
        return full_space(v.algebra)
    return _solutions(v, v, side)


def annihilator(v: Subspace, side="left") -> Subspace:
    """Solution space of x*V = 0 (left) or V*x = 0 (right).

    The target is the zero space: the residual against no rows is the image
    itself, so every coordinate of x*b gives an equation.
    """
    return _solutions(v, zero_space(v.algebra), side)


def is_subalgebra(v: Subspace) -> bool:
    return v.contains_unit() and v.contains_space(product_span(v, v))


# -- invertibility ----------------------------------------------------


@dataclass(frozen=True)
class InvertibilityCertificate:
    kind: str  # "YES" | "NO_PROVEN" | "PROBABLY_NO"
    witness: Element | None
    trials_used: int


def _first_invertible(candidates) -> tuple[Element | None, int]:
    """The first invertible candidate (or None) and how many were tried."""
    used = 0
    for x in candidates:
        used += 1
        if x.is_invertible:
            return x, used
    return None, used


def _combinations(elems: list[Element], coefficient_lists):
    """Each sum_i cs[i] * elems[i], lazily: integer rows over the elements' lcm den."""
    den = lcm(*[e.den for e in elems])
    rows = [[a * (den // e.den) for a in e.num] for e in elems]
    for cs in coefficient_lists:
        yield Element(elems[0].algebra, linalg.combine(cs, rows), den)


def vandermonde_line(elems: list[Element], params):
    """The points sum_i t^i * elems[i], t in params, lazily: any len(elems) of
    them at distinct parameters are independent (a Vandermonde matrix)."""
    r = len(elems)
    return _combinations(elems, ([t ** i for i in range(r)] for t in params))


# Largest grid, in points, that contains_invertible searches exhaustively.
GRID_CAP = 1000
# Random combinations contains_invertible samples when the grid is too large.
SAMPLES = 64


def contains_invertible(v: Subspace, seed: int = 0) -> InvertibilityCertificate:
    """Search V for an invertible element.

    Deterministic candidates first (basis vectors, unit, points on the
    Vandermonde line through the basis), then an exact grid decision when
    the space is small enough, then seeded random sampling.  NO is only
    claimed when proven: det of left multiplication restricted to V is a
    polynomial of degree <= dim(algebra) per coordinate, so vanishing on
    a full (n+1)-point grid per coordinate proves it vanishes identically.
    Grid points are not counted in trials_used.
    """
    alg = v.algebra
    if v.dim == 0:
        raise ZeroSubspace("cannot search the zero subspace for invertibles")
    if v.contains_unit():
        return InvertibilityCertificate("YES", alg.one(), 0)
    r = v.dim
    elems = v.elements()
    w, used = _first_invertible(chain(elems, vandermonde_line(elems, range(1, alg.dim + r + 2))))
    if w is not None:
        return InvertibilityCertificate("YES", w, used)
    grid = range(alg.dim + 1)
    if len(grid) ** r <= GRID_CAP:
        w, _ = _first_invertible(_combinations(elems, product(grid, repeat=r)))
        return InvertibilityCertificate("NO_PROVEN" if w is None else "YES", w, used)
    draws = islice(linalg.random_coefficients(r, 9, random.Random(seed)), SAMPLES)
    w, sampled = _first_invertible(_combinations(elems, draws))
    return InvertibilityCertificate("PROBABLY_NO" if w is None else "YES", w, used + sampled)


def invertible_basis(v: Subspace) -> list[Element]:
    """Basis of V consisting of invertible elements.

    The Vandermonde line p(t) through a basis of V whose first vector is
    invertible has r = dim(V) independent points at any r parameters.
    det(y -> p(t) y) has degree at most n(r - 1) in t, n = dim(algebra), and
    is nonzero at t = 0, so the n(r - 1) + r parameters 0, 1, ... give r
    invertible points.
    """
    cert = contains_invertible(v)
    if cert.kind != "YES":
        raise NoInvertibleFound(f"no invertible element found in {v!r} ({cert.kind})")
    alg, a, r = v.algebra, cert.witness, v.dim
    # basis of V starting with the invertible witness, grown with one
    # echelon form of the integer rows taken so far
    elems, out, pivots = [a], [], []
    linalg.echelon_add(out, pivots, a.num)
    for b, y in zip(v.elements(), v.rows):
        if linalg.echelon_add(out, pivots, y)[1] is not None:
            elems.append(b)
    if len(elems) != r:
        raise NoInvertibleFound(f"witness {a!r} does not lie in {v!r}")
    line = vandermonde_line(elems, range(alg.dim * (r - 1) + r))
    out = list(islice((x for x in line if x.is_invertible), r))
    if len(out) < r or span_of(out) != v:
        raise NoInvertibleFound("Vandermonde-line points do not span V")
    return out


def subalgebra_generated(elements: list[Element]) -> Subspace:
    """Least unital subalgebra containing the given elements.

    The first span is of the unit's integer row (unit_num) and the
    elements' rows; products of that span with itself grow it until it
    stops growing.
    """
    if not elements:
        raise EmptyGeneratingSet("subalgebra of empty generating set")
    alg = elements[0].algebra
    if any(x.algebra is not alg for x in elements):
        raise AlgebraMismatch("generators from different algebras")
    cur = _span(alg, [alg.unit_num, *(x.num for x in elements)])
    for _ in range(alg.dim + 1):
        nxt = product_span(cur, cur)  # holds cur, since cur holds the unit
        if nxt.dim == cur.dim:
            return cur
        cur = nxt
    raise AssertionError("saturation failed to stabilize within dim iterations")
