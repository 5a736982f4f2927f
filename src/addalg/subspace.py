"""Subspace calculus inside an algebra.

A subspace is stored as its canonical reduced row echelon form in
primitive integer rows (linalg.int_rref), so equality and hashing are
structural; `basis` is the cached Fraction view of the same form.  Spans,
lattice operations, product spans, stabilizers and annihilators work on
these rows and on the integer rows of Elements.  Membership and the
solution-space kernel _solutions of stabilizers (x*V <= V), annihilators
(x*V = 0) and preimages (x*y in T, for x^-1 T with no inverse) read one
cached residual projection per subspace: its int_kernel transposed, built
directly for a coordinate space.  Subspace._residual is the one sum of a
row's residual through it, for membership and for _inverse_image, the
combinations of given rows whose images lie in T, which lattice
intersections and the e-transform's A n Be^-1 read.
Subspace._column_ranks caches, once per subspace, the rank of V's
columns in every bit mask, which the exact atoms in Q^n read at any lambda.
coordinate_span seeds the cached coordinate flag, row pairs and
projection of its span, which it knows by construction.  The kernel's
equations are read off the algebra's sparse cells and summed sparsely;
those with one variable force it to 0 without elimination, and only the
rest are eliminated.
In a monomial algebra (Algebra.monomial) the product span of two
coordinate spaces (Subspace.coordinate), such as the lifts of two subsets
of a monoid, is the coordinate span of the cells' basis indices, with no
multiplication and no elimination.  Invertibility certificates and
invertible bases take their points from one Vandermonde line; the
invertible points of an invertible basis are also drawn lazily
(_invertible_points), so the e-transform recursion tests none past the
pivot it takes.  span(XW) <= T is tested product by product against T's
projection (_products_within), with no span of XW built.  The module also
builds generated subalgebras, as the last span of a lazy closure chain
(_closure) that stops when a square does not grow the span, and the
radical as the kernel of the trace form's integer Gram matrix.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice, product
from math import lcm
from operator import attrgetter

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
    "lattice_intersect",
    "product_span",
    "stabilizer",
    "annihilator",
    "translate",
    "preimage",
    "contains_invertible",
    "invertible_basis",
    "vandermonde_line",
    "subalgebra_generated",
    "is_subalgebra",
    "radical",
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
        """proj[k]: the nonzero (f, x_f[k]), x_f the kernel vectors of V's form.

        int_kernel gives one x_f per free column f = 0, 1, ... of V, orthogonal
        to V's rows, so y lies in V iff its residuals <x_f, y> are all zero.  A
        coordinate space's x_f are the unit rows at its free columns, built directly.
        """
        n = self.algebra.dim
        if self.coordinate:
            return _coordinate_projection(n, self.pivots)
        proj = [[] for _ in range(n)]
        for f, x in enumerate(linalg.int_kernel(self.rows, self.pivots, n)[0]):
            for k, a in enumerate(x):
                if a:
                    proj[k].append((f, a))
        return proj

    @cached_property
    def _column_ranks(self) -> list[int]:
        """ranks[mask]: the rank of V's columns in the bit mask, for every mask < 2^n.

        Each mask's forward echelon form is its prefix's (the mask without its
        top bit) plus that column.
        """
        n = self.algebra.dim
        cols = list(zip(*self.rows))
        forms = [([], [])] * (1 << n)  # mask -> echelon form (rows, pivots) of its columns
        ranks = [0] * (1 << n)
        for mask in range(1, 1 << n):  # a mask's prefix is smaller
            k = mask.bit_length() - 1
            rows, pivots = forms[mask ^ (1 << k)]
            rows, pivots = rows[:], pivots[:]
            linalg.echelon_add(rows, pivots, cols[k])
            forms[mask] = rows, pivots
            ranks[mask] = len(pivots)
        return ranks

    def _residual(self, y) -> list[int]:
        """The residuals <x_f, y> of the integer row y, one per free column f:
        all zero iff y lies in the subspace."""
        res = [0] * (self.algebra.dim - len(self.rows))
        proj = self._projection
        for k, a in enumerate(y):
            if a:
                for f, p in proj[k]:
                    res[f] += a * p
        return res

    def _holds(self, y) -> bool:
        """Whether the integer row y lies in the subspace: its residual is zero."""
        return not any(self._residual(y))

    def contains(self, x: Element) -> bool:
        if x.algebra is not self.algebra:
            raise AlgebraMismatch("element from a different algebra")
        return self._holds(x.num)

    def contains_space(self, other: "Subspace") -> bool:
        _check_same(self, other)
        return all(self._holds(y) for y in other.rows)

    def elements(self) -> list[Element]:
        return [Element(self.algebra, row, row[pc]) for row, pc in zip(self.rows, self.pivots)]

    def contains_unit(self) -> bool:
        return self._holds(self.algebra.unit_num)

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.algebra.label or 'algebra'})"


def _coordinate_projection(n: int, pivots) -> list[Sequence[tuple[int, int]]]:
    """The projection of the coordinate span at pivots: its x_f are the unit
    rows at its free columns, numbered in order."""
    pivots = set(pivots)
    proj = [()] * n
    for f, k in enumerate([k for k in range(n) if k not in pivots]):
        proj[k] = ((f, 1),)
    return proj


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
    """Span of the basis vectors b_i, i in indices; their unit rows are already canonical.

    The span's cached coordinate, row_nonzeros and _projection are known by
    construction, so they are seeded here rather than read off the rows.
    """
    n = algebra.dim
    pivots = tuple(sorted(set(indices)))
    if pivots and not 0 <= pivots[0] <= pivots[-1] < n:
        raise ValueError(f"basis indices must lie in 0..{n - 1}")
    units = linalg.unit_rows(n)
    v = Subspace(algebra, tuple([units[i] for i in pivots]), pivots)
    # a frozen dataclass refuses setattr; cached_property reads the instance
    # __dict__ first, so these stand for the computed values
    v.__dict__.update(coordinate=True, row_nonzeros=tuple([[(i, 1)] for i in pivots]),
                      _projection=_coordinate_projection(n, pivots))
    return v


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


def lattice_intersect(v: Subspace, w: Subspace) -> Subspace:
    """V n W: the combinations of V's rows that lie in W (_inverse_image)."""
    _check_same(v, w)
    return _inverse_image(v.algebra, v.rows, v.rows, w)


def _inverse_image(alg: Algebra, rows, images, t: Subspace) -> Subspace:
    """The span of the combinations sum c_i rows[i] whose image sum c_i images[i]
    lies in T: one kernel over len(rows) columns of the images' residuals
    against T, read through T's projection."""
    # column i of the system holds the residual of images[i]
    residuals = zip(*[t._residual(y) for y in images])
    combos = linalg.int_kernel(*linalg.int_rref(residuals), len(rows))[0]
    return _span(alg, [linalg.combine(c, rows) for c in combos])


def product_span(v: Subspace, w: Subspace) -> Subspace:
    """Span of all pairwise products of basis vectors (the span of VW).

    When the algebra is monomial and V and W are coordinate spaces, each
    product b_i b_j of their basis vectors is c b_k with c != 0, read off
    the cell sparse[i][j], or 0; the span is then the coordinate span of
    those k.  Other spaces multiply their integer rows through mul_pairs.
    A zero factor gives the zero span on either path.
    """
    _check_same(v, w)
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


def _products_within(left, w: Subspace, t: Subspace) -> bool:
    """Whether span(XW) <= T, X the span of the integer rows `left` of T's
    algebra, each given as its nonzero (index, entry) pairs
    (Subspace.row_nonzeros): every product x*y of such a row x by a row y of
    W lies in T.  Each product is read through T's projection, the first
    outside T stops the test, and no span of XW is built."""
    _check_same(w, t)
    mul, right = t.algebra.mul_pairs, w.row_nonzeros
    return all(t._holds(mul(x, y)) for x in left for y in right)


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


def preimage(x: Element, t: Subspace, side="left") -> Subspace:
    """{y : x*y in T} (left) or {y : y*x in T} (right), with no inverse formed:
    x^-1 T or T x^-1 when x is invertible."""
    if x.algebra is not t.algebra:
        raise AlgebraMismatch("element from a different algebra")
    return _solutions(span_of([x]), t, "right" if side == "left" else "left")


def is_subalgebra(v: Subspace) -> bool:
    return v.contains_unit() and v.contains_space(product_span(v, v))


def radical(alg: Algebra) -> Subspace:
    """The radical of the trace form (x, y) -> tr L_{xy}, as a subspace.

    Over Q it is the Jacobson radical (Dickson's criterion), and in a
    commutative algebra the nilradical.  den^2 times the form's Gram
    matrix on the basis is integral: den * tr L_{b_k} sums, over m, the
    entry of the cell sparse[k][m] at index m, and b_i b_j is the sum of
    c / den times b_k over the (k, c) of its cell.  The radical is that
    matrix's kernel.
    """
    sparse = alg.sparse
    traces = [sum(c for m, cell in enumerate(row) for i, c in cell if i == m) for row in sparse]
    gram = [[sum(c * traces[k] for k, c in cell) for cell in row] for row in sparse]
    return _span(alg, linalg.int_kernel(*linalg.int_rref(gram), alg.dim)[0])


# -- invertibility ----------------------------------------------------


@dataclass(frozen=True)
class InvertibilityCertificate:
    kind: str  # "YES" | "NO_PROVEN" | "PROBABLY_NO" (non-commutative algebras only)
    witness: Element | None
    trials_used: int


def _first(candidates, test):
    """(x, test(x), tried) for the first candidate x whose test(x) is true,
    or (None, None, tried) when none is; tried counts the candidates tested."""
    tried = 0
    for x in candidates:
        tried += 1
        if result := test(x):
            return x, result, tried
    return None, None, tried


_invertible = attrgetter("is_invertible")


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


def contains_invertible(v: Subspace) -> InvertibilityCertificate:
    """Search V for an invertible element: the unit, V's basis v_i, then the
    points t = 1, 2, ... of the Vandermonde line p(t) = sum t^i v_i.

    In a commutative algebra the line decides.  x is invertible iff none of
    the at most n = dim(algebra) characters chi over Q-bar vanishes at x;
    each is linear and, when V holds an invertible, nonzero on V, so
    chi(p(t)) has at most r - 1 roots (r = dim V), and NO is proven after
    max(n + r + 1, n(r - 1) + 1) points.  Elsewhere (Edmonds' problem) the
    line stops at t = n + r + 1; an exact grid of (n+1)^r points decides
    when small enough (det of y -> x y has degree <= n per coordinate),
    else SAMPLES random combinations, drawn from the fixed stream
    random.Random(0), so every answer is a function of V alone.  Grid
    points are not counted in trials_used.
    """
    alg = v.algebra
    if v.dim == 0:
        raise ZeroSubspace("cannot search the zero subspace for invertibles")
    if v.contains_unit():
        return InvertibilityCertificate("YES", alg.one(), 0)
    n, r = alg.dim, v.dim
    elems = v.elements()
    last = max(n + r + 1, n * (r - 1) + 1) if alg.commutative else n + r + 1
    w, _, used = _first(chain(elems, vandermonde_line(elems, range(1, last + 1))), _invertible)
    if w is not None:
        return InvertibilityCertificate("YES", w, used)
    if alg.commutative:
        return InvertibilityCertificate("NO_PROVEN", None, used)
    grid = range(n + 1)
    if len(grid) ** r <= GRID_CAP:
        w, _, _ = _first(_combinations(elems, product(grid, repeat=r)), _invertible)
        return InvertibilityCertificate("NO_PROVEN" if w is None else "YES", w, used)
    draws = islice(linalg.random_coefficients(r, 9, random.Random(0)), SAMPLES)
    w, _, sampled = _first(_combinations(elems, draws), _invertible)
    return InvertibilityCertificate("PROBABLY_NO" if w is None else "YES", w, used + sampled)


def _invertible_points(v: Subspace):
    """The first r = dim(V) invertible points of the Vandermonde line p(t)
    through a basis of V whose first vector is invertible, lazily, in the
    order of t = 0, 1, ...: the points are tested as they are drawn.

    Any r points of the line at distinct parameters are independent.
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
    return islice((x for x in line if x.is_invertible), r)


def invertible_basis(v: Subspace) -> list[Element]:
    """Basis of V consisting of invertible elements: the points of
    _invertible_points, checked to span V."""
    out = list(_invertible_points(v))
    if len(out) < v.dim or span_of(out) != v:
        raise NoInvertibleFound("Vandermonde-line points do not span V")
    return out


def _closure(elements: list[Element]):
    """The spans of the closure of the given elements, lazily, each holding
    the one before: span(1, S) of the unit's integer row (unit_num) and the
    elements' rows, then its square, and so on.  Every one lies in the
    subalgebra S generates, and the last is that subalgebra: the chain stops
    at a span whose square does not grow it.
    """
    if not elements:
        raise EmptyGeneratingSet("subalgebra of empty generating set")
    alg = elements[0].algebra
    if any(x.algebra is not alg for x in elements):
        raise AlgebraMismatch("generators from different algebras")
    cur = _span(alg, [alg.unit_num, *(x.num for x in elements)])
    for _ in range(alg.dim + 1):
        yield cur
        nxt = product_span(cur, cur)  # holds cur, since cur holds the unit
        if nxt.dim == cur.dim:
            return
        cur = nxt
    raise AssertionError("saturation failed to stabilize within dim iterations")


def subalgebra_generated(elements: list[Element]) -> Subspace:
    """Least unital subalgebra containing the given elements: the last span
    of their _closure."""
    *_, last = _closure(elements)
    return last
