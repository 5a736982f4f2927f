"""Subspace calculus inside an algebra.

A subspace is stored as its canonical reduced row echelon form in
primitive integer rows (linalg.int_rref), so equality and hashing are
structural; `basis` is the cached Fraction view of the same form.  Spans,
lattice operations, product spans, stabilizers and annihilators work on
the integer rows.  The module also implements invertibility certificates
and generated subalgebras.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice, product

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

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _holds(self, y) -> bool:
        """Whether the integer row y lies in the subspace."""
        return not any(linalg.residual(self.rows, self.pivots, y))

    def contains_vec(self, v: Vec) -> bool:
        return self._holds(linalg.integer_row(v)[0])

    def contains(self, x: Element) -> bool:
        if x.algebra is not self.algebra:
            raise AlgebraMismatch("element from a different algebra")
        return self.contains_vec(x.coords)

    def contains_space(self, other: "Subspace") -> bool:
        return all(self._holds(y) for y in other.rows)

    def elements(self) -> list[Element]:
        return [Element(self.algebra, v) for v in self.basis]

    def contains_unit(self) -> bool:
        return self.contains_vec(self.algebra.unit)

    def to_json(self):
        return {
            "algebra": self.algebra.label,
            "basis": [[str(c) for c in row] for row in self.basis],
        }

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
    return from_vecs(alg, [v.coords for v in vectors])


def coordinate_span(algebra: Algebra, indices) -> Subspace:
    """Span of the basis vectors b_i, i in indices; their unit rows are already canonical."""
    n = algebra.dim
    pivots = tuple(sorted(set(indices)))
    if pivots and not 0 <= pivots[0] <= pivots[-1] < n:
        raise ValueError(f"basis indices must lie in 0..{n - 1}")
    rows = tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in pivots)
    return Subspace(algebra, rows, pivots)


def full_space(algebra: Algebra) -> Subspace:
    return coordinate_span(algebra, range(algebra.dim))


def unit_span(algebra: Algebra) -> Subspace:
    return from_vecs(algebra, [algebra.unit])


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
    combos = linalg.int_nullspace(mat, v.dim + w.dim)[0]
    # the first dim V entries of a kernel vector combine V's rows into a vector of V n W
    return _span(v.algebra, [[sum(c * a for c, a in zip(cs, col)) for col in v_cols]
                             for cs in combos])


def product_span(v: Subspace, w: Subspace) -> Subspace:
    """Span of all pairwise products of basis vectors (the span of VW)."""
    _check_same(v, w)
    if v.dim == 0 or w.dim == 0:
        return zero_space(v.algebra)
    alg = v.algebra
    right = [linalg.nonzeros(b) for b in w.rows]
    # dict keys dedup the integer products and keep their order
    products = {}
    for a in v.rows:
        left = linalg.nonzeros(a)
        for b in right:
            products[tuple(alg.mul_pairs(left, b))] = None
    return _span(alg, products)


def translate(x: Element, v: Subspace, side="left") -> Subspace:
    """Span of x*V (left) or V*x (right)."""
    alg = v.algebra
    xs = linalg.nonzeros(linalg.integer_row(x.coords)[0])
    if side == "left":
        rows = [alg.mul_pairs(xs, linalg.nonzeros(b)) for b in v.rows]
    else:
        rows = [alg.mul_pairs(linalg.nonzeros(b), xs) for b in v.rows]
    return _span(alg, rows)


def stabilizer(v: Subspace, side="left") -> Subspace:
    """Solution space of x*V <= V (left) or V*x <= V (right).

    Directly the kernel of x -> (residual of x*b against V) over the rows
    b of V, in integers.  The residual vanishes on the pivot columns of V,
    so only the non-pivot coordinates give equations.
    """
    alg = v.algebra
    n = alg.dim
    if v.dim in (0, n):
        return full_space(alg)
    free = [k for k in range(n) if k not in v.pivots]
    rows = []
    for b in v.rows:
        # x -> x*b for the left stabilizer, x -> b*x for the right one; the
        # images of one b, and their residuals, share one integer scale,
        # which leaves the kernel alone
        images = alg.mul_images(b, "right" if side == "left" else "left")[0]
        residuals = [linalg.residual(v.rows, v.pivots, y) for y in images]
        rows.extend([r[k] for r in residuals] for k in free)
    return _span(alg, linalg.int_nullspace(rows, n)[0])


def annihilator(v: Subspace, side="left") -> Subspace:
    """Solution space of x*V = 0 (left) or V*x = 0 (right)."""
    alg = v.algebra
    if v.dim == 0:
        return full_space(alg)
    rows = []
    for b in v.rows:
        # the equations of x*b = 0 (or b*x = 0) are the columns of the images
        images = alg.mul_images(b, "right" if side == "left" else "left")[0]
        rows.extend(zip(*images))
    return _span(alg, linalg.int_nullspace(rows, alg.dim)[0])


def is_subalgebra(v: Subspace) -> bool:
    return v.contains_unit() and v.contains_space(product_span(v, v))


# -- invertibility ----------------------------------------------------


@dataclass(frozen=True)
class InvertibilityCertificate:
    kind: str  # "YES" | "NO_PROVEN" | "PROBABLY_NO"
    witness: Element | None
    trials_used: int


def _first_invertible(alg: Algebra, candidates) -> tuple[Element | None, int]:
    """The first invertible candidate (or None) and how many were tried."""
    used = 0
    for coords in candidates:
        used += 1
        x = Element(alg, coords)
        if x.is_invertible:
            return x, used
    return None, used


def contains_invertible(v: Subspace, trials: int = 64, seed: int = 0,
                        exhaustive_cap: int = 1000) -> InvertibilityCertificate:
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
    # Vandermonde line through the basis: x_1 + a x_2 + ... + a^{r-1} x_r
    line = (linalg.combine([a ** i for i in range(r)], v.basis)
            for a in range(1, alg.dim + r + 2))
    w, used = _first_invertible(alg, chain(v.basis, line))
    if w is not None:
        return InvertibilityCertificate("YES", w, used)
    grid = range(alg.dim + 1)
    if len(grid) ** r <= exhaustive_cap:
        w, _ = _first_invertible(alg, (linalg.combine(cs, v.basis)
                                       for cs in product(grid, repeat=r)))
        return InvertibilityCertificate("NO_PROVEN" if w is None else "YES", w, used)
    draws = islice(linalg.random_combinations(v.basis, 9, random.Random(seed)), trials)
    w, sampled = _first_invertible(alg, draws)
    return InvertibilityCertificate("PROBABLY_NO" if w is None else "YES", w, used + sampled)


def invertible_basis(v: Subspace, trials: int = 64, seed: int = 0) -> list[Element]:
    """Basis of V consisting of invertible elements.

    Uses the Vandermonde-line construction: with an invertible first
    basis vector, any dim(V) line points with distinct parameters form a
    basis, and at most dim(algebra) parameters can give a singular point.
    """
    cert = contains_invertible(v, trials=trials, seed=seed)
    if cert.kind != "YES":
        raise NoInvertibleFound(f"no invertible element found in {v!r} ({cert.kind})")
    alg = v.algebra
    a = cert.witness
    # basis of V starting with the invertible witness
    rows = [a.coords]
    for b in v.basis:
        if linalg.rank(rows + [b]) > len(rows):
            rows.append(b)
    if len(rows) != v.dim:
        raise NoInvertibleFound(f"witness {a!r} does not lie in {v!r}")
    line = (Element(alg, linalg.combine([alpha ** i for i in range(v.dim)], rows))
            for alpha in range(alg.dim + v.dim + 2))
    out = list(islice((x for x in line if x.is_invertible), v.dim))
    if len(out) < v.dim:
        raise NoInvertibleFound("Vandermonde-line search exhausted its budget")
    got = from_vecs(alg, [e.coords for e in out])
    if got != v:
        raise NoInvertibleFound("Vandermonde-line points do not span V")
    return out


def subalgebra_generated(elements: list[Element]) -> Subspace:
    """Least unital subalgebra containing the given elements."""
    if not elements:
        raise EmptyGeneratingSet("subalgebra of empty generating set")
    alg = elements[0].algebra
    cur = from_vecs(alg, [alg.unit] + [e.coords for e in elements])
    for _ in range(alg.dim + 1):
        nxt = lattice_sum(cur, product_span(cur, cur))
        if nxt.dim == cur.dim:
            return cur
        cur = nxt
    raise AssertionError("saturation failed to stabilize within dim iterations")
