"""Subspace calculus inside an algebra.

Subspaces carry a canonical reduced-row-echelon basis, so equality is
structural.  The module implements spans, lattice operations, product
spans of subspaces, stabilizers, annihilators, invertibility
certificates and generated subalgebras.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
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
    algebra: Algebra
    basis: tuple[Vec, ...]
    pivots: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains_vec(self, v: Vec) -> bool:
        return linalg.in_span(self.basis, self.pivots, v)

    def contains(self, x: Element) -> bool:
        if x.algebra is not self.algebra:
            raise AlgebraMismatch("element from a different algebra")
        return self.contains_vec(x.coords)

    def contains_space(self, other: "Subspace") -> bool:
        return all(self.contains_vec(v) for v in other.basis)

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


def from_vecs(algebra: Algebra, vecs) -> Subspace:
    basis, pivots = linalg.rref([linalg.vec(v) for v in vecs])
    return Subspace(algebra, basis, pivots)


def span_of(vectors: list[Element]) -> Subspace:
    if not vectors:
        raise EmptyGeneratingSet("span of empty list")
    alg = vectors[0].algebra
    for v in vectors[1:]:
        if v.algebra is not alg:
            raise AlgebraMismatch("generators from different algebras")
    return from_vecs(alg, [v.coords for v in vectors])


def full_space(algebra: Algebra) -> Subspace:
    """The whole algebra; the identity matrix is already its canonical RREF."""
    n = algebra.dim
    return Subspace(algebra, tuple(algebra.basis_vec(i) for i in range(n)), tuple(range(n)))


def unit_span(algebra: Algebra) -> Subspace:
    return from_vecs(algebra, [algebra.unit])


def zero_space(algebra: Algebra) -> Subspace:
    return Subspace(algebra, (), ())


def _check_same(v: Subspace, w: Subspace):
    if v.algebra is not w.algebra:
        raise AlgebraMismatch("subspaces of different algebras")


def lattice_sum(v: Subspace, w: Subspace) -> Subspace:
    _check_same(v, w)
    return from_vecs(v.algebra, list(v.basis) + list(w.basis))


def lattice_intersect(v: Subspace, w: Subspace) -> Subspace:
    """Exact intersection via the joint-coefficient kernel."""
    _check_same(v, w)
    if v.dim == 0 or w.dim == 0:
        return zero_space(v.algebra)
    n = v.algebra.dim
    r, s = v.dim, w.dim
    mat = [
        tuple(v.basis[i][row] for i in range(r)) + tuple(-w.basis[j][row] for j in range(s))
        for row in range(n)
    ]
    combos = linalg.nullspace(mat, r + s)
    return from_vecs(v.algebra, [linalg.combine(c[:r], v.basis) for c in combos])


def product_span(v: Subspace, w: Subspace) -> Subspace:
    """Span of all pairwise products of basis vectors (the span of VW)."""
    _check_same(v, w)
    if v.dim == 0 or w.dim == 0:
        return zero_space(v.algebra)
    alg = v.algebra
    seen = set()
    vecs = []
    for a in v.basis:
        for b in w.basis:
            p = alg.mul_coords(a, b)
            if p not in seen:
                seen.add(p)
                vecs.append(p)
    return from_vecs(alg, vecs)


def translate(x: Element, v: Subspace, side="left") -> Subspace:
    """Span of x*V (left) or V*x (right)."""
    alg = v.algebra
    if side == "left":
        vecs = [alg.mul_coords(x.coords, b) for b in v.basis]
    else:
        vecs = [alg.mul_coords(b, x.coords) for b in v.basis]
    return from_vecs(alg, vecs)


def stabilizer(v: Subspace, side="left") -> Subspace:
    """Solution space of x*V <= V (left) or V*x <= V (right).

    Directly the kernel of x -> (residual of x*b against V) over the basis
    b of V.  The residual vanishes on the pivot columns of V's RREF basis,
    so only the non-pivot coordinates give equations.
    """
    alg = v.algebra
    n = alg.dim
    if v.dim in (0, n):
        return full_space(alg)
    free = [k for k in range(n) if k not in v.pivots]
    rows = []
    for b in v.basis:
        # x -> x*b for the left stabilizer, x -> b*x for the right one; the
        # images of one b share an integer scale, which leaves the kernel alone
        images = alg.mul_images(b, "right" if side == "left" else "left")[0]
        residuals = [linalg.reduce_against(v.basis, v.pivots, y) for y in images]
        rows.extend(tuple(r[k] for r in residuals) for k in free)
    return from_vecs(alg, linalg.nullspace(rows, n))


def annihilator(v: Subspace, side="left") -> Subspace:
    """Solution space of x*V = 0 (left) or V*x = 0 (right)."""
    alg = v.algebra
    if v.dim == 0:
        return full_space(alg)
    rows = []
    for b in v.basis:
        mul = alg.right_mul_matrix(b) if side == "left" else alg.left_mul_matrix(b)
        rows.extend(tuple(r) for r in mul)
    return from_vecs(alg, linalg.nullspace(rows, alg.dim))


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
