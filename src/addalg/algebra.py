"""Finite-dimensional associative unital algebras over Q.

An Algebra is a structure-constant tensor: table[i][j] holds the
coordinates of b_i * b_j in the distinguished basis, plus a unit vector.
Multiplication reads a sparse integer copy of the tensor: each cell is the
tuple of its nonzero (k, c) pairs, scaled by the common denominator of
all structure constants.  A monoid algebra has one pair per cell.  One
integer core (Algebra.mul_pairs) sums every product; mul_coords and
mul_images are its views for rational coordinates.
Constructors cover explicit tensors, group/monoid multiplication tables,
products of polynomial quotients, companion-matrix subalgebras, full
matrix algebras and direct products.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import lcm

from . import linalg
from .errors import BadUnit, EmptyDescription, NotAssociative
from .linalg import ONE, ZERO, Vec, vec
from .polynomials import Poly

__all__ = [
    "Algebra",
    "Element",
    "NonInvertible",
    "from_structure_constants",
    "monoid_algebra",
    "poly_quotient_product",
    "split_etale_algebra",
    "matrix_algebra",
    "direct_product",
    "companion_algebra",
    "min_poly",
    "poly_at",
]


class Algebra:
    """Unital associative algebra given by structure constants.

    Instances are immutable after construction and compared by identity;
    Elements are tied to the Algebra that created them.
    """

    def __init__(self, table, unit, label="", validate=True, split_etale=False,
                 source_table=None):
        self.table = tuple(tuple(vec(cell) for cell in row) for row in table)
        # sparse[i][j] holds the nonzero (k, den * c) of b_i * b_j, all integers
        self.den = lcm(*[c.denominator for row in self.table for cell in row for c in cell])
        self.sparse = tuple(
            tuple(tuple((k, c.numerator * (self.den // c.denominator))
                        for k, c in enumerate(cell) if c) for cell in row)
            for row in self.table
        )
        self.dim = len(self.table)
        self.unit = vec(unit)
        self.label = label
        self.split_etale = split_etale
        self.source_table = source_table
        self._commutative: bool | None = None
        if self.dim == 0:
            raise EmptyDescription("algebra must have positive dimension")
        for row in self.table:
            if len(row) != self.dim or any(len(c) != self.dim for c in row):
                raise EmptyDescription("structure-constant tensor is not n x n x n")
        if len(self.unit) != self.dim:
            raise BadUnit("unit vector has wrong length")
        if validate:
            self._validate()

    # -- construction-time checks -------------------------------------

    def _validate(self):
        n = self.dim
        for i in range(n):
            bi = self.basis_vec(i)
            if self.mul_coords(self.unit, bi) != bi or self.mul_coords(bi, self.unit) != bi:
                raise BadUnit(f"unit law fails on basis vector {i}")
        for i in range(n):
            for j in range(n):
                ij = self.table[i][j]
                for k in range(n):
                    left = self.mul_coords(ij, self.basis_vec(k))
                    right = self.mul_coords(self.basis_vec(i), self.table[j][k])
                    if left != right:
                        raise NotAssociative(f"(b{i} b{j}) b{k} != b{i} (b{j} b{k})")

    # -- coordinate arithmetic ----------------------------------------

    def basis_vec(self, i: int) -> Vec:
        return tuple(ONE if j == i else ZERO for j in range(self.dim))

    def mul_pairs(self, xs, ys) -> list[int]:
        """den * (x*y), from the nonzero (index, integer) pairs of x and of y.

        The one product core: every product and multiplication image is
        summed here, in integers over `sparse`.
        """
        acc = [0] * self.dim
        sparse = self.sparse
        for i, a in xs:
            row = sparse[i]
            for j, b in ys:
                c = a * b
                for k, t in row[j]:
                    acc[k] += c * t
        return acc

    def mul_coords(self, x: Vec, y: Vec) -> Vec:
        """Coordinates of x * y."""
        xn, dx = linalg.integer_row(x)
        yn, dy = linalg.integer_row(y)
        acc = self.mul_pairs(linalg.nonzeros(xn), linalg.nonzeros(yn))
        den = dx * dy * self.den
        return tuple(Fraction(a, den) if a else ZERO for a in acc)

    @property
    def commutative(self) -> bool:
        if self._commutative is None:
            self._commutative = all(
                self.table[i][j] == self.table[j][i]
                for i in range(self.dim)
                for j in range(i + 1, self.dim)
            )
        return self._commutative

    # -- element factories --------------------------------------------

    def element(self, coords) -> "Element":
        coords = vec(coords)
        if len(coords) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {len(coords)}")
        return Element(self, coords)

    def basis_element(self, i: int) -> "Element":
        return Element(self, self.basis_vec(i))

    def one(self) -> "Element":
        return Element(self, self.unit)

    def zero(self) -> "Element":
        return Element(self, linalg.zero_vec(self.dim))

    # -- multiplication operators --------------------------------------

    def mul_images(self, v, side: str) -> tuple[list[list[int]], int]:
        """Images of the basis under x -> v*x (side "left") or x -> x*v ("right").

        v is a rational row (Fraction or int entries).  Returns (rows, den)
        where rows[i] is den times the coordinates of v*b_i (or of b_i*v),
        as integers.
        """
        vn, dv = linalg.integer_row(v)
        nz = linalg.nonzeros(vn)
        if side == "left":
            rows = [self.mul_pairs(nz, ((i, 1),)) for i in range(self.dim)]
        else:
            rows = [self.mul_pairs(((i, 1),), nz) for i in range(self.dim)]
        return rows, dv * self.den

    def _mul_matrix(self, v: Vec, side: str):
        # Fraction views of mul_images, kept for the tests and the benchmark's tracer
        rows, den = self.mul_images(v, side)
        return [tuple(Fraction(a, den) if a else ZERO for a in col) for col in zip(*rows)]

    def right_mul_matrix(self, v: Vec):
        """Matrix of x -> x*v (columns indexed by basis of x)."""
        return self._mul_matrix(v, "right")

    def left_mul_matrix(self, v: Vec):
        """Matrix of x -> v*x."""
        return self._mul_matrix(v, "left")

    def __repr__(self):
        return f"Algebra({self.label or 'anonymous'}, dim={self.dim})"


@dataclass(frozen=True)
class NonInvertible:
    """Failure value for inversion: witness satisfies x * witness = 0."""

    witness: "Element"


@dataclass(frozen=True)
class Element:
    algebra: Algebra
    coords: Vec

    def _check(self, other: "Element"):
        if other.algebra is not self.algebra:
            from .errors import AlgebraMismatch

            raise AlgebraMismatch("elements belong to different algebras")

    def __mul__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.algebra, self.algebra.mul_coords(self.coords, other.coords))

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.algebra, linalg.vec_add(self.coords, other.coords))

    def __sub__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.algebra, linalg.vec_sub(self.coords, other.coords))

    def scale(self, c) -> "Element":
        return Element(self.algebra, linalg.vec_scale(Fraction(c), self.coords))

    def __neg__(self) -> "Element":
        return self.scale(-1)

    @property
    def is_zero(self) -> bool:
        return linalg.is_zero_vec(self.coords)

    def __pow__(self, k: int) -> "Element":
        acc = self.algebra.one()
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def invert(self) -> "Element | NonInvertible":
        """Two-sided inverse, or a kernel witness if none exists.

        The matrix L of x -> self*x has the images of mul_images over den as
        its columns.  One int_rref of those images transposed, augmented with
        the unit cleared to integers (du * unit), solves den*L z = du*unit;
        the inverse is z * den / du, free variables at zero.
        """
        alg = self.algebra
        n = alg.dim
        images, den = alg.mul_images(self.coords, "left")
        mat = list(zip(*images))
        unit, du = linalg.integer_row(alg.unit)
        red, pivots = linalg.int_rref([row + (b,) for row, b in zip(mat, unit)])
        if pivots and pivots[-1] == n:  # pivot in the augmented column
            ker, scale = linalg.int_nullspace(mat, n)
            return NonInvertible(witness=Element(alg, tuple(
                Fraction(a, scale) if a else ZERO for a in ker[0])))
        y = [ZERO] * n
        for row, pc in zip(red, pivots):
            if row[n]:
                y[pc] = Fraction(row[n] * den, row[pc] * du)
        inv = Element(alg, tuple(y))
        # one-sided inverses are two-sided in a finite-dimensional associative algebra
        if (inv * self).coords != alg.unit:
            raise NotAssociative("right inverse is not a left inverse; "
                                 "the structure constants are not associative")
        return inv

    @property
    def is_invertible(self) -> bool:
        """The one invertibility test: x -> self*x has full rank."""
        alg = self.algebra
        return linalg.rank(alg.mul_images(self.coords, "left")[0]) == alg.dim

    def __repr__(self):
        return f"Element({[str(c) for c in self.coords]})"


def min_poly(x: Element) -> Poly:
    """Monic minimal polynomial, from the first dependence among powers.

    Each power is an integer row y_k = s_k x^k formed by mul_pairs, with
    the positive integer scale s_k = du (dx den)^k of the cleared unit, the
    cleared x and the constants, and a unit tag in column n + k.  It is
    reduced once against the forward echelon form of the lower powers.  The
    first one that reduces to zero leaves sum_j c_j y_j = 0 in its tag
    columns, so the polynomial's coefficients are c_j s_j / (c_k s_k).
    """
    alg = x.algebra
    n = alg.dim
    xn, dx = linalg.integer_row(x.coords)
    xs = linalg.nonzeros(xn)
    y, s = linalg.integer_row(alg.unit)
    scales = []
    out, pivots = [], []
    for k in count():
        scales.append(s)
        row, j = linalg.echelon_add(out, pivots, y + [int(i == k) for i in range(n + 1)])
        if j >= n:  # the powers' part reduced to zero
            lead = row[n + k] * s
            return Poly(tuple(Fraction(c * sj, lead) for c, sj in zip(row[n:], scales)))
        y = alg.mul_pairs(linalg.nonzeros(y), xs)
        s *= dx * alg.den


def poly_at(p: Poly, x: Element) -> Element:
    acc = x.algebra.zero()
    for c in reversed(p.coeffs):
        acc = acc * x + x.algebra.one().scale(c)
    return acc


# -- constructors -----------------------------------------------------


def from_structure_constants(table, unit, label="", validate=True) -> Algebra:
    return Algebra(table, unit, label=label, validate=validate)


def monoid_algebra(mtable, label="") -> Algebra:
    """Q[M] with basis e_m indexed by table elements; e_x e_y = e_{xy}.

    The table is validated combinatorially, which implies associativity
    of the algebra, so the O(n^4) rational check is skipped.
    """
    n = mtable.size
    table = [
        [tuple(ONE if k == mtable.table[i][j] else ZERO for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    unit = tuple(ONE if k == mtable.unit_index else ZERO for k in range(n))
    return Algebra(table, unit, label=label or f"Q[{mtable.label}]", validate=False,
                   source_table=mtable)


def poly_quotient_product(polys, label="") -> Algebra:
    """Product of quotients Q[T]/(P_i), power basis per factor."""
    polys = [p.monic() for p in polys]
    if not polys:
        raise EmptyDescription("need at least one factor polynomial")
    for p in polys:
        if p.is_constant:
            raise EmptyDescription("factor polynomials must be non-constant")
    degs = [p.degree for p in polys]
    offsets = []
    acc = 0
    for d in degs:
        offsets.append(acc)
        acc += d
    n = acc
    table = [[linalg.zero_vec(n) for _ in range(n)] for _ in range(n)]
    for f, p in enumerate(polys):
        off, d = offsets[f], degs[f]
        for i in range(d):
            for j in range(d):
                rem = Poly.monomial(i + j) % p
                cell = [ZERO] * n
                for k, c in enumerate(rem.coeffs):
                    cell[off + k] = c
                table[off + i][off + j] = tuple(cell)
    unit = [ZERO] * n
    for off in offsets:
        unit[off] = ONE
    split = all(d == 1 for d in degs)
    if not label:
        label = " x ".join(f"Q[T]/({p})" for p in polys)
    return Algebra(table, unit, label=label, validate=False, split_etale=split)


def split_etale_algebra(n: int, label="") -> Algebra:
    """Q^n with its basis of orthogonal idempotents."""
    return poly_quotient_product([Poly.x()] * n, label=label or f"Q^{n}")


def matrix_algebra(n: int, label="") -> Algebra:
    """Full matrix algebra M_n(Q), basis E_ij at index i*n + j."""
    dim = n * n
    table = [[linalg.zero_vec(dim) for _ in range(dim)] for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if j == k:
                        cell = [ZERO] * dim
                        cell[i * n + l] = ONE
                        table[i * n + j][k * n + l] = tuple(cell)
    unit = [ZERO] * dim
    for i in range(n):
        unit[i * n + i] = ONE
    return Algebra(table, unit, label=label or f"M_{n}(Q)", validate=False)


def direct_product(a: Algebra, b: Algebra, label="") -> Algebra:
    n = a.dim + b.dim
    table = [[linalg.zero_vec(n) for _ in range(n)] for _ in range(n)]
    for i in range(a.dim):
        for j in range(a.dim):
            table[i][j] = tuple(a.table[i][j]) + linalg.zero_vec(b.dim)
    for i in range(b.dim):
        for j in range(b.dim):
            table[a.dim + i][a.dim + j] = linalg.zero_vec(a.dim) + tuple(b.table[i][j])
    unit = tuple(a.unit) + tuple(b.unit)
    return Algebra(table, unit, label=label or f"({a.label}) x ({b.label})",
                   validate=False, split_etale=a.split_etale and b.split_etale)


def companion_algebra(polys, label="") -> Algebra:
    """Subalgebra Q[M] of a matrix algebra, M block-diagonal companion.

    Q[M] is presented in the power basis of M, i.e. as Q[T]/(mu_M).
    """
    polys = [p.monic() for p in polys]
    if not polys:
        raise EmptyDescription("need at least one companion polynomial")
    r = sum(p.degree for p in polys)
    coords = [ZERO] * (r * r)  # M as an element of M_r(Q), E_ij at index i*r + j
    off = 0
    for p in polys:
        d = p.degree
        for i in range(d):
            if i:
                coords[(off + i) * r + off + i - 1] = ONE
            coords[(off + i) * r + off + d - 1] = -p.coeffs[i]
        off += d
    mu = min_poly(matrix_algebra(r).element(coords))
    return poly_quotient_product([mu], label=label or f"Q[M], mu = {mu}")
