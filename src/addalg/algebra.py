"""Finite-dimensional associative unital algebras over Q.

An Algebra stores its structure constants once, sparse and integral:
sparse[i][j] is the tuple of nonzero (k, c) pairs of b_i * b_j, scaled by
the common denominator den of all constants.  A monoid algebra has one
pair per cell, so it is monomial (Algebra.monomial).  One integer core
(Algebra.mul_pairs) sums products of elements; subspace.product_span and
the stabilizer equations read the cells themselves.
The dense tensor table[i][j] and the unit vector are Fraction views, and
from_structure_constants is the one dense entry point; the other
constructors (group/monoid multiplication tables, products of polynomial
quotients, companion-matrix subalgebras, full matrix algebras and direct
products) emit the sparse cells directly.  Products of polynomial
quotients and direct products share one block-diagonal layout
(_block_diagonal): each factor's cells, in its own coordinates, are
shifted into place and the product is built as one Algebra.  An Element is one integer row
over one denominator, in lowest terms; Element.coords, mul_coords and the
multiplication matrices are Fraction views.  An Algebra holds only integers,
the unit as unit_num over unit_den, and its label: nothing points back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import count
from math import gcd, lcm

from . import linalg
from .errors import AlgebraMismatch, BadUnit, EmptyDescription, NotAssociative
from .linalg import ONE, ZERO, Vec, vec
from .polynomials import Poly, poly_gcd

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

    The constants are stored once, as `sparse` over `den`: sparse[i][j] is
    the tuple of nonzero (k, den * c) pairs of b_i * b_j, in increasing k,
    all integers, with den the lcm of the constants' denominators.  `table`
    and `unit` are Fraction views, built when read; from_structure_constants
    is the dense entry point.  Instances are immutable after construction
    and compared by identity; Elements are tied to the Algebra that created
    them.
    """

    def __init__(self, cells, unit, label=""):
        # cells[i][j] holds the nonzero (k, c) of b_i * b_j, c rational, in increasing k
        self.den = lcm(*[c.denominator for row in cells for cell in row for _, c in cell])
        self.sparse = tuple(
            tuple(tuple((k, c.numerator * (self.den // c.denominator)) for k, c in cell)
                  for cell in row)
            for row in cells
        )
        self.dim = len(self.sparse)
        self.label = label
        one = self.element(unit)  # kept as integers: an Element points back here
        self.unit_num, self.unit_den = one.num, one.den

    # -- construction-time checks -------------------------------------

    def _validate(self):
        basis = [self.basis_element(i) for i in range(self.dim)]
        for i, b in enumerate(basis):
            if self.one() * b != b or b * self.one() != b:
                raise BadUnit(f"unit law fails on basis vector {i}")
        prod = [[b * c for c in basis] for b in basis]
        for i, b in enumerate(basis):
            for j in range(self.dim):
                for k, c in enumerate(basis):
                    if prod[i][j] * c != b * prod[j][k]:
                        raise NotAssociative(f"(b{i} b{j}) b{k} != b{i} (b{j} b{k})")

    # -- coordinate arithmetic ----------------------------------------

    @cached_property
    def table(self) -> tuple[tuple[Vec, ...], ...]:
        """The Fraction view of the constants: table[i][j] is b_i * b_j."""
        n = self.dim
        return tuple(tuple(linalg.fraction_row(self.mul_pairs(((i, 1),), ((j, 1),)), self.den)
                           for j in range(n)) for i in range(n))

    @property
    def unit(self) -> Vec:
        """The Fraction view of the unit element."""
        return linalg.fraction_row(self.unit_num, self.unit_den)

    def basis_vec(self, i: int) -> Vec:
        return tuple(ONE if j == i else ZERO for j in range(self.dim))

    def mul_pairs(self, xs, ys) -> list[int]:
        """den * (x*y), from the nonzero (index, integer) pairs of x and of y.

        The one product core for elements: every element product and
        multiplication image is summed here, in integers over `sparse`.
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
        """Coordinates of x * y: a Fraction view, kept for the benchmark's tracer."""
        return (self.element(x) * self.element(y)).coords

    @cached_property
    def commutative(self) -> bool:
        sparse = self.sparse
        return all(sparse[i][j] == sparse[j][i]
                   for i in range(self.dim) for j in range(i + 1, self.dim))

    @cached_property
    def monomial(self) -> bool:
        """Whether each product b_i b_j is a multiple of one basis vector (or 0).

        Monoid algebras, Q^n and the matrix units of M_n have this form.
        """
        return all(len(cell) <= 1 for row in self.sparse for cell in row)

    @cached_property
    def split_etale(self) -> bool:
        """Whether the basis is orthogonal idempotents: b_i b_j = [i = j] b_i."""
        return all(cell == (((i, self.den),) if i == j else ())
                   for i, row in enumerate(self.sparse) for j, cell in enumerate(row))

    # -- element factories --------------------------------------------

    def element(self, coords) -> "Element":
        coords = vec(coords)
        if len(coords) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {len(coords)}")
        return Element(self, *linalg.integer_row(coords))

    def basis_element(self, i: int) -> "Element":
        return Element(self, tuple(int(j == i) for j in range(self.dim)))

    def one(self) -> "Element":
        return Element(self, self.unit_num, self.unit_den)

    def zero(self) -> "Element":
        return Element(self, (0,) * self.dim)

    # -- multiplication operators --------------------------------------

    def mul_images(self, row, side: str) -> list[list[int]]:
        """Images of the basis under x -> v*x (side "left") or x -> x*v ("right").

        For v the integer row, image i is den times the coordinates of v*b_i
        (or of b_i*v), as integers.
        """
        nz = linalg.nonzeros(row)
        if side == "left":
            return [self.mul_pairs(nz, ((i, 1),)) for i in range(self.dim)]
        return [self.mul_pairs(((i, 1),), nz) for i in range(self.dim)]

    def _mul_matrix(self, v: Vec, side: str):
        # Fraction views of mul_images, kept for the tests and the benchmark's tracer
        x = self.element(v)
        den = x.den * self.den
        return [linalg.fraction_row(col, den) for col in zip(*self.mul_images(x.num, side))]

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
    """The element num / den: integers num and den > 0 with gcd(den, *num) == 1.

    __post_init__ is the one normal form, so equality and hashing are exact.
    """

    algebra: Algebra
    num: tuple[int, ...]
    den: int = 1

    def __post_init__(self):
        num, den = tuple(self.num), self.den
        g = gcd(den, *num) if den > 0 else -gcd(den, *num)
        if g != 1:
            num, den = tuple(a // g for a in num), den // g
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @cached_property
    def coords(self) -> Vec:
        """The Fraction view num / den."""
        return linalg.fraction_row(self.num, self.den)

    def _check(self, other: "Element"):
        if other.algebra is not self.algebra:
            raise AlgebraMismatch("elements belong to different algebras")

    def __mul__(self, other: "Element") -> "Element":
        self._check(other)
        alg = self.algebra
        acc = alg.mul_pairs(linalg.nonzeros(self.num), linalg.nonzeros(other.num))
        return Element(alg, acc, self.den * other.den * alg.den)

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        dx, dy = self.den, other.den
        return Element(self.algebra, [a * dy + b * dx for a, b in zip(self.num, other.num)],
                       dx * dy)

    def __sub__(self, other: "Element") -> "Element":
        return self + -other

    def scale(self, c) -> "Element":
        c = Fraction(c)
        return Element(self.algebra, [c.numerator * a for a in self.num], c.denominator * self.den)

    def __neg__(self) -> "Element":
        return self.scale(-1)

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    def __pow__(self, k: int) -> "Element":
        if k < 0:
            raise ValueError(f"negative exponent {k}: use invert() for an inverse")
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

        The matrix L of x -> self*x has the images of mul_images over den,
        self's denominator times the constants', as its columns.  One int_rref
        of den*L augmented with the unit's integer row du * unit (unit_num over
        unit_den), and int_kernel of that form, give both answers.  A pivot in
        the unit's column n means no inverse; the first kernel vector is 0 at
        n and gives the witness.  Else the last, at free column n, is
        S * (-z, 1) with den*L z = du*unit, free variables at zero, and the
        inverse is z * den / du.  inv * self is checked against the unit's
        integers, with no unit Element built.
        """
        alg = self.algebra
        n = alg.dim
        images = zip(*alg.mul_images(self.num, "left"))
        red, pivots = linalg.int_rref([row + (b,) for row, b in zip(images, alg.unit_num)])
        ker, scale = linalg.int_kernel(red, pivots, n + 1)
        if pivots and pivots[-1] == n:  # pivot in the unit's column: no inverse
            return NonInvertible(witness=Element(alg, ker[0][:n], scale))
        den = self.den * alg.den
        inv = Element(alg, [-a * den for a in ker[-1][:n]], scale * alg.unit_den)
        # one-sided inverses are two-sided in a finite-dimensional associative algebra
        check = inv * self
        if check.num != alg.unit_num or check.den != alg.unit_den:
            raise NotAssociative("right inverse is not a left inverse; "
                                 "the structure constants are not associative")
        return inv

    @property
    def is_invertible(self) -> bool:
        """The one invertibility test: x -> self*x has full rank.

        When the basis is orthogonal idempotents (split_etale) the map is
        diagonal, with the coordinates on its diagonal.  Otherwise the images
        self*b_i go into one forward echelon form (echelon_add) one at a
        time, and the first that reduces to zero shows a rank below dim: no
        further image is formed or reduced.
        """
        alg = self.algebra
        if alg.split_etale:
            return all(self.num)
        xs = linalg.nonzeros(self.num)
        out, pivots = [], []
        for i in range(alg.dim):
            if linalg.echelon_add(out, pivots, alg.mul_pairs(xs, ((i, 1),)))[1] is None:
                return False
        return True

    def __repr__(self):
        return f"Element({[str(c) for c in self.coords]})"


def min_poly(x: Element) -> Poly:
    """Monic minimal polynomial, from the first dependence among powers.

    Each power is an integer row y_k = s_k x^k formed by mul_pairs, with
    the positive integer scale s_k = du (dx den)^k of the unit's, x's and
    the constants' denominators, and a unit tag in column n + k.  It is
    reduced once against the forward echelon form of the lower powers.  The
    first one that reduces to zero leaves sum_j c_j y_j = 0 in its tag
    columns, so the polynomial's coefficients are c_j s_j / (c_k s_k).
    """
    alg = x.algebra
    n = alg.dim
    xs = linalg.nonzeros(x.num)
    y, s = alg.unit_num, alg.unit_den
    scales = []
    out, pivots = [], []
    for k in count():
        scales.append(s)
        row, j = linalg.echelon_add(out, pivots, [*y, *(int(i == k) for i in range(n + 1))])
        if j >= n:  # the powers' part reduced to zero
            lead = row[n + k] * s
            return Poly(tuple(Fraction(c * sj, lead) for c, sj in zip(row[n:], scales)))
        y = alg.mul_pairs(linalg.nonzeros(y), xs)
        s *= x.den * alg.den


def poly_at(p: Poly, x: Element) -> Element:
    acc = x.algebra.zero()
    for c in reversed(p.coeffs):
        acc = acc * x + x.algebra.one().scale(c)
    return acc


# -- constructors -----------------------------------------------------


def from_structure_constants(table, unit, label="") -> Algebra:
    """The dense entry point: table[i][j] holds the coordinates of b_i * b_j.

    The one constructor that checks the unit law and associativity; the
    others satisfy both by construction.
    """
    table = [[vec(cell) for cell in row] for row in table]
    unit = vec(unit)
    n = len(table)
    if n == 0:
        raise EmptyDescription("algebra must have positive dimension")
    if any(len(row) != n or any(len(c) != n for c in row) for row in table):
        raise EmptyDescription("structure-constant tensor is not n x n x n")
    if len(unit) != n:
        raise BadUnit("unit vector has wrong length")
    alg = Algebra([[linalg.nonzeros(cell) for cell in row] for row in table], unit, label=label)
    alg._validate()
    return alg


def monoid_algebra(mtable, label="") -> Algebra:
    """Q[M] with basis e_m indexed by table elements; e_x e_y = e_{xy}.

    The table is validated combinatorially, which implies associativity
    of the algebra, so the O(n^4) rational check is skipped.
    """
    cells = [[((k, 1),) for k in row] for row in mtable.table]
    unit = [int(k == mtable.unit_index) for k in range(mtable.size)]
    return Algebra(cells, unit, label=label or f"Q[{mtable.label}]")


def _block_diagonal(blocks, label) -> Algebra:
    """The product of the blocks, each (cells, unit) in its own coordinates.

    The one layout loop of the product constructors: each block's basis is
    shifted past the ones before it and every row is padded to the full
    dimension, so a product of any number of factors is one Algebra.
    """
    n = sum(len(cells) for cells, _ in blocks)
    rows, unit = [], []
    for cells, block_unit in blocks:
        off = len(unit)
        for row in cells:
            rows.append([()] * off + [tuple((off + k, c) for k, c in cell) for cell in row]
                        + [()] * (n - off - len(cells)))
        unit += block_unit
    return Algebra(rows, unit, label=label)


def poly_quotient_product(polys, label="") -> Algebra:
    """Product of quotients Q[T]/(P_i), power basis per factor.

    In the block of a factor P of degree d, b_i b_j is T^(i+j) mod P, one
    remainder for each i + j < 2d - 1.  P is monic, so each remainder is
    the last one times T, less its top coefficient times P.
    """
    polys = [p.monic() for p in polys]
    if not polys:
        raise EmptyDescription("need at least one factor polynomial")
    blocks = []
    for p in polys:
        if p.is_constant:
            raise EmptyDescription("factor polynomials must be non-constant")
        d = p.degree
        rems = [[Fraction(1)] + [Fraction(0)] * (d - 1)]  # coefficients of T^0 mod P
        for _ in range(2 * d - 2):
            top = rems[-1][-1]
            shifted = [Fraction(0)] + rems[-1][:-1]
            rems.append([r - top * c for r, c in zip(shifted, p.coeffs)] if top else shifted)
        cells = [[tuple((k, c) for k, c in enumerate(rems[i + j]) if c)
                  for j in range(d)] for i in range(d)]
        blocks.append((cells, [1] + [0] * (d - 1)))
    return _block_diagonal(blocks, label or " x ".join(f"Q[T]/({p})" for p in polys))


def split_etale_algebra(n: int, label="") -> Algebra:
    """Q^n with its basis of orthogonal idempotents."""
    return poly_quotient_product([Poly.x()] * n, label=label or f"Q^{n}")


def matrix_algebra(n: int, label="") -> Algebra:
    """Full matrix algebra M_n(Q), basis E_ij at index i*n + j; E_ij E_jl = E_il."""
    cells = [[((i * n + l, 1),) if j == k else () for k in range(n) for l in range(n)]
             for i in range(n) for j in range(n)]
    unit = [int(i == j) for i in range(n) for j in range(n)]
    return Algebra(cells, unit, label=label or f"M_{n}(Q)")


def direct_product(*factors: Algebra, label="") -> Algebra:
    """The block-diagonal product of the factors, each basis shifted past the ones before.

    The cells are built once, whatever the number of factors, and the
    product equals the pairwise fold from the left, down to the default
    label "(L) x (R)" of each step.
    """
    if not label:
        label = factors[0].label
        for f in factors[1:]:
            label = f"({label}) x ({f.label})"
    return _block_diagonal(
        [([[tuple((k, Fraction(c, f.den)) for k, c in cell) for cell in row] for row in f.sparse],
          f.unit) for f in factors], label)


def companion_algebra(polys, label="") -> Algebra:
    """Subalgebra Q[M] of a matrix algebra, M block-diagonal companion.

    Q[M] is presented in the power basis of M, i.e. as Q[T]/(mu_M): the
    minimal polynomial of the companion matrix of p is p, and that of a
    block-diagonal matrix is the lcm of its blocks'.
    """
    polys = [p.monic() for p in polys]
    if not polys:
        raise EmptyDescription("need at least one companion polynomial")
    if any(p.is_zero for p in polys):
        raise EmptyDescription("companion polynomials must be nonzero")
    mu = Poly.one()
    for p in polys:
        mu = mu * p // poly_gcd(mu, p)
    if mu.is_constant:
        raise EmptyDescription("algebra must have positive dimension")
    return poly_quotient_product([mu], label=label or f"Q[M], mu = {mu}")
