"""Exact linear algebra over the rationals, in integer rows.

Rational rows are cleared to integers at the boundary (integer_row) and
come back through one view (fraction_row).  int_rref gives the canonical
reduced row echelon form as primitive integer rows with positive pivots
and cleared pivot columns, so two spans are equal iff their forms compare
equal.  int_kernel reads the kernel off such a form, so
Element.invert reads both its inverse and its witness off one
elimination.  unit_rows are the canonical rows of the coordinate spans,
which are built directly rather than eliminated.  echelon_add carries a
forward echelon form one row at a time: the invertibility test, min_poly's
powers and the atoms' block ranks grow their forms with it instead of
eliminating again.  The Fraction functions (rref, nullspace, solve, det)
are views of the integer ones, with pivot entries 1; the library no
longer calls them, and they remain for the tests and the benchmark's
tracer.  A Vec, a rational row at the boundary, is Fractions.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cache
from math import gcd, lcm

Vec = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def vec(values) -> Vec:
    return tuple(v if type(v) is Fraction else Fraction(v) for v in values)


def combine(coeffs, rows) -> tuple:
    """The linear combination sum_i coeffs[i] * rows[i] of non-empty rows."""
    acc = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        if c:
            for j, a in enumerate(row):
                if a:
                    acc[j] += c * a
    return tuple(acc)


def random_coefficients(k: int, bound: int, rng):
    """Endless seeded stream of lists of k integer coefficients in [-bound, bound].

    Each list draws its k coefficients from rng, in order, only when it is
    asked for, so other draws from the same rng may sit between lists.
    """
    while True:
        yield [rng.randint(-bound, bound) for _ in range(k)]


def primitive(row: list[int]) -> list[int]:
    """Integer row divided by its content (the gcd of its entries)."""
    g = gcd(*row)
    return [a // g for a in row] if g > 1 else row


def integer_row(row) -> tuple[list[int], int]:
    """(den * row, den) with den the lcm of the row's denominators."""
    den = lcm(*[a.denominator for a in row])
    if den == 1:
        return [a.numerator for a in row], 1
    return [a.numerator * (den // a.denominator) for a in row], den


def nonzeros(row) -> list[tuple[int, int]]:
    """The (column, entry) pairs of a row's nonzero entries."""
    return [(j, a) for j, a in enumerate(row) if a]


@cache
def unit_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """The n unit rows of width n, the canonical rows of the coordinate spans."""
    return tuple((0,) * j + (1,) + (0,) * (n - 1 - j) for j in range(n))


def _reduce_row(row, out, pivots) -> tuple[list[int], int | None]:
    """Integer row reduced against echelon rows, made primitive, and its first nonzero column.

    The rows in out have their pivots at the sorted columns in pivots and are
    zero before them; each step is one fraction-free combination of two
    integer rows.
    """
    for prow, pc in zip(out, pivots):
        c = row[pc]
        if c:
            p = prow[pc]
            row = [p * a - c * b for a, b in zip(row, prow)]
    row = primitive(row)
    return row, next((j for j, a in enumerate(row) if a), None)


def int_rref(rows) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Canonical reduced row echelon form of integer rows, in primitive integer rows.

    Returns (nonzero rows, pivot columns).  Each row is the canonical RREF
    row scaled to coprime integers with a positive pivot, and every other
    pivot column is cleared in it.  The form is unique, so two spans are
    equal iff their forms compare equal.  Elimination is fraction-free, in
    the style of Bareiss (1968): each step combines two integer rows, and
    every new row is divided by its content.  Each row is reduced against
    the form so far and then clears its pivot column in the earlier rows.
    """
    pivots: list[int] = []
    out: list = []
    for r in rows:
        row, j = _reduce_row(r, out, pivots)
        if j is None:
            continue
        p = row[j]
        if p < 0:
            row, p = [-a for a in row], -p
        for i, prow in enumerate(out):
            c = prow[j]
            if c:
                out[i] = primitive([p * a - c * b for a, b in zip(prow, row)])
        pos = bisect_left(pivots, j)
        pivots.insert(pos, j)
        out.insert(pos, row)
    return tuple(map(tuple, out)), tuple(pivots)


def fraction_row(row, den: int) -> Vec:
    """The Fraction view of the integer row over den: row / den."""
    return tuple(Fraction(a, den) if a else ZERO for a in row)


def fraction_rows(rows, pivots) -> tuple[Vec, ...]:
    """The Fraction view of int_rref's rows: each row divided by its pivot."""
    return tuple(fraction_row(row, row[pc]) for row, pc in zip(rows, pivots))


def rref(rows) -> tuple[tuple[Vec, ...], tuple[int, ...]]:
    """Canonical reduced row echelon form of rational rows, pivot entries 1.

    Returns (nonzero rows, pivot columns): int_rref of the rows cleared to
    integers, then its Fraction view.
    """
    red, pivots = int_rref([integer_row(r)[0] for r in rows])
    return fraction_rows(red, pivots), pivots


def echelon_add(out, pivots, row) -> tuple[list[int], int | None]:
    """Reduce an integer row against a forward echelon form and add it in place.

    out holds the form's rows and pivots their sorted pivot columns; each
    row is zero before its pivot.  The reduced primitive row goes in at its
    first nonzero column unless it is zero.  Returns the reduced row and
    that column (None when the row lies in the span).
    """
    row, j = _reduce_row(row, out, pivots)
    if j is not None:
        pos = bisect_left(pivots, j)
        pivots.insert(pos, j)
        out.insert(pos, row)
    return row, j


def int_kernel(red, pivots, ncols: int) -> tuple[list[list[int]], int]:
    """Basis of {x : M x = 0}, read off the int_rref form (red, pivots) of M.

    Returns (vectors, L), one vector per free column f < ncols: vectors[i] / L
    is the canonical kernel vector with 1 at f, the solved entries at the
    pivot columns and 0 elsewhere.  L is the lcm of the pivots.
    """
    scale = lcm(*[row[pc] for row, pc in zip(red, pivots)])
    out = []
    for f in sorted(set(range(ncols)).difference(pivots)):
        x = [0] * ncols
        x[f] = scale
        for row, pc in zip(red, pivots):
            if row[f]:
                x[pc] = -row[f] * (scale // row[pc])
        out.append(x)
    return out, scale


def nullspace(rows, ncols: int) -> tuple[Vec, ...]:
    """Canonical basis of {x : M x = 0} (right kernel), over Fraction."""
    vecs, scale = int_kernel(*int_rref([integer_row(r)[0] for r in rows]), ncols)
    return tuple(fraction_row(x, scale) for x in vecs)


def solve(matrix, rhs: Vec) -> Vec | None:
    """One solution x of M x = rhs, or None if inconsistent.

    Free variables are set to zero.
    """
    rows = [list(r) + [b] for r, b in zip(matrix, rhs)]
    ncols = len(matrix[0]) if matrix else 0
    basis, pivots = rref(rows)
    x = [ZERO] * ncols
    for brow, pc in zip(basis, pivots):
        if pc == ncols:
            return None  # pivot in augmented column
        x[pc] = brow[ncols]
    return tuple(x)


def det(matrix) -> Fraction:
    """Determinant by elimination over Fraction.

    The library tests invertibility by echelon_add (Element.is_invertible);
    det is kept as a reference for the tests and for the benchmark's tracer.
    """
    n = len(matrix)
    m = [list(r) for r in matrix]
    sign = 1
    result = ONE
    for col in range(n):
        piv = None
        for r in range(col, n):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            return ZERO
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        p = m[col][col]
        result *= p
        for r in range(col + 1, n):
            c = m[r][col] / p
            if c:
                for j in range(col, n):
                    m[r][j] -= c * m[col][j]
    return sign * result
