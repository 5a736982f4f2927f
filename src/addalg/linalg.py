"""Exact linear algebra over the rationals.

Everything works on tuples of Fraction.  Row-echelon forms are fully
reduced and canonical (pivot entries 1, pivot columns cleared), so two
subspaces are equal iff their basis tuples compare equal.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm

Vec = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def vec(values) -> Vec:
    return tuple(v if type(v) is Fraction else Fraction(v) for v in values)


def zero_vec(n: int) -> Vec:
    return (ZERO,) * n


def vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c: Fraction, u: Vec) -> Vec:
    return tuple(c * a for a in u)


def is_zero_vec(u: Vec) -> bool:
    return all(a == 0 for a in u)


def combine(coeffs, rows) -> Vec:
    """The linear combination sum_i coeffs[i] * rows[i] of non-empty rows."""
    acc = [ZERO] * len(rows[0])
    for c, row in zip(coeffs, rows):
        if c:
            for j, a in enumerate(row):
                if a:
                    acc[j] += c * a
    return tuple(acc)


def random_combinations(rows, bound: int, rng):
    """Endless seeded stream of combinations of rows, coefficients in [-bound, bound].

    Each item draws its len(rows) coefficients from rng, in row order, only
    when it is asked for, so other draws from the same rng may sit between
    items.
    """
    while True:
        yield combine([rng.randint(-bound, bound) for _ in rows], rows)


def _primitive(row: list[int]) -> list[int]:
    """Integer row divided by its content (the gcd of its entries)."""
    g = gcd(*row)
    return [a // g for a in row] if g > 1 else row


def integer_row(row) -> tuple[list[int], int]:
    """(den * row, den) with den the lcm of the row's denominators."""
    den = lcm(*[a.denominator for a in row])
    if den == 1:
        return [a.numerator for a in row], 1
    return [a.numerator * (den // a.denominator) for a in row], den


def rref(rows) -> tuple[tuple[Vec, ...], tuple[int, ...]]:
    """Canonical reduced row echelon form.

    Returns (nonzero rows, pivot columns).  Elimination is fraction-free,
    in the style of Bareiss (1968): each row is cleared to integers, each
    step combines two integer rows, and every new row is divided by its
    content.  Rows stay fully reduced (pivot columns cleared) throughout,
    so the canonical Fraction form, pivot 1, is one division per entry on
    return.
    """
    pivots: list[int] = []
    out: list[list[int]] = []
    for r in rows:
        row = integer_row(r)[0]
        for prow, pc in zip(out, pivots):
            c = row[pc]
            if c:
                p = prow[pc]
                row = [p * a - c * b for a, b in zip(row, prow)]
        row = _primitive(row)
        j = next((j for j, a in enumerate(row) if a), None)
        if j is None:
            continue
        p = row[j]
        for i, prow in enumerate(out):
            c = prow[j]
            if c:
                out[i] = _primitive([p * a - c * b for a, b in zip(prow, row)])
        pos = bisect_left(pivots, j)
        pivots.insert(pos, j)
        out.insert(pos, row)
    basis = tuple(tuple(Fraction(a, row[pc]) if a else ZERO for a in row)
                  for row, pc in zip(out, pivots))
    return basis, tuple(pivots)


def rank(rows) -> int:
    return len(rref(rows)[0])


def reduce_against(basis: tuple[Vec, ...], pivots: tuple[int, ...], v: Vec) -> Vec:
    """Residual of v after elimination against a canonical RREF basis."""
    row = list(v)
    n = len(row)
    for brow, pc in zip(basis, pivots):
        c = row[pc]
        if c:
            for j in range(pc, n):
                if brow[j]:
                    row[j] -= c * brow[j]
    return tuple(row)


def in_span(basis: tuple[Vec, ...], pivots: tuple[int, ...], v: Vec) -> bool:
    return is_zero_vec(reduce_against(basis, pivots, v))


def nullspace(rows, ncols: int | None = None) -> tuple[Vec, ...]:
    """Canonical basis of {x : M x = 0} (right kernel)."""
    rows = list(rows)
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for empty matrix")
        ncols = len(rows[0])
    basis, pivots = rref(rows)
    free = [j for j in range(ncols) if j not in pivots]
    out = []
    for f in free:
        x = [ZERO] * ncols
        x[f] = ONE
        for brow, pc in zip(basis, pivots):
            x[pc] = -brow[f]
        out.append(tuple(x))
    return tuple(out)


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

    The library tests invertibility by rank (Element.is_invertible); det is
    kept as a reference for the tests and for the benchmark's tracer.
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
