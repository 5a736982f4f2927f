"""Independent oracles, deliberately written apart from the production code.

`ref` is the one reference, perfbench/ref.py, loaded by its file path so
that no perfbench module can shadow another import.  It never imports
addalg; the tests take from it rank, canonical bases, kernels, product
spans, stabilizers, annihilators, set partitions and group set arithmetic.

Kept here is what ref lacks, written apart from addalg in the same way:
schoolbook polynomial Euclid and products, the canonical RREF with its
pivots, products and multiplication matrices read off a dense
structure-constant tensor, the opposite product for right-side checks,
solve, minimal polynomial and inverse on top of ref's elimination,
dense tensors built from each algebra's definition, and a seeded
unimodular change of basis of a dense tensor.  Used to cross-check
library results.
"""

import importlib.util
import pathlib
from fractions import Fraction
from math import lcm

_REF = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "ref.py"
_spec = importlib.util.spec_from_file_location("ref", _REF)
ref = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ref)


def _strip(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _rem(a, b):
    """Remainder of coefficient list a by nonzero b, schoolbook long division."""
    a = a[:]
    while len(a) >= len(b):
        c = a[-1] / b[-1]
        off = len(a) - len(b)
        for i in range(len(b)):
            a[off + i] -= c * b[i]
        _strip(a)
        if not a:
            break
    return a


def euclid_gcd(f, g):
    """Monic gcd of coefficient lists (lowest degree first), schoolbook."""
    f, g = _strip([Fraction(c) for c in f]), _strip([Fraction(c) for c in g])
    while g:
        f, g = g, _rem(f, g)
    if not f:
        return []
    lead = f[-1]
    return [c / lead for c in f]


def sqf_rebuild(content, parts):
    """content * prod(factor ** mult) over (mult, factor coefficients)
    parts, as a coefficient list (lowest degree first), schoolbook."""
    acc = [Fraction(content)]
    for mult, factor in parts:
        for _ in range(mult):
            out = [Fraction(0)] * (len(acc) + len(factor) - 1)
            for i, a in enumerate(acc):
                for j, b in enumerate(factor):
                    out[i + j] += a * b
            acc = out
    return acc


# -- reference exact kernel -----------------------------------------------
#
# Elimination is ref's; products are read off the dense structure-constant
# tensor, never through Algebra.mul_coords.


def ref_rref(rows):
    """Canonical RREF over Fraction: (nonzero rows, pivot columns)."""
    red = ref.basis(rows)
    return (tuple(map(tuple, red)),
            tuple(next(j for j, a in enumerate(r) if a) for r in red))


def ref_mul(table, x, y):
    """x * y from the dense tensor: sum of x_i y_j table[i][j], zero terms skipped."""
    out = [Fraction(0)] * len(table)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                if b:
                    for k, c in enumerate(table[i][j]):
                        if c:
                            out[k] += a * b * c
    return tuple(out)


def ref_side(mult, side):
    """mult on the left side; on the right the opposite product y * x, whose
    left stabilizers and annihilators are mult's right ones."""
    if side == "left":
        return mult
    return ref.Mult(mult.dim, lambda x, y: mult.mul(y, x), mult.unit)


def ref_mul_matrix(table, v, side="left"):
    """Dense matrix of x -> v x (left) or x -> x v (right), one ref_mul per column."""
    n = len(table)
    units = [_unit_vec(n, i) for i in range(n)]
    cols = [ref_mul(table, v, e) if side == "left" else ref_mul(table, e, v) for e in units]
    return [tuple(col[k] for col in cols) for k in range(n)]


def ref_solve(matrix, rhs):
    """One solution of M x = rhs with free variables at zero, or None."""
    ncols = len(matrix[0])
    basis, pivots = ref_rref([list(r) + [b] for r, b in zip(matrix, rhs)])
    x = [Fraction(0)] * ncols
    for brow, pc in zip(basis, pivots):
        if pc == ncols:
            return None
        x[pc] = brow[ncols]
    return tuple(x)


def ref_min_poly(table, unit, x):
    """Monic minimal polynomial of x, coefficients lowest degree first.

    Powers come one ref_mul at a time; the first power that solves against
    the lower ones over Fraction gives the dependence.
    """
    n = len(table)
    powers = [tuple(map(Fraction, unit))]
    while True:
        cur = ref_mul(table, powers[-1], x)
        sol = ref_solve([tuple(p[j] for p in powers) for j in range(n)], cur)
        if sol is not None:
            return tuple(-c for c in sol) + (Fraction(1),)
        powers.append(cur)


def ref_invert(table, unit, x):
    """("inverse", y) with x y = 1 = y x, ("witness", w) with w the first
    canonical kernel vector of y -> x y when x y = 1 has no solution, or
    ("not-associative", None) when the solution y is a right inverse only."""
    lmat = ref_mul_matrix(table, x, "left")
    unit = tuple(map(Fraction, unit))
    y = ref_solve(lmat, unit)
    if y is None:
        return "witness", tuple(ref.kernel(lmat, len(table))[0])
    if ref_mul(table, y, x) != unit:
        return "not-associative", None
    return "inverse", y


# -- dense structure constants from the definitions -------------------------
#
# Each builder returns (table, unit): table[a][b] is the Fraction coordinate
# tuple of b_a b_b and unit the unit's coordinates.


def _unit_vec(n, k):
    return tuple(Fraction(int(i == k)) for i in range(n))


def ref_tensor(mult):
    """The tensor of a ref.Mult: b_i b_j = mult.mul(e_i, e_j)."""
    units = [_unit_vec(mult.dim, k) for k in range(mult.dim)]
    return ([[tuple(mult.mul(a, b)) for b in units] for a in units],
            tuple(map(Fraction, mult.unit)))


def ref_matrix_tensor(n):
    """M_n(Q) on E_ij at index i*n + j: E_ij E_kl = [j = k] E_il; unit sum of E_ii."""
    dim = n * n
    zero = (Fraction(0),) * dim
    table = [[zero] * dim for _ in range(dim)]
    for a in range(dim):
        i, j = divmod(a, n)
        for b in range(dim):
            k, l = divmod(b, n)
            if j == k:
                table[a][b] = _unit_vec(dim, i * n + l)
    return table, tuple(Fraction(int(a // n == a % n)) for a in range(dim))


def ref_direct_product_tensor(left, right):
    """Block-diagonal product of two (table, unit) pairs; the blocks annihilate each other."""
    (ta, ua), (tb, ub) = left, right
    m, n = len(ta), len(tb)
    za, zb = (Fraction(0),) * m, (Fraction(0),) * n
    table = [[tuple(ta[i][j]) + zb for j in range(m)] + [za + zb] * n for i in range(m)]
    table += [[za + zb] * m + [za + tuple(tb[i][j]) for j in range(n)] for i in range(n)]
    return table, tuple(ua) + tuple(ub)


# -- a change of basis ------------------------------------------------------
#
# The new basis is b'_i = sum_j P[i][j] b_j for a seeded unimodular integer
# matrix P, so a row x of coordinates in the old basis has the coordinates
# x P^-1 in the new one.


def unimodular(n, rng):
    """A seeded n x n integer matrix P = L U of determinant +-1, never the identity.

    L is unit lower triangular and U upper triangular with +-1 on its
    diagonal; their other entries are drawn from [-2, 2].
    """
    while True:
        low = [[1 if i == j else rng.randint(-2, 2) if j < i else 0 for j in range(n)]
               for i in range(n)]
        up = [[rng.choice((-1, 1)) if i == j else rng.randint(-2, 2) if j > i else 0
               for j in range(n)] for i in range(n)]
        p = [[sum(low[i][k] * up[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        if p != [[int(i == j) for j in range(n)] for i in range(n)]:
            return p


def change_of_basis(table, unit, p):
    """(table', unit', P^-1): the dense tensor and the unit in the basis
    b'_i = sum_j P[i][j] b_j, from the dense tensor and the unit in the old basis.

    b'_i b'_j is the sum of P[i][a] P[j][b] b_a b_b.  P^-1 comes one
    ref_solve per unit column and is integral; the sums run in integers
    over the common denominator d of the constants and the unit.
    """
    n = len(p)
    cols = [ref_solve(p, _unit_vec(n, j)) for j in range(n)]
    inv = [[int(cols[j][i]) for j in range(n)] for i in range(n)]
    d = lcm(*[c.denominator for row in table for cell in row for c in cell],
            *[u.denominator for u in unit])

    def moved(y):
        """Integer old coordinates over d -> Fraction new coordinates."""
        return tuple(Fraction(sum(y[k] * inv[k][j] for k in range(n) if y[k]), d)
                     for j in range(n))

    cells = [[[(k, int(c * d)) for k, c in enumerate(cell) if c] for cell in row]
             for row in table]
    support = [[(a, x) for a, x in enumerate(row) if x] for row in p]
    new = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = [0] * n
            for a, x in support[i]:
                for b, y in support[j]:
                    for k, c in cells[a][b]:
                        acc[k] += x * y * c
            row.append(moved(acc))
        new.append(row)
    return new, moved([int(u * d) for u in unit]), inv
