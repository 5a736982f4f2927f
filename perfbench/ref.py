"""Reference arithmetic written apart from addalg, used to check its outputs.

Nothing here imports addalg.  Vectors are sequences of Fraction (or int);
ranks and kernels come from plain Gaussian elimination; products come from
the algebra's JSON description (polynomial quotients, group tables) or from
a group law written out directly.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations


# -- linear algebra ----------------------------------------------------


def _echelon(rows):
    """Row echelon form by Gaussian elimination; returns (rows, pivot columns)."""
    rows = [[Fraction(c) for c in r] for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [c / lead for c in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    return rows[:rank], pivots


def rank(rows) -> int:
    return len(basis(rows))


def basis(rows):
    """A basis of the span of rows."""
    rows = list(rows)
    return _echelon(rows)[0] if rows else []


def kernel(rows, ncols: int):
    """Basis of {x : r . x = 0 for every row r}."""
    if not rows:
        return [[Fraction(int(i == j)) for j in range(ncols)] for i in range(ncols)]
    red, pivots = _echelon(rows)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for row, pc in zip(red, pivots):
            x[pc] = -row[f]
        basis.append(x)
    return basis


def contains(space, vecs) -> bool:
    """Every vector of vecs lies in the span of space."""
    base = rank(space)
    return rank(list(space) + list(vecs)) == base


def same_span(u, v) -> bool:
    r = rank(u)
    return r == rank(v) == rank(list(u) + list(v))


# -- multiplication ----------------------------------------------------


def _poly_mulmod(f, g, p):
    """f * g mod p, coefficient lists lowest degree first, p monic."""
    prod = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                prod[i + j] += a * b
    d = len(p) - 1
    for k in range(len(prod) - 1, d - 1, -1):
        c = prod[k]
        if c:
            for j in range(d + 1):
                prod[k - d + j] -= c * p[j]
    return (prod + [Fraction(0)] * d)[:d]


class Mult:
    """Bilinear product on Q^n from an algebra description.

    Supports the two description kinds the generator emits: products of
    polynomial quotients (power basis per factor) and group tables.
    """

    def __init__(self, dim, mul, unit):
        self.dim = dim
        self.mul = mul
        self.unit = unit

    @staticmethod
    def from_desc(desc) -> "Mult":
        kind = desc["kind"]
        if kind == "poly_quotient_product":
            polys = []
            for f in desc["factors"]:
                coeffs = [Fraction(c) for c in f]
                while coeffs and coeffs[-1] == 0:
                    coeffs.pop()
                lead = coeffs[-1]
                polys.append([c / lead for c in coeffs])
            blocks, off = [], 0
            for p in polys:
                blocks.append((off, len(p) - 1, p))
                off += len(p) - 1
            dim = off

            def mul(x, y):
                out = []
                for o, d, p in blocks:
                    out.extend(_poly_mulmod(list(x[o:o + d]), list(y[o:o + d]), p))
                return out

            unit = [Fraction(0)] * dim
            for o, _, _ in blocks:
                unit[o] = Fraction(1)
            return Mult(dim, mul, unit)
        if kind == "group_table":
            return Mult.from_table(desc["table"], desc.get("unit", 0))
        raise ValueError(f"no reference product for {kind!r}")

    @staticmethod
    def from_table(table, unit_index=0) -> "Mult":
        n = len(table)

        def mul(x, y):
            out = [Fraction(0)] * n
            for i, a in enumerate(x):
                if a:
                    row = table[i]
                    for j, b in enumerate(y):
                        if b:
                            out[row[j]] += a * b
            return out

        unit = [Fraction(int(i == unit_index)) for i in range(n)]
        return Mult(n, mul, unit)

    def products(self, us, vs):
        return [self.mul(u, v) for u in us for v in vs]

    def left_stabilizer(self, space):
        """Basis of {x : x s lies in span(space) for every s in space}."""
        n = self.dim
        if not space:
            return kernel([], n)
        ann = kernel([list(s) for s in space], n)  # functionals vanishing on the space
        if not ann:
            return kernel([], n)
        basis_vecs = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        rows = []
        for s in space:
            images = [self.mul(e, s) for e in basis_vecs]
            for y in ann:
                rows.append([sum(a * b for a, b in zip(y, img)) for img in images])
        return kernel(rows, n)

    def left_annihilator(self, space):
        """Basis of {x : x s = 0 for every s in space}."""
        n = self.dim
        basis_vecs = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        rows = []
        for s in space:
            images = [self.mul(e, s) for e in basis_vecs]
            rows.extend([img[k] for img in images] for k in range(n))
        return kernel(rows, n)


# -- finite groups written out directly ------------------------------


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def klein_table():
    return [[i ^ j for j in range(4)] for i in range(4)]


def s3_table():
    """Permutations of {0,1,2} in sorted order, (p*q)(x) = p(q(x))."""
    perms = sorted(permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    return [[idx[tuple(p[q[x]] for x in range(3))] for q in perms] for p in perms]


def nonempty_subsets(n):
    """Nonempty subsets of range(n), ordered by their bit mask."""
    return [frozenset(i for i in range(n) if mask >> i & 1) for mask in range(1, 1 << n)]


def sampled_pairs(n, seed, count):
    """The seeded pair sample of a sampled group sweep: two uniform draws
    from the mask-ordered subsets per pair."""
    rng = random.Random(seed)
    subs = nonempty_subsets(n)
    return [(rng.choice(subs), rng.choice(subs)) for _ in range(count)]


def set_product(table, a, b):
    return frozenset(table[x][y] for x in a for y in b)


def set_left_stabilizer(table, s):
    return frozenset(h for h in range(len(table)) if frozenset(table[h][x] for x in s) == s)


def kneser_violations(table, pairs):
    """Brute-force |AB| >= |A| + |B| - |H_AB| over the given pairs."""
    out = []
    for a, b in pairs:
        ab = set_product(table, a, b)
        h = set_left_stabilizer(table, ab)
        if len(ab) < len(a) + len(b) - len(h):
            out.append((sorted(a), sorted(b)))
    return out


# -- partitions --------------------------------------------------------


def partitions(items):
    """Every set partition of a list, as a tuple of sorted block tuples."""
    items = list(items)
    if not items:
        return [()]
    head, rest = items[0], items[1:]
    out = []
    for part in partitions(rest):
        for i in range(len(part)):
            blocks = list(part)
            blocks[i] = (head,) + blocks[i]
            out.append(tuple(sorted(blocks)))
        out.append(tuple(sorted(((head,),) + part)))
    return out


def block_vectors(part, n):
    return [[Fraction(int(i in block)) for i in range(n)] for block in part]


def split_mul(x, y):
    return [a * b for a, b in zip(x, y)]
