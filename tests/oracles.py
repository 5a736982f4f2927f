"""Independent oracles, deliberately written apart from the production code.

Schoolbook polynomial Euclid and products, brute-force Z/m sumsets, a direct
partition enumerator, rank via Gaussian elimination on stacked
integer matrices, the plain Fraction kernel (RREF, nullspace, solve,
product span, stabilizer, minimal polynomial, inverse) and dense
structure-constant tensors built from each algebra's definition.  Used to
cross-check library results.
"""

from fractions import Fraction


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


def zmod_sumset(m, a, b):
    return sorted({(x + y) % m for x in a for y in b})


def zmod_stabilizer(m, a):
    aset = set(a)
    return sorted(h for h in range(m) if {(h + x) % m for x in a} == aset)


def all_partitions(items):
    """Every set partition of a list, straightforward recursion."""
    items = list(items)
    if not items:
        return [[]]
    head, rest = items[0], items[1:]
    out = []
    for part in all_partitions(rest):
        for i in range(len(part)):
            out.append(part[:i] + [[head] + part[i]] + part[i + 1:])
        out.append([[head]] + part)
    return out


def frac_rank(rows):
    """Rank by plain Gaussian elimination over Fraction."""
    rows = [list(map(Fraction, r)) for r in rows]
    rank = 0
    col = 0
    ncols = len(rows[0]) if rows else 0
    while rank < len(rows) and col < ncols:
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                c = rows[i][col] / rows[rank][col]
                for j in range(col, ncols):
                    rows[i][j] -= c * rows[rank][j]
        rank += 1
        col += 1
    return rank


# -- reference exact kernel -----------------------------------------------
#
# The plain Fraction elimination and the dense membership-matrix stabilizer
# the library used before its integer kernel.  Products are read off the
# dense structure-constant tensor, never through Algebra.mul_coords.


def ref_rref(rows):
    """Canonical RREF over Fraction: (nonzero rows, pivot columns)."""
    work = [list(map(Fraction, r)) for r in rows]
    if not work:
        return (), ()
    ncols = len(work[0])
    pivots = []
    out = []
    for row in work:
        for prow, pc in zip(out, pivots):
            c = row[pc]
            if c:
                for j in range(pc, ncols):
                    row[j] -= c * prow[j]
        for j in range(ncols):
            if row[j]:
                inv = 1 / row[j]
                for k in range(j, ncols):
                    row[k] *= inv
                for prow in out:
                    c = prow[j]
                    if c:
                        for k in range(j, ncols):
                            prow[k] -= c * row[k]
                pos = 0
                while pos < len(pivots) and pivots[pos] < j:
                    pos += 1
                out.insert(pos, row)
                pivots.insert(pos, j)
                break
    return tuple(tuple(r) for r in out), tuple(pivots)


def ref_nullspace(rows, ncols):
    """Canonical basis of the right kernel, one vector per free column."""
    basis, pivots = ref_rref(rows)
    out = []
    for f in (j for j in range(ncols) if j not in pivots):
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for brow, pc in zip(basis, pivots):
            x[pc] = -brow[f]
        out.append(tuple(x))
    return tuple(out)


def ref_mul(table, x, y):
    """x * y from the dense tensor: sum of x_i y_j table[i][j]."""
    n = len(table)
    out = [Fraction(0)] * n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[k] += x[i] * y[j] * table[i][j][k]
    return tuple(out)


def ref_mul_matrix(table, v, side="left"):
    """Dense matrix of x -> v x (left) or x -> x v (right), one ref_mul per column."""
    n = len(table)
    units = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    cols = [ref_mul(table, v, e) if side == "left" else ref_mul(table, e, v) for e in units]
    return [tuple(col[k] for col in cols) for k in range(n)]


def ref_product_span(table, v_basis, w_basis):
    """RREF of the span of all pairwise products."""
    return ref_rref([ref_mul(table, a, b) for a in v_basis for b in w_basis])


def ref_stabilizer(table, v_basis, side="left"):
    """RREF of {x : xV <= V} (left) or {x : Vx <= V} (right).

    N is a membership matrix (x in V iff N x = 0) and R_b the matrix of
    x -> x b (or b x); the stabilizer is the kernel of the stacked N R_b.
    """
    n = len(table)
    units = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    nmat = ref_nullspace(v_basis, n) if v_basis else units
    if not nmat:
        return ref_rref(units)
    rows = []
    for b in v_basis:
        cols = [ref_mul(table, e, b) if side == "left" else ref_mul(table, b, e)
                for e in units]
        for nrow in nmat:
            rows.append(tuple(sum((nrow[k] * cols[j][k] for k in range(n)), Fraction(0))
                              for j in range(n)))
    return ref_rref(ref_nullspace(rows, n))


def ref_annihilator(table, v_basis, side="left"):
    """RREF of {x : xV = 0} (left) or {x : Vx = 0} (right).

    The kernel of the stacked matrices of x -> x b (or b x) over the basis b of V.
    """
    n = len(table)
    units = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    rows = []
    for b in v_basis:
        cols = [ref_mul(table, e, b) if side == "left" else ref_mul(table, b, e)
                for e in units]
        rows.extend(tuple(col[k] for col in cols) for k in range(n))
    return ref_rref(ref_nullspace(rows, n))


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
    n = len(table)
    lmat = ref_mul_matrix(table, x, "left")
    unit = tuple(map(Fraction, unit))
    y = ref_solve(lmat, unit)
    if y is None:
        return "witness", ref_nullspace(lmat, n)[0]
    if ref_mul(table, y, x) != unit:
        return "not-associative", None
    return "inverse", y


# -- dense structure constants from the definitions -------------------------
#
# Each builder returns (table, unit): table[a][b] is the Fraction coordinate
# tuple of b_a b_b and unit the unit's coordinates.


def _unit_vec(n, k):
    return tuple(Fraction(int(i == k)) for i in range(n))


def ref_monoid_tensor(mtable, unit_index):
    """Q[M] on the basis e_x of a multiplication table: e_x e_y = e_{xy}."""
    n = len(mtable)
    return ([[_unit_vec(n, mtable[x][y]) for y in range(n)] for x in range(n)],
            _unit_vec(n, unit_index))


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


def ref_poly_quotient_tensor(polys):
    """prod Q[T]/(P) on the power bases: b_i b_j = T^(i+j) mod P, in P's block.

    Polynomials are coefficient lists, lowest degree first; each remainder
    is its own schoolbook long division of T^(i+j) by P.
    """
    polys = [_strip([Fraction(c) for c in p]) for p in polys]
    n = sum(len(p) - 1 for p in polys)
    zero = (Fraction(0),) * n
    table = [[zero] * n for _ in range(n)]
    unit = [Fraction(0)] * n
    off = 0
    for p in polys:
        d = len(p) - 1
        for i in range(d):
            for j in range(d):
                rem = _rem([Fraction(0)] * (i + j) + [Fraction(1)], p)
                cell = [Fraction(0)] * n
                cell[off:off + len(rem)] = rem
                table[off + i][off + j] = tuple(cell)
        unit[off] = Fraction(1)
        off += d
    return table, tuple(unit)


def ref_direct_product_tensor(left, right):
    """Block-diagonal product of two (table, unit) pairs; the blocks annihilate each other."""
    (ta, ua), (tb, ub) = left, right
    m, n = len(ta), len(tb)
    za, zb = (Fraction(0),) * m, (Fraction(0),) * n
    table = [[tuple(ta[i][j]) + zb for j in range(m)] + [za + zb] * n for i in range(m)]
    table += [[za + zb] * m + [za + tuple(tb[i][j]) for j in range(n)] for i in range(n)]
    return table, tuple(ua) + tuple(ub)


# -- reference group sweep ------------------------------------------------


def ref_group_sweep(m, exhaustive=True, seed=0, count=200):
    """The report of discrete.group_kneser_sweep, with nothing reused.

    Per pair, AB and its left stabilizer H come by brute force from the
    table, and the algebra route lifts both subsets afresh and runs
    product_span and stabilizer on them.  Subsets are drawn in the
    library's order (bit i of the mask holds element i), so a sampled
    sweep sees the same pairs from the same seed.
    """
    import random

    from addalg import subspace as sub

    n, t = m.size, m.table
    alg = m.algebra()
    subsets = [frozenset(i for i in range(n) if mask >> i & 1) for mask in range(1, 1 << n)]
    if exhaustive:
        pairs = [(a, b) for a in subsets for b in subsets]
    else:
        rng = random.Random(seed)
        pairs = [(rng.choice(subsets), rng.choice(subsets)) for _ in range(count)]

    def lift(s):
        return sub.from_vecs(alg, [[int(i == j) for j in range(n)] for i in sorted(s)])

    violations = []
    for a, b in pairs:
        ab = {t[x][y] for x in a for y in b}
        h = [g for g in range(n) if {t[g][x] for x in ab} == ab]
        if len(ab) < len(a) + len(b) - len(h):
            violations.append({
                "A": sorted(a), "B": sorted(b),
                "issue": "combinatorial bound",
                "|AB|": len(ab), "|A|": len(a), "|B|": len(b), "|H|": len(h),
            })
            continue
        pspan = sub.product_span(lift(a), lift(b))
        hdim = sub.stabilizer(pspan, "left").dim
        if pspan.dim != len(ab) or hdim != len(h):
            violations.append({
                "A": sorted(a), "B": sorted(b),
                "issue": "algebra route disagrees",
                "dim_span": pspan.dim, "|AB|": len(ab),
                "dim_stab": hdim, "|H|": len(h),
            })
    return {"pairs_checked": len(pairs), "violations": violations, "ok": not violations}
