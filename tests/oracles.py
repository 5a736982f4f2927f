"""Independent oracles, deliberately written apart from the production code.

`ref` is the one reference, perfbench/ref.py, loaded by its file path so
that no perfbench module can shadow another import.  It never imports
addalg; the tests take from it rank, canonical bases, kernels, product
spans, stabilizers, annihilators, set partitions and group set arithmetic.

Kept here is what ref lacks, written apart from addalg in the same way:
schoolbook polynomial Euclid, Yun's squarefree decomposition on top of
it and products, the canonical RREF with its pivots, products and multiplication matrices read off a dense
structure-constant tensor, the opposite product for right-side checks,
solve, minimal polynomial and inverse on top of ref's elimination, the
minimal polynomial of a block-diagonal companion matrix, the
closure of a span under products, the subalgebra generated by V u^-1 on
top of that inverse, a Diderrich certificate's violated invariants read
off spans formed in full, the partition atom of Q^n from spans formed in
full, the trace form's
radical and the commutant dimension dim End_A(J/J^2), monoid-check's
atom and Hamidoune verdict from a multiplication table,
dense tensors built from each algebra's definition, rows of rationals
written one Fraction at a time, and a seeded
unimodular change of basis of a dense tensor.  Used to cross-check
library results.
"""

import importlib.util
import pathlib
from fractions import Fraction
from itertools import product
from math import lcm

_REF = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "ref.py"
_spec = importlib.util.spec_from_file_location("ref", _REF)
ref = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ref)


def _strip(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _divmod(a, b):
    """Quotient and remainder of coefficient list a by nonzero b, schoolbook
    long division."""
    a = a[:]
    quo = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        c = a[-1] / b[-1]
        off = len(a) - len(b)
        quo[off] = c
        for i in range(len(b)):
            a[off + i] -= c * b[i]
        _strip(a)
        if not a:
            break
    return quo, a


def _rem(a, b):
    """Remainder of coefficient list a by nonzero b."""
    return _divmod(a, b)[1]


def euclid_gcd(f, g):
    """Monic gcd of coefficient lists (lowest degree first), schoolbook."""
    f, g = _strip([Fraction(c) for c in f]), _strip([Fraction(c) for c in g])
    while g:
        f, g = g, _rem(f, g)
    if not f:
        return []
    lead = f[-1]
    return [c / lead for c in f]


def rational_strs(rows):
    """Rows of rationals written one Fraction at a time, as str(Fraction) gives
    them: the basis formatter serialize.basis_json had before it read integer rows."""
    return [[str(Fraction(c)) for c in row] for row in rows]


def _derivative(p):
    return [i * c for i, c in enumerate(p)][1:]


def _minus(a, b):
    n = max(len(a), len(b))
    return _strip([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
                   for i in range(n)])


def yun(f):
    """(content, parts) of a nonconstant coefficient list (lowest degree
    first): Yun's algorithm over Fraction on f made monic, with euclid_gcd
    and schoolbook division; parts are the (multiplicity, monic factor)
    pairs whose factor is not constant, multiplicity ascending."""
    f = _strip([Fraction(c) for c in f])
    content = f[-1]
    f = [c / content for c in f]
    df = _derivative(f)
    g = euclid_gcd(f, df)
    c = _divmod(f, g)[0]
    d = _minus(_divmod(df, g)[0], _derivative(c))
    parts, i = [], 1
    while len(c) > 1:
        a = euclid_gcd(c, d)
        if len(a) > 1:
            parts.append((i, a))
        c = _divmod(c, a)[0]
        d = _minus(_divmod(d, a)[0], _derivative(c))
        i += 1
    return content, parts


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


def companion_by_matrix_min_poly(polys):
    """The monic minimal polynomial, lowest degree first, of the
    block-diagonal matrix M whose blocks are the companion matrices of the
    non-constant coefficient lists polys (lowest degree first).

    Block p of degree d has 1 below its diagonal and -p_i / p_d in row i of
    its last column.  Powers of M come by schoolbook matrix products; the
    first power that solves against the lower ones gives the dependence.
    """
    polys = [_strip([Fraction(c) for c in p]) for p in polys]
    r = sum(len(p) - 1 for p in polys)
    m = [[Fraction(0)] * r for _ in range(r)]
    off = 0
    for p in polys:
        d = len(p) - 1
        for i in range(d):
            if i:
                m[off + i][off + i - 1] = Fraction(1)
            m[off + i][off + d - 1] = -p[i] / p[-1]
        off += d
    powers = [[[Fraction(int(i == j)) for j in range(r)] for i in range(r)]]
    while True:
        cur = _matmul(powers[-1], m)
        flat = [[c for row in q for c in row] for q in powers]
        sol = ref_solve([tuple(q[k] for q in flat) for k in range(r * r)],
                        [c for row in cur for c in row])
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


def first_invertible(table, unit, basis):
    """(u, u^-1) for the first invertible point u = sum c_i v_i, c in
    {1..n+1}^r, over the basis v_1..v_r, or None when V holds no invertible.

    The determinant of y -> u y has degree at most n in each c_i, so it
    vanishes on that whole grid only when it vanishes on all of V.
    """
    n = len(table)
    for cs in product(range(1, n + 2), repeat=len(basis)):
        u = [sum(c * v[k] for c, v in zip(cs, basis)) for k in range(n)]
        kind, inverse = ref_invert(table, unit, u)
        if kind == "inverse":
            return u, inverse
    return None


def ref_closure(table, rows):
    """Canonical basis of the span of rows grown by the products of its basis
    vectors until its rank stops growing: the least subspace closed under
    products that holds the rows."""
    span = ref.basis(rows)
    while True:
        grown = ref.basis([*span, *(ref_mul(table, x, y) for x in span for y in span)])
        if len(grown) == len(span):
            return span
        span = grown


def generated_subalgebra(table, unit, rows):
    """Canonical basis of the subalgebra generated by V u^-1, u invertible
    in V, the span of rows; None when V holds no invertible.

    u is first_invertible's point over V's canonical basis, V u^-1 is V's
    basis times ref_invert's inverse, and the subalgebra is the closure of
    the unit and V u^-1.
    """
    basis = ref.basis(rows)
    found = first_invertible(table, unit, basis)
    if found is None:
        return None
    inverse = found[1]
    return ref_closure(table, [unit, *(ref_mul(table, v, inverse) for v in basis)])


def ref_certificate_violations(table, unit, a, h, v, src_a, src_b):
    """The violated invariants of a Diderrich certificate (a, H, V) for the
    sources A and B, all given as dense rows, in the order and with the
    names of DiderrichCertificate.violations, each read off spans formed in
    full: H*H, K[A] (the closure of the unit and A), span(AB), aB and H*V.
    V must not be 0."""
    def products(xs, ys):
        return [ref_mul(table, x, y) for x in xs for y in ys]

    unit = tuple(map(Fraction, unit))
    holds_unit = ref.contains(h, [unit])
    checks = [
        ("subalgebra closure", holds_unit and ref.contains(h, products(h, h))),
        ("unit in subalgebra", holds_unit),
        ("subalgebra inside generated algebra of A",
         ref.contains(ref_closure(table, [unit, *src_a]), h)),
        ("space inside span of AB", ref.contains(products(src_a, src_b), v)),
        ("a inside A", ref.contains(src_a, [a])),
        ("a invertible", ref_invert(table, unit, a)[0] == "inverse"),
        ("span of aB inside space", ref.contains(v, products([a], src_b))),
        ("module property H*V = V", ref.same_span(products(h, v), v)),
        ("invertible in space", first_invertible(table, unit, ref.basis(v)) is not None),
        ("dimension inequality", ref.rank(v) + ref.rank(h) >= ref.rank(src_a) + ref.rank(src_b)),
    ]
    return [name for name, ok in checks if not ok]


def partition_atom(table, unit, rows, lam, cap):
    """The atom of V = span(rows) at lambda over the partition spans W_pi of
    Q^n, read off the dense tensor with ref alone.

    Returns the first refusal, in the library's order, as a string: "no
    invertible" when first_invertible finds no unit in V, "not split" when
    the basis is not orthogonal idempotents (b_i b_j = [i = j] b_i), "cap"
    when n > cap.  Otherwise (evaluated, atom, tie): evaluated pairs each pi
    of ref.partitions, in restricted-growth (lex) order, with
    c(W_pi) = rank{split_mul(w, v) : w in block_vectors(pi), v in V} - lambda |pi|,
    each span formed in full; atom is the first pi of least c with the
    fewest blocks, and tie says another pi has that c and block count.
    """
    n = len(table)
    if first_invertible(table, unit, ref.basis(rows)) is None:
        return "no invertible"
    zero = (Fraction(0),) * n
    if any(table[i][j] != (_unit_vec(n, i) if i == j else zero)
           for i in range(n) for j in range(n)):
        return "not split"
    if n > cap:
        return "cap"
    parts = sorted(ref.partitions(range(n)),
                   key=lambda part: [next(k for k, b in enumerate(part) if i in b)
                                     for i in range(n)])
    evaluated = [(part, ref.rank([ref.split_mul(w, v) for w in ref.block_vectors(part, n)
                                  for v in rows]) - lam * len(part)) for part in parts]
    keys = [(c, len(part)) for part, c in evaluated]
    best = min(keys)
    return evaluated, parts[keys.index(best)], keys.count(best) > 1


def ref_radical(table):
    """Basis of the radical of the trace form (x, y) -> tr L_{xy}: ref's
    kernel of the Gram matrix, with tr L_{b_k} summed off the diagonal of
    ref_mul_matrix and tr L_{b_i b_j} linear in b_i b_j's coordinates."""
    n = len(table)
    traces = [sum(row[k] for k, row in enumerate(ref_mul_matrix(table, _unit_vec(n, i))))
              for i in range(n)]
    gram = [[sum(c * t for c, t in zip(table[i][j], traces)) for j in range(n)]
            for i in range(n)]
    return ref.kernel(gram, n)


def _matmul(x, y):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*y)] for row in x]


def ref_commutant_dim(table):
    """(dim_Q End_A(M), dim_Q M) for M = J/J^2, J = ref_radical(table), over Fraction.

    A complement C of J^2 in J takes J's basis vectors that raise the rank
    of J^2 and C so far.  The matrix R_i of x -> b_i x on M holds, in
    column q, the coordinates on C of b_i c_q solved by ref_solve against
    the columns C and J^2.  End_A(M) is ref's kernel of X -> (R_i X - X R_i)_i,
    whose matrix has one column per unit matrix E_ab.
    """
    n = len(table)
    j = ref_radical(table)
    j2 = ref.basis([ref_mul(table, x, y) for x in j for y in j])
    comp = []
    for v in j:
        if ref.rank([*j2, *comp, v]) > len(j2) + len(comp):
            comp.append(v)
    m = len(comp)
    if not m:
        return 0, 0
    frame = [[col[k] for col in [*comp, *j2]] for k in range(n)]
    mats = []
    for i in range(n):
        cols = [ref_solve(frame, ref_mul(table, _unit_vec(n, i), c))[:m] for c in comp]
        mats.append([[col[p] for col in cols] for p in range(m)])
    units = [[[Fraction(int((p, q) == (a, b))) for q in range(m)] for p in range(m)]
             for a in range(m) for b in range(m)]
    columns = [[x - y for r in mats for row_x, row_y in zip(_matmul(r, e), _matmul(e, r))
                for x, y in zip(row_x, row_y)] for e in units]
    return len(ref.kernel([list(row) for row in zip(*columns)], m * m)), m

# -- monoid-check from a multiplication table -------------------------------


def _submonoid(table, gens):
    """The submonoid generated by gens: gens and every product of its members."""
    out = set(gens)
    while True:
        more = {table[x][y] for x in out for y in out} - out
        if not more:
            return out
        out |= more


def monoid_atom_dim(table, a, lam):
    """The dimension of monoid-check's atom of lift(A).  At lambda = 1 the
    atom is the lift of the submonoid generated by A u^-1, u a unit in A,
    so its dimension is that submonoid's size; at other lambda it is ref's
    left stabilizer of lift(A).
    """
    unit = next(e for e, row in enumerate(table) if list(row) == list(range(len(table))))
    if lam == 1:
        u = next(x for x in sorted(a) if unit in table[x])
        u_inv = table[u].index(unit)
        return len(_submonoid(table, {table[x][u_inv] for x in a}))
    lift = [_unit_vec(len(table), x) for x in sorted(a)]
    return len(ref.Mult.from_table(table, unit).left_stabilizer(lift))


def monoid_hamidoune_holds(table, a, b, lam, atom_dim):
    """|BA| >= lam |B| + |A| - lam atom_dim, or None where that fails at
    lambda != 1, whose atom is only a candidate."""
    holds = len(ref.set_product(table, b, a)) >= lam * len(b) + len(a) - lam * atom_dim
    return holds if holds or lam == 1 else None


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
