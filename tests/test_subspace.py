import random
from fractions import Fraction as F

import pytest

from addalg import linalg
from addalg import subspace as sub
from addalg.algebra import (
    Algebra,
    Element,
    matrix_algebra,
    poly_quotient_product,
    split_etale_algebra,
)
from addalg.errors import (
    AlgebraMismatch,
    EmptyGeneratingSet,
    NoInvertibleFound,
    ZeroSubspace,
)
from addalg.fixtures import ALGEBRA_NAMES, algebra_fixture
from addalg.polynomials import Poly

from oracles import first_invertible, generated_subalgebra, ref, ref_invert, ref_mul, ref_radical


def rand_space(alg, dim, rng):
    while True:
        vecs = [
            tuple(F(rng.randint(-3, 3)) for _ in range(alg.dim))
            for _ in range(dim)
        ]
        got = sub.from_vecs(alg, vecs)
        if got.dim == dim:
            return got


def test_span_canonical_under_reorder_and_rescale():
    alg = algebra_fixture("Q4")
    rng = random.Random(0)
    for _ in range(30):
        vecs = [
            [F(rng.randint(-3, 3)) for _ in range(4)]
            for _ in range(3)
        ]
        a = sub.from_vecs(alg, vecs)
        shuffled = vecs[::-1]
        scalars = [F(rng.randint(1, 5)) for _ in shuffled]
        scaled = [[s * c for c in v] for s, v in zip(scalars, shuffled)]
        assert a == sub.from_vecs(alg, scaled)


def test_span_of_elements():
    alg = algebra_fixture("QZ3")
    e0, e1 = alg.basis_element(0), alg.basis_element(1)
    s = sub.span_of([e0, e1, e0 + e1])
    assert s.dim == 2
    with pytest.raises(EmptyGeneratingSet):
        sub.span_of([])

    qt3 = algebra_fixture("QT3")
    assert sub.span_of([qt3.basis_element(i) for i in range(3)]) == sub.full_space(qt3)


def test_translate_refuses_an_element_of_another_algebra():
    # QZ3 and Q3 share a dimension, so the rows alone cannot tell them apart
    x = algebra_fixture("QZ3").basis_element(1)
    q3 = algebra_fixture("Q3")
    v = sub.span_of([q3.basis_element(0)])
    for side in ("left", "right"):
        with pytest.raises(AlgebraMismatch):
            sub.translate(x, v, side=side)


def test_contains_space_refuses_a_space_of_another_algebra():
    # two Q^3 share their rows, so only the algebra tells their spaces apart
    q3, other, q5 = split_etale_algebra(3), split_etale_algebra(3), split_etale_algebra(5)
    v = sub.coordinate_span(q3, [0])
    for w in (sub.full_space(other), sub.zero_space(other), sub.coordinate_span(q5, [0, 4])):
        for x, y in ((v, w), (w, v)):
            with pytest.raises(AlgebraMismatch):
                x.contains_space(y)


def test_preimage_matches_the_reference():
    # {y : x y in T} (left) and {y : y x in T} (right) is the kernel of the
    # functionals vanishing on T, read at x y (or y x); for an invertible x
    # it is x^-1 T (or T x^-1)
    rng = random.Random(4)
    for name in ("Q4", "QZ5", "QT3", "M2x2", "QS3"):
        alg = algebra_fixture(name)
        n = alg.dim
        units = [[F(int(i == j)) for j in range(n)] for i in range(n)]
        for _ in range(6):
            t = rand_space(alg, rng.randint(1, n - 1), rng)
            x = alg.element([F(rng.randint(-2, 2)) for _ in range(n)])
            normals = ref.kernel(list(t.basis), n)
            for side in ("left", "right"):
                images = [ref_mul(alg.table, x.coords, e) if side == "left"
                          else ref_mul(alg.table, e, x.coords) for e in units]
                rows = [[sum(a * b for a, b in zip(z, img)) for img in images]
                        for z in normals]
                got = sub.preimage(x, t, side)
                assert ref.same_span(got.basis, ref.kernel(rows, n)), (name, side)
                kind, inv = ref_invert(alg.table, alg.unit, x.coords)
                if kind == "inverse":
                    moved = [ref_mul(alg.table, inv, y) if side == "left"
                             else ref_mul(alg.table, y, inv) for y in t.basis]
                    assert got == sub.from_vecs(alg, moved), (name, side)
    with pytest.raises(AlgebraMismatch):
        sub.preimage(algebra_fixture("QZ3").basis_element(1),
                     sub.full_space(algebra_fixture("Q3")))


def test_dim_formula_sum_intersection():
    alg = algebra_fixture("Q5")
    rng = random.Random(1)
    for _ in range(50):
        v = rand_space(alg, rng.randint(1, 4), rng)
        w = rand_space(alg, rng.randint(1, 4), rng)
        s = sub.from_vecs(alg, [*v.basis, *w.basis])
        i = sub.lattice_intersect(v, w)
        assert s.dim + i.dim == v.dim + w.dim
        # cross-check the sum dimension against a plain rank oracle
        assert s.dim == ref.rank(list(v.basis) + list(w.basis))
        assert s.contains_space(v) and s.contains_space(w)
        assert v.contains_space(i) and w.contains_space(i)


def test_product_span_examples():
    q3 = algebra_fixture("Q3")
    v = sub.from_vecs(q3, [(F(1), F(0), F(0)), (F(0), F(1), F(1))])
    assert sub.product_span(v, v) == v

    z5 = algebra_fixture("QZ5")
    a = sub.from_vecs(z5, [z5.basis_element(0).coords, z5.basis_element(1).coords])
    b = sub.from_vecs(z5, [z5.basis_element(i).coords for i in range(3)])
    assert sub.product_span(a, b).dim == 4  # {0,1}+{0,1,2} = {0..3}

    unit = sub.unit_span(z5)
    assert sub.product_span(unit, b) == b


def test_coordinate_flag():
    # a space is coordinate when each canonical row has one nonzero; a
    # multiple of a basis vector spans the same space as the vector
    z5 = algebra_fixture("QZ5")
    assert sub.coordinate_span(z5, [1, 3]).coordinate
    assert sub.from_vecs(z5, [z5.basis_element(2).coords,
                              [F(0), F(-3, 2), F(0), F(0), F(0)]]).coordinate
    assert sub.zero_space(z5).coordinate and sub.full_space(z5).coordinate
    assert not sub.block_span(z5, [[0], [1, 2]]).coordinate
    assert not sub.unit_span(algebra_fixture("Q3")).coordinate


@pytest.mark.parametrize("name", ["Q4", "QZ5", "M2x2"])
def test_coordinate_span_seeds_match_the_cached_properties(name):
    # coordinate_span seeds coordinate, row_nonzeros and _projection in the
    # instance __dict__; each must be what the property computes from the
    # rows of an unseeded copy, and the projection what int_kernel gives
    alg = algebra_fixture(name)
    n = alg.dim
    for mask in range(1 << n):
        v = sub.coordinate_span(alg, [i for i in range(n) if mask >> i & 1])
        fresh = sub.Subspace(alg, v.rows, v.pivots)
        for prop in ("coordinate", "row_nonzeros", "_projection"):
            assert prop in v.__dict__, prop
            assert v.__dict__[prop] == getattr(sub.Subspace, prop).func(fresh), (mask, prop)
        kernel = [[] for _ in range(n)]
        for f, x in enumerate(linalg.int_kernel(v.rows, v.pivots, n)[0]):
            for k, a in enumerate(x):
                if a:
                    kernel[k].append((f, a))
        assert [list(p) for p in v._projection] == kernel, mask


def test_product_span_basis_independent_and_monotone():
    alg = algebra_fixture("QZ6")
    rng = random.Random(2)
    for _ in range(20):
        v = rand_space(alg, 2, rng)
        w = rand_space(alg, 3, rng)
        p = sub.product_span(v, w)
        # recompute from a randomized generating set of v
        mixed = []
        for _ in range(4):
            c1, c2 = F(rng.randint(-3, 3)), F(rng.randint(1, 3))
            mixed.append(tuple(c1 * a + c2 * b for a, b in zip(v.basis[0], v.basis[1])))
        v2 = sub.from_vecs(alg, mixed)
        if v2 == v:
            assert sub.product_span(v2, w) == p
        bigger = sub.from_vecs(alg, [*v.basis, *rand_space(alg, 1, rng).basis])
        assert sub.product_span(bigger, w).contains_space(p)


def test_stabilizer_examples():
    q3 = algebra_fixture("Q3")
    v = sub.from_vecs(q3, [(F(1), F(0), F(0)), (F(0), F(1), F(1))])
    assert sub.stabilizer(v, "left") == v  # it is its own subalgebra

    full = sub.full_space(q3)
    assert sub.stabilizer(full, "left") == full

    z5 = algebra_fixture("QZ5")
    a = sub.from_vecs(z5, [z5.basis_element(0).coords, z5.basis_element(1).coords])
    assert sub.stabilizer(a, "left") == sub.unit_span(z5)


def test_stabilizer_is_subalgebra_and_stabilizes():
    rng = random.Random(3)
    for name in ("QZ5", "Q4", "Q[paper-m7]"):
        alg = algebra_fixture(name)
        for _ in range(15):
            v = rand_space(alg, rng.randint(1, alg.dim - 1), rng)
            h = sub.stabilizer(v, "left")
            assert h.contains_unit()
            assert sub.is_subalgebra(h)
            assert v.contains_space(sub.product_span(h, v))


def test_stabilizer_propagates_to_products():
    rng = random.Random(4)
    alg = algebra_fixture("QZ6")
    for _ in range(20):
        a = rand_space(alg, rng.randint(1, 3), rng)
        b = rand_space(alg, rng.randint(1, 3), rng)
        ha = sub.stabilizer(a, "left")
        hab = sub.stabilizer(sub.product_span(a, b), "left")
        assert hab.contains_space(ha)


def test_annihilator_examples():
    qt2 = algebra_fixture("QT2")
    t = sub.from_vecs(qt2, [qt2.basis_element(1).coords])
    assert sub.annihilator(t, "left") == t  # T*T = 0

    q2 = algebra_fixture("Q2")
    e0 = sub.from_vecs(q2, [q2.basis_element(0).coords])
    assert sub.annihilator(e0, "left") == sub.from_vecs(q2, [q2.basis_element(1).coords])

    z5 = algebra_fixture("QZ5")
    v = sub.from_vecs(z5, [z5.basis_element(0).coords, z5.basis_element(2).coords])
    assert sub.annihilator(v, "left").dim == 0  # contains an invertible


def test_annihilator_inside_stabilizer_and_unit_adjoin():
    rng = random.Random(5)
    for name in ("QT3", "Q4", "Q[graded-m]"):
        alg = algebra_fixture(name)
        for _ in range(10):
            v = rand_space(alg, rng.randint(1, alg.dim - 1), rng)
            ann = sub.annihilator(v, "left")
            stab = sub.stabilizer(v, "left")
            assert stab.contains_space(ann)
            adj = sub.from_vecs(alg, [alg.unit, *ann.basis])
            assert sub.is_subalgebra(adj)


def test_contains_invertible_yes_and_proven_no():
    qt2 = algebra_fixture("QT2")
    both = sub.from_vecs(qt2, [qt2.basis_element(0).coords, qt2.basis_element(1).coords])
    cert = sub.contains_invertible(both)
    assert cert.kind == "YES" and cert.witness.is_invertible

    nilp = sub.from_vecs(qt2, [qt2.basis_element(1).coords])
    assert sub.contains_invertible(nilp).kind == "NO_PROVEN"

    q2 = algebra_fixture("Q2")
    idems = sub.from_vecs(q2, [q2.basis_element(0).coords, q2.basis_element(1).coords])
    cert = sub.contains_invertible(idems)
    assert (cert.kind, cert.witness, cert.trials_used) == ("YES", q2.one(), 0)  # holds the unit

    with pytest.raises(ZeroSubspace):
        sub.contains_invertible(sub.zero_space(q2))


def test_a_non_commutative_search_walks_the_whole_grid(monkeypatch):
    # the first row of M_3(Q) holds no invertible; after its 3 basis vectors
    # and 9 + 3 + 1 = 13 line points, the grid of (9 + 1)^3 = 1000 points,
    # exactly the cap, proves it, and grid points are not counted
    m3 = matrix_algebra(3)
    v = sub.coordinate_span(m3, range(3))
    tested = []
    monkeypatch.setattr(sub, "_invertible", lambda x: tested.append(x) or x.is_invertible)
    cert = sub.contains_invertible(v)
    assert (cert.kind, cert.trials_used, len(tested)) == ("NO_PROVEN", 16, 16 + sub.GRID_CAP)


def test_contains_invertible_no_proven_in_matrix_corner():
    # strictly upper-triangular 2x2 matrices: every element squares to zero
    m2 = algebra_fixture("M2x2")
    v = sub.from_vecs(m2, [m2.basis_element(1).coords])  # E_01
    assert sub.contains_invertible(v).kind == "NO_PROVEN"


COMMUTATIVE_FIXTURES = [name for name in ALGEBRA_NAMES if algebra_fixture(name).commutative]


def grid_dim(n):
    """The largest r whose reference grid of (n+1)^r points is quick to walk."""
    return 3 if n <= 4 else 2 if n <= 6 else 1


def singular_spaces(alg, rng):
    """Random subspaces of the proper ideal xA, x the first of b_i, b_i - 1,
    b_i + 1 that is nonzero and, by the reference, not invertible: none of
    them holds an invertible.  Their dimension keeps the reference's grid of
    (n+1)^r points small."""
    n = alg.dim
    units = [tuple(F(int(i == k)) for i in range(n)) for k in range(n)]
    one = tuple(F(c) for c in alg.unit)
    shifted = [tuple(a + s * b for a, b in zip(u, one)) for s in (-1, 1) for u in units]
    for x in [*units, *shifted]:
        if any(x) and ref_invert(alg.table, alg.unit, x)[0] != "inverse":
            break
    else:
        return
    ideal = ref.basis([ref_mul(alg.table, x, u) for u in units])
    for r in range(1, min(len(ideal), grid_dim(n)) + 1):
        for _ in range(2):
            coefficients = [[rng.randint(-2, 2) for _ in ideal] for _ in range(r)]
            rows = [[sum(c * y[k] for c, y in zip(cs, ideal)) for k in range(n)]
                    for cs in coefficients]
            if ref.rank(rows) == r:
                yield sub.from_vecs(alg, rows)


@pytest.mark.parametrize("name", COMMUTATIVE_FIXTURES)
def test_a_commutative_search_decides_against_the_reference_grid(name):
    # the line decides in a commutative algebra: YES with an invertible
    # witness in V, or NO_PROVEN after r basis vectors and
    # max(n + r + 1, n(r - 1) + 1) line points, where the reference's grid
    # over {1..n+1}^r finds no invertible either; never PROBABLY_NO
    alg = algebra_fixture(name)
    n = alg.dim
    rng = random.Random(n)
    spaces = [rand_space(alg, rng.randint(1, min(n, grid_dim(n))), rng) for _ in range(6)]
    spaces += list(singular_spaces(alg, rng))
    proven = 0
    for v in spaces:
        cert = sub.contains_invertible(v)
        r = v.dim
        if cert.kind == "YES":
            w = cert.witness.coords
            assert ref.contains(v.basis, [w]) and ref_invert(alg.table, alg.unit, w)[0] == "inverse"
            continue
        assert cert.kind == "NO_PROVEN", (name, v.basis, cert.kind)
        assert cert.trials_used == r + max(n + r + 1, n * (r - 1) + 1)
        assert first_invertible(alg.table, alg.unit, v.basis) is None, (name, v.basis)
        proven += 1
    if n > 1:  # Q1 has no proper nonzero ideal to draw a NO from
        assert proven


def test_invertible_basis():
    qt2 = algebra_fixture("QT2")
    v = sub.full_space(qt2)
    basis = sub.invertible_basis(v)
    assert len(basis) == 2
    assert all(b.is_invertible for b in basis)
    assert sub.span_of(basis) == v

    q3 = algebra_fixture("Q3")
    basis = sub.invertible_basis(sub.full_space(q3))
    assert len(basis) == 3 and all(b.is_invertible for b in basis)

    nilp = sub.from_vecs(qt2, [qt2.basis_element(1).coords])
    with pytest.raises(NoInvertibleFound):
        sub.invertible_basis(nilp)


def test_invertible_basis_past_dim_singular_line_points():
    # det(x -> p(t) x) on the Vandermonde line p(t) through the unit and B's
    # basis has degree up to 9 * 2 in t and vanishes at t = 1, ..., 12, so the
    # third invertible point is at t = 14; test_cli.py's Q9_INSTANCE is this B
    q9 = poly_quotient_product([Poly.x()] * 9)
    b = sub.from_vecs(q9, [
        [1, 0, 0, F(-3, 2), F(-7, 12), F(-11, 30), F(-15, 56), F(-19, 90), F(-23, 132)],
        [0, 1, 0, F(1, 2), F(1, 12), F(1, 30), F(1, 56), F(1, 90), F(1, 132)],
        [0, 0, 1, 2, F(3, 2), F(4, 3), F(5, 4), F(6, 5), F(7, 6)],
    ])
    basis = sub.invertible_basis(b)
    assert len(basis) == 3 and all(x.is_invertible for x in basis)
    assert sub.span_of(basis) == b


def test_vandermonde_line():
    q3 = algebra_fixture("Q3")
    elems = [q3.basis_element(0), q3.element([0, F(1, 2), 0]), q3.basis_element(2)]
    points = list(sub.vandermonde_line(elems, [0, 2, -1]))
    assert points == [q3.element([1, 0, 0]), q3.element([1, 1, 4]), q3.element([1, F(-1, 2), 1])]


def test_invertible_basis_random():
    rng = random.Random(6)
    for name in ("QZ5", "Q4"):
        alg = algebra_fixture(name)
        for _ in range(10):
            v = rand_space(alg, rng.randint(1, alg.dim), rng)
            if sub.contains_invertible(v).kind != "YES":
                continue
            basis = sub.invertible_basis(v)
            assert all(b.is_invertible for b in basis)
            assert sub.span_of(basis) == v


def test_subalgebra_generated_examples():
    z3 = algebra_fixture("QZ3")
    assert sub.subalgebra_generated([z3.one()]) == sub.unit_span(z3)
    assert sub.subalgebra_generated([z3.basis_element(1)]) == sub.full_space(z3)

    qt4 = algebra_fixture("QT4")
    x = qt4.basis_element(2) + qt4.basis_element(3)  # T^2 + T^3
    got = sub.subalgebra_generated([x])
    assert got.dim == 2
    assert got.contains(x) and got.contains_unit()
    assert sub.is_subalgebra(got)


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_subalgebra_generated_matches_the_reference(name):
    # V = span(1, gens) holds the unit, so the reference's V u^-1 generates
    # the same subalgebra as gens
    alg = algebra_fixture(name)
    rng = random.Random(name)
    table, unit = alg.table, alg.unit
    for k in (1, 1, 2, 2):
        gens = [alg.element([F(rng.randint(-2, 2)) for _ in range(alg.dim)]) for _ in range(k)]
        want = generated_subalgebra(table, unit, [unit, *(x.coords for x in gens)])
        assert sub.subalgebra_generated(gens) == sub.from_vecs(alg, want)


def test_subalgebra_generated_squares_until_the_span_stops_growing(monkeypatch):
    # g generates QZ5: span(1, g) squares to span(1, g, g^2), then to the
    # whole algebra, whose square shows it closed; the whole algebra as
    # span(1, S) takes that one square
    dims = []
    real = sub.product_span
    monkeypatch.setattr(sub, "product_span", lambda v, w: dims.append(v.dim) or real(v, w))
    alg = algebra_fixture("QZ5")
    assert sub.subalgebra_generated([alg.basis_element(1)]) == sub.full_space(alg)
    assert dims == [2, 3, 5]
    dims.clear()
    assert sub.subalgebra_generated([alg.basis_element(i) for i in range(5)]) == sub.full_space(alg)
    assert dims == [5]


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_closure_chain_grows_to_the_generated_subalgebra(name):
    # each span lies in the next, each square grows it until the last, which
    # is closed, and the first is span(1, gens)
    alg = algebra_fixture(name)
    rng = random.Random(name)
    for k in (1, 2):
        gens = [alg.element([F(rng.randint(-2, 2)) for _ in range(alg.dim)]) for _ in range(k)]
        chain = list(sub._closure(gens))
        assert chain[0] == sub.span_of([alg.one(), *gens])
        for cur, nxt in zip(chain, chain[1:]):
            assert nxt == sub.product_span(cur, cur) and nxt.dim > cur.dim
        assert chain[-1] == sub.subalgebra_generated(gens)
        assert sub.product_span(chain[-1], chain[-1]) == chain[-1]


def test_subalgebra_generated_refuses_elements_of_two_algebras():
    # QZ3 and Q3 share a dimension, so the rows alone cannot tell them apart
    q3, qz3 = algebra_fixture("Q3"), algebra_fixture("QZ3")
    with pytest.raises(AlgebraMismatch):
        sub.subalgebra_generated([q3.basis_element(0), qz3.basis_element(1)])


def test_invert_and_subalgebra_generated_read_the_unit_as_integers(monkeypatch):
    # no unit Element is built: the unit's integer row is read directly
    calls = []
    real = Algebra.one
    monkeypatch.setattr(Algebra, "one", lambda self: calls.append(1) or real(self))
    alg = algebra_fixture("QZ3")
    x = alg.element([2, F(1, 3), 0])
    inv = x.invert()
    assert isinstance(inv, Element) and len(calls) == 0
    got = sub.subalgebra_generated([x])
    assert len(calls) == 0
    monkeypatch.undo()
    assert (x * inv).coords == (inv * x).coords == alg.unit
    assert got == sub.span_of([alg.one(), x, x * x])
    with pytest.raises(AlgebraMismatch):
        sub.subalgebra_generated([x, algebra_fixture("Q3").basis_element(0)])


def test_closed_invertible_span_is_subalgebra():
    # if VV = V and V has an invertible, V contains unit and closes inverses
    rng = random.Random(7)
    alg = algebra_fixture("QZ6")
    seen = 0
    for _ in range(30):
        # random subspaces are essentially never closed; generate closed
        # ones from random elements instead
        x = alg.element([F(rng.randint(-2, 2)) for _ in range(alg.dim)])
        if x.is_zero:
            continue
        v = sub.subalgebra_generated([x])
        assert sub.product_span(v, v) == v
        cert = sub.contains_invertible(v)
        if cert.kind != "YES":
            continue
        seen += 1
        assert v.contains_unit()
        assert sub.is_subalgebra(v)
        inv = cert.witness.invert()
        assert isinstance(inv, Element) and v.contains(inv)
    assert seen >= 3  # the property must actually have been exercised


# -- the trace form's radical ---------------------------------------------


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_radical_is_a_nilpotent_ideal_and_matches_the_reference(name):
    alg = algebra_fixture(name)
    j = sub.radical(alg)
    full = sub.full_space(alg)
    assert j.contains_space(sub.product_span(full, j))
    assert j.contains_space(sub.product_span(j, full))
    power = j
    for _ in range(alg.dim):
        power = sub.product_span(power, j)
    assert power.dim == 0
    want = ref_radical(alg.table)
    assert j.dim == len(want) and ref.contains(want, j.basis)


def test_radical_dimensions():
    for n, d in ((2, 1), (3, 2), (4, 3)):
        j = sub.radical(algebra_fixture(f"QT{n}"))
        assert j.dim == d
        # the nilradical of Q[T]/(T^n) is (T)
        assert j == sub.coordinate_span(j.algebra, range(1, n))
    semisimple = [f"QZ{n}" for n in range(2, 13)] + [f"Q{n}" for n in range(1, 7)]
    for name in semisimple:
        assert sub.radical(algebra_fixture(name)).dim == 0, name
