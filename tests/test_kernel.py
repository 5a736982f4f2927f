"""Differential tests: the integer, sparse kernel against the Fraction reference.

rref, rank and nullspace are compared on random rational matrices with
mixed denominators, zero rows and dependent rows, and int_rref and
int_kernel on monomial rows, alone and with one dense row before,
among or after them.  product_span, both stabilizers and both
annihilators are compared on random subspaces, and both multiplication
matrices and the rank-based invertibility test on random elements, of
algebras with 0/1, rational and non-commutative structure constants,
among them a monoid algebra that is not a group algebra and a basis
rescaling of Q^3 whose monomial cells have coefficients other than 1.
Both stabilizers and both annihilators of every coordinate span of the
two monoid algebras that are not group algebras, whose kernel equations
can have several variables, are compared exhaustively.
min_poly and invert are compared with the Fraction reference on random
elements of every fixture, of polynomial quotients with rational
constants and of a basis rescaling whose unit has denominators.
The stored integer form of a Subspace is checked to be canonical, and
its membership tests agree with a Fraction rank reference.  Element
arithmetic on integer rows over a denominator is compared with Fraction
arithmetic on its coordinates, and its stored form is checked to be in
lowest terms.  The seeded coefficient stream is pinned to its draw order.
"""

import random
from fractions import Fraction as F
from functools import partial
from itertools import islice
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from addalg import linalg
from addalg import subspace as sub
from addalg.algebra import (
    Algebra,
    Element,
    NonInvertible,
    from_structure_constants,
    min_poly,
    poly_quotient_product,
)
from addalg.errors import NotAssociative
from addalg.fixtures import ALGEBRA_NAMES, algebra_fixture
from addalg.polynomials import Poly

from oracles import ref, ref_invert, ref_min_poly, ref_mul, ref_mul_matrix, ref_rref, ref_side

RATS = st.builds(F, st.integers(-6, 6), st.integers(1, 7))
SPARSE_RATS = st.one_of(st.just(F(0)), st.just(F(0)), RATS)


@st.composite
def matrices(draw):
    """Rows of one width, padded with zero rows and combinations of earlier rows."""
    ncols = draw(st.integers(1, 7))
    row = st.lists(SPARSE_RATS, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=6))
    for _ in range(draw(st.integers(0, 2))):
        rows.append([F(0)] * ncols)
    if rows:
        for _ in range(draw(st.integers(0, 3))):
            picks = draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3))
            coeffs = draw(st.lists(RATS, min_size=len(picks), max_size=len(picks)))
            rows.append([sum((c * r[j] for c, r in zip(coeffs, picks)), F(0))
                         for j in range(ncols)])
    return ncols, draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rref_matches_reference(case):
    _, rows = case
    assert linalg.rref(rows) == ref_rref(rows)
    # rank takes integer rows; clearing a row leaves its span alone
    assert linalg.rank([linalg.integer_row(r)[0] for r in rows]) == len(ref_rref(rows)[0])


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_nullspace_matches_reference(case):
    ncols, rows = case
    assert linalg.nullspace(rows, ncols) == tuple(map(tuple, ref.kernel(rows, ncols)))


@st.composite
def monomial_matrices(draw):
    """Integer rows with at most one nonzero entry each, and maybe one dense row.

    Entries are negative or scaled, rows repeat and some are zero.  The
    dense row has two or more nonzeros and goes before, among or after the
    monomial rows, where int_rref leaves its monomial short cut.
    """
    ncols = draw(st.integers(1, 8))
    entries = st.integers(-9, 9)
    monomial = st.builds(lambda j, a: [a if k == j else 0 for k in range(ncols)],
                         st.integers(0, ncols - 1), entries)
    rows = draw(st.lists(monomial, max_size=10))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    rows = draw(st.permutations(rows))
    if ncols > 1 and draw(st.booleans()):
        dense = draw(st.lists(entries, min_size=ncols, max_size=ncols))
        for j in draw(st.lists(st.integers(0, ncols - 1), min_size=2, max_size=3, unique=True)):
            dense[j] = draw(entries.filter(bool))
        rows.insert(draw(st.integers(0, len(rows))), dense)
    return ncols, rows


# a dense row first, among and last, and the empty input
MIXED = [[0, -3, 0], [2, 0, 0], [0, -3, 0], [0, 0, 0]]


@settings(max_examples=300, deadline=None)
@given(monomial_matrices())
@example((3, []))
@example((3, [[1, 2, 0]] + MIXED))
@example((3, MIXED[:2] + [[1, 2, 0]] + MIXED[2:]))
@example((3, MIXED + [[1, 2, 0]]))
def test_int_rref_on_monomial_rows_matches_reference(case):
    _, rows = case
    red, pivots = linalg.int_rref(rows)
    assert (linalg.fraction_rows(red, pivots), pivots) == ref_rref(rows)
    if all(sum(1 for a in r if a) <= 1 for r in rows):
        # the short cut's form: the unit rows at the nonzero columns
        assert red == tuple(tuple(int(k == j) for k in range(len(r))) for r, j in zip(red, pivots))


@settings(max_examples=300, deadline=None)
@given(monomial_matrices())
@example((3, []))
@example((3, [[1, 2, 0]] + MIXED))
@example((3, MIXED + [[1, 2, 0]]))
def test_int_kernel_on_monomial_rows_matches_reference(case):
    ncols, rows = case
    vecs, scale = linalg.int_kernel(*linalg.int_rref(rows), ncols)
    want = tuple(map(tuple, ref.kernel(rows, ncols)))
    assert tuple(linalg.fraction_row(x, scale) for x in vecs) == want


def _algebras():
    # T^2 - T/2 + 1/3 and T^3 + 2 give structure constants with denominators
    polyprod = poly_quotient_product(
        [Poly.of(F(1, 3), F(-1, 2), 1), Poly.of(2, 0, 0, 1)], label="polyprod")
    # Q[paper-m7] is a monoid algebra that is not a group algebra: its
    # stabilizers can exceed the combinatorial ones
    named = {name: algebra_fixture(name)
             for name in ("QZ6", "QS3", "Q5", "M2x2", "Q[paper-m7]")}
    # Q^3 in the basis 2e_0, e_1/3, e_2: monomial cells with coefficients
    # 2 and 1/3, so den = 3 and the unit is (1/2, 3, 1)
    cells = [[[F(0)] * 3 for _ in range(3)] for _ in range(3)]
    for i, c in enumerate((F(2), F(1, 3), F(1))):
        cells[i][i][i] = c
    scaled = from_structure_constants(cells, [F(1, 2), F(3), F(1)], label="Q3-scaled")
    return {**named, "polyprod": polyprod, "Q3-scaled": scaled}


ALGEBRAS = _algebras()


def test_monomial_flags_and_scaled_cells():
    # every algebra here but polyprod reads coordinate product spans off its cells
    assert [name for name, alg in ALGEBRAS.items() if not alg.monomial] == ["polyprod"]
    scaled = ALGEBRAS["Q3-scaled"]
    assert scaled.den == 3
    assert [scaled.sparse[i][i] for i in range(3)] == [((0, 6),), ((1, 1),), ((2, 3),)]
    assert scaled.unit == (F(1, 2), F(3), F(1))


@st.composite
def subspaces(draw, alg):
    """A coordinate subspace, or the span of random sparse rational vectors."""
    n = alg.dim
    if draw(st.booleans()):
        picked = draw(st.sets(st.integers(0, n - 1)))
        return sub.from_vecs(alg, [alg.basis_vec(i) for i in sorted(picked)])
    vec = st.lists(SPARSE_RATS, min_size=n, max_size=n)
    return sub.from_vecs(alg, draw(st.lists(vec, max_size=n)))


@st.composite
def space_pairs(draw):
    name = draw(st.sampled_from(sorted(ALGEBRAS)))
    alg = ALGEBRAS[name]
    return alg, draw(subspaces(alg)), draw(subspaces(alg))


def _scaled_case():
    # in Q^3 scaled, x * (b_0 + b_1) lies in its span iff 2 x_0 = x_1 / 3:
    # a kernel that drops the cells' coefficients gets x_0 = x_1
    alg = ALGEBRAS["Q3-scaled"]
    return (alg, sub.from_vecs(alg, [(1, 1, 0)]),
            sub.from_vecs(alg, [(0, 1, 0), (1, 0, 1)]))


def _mult(alg, side="left"):
    """The reference product of alg's dense tensor, for one side."""
    return ref_side(ref.Mult(alg.dim, partial(ref_mul, alg.table), alg.unit), side)


@settings(max_examples=150, deadline=None)
@given(space_pairs())
@example(_scaled_case())
def test_product_span_matches_reference(case):
    alg, v, w = case
    got = sub.product_span(v, w)
    assert (got.basis, got.pivots) == ref_rref(_mult(alg).products(v.basis, w.basis))


@settings(max_examples=150, deadline=None)
@given(space_pairs(), st.sampled_from(["left", "right"]))
@example(_scaled_case(), "left")
def test_stabilizer_matches_reference(case, side):
    alg, v, w = case
    for space in (v, sub.product_span(v, w)):
        got = sub.stabilizer(space, side)
        assert (got.basis, got.pivots) == ref_rref(_mult(alg, side).left_stabilizer(space.basis))


@settings(max_examples=150, deadline=None)
@given(space_pairs(), st.sampled_from(["left", "right"]))
def test_annihilator_matches_reference(case, side):
    alg, v, w = case
    for space in (v, sub.product_span(v, w)):
        got = sub.annihilator(space, side)
        assert (got.basis, got.pivots) == ref_rref(_mult(alg, side).left_annihilator(space.basis))


def test_left_and_right_stabilizers_differ_in_m2():
    # V = span(E11, E12) is the right ideal E11 M_2: V x <= V for every x,
    # while x V <= V only for upper-triangular x
    m2 = ALGEBRAS["M2x2"]
    v = sub.from_vecs(m2, [m2.basis_vec(0), m2.basis_vec(1)])
    left, right = sub.stabilizer(v, "left"), sub.stabilizer(v, "right")
    assert left.dim == 3 and right.dim == 4
    for side, got in (("left", left), ("right", right)):
        assert (got.basis, got.pivots) == ref_rref(_mult(m2, side).left_stabilizer(v.basis))


@pytest.mark.parametrize("name", ["Q[paper-m7]", "Q[graded-m]"])
def test_every_coordinate_span_matches_reference(name):
    # in a monoid algebra that is not a group algebra, b_i b_j = b_k for
    # several i at one k, so the kernel's equations can have several
    # variables; each stabilizer and annihilator of every coordinate span,
    # on both sides, is checked (32 + 64 spans, 384 cases in all)
    alg = algebra_fixture(name)
    n = alg.dim
    for mask in range(1 << n):
        v = sub.coordinate_span(alg, [i for i in range(n) if mask >> i & 1])
        for side in ("left", "right"):
            mult = _mult(alg, side)
            for got, want in ((sub.stabilizer(v, side), mult.left_stabilizer(v.basis)),
                              (sub.annihilator(v, side), mult.left_annihilator(v.basis))):
                assert (got.basis, got.pivots) == ref_rref(want), (sorted(v.pivots), side)


def _assert_stored_form(space):
    """rows are primitive integer rows with positive pivots and cleared pivot columns."""
    n = space.algebra.dim
    assert list(space.pivots) == sorted(set(space.pivots))
    assert len(space.rows) == len(space.pivots)
    for row, pc in zip(space.rows, space.pivots):
        assert len(row) == n and all(type(a) is int for a in row)
        assert gcd(*row) == 1
        assert row[pc] > 0 and not any(row[:pc])
        assert all(row[q] == 0 for q in space.pivots if q != pc)


@settings(max_examples=150, deadline=None)
@given(space_pairs())
def test_stored_form_is_canonical(case):
    alg, v, w = case
    spaces = [v, w, sub.product_span(v, w), sub.lattice_sum(v, w),
              sub.lattice_intersect(v, w), sub.full_space(alg), sub.zero_space(alg)]
    for side in ("left", "right"):
        spaces += [sub.stabilizer(v, side), sub.annihilator(w, side)]
    for space in spaces:
        _assert_stored_form(space)
        assert space.basis == ref_rref(space.basis)[0]


@settings(max_examples=150, deadline=None)
@given(space_pairs(), st.data())
def test_from_vecs_is_independent_of_the_spanning_set(case, data):
    # the basis, some combinations of it and zero rows, shuffled and each
    # rescaled by a nonzero rational, span the same space
    alg, v, _ = case
    vecs = list(v.basis)
    if vecs:
        for _ in range(data.draw(st.integers(0, 3))):
            coeffs = data.draw(st.lists(RATS, min_size=len(vecs), max_size=len(vecs)))
            vecs.append(linalg.combine(coeffs, v.basis))
    vecs += [alg.zero().coords] * data.draw(st.integers(0, 2))
    vecs = data.draw(st.permutations(vecs))
    scales = data.draw(st.lists(RATS.filter(bool), min_size=len(vecs), max_size=len(vecs)))
    got = sub.from_vecs(alg, [tuple(c * a for a in x) for c, x in zip(scales, vecs)])
    assert got == v and hash(got) == hash(v)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(ALGEBRAS)), st.data())
def test_from_vecs_basis_matches_reference(name, data):
    alg = ALGEBRAS[name]
    vecs = data.draw(st.lists(st.lists(SPARSE_RATS, min_size=alg.dim, max_size=alg.dim),
                              max_size=alg.dim + 1))
    got = sub.from_vecs(alg, vecs)
    _assert_stored_form(got)
    assert (got.basis, got.pivots) == ref_rref(vecs)
    picked = data.draw(st.sets(st.integers(0, alg.dim - 1)))
    assert sub.coordinate_span(alg, picked) == sub.from_vecs(
        alg, [alg.basis_vec(i) for i in sorted(picked)])


@st.composite
def membership_cases(draw):
    """Generators of V and W, and a vector x: random, inside span(V) or just off it."""
    name = draw(st.sampled_from(sorted(ALGEBRAS)))
    alg = ALGEBRAS[name]
    n = alg.dim
    vec = st.lists(SPARSE_RATS, min_size=n, max_size=n)
    gens_v = draw(st.lists(vec, min_size=1, max_size=n))
    gens_w = draw(st.one_of(
        st.lists(vec, min_size=1, max_size=3),
        st.lists(st.sampled_from(gens_v), min_size=1, max_size=3)))
    coeffs = draw(st.lists(RATS, min_size=len(gens_v), max_size=len(gens_v)))
    inside = linalg.combine(coeffs, gens_v)
    x = draw(st.sampled_from([
        tuple(draw(vec)),
        inside,
        tuple(a + b for a, b in zip(inside, alg.basis_vec(draw(st.integers(0, n - 1))))),
    ]))
    return alg, gens_v, gens_w, x


@settings(max_examples=200, deadline=None)
@given(membership_cases())
def test_membership_matches_reference(case):
    alg, gens_v, gens_w, x = case
    v, w = sub.from_vecs(alg, gens_v), sub.from_vecs(alg, gens_w)
    rank_v = ref.rank(gens_v)
    assert v.contains(alg.element(x)) == (ref.rank(gens_v + [list(x)]) == rank_v)
    assert v.contains_space(w) == (ref.rank(gens_v + gens_w) == rank_v)


@st.composite
def elements(draw, algebras=ALGEBRAS):
    """An element of one of the algebras: sparse rational, a multiple of a basis
    vector, or 1 - c b_i (singular of corank 1 for b_i = g in Q[Z6] or e_i in Q^5)."""
    name = draw(st.sampled_from(sorted(algebras)))
    alg = algebras[name]
    kind = draw(st.sampled_from(["sparse", "basis", "unit-minus"]))
    if kind == "sparse":
        return alg.element(draw(st.lists(SPARSE_RATS, min_size=alg.dim, max_size=alg.dim)))
    b = alg.basis_element(draw(st.integers(0, alg.dim - 1)))
    c = draw(st.one_of(st.just(F(1)), RATS))
    return b.scale(c) if kind == "basis" else alg.one() - b.scale(c)


@settings(max_examples=200, deadline=None)
@given(elements())
def test_mul_matrices_match_reference(x):
    alg = x.algebra
    assert alg.left_mul_matrix(x.coords) == ref_mul_matrix(alg.table, x.coords, "left")
    assert alg.right_mul_matrix(x.coords) == ref_mul_matrix(alg.table, x.coords, "right")


@settings(max_examples=200, deadline=None)
@given(elements())
def test_is_invertible_matches_det(x):
    assert x.is_invertible == (linalg.det(x.algebra.left_mul_matrix(x.coords)) != 0)


def test_is_invertible_one_sided_in_m2():
    # E11 + E12 is singular; E12 + E21 is its own inverse
    m2 = ALGEBRAS["M2x2"]
    assert not m2.element([1, 1, 0, 0]).is_invertible
    assert m2.element([0, 1, 1, 0]).is_invertible


def _rescaled(alg, scales):
    """The same algebra on the basis scales[i] * b_i, built from structure constants."""
    n = alg.dim
    table = [[[scales[i] * scales[j] * alg.table[i][j][k] / scales[k] for k in range(n)]
              for j in range(n)] for i in range(n)]
    unit = [alg.unit[k] / scales[k] for k in range(n)]
    return from_structure_constants(table, unit, label=f"{alg.label} rescaled")


def _all_algebras():
    every = {name: algebra_fixture(name) for name in ALGEBRA_NAMES}
    polyprod = ALGEBRAS["polyprod"]
    # its unit is (1/2, 0, 2/5, 0, 0), so clearing the unit needs a denominator
    rescaled = _rescaled(polyprod, [F(2), F(-1, 3), F(5, 2), F(1, 3), F(3)])
    return {**every, "polyprod": polyprod, "polyprod-rescaled": rescaled}


ALL_ALGEBRAS = _all_algebras()


def _outcome(x):
    """invert's result in ref_invert's terms."""
    try:
        res = x.invert()
    except NotAssociative:
        return "not-associative", None
    if isinstance(res, NonInvertible):
        return "witness", res.witness.coords
    return "inverse", res.coords


@settings(max_examples=300, deadline=None)
@given(elements(ALL_ALGEBRAS))
def test_min_poly_matches_reference(x):
    alg = x.algebra
    assert min_poly(x).coeffs == ref_min_poly(alg.table, alg.unit, x.coords)


@settings(max_examples=300, deadline=None)
@given(elements(ALL_ALGEBRAS))
def test_invert_matches_reference(x):
    alg = x.algebra
    assert _outcome(x) == ref_invert(alg.table, alg.unit, x.coords)


def test_invert_and_min_poly_cover_singular_elements_and_scaled_units():
    rescaled = ALL_ALGEBRAS["polyprod-rescaled"]
    assert any(u.denominator > 1 for u in rescaled.unit)
    for alg, coords in ((ALL_ALGEBRAS["QT3"], [0, 1, 0]), (ALL_ALGEBRAS["Q5"], [1, 1, 0, 1, 1]),
                        (ALL_ALGEBRAS["M2x2"], [1, 1, 0, 0]), (rescaled, [0] * 5)):
        x = alg.element(coords)
        want = ref_invert(alg.table, alg.unit, x.coords)
        assert want[0] == "witness" and _outcome(x) == want
        assert min_poly(x).coeffs == ref_min_poly(alg.table, alg.unit, x.coords)
    x = rescaled.element([F(1, 2), 0, F(3, 5), 0, 1])
    inv = x.invert()
    assert isinstance(inv, Element) and (x * inv).coords == rescaled.unit


def test_invert_matches_reference_on_non_associative_constants():
    # basis 1, x, y with xy = 1 and yx = 0: y is a right inverse of x only
    z, one = [0, 0, 0], [1, 0, 0]
    table = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], z, one],
        [[0, 0, 1], z, z],
    ]
    alg = Algebra([[linalg.nonzeros(cell) for cell in row] for row in table], one,
                  validate=False)
    for coords in ([0, 1, 0], [0, 0, 1], [2, 1, 0], [1, 0, 0], [0, F(1, 2), 3]):
        x = alg.element(coords)
        assert _outcome(x) == ref_invert(alg.table, alg.unit, x.coords)
    assert _outcome(alg.element([0, 1, 0]))[0] == "not-associative"


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**30), st.integers(0, 9), st.integers(1, 4))
def test_random_coefficients_draw_order(seed, bound, k):
    # each item draws its k coefficients in order, one randint each
    got = list(islice(linalg.random_coefficients(k, bound, random.Random(seed)), 6))
    rng = random.Random(seed)
    assert got == [[rng.randint(-bound, bound) for _ in range(k)] for _ in range(6)]


def _assert_lowest_terms(x):
    assert all(type(a) is int for a in x.num) and type(x.den) is int
    assert x.den > 0 and gcd(x.den, *x.num) == 1


@st.composite
def element_triples(draw):
    """Random rational x and y of one algebra, and a rational c."""
    name = draw(st.sampled_from(sorted(ALL_ALGEBRAS)))
    alg = ALL_ALGEBRAS[name]
    vec = st.lists(SPARSE_RATS, min_size=alg.dim, max_size=alg.dim)
    x = draw(vec)
    y = draw(st.one_of(vec, st.just(x), st.builds(lambda c: [c * a for a in x], RATS)))
    return alg, x, y, draw(RATS)


@settings(max_examples=300, deadline=None)
@given(element_triples())
def test_element_arithmetic_matches_fractions(case):
    alg, xv, yv, c = case
    x, y = alg.element(xv), alg.element(yv)
    assert x.coords == linalg.vec(xv) and y.coords == linalg.vec(yv)
    assert (x * y).coords == ref_mul(alg.table, x.coords, y.coords)
    assert (x + y).coords == tuple(a + b for a, b in zip(xv, yv))
    assert (x - y).coords == tuple(a - b for a, b in zip(xv, yv))
    assert x.scale(c).coords == tuple(c * a for a in xv)
    assert (-x).coords == tuple(-a for a in xv)
    for z in (x, y, x * y, x + y, x - y, x.scale(c), -x, alg.one(), alg.zero()):
        _assert_lowest_terms(z)
    same = x.coords == y.coords
    assert (x == y) == same
    if same:
        assert hash(x) == hash(y)
    # a round trip through other denominators comes back to the same stored form
    back = (x + y) - y
    assert back == x and hash(back) == hash(x)
