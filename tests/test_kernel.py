"""Differential tests: the integer, sparse kernel against the Fraction reference.

rref, rank and nullspace are compared on random rational matrices with
mixed denominators, zero rows and dependent rows.  product_span and both
stabilizers are compared on random subspaces, and both multiplication
matrices and the rank-based invertibility test on random elements, of
algebras with 0/1, rational and non-commutative structure constants.
min_poly and invert are compared with the Fraction reference on random
elements of every fixture, of polynomial quotients with rational
constants and of a basis rescaling whose unit has denominators.
The stored integer form of a Subspace is checked to be canonical, and
its membership tests agree with a Fraction rank reference.  The seeded
candidate stream is pinned to its draw order.
"""

import random
from fractions import Fraction as F
from itertools import islice
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from addalg import linalg
from addalg import subspace as sub
from addalg.algebra import (
    Element,
    NonInvertible,
    from_structure_constants,
    min_poly,
    poly_quotient_product,
)
from addalg.errors import NotAssociative
from addalg.fixtures import ALGEBRA_NAMES, algebra_fixture
from addalg.polynomials import Poly

from oracles import (
    frac_rank,
    ref_invert,
    ref_min_poly,
    ref_mul_matrix,
    ref_nullspace,
    ref_product_span,
    ref_rref,
    ref_stabilizer,
)

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
    assert linalg.nullspace(rows, ncols) == ref_nullspace(rows, ncols)


def _algebras():
    # T^2 - T/2 + 1/3 and T^3 + 2 give structure constants with denominators
    polyprod = poly_quotient_product(
        [Poly.of(F(1, 3), F(-1, 2), 1), Poly.of(2, 0, 0, 1)], label="polyprod")
    named = {name: algebra_fixture(name) for name in ("QZ6", "QS3", "Q5", "M2x2")}
    return {**named, "polyprod": polyprod}


ALGEBRAS = _algebras()


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


@settings(max_examples=150, deadline=None)
@given(space_pairs())
def test_product_span_matches_reference(case):
    alg, v, w = case
    got = sub.product_span(v, w)
    assert (got.basis, got.pivots) == ref_product_span(alg.table, v.basis, w.basis)


@settings(max_examples=150, deadline=None)
@given(space_pairs(), st.sampled_from(["left", "right"]))
def test_stabilizer_matches_reference(case, side):
    alg, v, w = case
    for space in (v, sub.product_span(v, w)):
        got = sub.stabilizer(space, side)
        assert (got.basis, got.pivots) == ref_stabilizer(alg.table, space.basis, side)


def test_left_and_right_stabilizers_differ_in_m2():
    # V = span(E11, E12) is the right ideal E11 M_2: V x <= V for every x,
    # while x V <= V only for upper-triangular x
    m2 = ALGEBRAS["M2x2"]
    v = sub.from_vecs(m2, [m2.basis_vec(0), m2.basis_vec(1)])
    left, right = sub.stabilizer(v, "left"), sub.stabilizer(v, "right")
    assert left.dim == 3 and right.dim == 4
    for side, got in (("left", left), ("right", right)):
        assert (got.basis, got.pivots) == ref_stabilizer(m2.table, v.basis, side)


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
    got = sub.from_vecs(alg, [linalg.vec_scale(c, x) for c, x in zip(scales, vecs)])
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
        linalg.vec_add(inside, alg.basis_vec(draw(st.integers(0, n - 1)))),
    ]))
    return alg, gens_v, gens_w, x


@settings(max_examples=200, deadline=None)
@given(membership_cases())
def test_membership_matches_reference(case):
    alg, gens_v, gens_w, x = case
    v, w = sub.from_vecs(alg, gens_v), sub.from_vecs(alg, gens_w)
    rank_v = frac_rank(gens_v)
    assert v.contains_vec(x) == (frac_rank(gens_v + [list(x)]) == rank_v)
    assert v.contains_space(w) == (frac_rank(gens_v + gens_w) == rank_v)


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
    alg = from_structure_constants(table, one, validate=False)
    for coords in ([0, 1, 0], [0, 0, 1], [2, 1, 0], [1, 0, 0], [0, F(1, 2), 3]):
        x = alg.element(coords)
        assert _outcome(x) == ref_invert(alg.table, alg.unit, x.coords)
    assert _outcome(alg.element([0, 1, 0]))[0] == "not-associative"


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**30), st.integers(0, 9), st.integers(1, 4))
def test_random_combinations_draw_order(seed, bound, nrows):
    # each item draws its coefficients in row order, one randint per row
    rows = [tuple(F(i * 7 + j, j + 1) for j in range(5)) for i in range(nrows)]
    got = list(islice(linalg.random_combinations(rows, bound, random.Random(seed)), 6))
    rng = random.Random(seed)
    want = []
    for _ in range(6):
        coeffs = [rng.randint(-bound, bound) for _ in rows]
        want.append(tuple(sum((c * r[j] for c, r in zip(coeffs, rows)), F(0))
                          for j in range(5)))
    assert got == want
