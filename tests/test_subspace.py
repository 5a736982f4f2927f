import random
from fractions import Fraction as F

import pytest

from addalg import subspace as sub
from addalg.algebra import Element, poly_quotient_product
from addalg.errors import (
    AlgebraMismatch,
    EmptyGeneratingSet,
    NoInvertibleFound,
    ZeroSubspace,
)
from addalg.fixtures import algebra_fixture
from addalg.polynomials import Poly

from oracles import ref


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


def test_dim_formula_sum_intersection():
    alg = algebra_fixture("Q5")
    rng = random.Random(1)
    for _ in range(50):
        v = rand_space(alg, rng.randint(1, 4), rng)
        w = rand_space(alg, rng.randint(1, 4), rng)
        s = sub.lattice_sum(v, w)
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
    a = sub.from_vecs(z5, [z5.basis_vec(0), z5.basis_vec(1)])
    b = sub.from_vecs(z5, [z5.basis_vec(i) for i in range(3)])
    assert sub.product_span(a, b).dim == 4  # {0,1}+{0,1,2} = {0..3}

    unit = sub.unit_span(z5)
    assert sub.product_span(unit, b) == b


def test_coordinate_flag():
    # a space is coordinate when each canonical row has one nonzero; a
    # multiple of a basis vector spans the same space as the vector
    z5 = algebra_fixture("QZ5")
    assert sub.coordinate_span(z5, [1, 3]).coordinate
    assert sub.from_vecs(z5, [z5.basis_vec(2), [F(0), F(-3, 2), F(0), F(0), F(0)]]).coordinate
    assert sub.zero_space(z5).coordinate and sub.full_space(z5).coordinate
    assert not sub.block_span(z5, [[0], [1, 2]]).coordinate
    assert not sub.unit_span(algebra_fixture("Q3")).coordinate


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
        bigger = sub.lattice_sum(v, rand_space(alg, 1, rng))
        assert sub.product_span(bigger, w).contains_space(p)


def test_stabilizer_examples():
    q3 = algebra_fixture("Q3")
    v = sub.from_vecs(q3, [(F(1), F(0), F(0)), (F(0), F(1), F(1))])
    assert sub.stabilizer(v, "left") == v  # it is its own subalgebra

    full = sub.full_space(q3)
    assert sub.stabilizer(full, "left") == full

    z5 = algebra_fixture("QZ5")
    a = sub.from_vecs(z5, [z5.basis_vec(0), z5.basis_vec(1)])
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
    t = sub.from_vecs(qt2, [qt2.basis_vec(1)])
    assert sub.annihilator(t, "left") == t  # T*T = 0

    q2 = algebra_fixture("Q2")
    e0 = sub.from_vecs(q2, [q2.basis_vec(0)])
    assert sub.annihilator(e0, "left") == sub.from_vecs(q2, [q2.basis_vec(1)])

    z5 = algebra_fixture("QZ5")
    v = sub.from_vecs(z5, [z5.basis_vec(0), z5.basis_vec(2)])
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
            adj = sub.lattice_sum(sub.unit_span(alg), ann)
            assert sub.is_subalgebra(adj)


def test_contains_invertible_yes_and_proven_no():
    qt2 = algebra_fixture("QT2")
    both = sub.from_vecs(qt2, [qt2.basis_vec(0), qt2.basis_vec(1)])
    cert = sub.contains_invertible(both)
    assert cert.kind == "YES" and cert.witness.is_invertible

    nilp = sub.from_vecs(qt2, [qt2.basis_vec(1)])
    assert sub.contains_invertible(nilp).kind == "NO_PROVEN"

    q2 = algebra_fixture("Q2")
    idems = sub.from_vecs(q2, [q2.basis_vec(0), q2.basis_vec(1)])
    cert = sub.contains_invertible(idems)
    assert cert.kind == "YES"

    with pytest.raises(ZeroSubspace):
        sub.contains_invertible(sub.zero_space(q2))


def test_contains_invertible_no_proven_in_matrix_corner():
    # strictly upper-triangular 2x2 matrices: every element squares to zero
    m2 = algebra_fixture("M2x2")
    v = sub.from_vecs(m2, [m2.basis_vec(1)])  # E_01
    assert sub.contains_invertible(v).kind == "NO_PROVEN"


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

    nilp = sub.from_vecs(qt2, [qt2.basis_vec(1)])
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


def test_subalgebra_generated_refuses_elements_of_two_algebras():
    # QZ3 and Q3 share a dimension, so the rows alone cannot tell them apart
    q3, qz3 = algebra_fixture("Q3"), algebra_fixture("QZ3")
    with pytest.raises(AlgebraMismatch):
        sub.subalgebra_generated([q3.basis_element(0), qz3.basis_element(1)])


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
