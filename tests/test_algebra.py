import random
from fractions import Fraction as F

import pytest

from addalg import linalg
from addalg.algebra import (
    Algebra,
    Element,
    NonInvertible,
    companion_algebra,
    direct_product,
    from_structure_constants,
    matrix_algebra,
    min_poly,
    poly_at,
    poly_quotient_product,
    split_etale_algebra,
)
from addalg.errors import BadUnit, NotAssociative
from addalg.fixtures import ALGEBRA_NAMES, algebra_fixture, cyclic, table_fixture
from addalg.polynomials import Poly
from addalg.serialize import algebra_from_desc

from oracles import (
    change_of_basis,
    ref,
    ref_direct_product_tensor,
    ref_matrix_tensor,
    ref_mul_matrix,
    ref_tensor,
    unimodular,
)

T = Poly.x()


def rand_elem(alg, rng, lo=-4, hi=4):
    return alg.element([F(rng.randint(lo, hi)) for _ in range(alg.dim)])


def test_validation_catches_bad_unit():
    # Q^2 structure constants with a wrong unit vector
    q2 = split_etale_algebra(2)
    with pytest.raises(BadUnit):
        from_structure_constants(q2.table, [F(1), F(0)])


def test_validation_catches_non_associativity():
    # basis 1, x, y with x*x = y, x*y = 1 but y*x = 0: (xx)x != x(xx)
    z = [F(0)] * 3
    def v(i):
        out = [F(0)] * 3
        out[i] = F(1)
        return out
    bad = [
        [v(0), v(1), v(2)],
        [v(1), v(2), v(0)],
        [v(2), z, z],
    ]
    with pytest.raises(NotAssociative):
        from_structure_constants(bad, v(0))


def test_group_algebra_circulant():
    alg = cyclic(3).algebra()
    e1, e2 = alg.basis_element(1), alg.basis_element(2)
    assert (e1 * e2).coords == alg.basis_vec(0)
    assert (e1 * e1).coords == alg.basis_vec(2)
    assert alg.commutative


def test_random_associativity_and_unit_law():
    rng = random.Random(1)
    for name in ("QZ5", "QT3", "Q4", "M2x2", "Q[paper-m7]"):
        alg = algebra_fixture(name)
        one = alg.one()
        for _ in range(20):
            x, y, z = (rand_elem(alg, rng) for _ in range(3))
            assert ((x * y) * z).coords == (x * (y * z)).coords
            assert (one * x).coords == x.coords == (x * one).coords


def test_min_poly_examples():
    q2 = split_etale_algebra(2)
    assert min_poly(q2.one()) == T - Poly.one()
    idem = q2.element([1, 0])
    assert min_poly(idem) == T * T - T
    qt4 = poly_quotient_product([Poly.monomial(4)])
    t = qt4.basis_element(1)
    assert min_poly(t) == Poly.monomial(4)


def test_poly_quotient_cells_are_the_remainders_of_t_powers():
    # each cell b_i b_j is T^(i+j) mod P, here recomputed by one division per cell
    rng = random.Random(5)
    polys = [Poly.monomial(4), Poly.of(1, 0, 2, 0, 1), Poly.monomial(2), T,
             (T - Poly.one()) * (T - Poly.of(2)) * (T - Poly.of(3)),
             Poly.of(F(1, 3), F(-2, 5), F(7, 2), 1)]
    polys += [Poly.of(*[F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d)], 1)
              for d in (1, 2, 3, 4, 5, 6) for _ in range(3)]
    for p in polys:
        alg = poly_quotient_product([p])
        d = p.degree
        for i in range(d):
            for j in range(d):
                want = {k: c for k, c in enumerate((Poly.monomial(i + j) % p).coeffs) if c}
                assert {k: F(c, alg.den) for k, c in alg.sparse[i][j]} == want


def test_min_poly_annihilates_and_is_minimal():
    rng = random.Random(2)
    for name in ("QZ4", "QT4", "Q5", "QP2"):
        alg = algebra_fixture(name)
        for _ in range(10):
            x = rand_elem(alg, rng)
            mu = min_poly(x)
            assert poly_at(mu, x).is_zero
            assert mu.leading == 1
            # minimality: 1, x, ..., x^{deg-1} linearly independent
            powers = [alg.unit]
            cur = alg.one()
            for _ in range(mu.degree - 1):
                cur = cur * x
                powers.append(cur.coords)
            assert ref.rank(powers) == mu.degree


def test_invert_examples():
    qt3 = poly_quotient_product([Poly.monomial(3)])
    t = qt3.basis_element(1)
    res = t.invert()
    assert isinstance(res, NonInvertible)
    assert (t * res.witness).is_zero and not res.witness.is_zero

    alg = cyclic(5).algebra()
    inv = alg.basis_element(2).invert()
    assert isinstance(inv, Element)
    assert inv.coords == alg.basis_vec(3)  # group inverse

    one = alg.one()
    assert one.invert().coords == one.coords


def test_singular_invert_eliminates_once(monkeypatch):
    # the witness is read off the form that showed there is no inverse
    calls = []
    real = linalg.int_rref
    monkeypatch.setattr(linalg, "int_rref", lambda rows: calls.append(1) or real(rows))
    m2 = matrix_algebra(2)
    for x in (poly_quotient_product([Poly.monomial(3)]).basis_element(1),
              m2.basis_element(0), m2.element([1, 2, 2, 4])):
        calls.clear()
        res = x.invert()
        assert isinstance(res, NonInvertible) and len(calls) == 1
        assert (x * res.witness).is_zero and not res.witness.is_zero


def test_is_invertible_stops_at_the_first_dependent_image(monkeypatch):
    # each image x*b_i is reduced as it is formed; T^2 in Q[T]/(T^3) has T^2*T = 0
    calls = []
    real = linalg.echelon_add
    monkeypatch.setattr(linalg, "echelon_add",
                        lambda out, pivots, row: calls.append(1) or real(out, pivots, row))
    qt3 = algebra_fixture("QT3")
    assert not qt3.basis_element(2).is_invertible
    assert len(calls) == 2
    calls.clear()
    assert qt3.element([1, 2, 3]).is_invertible
    assert len(calls) == 3


@pytest.mark.parametrize("n", range(1, 7))
def test_is_invertible_matches_ref_in_q_n_in_any_basis(n):
    # Q^n reads invertibility off the coordinates; Q^n in another basis is
    # not split_etale and takes the rank test, with the same answers
    rng = random.Random(n)
    q = split_etale_algebra(n)
    table, unit, inv = change_of_basis(q.table, q.unit, unimodular(n, rng))
    moved = from_structure_constants(table, unit)
    assert q.split_etale and not moved.split_etale
    seen = set()
    for _ in range(40):
        x = rand_elem(q, rng, -2, 2)  # a coordinate is 0 one time in five
        y = moved.element([sum(x.coords[k] * inv[k][j] for k in range(n)) for j in range(n)])
        want = ref.rank(ref_mul_matrix(q.table, x.coords)) == n
        assert want == (ref.rank(ref_mul_matrix(table, y.coords)) == n)
        assert x.is_invertible == y.is_invertible == want
        seen.add(want)
    assert seen == {False, True}


def test_invert_roundtrip_random():
    rng = random.Random(3)
    for name in ("QZ6", "Q4", "M2x2"):
        alg = algebra_fixture(name)
        for _ in range(25):
            x = rand_elem(alg, rng)
            res = x.invert()
            if isinstance(res, Element):
                assert (x * res).coords == alg.unit
                assert (res * x).coords == alg.unit
            else:
                assert (x * res.witness).is_zero or (res.witness * x).is_zero


def test_invertible_iff_nonzero_constant_term():
    # checked across fixtures on 500 random elements total
    rng = random.Random(4)
    names = ("QZ5", "QT3", "QT4", "Q3", "QP2", "M2x2", "Q[paper-m7]")
    count = 0
    while count < 500:
        alg = algebra_fixture(names[count % len(names)])
        x = rand_elem(alg, rng)
        mu = min_poly(x)
        assert x.is_invertible == (mu.coeffs[0] != 0)
        count += 1


def test_matrix_algebra_noncommutative():
    m2 = matrix_algebra(2)
    e01, e10 = m2.basis_element(1), m2.basis_element(2)
    assert (e01 * e10).coords != (e10 * e01).coords
    assert not m2.commutative


def test_direct_product_structure():
    a = poly_quotient_product([Poly.monomial(2)])
    b = split_etale_algebra(2)
    prod = direct_product(a, b)
    assert prod.dim == 4
    x = prod.element([1, 1, 0, 0])
    y = prod.element([0, 0, 1, 2])
    assert (x * y).is_zero  # the two factors annihilate each other


def test_split_etale_is_read_off_the_structure_constants():
    split = {name for name in ALGEBRA_NAMES if algebra_fixture(name).split_etale}
    assert split == {f"Q{n}" for n in range(1, 7)}
    q3 = split_etale_algebra(3)
    assert from_structure_constants(q3.table, q3.unit).split_etale
    assert direct_product(q3, split_etale_algebra(2)).split_etale
    assert not direct_product(q3, poly_quotient_product([T * T])).split_etale
    # Q^2 in the basis 1, e_0: both idempotent, but not orthogonal
    one_e = [[[1, 0], [0, 1]], [[0, 1], [0, 1]]]
    assert not from_structure_constants(one_e, [1, 0]).split_etale


def test_companion_algebra_matches_quotient():
    # companion of (T-1)(T-2) generates Q[T]/((T-1)(T-2))
    p = Poly.of(2, -3, 1)
    alg = companion_algebra([p])
    assert alg.dim == 2
    t = alg.basis_element(1)
    assert min_poly(t) == p

    # two coprime blocks: mu is the lcm = product
    alg2 = companion_algebra([Poly.of(-1, 1), Poly.of(-2, 1)])
    assert alg2.dim == 2
    assert min_poly(alg2.basis_element(1)) == p


def test_pow_and_scale():
    alg = cyclic(5).algebra()
    g = alg.basis_element(1)
    assert (g ** 5).coords == alg.unit
    assert (g ** 0).coords == alg.unit
    assert g.scale(F(3, 2)).coords[1] == F(3, 2)


def test_pow_refuses_a_negative_exponent():
    # the squaring loop shifts k right, and -1 >> 1 is -1: it never ended
    alg = algebra_fixture("QZ3")
    x = alg.basis_element(1) + alg.one()
    with pytest.raises(ValueError, match="invert"):
        x ** -1
    assert (x ** 0).coords == alg.unit
    assert (x ** 5).coords == (x * x * x * x * x).coords


def test_invert_raises_on_non_associative_constants():
    # basis 1, x, y with xy = 1 and yx = 0: y is a right inverse of x only,
    # which associativity forbids; (xy)x = x but x(yx) = 0
    z, one = [0, 0, 0], [1, 0, 0]
    table = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], z, one],
        [[0, 0, 1], z, z],
    ]
    with pytest.raises(NotAssociative):
        from_structure_constants(table, one)
    alg = Algebra([[linalg.nonzeros(cell) for cell in row] for row in table], one)
    with pytest.raises(NotAssociative):
        alg.basis_element(1).invert()


def companion_by_matrix_min_poly(polys):
    """Q[M] by the minimal polynomial of the block-diagonal companion matrix in M_r(Q)."""
    polys = [p.monic() for p in polys]
    r = sum(p.degree for p in polys)
    coords = [F(0)] * (r * r)  # E_ij at index i*r + j
    off = 0
    for p in polys:
        d = p.degree
        for i in range(d):
            if i:
                coords[(off + i) * r + off + i - 1] = F(1)
            coords[(off + i) * r + off + d - 1] = -p.coeffs[i]
        off += d
    mu = min_poly(matrix_algebra(r).element(coords))
    return poly_quotient_product([mu], label=f"Q[M], mu = {mu}")


def test_companion_mu_is_the_lcm_of_the_blocks():
    # blocks drawn from a few small factors, so they often share some
    rng = random.Random(6)
    linear = [T, T - Poly.one(), T + Poly.one(), T - Poly.of(2)]
    blocks = linear + [T * T + Poly.one(), T * T - Poly.of(2)] + [a * b for a in linear
                                                                  for b in linear]
    for _ in range(60):
        polys = [rng.choice(blocks) for _ in range(rng.randint(1, 3))]
        got, want = companion_algebra(polys), companion_by_matrix_min_poly(polys)
        assert (got.label, got.table, got.unit) == (want.label, want.table, want.unit)


# -- stored constants against the definitions --------------------------------

FIXTURE_POLYS = {
    **{f"QT{n}": [[0] * n + [1]] for n in range(2, 5)},
    "QP2": [[1, 0, 2, 0, 1]],
    "QT2xQT2": [[0, 0, 1]] * 2,
    **{f"Q{n}": [[0, 1]] * n for n in range(1, 7)},
}


def quotient_tensor(polys):
    """prod Q[T]/(P) on the power bases, from the reference product."""
    return ref_tensor(ref.Mult.from_desc({"kind": "poly_quotient_product", "factors": polys}))


def monoid_tensor(table, unit_index):
    """Q[M] on the basis e_x: e_x e_y = e_{xy}, from the reference product."""
    return ref_tensor(ref.Mult.from_table(table, unit_index))


def fixture_reference(name):
    """(table, unit) of an algebra fixture, built from its definition."""
    if name == "M2x2":
        return ref_matrix_tensor(2)
    if name in FIXTURE_POLYS:
        return quotient_tensor(FIXTURE_POLYS[name])
    m = table_fixture(name[1:].strip("[]"))  # QZ5 -> Z5, Q[paper-m7] -> paper-m7
    return monoid_tensor(m.table, m.unit_index)


def rat_strs(rows):
    return [[list(map(str, cell)) for cell in row] for row in rows]


NILP = {"kind": "poly_quotient_product", "factors": [["0", "0", "1"]]}
COMPANION = {"kind": "companion", "polys": [["-1", "1"], ["-2", "1"], ["-1", "1"]]}
RATIONAL_QUOTIENT = quotient_tensor([[F(1, 3), F(-1, 2), 1]])
JSON_KINDS = [
    ({"kind": "structure_constants", "table": rat_strs(RATIONAL_QUOTIENT[0]),
      "unit": list(map(str, RATIONAL_QUOTIENT[1]))}, RATIONAL_QUOTIENT),
    ({"kind": "group_table", "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]},
     monoid_tensor([[0, 1, 2], [1, 2, 0], [2, 0, 1]], 0)),
    ({"kind": "monoid_table", "table": [[0, 0], [0, 1]], "unit": 1},
     monoid_tensor([[0, 0], [0, 1]], 1)),
    ({"kind": "poly_quotient_product", "factors": [["1/2", "-3/7", "2", "1"], ["1", "1"]]},
     quotient_tensor([[F(1, 2), F(-3, 7), 2, 1], [1, 1]])),
    # mu = lcm = (T - 1)(T - 2)
    (COMPANION, quotient_tensor([[2, -3, 1]])),
    # mu = lcm(T^2 + 1, T^3 + T) = T^3 + T
    ({"kind": "companion", "polys": [["1", "0", "1"], ["0", "1", "0", "1"]]},
     quotient_tensor([[0, 1, 0, 1]])),
    ({"kind": "direct_product", "left": NILP, "right": COMPANION},
     ref_direct_product_tensor(quotient_tensor([[0, 0, 1]]),
                               quotient_tensor([[2, -3, 1]]))),
    ({"kind": "direct_product", "left": COMPANION,
      "right": {"kind": "structure_constants", "table": rat_strs(RATIONAL_QUOTIENT[0]),
                "unit": list(map(str, RATIONAL_QUOTIENT[1]))}},
     ref_direct_product_tensor(quotient_tensor([[2, -3, 1]]), RATIONAL_QUOTIENT)),
]


@pytest.mark.parametrize("case", [("fixture", name) for name in ALGEBRA_NAMES]
                         + [("json", i) for i in range(len(JSON_KINDS))])
def test_stored_constants_match_the_definition(case):
    kind, key = case
    if kind == "fixture":
        alg, (table, unit) = algebra_fixture(key), fixture_reference(key)
    else:
        desc, (table, unit) = JSON_KINDS[key]
        alg = algebra_from_desc(desc)
    n = len(table)
    assert "table" not in vars(alg)  # the dense view is built only when read
    assert alg.dim == n and alg.table == tuple(map(tuple, table)) and alg.unit == unit
    dense = from_structure_constants(table, unit)
    assert (alg.sparse, alg.den) == (dense.sparse, dense.den)
    assert alg.commutative == all(table[i][j] == table[j][i] for i in range(n) for j in range(n))
    # split etale: b_i b_j = [i = j] b_i
    assert alg.split_etale == all(table[i][j] == tuple(F(int(i == j == k)) for k in range(n))
                                  for i in range(n) for j in range(n))


# leaves of the nested products below: their constants have different
# denominators, so each product rescales them to a new common one
PRODUCT_LEAVES = [
    NILP,
    {"kind": "poly_quotient_product", "factors": [["1/2", "-3/7", "2", "1"]], "label": "R"},
    {"kind": "group_table", "table": [[0, 1], [1, 0]]},
    COMPANION,
]


def nested_product(depth):
    """A direct_product description nested depth deep, mostly on its left.

    Every third level nests on its right instead, and every fifth has its
    own label, so both the tree walk and the default labels are exercised.
    """
    desc = PRODUCT_LEAVES[0]
    for i in range(1, depth + 1):
        leaf = PRODUCT_LEAVES[i % len(PRODUCT_LEAVES)]
        left, right = (leaf, desc) if i % 3 == 0 else (desc, leaf)
        desc = {"kind": "direct_product", "left": left, "right": right}
        if i % 5 == 0:
            desc["label"] = f"P{i}"
    return desc


def pairwise_fold(desc):
    """The algebra of a description, each direct_product level built as a pair."""
    if desc["kind"] != "direct_product":
        return algebra_from_desc(desc)
    return direct_product(pairwise_fold(desc["left"]), pairwise_fold(desc["right"]),
                          label=desc.get("label", ""))


@pytest.mark.parametrize("depth", range(1, 21))
def test_nested_product_equals_the_pairwise_fold(depth):
    desc = nested_product(depth)
    got, want = algebra_from_desc(desc), pairwise_fold(desc)
    assert (got.label, got.dim, got.sparse, got.den, got.unit_num) \
        == (want.label, want.dim, want.sparse, want.den, want.unit_num)


def test_nested_product_builds_its_cells_once(monkeypatch):
    # one Algebra per leaf and one for the whole product, not one per level
    calls = []
    real = Algebra.__init__

    def counting(self, *args, **kwargs):
        calls.append(None)
        real(self, *args, **kwargs)

    monkeypatch.setattr(Algebra, "__init__", counting)
    algebra_from_desc(nested_product(200))
    assert len(calls) == 201 + 1


def test_direct_product_of_several_factors_is_the_fold_from_the_left():
    a, b, c = (split_etale_algebra(1), poly_quotient_product([T * T]),
               companion_algebra([Poly.of(-1, 1), Poly.of(-2, 1)]))
    got, want = direct_product(a, b, c), direct_product(direct_product(a, b), c)
    assert (got.label, got.sparse, got.den, got.unit_num) \
        == (want.label, want.sparse, want.den, want.unit_num)
    assert got.label == f"(({a.label}) x ({b.label})) x ({c.label})"
    assert direct_product(a, b, c, label="P").label == "P"
