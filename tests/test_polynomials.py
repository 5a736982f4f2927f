import random
from itertools import chain, count, islice
from fractions import Fraction as F

import pytest

from addalg import classify
from addalg.algebra import min_poly
from addalg.errors import ConstantPolynomial
from addalg.fixtures import ALGEBRA_NAMES, algebra_fixture
from addalg.polynomials import Poly, _int_divmod, poly_gcd, poly_lcm, squarefree_decompose
from addalg.serialize import poly_from_json

from oracles import _derivative, _divmod, _rem, euclid_gcd, sqf_rebuild, yun

T = Poly.x()


def lin(r):
    # T - r
    return Poly.of(-r, 1)


def test_zero_poly_conventions():
    z = Poly.zero()
    assert z.degree is None
    assert z.is_zero
    assert (z + Poly.one()).degree == 0
    assert poly_gcd(z, z).is_zero


def test_poly_has_one_normal_form():
    # int coefficients, a trailing zero and a list all normalize to the
    # tuple of Fractions with no trailing zero
    want = Poly((F(1), F(2)))
    for p in (Poly((1, 2)), Poly.of(1, 2, 0), Poly([1, F(2), 0])):
        assert type(p.coeffs) is tuple and p.coeffs[-1] != 0
        assert all(type(c) is F for c in p.coeffs)
        assert p == want and hash(p) == hash(want)


def test_gcd_examples():
    assert poly_gcd(T * T - Poly.one(), T - Poly.one()) == T - Poly.one()
    assert poly_gcd(Poly.monomial(3), Poly.monomial(2)) == Poly.monomial(2)
    f = Poly.monomial(4) - T
    assert poly_gcd(f, Poly.zero()) == f.monic()


def test_gcd_t4_minus_t_with_derivative():
    f = Poly.monomial(4) - T
    g = Poly(_derivative(f.coeffs))
    want = Poly(tuple(euclid_gcd(list(f.coeffs), list(g.coeffs))))
    assert poly_gcd(f, g) == want


def test_gcd_matches_euclid_oracle_on_random_pairs():
    rng = random.Random(7)
    for _ in range(200):
        f = Poly(tuple(F(rng.randint(-4, 4)) for _ in range(rng.randint(0, 9))))
        g = Poly(tuple(F(rng.randint(-4, 4)) for _ in range(rng.randint(0, 9))))
        got = poly_gcd(f, g)
        want = Poly(tuple(euclid_gcd(list(f.coeffs), list(g.coeffs))))
        assert got == want
        if not got.is_zero:
            assert _rem(list(f.coeffs), list(got.coeffs)) == []
            assert _rem(list(g.coeffs), list(got.coeffs)) == []


def _int_poly(rng, deg, bound):
    """A seeded integer polynomial of degree deg, leading coefficient nonzero."""
    return [rng.randint(-bound, bound) for _ in range(deg)] + [rng.choice((-1, 1)) * rng.randint(1, bound)]


def test_int_divmod_matches_schoolbook_division():
    # the exact case, a = b * q, where every quotient coefficient is an
    # integer; then pseudo-division, a premultiplied by
    # lead(b)^(deg a - deg b + 1), whose remainder need not be zero
    rng = random.Random(40)
    for _ in range(300):
        b = _int_poly(rng, rng.randint(0, 5), 6)
        a = [int(c) for c in sqf_rebuild(1, [(1, b), (1, _int_poly(rng, rng.randint(0, 5), 6))])]
        want = _divmod([F(c) for c in a], [F(c) for c in b])
        assert want[1] == [] and _int_divmod(a, b) == want
    for _ in range(300):
        a = _int_poly(rng, rng.randint(0, 8), 9)
        b = _int_poly(rng, rng.randint(0, 6), 9)
        pa = [c * b[-1] ** max(len(a) - len(b) + 1, 0) for c in a]
        got = _int_divmod(pa, b)
        assert all(type(c) is int for c in got[0] + got[1])
        assert got == _divmod([F(c) for c in pa], [F(c) for c in b])


def test_int_divmod_of_a_lower_degree_or_zero_dividend():
    assert _int_divmod([], [1, 2]) == ([], [])
    assert _int_divmod([0, 3], [1, 0, 2]) == ([], [0, 3])
    assert _int_divmod([5], [7]) == ([0], [5])


def _oracle_lcm(f, g):
    """Monic lcm (f / gcd) * g from euclid_gcd and schoolbook division and product."""
    prod = sqf_rebuild(1, [(1, _divmod(f, euclid_gcd(f, g))[0]), (1, g)])
    return [c / prod[-1] for c in prod]


def test_lcm_matches_euclid_oracle_on_random_pairs():
    # small factors, so that the pairs often share some
    rng = random.Random(41)
    factors = [Poly.of(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(6)]
    factors += [Poly.of(F(rng.randint(-9, 9), rng.randint(1, 5)), rng.randint(-2, 2), 1) for _ in range(3)]
    for _ in range(300):
        polys = []
        for _ in range(2):
            f = Poly.of(F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)))
            for _ in range(rng.randint(0, 3)):
                f = f * rng.choice(factors)
            polys.append(f)
        f, g = polys
        got = poly_lcm(f, g)
        assert list(got.coeffs) == _oracle_lcm(list(f.coeffs), list(g.coeffs))
        assert poly_lcm(g, f) == got


def test_lcm_with_zero_is_zero():
    f = T * T - Poly.one()
    assert poly_lcm(f, Poly.zero()).is_zero
    assert poly_lcm(Poly.zero(), f).is_zero
    assert poly_lcm(Poly.zero(), Poly.zero()).is_zero
    assert poly_lcm(Poly.of(3), Poly.of(F(1, 2))) == Poly.one()
    assert poly_lcm(T - Poly.one(), T * T - Poly.one()) == T * T - Poly.one()


def test_squarefree_examples():
    p = squarefree_decompose(Poly.monomial(4))
    assert [(m, f) for m, f in p.parts] == [(4, T)]

    p = squarefree_decompose(T * T - T)
    assert p.parts == ((1, T * T - T),)

    f = lin(1) * lin(1) * lin(-2)
    p = squarefree_decompose(f)
    assert dict((m, g) for m, g in p.parts) == {1: lin(-2), 2: lin(1)}


def test_squarefree_rejects_constants():
    with pytest.raises(ConstantPolynomial):
        squarefree_decompose(Poly.one())
    with pytest.raises(ConstantPolynomial):
        squarefree_decompose(Poly.zero())


def test_squarefree_reconstruction_random():
    rng = random.Random(3)
    for _ in range(300):
        deg = rng.randint(1, 10)
        f = Poly(tuple(F(rng.randint(-3, 3)) for _ in range(deg)) + (F(rng.randint(1, 3)),))
        p = squarefree_decompose(f)
        assert sqf_rebuild(p.content, [(m, g.coeffs) for m, g in p.parts]) == list(f.coeffs)
        mults = [m for m, _ in p.parts]
        assert len(set(mults)) == len(mults)  # distinct multiplicities
        for _, g in p.parts:
            assert poly_gcd(g, Poly(_derivative(g.coeffs))).degree == 0  # factor squarefree


def test_squarefree_structured_products():
    # build polys with known multiplicity structure and recover it
    rng = random.Random(5)
    for _ in range(100):
        roots = rng.sample(range(-4, 5), 3)
        mults = sorted(rng.sample(range(1, 5), 3))
        f = Poly.one()
        for r, m in zip(roots, mults):
            for _ in range(m):
                f = f * lin(r)
        p = squarefree_decompose(f)
        got = {m: g for m, g in p.parts}
        assert sorted(got) == mults
        for r, m in zip(roots, mults):
            assert _rem(list(got[m].coeffs), list(lin(r).coeffs)) == []


def _yun_inputs():
    """The min polys of the first 8 generator candidates of every commutative
    fixture (the fixed ones, then the line through the basis from t = n + 3),
    the T^n - 1 of Q[Z_n] for n = 2..12, and seeded products of factors with
    coefficients up to 10^6 at multiplicities 1..5."""
    out = []
    for name in ALGEBRA_NAMES:
        alg = algebra_fixture(name)
        if alg.commutative:
            candidates = chain(classify._fixed_candidates(alg),
                               classify._line(alg, count(alg.dim + 3)))
            out += [min_poly(g) for g in islice(candidates, 8)]
    out += [Poly.monomial(n) - Poly.one() for n in range(2, 13)]
    rng = random.Random(30)
    for _ in range(40):
        f = Poly.of(F(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6)))
        for mult in rng.sample(range(1, 6), rng.randint(1, 3)):
            factor = Poly(tuple(F(rng.randint(-10 ** 6, 10 ** 6))
                                for _ in range(rng.randint(1, 2))) + (F(rng.randint(1, 10 ** 6)),))
            for _ in range(mult):
                f = f * factor
        out.append(f)
    return out


def test_squarefree_and_gcd_match_fraction_yun():
    """Yun over Z[x] equals Yun over Q part by part, with the same content,
    and the gcd of every input with its derivative is Euclid's, made monic."""
    inputs = [f for f in _yun_inputs() if not f.is_constant]
    assert len(inputs) > 100
    for f in inputs:
        content, parts = yun(list(f.coeffs))
        got = squarefree_decompose(f)
        assert got.content == content
        assert [(m, list(p.coeffs)) for m, p in got.parts] == parts
        df = Poly(_derivative(f.coeffs))
        assert list(poly_gcd(f, df).coeffs) == euclid_gcd(list(f.coeffs), list(df.coeffs))


def test_json_roundtrip():
    f = Poly.of(0, -1, 1)
    assert f.to_json() == ["0", "-1", "1"]
    assert poly_from_json(f.to_json()) == f
