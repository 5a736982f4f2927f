import random
from itertools import chain, count, islice
from fractions import Fraction as F

import pytest

from addalg import classify
from addalg.algebra import min_poly
from addalg.errors import ConstantPolynomial
from addalg.fixtures import ALGEBRA_NAMES, algebra_fixture
from addalg.polynomials import Poly, poly_gcd, squarefree_decompose
from addalg.serialize import poly_from_json

from oracles import _derivative, euclid_gcd, sqf_rebuild, yun

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
        if not f.is_zero:
            assert (f % got).is_zero
        if not g.is_zero:
            assert (g % got).is_zero


def test_divmod_roundtrip():
    rng = random.Random(11)
    for _ in range(100):
        f = Poly(tuple(F(rng.randint(-5, 5)) for _ in range(rng.randint(1, 8))))
        g = Poly(tuple(F(rng.randint(-5, 5)) for _ in range(rng.randint(1, 6))))
        if g.is_zero:
            continue
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.is_zero or r.degree < g.degree


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
            assert got[m](F(r)) == 0


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
