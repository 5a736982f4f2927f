import random
from fractions import Fraction as F

import pytest

from addalg import classify
from addalg import subspace as sub
from addalg.algebra import poly_quotient_product
from addalg.errors import CapExceeded, NotSplitEtale
from addalg.fixtures import algebra_fixture
from addalg.polynomials import Poly, squarefree_decompose

from oracles import ref

T = Poly.x()


def profile_of(f):
    return squarefree_decompose(f)


def test_profile_ok_cases():
    assert not classify.profile_ok(profile_of(Poly.monomial(4)))
    # (T^2+1) * T^2: one squared linear factor, rest squarefree
    f = Poly.of(1, 0, 1) * Poly.monomial(2)
    assert classify.profile_ok(profile_of(f))
    # (T^2+1)^2: repeated factor of degree 2
    g = Poly.of(1, 0, 1) * Poly.of(1, 0, 1)
    assert not classify.profile_ok(profile_of(g))
    # squarefree anything
    assert classify.profile_ok(profile_of(T * T - T))
    # cube of a linear factor is fine, fourth power is not
    assert classify.profile_ok(profile_of(Poly.monomial(3)))
    # two distinct squared linear factors: two repeated parts
    h = Poly.monomial(2) * Poly.of(-1, 1) * Poly.of(-1, 1)
    assert not classify.profile_ok(profile_of(h))


def test_two_repeated_parts_give_bad_profile():
    # T^2 (T-1)^3: a squared and a cubed linear factor, two repeated parts
    t1 = Poly.of(-1, 1)
    f = Poly.monomial(2) * t1 * t1 * t1
    assert not classify.profile_ok(profile_of(f))
    verdict = classify.finite_subalgebras_verdict(poly_quotient_product([f]))
    assert (verdict.kind, verdict.reason) == ("Infinite", "BadProfile")
    assert [m for m, _ in verdict.profile.parts] == [2, 3]


def test_verdict_truth_table():
    table = {
        "QT2": ("Finite", None),
        "QT3": ("Finite", None),
        "QT4": ("Infinite", "BadProfile"),
        "QP2": ("Infinite", "BadProfile"),
        "QT2xQT2": ("Infinite", "BadProfile"),
        "Q2": ("Finite", None),
        "Q5": ("Finite", None),
        "M2x2": ("Infinite", "NonCommutative"),
    }
    for name, (kind, reason) in table.items():
        v = classify.finite_subalgebras_verdict(algebra_fixture(name))
        assert v.kind == kind, name
        assert v.reason == reason, name
        if v.generator is not None:
            from addalg.algebra import min_poly

            assert min_poly(v.generator).degree == v.generator.algebra.dim


def test_verdict_seed_independent():
    for name in ("QT3", "QT4", "Q4"):
        kinds = {
            classify.finite_subalgebras_verdict(algebra_fixture(name), seed=s).kind
            for s in (0, 1, 2)
        }
        assert len(kinds) == 1


def test_verdict_group_algebras():
    # Q[Z/n] = Q[T]/(T^n - 1), squarefree, hence Finite
    for n in (2, 3, 5, 6):
        v = classify.finite_subalgebras_verdict(algebra_fixture(f"QZ{n}"))
        assert v.kind == "Finite"


def test_set_partitions_against_oracle():
    for n in range(0, 6):
        mine = [tuple(tuple(b) for b in p) for p in classify.set_partitions(n)]
        theirs = set(ref.partitions(range(n)))
        assert len(mine) == len(set(mine)) == len(theirs)
        assert {tuple(sorted(p)) for p in mine} == theirs
        assert len(mine) == classify.bell_number(n)


def test_bell_numbers():
    assert [classify.bell_number(n) for n in range(6)] == [1, 1, 2, 5, 15, 52]


def test_enumerate_subalgebras_split_counts_and_closure():
    for n in range(1, 6):
        alg = algebra_fixture(f"Q{n}")
        got = classify.enumerate_subalgebras_split(alg)
        assert len(got) == classify.bell_number(n)
        seen = set()
        for part, space in got:
            assert space.contains_unit()
            assert sub.is_subalgebra(space)
            assert space.basis not in seen
            seen.add(space.basis)
            assert space.dim == len(part)


def test_enumerate_rejects_non_split_and_caps():
    with pytest.raises(NotSplitEtale):
        classify.enumerate_subalgebras_split(algebra_fixture("QT2"))
    with pytest.raises(CapExceeded):
        classify.enumerate_subalgebras_split(algebra_fixture("Q5"), cap=4)


def test_random_generated_subalgebra_is_enumerated():
    rng = random.Random(9)
    alg = algebra_fixture("Q4")
    enumerated = {space.basis for _, space in classify.enumerate_subalgebras_split(alg)}
    for _ in range(40):
        x = alg.element([F(rng.randint(-2, 2)) for _ in range(4)])
        got = sub.subalgebra_generated([x])
        assert got.basis in enumerated
