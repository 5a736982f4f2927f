import dataclasses
import random
import re
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from addalg import classify, gen, linalg, sumsets
from addalg import subspace as sub
from addalg.algebra import Element, direct_product, matrix_algebra, split_etale_algebra
from addalg.errors import (
    AddalgError,
    AlgebraMismatch,
    CapExceeded,
    EpsilonOutOfRange,
    LambdaOutOfRange,
    NoInvertibleFound,
    NoInvertibleInA,
    NoInvertibleInB,
    NotCommutative,
    NotInB,
    NotInvertible,
    NotSplitEtale,
    ZeroSubspace,
)
from addalg.fixtures import algebra_fixture

from oracles import generated_subalgebra, ref, ref_certificate_violations, ref_invert, ref_mul
from test_acceptance import _instance_stream
from test_algebra import fixture_reference


def rand_space(alg, dim, rng):
    while True:
        vecs = [
            tuple(F(rng.randint(-3, 3)) for _ in range(alg.dim))
            for _ in range(dim)
        ]
        got = sub.from_vecs(alg, vecs)
        if got.dim == dim:
            return got


def idempotent_line(q3):
    # {(x, y, y)} inside Q^3
    return sub.from_vecs(q3, [(F(1), F(0), F(0)), (F(0), F(1), F(1))])


# -- e-transform -------------------------------------------------------


def test_e_transform_unit_pivot():
    alg = algebra_fixture("QZ5")
    rng = random.Random(0)
    a = rand_space(alg, 2, rng)
    b = sub.from_vecs(alg, [alg.unit, *rand_space(alg, 2, rng).basis])
    ae, be = sumsets.e_transform(a, b, alg.one())
    assert ae == sub.lattice_intersect(a, b)
    assert be == sub.from_vecs(alg, [*a.basis, *b.basis])
    assert ae.dim + be.dim == a.dim + b.dim


def test_e_transform_closure_fixed_point():
    q3 = algebra_fixture("Q3")
    v = idempotent_line(q3)
    e = q3.element([1, 1, 1])
    ae, be = sumsets.e_transform(v, v, e)
    assert ae == v and be == v


def test_e_transform_conserves_dims_random():
    rng = random.Random(1)
    for name in ("QZ5", "Q4"):
        alg = algebra_fixture(name)
        for _ in range(20):
            a = rand_space(alg, rng.randint(1, 3), rng)
            b = rand_space(alg, rng.randint(1, 3), rng)
            cert = sub.contains_invertible(b)
            if cert.kind != "YES":
                continue
            ae, be = sumsets.e_transform(a, b, cert.witness)
            assert ae.dim + be.dim == a.dim + b.dim
            assert a.contains_space(ae)
            assert be.contains_space(b)


def test_e_transform_guards():
    alg = algebra_fixture("QT2")
    full = sub.full_space(alg)
    t = alg.basis_element(1)
    with pytest.raises(NotInvertible):
        sumsets.e_transform(full, full, t)  # T is nilpotent
    outside = alg.one() + alg.one()
    nilp = sub.from_vecs(alg, [alg.basis_element(1).coords])
    with pytest.raises(NotInB):
        sumsets.e_transform(full, nilp, outside)


def test_e_transform_refuses_spaces_of_two_algebras():
    q4, other = split_etale_algebra(4), split_etale_algebra(4)
    b = sub.full_space(other)
    for a in (sub.full_space(q4), sub.zero_space(q4), sub.unit_span(q4)):
        with pytest.raises(AlgebraMismatch):
            sumsets.e_transform(a, b, other.one())


def test_diderrich_certificate_refuses_spaces_of_two_algebras():
    # refused before any other check: the M2x2 space does not commute, and
    # the Q^3 spaces' rows are too short for Q^4
    q3, other, q4 = (sub.full_space(split_etale_algebra(n)) for n in (3, 3, 4))
    m2 = sub.full_space(algebra_fixture("M2x2"))
    for a, b in ((q3, q4), (q4, q3), (q3, other), (m2, q4)):
        for certify in (sumsets.diderrich_certificate, sumsets.olson_weak_certificate):
            with pytest.raises(AlgebraMismatch, match="subspaces of different algebras"):
                certify(a, b)


TRANSFORM_ALGEBRAS = {name: algebra_fixture(name) for name in ("Q4", "QZ5", "QT3", "QS3", "M2x2")}
TRANSFORM_ALGEBRAS["polyprod"] = gen.gen_instance("polyprod", 0).algebra


@st.composite
def transform_cases(draw):
    """(A, B, e): B holds the unit, e is an invertible point of B, and A is
    0, random rows with or without the unit, or inside Be^-1 (so Ae <= B)."""
    alg = TRANSFORM_ALGEBRAS[draw(st.sampled_from(sorted(TRANSFORM_ALGEBRAS)))]
    row = st.lists(st.integers(-2, 2), min_size=alg.dim, max_size=alg.dim)
    b = sub.from_vecs(alg, [alg.unit] + draw(st.lists(row, max_size=3)))
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=b.dim, max_size=b.dim))
    e = sum((x.scale(c) for x, c in zip(b.elements(), coeffs)), alg.zero())
    assume(e.is_invertible)
    kind = draw(st.sampled_from(["zero", "unit", "rows", "inside"]))
    if kind == "zero":
        a = sub.zero_space(alg)
    elif kind == "inside":
        inside = sub.preimage(e, b, side="right").elements()
        a = sub.span_of(draw(st.lists(st.sampled_from(inside), min_size=1)))
    else:
        rows = draw(st.lists(row, min_size=1, max_size=3))
        a = sub.from_vecs(alg, ([alg.unit] if kind == "unit" else []) + rows)
    return a, b, e


@settings(max_examples=200, deadline=None)
@given(transform_cases())
def test_e_transform_matches_the_lattice_formula(case):
    a, b, e = case
    ae = sub.translate(e, a, side="right")
    assert sumsets.e_transform(a, b, e) == (
        sub.lattice_intersect(a, sub.preimage(e, b, side="right")),
        sub.from_vecs(b.algebra, [*b.basis, *ae.basis]))


def test_recursion_calls_no_elimination_helper(monkeypatch):
    # e_transform reads A n Be^-1 and B + Ae off the images a_i*e, and the
    # recursion tests span(AB) <= B product by product
    calls = []
    for name in ("preimage", "lattice_intersect", "translate", "product_span"):
        def counting(*args, _name=name, _real=getattr(sub, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(sub, name, counting)
    alg = algebra_fixture("QZ5")
    a, b = sub.coordinate_span(alg, [0, 1]), sub.coordinate_span(alg, [0, 1, 2])
    h, v, depth = sumsets._recurse(a, b)  # {0, 1} + {0, 1, 2} leaves B
    assert h == sub.unit_span(alg) and depth >= 1
    for e in sub.invertible_basis(b):
        sumsets.e_transform(a, b, e)
    assert calls == []


def test_recursion_tests_no_pivot_beyond_invertible_basis(monkeypatch):
    # _invertible_points yields only points that pass is_invertible, so the
    # recursion's e-transforms take them untested
    outside, inside = [], [False]
    real_test, real_points = Element.is_invertible.fget, sub._invertible_points

    def test(x):
        if not inside[0]:
            outside.append(x)
        return real_test(x)

    def guarded(f, *args):
        inside[0] = True
        try:
            return f(*args)
        finally:
            inside[0] = False

    def points(v):
        # the stream tests its points as they are drawn, so each draw is inside
        stream = guarded(real_points, v)
        while (x := guarded(next, stream, None)) is not None:
            yield x

    monkeypatch.setattr(Element, "is_invertible", property(test))
    monkeypatch.setattr(sub, "_invertible_points", points)
    for name, a_idx, b_idx in (("QZ5", [0, 1], [0, 1, 2]), ("QS3", [0, 1, 2], [0, 3])):
        alg = algebra_fixture(name)
        a, b = sub.coordinate_span(alg, a_idx), sub.coordinate_span(alg, b_idx)
        _, _, depth = sumsets._recurse(a, b)
        assert depth >= 1 and outside == []


def test_recursion_without_pivots_raises_the_lemma_error(monkeypatch):
    # the path the lemma rules out: when no drawn point shrinks A, the
    # recursion names the breach of the lemma
    monkeypatch.setattr(sub, "_invertible_points", lambda v: iter(()))
    alg = algebra_fixture("QZ5")
    a, b = sub.coordinate_span(alg, [0, 1]), sub.coordinate_span(alg, [0, 1, 2])
    with pytest.raises(AddalgError, match="against the lemma"):
        sumsets._recurse(a, b)


# The family mix and dimensions of perfbench/certify.py's pool.
CERTIFY_MIX = (("split", 4), ("split", 5), ("group", 5), ("group", 7), ("group", 8),
               ("polyprod", 2), ("polyprod", 3))
CERTIFY_DIMS = ((2, 2), (1, 3), (2, 3), (3, 2), (2, 2, 1))


def eager_recurse(a, b):
    """The recursion with B's whole invertible basis formed before its first
    pivot is tried, and span(AB) <= B tested on the product span."""
    if a.dim == 1:
        return sub.unit_span(a.algebra), b, 0
    if b.contains_space(sub.product_span(a, b)):
        return sub.subalgebra_generated(a.elements()), b, 0
    for e in sub.invertible_basis(b):
        a_e, b_e = sumsets.e_transform(a, b, e)
        if a_e.dim < a.dim:
            h, v, depth = eager_recurse(a_e, b_e)
            return h, v, depth + 1
    raise AssertionError("no pivot of the invertible basis shrank A")


@pytest.mark.parametrize("seed", [1, 7, 2001])
def test_lazy_pivots_give_the_eager_recursion(seed):
    base = random.Random(seed).randrange(2 ** 31)
    for i in range(210):
        fam, n = CERTIFY_MIX[i % len(CERTIFY_MIX)]
        inst = gen.gen_instance(fam, base + i, n=n, dims=CERTIFY_DIMS[i % len(CERTIFY_DIMS)])
        a, b = inst.subspaces["A"], inst.subspaces["B"]
        a = sub.preimage(sub.contains_invertible(a).witness, a, side="left")
        b = sub.preimage(sub.contains_invertible(b).witness, b, side="right")
        assert sumsets._recurse(a, b) == eager_recurse(a, b), (fam, inst.seed)


# -- certificates ------------------------------------------------------


def test_certificate_base_case():
    alg = algebra_fixture("QZ5")
    rng = random.Random(2)
    a = sub.unit_span(alg)
    b = rand_space(alg, 3, rng)
    if sub.contains_invertible(b).kind != "YES":
        b = sub.full_space(alg)
    cert = sumsets.diderrich_certificate(a, b)
    assert cert.subalgebra.dim == 1
    assert cert.recursion_depth == 0
    assert not cert.violations()


def test_certificate_subalgebra_fixed_point():
    q3 = algebra_fixture("Q3")
    v = idempotent_line(q3)
    cert = sumsets.diderrich_certificate(v, v)
    assert not cert.violations()
    assert cert.space.dim + cert.subalgebra.dim >= 4


def test_certificate_group_algebra_ap():
    alg = algebra_fixture("QZ5")
    a = sub.from_vecs(alg, [alg.basis_element(0).coords, alg.basis_element(1).coords])
    b = sub.from_vecs(alg, [alg.basis_element(i).coords for i in range(3)])
    cert = sumsets.diderrich_certificate(a, b)
    assert not cert.violations()
    assert cert.subalgebra.dim == 1
    assert cert.space.dim >= 4
    assert cert.recursion_depth < a.dim


def test_certificate_stabilized_pair_tries_no_pivot(monkeypatch):
    # span(AB) = B when B is the whole algebra, so no e-transform can shrink A
    calls = []
    real = sumsets._e_step

    def counting(a, b, e):
        calls.append(e)
        return real(a, b, e)

    monkeypatch.setattr(sumsets, "_e_step", counting)
    alg = algebra_fixture("QZ5")
    a = sub.from_vecs(alg, [alg.basis_element(i).coords for i in (0, 1, 3)])
    full = sub.full_space(alg)
    cert = sumsets.diderrich_certificate(a, full)
    assert calls == []
    assert cert.recursion_depth == 0 and cert.space == full
    assert not cert.violations()


def test_certificate_rejects_noncommutative_a():
    m2 = algebra_fixture("M2x2")
    full = sub.full_space(m2)
    with pytest.raises(NotCommutative):
        sumsets.diderrich_certificate(full, full)


def test_certificate_needs_invertibles():
    qt2 = algebra_fixture("QT2")
    nilp = sub.from_vecs(qt2, [qt2.basis_element(1).coords])
    full = sub.full_space(qt2)
    with pytest.raises(NoInvertibleInA, match="^certificate NO_PROVEN for A$"):
        sumsets.diderrich_certificate(nilp, full)
    with pytest.raises(NoInvertibleInB, match="^certificate NO_PROVEN for B$"):
        sumsets.diderrich_certificate(full, nilp)


def test_certificate_random_sweep():
    rng = random.Random(3)
    for seed in range(40):
        fam = ("split", "group", "polyprod")[seed % 3]
        inst = gen.gen_instance(fam, seed, dims=(rng.randint(1, 3), rng.randint(1, 3)))
        cert = sumsets.diderrich_certificate(inst.subspaces["A"], inst.subspaces["B"])
        assert not cert.violations(), (fam, seed)
        assert cert.recursion_depth < max(inst.subspaces["A"].dim, 1) + 1


def cubic_columns(heads, roots):
    """Four rows: row i is heads[i] followed by the i-th coefficient of each
    cubic (t - a)(t - b)(t - c), (a, b, c) in roots, so the point
    sum t^i row_i carries each cubic's value at t."""
    cubics = [(-a * b * c, a * b + a * c + b * c, -(a + b + c), 1) for a, b, c in roots]
    return [head + [q[i] for q in cubics] for i, head in enumerate(heads)]


def test_a_commutative_witness_is_a_line_point_whatever_the_seed():
    # V in Q^9 has the canonical basis e_i + sum_k q_k[i] e_k, i < 4, with
    # q_4..q_8 cubics whose roots cover t = 1..15: every basis vector and
    # the points sum t^i e_i of its Vandermonde line up to t = 15 have a
    # zero coordinate.  The line goes on to t = n(r - 1) + 1 = 28, so A's
    # witness is its point at t = 16, the 20th trial, with no draw.
    alg = split_etale_algebra(9)
    rows = cubic_columns([[int(j == i) for j in range(4)] for i in range(4)],
                         [(1, 2, 3), (4, 5, 6), (7, 8, 9), (10, 11, 12), (13, 14, 15)])
    v = sub.from_vecs(alg, rows)
    point = [sum(16 ** i * row[k] for i, row in enumerate(rows)) for k in range(9)]
    cert = sub.contains_invertible(v)
    assert (cert.kind, cert.trials_used, cert.witness) == ("YES", 20, alg.element(point))
    cert = sumsets.diderrich_certificate(v, sub.full_space(alg))
    assert cert.a == alg.element(point) and cert.violations() == []


def sampled_witness_rows():
    """The four rows of a V in M_2(Q) x Q^8 whose invertible is found only
    by sampling.

    V has the canonical basis E11, E22, e1, e2 (pivots 0, 3, 4, 5), each
    plus sum_k q_k[i] e_{k+2}, with q_1..q_6 cubics whose roots cover
    t = 1..18: V's elements commute, and every basis vector and every point
    of its Vandermonde line up to t = n + r + 1 = 17 is singular.  The
    algebra is not commutative and the grid of 13^4 points is past the cap.
    """
    return cubic_columns(
        [[int(i == 0), 0, 0, int(i == 1), int(i == 2), int(i == 3)] for i in range(4)],
        [(3 * k + 1, 3 * k + 2, 3 * k + 3) for k in range(6)])


def test_a_sampled_witness_is_the_first_draw_of_the_fixed_stream():
    # A's witness is the first random draw, the 22nd trial, and the draws
    # come from random.Random(0) with coefficients in [-9, 9]
    alg = direct_product(matrix_algebra(2), split_etale_algebra(8))
    rows = sampled_witness_rows()
    v = sub.from_vecs(alg, rows)
    cs = next(linalg.random_coefficients(4, 9, random.Random(0)))
    cert = sub.contains_invertible(v)
    assert (cert.kind, cert.trials_used) == ("YES", 22)
    assert cert.witness == alg.element(linalg.combine(cs, rows))
    certificate = sumsets.diderrich_certificate(v, sub.full_space(alg))
    assert certificate.a == cert.witness and certificate.violations() == []


def test_certificate_path_forms_no_inverse(monkeypatch):
    # a^-1 A, B b^-1 and each A n Be^-1 are preimages; no inverse is formed
    def refuse(self):
        raise AssertionError("the certificate path formed an inverse")

    monkeypatch.setattr(Element, "invert", refuse)
    rng = random.Random(11)
    spaces = []
    for seed in range(12):
        fam = ("split", "group", "polyprod")[seed % 3]
        inst = gen.gen_instance(fam, seed, dims=(rng.randint(1, 3), rng.randint(1, 3)))
        a, b = inst.subspaces["A"], inst.subspaces["B"]
        assert not sumsets.diderrich_certificate(a, b).violations(), (fam, seed)
        spaces.append((a, b))
    for name in ("M2x2", "QS3", "QT3"):
        alg = algebra_fixture(name)
        for _ in range(4):
            b = sub.from_vecs(alg, [alg.unit, *rand_space(alg, 2, rng).basis])
            spaces.append((rand_space(alg, rng.randint(1, 3), rng), b))
    pivots = 0  # random invertible pivots in B
    for a, b in spaces:
        alg, rows = a.algebra, b.elements()
        for _ in range(3):
            e = sum((x.scale(rng.randint(-3, 3)) for x in rows), alg.zero())
            if not e.is_invertible:
                continue
            pivots += 1
            kind, inv = ref_invert(alg.table, alg.unit, e.coords)
            assert kind == "inverse"
            b_inv = sub.from_vecs(alg, [ref_mul(alg.table, y, inv) for y in b.basis])
            a_e, b_e = sumsets.e_transform(a, b, e)
            assert a_e == sub.lattice_intersect(a, b_inv)
            ae = sub.translate(e, a, side="right")
            assert b_e == sub.from_vecs(alg, [*b.basis, *ae.basis])
    assert pivots >= 40  # the e-transforms must actually have been exercised


def ref_violations(cert):
    """The reference's violated invariants for the certificate's dense rows."""
    alg = cert.source_a.algebra
    return ref_certificate_violations(alg.table, alg.unit, cert.a.coords, cert.subalgebra.basis,
                                      cert.space.basis, cert.source_a.basis, cert.source_b.basis)


def forged_certificates():
    """(certificate, violated invariants) pairs, each a valid certificate
    with its a, H or V replaced.  In Q^4, with e1 and e2 the first two
    idempotents, A = span(1, e1) generates K[A] = A and span(AB) is
    span(1, e1, e2) for B = span(1, e2); in Q[Z5], g generates K[A] = Q[Z5]
    from A = span(1, g), and span(AB) is the whole algebra for
    B = span(1, g, g^2, g^3), so every H with the unit has H*V = V = Q[Z5].
    An H without the unit is never a subalgebra, so those break two
    invariants at once."""
    q4 = algebra_fixture("Q4")
    one, e1, e2 = (1, 1, 1, 1), (1, 0, 0, 0), (0, 1, 0, 0)
    a, b = sub.from_vecs(q4, [one, e1]), sub.from_vecs(q4, [one, e2])
    valid = sumsets.DiderrichCertificate(q4.one(), a, sub.from_vecs(q4, [one, e1, e2]), 0, a, b)
    forge = dataclasses.replace
    yield valid, []
    yield forge(valid, subalgebra=sub.unit_span(q4)), []
    yield forge(valid, a=q4.element((2, 1, 1, 1))), []  # an invertible a other than 1
    yield forge(valid, subalgebra=b), ["subalgebra inside generated algebra of A"]
    yield forge(valid, space=sub.full_space(q4)), ["space inside span of AB"]
    yield forge(valid, space=a), ["span of aB inside space"]
    yield forge(valid, a=q4.element((2, 1, 1, 1)), space=a), ["span of aB inside space"]
    yield forge(valid, space=b), ["module property H*V = V"]
    yield forge(valid, a=q4.element((1, 2, 1, 1))), ["a inside A"]  # invertible, in V
    yield forge(valid, a=q4.element(e1)), ["a invertible"]  # e1 B = span(e1) <= V
    yield forge(valid, a=q4.element(e2)), ["a inside A", "a invertible"]
    yield forge(valid, a=q4.element(e1), space=sub.from_vecs(q4, [e1, e2])), [
        "a invertible", "invertible in space"]
    yield forge(valid, subalgebra=sub.unit_span(q4), space=b), ["dimension inequality"]
    yield forge(valid, subalgebra=sub.from_vecs(q4, [e1]), space=b), [
        "subalgebra closure", "unit in subalgebra", "module property H*V = V",
        "dimension inequality"]

    qz5 = algebra_fixture("QZ5")
    g = [qz5.basis_element(i).coords for i in range(5)]
    a, b = sub.from_vecs(qz5, g[:2]), sub.from_vecs(qz5, g[:4])
    full = sub.full_space(qz5)
    # K[A] holds H = Q[Z5] only at the third span of A's closure chain
    valid = sumsets.DiderrichCertificate(qz5.one(), full, full, 0, a, b)
    yield valid, []
    yield forge(valid, subalgebra=a), ["subalgebra closure"]
    # g*V = V although g is not the unit; (1 - g)*V is the augmentation ideal
    yield forge(valid, subalgebra=sub.from_vecs(qz5, g[1:2])), [
        "subalgebra closure", "unit in subalgebra"]
    yield forge(valid, subalgebra=sub.from_vecs(qz5, [[1, -1, 0, 0, 0]])), [
        "subalgebra closure", "unit in subalgebra", "module property H*V = V"]


def test_forged_certificates_report_exactly_what_they_break():
    seen = set()
    for cert, want in forged_certificates():
        assert cert.violations() == want == ref_violations(cert), (cert, want)
        seen.update(want)
    assert len(seen) == 10


def test_forged_certificates_of_two_algebras_are_refused():
    q4, other = split_etale_algebra(4), split_etale_algebra(4)
    a = sub.full_space(q4)
    valid = sumsets.DiderrichCertificate(q4.one(), a, a, 0, a, a)
    assert valid.violations() == []
    for forged in (dataclasses.replace(valid, subalgebra=sub.unit_span(other)),
                   dataclasses.replace(valid, subalgebra=sub.full_space(other)),
                   dataclasses.replace(valid, a=other.one())):
        with pytest.raises(AlgebraMismatch):
            forged.violations()


def always_normalised_certificate(a, b):
    """diderrich_certificate with both sides normalised by their witnesses and
    V translated back, whether or not a witness is the unit."""
    xa, xb = sub.contains_invertible(a).witness, sub.contains_invertible(b).witness
    h, v, depth = sumsets._recurse(sub.preimage(xa, a, side="left"),
                                   sub.preimage(xb, b, side="right"))
    v = sub.translate(xa, sub.translate(xb, v, side="right"), side="left")
    return sumsets.DiderrichCertificate(xa, h, v, depth, a, b)


def certificate_pairs():
    """The (A, B) pairs of the certificate acceptance stream and of
    test_certificate_random_sweep."""
    for inst in _instance_stream(500, 10_000):
        yield inst.subspaces["A"], inst.subspaces["B"]
    rng = random.Random(3)
    for seed in range(40):
        fam = ("split", "group", "polyprod")[seed % 3]
        inst = gen.gen_instance(fam, seed, dims=(rng.randint(1, 3), rng.randint(1, 3)))
        yield inst.subspaces["A"], inst.subspaces["B"]


def test_certificates_equal_the_always_normalised_ones():
    # a side holding the unit has the unit for witness, and is neither
    # normalised nor translated back
    witnesses = Counter()
    for a, b in certificate_pairs():
        cert = sumsets.diderrich_certificate(a, b)
        assert cert == always_normalised_certificate(a, b)
        assert cert.violations() == ref_violations(cert) == []
        one = a.algebra.one()
        witnesses[cert.a == one, sub.contains_invertible(b).witness == one] += 1
    assert len(witnesses) == 4, witnesses


def test_the_closure_check_is_membership_in_the_generated_subalgebra():
    rng = random.Random(5)
    outcomes = Counter()
    for name in ("Q4", "QZ5", "QT3", "QS3", "M2x2", "QZ6"):
        alg = algebra_fixture(name)
        for _ in range(15):
            a = rand_space(alg, rng.randint(1, 2), rng)
            first = sub.from_vecs(alg, [alg.unit, *a.basis])
            k = sub.subalgebra_generated(a.elements())
            inside = [sum((x.scale(rng.randint(-2, 2)) for x in k.elements()), alg.one())
                      for _ in range(rng.randint(1, 2))]
            for h in (sub.unit_span(alg), rand_space(alg, rng.randint(1, 3), rng),
                      sub.span_of(inside), k):
                got = sumsets._in_generated(h, a)
                assert got == k.contains_space(h), (name, a.basis, h.basis)
                outcomes[got, got and first.contains_space(h)] += 1
    # inside K[A] at the first span and only at a later one, and outside it
    assert len(outcomes) == 3, outcomes


def test_nfold_dims_ih_are_the_product_spans_with_h():
    stabilizers = Counter()
    for i in range(60):
        inst = gen.gen_instance(("split", "group")[i % 2], 20_000 + i, dims=(2, 2, 1))
        spaces = [inst.subspaces[k] for k in ("A", "B", "C")]
        rep = sumsets.kneser_nfold_check(spaces)
        alg = inst.algebra
        h = sub.stabilizer(sub.product_span(sub.product_span(spaces[0], spaces[1]), spaces[2]))
        assert rep.dims_ih == tuple(sub.product_span(h, s).dim for s in spaces)
        kind = "unit" if h == sub.unit_span(alg) else "full" if h.dim == alg.dim else "other"
        stabilizers[inst.family, kind] += 1
    assert stabilizers["group", "unit"] and stabilizers["split", "full"], stabilizers


@st.composite
def unit_pairs(draw):
    """(A, B) in a small algebra, each spanned by the unit and random integer rows."""
    alg = algebra_fixture(draw(st.sampled_from(["Q4", "QZ4", "QZ5", "QT3", "QV4", "M2x2"])))
    row = st.lists(st.integers(-2, 2), min_size=alg.dim, max_size=alg.dim)
    a, b = (sub.from_vecs(alg, [alg.unit] + draw(st.lists(row, max_size=3)))
            for _ in range(2))
    return a, b


@settings(max_examples=100, deadline=None)
@given(unit_pairs())
def test_some_invertible_basis_pivot_shrinks_a(case):
    # the lemma behind the recursion: Ae <= B for every e of a basis of B
    # gives span(AB) <= B, so otherwise some basis pivot shrinks A
    a, b = case
    if b.contains_space(sub.product_span(a, b)):
        assert all(sumsets.e_transform(a, b, e)[0] == a for e in sub.invertible_basis(b))
    else:
        assert any(sumsets.e_transform(a, b, e)[0].dim < a.dim
                   for e in sub.invertible_basis(b))


def test_olson_weak_certificate():
    alg = algebra_fixture("QZ5")
    a = sub.from_vecs(alg, [alg.basis_element(0).coords, alg.basis_element(1).coords])
    b = sub.from_vecs(alg, [alg.basis_element(i).coords for i in range(3)])
    rep = sumsets.olson_weak_certificate(a, b)
    assert rep.chain_ok
    assert rep.dim_product == 4
    assert not rep.certificate.violations()

    q3 = algebra_fixture("Q3")
    v = idempotent_line(q3)
    rep = sumsets.olson_weak_certificate(v, v)
    assert rep.chain_ok


# -- kneser ------------------------------------------------------------


def test_kneser_examples():
    q3 = algebra_fixture("Q3")
    v = idempotent_line(q3)
    rep = sumsets.kneser_check(v, v)
    assert rep.bound_holds and rep.dim_product == 2 and rep.dim_stab == 2

    alg = algebra_fixture("QZ5")
    a = sub.from_vecs(alg, [alg.basis_element(0).coords, alg.basis_element(1).coords])
    b = sub.from_vecs(alg, [alg.basis_element(i).coords for i in range(3)])
    rep = sumsets.kneser_check(a, b)
    assert rep.dim_product == 4 and rep.dim_stab == 1
    assert rep.bound_holds and rep.strong_bound_holds

    unit = sub.unit_span(alg)
    rep = sumsets.kneser_check(unit, unit)
    assert rep.bound_holds


def test_kneser_noncommutative_checks_the_plain_bound_only():
    for name in ("M2x2", "QS3"):
        alg = algebra_fixture(name)
        rng = random.Random(1)
        a = sub.from_vecs(alg, [alg.unit, *rand_space(alg, 1, rng).basis])
        b = rand_space(alg, 2, rng)
        rep = sumsets.kneser_check(a, b)
        assert rep.dim_ha is rep.dim_hb is rep.strong_bound_holds is None
        assert sorted(rep.to_json()) == ["bound_holds", "dim_A", "dim_AB", "dim_B", "dim_H"]
        assert rep.bound_holds


def test_kneser_random_finite_verdict_instances():
    checked = 0
    for seed in range(60):
        fam = ("split", "group", "polyprod")[seed % 3]
        inst = gen.gen_instance(fam, seed + 1000, dims=(2, 2))
        a, b = inst.subspaces["A"], inst.subspaces["B"]
        gen_a = sub.subalgebra_generated(a.elements())
        verdict = classify.finite_subalgebras_verdict(inst.algebra)
        if verdict.kind != "Finite":
            continue
        rep = sumsets.kneser_check(a, b)
        assert rep.bound_holds, (fam, seed)
        if inst.algebra.commutative:
            assert rep.strong_bound_holds, (fam, seed)
        checked += 1
    assert checked >= 40


def test_kneser_nfold():
    alg = algebra_fixture("QZ7")
    s = sub.from_vecs(alg, [alg.basis_element(0).coords, alg.basis_element(1).coords])
    rep = sumsets.kneser_nfold_check([s, s, s])
    assert rep.dim_product == 4 and rep.dim_stab == 1
    assert rep.bound_holds and rep.strong_bound_holds

    full = sub.full_space(alg)
    rep = sumsets.kneser_nfold_check([full, full, full])
    assert rep.bound_holds and rep.dim_stab == alg.dim

    # n=2 agrees with the pairwise check on every field; H is the left
    # stabilizer, and the strengthened bound, through HA and HB, is checked
    # in the commutative algebras only
    pairs = [(s, sub.from_vecs(alg, [alg.basis_element(0).coords, alg.basis_element(2).coords]))]
    rng = random.Random(2)
    for name in ("QZ7", "Q3", "QS3", "M2x2"):
        other = algebra_fixture(name)
        pairs += [(sub.from_vecs(other, [other.unit, *rand_space(other, 1, rng).basis]),
                   rand_space(other, 2, rng)) for _ in range(3)]
    for a, b in pairs:
        pair = sumsets.kneser_check(a, b)
        h = sub.stabilizer(sub.product_span(a, b), "left")
        ih = None if pair.dim_ha is None else (pair.dim_ha, pair.dim_hb)
        assert pair.dim_stab == h.dim
        assert ih == ((sub.product_span(h, a).dim, sub.product_span(h, b).dim)
                      if a.algebra.commutative else None)
        assert (ih is None) == (pair.strong_bound_holds is None)
        assert sumsets.kneser_nfold_check([a, b]) == sumsets.NfoldReport(
            (a.dim, b.dim), pair.dim_product, pair.dim_stab, pair.bound_holds, ih,
            pair.strong_bound_holds)


def test_nfold_reports_the_bounds_where_they_fail():
    # outside the paper's hypotheses both bounds can fail: for the first row
    # of M_2(Q) times M_2(Q), and in the commutative Q[graded-m], which has
    # infinitely many subalgebras, for A = B the span of b1, b2, b4 and b5
    m2 = algebra_fixture("M2x2")
    row, full = sub.coordinate_span(m2, [0, 1]), sub.full_space(m2)
    assert sumsets.kneser_nfold_check([row, full]) == sumsets.NfoldReport((2, 4), 2, 3, False)
    graded = algebra_fixture("Q[graded-m]")
    a = sub.coordinate_span(graded, [1, 2, 4, 5])
    assert sumsets.kneser_nfold_check([a, a]) == sumsets.NfoldReport(
        (4, 4), 2, 5, False, (4, 4), False)


# -- connectivity ------------------------------------------------------


def test_connectivity_value_examples():
    q3 = algebra_fixture("Q3")
    unit = sub.unit_span(q3)
    w = idempotent_line(q3)
    lam = F(1, 2)
    assert sumsets.connectivity_value(w, unit, lam) == (1 - lam) * w.dim
    assert sumsets.connectivity_value(unit, sub.full_space(q3), lam) == 3 - lam
    with pytest.raises(LambdaOutOfRange):
        sumsets.connectivity_value(w, unit, F(0))
    with pytest.raises(LambdaOutOfRange):
        sumsets.connectivity_value(w, unit, F(3, 2))


def test_connectivity_translation_invariant():
    rng = random.Random(4)
    alg = algebra_fixture("Q4")
    for _ in range(30):
        v = rand_space(alg, rng.randint(1, 3), rng)
        w = rand_space(alg, rng.randint(1, 3), rng)
        x = alg.element([F(rng.randint(1, 5)) for _ in range(4)])  # invertible
        assert x.is_invertible
        lam = F(rng.randint(1, 4), 4)
        xw = sub.translate(x, w, "left")
        assert sumsets.connectivity_value(w, v, lam) == \
            sumsets.connectivity_value(xw, v, lam)


def test_connectivity_submodular():
    rng = random.Random(5)
    alg = algebra_fixture("Q4")
    for _ in range(40):
        v = rand_space(alg, rng.randint(1, 3), rng)
        w1 = rand_space(alg, rng.randint(1, 3), rng)
        w2 = rand_space(alg, rng.randint(1, 3), rng)
        lam = F(rng.randint(1, 4), 4)
        c = lambda w: sumsets.connectivity_value(w, v, lam)
        s = sub.from_vecs(alg, [*w1.basis, *w2.basis])
        i = sub.lattice_intersect(w1, w2)
        if i.dim == 0:
            continue  # c is defined on nonzero fragments
        assert c(s) + c(i) <= c(w1) + c(w2)


def test_atom_exact_split_examples():
    q3 = algebra_fixture("Q3")
    unit = sub.unit_span(q3)
    rep = sumsets.atom_exact_split(unit, F(1))
    assert rep.kappa == 0 and rep.atom.dim == 1 and not rep.tie_anomaly

    v = idempotent_line(q3)
    rep = sumsets.atom_exact_split(v, F(1))
    assert rep.kappa == 0 and rep.atom == v

    full = sub.full_space(q3)
    rep = sumsets.atom_exact_split(full, F(1))
    assert rep.kappa == 0
    # every evaluated subalgebra has c >= kappa; atom has minimal dim among ties
    for part, c in rep.evaluated:
        assert c >= rep.kappa


def test_atom_invariants_and_stabilizer_containment():
    rng = random.Random(6)
    for n in (3, 4, 5):
        alg = algebra_fixture(f"Q{n}")
        for _ in range(10):
            v = rand_space(alg, rng.randint(1, n), rng)
            if sub.contains_invertible(v).kind != "YES":
                continue
            lam = F(rng.randint(1, 4), 4)
            rep = sumsets.atom_exact_split(v, lam)
            assert sub.is_subalgebra(rep.atom)
            assert rep.atom.contains_unit()
            assert rep.atom.contains_space(sub.stabilizer(v, "left"))
            assert sumsets.connectivity_value(rep.atom, v, lam) == rep.kappa
            assert not rep.tie_anomaly


SPLIT = {n: algebra_fixture(f"Q{n}") for n in range(1, 7)}
RATS = st.builds(F, st.integers(-6, 6), st.integers(1, 7))
SPARSE_RATS = st.one_of(st.just(F(0)), RATS, RATS)


@st.composite
def split_cases(draw):
    """(V, lambda) in Q^1..Q^6: sparse rows with mixed denominators, and
    now and then a zero column, which leaves V without an invertible."""
    n = draw(st.integers(1, 6))
    zero_col = draw(st.one_of(st.none(), st.none(), st.none(), st.integers(0, n - 1)))
    rows = draw(st.lists(st.lists(SPARSE_RATS, min_size=n, max_size=n),
                         min_size=1, max_size=n + 1))
    rows = [[F(0) if j == zero_col else a for j, a in enumerate(r)] for r in rows]
    q = draw(st.integers(1, 8))
    lam = F(draw(st.integers(1, q)), q)
    return sub.from_vecs(SPLIT[n], rows), lam


@settings(max_examples=300, deadline=None)
@given(split_cases())
def test_atom_values_match_product_spans(case):
    """Every c from the per-block ranks equals the generic product-span route,
    and the atom follows the tie rule."""
    v, lam = case
    alg = v.algebra
    has_unit_point = v.dim > 0 and all(any(row[j] for row in v.rows)
                                       for j in range(alg.dim))
    if not has_unit_point:
        with pytest.raises((NoInvertibleFound, ZeroSubspace)):
            sumsets.atom_exact_split(v, lam)
        return
    rep = sumsets.atom_exact_split(v, lam)
    spaces = classify.enumerate_subalgebras_split(alg)
    assert [part for part, _ in rep.evaluated] == [part for part, _ in spaces]
    for (_, c), (_, space) in zip(rep.evaluated, spaces):
        assert type(c) is F and c == sumsets.connectivity_value(space, v, lam)
    assert rep.kappa == min(c for _, c in rep.evaluated)
    # the tie rule: the first partition minimising (c, blocks), and a flag
    # for that pair occurring twice
    pairs = [(c, len(p)) for p, c in rep.evaluated]
    first = next(p for p, c in rep.evaluated if all((c, len(p)) <= q for q in pairs))
    assert rep.atom_partition == first
    assert rep.tie_anomaly == (pairs.count((rep.kappa, len(first))) > 1)
    assert rep.atom == dict(spaces)[rep.atom_partition]
    assert sumsets.connectivity_value(rep.atom, v, lam) == rep.kappa


class Searched(Exception):
    pass


def test_atom_guard_in_split_algebras_reads_columns(monkeypatch):
    """In Q^n the invertibility guard reads V's columns and runs no search;
    elsewhere the search still runs, before the split and cap refusals."""
    def search(*_):
        raise Searched
    monkeypatch.setattr(sub, "contains_invertible", search)
    rng = random.Random(29)
    for n, alg in SPLIT.items():
        unit_point = [F(rng.choice((-3, -2, -1, 1, 2, 3))) for _ in range(n)]
        rows = [unit_point] + [[F(rng.randint(-3, 3)) for _ in range(n)]
                               for _ in range(rng.randint(0, n))]
        v = sub.from_vecs(alg, rows)
        lam = F(rng.randint(1, 4), 4)
        rep = sumsets.atom_exact_split(v, lam)
        assert rep.atom.contains_unit()
        assert sumsets.connectivity_value(rep.atom, v, lam) == rep.kappa
        if n > 1:
            zero_col = sub.from_vecs(alg, [[F(0) if j == n - 1 else a
                                            for j, a in enumerate(r)] for r in rows])
            with pytest.raises(NoInvertibleFound, match="V must contain an invertible"):
                sumsets.atom_exact_split(zero_col, lam)
        with pytest.raises(ZeroSubspace, match="cannot search the zero subspace"):
            sumsets.atom_exact_split(sub.zero_space(alg), lam)
    # the guard comes before CapExceeded and, searching, before NotSplitEtale
    with pytest.raises(NoInvertibleFound):
        sumsets.atom_exact_split(sub.coordinate_span(SPLIT[5], [0, 1]), F(1, 2), cap=4)
    with pytest.raises(Searched):
        sumsets.atom_exact_split(sub.full_space(algebra_fixture("QT2")), F(1))


def _restricted_growth(part):
    """The block index of each point; lex order on these is set_partitions order."""
    where = {i: k for k, block in enumerate(part) for i in block}
    return tuple(where[i] for i in range(len(where)))


@pytest.mark.parametrize("dim", [1, 3, 6])
def test_atom_in_q7_matches_reference_block_ranks(dim):
    """Q^7 (877 partitions), where most blocks saturate at rank dim V: every
    c, kappa and the atom partition from the reference rank of V cut to
    each block."""
    n = 7
    alg = split_etale_algebra(n)
    rng = random.Random(700 + dim)
    while True:
        rows = [[F(rng.choice((-2, -1, 1, 2))) for _ in range(n)]]
        rows += [[F(rng.choice((0, 0, -1, 1, 3))) for _ in range(n)] for _ in range(dim - 1)]
        if ref.rank(rows) == dim:
            break
    v = sub.from_vecs(alg, rows)
    block_rank = {}
    for lam in (F(1, 3), F(5, 7), F(1)):
        want = {}
        for part in ref.partitions(range(n)):
            for b in part:
                if b not in block_rank:
                    block_rank[b] = ref.rank([[r[i] for i in b] for r in rows])
            want[part] = sum(block_rank[b] for b in part) - lam * len(part)
        order = sorted(want, key=_restricted_growth)
        rep = sumsets.atom_exact_split(v, lam)
        assert len(rep.evaluated) == 877
        assert [p for p, _ in rep.evaluated] == order
        assert dict(rep.evaluated) == want
        assert rep.kappa == min(want.values())
        atom = min(order, key=lambda p: (want[p], len(p)))
        assert rep.atom_partition == atom
        pairs = [(c, len(p)) for p, c in want.items()]
        assert rep.tie_anomaly == (pairs.count((rep.kappa, len(atom))) > 1)


@settings(max_examples=300, deadline=None)
@given(split_cases())
def test_atom_at_lambda_one_is_the_enumerated_atom(case):
    """In Q^1..Q^6 the subalgebra generated by V u^-1 is the atom that the
    partition enumeration finds, and V without an invertible is refused alike."""
    v, _ = case
    try:
        want = sumsets.atom_exact_split(v, F(1)).atom
    except (NoInvertibleFound, ZeroSubspace) as e:
        with pytest.raises(type(e)) as got:
            sumsets.atom(v, F(1))
        assert str(got.value) == str(e)
        return
    assert sumsets.atom(v, F(1)) == want


def test_atom_at_lambda_one_needs_no_split_algebra_and_no_cap():
    qt2 = algebra_fixture("QT2")
    full = sub.full_space(qt2)
    assert sumsets.atom(full, F(1)) == full
    with pytest.raises(NotSplitEtale):
        sumsets.atom(full, F(1, 2))
    q5 = algebra_fixture("Q5")
    v = sub.from_vecs(q5, [(F(1), F(1), F(0), F(0), F(0)), (F(0), F(0), F(1), F(1), F(1))])
    assert sumsets.atom(v, F(1), cap=4) == v
    with pytest.raises(CapExceeded):
        sumsets.atom(v, F(1, 2), cap=4)
    assert sumsets.atom(v, F(1, 2)) == sumsets.atom_exact_split(v, F(1, 2)).atom
    with pytest.raises(NoInvertibleFound, match="V must contain an invertible element"):
        sumsets.atom(sub.coordinate_span(q5, [0, 1]), F(1))


@pytest.mark.parametrize("name", ["QZ5", "QS3", "M2x2", "QT3", "QT2xQT2", "Q[paper-m7]"])
def test_atom_at_lambda_one_matches_the_oracle(name):
    """Outside split algebras the atom is the oracle's subalgebra generated
    by V u^-1, and V is refused exactly when the oracle finds no invertible."""
    alg = algebra_fixture(name)
    table, unit = fixture_reference(name)
    rng = random.Random(11)
    for _ in range(12):
        v = rand_space(alg, rng.randint(1, 3), rng)
        want = generated_subalgebra(table, unit, v.basis)
        if want is None:
            with pytest.raises(NoInvertibleFound):
                sumsets.atom(v, F(1))
            continue
        assert ref.same_span(sumsets.atom(v, F(1)).basis, want)


def test_tao_reads_its_atom_through_the_entry_point(monkeypatch):
    calls = []
    real = sumsets.atom
    monkeypatch.setattr(sumsets, "atom", lambda *a: calls.append(a) or real(*a))
    v = idempotent_line(algebra_fixture("Q3"))
    rep = sumsets.tao_check(v, v, F(1), cap=5)
    assert rep.hypotheses_met and calls == [(v, F(1, 2), 5)]


def _translate_of_partition_span(n, rng):
    """x*S for a partition subalgebra S of Q^n and x with no zero coordinate:
    span(VV) = x^2 S has dim V, so Tao's hypotheses hold at every epsilon."""
    part = rng.choice(list(classify.set_partitions(n)))
    x = [rng.choice((-3, -2, -1, 1, 2, 5)) for _ in range(n)]
    return sub.from_vecs(SPLIT[n], [[F(x[i]) if i in b else F(0) for i in range(n)]
                                    for b in part])


def test_block_rank_table_matches_the_reference():
    """_column_ranks has one entry per mask < 2^n: the rank of V's columns
    in the mask, 0 for the empty mask.  Spaces of every dim 1..n reach rank
    dim V on masks below the full one."""
    rng = random.Random(31)
    for n, alg in SPLIT.items():
        for v in [rand_space(alg, d, rng) for d in range(1, n + 1)]:
            ranks = v._column_ranks
            assert len(ranks) == 2 ** n
            for mask, rank in enumerate(ranks):
                block = [i for i in range(n) if mask >> i & 1]
                assert rank == ref.rank([[r[i] for i in block] for r in v.basis]), (n, mask)


def test_each_subspace_builds_one_block_rank_table(monkeypatch):
    """The block ranks do not depend on lambda: after one exact atom of V,
    tao_check and atom at other lambdas on the same V eliminate nothing."""
    calls = []
    real = linalg.echelon_add
    monkeypatch.setattr(linalg, "echelon_add", lambda *a: calls.append(1) or real(*a))
    rng = random.Random(30)
    for n in (3, 4, 5, 6):
        v = _translate_of_partition_span(n, rng)
        rep = sumsets.atom_exact_split(v, F(1, 2))
        assert calls  # the table is built once, here
        calls.clear()
        tao = sumsets.tao_check(v, v, F(1))
        assert tao.hypotheses_met and tao.conclusions_hold
        assert sumsets.atom(v, F(3, 4)) == sumsets.atom_exact_split(v, F(3, 4)).atom
        assert sumsets.atom_exact_split(v, F(1, 2)) == rep
        assert calls == []


def test_equal_subspaces_give_identical_reports():
    """A distinct Subspace equal to V, with no table built yet, gives V's report."""
    rng = random.Random(31)
    for n in (2, 4, 6):
        v = _translate_of_partition_span(n, rng)
        twin = sub.Subspace(v.algebra, v.rows, v.pivots)
        assert twin is not v and twin == v
        for lam in (F(1, 4), F(2, 3), F(1)):
            rep = sumsets.atom_exact_split(v, lam)
            other = sumsets.atom_exact_split(twin, lam)
            assert other.evaluated == rep.evaluated and other.kappa == rep.kappa
            assert other.atom_partition == rep.atom_partition and other.atom == rep.atom
            assert other.tie_anomaly == rep.tie_anomaly


def test_argmin_atom_is_the_reported_atom():
    """atom() at lambda != 1 builds no report, yet names the report's atom,
    and refuses V exactly as atom_exact_split does; each call gets a fresh V."""
    rng = random.Random(32)
    for n, alg in SPLIT.items():
        for _ in range(8):
            rows = [[F(rng.choice((0, 0, -2, -1, 1, 3))) for _ in range(n)]
                    for _ in range(rng.randint(1, n))]
            for lam in (F(1, 4), F(1, 2), F(3, 4)):
                try:
                    want = sumsets.atom_exact_split(sub.from_vecs(alg, rows), lam).atom
                except (NoInvertibleFound, ZeroSubspace) as e:
                    with pytest.raises(type(e), match=re.escape(str(e))):
                        sumsets.atom(sub.from_vecs(alg, rows), lam)
                    continue
                assert sumsets.atom(sub.from_vecs(alg, rows), lam) == want


def test_refusals_come_before_the_block_rank_table():
    """No table is built for V without an invertible, above the cap or
    outside split algebras; the guard still precedes CapExceeded and
    NotSplitEtale at lambda != 1."""
    q5 = SPLIT[5]
    singular = sub.coordinate_span(q5, [0, 1, 2, 3])
    wide = sub.from_vecs(q5, [[F(1), F(0), F(0), F(0), F(1)], [F(0), F(1), F(1), F(1), F(0)]])
    nonsplit = algebra_fixture("QT2")
    nilpotent = sub.coordinate_span(nonsplit, [1])
    for call in (sumsets.atom_exact_split, sumsets.atom):
        with pytest.raises(NoInvertibleFound):
            call(singular, F(1, 2), 4)
        with pytest.raises(CapExceeded):
            call(wide, F(1, 2), 4)
        with pytest.raises(NoInvertibleFound):
            call(nilpotent, F(1, 2))
        with pytest.raises(NotSplitEtale):
            call(sub.full_space(nonsplit), F(1, 2))
    for v in (singular, wide, nilpotent):
        assert "_column_ranks" not in v.__dict__


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(st.just(n), st.sampled_from(list(classify.set_partitions(n))),
                        st.randoms(use_true_random=False))))
def test_block_span_is_canonical(case):
    """block_span equals from_vecs of the block indicators, in any block order."""
    n, part, rnd = case
    alg = SPLIT[n]
    blocks = [rnd.sample(b, len(b)) for b in part]
    rnd.shuffle(blocks)
    got = sub.block_span(alg, blocks)
    want = sub.from_vecs(alg, [[F(int(i in b)) for i in range(n)] for b in part])
    assert got == want and hash(got) == hash(want)
    assert got.pivots == tuple(b[0] for b in part)


def test_block_span_rejects_bad_blocks():
    q3 = SPLIT[3]
    for blocks in ([[0, 1], [1, 2]], [[0], []], [[0, 3]], [[-1]]):
        with pytest.raises(ValueError):
            sub.block_span(q3, blocks)


def test_atom_requires_split_etale():
    alg = algebra_fixture("QT2")
    with pytest.raises(NotSplitEtale):
        sumsets.atom_exact_split(sub.full_space(alg), F(1))


def test_hamidoune_bound():
    rng = random.Random(7)
    alg = algebra_fixture("Q5")
    for _ in range(30):
        v = rand_space(alg, rng.randint(1, 5), rng)
        if sub.contains_invertible(v).kind != "YES":
            continue
        lam = F(rng.randint(1, 4), 4)
        rep_atom = sumsets.atom_exact_split(v, lam)
        while True:
            w = rand_space(alg, rng.randint(1, 5), rng)
            if sub.contains_invertible(w).kind == "YES":
                break
        rep = sumsets.hamidoune_check(w, v, lam, rep_atom.atom)
        assert rep.holds
        assert rep.slack >= 0

    # W = the atom itself gives slack dim<atom V> - dim V >= 0
    v = idempotent_line(algebra_fixture("Q3"))
    atom = sumsets.atom_exact_split(v, F(1)).atom
    rep = sumsets.hamidoune_check(atom, v, F(1), atom)
    assert rep.holds


def test_tao_examples():
    q3 = algebra_fixture("Q3")
    unit = sub.unit_span(q3)
    rep = sumsets.tao_check(unit, unit, F(1))
    assert rep.hypotheses_met and rep.conclusions_hold
    assert rep.dim_h == 1

    v = idempotent_line(q3)
    rep = sumsets.tao_check(v, v, F(1))
    assert rep.hypotheses_met and rep.conclusions_hold

    # hypotheses unmet: dim W < dim V
    rep = sumsets.tao_check(v, unit, F(1))
    assert not rep.hypotheses_met and rep.conclusions_hold is None

    with pytest.raises(EpsilonOutOfRange):
        sumsets.tao_check(v, v, F(2))
    with pytest.raises(EpsilonOutOfRange):
        sumsets.tao_check(v, v, F(0))


def test_tao_partition_subalgebras_small_doubling():
    q4 = algebra_fixture("Q4")
    from addalg.classify import enumerate_subalgebras_split

    for eps in (F(1, 2), F(1)):
        for _, space in enumerate_subalgebras_split(q4):
            rep = sumsets.tao_check(space, space, eps)
            # subalgebras have doubling exactly 1, hypotheses hold for eps <= 1
            assert rep.hypotheses_met
            assert rep.conclusions_hold
