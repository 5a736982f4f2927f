import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addalg import classify, gen, sumsets
from addalg import subspace as sub
from addalg.errors import (
    EpsilonOutOfRange,
    LambdaOutOfRange,
    NoInvertibleFound,
    NoInvertibleInA,
    NotCommutative,
    NotInB,
    NotInvertible,
    NotSplitEtale,
    ZeroSubspace,
)
from addalg.fixtures import algebra_fixture


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
    b = sub.lattice_sum(sub.unit_span(alg), rand_space(alg, 2, rng))
    ae, be = sumsets.e_transform(a, b, alg.one())
    assert ae == sub.lattice_intersect(a, b)
    assert be == sub.lattice_sum(a, b)
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
    nilp = sub.from_vecs(alg, [alg.basis_vec(1)])
    with pytest.raises(NotInB):
        sumsets.e_transform(full, nilp, outside)


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
    a = sub.from_vecs(alg, [alg.basis_vec(0), alg.basis_vec(1)])
    b = sub.from_vecs(alg, [alg.basis_vec(i) for i in range(3)])
    cert = sumsets.diderrich_certificate(a, b)
    assert not cert.violations()
    assert cert.subalgebra.dim == 1
    assert cert.space.dim >= 4
    assert cert.recursion_depth < a.dim


def test_certificate_stabilized_pair_tries_no_pivot(monkeypatch):
    # span(AB) = B when B is the whole algebra, so no e-transform can shrink A
    calls = []
    real = sumsets.e_transform

    def counting(a, b, e):
        calls.append(e)
        return real(a, b, e)

    monkeypatch.setattr(sumsets, "e_transform", counting)
    alg = algebra_fixture("QZ5")
    a = sub.from_vecs(alg, [alg.basis_vec(0), alg.basis_vec(1), alg.basis_vec(3)])
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
    nilp = sub.from_vecs(qt2, [qt2.basis_vec(1)])
    full = sub.full_space(qt2)
    with pytest.raises(NoInvertibleInA):
        sumsets.diderrich_certificate(nilp, full)


def test_certificate_random_sweep():
    rng = random.Random(3)
    for seed in range(40):
        fam = ("split", "group", "polyprod")[seed % 3]
        inst = gen.gen_instance(fam, seed, dims=(rng.randint(1, 3), rng.randint(1, 3)))
        cert = sumsets.diderrich_certificate(inst.subspaces["A"], inst.subspaces["B"])
        assert not cert.violations(), (fam, seed)
        assert cert.recursion_depth < max(inst.subspaces["A"].dim, 1) + 1


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
    a = sub.from_vecs(alg, [alg.basis_vec(0), alg.basis_vec(1)])
    b = sub.from_vecs(alg, [alg.basis_vec(i) for i in range(3)])
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
    a = sub.from_vecs(alg, [alg.basis_vec(0), alg.basis_vec(1)])
    b = sub.from_vecs(alg, [alg.basis_vec(i) for i in range(3)])
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
        a = sub.lattice_sum(sub.unit_span(alg), rand_space(alg, 1, rng))
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
    s = sub.from_vecs(alg, [alg.basis_vec(0), alg.basis_vec(1)])
    rep = sumsets.kneser_nfold_check([s, s, s])
    assert rep.dim_product == 4 and rep.dim_stab == 1
    assert rep.bound_holds and rep.strong_bound_holds

    full = sub.full_space(alg)
    rep = sumsets.kneser_nfold_check([full, full, full])
    assert rep.bound_holds and rep.dim_stab == alg.dim

    # n=2 agrees with the pairwise check on every field; H is the left
    # stabilizer, and the strengthened bound, through HA and HB, is checked
    # in the commutative algebras only
    pairs = [(s, sub.from_vecs(alg, [alg.basis_vec(0), alg.basis_vec(2)]))]
    rng = random.Random(2)
    for name in ("QZ7", "Q3", "QS3", "M2x2"):
        other = algebra_fixture(name)
        pairs += [(sub.lattice_sum(sub.unit_span(other), rand_space(other, 1, rng)),
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
        s = sub.lattice_sum(w1, w2)
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
    """Every c from the per-block ranks equals the generic product-span route."""
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
    assert rep.atom == dict(spaces)[rep.atom_partition]
    assert sumsets.connectivity_value(rep.atom, v, lam) == rep.kappa


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
