import json
from fractions import Fraction as F

import pytest

from addalg import discrete
from addalg import subspace as sub
from addalg.discrete import MulTable
from addalg.errors import (
    EmptySubset,
    LambdaOutOfRange,
    NotAGroup,
    NotAssociative,
    NoUnitIntersection,
)
from addalg.fixtures import (
    cyclic,
    graded_m,
    klein_four,
    paper_m7,
    symmetric_3,
    table_fixture,
)

from oracles import ref_group_sweep, zmod_stabilizer, zmod_sumset


def test_table_validation():
    with pytest.raises(NotAssociative):
        # unit law broken at element 1
        MulTable.build([[0, 0], [1, 0]])
    with pytest.raises(NotAssociative):
        # unit-respecting magma with (xy)y = y but x(yy) = e
        MulTable.build([[0, 1, 2], [1, 2, 0], [2, 0, 2]])


def test_units():
    for n in (2, 5, 8):
        m = cyclic(n)
        assert discrete.units(m) == frozenset(range(n))
        assert m.is_group()
    m7 = paper_m7()
    assert discrete.units(m7) == frozenset({0})
    assert not m7.is_group()
    gm = graded_m()
    assert discrete.units(gm) == frozenset({0})
    assert not symmetric_3().algebra().commutative
    assert m7.algebra().commutative


def test_minkowski_examples():
    z5 = cyclic(5)
    a = frozenset({0, 1})
    b = frozenset({0, 1, 2})
    got = sorted(discrete.minkowski(z5, a, b))
    assert got == zmod_sumset(5, a, b) == [0, 1, 2, 3]

    m7 = paper_m7()
    aa = m7.subset(["1", "a", "b"])
    sq = discrete.minkowski(m7, aa, aa)
    assert sq == m7.subset(["1", "a", "b", "a2"])

    with pytest.raises(EmptySubset):
        discrete.minkowski(z5, frozenset(), a)


def test_minkowski_monotone_associative():
    z6 = cyclic(6)
    a, b, c = frozenset({1}), frozenset({0, 2}), frozenset({3, 4})
    ab_c = discrete.minkowski(z6, discrete.minkowski(z6, a, b), c)
    a_bc = discrete.minkowski(z6, a, discrete.minkowski(z6, b, c))
    assert ab_c == a_bc
    bigger = discrete.minkowski(z6, a | frozenset({5}), b)
    assert discrete.minkowski(z6, a, b) <= bigger


def test_combinatorial_stabilizer():
    z6 = cyclic(6)
    a = frozenset({0, 2, 4})
    got = discrete.combinatorial_stabilizer(z6, a)
    assert sorted(got) == zmod_stabilizer(6, a) == [0, 2, 4]

    m7 = paper_m7()
    assert discrete.combinatorial_stabilizer(m7, m7.subset(["1", "a", "b"])) == \
        frozenset({0})

    z5 = cyclic(5)
    assert discrete.combinatorial_stabilizer(z5, frozenset(range(5))) == \
        frozenset(range(5))
    # closure under product and unit membership
    for m in (z6, m7):
        for aset in ({0, 1}, {1, 2}, {0, 1, 2, 3}):
            h = discrete.combinatorial_stabilizer(m, frozenset(aset))
            assert m.unit_index in h
            for x in h:
                for y in h:
                    assert m.mul(x, y) in h


def test_lift_subset_dims():
    z5 = cyclic(5)
    alg = z5.algebra()
    for aset in ({0}, {0, 3}, {1, 2, 4}):
        assert discrete.lift_subset(alg, frozenset(aset)).dim == len(aset)


def test_stab_correspondence_group_exhaustive():
    z5 = cyclic(5)
    alg = z5.algebra()
    for mask in range(1, 32):
        a = frozenset(i for i in range(5) if mask >> i & 1)
        rep = discrete.stab_correspondence_check(z5, a, alg)
        assert rep.matches  # groups: dims equal sizes exactly


def test_stab_correspondence_monoid_gap():
    gm = graded_m()
    rep = discrete.stab_correspondence_check(gm, gm.subset(["1", "a", "b"]))
    assert rep.comb_stab_size == 1
    assert rep.algebra_stab_dim == 2
    assert not rep.matches
    # the algebra stabilizer really is spanned by 1 and a-b
    alg = gm.algebra()
    lifted = discrete.lift_subset(alg, gm.subset(["1", "a", "b"]))
    h = sub.stabilizer(lifted, "left")
    x = alg.element([0, 1, -1, 0, 0, 0])  # a - b
    assert h.contains(x) and h.contains_unit() and h.dim == 2
    assert (x * x).is_zero


def test_group_kneser_sweep_small():
    for name in ("Z4", "V4"):
        rep = discrete.group_kneser_sweep(table_fixture(name))
        assert rep.ok
        assert rep.pairs_checked == (2 ** 4 - 1) ** 2


def test_group_kneser_sweep_sampled_s3():
    rep = discrete.group_kneser_sweep(symmetric_3(), exhaustive=False,
                                      seed=1, count=100)
    assert rep.pairs_checked == 100
    assert rep.ok


@pytest.mark.parametrize("name", ["Z4", "V4", "Z6", "S3"])
def test_exhaustive_sweep_matches_memo_free_reference(name):
    m = table_fixture(name)
    got = discrete.group_kneser_sweep(m).to_json()
    assert json.dumps(got) == json.dumps(ref_group_sweep(m))


@pytest.mark.parametrize("name", ["Z8", "Z12", "paper-m7", "graded-m"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sampled_sweep_matches_memo_free_reference(name, seed):
    # on the monoids the violations of both kinds must match in content and order
    m = table_fixture(name)
    got = discrete.group_kneser_sweep(m, exhaustive=False, seed=seed).to_json()
    want = ref_group_sweep(m, exhaustive=False, seed=seed)
    assert json.dumps(got) == json.dumps(want)
    if not m.is_group():
        issues = {v["issue"] for v in want["violations"]}
        assert issues == {"combinatorial bound", "algebra route disagrees"}


@pytest.mark.parametrize("name", ["Z8", "Z12"])
@pytest.mark.parametrize("seed", [3, 4, 5])
def test_sampled_sweep_builds_only_the_drawn_subsets(name, seed, monkeypatch):
    # the pairs come from masks drawn like indices into the list of all
    # 2^n - 1 subsets, and only the drawn ones are built, each once
    m = table_fixture(name)
    built = []
    real_subset = discrete._subset
    monkeypatch.setattr(discrete, "_subset",
                        lambda n, mask: built.append(mask) or real_subset(n, mask))
    got = discrete.group_kneser_sweep(m, exhaustive=False, seed=seed, count=40).to_json()
    assert 0 < len(built) == len(set(built)) <= 80
    want = ref_group_sweep(m, exhaustive=False, seed=seed, count=40)
    assert json.dumps(got) == json.dumps(want)


def test_sweep_cross_checks_every_pair(monkeypatch):
    # a wrong span of the right dimension for one pair: A = {0, 1}, B = {0}
    # gives AB = {0, 1} with H = {0}, but the span of {0, 3} has stabilizer
    # {0, 3}.  Earlier pairs have the same AB, so only a stabilizer taken
    # from this pair's own span sees the fault.
    real_product_span = sub.product_span

    def product_span(v, w):
        lift = discrete.lift_subset
        if v == lift(v.algebra, frozenset({0, 1})) and w == lift(v.algebra, frozenset({0})):
            return lift(v.algebra, frozenset({0, 3}))
        return real_product_span(v, w)

    monkeypatch.setattr(sub, "product_span", product_span)
    rep = discrete.group_kneser_sweep(cyclic(6))
    assert rep.pairs_checked == 63 ** 2
    assert rep.violations == [{
        "A": [0, 1], "B": [0], "issue": "algebra route disagrees",
        "dim_span": 2, "|AB|": 2, "dim_stab": 2, "|H|": 1,
    }]


def test_sweep_computes_each_lift_and_stabilizer_once(monkeypatch):
    calls = {"lift_subset": 0, "product_span": 0, "stabilizer": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(discrete, "lift_subset")
    counted(sub, "product_span")
    counted(sub, "stabilizer")
    rep = discrete.group_kneser_sweep(cyclic(5))
    assert rep.ok and rep.pairs_checked == 961
    assert calls["product_span"] == 961  # every pair computes its own span
    assert calls["lift_subset"] <= 31
    assert calls["stabilizer"] <= 31


def test_group_sweep_requires_group():
    with pytest.raises(NotAGroup):
        discrete.group_kneser_sweep(paper_m7())


def test_monoid_hamidoune_group_case():
    z4 = cyclic(4)
    a = frozenset({0, 1})
    rep = discrete.monoid_hamidoune_check(z4, a, a, F(1))
    assert rep.ba_size == 3
    assert rep.hamidoune_ok and rep.atom_dominates_stab


def test_monoid_hamidoune_unit_only():
    m7 = paper_m7()
    u = m7.subset(["1"])
    rep = discrete.monoid_hamidoune_check(m7, u, u, F(1, 2))
    assert rep.ba_size == 1 and rep.hamidoune_ok


def test_monoid_hamidoune_counterexample():
    m7 = paper_m7()
    a = m7.subset(["1", "a", "b"])
    rep = discrete.monoid_hamidoune_check(m7, a, a, F(1))
    assert rep.ba_size == 4
    assert rep.kneser_rhs == 5 and not rep.kneser_ok  # the classical bound fails
    assert rep.hamidoune_ok  # the algebra bound holds
    assert rep.atom_dim == 2 and rep.atom_dominates_stab
    assert not rep.atom_exact  # candidate atom: upper bound on the atom term


def test_monoid_hamidoune_guards():
    m7 = paper_m7()
    a = m7.subset(["1", "a"])
    with pytest.raises(NoUnitIntersection):
        discrete.monoid_hamidoune_check(m7, m7.subset(["a"]), a, F(1))
    with pytest.raises(LambdaOutOfRange):
        discrete.monoid_hamidoune_check(m7, a, a, F(2))


def test_table_json_roundtrip():
    from addalg.serialize import table_from_json

    m7 = paper_m7()
    back = table_from_json(m7.to_json())
    assert back.table == m7.table and back.unit_index == m7.unit_index
