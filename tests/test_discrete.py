import gc
import json
import weakref
from collections import Counter
from fractions import Fraction as F

import pytest

from addalg import discrete
from addalg import subspace as sub
from addalg.algebra import Algebra, from_structure_constants
from addalg.discrete import MulTable
from addalg.errors import (
    EmptySubset,
    LambdaOutOfRange,
    NotAGroup,
    NotAssociative,
    NoUnitIntersection,
    TableMismatch,
)
from addalg.fixtures import (
    algebra_fixture,
    cyclic,
    graded_m,
    klein_four,
    paper_m7,
    symmetric_3,
    table_fixture,
)

from oracles import ref


def memo_free_sweep(m, exhaustive=True, seed=0, count=200):
    """The report of discrete.group_kneser_sweep, with nothing reused.

    Per pair, AB and its left stabilizer H come by brute force from the
    table through the reference, and the algebra route lifts both subsets
    afresh and runs product_span and stabilizer on them.  The reference
    draws subsets in the library's order (bit i of the mask holds element
    i), so a sampled sweep sees the same pairs from the same seed.
    """
    n, t = m.size, m.table
    alg = m.algebra()
    if exhaustive:
        subsets = ref.nonempty_subsets(n)
        pairs = [(a, b) for a in subsets for b in subsets]
    else:
        pairs = ref.sampled_pairs(n, seed, count)

    def lift(s):
        return sub.from_vecs(alg, [[int(i == j) for j in range(n)] for i in sorted(s)])

    violations = []
    for a, b in pairs:
        ab = ref.set_product(t, a, b)
        h = ref.set_left_stabilizer(t, ab)
        if len(ab) < len(a) + len(b) - len(h):
            violations.append({
                "A": sorted(a), "B": sorted(b),
                "issue": "combinatorial bound",
                "|AB|": len(ab), "|A|": len(a), "|B|": len(b), "|H|": len(h),
            })
            continue
        pspan = sub.product_span(lift(a), lift(b))
        hdim = sub.stabilizer(pspan, "left").dim
        if pspan.dim != len(ab) or hdim != len(h):
            violations.append({
                "A": sorted(a), "B": sorted(b),
                "issue": "algebra route disagrees",
                "dim_span": pspan.dim, "|AB|": len(ab),
                "dim_stab": hdim, "|H|": len(h),
            })
    return {"pairs_checked": len(pairs), "violations": violations, "ok": not violations}


def test_table_validation():
    with pytest.raises(NotAssociative):
        # unit law broken at element 1
        MulTable.build([[0, 0], [1, 0]])
    with pytest.raises(NotAssociative):
        # unit-respecting magma with (xy)y = y but x(yy) = e
        MulTable.build([[0, 1, 2], [1, 2, 0], [2, 0, 2]])
    with pytest.raises(TableMismatch):
        # a repeated label would leave element 1 without a name
        MulTable.build([[0, 1], [1, 0]], labels=["e", "e"])


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
    assert got == sorted(ref.set_product(ref.cyclic_table(5), a, b)) == [0, 1, 2, 3]

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
    assert sorted(got) == sorted(ref.set_left_stabilizer(ref.cyclic_table(6), a)) == [0, 2, 4]

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
                    assert m.table[x][y] in h


def test_combinatorial_stabilizer_right_side_s3():
    s3 = symmetric_3()
    sides_differ = False
    for mask in range(1, 1 << s3.size):
        a = frozenset(i for i in range(s3.size) if mask >> i & 1)
        # a finite group: Ah = A exactly when every x h lies in A
        want = frozenset(h for h in range(s3.size) if all(s3.table[x][h] in a for x in a))
        got = discrete.combinatorial_stabilizer(s3, a, side="right")
        assert got == want
        sides_differ |= got != discrete.combinatorial_stabilizer(s3, a)
    assert sides_differ


def test_lift_subset_dims():
    z5 = cyclic(5)
    alg = z5.algebra()
    for aset in ({0}, {0, 3}, {1, 2, 4}):
        assert discrete.lift_subset(alg, frozenset(aset)).dim == len(aset)


@pytest.mark.parametrize("name", ["Q3", "QT3", "M2x2"])
def test_lift_subset_refuses_an_algebra_with_a_zero_cell(name):
    # b_0 b_1 = 0 in Q^3, E_00 E_10 = 0 in M_2 and T T^2 = 0 in Q[T]/T^3:
    # a cell with no pair, which no monoid table has
    with pytest.raises(TableMismatch):
        discrete.lift_subset(algebra_fixture(name), frozenset({0}))


def test_lift_subset_reads_the_cells_not_the_construction():
    # the same constants, rebuilt through the dense entry point, lift alike
    alg = algebra_fixture("QZ5")
    dense = from_structure_constants(alg.table, alg.unit)
    for a in ({0}, {1, 3}, {0, 2, 4}):
        lifted = discrete.lift_subset(dense, frozenset(a))
        assert lifted.rows == discrete.lift_subset(alg, frozenset(a)).rows
        assert lifted.dim == len(a)


def test_tables_algebras_elements_and_subspaces_are_freed_by_reference_counting():
    # the table owns its algebra, and elements and subspaces point to the
    # algebra, but nothing points back: with the cyclic collector off, del
    # frees them all
    gc.disable()
    try:
        m = cyclic(5)
        alg = m.algebra()
        x = alg.one() + alg.basis_element(2)
        # fill the cached views too: none of them may point back up
        assert x * x.invert() == alg.one() and x.coords[2] == 1 and alg.unit[0] == 1
        v = discrete.lift_subset(alg, frozenset({0, 2}))
        assert v.contains_unit() and sub.stabilizer(v, "left").dim == 1
        refs = [weakref.ref(obj) for obj in (m, alg, x, v)]
        del m, alg, x, v
        assert [r() for r in refs] == [None] * 4
    finally:
        gc.enable()


def test_stab_correspondence_group_exhaustive():
    z5 = cyclic(5)
    for mask in range(1, 32):
        a = frozenset(i for i in range(5) if mask >> i & 1)
        rep = discrete.stab_correspondence_check(z5, a)
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
    assert json.dumps(got) == json.dumps(memo_free_sweep(m))


@pytest.mark.parametrize("name", ["Z8", "Z12", "paper-m7", "graded-m"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sampled_sweep_matches_memo_free_reference(name, seed):
    # on the monoids the violations of both kinds must match in content and order
    m = table_fixture(name)
    got = discrete.group_kneser_sweep(m, exhaustive=False, seed=seed).to_json()
    want = memo_free_sweep(m, exhaustive=False, seed=seed)
    assert json.dumps(got) == json.dumps(want)
    if not m.is_group():
        issues = {v["issue"] for v in want["violations"]}
        assert issues == {"combinatorial bound", "algebra route disagrees"}


@pytest.mark.parametrize("name", ["Z8", "Z12"])
@pytest.mark.parametrize("seed", [3, 4, 5])
def test_sampled_sweep_builds_only_the_drawn_subsets(name, seed, monkeypatch):
    # the pairs come from masks drawn like indices into the list of all
    # 2^n - 1 subsets, and image masks are computed only for the drawn B
    # masks, each once per bit table (the group table and the cells)
    m = table_fixture(name)
    processed = []
    real_images = discrete._images
    monkeypatch.setattr(discrete, "_images", lambda rows, members: processed.append(
        sum(1 << y for y in members)) or real_images(rows, members))
    got = discrete.group_kneser_sweep(m, exhaustive=False, seed=seed, count=40).to_json()
    drawn = {sum(1 << y for y in b) for _, b in ref.sampled_pairs(m.size, seed, 40)}
    assert Counter(processed) == {mask: 2 for mask in drawn}
    assert 0 < len(drawn) <= 80
    want = memo_free_sweep(m, exhaustive=False, seed=seed, count=40)
    assert json.dumps(got) == json.dumps(want)


def test_sweep_cross_checks_every_pair(monkeypatch):
    # a wrong span of the right dimension for one pair: A = {0, 1}, B = {0}
    # gives AB = {0, 1} with H = {0}, but the span of {0, 3} has stabilizer
    # {0, 3}.  Earlier pairs have the same AB, so only a stabilizer taken
    # from this pair's own span sees the fault.
    real_cell_span = discrete._cell_span
    b0 = [1 << x for x in range(6)]  # the cell images of B = {0}: b_x b_0 = b_x

    def cell_span(cell_images, members):
        if members == [0, 1] and list(cell_images) == b0:
            return 1 << 0 | 1 << 3
        return real_cell_span(cell_images, members)

    monkeypatch.setattr(discrete, "_cell_span", cell_span)
    rep = discrete.group_kneser_sweep(cyclic(6))
    assert rep.pairs_checked == 63 ** 2
    assert rep.violations == [{
        "A": [0, 1], "B": [0], "issue": "algebra route disagrees",
        "dim_span": 2, "|AB|": 2, "dim_stab": 2, "|H|": 1,
    }]


def test_sweep_computes_each_lift_and_stabilizer_once(monkeypatch):
    # every pair reads its own span mask off the cells; each distinct span
    # has its stabilizer computed once, and the set and subspace helpers of
    # the pair-by-pair route are not called at all
    calls = {"_cell_span": 0, "stabilizer": 0, "minkowski": 0,
             "combinatorial_stabilizer": 0, "lift_subset": 0, "product_span": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for name in ("_cell_span", "minkowski", "combinatorial_stabilizer", "lift_subset"):
        counted(discrete, name)
    counted(sub, "product_span")
    counted(sub, "stabilizer")
    rep = discrete.group_kneser_sweep(cyclic(5))
    assert rep.ok and rep.pairs_checked == 961
    assert calls.pop("stabilizer") <= 31
    assert calls == {"_cell_span": 961, "minkowski": 0, "combinatorial_stabilizer": 0,
                     "lift_subset": 0, "product_span": 0}


def test_table_algebra_is_built_once(monkeypatch):
    # a table builds its monoid algebra on the first call and returns that
    # same object after, so repeated sweeps on one table build it once
    m = cyclic(5)
    assert m.algebra() is m.algebra()
    builds = []
    real_init = Algebra.__init__

    def counted_init(self, *args, **kwargs):
        builds.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Algebra, "__init__", counted_init)
    m = cyclic(5)
    first = discrete.group_kneser_sweep(m).to_json()
    assert discrete.group_kneser_sweep(m).to_json() == first
    assert len(builds) == 1 and builds[0] is m.algebra()
    # the memo is not a field: equality, hashing and repr see the table only
    assert m == cyclic(5) and hash(m) == hash(cyclic(5)) and repr(m) == repr(cyclic(5))


def test_sweep_algebra_route_reads_the_cells(monkeypatch):
    # an algebra whose cell b_1 b_0 is mis-copied as b_3 leaves the table
    # route alone, so only an algebra route read off alg.sparse disagrees;
    # the memo-free replay sees the same faulty algebra and the same report
    real_algebra = MulTable.algebra

    def algebra(self):
        alg = real_algebra(self)
        cells = [[[(k, F(c, alg.den)) for k, c in cell] for cell in row] for row in alg.sparse]
        cells[1][0] = [(3, F(1))]
        return Algebra(cells, alg.unit, label=alg.label, validate=False)

    monkeypatch.setattr(MulTable, "algebra", algebra)
    m = cyclic(6)
    got = discrete.group_kneser_sweep(m)
    assert {v["issue"] for v in got.violations} == {"algebra route disagrees"}
    assert {"A": [0, 1], "B": [0], "issue": "algebra route disagrees",
            "dim_span": 2, "|AB|": 2, "dim_stab": 2, "|H|": 1} in got.violations
    assert json.dumps(got.to_json()) == json.dumps(memo_free_sweep(m))


@pytest.mark.parametrize("name, kwargs", [("Z4", {}),
                                          ("S3", {"exhaustive": False, "seed": 1, "count": 100})])
def test_sweep_reads_products_and_stabilizers_off_the_cells(name, kwargs, monkeypatch):
    # lifts are coordinate spans of a monoid algebra, so product spans and
    # stabilizer equations come from the structure constants, not from
    # element products or multiplication images
    calls = {"mul_pairs": 0, "mul_images": 0}

    def counted(method):
        real = getattr(Algebra, method)

        def wrapper(*args):
            calls[method] += 1
            return real(*args)
        monkeypatch.setattr(Algebra, method, wrapper)

    m = table_fixture(name)
    for method in calls:
        counted(method)
    got = discrete.group_kneser_sweep(m, **kwargs).to_json()
    assert calls == {"mul_pairs": 0, "mul_images": 0}
    monkeypatch.undo()
    assert json.dumps(got) == json.dumps(memo_free_sweep(m, **kwargs))


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
    # the exact atom at lambda = 1: the subalgebra generated by lift(A)
    assert rep.atom_dim == 5 and rep.atom_dominates_stab
    assert rep.atom_exact


def test_monoid_hamidoune_exact_atom_in_a_group():
    # lift(A) = span(1, g) in Q[Z3] generates all of Q[Z3]: c = 0 at dim 3,
    # so the rhs is 2 + 3 - 3 = 2 <= |BA| = 3
    z3 = cyclic(3)
    a, b = frozenset({0, 1}), frozenset({0, 1, 2})
    rep = discrete.monoid_hamidoune_check(z3, a, b, F(1))
    assert (rep.atom_dim, rep.atom_exact, rep.hamidoune_ok) == (3, True, True)
    # a unit of A other than 1 gives the same atom
    rep = discrete.monoid_hamidoune_check(z3, frozenset({1, 2}), b, F(1))
    assert (rep.atom_dim, rep.atom_exact, rep.hamidoune_ok) == (3, True, True)


def test_monoid_hamidoune_candidate_failure_is_undecided():
    # at lambda = 1/2 the scalars are the best candidate (dim 1), whose
    # bound 1 + 3 - 1/2 = 7/2 exceeds |BA| = 3: that decides nothing
    rep = discrete.monoid_hamidoune_check(cyclic(3), frozenset({0, 1}),
                                          frozenset({0, 1, 2}), F(1, 2))
    assert (rep.atom_dim, rep.atom_exact, rep.hamidoune_ok) == (1, False, None)


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
