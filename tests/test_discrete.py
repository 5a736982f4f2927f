import gc
import json
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction as F

import pytest

from addalg import discrete, linalg, sumsets
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

from oracles import monoid_atom_dim, monoid_hamidoune_holds, ref


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


@pytest.mark.parametrize("name", ["Z2", "Z3", "Z4", "V4", "Z5", "Z6", "S3"])
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


def test_sampled_sweep_defaults_to_seed_0_and_200_pairs():
    m = graded_m()
    got = discrete.group_kneser_sweep(m, exhaustive=False).to_json()
    assert got["pairs_checked"] == 200
    assert json.dumps(got) == json.dumps(memo_free_sweep(m, exhaustive=False, seed=0, count=200))
    assert got != discrete.group_kneser_sweep(m, exhaustive=False, seed=1).to_json()


@pytest.mark.parametrize("name", ["Z8", "Z12"])
@pytest.mark.parametrize("seed", [3, 4, 5])
def test_sampled_sweep_builds_only_the_drawn_subsets(name, seed, monkeypatch):
    # the pairs come from masks drawn like indices into the list of all
    # 2^n - 1 subsets; the set bits are formed for each drawn mask once and
    # for each distinct AB once, whose lift gets the one stabilizer call
    m = table_fixture(name)
    formed, spans = [], []
    real_bits, real_stabilizer = discrete._bits, sub.stabilizer
    monkeypatch.setattr(discrete, "_bits", lambda mask: formed.append(mask) or real_bits(mask))
    monkeypatch.setattr(sub, "stabilizer", lambda v, side="left": spans.append(v.rows)
                        or real_stabilizer(v, side))
    got = discrete.group_kneser_sweep(m, exhaustive=False, seed=seed, count=40).to_json()
    pairs = ref.sampled_pairs(m.size, seed, 40)
    drawn = {sum(1 << y for y in s) for pair in pairs for s in pair}
    products = {ref.set_product(m.table, a, b) for a, b in pairs}
    assert Counter(formed) == Counter(drawn) + Counter(sum(1 << z for z in ab) for ab in products)
    assert 0 < len(drawn) <= 80
    assert sorted(spans) == sorted(sub.coordinate_span(m.algebra(), ab).rows for ab in products)
    monkeypatch.undo()
    want = memo_free_sweep(m, exhaustive=False, seed=seed, count=40)
    assert json.dumps(got) == json.dumps(want)


@pytest.mark.parametrize("name, records", [("paper-m7", 655), ("graded-m", 3681)])
def test_exhaustive_sweep_records_match_memo_free_reference_on_monoids(name, records, monkeypatch):
    # Kneser holds in groups, so only a monoid reaches the exhaustive record
    # path: let the group check pass and require both issues, in order
    monkeypatch.setattr(MulTable, "is_group", lambda self: True)
    m = table_fixture(name)
    got = discrete.group_kneser_sweep(m).to_json()
    want = memo_free_sweep(m)
    assert json.dumps(got) == json.dumps(want)
    issues = Counter(v["issue"] for v in want["violations"])
    assert sum(issues.values()) == records and len(issues) == 2


def test_sampled_sweep_draws_its_pairs_lazily():
    # the pairs are drawn one at a time as they are checked: six times the
    # pairs on Z8, whose 255 masks are all drawn well within the first
    # count, leave the peak of traced memory where it was
    m = cyclic(8)
    m.algebra()
    peaks = []
    for count in (10_000, 60_000):
        tracemalloc.start()
        try:
            rep = discrete.group_kneser_sweep(m, exhaustive=False, seed=0, count=count)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert rep.pairs_checked == count
    assert peaks[1] - peaks[0] < 0.25 * 2 ** 20


def test_sweep_reports_every_pair_whose_stabilizer_disagrees(monkeypatch):
    # a stabilizer that is the whole of Q[Z6] for the span {0, 1}, whose H is
    # {0}: every pair with AB = {0, 1} must be reported, not only the first
    # pair that computes it, and the memo-free replay must agree
    m = cyclic(6)
    alg = m.algebra()
    span01 = sub.coordinate_span(alg, [0, 1]).rows
    real_stabilizer = sub.stabilizer
    monkeypatch.setattr(sub, "stabilizer", lambda v, side="left": (
        sub.full_space(v.algebra) if v.rows == span01 else real_stabilizer(v, side)))
    rep = discrete.group_kneser_sweep(m)
    subsets = ref.nonempty_subsets(6)
    want = [(sorted(a), sorted(b)) for a in subsets for b in subsets
            if ref.set_product(m.table, a, b) == {0, 1}]
    assert len(want) > 1
    assert rep.violations == [{"A": a, "B": b, "issue": "algebra route disagrees",
                               "dim_span": 2, "|AB|": 2, "dim_stab": 6, "|H|": 1}
                              for a, b in want]
    assert json.dumps(rep.to_json()) == json.dumps(memo_free_sweep(m))


def test_sweep_computes_each_lift_and_stabilizer_once(monkeypatch):
    # each distinct AB has its stabilizer computed once, and the set and
    # subspace helpers of the pair-by-pair route are not called at all
    calls = {"stabilizer": 0, "minkowski": 0,
             "combinatorial_stabilizer": 0, "lift_subset": 0, "product_span": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for name in ("minkowski", "combinatorial_stabilizer", "lift_subset"):
        counted(discrete, name)
    counted(sub, "product_span")
    counted(sub, "stabilizer")
    rep = discrete.group_kneser_sweep(cyclic(5))
    assert rep.ok and rep.pairs_checked == 961
    assert calls.pop("stabilizer") <= 31
    assert calls == {"minkowski": 0, "combinatorial_stabilizer": 0,
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
    # an algebra whose cell b_1 b_0 is mis-copied as b_3, or is not one
    # multiple of one basis vector, no longer copies the table: the sweep
    # compares the cells with the table before any pair and refuses it
    real_algebra = MulTable.algebra
    for bad in ([(3, F(1))], [(1, F(1)), (3, F(1))], []):
        def algebra(self, bad=bad):
            alg = real_algebra(self)
            cells = [[[(k, F(c, alg.den)) for k, c in cell] for cell in row]
                     for row in alg.sparse]
            cells[1][0] = bad
            return Algebra(cells, alg.unit, label=alg.label)

        monkeypatch.setattr(MulTable, "algebra", algebra)
        for kwargs in ({}, {"exhaustive": False, "seed": 0, "count": 5}):
            with pytest.raises(TableMismatch):
                discrete.group_kneser_sweep(cyclic(6), **kwargs)


@pytest.mark.parametrize("name, kwargs", [("Z4", {}),
                                          ("S3", {"exhaustive": False, "seed": 1, "count": 100})])
def test_sweep_reads_products_and_stabilizers_off_the_cells(name, kwargs, monkeypatch):
    # lifts are coordinate spans of a monoid algebra, so product spans and
    # stabilizer equations come from the structure constants, not from
    # element products, multiplication images or elimination
    calls = {"mul_pairs": 0, "mul_images": 0, "int_rref": 0}

    def counted(owner, method):
        real = getattr(owner, method)

        def wrapper(*args):
            calls[method] += 1
            return real(*args)
        monkeypatch.setattr(owner, method, wrapper)

    m = table_fixture(name)
    counted(Algebra, "mul_pairs")
    counted(Algebra, "mul_images")
    counted(linalg, "int_rref")
    got = discrete.group_kneser_sweep(m, **kwargs).to_json()
    assert calls == {"mul_pairs": 0, "mul_images": 0, "int_rref": 0}
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


def test_monoid_hamidoune_candidate_bound_with_w_the_lift_of_b():
    # W = lift(B): at lambda = 1/2 the scalars (the left stabilizer of
    # lift A) give the bound 3/2 + 2 - 1/2 = 3 <= |BA| = 3, which holds
    rep = discrete.monoid_hamidoune_check(cyclic(3), frozenset({0, 1}),
                                          frozenset({0, 1, 2}), F(1, 2))
    assert (rep.atom_dim, rep.atom_exact, rep.hamidoune_ok) == (1, False, True)


def test_monoid_hamidoune_candidate_failure_is_undecided():
    # the scalars' bound 2 + 3 - 1/2 = 9/2 exceeds |BA| = 4: that decides nothing
    rep = discrete.monoid_hamidoune_check(cyclic(4), frozenset({0, 1, 2}),
                                          frozenset({0, 1, 2, 3}), F(1, 2))
    assert (rep.atom_dim, rep.atom_exact, rep.hamidoune_ok) == (1, False, None)


def test_monoid_hamidoune_guards():
    m7 = paper_m7()
    a = m7.subset(["1", "a"])
    with pytest.raises(NoUnitIntersection):
        discrete.monoid_hamidoune_check(m7, m7.subset(["a"]), a, F(1))
    with pytest.raises(LambdaOutOfRange):
        discrete.monoid_hamidoune_check(m7, a, a, F(2))


MONOID_FIXTURES = ("paper-m7", "graded-m", "S3", "V4", "Z4", "Z5", "Z6")
CANDIDATE_LAMBDAS = (F(1, 4), F(1, 3), F(1, 2), F(3, 4))


def table_route_atom(m, a):
    """The lambda = 1 atom read off the table: the subalgebra generated by
    the basis elements of A u^-1, u the least unit in A."""
    t = m.table
    inverse = t[min(a & discrete.units(m))].index(m.unit_index)
    return sub.subalgebra_generated([m.algebra().basis_element(t[x][inverse])
                                     for x in sorted(a)])


def two_candidate_atom(va, lam):
    """The better of the scalars and the left stabilizer of V by (c, dim)."""
    return min((sub.unit_span(va.algebra), sub.stabilizer(va, "left")),
               key=lambda c: (sumsets.connectivity_value(c, va, lam), c.dim))


def test_monoid_atoms_match_the_table_route_and_the_two_candidates():
    """Every subset A that meets the units of each fixture: atom(lift A, 1)
    is the table route's, and at other lambda the two-candidate minimum is
    the left stabilizer, the candidate monoid_hamidoune_check reports."""
    checked = 0
    for name in MONOID_FIXTURES:
        m = table_fixture(name)
        alg, u = m.algebra(), discrete.units(m)
        for mask in range(1, 1 << m.size):
            a = frozenset(i for i in range(m.size) if mask >> i & 1)
            if not a & u:
                continue
            checked += 1
            va = discrete.lift_subset(alg, a)
            atom = sumsets.atom(va, F(1))
            assert atom == table_route_atom(m, a)
            assert discrete.monoid_hamidoune_check(m, a, a, F(1)).atom_dim == atom.dim
            stab = sub.stabilizer(va, "left")
            for lam in CANDIDATE_LAMBDAS:
                assert two_candidate_atom(va, lam) == stab
                assert discrete.monoid_hamidoune_check(m, a, a, lam).atom_dim == stab.dim
    assert checked == 235


@pytest.mark.parametrize("name", ("Z3", "Z4", "S3", "paper-m7"))
def test_monoid_hamidoune_verdicts_match_the_table_rule(name):
    """Over every pair of subsets that meet the units, |BA|, the atom's
    dimension and the verdict of |BA| >= lam|B| + |A| - lam dim(atom) are
    the ones worked out from the table and ref."""
    m = table_fixture(name)
    t, one = [list(row) for row in m.table], m.unit_index
    subsets = [a for a in ref.nonempty_subsets(m.size) if any(one in t[x] for x in a)]
    for lam in (F(1, 3), F(1, 2), F(1)):
        for a in subsets:
            atom_dim = monoid_atom_dim(t, a, lam)
            for b in subsets:
                rep = discrete.monoid_hamidoune_check(m, a, b, lam)
                want = (len(ref.set_product(t, b, a)), atom_dim,
                        monoid_hamidoune_holds(t, a, b, lam, atom_dim))
                assert (rep.ba_size, rep.atom_dim, rep.hamidoune_ok) == want, (a, b, lam)


@pytest.mark.parametrize("name", ("paper-m7", "Z3", "Z4", "Z5"))
def test_product_span_of_lifts_is_the_lift_of_the_set_product(name):
    """dim span(lift B lift A) = |BA| over every pair of subsets that meet
    the units: the identity that lets monoid_hamidoune_check read |BA| off
    the set BA."""
    m = table_fixture(name)
    alg, u = m.algebra(), discrete.units(m)
    lifts = {a: discrete.lift_subset(alg, a)
             for a in map(frozenset, ref.nonempty_subsets(m.size)) if a & u}
    for a, va in lifts.items():
        for b, wb in lifts.items():
            assert sub.product_span(wb, va).dim == len(ref.set_product(m.table, b, a)), (a, b)


def test_monoid_check_lifts_a_alone_and_spans_no_product_of_lifts(monkeypatch):
    # |BA| comes off the set: B is never lifted, and the only product spans
    # are the squarings inside the lambda = 1 atom's subalgebra closure
    lifted, spans = [], []
    real_lift, real_span = discrete.lift_subset, sub.product_span
    monkeypatch.setattr(discrete, "lift_subset",
                        lambda alg, s: lifted.append(s) or real_lift(alg, s))
    monkeypatch.setattr(sub, "product_span", lambda v, w: spans.append(v is w) or real_span(v, w))
    m7 = paper_m7()
    a, b = m7.subset(["1", "a", "b"]), m7.subset(["1", "a"])
    for lam in (F(1, 2), F(1)):
        discrete.monoid_hamidoune_check(m7, a, b, lam)
    assert lifted == [a, a] and spans and all(spans)


def test_monoid_check_calls_no_connectivity_value_and_no_unit_span(monkeypatch):
    calls = Counter()

    def counted(name, real):
        return lambda *args: calls.update([name]) or real(*args)

    monkeypatch.setattr(sumsets, "connectivity_value",
                        counted("connectivity_value", sumsets.connectivity_value))
    monkeypatch.setattr(sub, "unit_span", counted("unit_span", sub.unit_span))
    z3, m7 = cyclic(3), paper_m7()
    for lam in (F(1, 2), F(1, 3), F(1)):
        discrete.monoid_hamidoune_check(z3, frozenset({0, 1}), frozenset({0, 1, 2}), lam)
        a = m7.subset(["1", "a", "b"])
        discrete.monoid_hamidoune_check(m7, a, a, lam)
    assert not calls


def test_table_json_roundtrip():
    from addalg.serialize import table_from_json

    m7 = paper_m7()
    back = table_from_json(m7.to_json())
    assert back.table == m7.table and back.unit_index == m7.unit_index
