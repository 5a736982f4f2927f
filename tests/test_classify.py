import contextlib
import io
import json
import random
from fractions import Fraction as F

import pytest

from addalg import classify, cli
from addalg import subspace as sub
from addalg.algebra import (
    direct_product,
    from_structure_constants,
    poly_quotient_product,
    split_etale_algebra,
)
from addalg.errors import CapExceeded, NotSplitEtale
from addalg.fixtures import ALGEBRA_NAMES, algebra_fixture
from addalg.polynomials import Poly, squarefree_decompose

from oracles import ref, ref_commutant_dim, ref_min_poly

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
    # classify accepts --seed and --trials for compatibility and reads neither
    for name in ("QT3", "QT4", "Q4", "Q[graded-m]"):
        outs = set()
        for seed, trials in (("0", "64"), ("1", "0"), ("2", "16")):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["classify", "--fixture", name, "--seed", seed,
                                 "--trials", trials, "--json"])
            assert code == 0
            outs.add(out.getvalue())
        assert len(outs) == 1, name


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


# -- the exact monogenicity test ------------------------------------------


def square_zero(k):
    """Q[x_1..x_k]/(x_1..x_k)^2 on the basis 1, x_1, ..., x_k."""
    n = k + 1
    table = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        table[0][i][i] = table[i][0][i] = 1
    return from_structure_constants(table, [1] + [0] * k, label=f"square-zero {k}")


SQRT2 = Poly.of(-2, 0, 1)


def exact_case(alg, monogenic, kind, reason):
    """The commutant test, the reference commutant dimension and the verdict
    of alg; a NotMonogenic verdict has tried the 2n + 3 fixed candidates."""
    assert classify._monogenic(alg) is monogenic
    end, m = ref_commutant_dim(alg.table)
    assert (end == m) is monogenic
    v = classify.finite_subalgebras_verdict(alg)
    assert (v.kind, v.reason) == (kind, reason)
    assert (v.generator is not None) is monogenic
    if reason == "NotMonogenic":
        assert v.trials_used == 2 * alg.dim + 3 and v.profile is None
    return m


def test_shortcut_counterexamples():
    # Q[t]/((t^2 - 2)^2) = Q(sqrt 2)[e]/(e^2) is monogenic with dim J/J^2 = 2,
    # so dim J/J^2 <= 1 is not the criterion
    m = exact_case(poly_quotient_product([SQRT2 * SQRT2]), True, "Infinite", "BadProfile")
    assert m == 2
    # Q^2 x Q[x,y]/(x,y)^2 is not, although dim J/J^2 = 2 <= dim A/J = 3
    alg = direct_product(split_etale_algebra(2), square_zero(2))
    m = exact_case(alg, False, "Infinite", "NotMonogenic")
    assert m == 2 < alg.dim - sub.radical(alg).dim


def test_exact_test_on_products_and_square_zero_algebras():
    assert exact_case(square_zero(2), False, "Infinite", "NotMonogenic") == 2
    assert exact_case(square_zero(3), False, "Infinite", "NotMonogenic") == 3
    qr2 = poly_quotient_product([SQRT2])
    exact_case(direct_product(qr2, square_zero(2)), False, "Infinite", "NotMonogenic")
    exact_case(poly_quotient_product([T * T * T, T * T]), True, "Infinite", "BadProfile")


def tensor(a, b):
    """a (x) b from the dense tables, on the basis a_i (x) b_j at i * dim b + j."""
    ta, tb, m = a.table, b.table, b.dim
    table = [[[ta[i][k][r] * tb[j][l][s] for r in range(a.dim) for s in range(m)]
              for k in range(a.dim) for l in range(m)]
             for i in range(a.dim) for j in range(m)]
    unit = [x * y for x in a.unit for y in b.unit]
    return from_structure_constants(table, unit, label=f"({a.label}) (x) ({b.label})")


def test_commutant_test_matches_the_reference_over_other_residue_fields():
    qi = poly_quotient_product([Poly.of(1, 0, 1)])
    cube_root = poly_quotient_product([Poly.of(-2, 0, 0, 1)])
    cases = [  # (algebra, monogenic, dim_Q M, dim_Q End_A(M))
        (tensor(qi, square_zero(2)), False, 4, 8),
        (tensor(cube_root, square_zero(2)), False, 6, 12),
        (tensor(qi, poly_quotient_product([T * T])), True, 2, 2),
        (poly_quotient_product([Poly.of(1, 0, 1) * Poly.of(1, 0, 1), Poly.of(1, 0, 1)]),
         True, 2, 2),
        (direct_product(tensor(qi, poly_quotient_product([T * T])), square_zero(1)),
         True, 3, 3),
        (direct_product(poly_quotient_product([T * T]), tensor(qi, square_zero(2))),
         False, 5, 9),
    ]
    for alg, monogenic, m, end in cases:
        assert classify._monogenic(alg) is monogenic, alg.label
        assert ref_commutant_dim(alg.table) == (end, m), alg.label


COMMUTATIVE_VERDICTS = {
    **{name: ("Finite", None) for name in ("QT2", "QT3", "QV4", "Q[paper-m7]")},
    **{f"Q{n}": ("Finite", None) for n in range(1, 7)},
    **{f"QZ{n}": ("Finite", None) for n in range(2, 13)},
    **{name: ("Infinite", "BadProfile") for name in ("QT4", "QP2", "QT2xQT2")},
    # its deterministic candidates all fail, so it is the one fixture the
    # commutant test decides
    "Q[graded-m]": ("Infinite", "NotMonogenic"),
}


def test_every_commutative_fixture_keeps_its_verdict():
    commutative = [n for n in ALGEBRA_NAMES if algebra_fixture(n).commutative]
    assert sorted(commutative) == sorted(COMMUTATIVE_VERDICTS)
    for name, want in COMMUTATIVE_VERDICTS.items():
        alg = algebra_fixture(name)
        v = classify.finite_subalgebras_verdict(alg)
        assert (v.kind, v.reason) == want, name
        assert classify._monogenic(alg) is (v.generator is not None), name


def test_zero_trials_still_run_the_exact_test():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["classify", "--fixture", "Q[graded-m]", "--trials", "0", "--json"])
    got = json.loads(out.getvalue())
    assert code == 0
    assert (got["verdict"], got["reason"], got["trials_used"]) == ("Infinite", "NotMonogenic", 15)


def test_a_proven_monogenic_algebra_continues_the_line(monkeypatch):
    # with the unit as its only fixed candidate, QT3 = Q[x]/(x^3) goes to the
    # commutant test, which proves a generator exists, and the line through
    # the basis goes on at t = 6: 1 + 6x + 36x^2 generates.  QT2's line ends
    # at t = n(n+1)/2 (n - 1) + 1 = 4 = n + 2, so nothing is left to continue.
    monkeypatch.setattr(classify, "_fixed_candidates", lambda alg: iter([alg.one()]))
    alg = algebra_fixture("QT3")
    v = classify.finite_subalgebras_verdict(alg)
    assert (v.kind, v.reason, v.trials_used) == ("Finite", None, 2)
    assert v.generator == alg.element((1, 6, 36))
    with pytest.raises(AssertionError, match="no generator among 1 candidates"):
        classify.finite_subalgebras_verdict(algebra_fixture("QT2"))


def test_running_off_the_line_is_an_internal_error(monkeypatch):
    # QT3's 9 fixed candidates and its line's points t = 6..13
    monkeypatch.setattr(classify, "_generator_poly", lambda x: None)
    with pytest.raises(AssertionError, match="no generator among 17 candidates"):
        classify.finite_subalgebras_verdict(algebra_fixture("QT3"))


def line_bound(n):
    """The points of the line through the basis that hold a generator of a
    monogenic commutative algebra of dimension n: n(n+1)/2 (n - 1) + 1."""
    return n * (n + 1) // 2 * (n - 1) + 1


MONOGENIC_CASES = [name for name in ALGEBRA_NAMES if algebra_fixture(name).commutative
                   and name != "Q[graded-m]"]


@pytest.mark.parametrize("name", [*MONOGENIC_CASES, "QT3xQT3", "QZ6xQZ4"])
def test_every_monogenic_algebra_has_a_generator_early_on_the_line(name):
    if name in MONOGENIC_CASES:
        alg = algebra_fixture(name)
    else:
        alg = direct_product(*map(algebra_fixture, name.split("x", 1)))
    assert classify._monogenic(alg)
    n = alg.dim
    # the reference minimal polynomial of sum t^i b_i, whose coordinates are t^i
    first = next(t for t in range(1, line_bound(n) + 1)
                 if len(ref_min_poly(alg.table, alg.unit, [F(t) ** i for i in range(n)])) == n + 1)
    # the verdict tests (0, ..., n - 1) and the basis first, then the line
    v = classify.finite_subalgebras_verdict(alg)
    assert v.generator is not None and v.trials_used <= 1 + n + first


@pytest.mark.parametrize(("alg", "fixed"), [(square_zero(2), 9),
                                           (algebra_fixture("Q[graded-m]"), 15)],
                         ids=["Q[x,y]/(x,y)^2", "Q[graded-m]"])
def test_a_non_monogenic_verdict_stops_after_the_fixed_candidates(alg, fixed, monkeypatch):
    calls = []
    real = classify.min_poly
    monkeypatch.setattr(classify, "min_poly", lambda x: calls.append(x) or real(x))
    v = classify.finite_subalgebras_verdict(alg)
    assert (v.kind, v.reason) == ("Infinite", "NotMonogenic")
    assert v.trials_used == len(calls) == fixed == 2 * alg.dim + 3
