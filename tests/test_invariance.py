"""Answers must not depend on the basis.

Each algebra fixture is rewritten in the basis b'_i = sum_j P_ij b_j, P a
seeded unimodular integer matrix (oracles.unimodular), and built again
from its dense structure constants (oracles.change_of_basis, then
from_structure_constants).  Subspaces move to the new basis by P^-1.

The spaces are coordinate spans of the fixture's own basis, where the
fast paths run (the monomial product span, the coordinate projection,
stabilizer equations with one variable, the unit-row run of int_rref),
and seeded random spans.  In the new basis the same spaces are dense,
so the generic paths answer.  Both must give:
- the product span, as a subspace;
- both stabilizers and both annihilators, as subspaces (so their
  dimensions too);
- the kneser_check report;
- the contains_invertible kind;
- the classifier verdict.

Exact atoms are expected to fail: atom_exact_split needs the basis of
orthogonal idempotents (Algebra.split_etale), which a change of basis
destroys.  They become an ordinary check once atoms read the algebra
rather than its basis.
"""

import random
from fractions import Fraction as F
from functools import cache

import pytest

from addalg import classify, sumsets
from addalg import subspace as sub
from addalg.algebra import from_structure_constants
from addalg.errors import NotSplitEtale
from addalg.fixtures import ALGEBRA_NAMES, algebra_fixture

from oracles import change_of_basis, unimodular


@cache
def rewritten(name):
    """(the fixture, the fixture in a seeded new basis, P^-1)."""
    alg = algebra_fixture(name)
    table, unit, inv = change_of_basis(alg.table, alg.unit, unimodular(alg.dim, random.Random(name)))
    return alg, from_structure_constants(table, unit, label=f"{name} rebased"), inv


def moved(space, new, inv):
    """The subspace of new with the same elements: each row times P^-1."""
    n = new.dim
    return sub.from_vecs(new, [[sum(r[k] * inv[k][j] for k in range(n)) for j in range(n)]
                               for r in space.rows])


def spaces(alg, rng):
    """Three coordinate spans and two spans of random integer rows."""
    n = alg.dim
    out = [sub.coordinate_span(alg, rng.sample(range(n), rng.randint(1, max(1, n - 1))))
           for _ in range(3)]
    for _ in range(2):
        rows = [[rng.choice((0, 0, 1, -1, 2)) for _ in range(n)] for _ in range(rng.randint(1, 2))]
        out.append(sub.from_vecs(alg, rows))
    return out


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_subspace_answers_do_not_depend_on_the_basis(name):
    alg, new, inv = rewritten(name)
    old = spaces(alg, random.Random(name))
    for v, w in zip(old, old[1:] + old[:1]):
        v2, w2 = moved(v, new, inv), moved(w, new, inv)
        assert sub.product_span(v2, w2) == moved(sub.product_span(v, w), new, inv)
        for side in ("left", "right"):
            assert sub.stabilizer(v2, side) == moved(sub.stabilizer(v, side), new, inv), side
            assert sub.annihilator(v2, side) == moved(sub.annihilator(v, side), new, inv), side
        assert sumsets.kneser_check(v2, w2) == sumsets.kneser_check(v, w)
        if v.dim:
            assert sub.contains_invertible(v2).kind == sub.contains_invertible(v).kind


@pytest.mark.parametrize("name", ALGEBRA_NAMES)
def test_classifier_verdict_does_not_depend_on_the_basis(name):
    alg, new, _ = rewritten(name)
    want = classify.finite_subalgebras_verdict(alg)
    got = classify.finite_subalgebras_verdict(new)
    assert (got.kind, got.reason) == (want.kind, want.reason)


SPLIT = [name for name in ALGEBRA_NAMES if algebra_fixture(name).split_etale]


@pytest.mark.xfail(strict=True, raises=NotSplitEtale,
                   reason="exact atoms need the basis of orthogonal idempotents")
@pytest.mark.parametrize("name", SPLIT)
def test_exact_atom_does_not_depend_on_the_basis(name):
    alg, new, inv = rewritten(name)
    # span(1, b_0) holds the unit, so it holds an invertible element
    v = sub.lattice_sum(sub.unit_span(alg), sub.coordinate_span(alg, [0]))
    for lam in (F(1, 3), F(1, 2), F(1)):
        want = sumsets.atom_exact_split(v, lam)
        got = sumsets.atom_exact_split(moved(v, new, inv), lam)
        assert (got.kappa, got.atom.dim) == (want.kappa, want.atom.dim)
