"""Finitely-many-subalgebras classification and the split-etale lattice.

A finite-dimensional commutative algebra has finitely many subalgebras
iff it is monogenic with generator minimal polynomial of the shape
(squarefree part) * (linear factor)^m for m in {2, 3} at most once.
For Q^n the subalgebra lattice is exactly the partition lattice.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from itertools import islice

from . import linalg
from . import subspace as sub
from .algebra import Algebra, Element, min_poly
from .errors import CapExceeded, NotSplitEtale
from .polynomials import SqfProfile, squarefree_decompose

__all__ = [
    "Verdict",
    "profile_ok",
    "finite_subalgebras_verdict",
    "set_partitions",
    "bell_number",
    "split_partitions",
    "enumerate_subalgebras_split",
]

DEFAULT_PARTITION_CAP = 10


def profile_ok(p: SqfProfile) -> bool:
    """True iff the multiplicity structure allows a finite subalgebra lattice.

    Every part must have multiplicity 1, except at most one part of
    multiplicity 2 or 3 whose (squarefree) factor is linear.  Parts of
    multiplicity 1 need no irreducibility test: squarefree already means
    a product of distinct irreducibles.
    """
    repeated = [(m, f) for m, f in p.parts if m != 1]
    if not repeated:
        return True
    if len(repeated) > 1:
        return False
    m, f = repeated[0]
    return m in (2, 3) and f.degree == 1


@dataclass(frozen=True)
class Verdict:
    kind: str  # "Finite" | "Infinite" | "ProbablyInfinite"
    reason: str | None = None  # for Infinite: "NonCommutative" | "BadProfile"
    generator: Element | None = None
    profile: SqfProfile | None = None
    trials_used: int = 0

    def to_json(self):
        out = {"verdict": self.kind, "trials_used": self.trials_used}
        if self.reason:
            out["reason"] = self.reason
        if self.generator is not None:
            out["generator"] = [str(c) for c in self.generator.coords]
        if self.profile is not None:
            out["profile"] = self.profile.to_json()
        return out


def _generator_candidates(alg: Algebra, trials: int, seed: int):
    """Deterministic candidates first, then growing random integer points."""
    n = alg.dim
    yield alg.element(range(n))
    for i in range(n):
        yield alg.basis_element(i)
    yield from sub.vandermonde_line(sub.full_space(alg).elements(), range(1, n + 3))
    rng = random.Random(seed)
    for k in range(0, trials, 8):  # the coefficient bound grows by 2 every 8 draws
        draws = linalg.random_coefficients(n, 2 + k // 4, rng)
        for coords in islice(draws, min(8, trials - k)):
            yield alg.element(coords)


def finite_subalgebras_verdict(alg: Algebra, trials: int = 64, seed: int = 0) -> Verdict:
    """Decide whether alg has finitely many subalgebras.

    Non-commutative algebras are Infinite outright (finite forces
    monogenic, hence commutative).  Otherwise any generator of the whole
    algebra decides the question exactly through its minimal polynomial;
    only the failure to find a generator is sampling-dependent.
    """
    if not alg.commutative:
        return Verdict(kind="Infinite", reason="NonCommutative")
    used = 0
    for g in _generator_candidates(alg, trials, seed):
        used += 1
        mu = min_poly(g)
        if mu.degree == alg.dim:
            profile = squarefree_decompose(mu)
            if profile_ok(profile):
                return Verdict(kind="Finite", generator=g, profile=profile,
                               trials_used=used)
            return Verdict(kind="Infinite", reason="BadProfile", generator=g,
                           profile=profile, trials_used=used)
    return Verdict(kind="ProbablyInfinite", trials_used=used)


def set_partitions(n: int):
    """All set partitions of {0..n-1} in restricted-growth (lex) order."""
    def rec(i, blocks):
        if i == n:
            yield [sorted(b) for b in blocks]
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1, blocks)
        blocks.pop()

    if n == 0:
        yield []
        return
    yield from rec(0, [])


def bell_number(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


@cache
def _lex_partitions(n: int) -> tuple:
    return tuple(tuple(map(tuple, part)) for part in set_partitions(n))


def split_partitions(alg: Algebra, cap: int = DEFAULT_PARTITION_CAP) -> tuple:
    """The set partitions of alg's basis indices in lex order, as tuples of tuples.

    In Q^n, built with its idempotent basis, these index the subalgebras.
    Raises NotSplitEtale for any other algebra and CapExceeded above cap.
    """
    if not alg.split_etale:
        raise NotSplitEtale(f"{alg!r} was not built with an idempotent basis")
    n = alg.dim
    if n > cap:
        raise CapExceeded(f"dimension {n} above enumeration cap {cap}")
    return _lex_partitions(n)


def enumerate_subalgebras_split(alg: Algebra, cap: int = DEFAULT_PARTITION_CAP):
    """All subalgebras of Q^n: one per set partition, spanned by block indicators.

    Returns (partition, Subspace) pairs in lex partition order.
    """
    return [(part, sub.block_span(alg, part)) for part in split_partitions(alg, cap)]
