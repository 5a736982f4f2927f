"""Finitely-many-subalgebras classification and the split-etale lattice.

A finite-dimensional commutative algebra has finitely many subalgebras
iff it is monogenic with generator minimal polynomial of the shape
(squarefree part) * (linear factor)^m for m in {2, 3} at most once.
A generator's minimal polynomial decides the shape exactly.  Whether a
generator exists is decided exactly too, with no sampling: with J the
radical of the trace form and M = J/J^2, the algebra is monogenic iff
dim End_A(M) = dim M, one commutant kernel (_monogenic); a bounded stretch
of the Vandermonde line through the basis then holds a generator.
For Q^n the subalgebra lattice is exactly the partition lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

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
    kind: str  # "Finite" | "Infinite"
    reason: str | None = None  # for Infinite: "NonCommutative" | "BadProfile" | "NotMonogenic"
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


def _line(alg: Algebra, params):
    """The points sum_i t^i b_i, t in params, of the line through the basis."""
    return sub.vandermonde_line(sub.full_space(alg).elements(), params)


def _fixed_candidates(alg: Algebra):
    """The 2n + 3 deterministic candidates: (0, 1, ..., n - 1), the basis,
    and the points t = 1, ..., n + 2 of the line through the basis."""
    n = alg.dim
    yield alg.element(range(n))
    for i in range(n):
        yield alg.basis_element(i)
    yield from _line(alg, range(1, n + 3))


def _generator_poly(g: Element):
    """min_poly(g) when g generates its algebra (has degree dim alg), else None."""
    mu = min_poly(g)
    return mu if mu.degree == g.algebra.dim else None


def _monogenic(alg: Algebra) -> bool:
    """Whether the commutative algebra alg is generated by one element.

    With J the radical and M = J/J^2, a module over the etale algebra
    A/J = prod L_i, M is sum L_i^{k_i}.  alg is monogenic iff every local
    factor has a principal maximal ideal, iff every k_i <= 1, iff
    dim_Q End_A(M) = sum k_i^2 [L_i:Q] equals dim_Q M = sum k_i [L_i:Q].
    M is spanned by the m rows C of J that grow J^2's echelon form.  The
    matrix with columns C, J^2 and the images b_i c (c in C) has every
    image column free, and int_kernel's vector at an image column is
    -L times its coordinates on C and J^2: the action matrices R_i, scaled
    by -L.  End_A(M) is the kernel of X -> (R_i X - X R_i)_i, of dimension
    m^2 less the rank of those equations.
    """
    j = sub.radical(alg)
    j2 = sub.product_span(j, j)
    m = j.dim - j2.dim
    out, pivots = list(j2.rows), list(j2.pivots)
    comp = [c for c in j.rows if linalg.echelon_add(out, pivots, c)[1] is not None]
    images = [alg.mul_pairs(((i, 1),), linalg.nonzeros(c))
              for i in range(alg.dim) for c in comp]
    cols = list(zip(*comp, *j2.rows, *images))
    coords = linalg.int_kernel(*linalg.int_rref(cols), j.dim + len(images))[0]
    eqs = []
    for i in range(alg.dim):
        r = [[coords[i * m + q][p] for q in range(m)] for p in range(m)]
        for p in range(m):
            for q in range(m):
                # (R X - X R)[p][q], X[a][b] at a * m + b
                eq = [0] * (m * m)
                for s in range(m):
                    eq[s * m + q] += r[p][s]
                    eq[p * m + s] -= r[s][q]
                eqs.append(eq)
    return m * m - len(linalg.int_rref(eqs)[1]) == m


def finite_subalgebras_verdict(alg: Algebra) -> Verdict:
    """Decide whether alg has finitely many subalgebras.

    Non-commutative algebras are Infinite outright (finite forces
    monogenic, hence commutative).  Otherwise any generator of the whole
    algebra decides the question exactly through its minimal polynomial.
    When none of the 2n + 3 deterministic candidates generates, the
    commutant test (_monogenic) decides whether a generator exists: if
    none does the verdict is Infinite, NotMonogenic; if one does, the line
    through the basis goes on to t = n(n+1)/2 (n - 1) + 1.  Over Q-bar, x
    generates iff the characters differ at x and, in each local factor with
    m != 0, x - chi(x) lies outside m^2: x avoids the kernels of at most
    n(n+1)/2 nonzero linear forms, each with at most n - 1 roots on the line.
    """
    if not alg.commutative:
        return Verdict(kind="Infinite", reason="NonCommutative")
    g, mu, used = sub._first(_fixed_candidates(alg), _generator_poly)
    if g is None:
        if not _monogenic(alg):
            return Verdict(kind="Infinite", reason="NotMonogenic", trials_used=used)
        n = alg.dim
        g, mu, more = sub._first(_line(alg, range(n + 3, n * (n + 1) // 2 * (n - 1) + 2)),
                                 _generator_poly)
        used += more
        if g is None:
            raise AssertionError(f"no generator among {used} candidates of a monogenic algebra")
    profile = squarefree_decompose(mu)
    if profile_ok(profile):
        return Verdict(kind="Finite", generator=g, profile=profile, trials_used=used)
    return Verdict(kind="Infinite", reason="BadProfile", generator=g, profile=profile,
                   trials_used=used)


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


@cache
def _partition_masks(n: int) -> tuple:
    """_lex_partitions(n) with each block as the bit mask of its indices."""
    return tuple(tuple(sum(1 << i for i in b) for b in part) for part in _lex_partitions(n))


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
