"""Seeded random instance generation.

Every instance is a deterministic function of (family, parameters,
seed).  Generated subspaces are certified to contain an invertible
element; failures re-roll within a bounded retry budget.
"""

from __future__ import annotations

import random
import string
import zlib
from dataclasses import dataclass
from itertools import islice

from . import classify, linalg
from . import subspace as sub
from .algebra import Algebra
from .errors import RetryBudgetExhausted, SchemaError
from .fixtures import cyclic
from .polynomials import Poly
from .serialize import SCHEMA_VERSION, algebra_from_desc, basis_json
from .subspace import Subspace

__all__ = ["Instance", "random_subspace", "random_subset", "gen_instance", "FAMILIES"]

FAMILIES = ("split", "group", "polyprod")

_ROOTS = range(-4, 5)  # the distinct roots a polyprod polynomial draws from
RETRIES = 64  # subspace draws random_subspace makes before giving up


@dataclass(frozen=True)
class Instance:
    family: str
    seed: int
    desc: dict
    algebra: Algebra
    subspaces: dict  # name -> Subspace
    subsets: dict  # name -> sorted index list (group family only)

    def to_json(self):
        out = {
            "schema_version": SCHEMA_VERSION,
            "family": self.family,
            "seed": self.seed,
            "algebra": self.desc,
            "subspaces": {name: basis_json(sp) for name, sp in self.subspaces.items()},
        }
        if self.subsets:
            out["subsets"] = {k: list(v) for k, v in self.subsets.items()}
        return out


def random_subspace(alg: Algebra, dim: int, rng: random.Random) -> Subspace:
    """Random dim-dimensional subspace certified to contain an invertible."""
    if not 1 <= dim <= alg.dim:
        raise SchemaError(f"subspace dim must be in 1..{alg.dim}, got {dim}")
    draws = linalg.random_coefficients(alg.dim, 3, rng)
    for _ in range(RETRIES):
        got = sub.from_vecs(alg, list(islice(draws, dim)))
        if got.dim != dim:
            continue
        if sub.contains_invertible(got, seed=rng.randint(0, 2**30)).kind == "YES":
            return got
    raise RetryBudgetExhausted(
        f"no invertible-containing subspace of dim {dim} in {RETRIES} draws")


def random_subset(size: int, total: int, rng: random.Random) -> tuple[int, ...]:
    return tuple(sorted(rng.sample(range(total), size)))


def _squarefree_poly(deg: int, rng: random.Random) -> Poly:
    """Monic squarefree polynomial with distinct small integer roots."""
    roots = rng.sample(_ROOTS, deg)
    p = Poly.one()
    for r in roots:
        p = p * Poly.of(-r, 1)
    return p


def gen_instance(family: str, seed: int, n: int | None = None,
                 dims: tuple[int, ...] = (2, 2)) -> Instance:
    """Deterministic instance: algebra plus named subspaces A, B, C, ...

    split: Q^n with random subspaces of the given dims.
    group: Q[Z/n] with random subsets lifted to indicator spans.
    polyprod: Q[T]/(P), P random squarefree of degree n (Finite verdict).
    """
    # crc32, not hash(): string hashing is randomized per process
    rng = random.Random(zlib.crc32(family.encode()) * 1_000_003 + seed)
    if family == "split":
        n = 4 if n is None else n
        desc = {"kind": "poly_quotient_product", "factors": [["0", "1"]] * n,
                "label": f"Q{n}"}
        alg = algebra_from_desc(desc)
        spaces = {}
        for name, d in zip(string.ascii_uppercase, dims):
            spaces[name] = random_subspace(alg, d, rng)
        return Instance(family, seed, desc, alg, spaces, {})
    if family == "group":
        n = 5 if n is None else n
        table = cyclic(n)
        desc = table.to_json() | {"kind": "group_table", "label": f"QZ{n}"}
        alg = table.algebra()
        spaces = {}
        subsets = {}
        for name, size in zip(string.ascii_uppercase, dims):
            if not 1 <= size <= n:
                raise SchemaError(f"subset size must be in 1..{n}, got {size}")
            picked = random_subset(size, n, rng)
            subsets[name] = picked
            spaces[name] = sub.coordinate_span(alg, picked)
        return Instance(family, seed, desc, alg, spaces, subsets)
    if family == "polyprod":
        n = 3 if n is None else n
        if not 1 <= n <= len(_ROOTS):
            raise SchemaError(f"polyprod degree must be in 1..{len(_ROOTS)}, got {n}")
        p = _squarefree_poly(n, rng)
        desc = {"kind": "poly_quotient_product", "factors": [p.to_json()],
                "label": f"Q[T]/({p})"}
        alg = algebra_from_desc(desc)
        verdict = classify.finite_subalgebras_verdict(alg, seed=seed)
        if verdict.kind != "Finite":  # squarefree is Finite; only the search can miss
            raise RetryBudgetExhausted(
                f"no generator of {desc['label']} found ({verdict.kind})")
        spaces = {}
        for name, d in zip(string.ascii_uppercase, dims):
            spaces[name] = random_subspace(alg, min(d, alg.dim), rng)
        return Instance(family, seed, desc, alg, spaces, {})
    raise SchemaError(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
