"""JSON (de)serialization: rationals, polynomials, algebra descriptions
and instance files.

Rationals travel as "p/q" or integer strings.  The canonical forms are
read by int() alone, and any other literal Fraction accepts still parses;
subspace rows go in and bases come out as integer rows, with no Fraction
between.  An algebra description is a dict with a "kind" discriminator;
an instance file bundles one algebra description with named subspace
generator lists.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, lcm

from . import subspace as sub
from .algebra import (
    Algebra,
    companion_algebra,
    direct_product,
    from_structure_constants,
    monoid_algebra,
    poly_quotient_product,
)
from .discrete import MulTable
from .errors import SchemaError
from .polynomials import Poly

SCHEMA_VERSION = 1

__all__ = [
    "SCHEMA_VERSION",
    "parse_rat",
    "rat_str",
    "basis_json",
    "poly_from_json",
    "table_from_json",
    "algebra_from_desc",
    "read_instance",
    "load_instance",
    "dumps",
]


def _ratio(s) -> tuple[int, int]:
    """s as integers (num, den), den > 0: ASCII -?digits and -?digits/digits, the
    forms rat_str writes, by int(), numerator first as Fraction reads them;
    anything else, or a zero den, through Fraction(str(s)), with its errors."""
    if isinstance(s, bool):
        raise SchemaError(f"not a rational: {s!r}")
    if isinstance(s, int):
        return s, 1
    try:
        if type(s) is str and s.isascii():
            num, slash, den = s.partition("/")
            if (num[1:] if num[:1] == "-" else num).isdigit() and (den.isdigit() or not slash):
                p, q = int(num), int(den or 1)
                if q:
                    return p, q
        f = Fraction(str(s))
    except (ValueError, ZeroDivisionError) as e:
        raise SchemaError(f"bad rational {s!r}: {e}") from None
    return f.numerator, f.denominator


def parse_rat(s) -> Fraction:
    return Fraction(*_ratio(s))


def rat_str(x: Fraction) -> str:
    return str(Fraction(x))


def basis_json(space) -> list[list[str]]:
    """A subspace's canonical basis as rows of rational strings, as rat_str
    writes them: each entry a of a primitive row over its pivot p > 0, a/p
    reduced by one gcd."""
    return [[str(a // g) if (g := gcd(a, p)) == p else f"{a // g}/{p // g}" for a in row]
            for row, p in ((row, row[pc]) for row, pc in zip(space.rows, space.pivots))]


def _array(items, what: str) -> list:
    """items, checked to be a JSON array: a string would be read char by char."""
    if not isinstance(items, list):
        raise SchemaError(f"{what} must be a JSON array")
    return items


def poly_from_json(items) -> Poly:
    if not isinstance(items, list):
        raise SchemaError("polynomial must be a JSON array of rationals")
    return Poly(tuple(parse_rat(c) for c in items))


def _index(x, what: str) -> int:
    """x, checked to be an integer: JSON true and false would index as 1 and 0."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise SchemaError(f"{what} must be an integer")
    return x


def _string(x, what: str) -> str:
    """x, checked to be a string: no element name or label is another JSON type."""
    if not isinstance(x, str):
        raise SchemaError(f"{what} must be a string")
    return x


def table_from_json(d) -> MulTable:
    try:
        rows = _array(d["table"], "table")
        for row in rows:  # a row at once; entry by entry only to name the bad one
            if not all(type(x) is int for x in _array(row, "table row")):
                for x in row:
                    _index(x, "table entry")
        labels = d.get("labels")
        labels = None if labels is None else [_string(x, "element label")
                                              for x in _array(labels, "labels")]
        return MulTable.build(rows, _index(d.get("unit", 0), "table unit"),
                              labels, _string(d.get("label", ""), "label"))
    except (KeyError, TypeError, IndexError) as e:
        raise SchemaError(f"bad monoid table: {e}") from None


def _product_leaves(d, leaves: list) -> str:
    """The label of a direct_product description; its leaf algebras go on leaves.

    Nested products are walked, not built, so the leaves, left to right,
    make one product.  Each level's label is its own, or "(L) x (R)" of
    its two factors' labels, as direct_product gives it.
    """
    label = _string(d.get("label", ""), "label")
    names = []
    for factor in (d["left"], d["right"]):
        if isinstance(factor, dict) and factor.get("kind") == "direct_product":
            names.append(_product_leaves(factor, leaves))
        else:
            leaves.append(algebra_from_desc(factor))
            names.append(leaves[-1].label)
    return label or f"({names[0]}) x ({names[1]})"


def algebra_from_desc(d) -> Algebra:
    """Build an algebra from its JSON description (validated)."""
    if not isinstance(d, dict) or "kind" not in d:
        raise SchemaError("algebra description must be a dict with a 'kind'")
    kind = d["kind"]
    label = _string(d.get("label", ""), "label")
    try:
        if kind == "structure_constants":
            table = [
                [[parse_rat(c) for c in _array(cell, "structure-constant cell")]
                 for cell in _array(row, "structure-constant row")]
                for row in _array(d["table"], "structure-constant table")
            ]
            unit = [parse_rat(c) for c in _array(d["unit"], "unit")]
            return from_structure_constants(table, unit, label=label)
        if kind in ("group_table", "monoid_table"):
            return monoid_algebra(table_from_json(d), label=label)
        if kind == "poly_quotient_product":
            return poly_quotient_product(
                [poly_from_json(p) for p in d["factors"]], label=label)
        if kind == "companion":
            return companion_algebra(
                [poly_from_json(p) for p in d["polys"]], label=label)
        if kind == "direct_product":
            leaves = []
            label = _product_leaves(d, leaves)
            return direct_product(*leaves, label=label)
    except SchemaError:
        raise
    except RecursionError:  # nested past the interpreter's limit
        raise SchemaError("algebra description is nested too deeply") from None
    except (KeyError, TypeError, IndexError) as e:
        raise SchemaError(f"bad {kind} description: {e}") from None
    raise SchemaError(f"unknown algebra kind {kind!r}")


def read_instance(path: str) -> dict:
    """The JSON object of an instance file, checked to hold an 'algebra'."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as e:
        raise SchemaError(f"cannot read instance file {path}: {e}") from None
    if not isinstance(raw, dict) or "algebra" not in raw:
        raise SchemaError("instance file needs an 'algebra' description")
    return raw


def load_instance(path: str):
    """Read an instance file; returns (raw dict, Algebra, {name: Subspace})."""
    raw = read_instance(path)
    alg = algebra_from_desc(raw["algebra"])
    named = raw.get("subspaces")
    named = {} if named is None else named  # only an absent key or null means none
    if not isinstance(named, dict):
        raise SchemaError("'subspaces' must be an object mapping names to matrices")
    spaces = {}
    for name, rows in named.items():
        if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
            raise SchemaError(f"subspace {name!r} must be a nonempty matrix")
        rows = [[_ratio(c) for c in row] for row in rows]
        if any(len(r) != alg.dim for r in rows):
            raise SchemaError(f"subspace {name!r} rows must have length {alg.dim}")
        dens = [lcm(*[q for _, q in r]) for r in rows]  # each row cleared to integers
        spaces[name] = sub._span(alg, [[p * (d // q) for p, q in r] for r, d in zip(rows, dens)])
    return raw, alg, spaces


def dumps(payload) -> str:
    """Canonical JSON: sorted keys, no float drift, trailing newline."""
    return json.dumps(payload, sort_keys=True, separators=(", ", ": ")) + "\n"
