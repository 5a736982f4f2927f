"""JSON (de)serialization: rationals, polynomials, algebra descriptions
and instance files.

Rationals travel as "p/q" or integer strings.  An algebra description
is a dict with a "kind" discriminator; an instance file bundles one
algebra description with named subspace generator lists.
"""

from __future__ import annotations

import json
from fractions import Fraction

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


def parse_rat(s) -> Fraction:
    if isinstance(s, bool):
        raise SchemaError(f"not a rational: {s!r}")
    if isinstance(s, int):
        return Fraction(s)
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as e:
        raise SchemaError(f"bad rational {s!r}: {e}") from None


def rat_str(x: Fraction) -> str:
    return str(Fraction(x))


def basis_json(space) -> list[list[str]]:
    """A subspace's canonical basis as rows of rational strings."""
    return [[rat_str(c) for c in row] for row in space.basis]


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
        rows = [[_index(x, "table entry") for x in _array(row, "table row")]
                for row in _array(d["table"], "table")]
        labels = d.get("labels")
        labels = None if labels is None else [_string(x, "element label")
                                              for x in _array(labels, "labels")]
        return MulTable.build(rows, _index(d.get("unit", 0), "table unit"),
                              labels, _string(d.get("label", ""), "label"))
    except (KeyError, TypeError, IndexError) as e:
        raise SchemaError(f"bad monoid table: {e}") from None


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
            return direct_product(algebra_from_desc(d["left"]),
                                  algebra_from_desc(d["right"]), label=label)
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
        vecs = [[parse_rat(c) for c in row] for row in rows]
        if any(len(v) != alg.dim for v in vecs):
            raise SchemaError(f"subspace {name!r} rows must have length {alg.dim}")
        spaces[name] = sub.from_vecs(alg, vecs)
    return raw, alg, spaces


def dumps(payload) -> str:
    """Canonical JSON: sorted keys, no float drift, trailing newline."""
    return json.dumps(payload, sort_keys=True, separators=(", ", ": ")) + "\n"
