"""Univariate polynomials over the rationals.

Coefficients are stored lowest degree first; the zero polynomial is the
empty coefficient tuple and its degree is None (a sentinel, never -1).
Poly.__post_init__ is the one normal form: every constructor and
operation passes its coefficients through it, and it stores them as
Fractions with no trailing zeros.  A Poly is a ring element only: it adds,
subtracts, multiplies and is made monic, and has no division.
Polynomials are divided in one place, the integer core: _int_divmod is the
one long-division loop, and _int_gcd (the primitive pseudo-remainder
sequence) runs on it.  poly_gcd, poly_lcm and Yun's squarefree
decomposition, which is all the subalgebra classifier needs, work on
primitive integer coefficient lists there; only their results become Polys.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from . import linalg
from .errors import ConstantPolynomial


@dataclass(frozen=True)
class Poly:
    """Rational polynomial, coefficients lowest degree first."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        # the one normal form: Fraction coefficients, no trailing zeros
        coeffs = [c if type(c) is Fraction else Fraction(c) for c in self.coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @staticmethod
    def of(*values) -> "Poly":
        return Poly(values)

    @staticmethod
    def zero() -> "Poly":
        return Poly(())

    @staticmethod
    def one() -> "Poly":
        return Poly.of(1)

    @staticmethod
    def x() -> "Poly":
        return Poly.of(0, 1)

    @staticmethod
    def monomial(deg: int) -> "Poly":
        return Poly.of(*([0] * deg + [1]))

    @property
    def degree(self) -> int | None:
        return None if not self.coeffs else len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero or other.is_zero:
            return Poly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    def monic(self) -> "Poly":
        if self.is_zero or self.coeffs[-1] == 1:
            return self
        lead = self.leading
        return Poly(tuple(c / lead for c in self.coeffs))

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*T" if c != 1 else "T")
            else:
                parts.append(f"{c}*T^{i}" if c != 1 else f"T^{i}")
        return " + ".join(parts)


def _primitive_part(p: list[int]) -> list[int]:
    """A nonzero integer polynomial divided by its content, leading coefficient positive."""
    p = linalg.primitive(p)
    return p if p[-1] > 0 else [-c for c in p]


def _to_int_poly(f: Poly) -> list[int]:
    """Scale to integer coefficients (primitive part sign-normalized)."""
    if f.is_zero:
        return []
    return _primitive_part(linalg.integer_row(f.coeffs)[0])


def _int_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of integer polynomials a by nonzero b, lowest
    degree first, the remainder with no trailing zeros.

    The one long-division loop: it clears the coefficients of a from the
    top, one fixed position per quotient coefficient, and each quotient
    coefficient is an exact integer when b divides a in Z[x], or when a has
    been multiplied by lead(b)^(deg a - deg b + 1) (pseudo-division).
    """
    rem, db, lead = a[:], len(b) - 1, b[-1]
    quo = [0] * max(len(a) - db, 0)
    for k in range(len(quo) - 1, -1, -1):
        q = quo[k] = rem[k + db] // lead
        if q:
            for j, bc in enumerate(b):
                rem[k + j] -= q * bc
    while rem and rem[-1] == 0:
        rem.pop()
    return quo, rem


def _int_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd, leading coefficient positive, of integer polynomials
    (lowest degree first) by the primitive pseudo-remainder sequence.

    Taking the primitive part of every remainder keeps the intermediate
    coefficients from exploding.  The gcd of zero and zero is zero, [].
    """
    if len(a) < len(b):
        a, b = b, a
    while b:
        lead, d = b[-1], len(a) - len(b)
        rem = _int_divmod([c * lead ** (d + 1) for c in a], b)[1]
        a, b = b, rem and _primitive_part(rem)
    return a and _primitive_part(a)


def _int_derivative(a: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(a)][1:]


def _int_sub(a: list[int], b: list[int]) -> list[int]:
    out = [x - y for x, y in zip_longest(a, b, fillvalue=0)]
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd via the primitive pseudo-remainder sequence (_int_gcd).

    Working on primitive integer polynomials keeps the intermediate
    coefficients from exploding; only the final result is made monic.
    """
    return Poly(_int_gcd(_to_int_poly(f), _to_int_poly(g))).monic()


def poly_lcm(f: Poly, g: Poly) -> Poly:
    """Monic lcm, (a / gcd) * b on the primitive integer forms a and b.

    The gcd is primitive, so by Gauss's lemma a / gcd is an integer
    polynomial and _int_divmod meets only exact quotients.  The lcm of zero
    and anything is zero.
    """
    a, b = _to_int_poly(f), _to_int_poly(g)
    d = _int_gcd(a, b)
    if not d:  # f and g both zero
        return Poly.zero()
    return (Poly(_int_divmod(a, d)[0]) * Poly(b)).monic()


@dataclass(frozen=True)
class SqfProfile:
    """Squarefree multiplicity structure of a polynomial.

    parts are (multiplicity, monic squarefree factor) with pairwise
    distinct multiplicities; content * prod(factor**mult) rebuilds the
    input exactly.
    """

    parts: tuple[tuple[int, Poly], ...]
    content: Fraction

    def to_json(self):
        return {
            "content": str(self.content),
            "parts": [[m, p.to_json()] for m, p in self.parts],
        }


def squarefree_decompose(f: Poly) -> SqfProfile:
    """Yun's algorithm on the primitive integer form of f.

    With p = _to_int_poly(f) and g the primitive gcd of p and p', every
    divisor in the loop (g, then each gcd a) is primitive, so by Gauss's
    lemma each quotient p/g, p'/g, c/a and d/a is an integer polynomial and
    the loop never leaves Z[x].  The i-th gcd is the product of the
    irreducible factors of multiplicity i; only those are made monic Polys.
    """
    if f.is_constant:
        raise ConstantPolynomial(f"cannot decompose constant polynomial {f}")
    p = _to_int_poly(f)
    dp = _int_derivative(p)
    g = _int_gcd(p, dp)
    c = _int_divmod(p, g)[0]
    d = _int_sub(_int_divmod(dp, g)[0], _int_derivative(c))
    parts, i = [], 1
    while len(c) > 1:
        a = _int_gcd(c, d)
        if len(a) > 1:
            parts.append((i, Poly(a).monic()))
        c = _int_divmod(c, a)[0]
        d = _int_sub(_int_divmod(d, a)[0], _int_derivative(c))
        i += 1
    return SqfProfile(parts=tuple(parts), content=f.leading)
