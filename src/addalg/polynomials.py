"""Univariate polynomials over the rationals.

Coefficients are stored lowest degree first; the zero polynomial is the
empty coefficient tuple and its degree is None (a sentinel, never -1).
Poly.__post_init__ is the one normal form: every constructor and
operation passes its coefficients through it, and it stores them as
Fractions with no trailing zeros.  Includes monic gcd and Yun-style
squarefree decomposition, which is all the subalgebra classifier needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
    def monomial(deg: int, c=1) -> "Poly":
        return Poly.of(*([0] * deg + [c]))

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

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        if c == 0:
            return Poly.zero()
        return Poly(tuple(c * a for a in self.coeffs))

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dd, dv = len(rem) - 1, other.degree
        lead = other.leading
        quo = [Fraction(0)] * max(dd - dv + 1, 0)
        while len(rem) - 1 >= dv and rem:
            c = rem[-1] / lead
            k = len(rem) - 1 - dv
            quo[k] = c
            for j, b in enumerate(other.coeffs):
                rem[k + j] -= c * b
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly(quo), Poly(rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        return self.scale(1 / self.leading)

    def derivative(self) -> "Poly":
        return Poly(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

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


def _to_int_poly(f: Poly) -> list[int]:
    """Scale to integer coefficients (primitive part sign-normalized)."""
    if f.is_zero:
        return []
    ints = linalg.primitive(linalg.integer_row(f.coeffs)[0])
    return ints if ints[-1] > 0 else [-c for c in ints]


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd via the primitive pseudo-remainder sequence.

    Working on primitive integer polynomials keeps the intermediate
    coefficients from exploding; only the final result is made monic.
    """
    a, b = _to_int_poly(f), _to_int_poly(g)
    if len(a) < len(b):
        a, b = b, a
    while b:
        # pseudo-remainder of a by b
        d = len(a) - len(b)
        lead = b[-1]
        rem = [c * lead ** (d + 1) for c in a]
        while len(rem) >= len(b) and rem:
            # exact: rem starts as a * lead^(d+1), and each of the at most
            # d + 1 steps uses up one factor lead of every coefficient
            q = rem[-1] // lead
            k = len(rem) - len(b)
            for j, bc in enumerate(b):
                rem[k + j] -= q * bc
            while rem and rem[-1] == 0:
                rem.pop()
        # primitive part
        if rem:
            rem = linalg.primitive(rem)
            if rem[-1] < 0:
                rem = [-c for c in rem]
        a, b = b, rem
    return Poly(a).monic()


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
    """Yun's algorithm; factors of equal multiplicity are merged."""
    if f.is_constant:
        raise ConstantPolynomial(f"cannot decompose constant polynomial {f}")
    content = f.leading
    f = f.monic()
    by_mult: dict[int, Poly] = {}
    g = poly_gcd(f, f.derivative())
    if g.is_constant:
        by_mult[1] = f
    else:
        c = f // g
        d = (f.derivative() // g) - c.derivative()
        i = 1
        while not c.is_constant:
            a = poly_gcd(c, d)
            if not a.is_constant:
                prev = by_mult.get(i, Poly.one())
                by_mult[i] = (prev * a).monic()
            c = c // a
            d = (d // a) - c.derivative()
            i += 1
    parts = tuple(sorted(((m, p) for m, p in by_mult.items()), key=lambda t: t[0]))
    return SqfProfile(parts=parts, content=content)
