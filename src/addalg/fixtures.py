"""Built-in catalog of multiplication tables and algebras.

Tables: cyclic groups Z2..Z12, the Klein four-group V4, S3, the
five-element monoid paper-m7 (a^2 = b^2 = ab = ba, a^4 = a) and the
graded two-generator monoid graded-m truncated at word length 3 with an
absorbing zero.  Algebras: nilpotent quotients Q[T]/T^n, split etale
Q^n, the repeated-quadratic quotient, a nilpotent product and M_2(Q).
"""

from __future__ import annotations

from itertools import permutations

from .algebra import (
    Algebra,
    matrix_algebra,
    poly_quotient_product,
    split_etale_algebra,
)
from .discrete import MulTable
from .errors import SchemaError
from .polynomials import Poly

__all__ = [
    "cyclic",
    "klein_four",
    "symmetric_3",
    "paper_m7",
    "graded_m",
    "table_fixture",
    "algebra_fixture",
    "TABLE_NAMES",
    "ALGEBRA_NAMES",
]


def cyclic(n: int) -> MulTable:
    rows = [[(i + j) % n for j in range(n)] for i in range(n)]
    return MulTable.build(rows, 0, [str(i) for i in range(n)], label=f"Z{n}")


def klein_four() -> MulTable:
    # elements are bit pairs, product is xor
    rows = [[i ^ j for j in range(4)] for i in range(4)]
    return MulTable.build(rows, 0, ["e", "a", "b", "c"], label="V4")


def symmetric_3() -> MulTable:
    perms = sorted(permutations(range(3)))
    names = {
        (0, 1, 2): "e", (1, 0, 2): "(01)", (2, 1, 0): "(02)",
        (0, 2, 1): "(12)", (1, 2, 0): "(012)", (2, 0, 1): "(021)",
    }
    idx = {p: i for i, p in enumerate(perms)}
    # (p*q)(x) = p(q(x))
    rows = [
        [idx[tuple(p[q[x]] for x in range(3))] for q in perms]
        for p in perms
    ]
    return MulTable.build(rows, idx[(0, 1, 2)], [names[p] for p in perms], label="S3")


def _power_monoid(labels, lengths, mul_len, label):
    """Monoid where a product of non-units depends only on total word length."""
    n = len(labels)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == 0:
                row.append(j)
            elif j == 0:
                row.append(i)
            else:
                row.append(mul_len(lengths[i] + lengths[j]))
        rows.append(row)
    return MulTable.build(rows, 0, labels, label=label)


def paper_m7() -> MulTable:
    """{1, a, b, a^2, a^3} with a^2 = b^2 = ab = ba and a^4 = a."""
    labels = ["1", "a", "b", "a2", "a3"]
    lengths = [0, 1, 1, 2, 3]

    def mul_len(total):
        m = (total - 1) % 3 + 1  # a^4 = a folds lengths mod 3
        return {1: 1, 2: 3, 3: 4}[m]

    return _power_monoid(labels, lengths, mul_len, "paper-m7")


def graded_m() -> MulTable:
    """Two-generator graded monoid, words of length > 3 collapse to zero."""
    labels = ["1", "a", "b", "a2", "a3", "0"]
    lengths = [0, 1, 1, 2, 3, 10**9]

    def mul_len(total):
        if total == 2:
            return 3
        if total == 3:
            return 4
        return 5

    return _power_monoid(labels, lengths, mul_len, "graded-m")


def _table_catalog():
    cat = {f"Z{n}": (lambda n=n: cyclic(n)) for n in range(2, 13)}
    cat["V4"] = klein_four
    cat["S3"] = symmetric_3
    cat["paper-m7"] = paper_m7
    cat["graded-m"] = graded_m
    return cat


_TABLES = _table_catalog()
TABLE_NAMES = tuple(sorted(_TABLES))


def table_fixture(name: str) -> MulTable:
    try:
        return _TABLES[name]()
    except KeyError:
        raise SchemaError(f"unknown table fixture {name!r}; "
                          f"known: {', '.join(TABLE_NAMES)}") from None


def _algebra_catalog():
    cat = {}
    for n in range(2, 5):
        cat[f"QT{n}"] = (lambda n=n: poly_quotient_product([Poly.monomial(n)], label=f"QT{n}"))
    # (T^2 + 1)^2 expanded: T^4 + 2 T^2 + 1
    cat["QP2"] = lambda: poly_quotient_product(
        [Poly.of(1, 0, 2, 0, 1)], label="QP2")
    cat["QT2xQT2"] = lambda: poly_quotient_product(
        [Poly.monomial(2), Poly.monomial(2)], label="QT2xQT2")
    for n in range(1, 7):
        cat[f"Q{n}"] = (lambda n=n: split_etale_algebra(n, label=f"Q{n}"))
    cat["M2x2"] = lambda: matrix_algebra(2, label="M2x2")
    for n in range(2, 13):
        cat[f"QZ{n}"] = (lambda n=n: cyclic(n).algebra())
    cat["QV4"] = lambda: klein_four().algebra()
    cat["QS3"] = lambda: symmetric_3().algebra()
    cat["Q[paper-m7]"] = lambda: paper_m7().algebra()
    cat["Q[graded-m]"] = lambda: graded_m().algebra()
    return cat


_ALGEBRAS = _algebra_catalog()
ALGEBRA_NAMES = tuple(sorted(_ALGEBRAS))


def algebra_fixture(name: str) -> Algebra:
    try:
        return _ALGEBRAS[name]()
    except KeyError:
        raise SchemaError(f"unknown algebra fixture {name!r}; "
                          f"known: {', '.join(ALGEBRA_NAMES)}") from None
