"""Exact additive combinatorics in finite-dimensional associative
unital algebras over Q: Minkowski product spans, stabilizers,
subalgebra-lattice classification, e-transform certificates,
connectivity atoms, small-doubling checks, and the group/monoid
bridges."""

from fractions import Fraction as Rat

from .algebra import Algebra, Element, NonInvertible, min_poly
from .polynomials import Poly, SqfProfile, poly_gcd, squarefree_decompose
from .subspace import Subspace

__version__ = "0.1.0"

__all__ = [
    "Algebra",
    "Element",
    "NonInvertible",
    "min_poly",
    "Poly",
    "Rat",
    "SqfProfile",
    "poly_gcd",
    "squarefree_decompose",
    "Subspace",
    "__version__",
]
