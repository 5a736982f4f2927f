"""Additive-combinatorics engine for subspaces of an algebra.

Covers the e-transform recursion and its certificates, Kneser-Diderrich
dimension bounds, connectivity/atoms in split etale algebras, and the
small-doubling analysis.  Everything is exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import classify, linalg
from . import subspace as sub
from .algebra import Element
from .errors import (
    AddalgError,
    EpsilonOutOfRange,
    LambdaOutOfRange,
    NoInvertibleFound,
    NoInvertibleInA,
    NoInvertibleInB,
    NotCommutative,
    NotInB,
    NotInvertible,
)
from .subspace import Subspace

__all__ = [
    "e_transform",
    "DiderrichCertificate",
    "diderrich_certificate",
    "olson_weak_certificate",
    "KneserReport",
    "kneser_check",
    "NfoldReport",
    "kneser_nfold_check",
    "connectivity_value",
    "ConnectivityReport",
    "atom_exact_split",
    "HamidouneReport",
    "hamidoune_check",
    "TaoReport",
    "tao_check",
]


def _pairwise_commuting(v: Subspace) -> bool:
    elems = v.elements()
    return all(x * y == y * x for i, x in enumerate(elems) for y in elems[i + 1:])


def e_transform(a: Subspace, b: Subspace, e: Element) -> tuple[Subspace, Subspace]:
    """(A, B) -> (A n Be^-1, B + Ae); preserves the dimension sum."""
    if not b.contains(e):
        raise NotInB("transform pivot e must lie in B")
    inv = e.invert()
    if not isinstance(inv, Element):
        raise NotInvertible("transform pivot e must be invertible")
    a_new = sub.lattice_intersect(a, sub.translate(inv, b, side="right"))
    b_new = sub.lattice_sum(b, sub.translate(e, a, side="right"))
    return a_new, b_new


@dataclass(frozen=True)
class DiderrichCertificate:
    """Constructive witness (subalgebra, module space) for the sum bound."""

    a: Element
    subalgebra: Subspace
    space: Subspace
    recursion_depth: int
    source_a: Subspace
    source_b: Subspace

    def violations(self) -> list[str]:
        """Mechanical check of every certificate invariant; empty means valid."""
        out = []
        h, v = self.subalgebra, self.space
        src_a, src_b = self.source_a, self.source_b
        if not sub.is_subalgebra(h):
            out.append("subalgebra closure")
        if not h.contains_unit():
            out.append("unit in subalgebra")
        gen = sub.subalgebra_generated(src_a.elements())
        if not gen.contains_space(h):
            out.append("subalgebra inside generated algebra of A")
        prod = sub.product_span(src_a, src_b)
        if not prod.contains_space(v):
            out.append("space inside span of AB")
        ab = sub.translate(self.a, src_b, side="left")
        if not v.contains_space(ab):
            out.append("span of aB inside space")
        if sub.product_span(h, v) != v:
            out.append("module property H*V = V")
        if sub.contains_invertible(v).kind != "YES":
            out.append("invertible in space")
        if v.dim + h.dim < src_a.dim + src_b.dim:
            out.append("dimension inequality")
        return out


def _recurse(a: Subspace, b: Subspace) -> tuple[Subspace, Subspace, int]:
    """Proof recursion; expects unit in A and in B.

    The unit stays in both: e in B gives 1 = e e^-1 in Be^-1, and B + Ae
    holds B.  A pivot e leaves A alone exactly when Ae <= B, and Ae <= B for
    every e of a basis of B gives span(AB) <= B by linearity.  So once
    span(AB) is not inside B, some element of B's invertible basis shrinks A.
    """
    alg = a.algebra
    if a.dim == 1:
        return sub.unit_span(alg), b, 0
    # span(AB) <= B gives Ae <= B, so A n Be^-1 = A, for every e in B: no pivot can shrink A
    if b.contains_space(sub.product_span(a, b)):
        return sub.subalgebra_generated(a.elements()), b, 0
    for e in sub.invertible_basis(b):
        a_e, b_e = e_transform(a, b, e)
        if a_e.dim < a.dim:
            h, v, depth = _recurse(a_e, b_e)
            return h, v, depth + 1
    raise AddalgError("no invertible basis pivot shrank A although span(AB) is not "
                      "inside B, against the lemma that Ae <= B for a basis of B "
                      "gives span(AB) <= B")


def diderrich_certificate(a: Subspace, b: Subspace, seed: int = 0) -> DiderrichCertificate:
    """Constructive certificate for dim V + dim H >= dim A + dim B.

    Follows the e-transform recursion: normalize both sides by chosen
    invertibles so the unit lies in A and B, shrink A while span(AB) is not
    contained in span(B), and fall back to the generated subalgebra once it
    is.  An element of B's invertible basis always shrinks A, since Ae <= B
    for every e of a basis of B gives span(AB) <= B.  The seed drives only
    the invertibility searches on A and B.
    """
    if not _pairwise_commuting(a):
        raise NotCommutative("A must consist of pairwise commuting elements")
    cert_a = sub.contains_invertible(a, seed=seed)
    if cert_a.kind != "YES":
        raise NoInvertibleInA(f"certificate {cert_a.kind} for A")
    cert_b = sub.contains_invertible(b, seed=seed)
    if cert_b.kind != "YES":
        raise NoInvertibleInB(f"certificate {cert_b.kind} for B")
    xa, xb = cert_a.witness, cert_b.witness
    inv_a = xa.invert()
    inv_b = xb.invert()
    a_norm = sub.translate(inv_a, a, side="left")  # a^-1 A
    b_norm = sub.translate(inv_b, b, side="right")  # B b^-1
    h, v, depth = _recurse(a_norm, b_norm)
    v = sub.translate(xb, v, side="right")
    v = sub.translate(xa, v, side="left")
    return DiderrichCertificate(a=xa, subalgebra=h, space=v, recursion_depth=depth,
                                source_a=a, source_b=b)


@dataclass(frozen=True)
class OlsonReport:
    certificate: DiderrichCertificate
    dim_product: int
    dim_s: int
    dim_h: int
    chain_ok: bool


def olson_weak_certificate(v: Subspace, w: Subspace, seed: int = 0) -> OlsonReport:
    """Subspace S and subalgebra H with dim<VW> >= dim S >= dim V + dim W - dim H."""
    cert = diderrich_certificate(v, w, seed=seed)
    prod = sub.product_span(v, w)
    s, h = cert.space, cert.subalgebra
    chain = prod.dim >= s.dim >= v.dim + w.dim - h.dim
    return OlsonReport(certificate=cert, dim_product=prod.dim, dim_s=s.dim,
                       dim_h=h.dim, chain_ok=chain)


@dataclass(frozen=True)
class KneserReport:
    dim_a: int
    dim_b: int
    dim_product: int
    dim_stab: int
    bound_holds: bool
    dim_ha: int | None = None
    dim_hb: int | None = None
    strong_bound_holds: bool | None = None

    def to_json(self):
        out = {
            "dim_A": self.dim_a,
            "dim_B": self.dim_b,
            "dim_AB": self.dim_product,
            "dim_H": self.dim_stab,
            "bound_holds": self.bound_holds,
        }
        if self.strong_bound_holds is not None:
            out.update({
                "dim_HA": self.dim_ha,
                "dim_HB": self.dim_hb,
                "strong_bound_holds": self.strong_bound_holds,
            })
        return out


def kneser_check(a: Subspace, b: Subspace) -> KneserReport:
    """dim(AB) >= dim A + dim B - dim H with H the left stabilizer of span(AB).

    The two-factor case of kneser_nfold_check: in a commutative algebra the
    strengthened bound through HA and HB is checked as well, and elsewhere
    dim_ha, dim_hb and strong_bound_holds are None.
    """
    rep = kneser_nfold_check([a, b])
    dim_ha, dim_hb = rep.dims_ih or (None, None)
    return KneserReport(a.dim, b.dim, rep.dim_product, rep.dim_stab, rep.bound_holds,
                        dim_ha, dim_hb, rep.strong_bound_holds)


@dataclass(frozen=True)
class NfoldReport:
    dims: tuple[int, ...]
    dim_product: int
    dim_stab: int
    bound_holds: bool
    dims_ih: tuple[int, ...] | None = None
    strong_bound_holds: bool | None = None

    def to_json(self):
        out = {
            "dims": list(self.dims),
            "dim_product": self.dim_product,
            "dim_H": self.dim_stab,
            "bound_holds": self.bound_holds,
        }
        if self.strong_bound_holds is not None:
            out.update({
                "dims_AiH": list(self.dims_ih),
                "strong_bound_holds": self.strong_bound_holds,
            })
        return out


def kneser_nfold_check(spaces: list[Subspace]) -> NfoldReport:
    """dim(A_1...A_n) >= sum dim A_i - (n - 1) dim H, H the left stabilizer
    of span(A_1...A_n).

    The strengthened bound through the dims_ih = dim span(H A_i) is a
    theorem only in a commutative algebra, so it is checked only there
    (where H A_i = A_i H); elsewhere dims_ih and strong_bound_holds are None.
    """
    if len(spaces) < 2:
        raise ValueError("need at least two factors")
    prod = spaces[0]
    for s in spaces[1:]:
        prod = sub.product_span(prod, s)
    h = sub.stabilizer(prod, "left")
    n = len(spaces)
    dims = tuple(s.dim for s in spaces)
    plain = prod.dim >= sum(dims) - (n - 1) * h.dim
    if not prod.algebra.commutative:
        return NfoldReport(dims, prod.dim, h.dim, plain)
    dims_ih = tuple(sub.product_span(h, s).dim for s in spaces)
    strong = prod.dim >= sum(dims_ih) - (n - 1) * h.dim
    return NfoldReport(dims, prod.dim, h.dim, plain, dims_ih, strong)


# -- connectivity -----------------------------------------------------


def _check_lambda(lam: Fraction):
    if not (0 < lam <= 1):
        raise LambdaOutOfRange(f"lambda must lie in (0, 1], got {lam}")


def connectivity_value(w: Subspace, v: Subspace, lam: Fraction) -> Fraction:
    """c(W) = dim span(WV) - lambda * dim W."""
    _check_lambda(Fraction(lam))
    return Fraction(sub.product_span(w, v).dim) - Fraction(lam) * w.dim


@dataclass(frozen=True)
class ConnectivityReport:
    lam: Fraction
    v: Subspace
    kappa: Fraction
    atom: Subspace
    atom_partition: tuple
    evaluated: tuple  # (partition, c value) pairs
    tie_anomaly: bool

    def to_json(self):
        return {
            "lambda": str(self.lam),
            "kappa": str(self.kappa),
            "atom_partition": [list(b) for b in self.atom_partition],
            "atom_dim": self.atom.dim,
            "evaluated": [
                {"partition": [list(b) for b in p], "c": str(c)}
                for p, c in self.evaluated
            ],
            "tie_anomaly": self.tie_anomaly,
        }


def atom_exact_split(v: Subspace, lam: Fraction,
                     cap: int = classify.DEFAULT_PARTITION_CAP) -> ConnectivityReport:
    """Exact atom of V in a split etale algebra.

    The atom containing the unit is a subalgebra, and in Q^n the
    subalgebras are exactly the partition spans W_pi = span{e_P : P in pi},
    so exhaustive minimization of c over them computes kappa and the atom.
    The basis is orthogonal idempotents, so span(W_pi V) is the direct sum
    of the e_P V, and e_P V is V cut to the columns of P: each c is
    sum_P rank(V|_P) - lambda*|pi|.  Each block's echelon form is built once,
    from the form of the block without its last index plus that column.
    Only the atom is built as a Subspace.
    """
    lam = Fraction(lam)
    _check_lambda(lam)
    if sub.contains_invertible(v).kind != "YES":
        raise NoInvertibleFound("V must contain an invertible element")
    parts = classify.split_partitions(v.algebra, cap=cap)
    n = v.algebra.dim
    cols = list(zip(*v.rows))
    forms = {(): ([], [])}  # block -> forward echelon form (rows, pivots) of its columns
    ranks = {}
    for mask in range(1, 1 << n):  # a block's prefix has a smaller mask
        block = tuple(i for i in range(n) if mask >> i & 1)
        rows, pivots = forms[block[:-1]]
        rows, pivots = rows[:], pivots[:]
        linalg.echelon_add(rows, pivots, cols[block[-1]])
        forms[block] = rows, pivots
        ranks[block] = len(pivots)
    values = {}  # (dim span(WV), dim W) -> c
    num, den = lam.numerator, lam.denominator
    evaluated = []
    best = None
    tie = False
    for part in parts:
        dim_wv = sum(map(ranks.__getitem__, part))
        k = len(part)
        c = values.get((dim_wv, k))
        if c is None:
            c = values[dim_wv, k] = dim_wv - lam * k
        evaluated.append((part, c))
        key = (dim_wv * den - k * num, k)  # (den * c, dim W)
        if best is None or key < best[0]:
            best = (key, part, c)
            tie = False
        elif key == best[0]:
            tie = True  # the unique-atom result says this should not happen
    _, part, kappa = best
    return ConnectivityReport(lam=lam, v=v, kappa=kappa,
                              atom=sub.block_span(v.algebra, part),
                              atom_partition=part, evaluated=tuple(evaluated),
                              tie_anomaly=tie)


@dataclass(frozen=True)
class HamidouneReport:
    lam: Fraction
    dim_wv: int
    dim_w: int
    dim_v: int
    atom_dim: int
    rhs: Fraction
    holds: bool
    slack: Fraction

    def to_json(self):
        return {
            "lambda": str(self.lam),
            "dim_WV": self.dim_wv,
            "dim_W": self.dim_w,
            "dim_V": self.dim_v,
            "atom_dim": self.atom_dim,
            "rhs": str(self.rhs),
            "holds": self.holds,
            "slack": str(self.slack),
        }


def hamidoune_check(w: Subspace, v: Subspace, lam: Fraction,
                    atom: Subspace) -> HamidouneReport:
    """dim span(WV) >= lam*dim W + dim V - lam*dim(atom), evaluated exactly."""
    lam = Fraction(lam)
    _check_lambda(lam)
    lhs = Fraction(sub.product_span(w, v).dim)
    rhs = lam * w.dim + v.dim - lam * atom.dim
    return HamidouneReport(lam=lam, dim_wv=int(lhs), dim_w=w.dim, dim_v=v.dim,
                           atom_dim=atom.dim, rhs=rhs, holds=lhs >= rhs,
                           slack=lhs - rhs)


@dataclass(frozen=True)
class TaoReport:
    epsilon: Fraction
    hypotheses_met: bool
    dim_v: int
    dim_w: int
    dim_wv: int
    dim_h: int | None = None
    dim_hv: int | None = None
    h_small: bool | None = None
    v_in_hv: bool | None = None
    hv_small: bool | None = None

    @property
    def conclusions_hold(self) -> bool | None:
        if not self.hypotheses_met:
            return None
        return bool(self.h_small and self.v_in_hv and self.hv_small)

    def to_json(self):
        out = {
            "epsilon": str(self.epsilon),
            "hypotheses_met": self.hypotheses_met,
            "dim_V": self.dim_v,
            "dim_W": self.dim_w,
            "dim_WV": self.dim_wv,
        }
        if self.hypotheses_met:
            out.update({
                "dim_H": self.dim_h,
                "dim_HV": self.dim_hv,
                "h_small": self.h_small,
                "v_in_hv": self.v_in_hv,
                "hv_small": self.hv_small,
                "conclusions_hold": self.conclusions_hold,
            })
        return out


def tao_check(v: Subspace, w: Subspace, epsilon: Fraction,
              cap: int = classify.DEFAULT_PARTITION_CAP) -> TaoReport:
    """Small-doubling analysis via the atom at lambda = 1 - epsilon/2.

    Hypotheses (dim W >= dim V, dim span(WV) <= (2 - eps) dim V) are
    verified exactly; when unmet the report says so without claiming
    anything about the conclusions.
    """
    eps = Fraction(epsilon)
    if not (0 < eps < 2):
        raise EpsilonOutOfRange(f"epsilon must lie in (0, 2), got {eps}")
    wv = sub.product_span(w, v)
    hyp = w.dim >= v.dim and Fraction(wv.dim) <= (2 - eps) * v.dim
    if not hyp:
        return TaoReport(epsilon=eps, hypotheses_met=False, dim_v=v.dim,
                         dim_w=w.dim, dim_wv=wv.dim)
    lam = 1 - eps / 2
    atom = atom_exact_split(v, lam, cap=cap).atom
    hv = sub.product_span(atom, v)
    budget = (Fraction(2) / eps - 1)
    return TaoReport(
        epsilon=eps, hypotheses_met=True, dim_v=v.dim, dim_w=w.dim,
        dim_wv=wv.dim, dim_h=atom.dim, dim_hv=hv.dim,
        h_small=Fraction(atom.dim) <= budget * v.dim,
        v_in_hv=hv.contains_space(v),
        hv_small=Fraction(hv.dim) <= budget * atom.dim,
    )
