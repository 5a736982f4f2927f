"""Additive-combinatorics engine for subspaces of an algebra.

Covers the e-transform recursion and its certificates, Kneser-Diderrich
dimension bounds, connectivity and atoms, and the small-doubling
analysis.  Everything is exact rational arithmetic.  atom() is the one
entry point for an atom: at lambda = 1 it works in any algebra, at other
lambda it enumerates the subalgebras of a split etale algebra.

The e-transform works in A's own coordinates: it forms the images a_i*e
once, reads their residuals against B's projection, and takes A n Be^-1
from one kernel over dim A columns and B + Ae from the same images.  The
recursion tests span(AB) <= B product by product against B's projection
(subspace._products_within), and draws its pivots one at a time from B's
invertible points (subspace._invertible_points), stopping at the first that
shrinks A.  A certificate's checks each stop at their first proof: see
DiderrichCertificate.violations.
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
    ZeroSubspace,
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
    "atom",
    "HamidouneReport",
    "hamidoune_check",
    "TaoReport",
    "tao_check",
]


def _pairwise_commuting(v: Subspace) -> bool:
    if v.algebra.commutative:
        return True
    elems = v.elements()
    return all(x * y == y * x for i, x in enumerate(elems) for y in elems[i + 1:])


def e_transform(a: Subspace, b: Subspace, e: Element) -> tuple[Subspace, Subspace]:
    """(A, B) -> (A n Be^-1, B + Ae); preserves the dimension sum.

    Guards the pivot e (in B, invertible) and the algebras, then takes _e_step.
    """
    if not b.contains(e):
        raise NotInB("transform pivot e must lie in B")
    if not e.is_invertible:
        raise NotInvertible("transform pivot e must be invertible")
    sub._check_same(a, b)
    return _e_step(a, b, e)


def _e_step(a: Subspace, b: Subspace, e: Element) -> tuple[Subspace, Subspace]:
    """The e-transform of a pivot e already known to be an invertible of B.

    Both halves come from the images a_i*e of A's rows, formed once.  Be^-1
    is {y : y*e in B}, so A n Be^-1 is the combinations of A's rows whose
    image lies in B (subspace._inverse_image), with no inverse formed, and
    B + Ae is the span of B's rows and the images.
    """
    alg = b.algebra
    es = linalg.nonzeros(e.num)
    # den * a_i*e; a common positive scale changes neither span nor kernel
    images = [alg.mul_pairs(x, es) for x in a.row_nonzeros]
    return sub._inverse_image(alg, a.rows, images, b), sub._span(alg, [*b.rows, *images])


def _unit_line(h: Subspace) -> bool:
    """Whether H is the unit line Q*1: then H lies in every unital subalgebra,
    and H*X = X for every space X."""
    return h.dim == 1 and h.contains_unit()


def _in_generated(h: Subspace, a: Subspace) -> bool:
    """Whether H lies in K[A], the subalgebra A generates: at once when H is
    the unit line; otherwise at the first span of A's closure chain that
    holds H, each of which lies in K[A], and False once the chain saturates."""
    return _unit_line(h) or any(s.contains_space(h) for s in sub._closure(a.elements()))


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
        """Mechanical check of every certificate invariant; empty means valid.

        Each check reads only the certificate and its sources, and stops at
        its first proof.  H lies in K[A] at once when it is the unit line,
        and otherwise as soon as one span of A's closure chain holds it (each
        lies in K[A]).  aB <= V and H*V <= V are read product by product
        through V's projection; when H holds the unit, H*V <= V gives
        H*V = V, and only an H without it has its product span formed.
        """
        out = []
        h, v = self.subalgebra, self.space
        src_a, src_b = self.source_a, self.source_b
        if not sub.is_subalgebra(h):
            out.append("subalgebra closure")
        unit = h.contains_unit()
        if not unit:
            out.append("unit in subalgebra")
        if not _in_generated(h, src_a):
            out.append("subalgebra inside generated algebra of A")
        if not sub.product_span(src_a, src_b).contains_space(v):
            out.append("space inside span of AB")
        if not src_a.contains(self.a):
            out.append("a inside A")
        if not self.a.is_invertible:
            out.append("a invertible")
        if not sub._products_within([linalg.nonzeros(self.a.num)], src_b, v):
            out.append("span of aB inside space")
        sub._check_same(h, v)
        if not (sub._products_within(h.row_nonzeros, v, v)
                and (unit or sub.product_span(h, v) == v)):
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
    span(AB) <= B iff every product a_i*b_j of their rows lies in B, so the
    test reads each product through B's projection, stopping at the first
    outside B (subspace._products_within), and builds no span of AB.  The
    pivots are B's r = dim B invertible line points (subspace._invertible_points),
    which the degree bound guarantees and which span B, so one of them
    shrinks A; the closing AddalgError names a breach of that lemma.
    """
    if a.dim == 1:
        return sub.unit_span(a.algebra), b, 0
    # span(AB) <= B gives Ae <= B, so A n Be^-1 = A, for every e in B: no pivot can shrink A
    if sub._products_within(a.row_nonzeros, b, b):
        return sub.subalgebra_generated(a.elements()), b, 0
    for e in sub._invertible_points(b):  # each already tested invertible
        a_e, b_e = _e_step(a, b, e)
        if a_e.dim < a.dim:
            h, v, depth = _recurse(a_e, b_e)
            return h, v, depth + 1
    raise AddalgError("no invertible basis pivot shrank A although span(AB) is not "
                      "inside B, against the lemma that Ae <= B for a basis of B "
                      "gives span(AB) <= B")


def diderrich_certificate(a: Subspace, b: Subspace) -> DiderrichCertificate:
    """Constructive certificate for dim V + dim H >= dim A + dim B.

    Follows the e-transform recursion: normalize both sides by chosen
    invertibles so the unit lies in a^-1 A and B b^-1, shrink A while
    span(AB) is not contained in span(B), and fall back to the generated
    subalgebra once it is.  Every division is a preimage (subspace.preimage),
    so no inverse is formed; a side whose chosen invertible is the unit,
    which it is exactly when the side holds the unit, is taken as it is, and
    its final translate is skipped (1*A = A and V*1 = V).  An element of B's
    invertible basis always shrinks A, since Ae <= B for every e of a basis
    of B gives span(AB) <= B.
    """
    sub._check_same(a, b)
    if not _pairwise_commuting(a):
        raise NotCommutative("A must consist of pairwise commuting elements")
    cert_a = sub.contains_invertible(a)
    if cert_a.kind != "YES":
        raise NoInvertibleInA(f"certificate {cert_a.kind} for A")
    cert_b = sub.contains_invertible(b)
    if cert_b.kind != "YES":
        raise NoInvertibleInB(f"certificate {cert_b.kind} for B")
    xa, xb, one = cert_a.witness, cert_b.witness, a.algebra.one()
    a_norm = a if xa == one else sub.preimage(xa, a, side="left")  # a^-1 A = {y : a*y in A}
    b_norm = b if xb == one else sub.preimage(xb, b, side="right")  # B b^-1 = {y : y*b in B}
    h, v, depth = _recurse(a_norm, b_norm)
    if xb != one:
        v = sub.translate(xb, v, side="right")
    if xa != one:
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


def olson_weak_certificate(v: Subspace, w: Subspace) -> OlsonReport:
    """Subspace S and subalgebra H with dim<VW> >= dim S >= dim V + dim W - dim H."""
    cert = diderrich_certificate(v, w)
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
    When H is the unit line, H A_i = A_i and dims_ih is dims.
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
    dims_ih = dims if _unit_line(h) else tuple(sub.product_span(h, s).dim for s in spaces)
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


def _split_keys(v: Subspace, lam: Fraction, cap: int) -> tuple[tuple, list]:
    """The set partitions of a split etale algebra and each one's integer key
    (den*c, |pi|) for V at lambda = num/den, in lex partition order.

    The refusals come in a fixed order, all before V's block ranks are read:
    lambda, the zero subspace, V without an invertible, then NotSplitEtale
    and CapExceeded.  In Q^n, x is invertible iff no coordinate of x is 0,
    and V, not being a union of n proper subspaces, holds such an x iff no
    column of V is zero; other algebras keep the invertibility search.  The
    basis is orthogonal idempotents, so span(W_pi V) is the direct sum of the
    e_P V, and e_P V is V cut to the columns of P: each c is
    sum_P rank(V|_P) - lambda*|pi|, read off V's cached block-rank table.
    """
    _check_lambda(lam)
    alg = v.algebra
    if v.dim == 0:  # the invertibility search's refusal, word for word
        raise ZeroSubspace("cannot search the zero subspace for invertibles")
    if not (all(map(any, zip(*v.rows))) if alg.split_etale
            else sub.contains_invertible(v).kind == "YES"):
        raise NoInvertibleFound("V must contain an invertible element")
    parts = classify.split_partitions(alg, cap=cap)
    ranks, num, den = v._column_ranks, lam.numerator, lam.denominator
    keys = [(sum(map(ranks.__getitem__, masks)) * den - len(masks) * num, len(masks))
            for masks in classify._partition_masks(alg.dim)]
    return parts, keys


def atom_exact_split(v: Subspace, lam: Fraction,
                     cap: int = classify.DEFAULT_PARTITION_CAP) -> ConnectivityReport:
    """Exact atom of V in a split etale algebra.

    The atom containing the unit is a subalgebra, and in Q^n the
    subalgebras are exactly the partition spans W_pi = span{e_P : P in pi},
    so exhaustive minimization of c over them computes kappa and the atom.
    Each partition's c comes as an integer key from _split_keys: the atom is
    the first least key (least c, then fewest blocks), and tie_anomaly says
    that key occurs twice.  Only the atom is built as a Subspace.
    """
    lam = Fraction(lam)
    parts, keys = _split_keys(v, lam, cap)
    best = min(keys)
    part = parts[keys.index(best)]
    den = lam.denominator
    c_of = {k: Fraction(k, den) for k, _ in set(keys)}
    return ConnectivityReport(lam=lam, kappa=c_of[best[0]],
                              atom=sub.block_span(v.algebra, part), atom_partition=part,
                              evaluated=tuple((p, c_of[k]) for p, (k, _) in zip(parts, keys)),
                              tie_anomaly=keys.count(best) > 1)


def atom(v: Subspace, lam: Fraction, cap: int = classify.DEFAULT_PARTITION_CAP) -> Subspace:
    """The atom of V: the least subalgebra W minimising c(W).

    At lambda = 1, in any algebra: for u an invertible of V, span(WV) holds
    Wu, so c(W) >= 0, with equality iff V u^-1 <= W; the atom is the
    subalgebra generated by V u^-1, taken as a preimage with no inverse
    formed.  At any other lambda it is atom_exact_split's atom, the span of
    the partition with the first least key, which needs a split etale
    algebra of dimension at most cap; no report is built.
    """
    if lam != 1:
        parts, keys = _split_keys(v, Fraction(lam), cap)
        return sub.block_span(v.algebra, parts[keys.index(min(keys))])
    cert = sub.contains_invertible(v)
    if cert.kind != "YES":
        raise NoInvertibleFound("V must contain an invertible element")
    return sub.subalgebra_generated(sub.preimage(cert.witness, v, "right").elements())


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
    h = atom(v, 1 - eps / 2, cap)
    hv = sub.product_span(h, v)
    budget = (Fraction(2) / eps - 1)
    return TaoReport(
        epsilon=eps, hypotheses_met=True, dim_v=v.dim, dim_w=w.dim,
        dim_wv=wv.dim, dim_h=h.dim, dim_hv=hv.dim,
        h_small=Fraction(h.dim) <= budget * v.dim,
        v_in_hv=hv.contains_space(v),
        hv_small=Fraction(hv.dim) <= budget * h.dim,
    )
