"""Hermitian Hecke operators at primes p not dividing D.

Inert primes act on lifts through the raw double-coset action.  Every
coset of the two generators is block upper triangular [[A, B], [0, Dm]]
with A Dm* = mu I, and a coset contributes

    det(gamma)^(k/2) det(Dm)^(-k) e(tr(h Dm* B)/mu) C(Dm h Dm* / mu)

to the output coefficient at h (weight pair (k, -k/2), where the
similitude center acts trivially).  Collecting cosets by the transform
they induce, with P^1 running over the residues of the order mod p plus
one extra element and alpha_a = [[p, a], [0, 1]] (alpha_p = diag(1, p)):

    (T_{p,0} c)(h) = S(h) c(h) + p^(4-k) sum_a c(alpha_a* h alpha_a)
                               + p^k     sum_a c(alpha_a* h alpha_a / p^2)
    (T_p c)(h)     = p^(4-k) c(p h) + p^k c(h/p)
                               + p      sum_a c(alpha_a* h alpha_a / p)

Out-of-lattice arguments contribute zero.  S(h) is the exact value of the
character sum over the diagonal-block cosets:

    S(h) = p - 1            if p does not divide det(h),
         = -p^2 + p - 1     if p | det(h) but h is nonzero mod p,
         = p^3 - p^2 + p -1 if h = 0 mod p;

these evaluations, not the rounded menu p, -p(p-1), p^2(p-1) sometimes
quoted, are forced: only they preserve the divisor-sum condition at
contents divisible by p and descend the two generators consistently to
polynomials in the classical T_p (see descend_op).

All arguments of one term share a determinant: p^2 det(h) for the
alpha-translates and c(p h), det(h)/p^2 for their quotients by p^2 and
c(h/p), det(h) for the rest.  A lift's coefficient depends only on
(det, content), by the divisor-sum condition.  Relative to (det(h), c),
c = content(h), the (det, content) multipliers of h's coset images depend
only on the row

    (min(v_p(det) - 2 v_p(c), 2), min(v_p(c), m)),  m = 2 for T_{p,0}, 1 for T_p,

for every h of positive det (the only points tables hold, and their images
have positive det too): a hermitian lattice over the unramified quadratic
extension of Q_p (one for every D) is fixed by its Jordan invariants, here
(v_p(c), v_p(det) - v_p(c)) (R. Jacobowitz, Hermitian forms over local
fields, Amer. J. Math. 84 (1962)), and the coset sum is invariant under
GL_2 of the local order.  At row (a, b), n of h's p^2 + 1 translates
alpha_a* h alpha_a have content p^j c and the rest c, with (n, j) =
(p+1, 1), (1, 1), (1, 2) at a = 0, 1, 2, and a translate is divisible by
p^e when b + j >= e.  So, over p^k, T_{p,0} takes p^4 per translate at
(p^2 det, p^j c), p^(2k) per translate with b + j >= 2 at (det/p^2,
p^(j-2) c) and S(h) p^k at (det, c); T_p takes p^(k+1) per translate with
b + j >= 1 at (det, p^(j-1) c), p^4 at (p^2 det, p c) and p^(2k) at
(det/p^2, c/p) when b >= 1.  ``_rows`` holds these counts, the same for
every D; the tests check them against a per-coset walk of the translates
at every point of deep shapes in four fields.  The T_p image of (det,
content)-keyed data is so keyed again, so U_p = T_p^2 has rows too: T_p's
composed with themselves once per (p, k), over p^(2k), at row
(min(v_p(det) - 2 v_p(c), 4), min(v_p(c), 2)).  On a lift each (det,
content) of the image takes one ``ring.lincomb`` under every operator,
memoised for one application, over the lift's values, whose divisor sums
are memoised once per lift (``MaassTuple.value``) and shared by every
operator applied to it; a tabulated shape takes no gcd (it reads its
shared (det, content) keys), a point of ``eval_inert_raw`` one.  The Maass
space is stable under every inert operator, so the image of a lift is a
lift: ``act_inert_on_lift`` reads its alpha at primitive points, and
tables are tabulated from lifts only.

Every operator descends to a polynomial in the classical T_p
(``descend_op``), which the eigenvalue map evaluates.  At a split p,
where a_K(np) = a_K(n), the split operators act on the generating
function as that polynomial (``elliptic.apply_tp_poly``); relative to
canonical class representatives it gives

    T1: alpha'(n) = chi(P) (p+1) (p^(2-k/2) alpha(np) + p^(k/2) alpha(n/p))
    T2: alpha'(n) = chi(P)^2 (p^(4-k) alpha(np^2) + (p^3+p^2+p) alpha(n)
                     + [p | n] p^2 alpha(n) + [p^2 | n] p^k alpha(n/p^2))

with chi(P) the character value at the distinguished prime class above p.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache
from math import gcd
from typing import Callable, Iterable

from .elliptic import NewformData, QExpansion, TpPoly, apply_tp_poly
from .hermitian import HermPoint
from .maass import CoeffTable, MaassTuple, _tabulate, a_K
from .quadfield import ClassChar, FieldParams, SplitType, class_group, prime_class, split_type
from .ring import HeckeElem, HeckeRing, _val_int, lincomb

# kind -> (short name, p-power reach)
_KINDS = {
    "SplitT1": ("T1", 1),
    "SplitT2": ("T2", 2),
    "InertT0": ("T0", 2),
    "InertT": ("T", 2),
    "InertUp": ("Up", 4),
}


@dataclass(frozen=True)
class HeckeOpId:
    kind: str
    p: int

    @staticmethod
    def make(kind: str, p: int, D: int, ell: int | None = None) -> "HeckeOpId":
        if kind not in _KINDS:
            raise ValueError(f"unknown operator kind {kind!r}")
        st = split_type(D, p)
        if st is SplitType.RAMIFIED:
            raise ValueError("no operators at the ramified prime")
        wants_split = kind in ("SplitT1", "SplitT2")
        if wants_split != (st is SplitType.SPLIT):
            raise ValueError(f"operator {kind} does not match the splitting of p = {p}")
        if ell is not None and p == ell:
            raise ValueError("operators at p = ell are excluded")
        return HeckeOpId(kind, p)

    @property
    def reach(self) -> int:
        """The p-power e such that the image's alpha at n reads alpha up to n p^e."""
        return _KINDS[self.kind][1]

    def __str__(self) -> str:
        return f"{_KINDS[self.kind][0]}@{self.p}"

    @staticmethod
    def parse(text: str, D: int) -> "HeckeOpId":
        try:
            name, p_text = text.split("@")
            kind = {short: kind for kind, (short, _) in _KINDS.items()}[name]
            p = int(p_text)
        except (KeyError, ValueError) as exc:
            raise ValueError(f"bad operator name {text!r} (use e.g. T0@3, T1@2)") from exc
        return HeckeOpId.make(kind, p, D)


# ---------------------------------------------------------------------------
# inert raw action


Row = tuple[tuple[tuple[int, int], int], ...]  # ((e, j), scalar over the den) at (p^e det, p^j content)


@cache  # one table per (kind, p, k) for the process
def _rows(kind: str, p: int, k: int) -> tuple[Callable[[int, int], Row], int]:
    """An inert operator by local type: the row of h as a function of
    (det(h), content(h)), and its denominator.  T_{p,0} and T_p, over p^k:
    row (a, b) counts h's translates by content (module docstring), its
    terms in the order the coset walk reads them: T_{p,0} the translates,
    those over p^2, then h; T_p those over p, then p h, then h / p.  U_p,
    over p^(2k): T_p's row composed with T_p's rows of its images, products
    merged by (e, j) in the order the keyed T_p twice first reads them,
    at the least caps (4, 2) that fix T_p's rows of every image."""
    if kind == "InertUp":
        tp, den = _rows("InertT", p, k)

        def local(a: int, b: int) -> Row:
            merged = {}
            for (e, j), s in tp(p ** (a + 2 * b), p ** b):
                for (e2, j2), s2 in tp(p ** (a + 2 * b + e), p ** (b + j)):
                    merged[e + e2, j + j2] = merged.get((e + e2, j + j2), 0) + s * s2
            return tuple(merged.items())

        caps, den = (4, 2), den * den
    else:
        den, hi, lo = p ** k, p ** 4, p ** (2 * k)  # hi, lo: p^(4-k), p^k times den
        caps = (2, 2 if kind == "InertT0" else 1)

        def local(a: int, b: int) -> Row:
            n, j = ((p + 1, 1), (1, 1), (1, 2))[a]
            counts = ((p * p + 1 - n, 0), (n, j))  # (translates, j): content p^j c
            if kind == "InertT0":
                s = p - 1 if a == b == 0 else p ** 3 - p * p + p - 1 if b else -p * p + p - 1  # S(h)
                return (*(((2, i), hi * t) for t, i in counts),
                        *(((-2, i - 2), lo * t) for t, i in counts if b + i >= 2), ((0, 0), s * den))
            return (*(((0, i - 1), p * den * t) for t, i in counts if b + i >= 1), ((2, 1), hi),
                    *([((-2, -1), lo)] if b else []))

    table = {(a, b): local(a, b) for a in range(caps[0] + 1) for b in range(caps[1] + 1)}

    def row(det: int, c: int) -> Row:
        v = _val_int(c, p)
        return table[min(_val_int(det, p) - 2 * v, caps[0]), min(v, caps[1])]

    return row, den


def _keyed(value: Callable, ring: HeckeRing, p: int, row: Callable, den: int) -> Callable[[int, int], HeckeElem]:
    """The image of (det, content)-keyed data under the operator of ``row``,
    so keyed again: one ``lincomb`` per (det, c), memoised for one
    application over ``value``, which keeps its own memo (a lift's, once
    per lift), reading values in the row's order, which lists dets as the
    coset walk does (U_p's as the walk of T_p's walk), so that a short
    alpha raises the RangeError the tests' per-coset reader raises."""
    scale = lambda n, e: n * p ** e if e >= 0 else n // p ** -e

    @cache
    def at(det: int, c: int) -> HeckeElem:
        return lincomb(ring, [(s, value(scale(det, e), scale(c, j))) for (e, j), s in row(det, c)], den)

    return at


def _op_getter(t: MaassTuple, kind: str, p: int) -> tuple[Callable[[int, int], HeckeElem], FieldParams, HeckeRing]:
    """The image of a lift under an inert operator, keyed by (det, content)
    and memoised for one application: one ``_keyed`` sum per class over
    the operator's rows, U_p's being T_p's composed once per (p, k), read
    from the lift's one memo of its values, ``t.value``."""
    if kind not in ("InertT0", "InertT", "InertUp"):
        raise ValueError(f"raw inert evaluation supports InertT0, InertT and InertUp, not {kind}")
    if not isinstance(t, MaassTuple):
        raise TypeError(f"inert operators act on a MaassTuple (a lift), not a {type(t).__name__}")
    params, ring = t.params, t.ring
    if split_type(params.D, p) is not SplitType.INERT:
        raise ValueError(f"p = {p} is not inert for discriminant {params.D}")
    return _keyed(t.value, ring, p, *_rows(kind, p, t.k)), params, ring


def eval_inert_raw(t: MaassTuple, kind: str, p: int, points: Iterable[HermPoint]) -> dict[HermPoint, HeckeElem]:
    """Raw coset action on a lift evaluated at selected points (no table
    materialised), a point's content its one gcd; the ring's zero at
    singular points, where cusp forms vanish; ValueError at a point of
    another field."""
    at, params, ring = _op_getter(t, kind, p)
    value = lambda det, *coords: at(det, gcd(*coords)) if det else ring.zero()
    return {h: value(*h.key_for(params.D)) for h in points}


def act_inert_on_lift(t: MaassTuple, op: HeckeOpId) -> MaassTuple:
    """An inert operator on a lift, as a lift: the Maass space is stable
    under it, so alpha'(n) is the image at a primitive point of det n, for
    every n <= alpha_max // p^reach that a point realises (a_K(D, n) != 0)."""
    at, _, _ = _op_getter(t, op.kind, op.p)
    new_max = t.alpha_max // op.p ** op.reach
    alpha = {n: v for n in range(1, new_max + 1) if a_K(t.D, n) and not (v := at(n, 1)).is_zero()}
    return replace(t, alpha=alpha, alpha_max=new_max, source_label=f"{op}({t.source_label})")


def act_inert_T0(t: MaassTuple, p: int, bound_det: int, bound_diag: int) -> CoeffTable:
    """T_{p,0} on a lift, materialised to the given bounds."""
    return _tabulate(*_op_getter(t, "InertT0", p), bound_det, bound_diag)


def act_inert_T(t: MaassTuple, p: int, bound_det: int, bound_diag: int) -> CoeffTable:
    """T_p (inert) on a lift, materialised to the given bounds."""
    return _tabulate(*_op_getter(t, "InertT", p), bound_det, bound_diag)


def act_inert_Up(t: MaassTuple, p: int, bound_det: int, bound_diag: int) -> CoeffTable:
    """U_p = T_p twice: the similitude center acts trivially at weight (k, -k/2)."""
    return _tabulate(*_op_getter(t, "InertUp", p), bound_det, bound_diag)


# ---------------------------------------------------------------------------
# split operators on lift data


def act_split_on_lift(t: MaassTuple, op: HeckeOpId) -> MaassTuple:
    """T1 or T2 at a split prime: its ``descend_op`` polynomial in the
    classical T_p on the generating function (a_K(np) = a_K(n) there), and
    its twist by the character at the distinguished prime class above p."""
    if split_type(t.D, op.p) is not SplitType.SPLIT:
        raise ValueError(f"p = {op.p} is not split for discriminant {t.D}")
    if op.kind not in ("SplitT1", "SplitT2"):
        raise ValueError(f"act_split_on_lift supports SplitT1 and SplitT2, not {op.kind}")
    dop = descend_op(op, t.k)
    q = apply_tp_poly(QExpansion(t.ring, t.alpha_max, t.alpha), dop.tp_poly, op.p, t.k, t.D)
    zeta_exp = (t.zeta_exp + dop.zeta_exponent(t.chi, t.D)) % t.chi.order
    return replace(t, alpha=q.coeffs, alpha_max=q.n_max, zeta_exp=zeta_exp, source_label=f"{op}({t.source_label})")


# ---------------------------------------------------------------------------
# descent of operators and eigenvalues


@dataclass(frozen=True)
class DescendedOp:
    """Image of a hermitian operator under the descent: a polynomial in the
    classical T_p and a character twist."""

    op: HeckeOpId
    tp_poly: TpPoly
    chi_class_multiplier: int  # multiples of the exponent at the prime class

    def zeta_exponent(self, chi: ClassChar, D: int) -> int:
        if chi.order == 1 or self.chi_class_multiplier == 0:
            return 0
        cls = prime_class(class_group(D), self.op.p)
        return (self.chi_class_multiplier * chi.exponent(cls)) % chi.order

    def apply_to_qexp(self, q: QExpansion, k: int, D: int) -> QExpansion:
        """Evaluate the T_p polynomial on a q-expansion (shrinks the range)."""
        return apply_tp_poly(q, self.tp_poly, self.op.p, k, D)


@cache  # bounded by the operators in use; values such as a(p) are never keys
def descend_op(op: HeckeOpId, k: int) -> DescendedOp:
    """The exact polynomial in the classical T_p to which an operator descends.

    Split operators follow the standard displays.  The inert polynomials
    carry the constants forced by the coset action implemented above (the
    descended images of the two inert generators form a consistent pair:
    the U_p polynomial is the square of the T_p one):

        T_{p,0} -> p^(4-k)(p^2+1) T^2 + 2p^4 + p^3 + p^2 + p - 1
        T_p     -> p^(4-k) T^2 + p(p+1)^2
        U_p     -> (p^(4-k) T^2 + p(p+1)^2)^2

    Normalisations of U_p in circulation differ by powers of p, which are
    units at every prime above ell != p, so congruence depths do not see them.
    """
    p = op.p
    a, b = Fraction(p ** 4, p ** k), Fraction(p * (p + 1) ** 2)  # inert T_p -> a T^2 + b
    if op.kind == "SplitT1":
        return DescendedOp(op, ((1, Fraction(p + 1) * Fraction(p ** 2, p ** (k // 2))),), 1)
    if op.kind == "SplitT2":
        return DescendedOp(op, ((2, a), (0, Fraction(p ** 3 + p))), 2)
    if op.kind == "InertT0":
        return DescendedOp(op, ((2, a * (p * p + 1)), (0, Fraction(2 * p ** 4 + p ** 3 + p ** 2 + p - 1))), 0)
    if op.kind == "InertT":
        return DescendedOp(op, ((2, a), (0, b)), 0)
    if op.kind == "InertUp":
        return DescendedOp(op, ((4, a * a), (2, 2 * a * b), (0, b * b)), 0)  # (a T^2 + b)^2
    raise ValueError(f"no closed descent formula for {op.kind}")


def maass_eigenvalue(f: NewformData, chi: ClassChar, op: HeckeOpId) -> tuple[HeckeElem, int]:
    """Eigenvalue of an operator on the lift of f, as (scalar, zeta exponent).

    Defined only when the lift is nonzero, i.e. when f differs from its
    conjugate form.
    """
    _check_lift(f)
    return _eigenvalue(f, chi, descend_op(op, f.k))


def _check_lift(f: NewformData) -> None:
    if f.is_self_conjugate():
        raise ValueError("eigenvalue undefined: the form is self-conjugate, its lift vanishes")


def _eigenvalue(f: NewformData, chi: ClassChar, d: DescendedOp) -> tuple[HeckeElem, int]:
    """The eigenvalue of a descended operator on the lift of f, unchecked."""
    ap = f.a(d.op.p)
    return lincomb(f.ring, [(coeff, ap ** deg) for deg, coeff in d.tp_poly]), d.zeta_exponent(chi, f.D)
