"""Hermitian Hecke operators at primes p not dividing D.

Inert primes act through the raw double-coset action on coefficient
tables.  Every coset of the two generators is block upper triangular
[[A, B], [0, Dm]] with A Dm* = mu I, and a coset contributes

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

these evaluations (rather than the rounded menu p, -p(p-1), p^2(p-1)
sometimes quoted) are forced: only with them does the action preserve
the divisor-sum condition at points of content divisible by p, and only
with them do the two generators descend consistently to polynomials in
the classical T_p (see descend_op).

All arguments of one term share a determinant: p^2 det(h) for the
alpha-translates and c(p h), det(h)/p^2 for their quotients by p^2 and
c(h/p), det(h) for the rest.  A lift's coefficient depends only on
(det, content), by the divisor-sum condition (maass.py), so on a lift a
term is its count of arguments per content times one memoised divisor sum
per (det, content) key.  Tables and lazy sources (compositions, the outer
T_p of U_p) are read one coefficient per argument; that per-coset reader
is also the tests' reference for the keyed one.  Both read one walk over
the coset arguments.

Split primes act on lift data in closed form, on the generating function:
relative to canonical class representatives,

    T1: alpha'(n) = chi(P) (p+1) (p^(2-k/2) alpha(np) + p^(k/2) alpha(n/p))
    T2: alpha'(n) = chi(P)^2 (p^(4-k) alpha(np^2) + (p^3+p^2+p) alpha(n)
                     + [p | n] p^2 alpha(n) + [p^2 | n] p^k alpha(n/p^2))

with chi(P) the character value at the distinguished prime class above p.
Both split operators and the inert generators descend to explicit
polynomials in the classical T_p, which is what the eigenvalue map
evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import starmap
from math import gcd
from typing import Callable, Iterable

from .elliptic import NewformData, QExpansion, apply_Tp
from .hermitian import HermPoint
from .maass import CoeffTable, Getter, MaassTuple, RangeError, _divisor_sum, _tabulate
from .quadfield import (
    ClassChar,
    FieldParams,
    SplitType,
    class_group,
    prime_class,
    split_type,
)
from .ring import HeckeElem, HeckeRing

# kind -> (short name, p-power reach)
_KINDS = {
    "SplitT1": ("T1", 1),
    "SplitT2": ("T2", 2),
    "InertT0": ("T0", 2),
    "InertT": ("T", 2),
    "InertUp": ("Up", 4),
}
OP_KINDS = tuple(_KINDS)


@dataclass(frozen=True)
class HeckeOpId:
    kind: str
    p: int

    @staticmethod
    def make(kind: str, p: int, D: int, ell: int | None = None) -> "HeckeOpId":
        if kind not in OP_KINDS:
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
    def parse(text: str, D: int, ell: int | None = None) -> "HeckeOpId":
        try:
            name, p_text = text.split("@")
            kind = {short: kind for kind, (short, _) in _KINDS.items()}[name]
            p = int(p_text)
        except (KeyError, ValueError) as exc:
            raise ValueError(f"bad operator name {text!r} (use e.g. T0@3, T1@2)") from exc
        return HeckeOpId.make(kind, p, D, ell)


# ---------------------------------------------------------------------------
# inert raw action


def _table_getter(table: CoeffTable) -> Getter:
    D = table.D
    zero = table.ring.zero()
    bd, bg = table.bound_det, table.bound_diag
    flat = {h.coords(): v for h, v in table.values.items()}
    q, cuspidal = table.params.norm_c, table.cuspidal

    def get(t1: int, t3: int, wa: int, wb: int) -> HeckeElem:
        det = D * t1 * t3 - (wa * wa + wa * wb + wb * wb * q)
        if det < 0 or (det == 0 and cuspidal):
            return zero
        if t1 > bg or t3 > bg or det > bd:
            raise RangeError(
                f"input table bounds (det<={bd}, diag<={bg}) do not cover the "
                f"needed point ({t1},{t3},{wa},{wb}) with det {det}"
            )
        return flat.get((t1, t3, wa, wb), zero)

    return get


@dataclass
class LazyAction:
    """An inert operator applied lazily: coefficients computed (and memoized)
    on demand, so compositions never need intermediate table bounds."""

    getter: "Getter"
    params: FieldParams
    ring: HeckeRing


Slots = tuple[tuple[int | Fraction, int, list[tuple[int, int, int, int]]], ...]


def _coset_walk(kind: str, params: FieldParams, p: int) -> Callable[[int, int, int, int, int], Slots]:
    """The coset images of h under T_{p,0} or T_p, one slot per term.

    ``slots(t1, t3, wa, wb, det)`` gives (scalar, det, images) per term: the
    arguments of c, all of determinant det, in the order the source is read."""
    q = params.norm_c
    # per-residue transform constants for a = x + y omega in O_K/p: (N(a), x, y, c1, c2)
    reps = [(x * x + x * y + y * y * q, x, y, -x - 2 * q * y, 2 * x + y) for x in range(p) for y in range(p)]
    pp, hi, lo = p * p, Fraction(p ** 4, p ** params.k), p ** params.k
    if kind == "InertT0":

        def slots(t1: int, t3: int, wa: int, wb: int, det: int) -> Slots:
            up, down = [], []  # alpha-translates, and beta-translates (alpha / p^2)
            for na, x, y, c1, c2 in reps:
                u3 = na * t1 + t3 + wb * x - wa * y
                va = t1 * c1 + wa  # w' = p*(va, vb)
                vb = t1 * c2 + wb
                up.append((pp * t1, u3, p * va, p * vb))
                if u3 % pp == 0 and va % p == 0 and vb % p == 0:
                    down.append((t1, u3 // pp, va // p, vb // p))
            # the extra P^1 representative diag(1, p): h -> (t1, p^2 t3, p w)
            up.append((t1, pp * t3, p * wa, p * wb))
            if t1 % pp == 0 and wa % p == 0 and wb % p == 0:
                down.append((t1 // pp, t3, wa // p, wb // p))
            # diagonal character sum; det = 0 counts as p | det
            if det != 0 and det % p:
                s = p - 1
            elif t1 % p == 0 and t3 % p == 0 and wa % p == 0 and wb % p == 0:
                s = p ** 3 - pp + p - 1
            else:
                s = -pp + p - 1
            return (hi, pp * det, up), (lo, det // pp, down), (s, det, [(t1, t3, wa, wb)])

    else:

        def slots(t1: int, t3: int, wa: int, wb: int, det: int) -> Slots:
            mid = []  # (alpha_a* h alpha_a) / p: t1-slot p*t1 when the rest divides
            for na, x, y, c1, c2 in reps:
                u3 = na * t1 + t3 + wb * x - wa * y
                if u3 % p == 0:
                    mid.append((p * t1, u3 // p, t1 * c1 + wa, t1 * c2 + wb))
            if t1 % p == 0:
                mid.append((t1 // p, p * t3, wa, wb))
            divisible = t1 % p == 0 and t3 % p == 0 and wa % p == 0 and wb % p == 0
            down = [(t1 // p, t3 // p, wa // p, wb // p)] if divisible else []
            return (p, det, mid), (hi, pp * det, [(p * t1, p * t3, p * wa, p * wb)]), (lo, det // pp, down)

    return slots


def _coset_sum(get: Getter, zero: HeckeElem) -> Callable[[Slots], HeckeElem]:
    """Reads slots one source value per coset image: the reference reader."""

    def read(slots: Slots) -> HeckeElem:
        out = None
        for scalar, _, images in slots:
            acc = None
            for image in images:
                v = get(*image)
                if not v.is_zero():
                    acc = v if acc is None else acc + v
            if acc is not None:
                acc = acc * scalar
                out = acc if out is None else out + acc
        return zero if out is None else out

    return read


def _keyed_sum(t: MaassTuple) -> Callable[[Slots], HeckeElem]:
    """Reads slots on a lift, whose value at an image depends only on its
    (det, content): per slot, one memoised divisor sum per distinct content,
    times the number of images that have it."""
    alpha, alpha_max, k = t.alpha, t.alpha_max, t.k
    zero = t.ring.zero()
    powers: dict[int, int] = {}
    memo: dict[tuple[int, int], HeckeElem | None] = {}

    def lift_value(det: int, c: int) -> HeckeElem | None:
        if (det, c) not in memo:
            if det > alpha_max:
                raise RangeError(f"alpha valid to {alpha_max}, needed at {det}")
            memo[det, c] = _divisor_sum(alpha, det, c, k, powers)
        return memo[det, c]

    def read(slots: Slots) -> HeckeElem:
        out = None
        for scalar, det, images in slots:
            acc = None
            contents = list(starmap(gcd, images))
            for c in set(contents):
                v = lift_value(det, c)
                if v is not None:
                    n = contents.count(c)
                    v = v if n == 1 else v * n
                    acc = v if acc is None else acc + v
            if acc is not None:
                acc = acc * scalar
                out = acc if out is None else out + acc
        return zero if out is None else out

    return read


def _op_getter(src, kind: str, p: int) -> tuple[Getter, FieldParams, HeckeRing]:
    """Memoized pointwise evaluator of an inert operator applied to src."""
    if kind == "InertUp":
        # U_p = T_p twice: T_p applied to the memoized T_p image
        src, kind = LazyAction(*_op_getter(src, "InertT", p)), "InertT"
    if kind not in ("InertT0", "InertT"):
        raise ValueError(f"raw inert evaluation supports InertT0, InertT and InertUp, not {kind}")
    if not isinstance(src, (MaassTuple, CoeffTable, LazyAction)):
        raise TypeError("expected a MaassTuple, CoeffTable or LazyAction")
    params, ring = src.params, src.ring
    D, q, zero = params.D, params.norm_c, ring.zero()
    if split_type(D, p) is not SplitType.INERT:
        raise ValueError(f"p = {p} is not inert for discriminant {D}")
    slots = _coset_walk(kind, params, p)
    if isinstance(src, MaassTuple):
        read = _keyed_sum(src)
    else:
        read = _coset_sum(src.getter if isinstance(src, LazyAction) else _table_getter(src), zero)

    def value(t1: int, t3: int, wa: int, wb: int) -> HeckeElem:
        det = D * t1 * t3 - (wa * wa + wa * wb + wb * wb * q)
        if det < 0:
            return zero
        return read(slots(t1, t3, wa, wb, det))

    return cache(value), params, ring


def eval_inert_raw(src, kind: str, p: int, points: Iterable[HermPoint]) -> dict[HermPoint, HeckeElem]:
    """Raw coset action evaluated at selected points (no table materialised)."""
    get, _, _ = _op_getter(src, kind, p)
    return {h: get(h.t1, h.t3, h.w.a, h.w.b) for h in points}


def inert_action(src, kind: str, p: int) -> LazyAction:
    """The operator applied lazily; usable as the source of further operators."""
    get, params, ring = _op_getter(src, kind, p)
    return LazyAction(get, params, ring)


def act_inert_T0(src, p: int, bound_det: int, bound_diag: int) -> CoeffTable:
    """T_{p,0} on a coefficient table or lift, materialised to the given bounds."""
    return _tabulate(*_op_getter(src, "InertT0", p), bound_det, bound_diag)


def act_inert_T(src, p: int, bound_det: int, bound_diag: int) -> CoeffTable:
    """T_p (inert) on a coefficient table or lift, materialised to the given bounds."""
    return _tabulate(*_op_getter(src, "InertT", p), bound_det, bound_diag)


def act_inert_Up(src, p: int, bound_det: int, bound_diag: int) -> CoeffTable:
    """U_p = T_p twice: the similitude center acts trivially at weight (k, -k/2)."""
    return _tabulate(*_op_getter(src, "InertUp", p), bound_det, bound_diag)


# ---------------------------------------------------------------------------
# split closed forms on lift data


def act_split_on_lift(t: MaassTuple, op: HeckeOpId) -> MaassTuple:
    """T1 or T2 at a split prime, in closed form on the generating function."""
    p = op.p
    D, k = t.D, t.k
    if split_type(D, p) is not SplitType.SPLIT:
        raise ValueError(f"p = {p} is not split for discriminant {D}")
    cg = class_group(D)
    cls = prime_class(cg, p)
    chi_e = t.chi.exponent(cls)
    d = t.chi.order
    ring = t.ring
    alpha = t.alpha

    def a(n: int) -> HeckeElem | None:
        v = alpha.get(n)
        return v if v is not None and not v.is_zero() else None

    new_alpha: dict[int, HeckeElem] = {}
    new_max = t.alpha_max // p ** op.reach
    if op.kind == "SplitT1":
        c_hi = Fraction(p + 1) * Fraction(p ** 2, p ** (k // 2))
        c_lo = (p + 1) * p ** (k // 2)
        for n in range(1, new_max + 1):
            acc = None
            v = a(n * p)
            if v is not None:
                acc = v * c_hi
            if n % p == 0:
                v = a(n // p)
                if v is not None:
                    w = v * c_lo
                    acc = w if acc is None else acc + w
            if acc is not None:
                new_alpha[n] = acc
        shift = chi_e
    elif op.kind == "SplitT2":
        c_hi = Fraction(p ** 4, p ** k)
        c_mid = p ** 3 + p ** 2 + p
        for n in range(1, new_max + 1):
            acc = None
            v = a(n * p * p)
            if v is not None:
                acc = v * c_hi
            v = a(n)
            if v is not None:
                c = c_mid
                if n % p == 0:
                    c += p * p
                w = v * c
                acc = w if acc is None else acc + w
            if n % (p * p) == 0:
                v = a(n // (p * p))
                if v is not None:
                    w = v * p ** k
                    acc = w if acc is None else acc + w
            if acc is not None:
                new_alpha[n] = acc
        shift = 2 * chi_e
    else:
        raise ValueError(f"act_split_on_lift supports SplitT1 and SplitT2, not {op.kind}")
    return MaassTuple(
        params=t.params,
        chi=t.chi,
        ring=ring,
        alpha=new_alpha,
        alpha_max=new_max,
        zeta_exp=(t.zeta_exp + shift) % d if d > 1 else 0,
        source_label=f"{op}({t.source_label})",
    )


# ---------------------------------------------------------------------------
# descent of operators and eigenvalues


@dataclass(frozen=True)
class DescendedOp:
    """Image of a hermitian operator under the descent: a polynomial in the
    classical T_p, a character twist, and a tracked p-power unit."""

    op: HeckeOpId
    k: int
    tp_poly: tuple[tuple[int, Fraction], ...]  # (degree, coefficient)
    chi_class_multiplier: int  # multiples of the exponent at the prime class
    unit_power: Fraction  # tracked p-power ambiguity (1 except for InertUp)

    def zeta_exponent(self, chi: ClassChar, D: int) -> int:
        if chi.order == 1 or self.chi_class_multiplier == 0:
            return 0
        cls = prime_class(class_group(D), self.op.p)
        return (self.chi_class_multiplier * chi.exponent(cls)) % chi.order

    def apply_to_qexp(self, q: QExpansion, k: int, D: int) -> QExpansion:
        """Evaluate the T_p polynomial on a q-expansion (shrinks the range)."""
        p = self.op.p
        max_deg = max(d for d, _ in self.tp_poly)
        n_out = q.n_max // p ** max_deg
        powers = [q]
        for _ in range(max_deg):
            powers.append(apply_Tp(powers[-1], p, k, D))
        out = QExpansion(q.ring, n_out, weight=q.weight, level=q.level)
        for n in range(1, n_out + 1):
            acc = q.ring.zero()
            for deg, coeff in self.tp_poly:
                acc = acc + powers[deg].a(n) * coeff
            if not acc.is_zero():
                out.coeffs[n] = acc
        return out


def descend_op(op: HeckeOpId, k: int) -> DescendedOp:
    """The exact polynomial in the classical T_p to which an operator descends.

    Split operators follow the standard displays.  The inert polynomials
    carry the constants forced by the coset action implemented above (the
    descended images of the two inert generators form a consistent pair:
    the U_p polynomial is the square of the T_p one):

        T_{p,0} -> p^(4-k)(p^2+1) T^2 + 2p^4 + p^3 + p^2 + p - 1
        T_p     -> p^(4-k) T^2 + p(p+1)^2
        U_p     -> (p^(4-k) T^2 + p(p+1)^2)^2

    U_p eigenvalue comparisons should be made after dividing by the tracked
    leading p-power, since other normalisations of U_p in circulation
    differ by unit powers of p.
    """
    p = op.p
    if op.kind == "SplitT1":
        poly = ((1, Fraction(p + 1) * Fraction(p ** 2, p ** (k // 2))),)
        return DescendedOp(op, k, poly, 1, Fraction(1))
    if op.kind == "SplitT2":
        poly = ((2, Fraction(p ** 4, p ** k)), (0, Fraction(p ** 3 + p)))
        return DescendedOp(op, k, poly, 2, Fraction(1))
    if op.kind == "InertT0":
        poly = (
            (2, Fraction(p ** 4, p ** k) * (p * p + 1)),
            (0, Fraction(2 * p ** 4 + p ** 3 + p ** 2 + p - 1)),
        )
        return DescendedOp(op, k, poly, 0, Fraction(1))
    if op.kind == "InertT":
        poly = ((2, Fraction(p ** 4, p ** k)), (0, Fraction(p * (p + 1) ** 2)))
        return DescendedOp(op, k, poly, 0, Fraction(1))
    if op.kind == "InertUp":
        u = Fraction(p ** 8, p ** (2 * k))
        poly = (
            (4, u),
            (2, 2 * Fraction(p ** 5, p ** k) * (p + 1) ** 2),
            (0, Fraction(p ** 2 * (p + 1) ** 4)),
        )
        return DescendedOp(op, k, poly, 0, unit_power=u)
    raise ValueError(f"no closed descent formula for {op.kind}")


def maass_eigenvalue(f: NewformData, chi: ClassChar, op: HeckeOpId) -> tuple[HeckeElem, int]:
    """Eigenvalue of an operator on the lift of f, as (scalar, zeta exponent).

    Defined only when the lift is nonzero, i.e. when f differs from its
    conjugate form.
    """
    if f.is_self_conjugate():
        raise ValueError("eigenvalue undefined: the form is self-conjugate, its lift vanishes")
    d = descend_op(op, f.k)
    ap = f.a(op.p)
    acc = f.ring.zero()
    for deg, coeff in d.tp_poly:
        acc = acc + ap ** deg * coeff
    return acc, d.zeta_exponent(chi, f.D)
