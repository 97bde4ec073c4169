"""Satake parameters, base-change Euler factors over K, and the degree-4
standard factor of a lift, all in exact arithmetic.

Satake parameters never get extracted individually: every factor is
expanded in the elementary symmetric functions e1 = a(p) and
e2 = chi(p) p^(k-2), so no splitting field is ever constructed.  Character
twists take values in a cyclotomic quotient ring handled as formal
exponent sums, and s-shifts are substitutions X -> Np^c X with exact
rational powers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .elliptic import NewformData
from .quadfield import ClassChar, SplitType, chi_K, class_group, prime_class, split_type
from .ring import HeckeElem, HeckeRing, _divmod


@cache
def _cyclotomic(d: int) -> tuple[int, ...]:
    """Coefficients of the d-th cyclotomic polynomial, constant term first."""
    p = [-1] + [0] * (d - 1) + [1]  # x^d - 1 = prod over m | d of Phi_m
    for m in range(1, d):
        if d % m == 0:
            p = _divmod(p, _cyclotomic(m))[0]
    return tuple(p)


@cache
def _zeta_reductions(d: int) -> dict[int, tuple[tuple[int, int], ...]]:
    """For each e with phi(d) <= e < d, the pairs (j, n) with zeta^e = -sum n zeta^j."""
    phi = _cyclotomic(d)
    out = {}
    for e in range(len(phi) - 1, d):
        rem = _divmod([0] * e + [1], phi)[1]
        out[e] = tuple((j, -r) for j, r in enumerate(rem) if r)
    return out


class CycloElem:
    """Element of Frac(R)[zeta_d], stored as exponent -> coefficient.

    Canonical form is the remainder modulo the d-th cyclotomic polynomial
    Phi_d, so exponents stay below deg Phi_d = phi(d) and equality is a
    dictionary comparison.
    """

    __slots__ = ("ring", "order", "coeffs")

    def __init__(self, ring: HeckeRing, order: int, coeffs: dict[int, HeckeElem] | None = None):
        self.ring = ring
        self.order = order
        canon: dict[int, HeckeElem] = {}
        if coeffs:
            for e, c in coeffs.items():
                e %= order
                if e in canon:
                    canon[e] = canon[e] + c
                else:
                    canon[e] = c
        if order > 1:
            for e, terms in _zeta_reductions(order).items():
                top = canon.pop(e, None)
                if top is not None:
                    for j, n in terms:
                        canon[j] = canon.get(j, ring.zero()) - (top if n == 1 else top * n)
        self.coeffs = {e: c for e, c in canon.items() if not c.is_zero()}

    @classmethod
    def scalar(cls, ring: HeckeRing, value: HeckeElem, order: int = 1) -> "CycloElem":
        return cls(ring, order, {0: value})

    @classmethod
    def zeta_power(cls, ring: HeckeRing, order: int, exponent: int) -> "CycloElem":
        return cls(ring, order, {exponent: ring.one()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def _lift(self, other) -> "CycloElem":
        if isinstance(other, CycloElem):
            if other.order == self.order:
                return other
            if other.order == 1:
                return CycloElem(self.ring, self.order, dict(other.coeffs))
            if self.order == 1:
                return other
            raise ValueError("mismatched cyclotomic orders")
        if isinstance(other, HeckeElem):
            return CycloElem.scalar(self.ring, other, self.order)
        if isinstance(other, (int, Fraction)):
            return CycloElem.scalar(self.ring, self.ring.from_rational(Fraction(other)), self.order)
        return NotImplemented

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        order = max(self.order, o.order)
        merged = dict(CycloElem(self.ring, order, dict(self.coeffs)).coeffs)
        for e, c in o.coeffs.items():
            merged[e] = merged.get(e, self.ring.zero()) + c
        return CycloElem(self.ring, order, merged)

    def __neg__(self):
        return CycloElem(self.ring, self.order, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        o = self._lift(other)
        return self + (-o)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, HeckeElem)):
            if isinstance(other, (int, Fraction)):
                other = self.ring.from_rational(Fraction(other))
            return CycloElem(
                self.ring, self.order, {e: c * other for e, c in self.coeffs.items()}
            )
        o = self._lift(other)
        if o is NotImplemented:
            return o
        order = max(self.order, o.order)
        a = CycloElem(self.ring, order, dict(self.coeffs))
        out: dict[int, HeckeElem] = {}
        for e1, c1 in a.coeffs.items():
            for e2, c2 in o.coeffs.items():
                e = (e1 + e2) % order
                prod = c1 * c2
                out[e] = out.get(e, self.ring.zero()) + prod
        return CycloElem(self.ring, order, out)

    __rmul__ = __mul__

    def conjugate_zeta(self) -> "CycloElem":
        """zeta -> zeta^(-1) (complex conjugation on the cyclotomic part)."""
        return CycloElem(self.ring, self.order, {-e: c for e, c in self.coeffs.items()})

    def apply_involution(self, kind: str) -> "CycloElem":
        return CycloElem(
            self.ring, self.order, {e: c.apply_involution(kind) for e, c in self.coeffs.items()}
        )

    def __eq__(self, other) -> bool:
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        order = max(self.order, o.order)
        a = CycloElem(self.ring, order, dict(self.coeffs))
        b = CycloElem(self.ring, order, dict(o.coeffs))
        return a.coeffs == b.coeffs

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            parts.append(f"({c})" + ("" if e == 0 else f"*z^{e}"))
        return " + ".join(parts)


@dataclass(frozen=True)
class SatakePair:
    """The two roots of X^2 - a(p) X + chi(p) p^(k-2), by their symmetric functions."""

    ring: HeckeRing
    e1: HeckeElem  # alpha + beta = a(p)
    e2: HeckeElem  # alpha * beta = chi(p) p^(k-2)

    @classmethod
    def of(cls, f: NewformData, p: int) -> "SatakePair":
        if p == f.D:
            raise ValueError("Satake parameters are only used away from the level")
        e2 = f.ring.from_int(chi_K(f.D, p) * p ** (f.k - 2))
        return cls(f.ring, f.a(p), e2)

    def power_sum(self, d: int) -> HeckeElem:
        """alpha^d + beta^d via Newton's identity."""
        if d == 0:
            return self.ring.from_int(2)
        prev, cur = self.ring.from_int(2), self.e1
        for _ in range(d - 1):
            prev, cur = cur, self.e1 * cur - self.e2 * prev
        return cur

    def product_power(self, d: int) -> HeckeElem:
        return self.e2 ** d


@dataclass
class EulerFactor:
    """Polynomial in X = (N p)^(-s) with constant term 1, coefficients in
    Frac(R)[zeta]; tagged by the norm of the prime it sits at."""

    ring: HeckeRing
    norm: int
    coeffs: list[CycloElem]  # ascending, coeffs[0] = 1

    def __post_init__(self):
        one = CycloElem.scalar(self.ring, self.ring.one())
        if not self.coeffs or self.coeffs[0] != one:
            raise ValueError("Euler factors are normalised with constant term 1")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __mul__(self, other: "EulerFactor") -> "EulerFactor":
        if self.norm != other.norm:
            raise ValueError("can only multiply factors at the same prime")
        out = [CycloElem(self.ring, 1) for _ in range(self.degree + other.degree + 1)]
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return EulerFactor(self.ring, self.norm, out)

    def substitute(self, shift: Fraction | int) -> "EulerFactor":
        """X -> Np^shift X: the factor of L(., s - shift) in X = Np^(-s).

        Only integral total exponents arise (k is even), so the scaling
        stays an exact rational.
        """
        shift = Fraction(shift)
        out = []
        for j, c in enumerate(self.coeffs):
            e = shift * j
            if e.denominator != 1:
                raise ValueError(f"non-integral substitution exponent {e}")
            out.append(c * Fraction(self.norm) ** int(e))
        return EulerFactor(self.ring, self.norm, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EulerFactor):
            return NotImplemented
        if self.norm != other.norm or self.degree != other.degree:
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def discrepancy(self, other: "EulerFactor") -> list[CycloElem]:
        n = max(self.degree, other.degree) + 1
        zero = CycloElem(self.ring, 1)
        a = self.coeffs + [zero] * (n - len(self.coeffs))
        b = other.coeffs + [zero] * (n - len(other.coeffs))
        return [x - y for x, y in zip(a, b)]


def _chi_value(ring: HeckeRing, chi: ClassChar, class_index: int, power: int = 1) -> CycloElem:
    return CycloElem.zeta_power(ring, chi.order, power * chi.exponent(class_index))


def bc_factor(
    f: NewformData,
    p: int,
    chi: ClassChar | None = None,
    shift: Fraction | int = 0,
    combine_split: bool = False,
) -> list[EulerFactor]:
    """Base-change Euler factors at the primes of K above p (p != D).

    Split p gives two degree-2 factors in X = p^(-s) (the distinguished
    prime first, its conjugate second), inert p one degree-2 factor in
    X = p^(-2s).  The twist multiplies X by the character value at the
    prime's class; ``shift`` substitutes X -> Np^shift X, giving the factor
    of L(BC(f), s - shift).  With ``combine_split`` the two split factors
    are multiplied into one degree-4 factor.
    """
    if p == f.D:
        raise ValueError("base-change factors are defined away from the level")
    ring = f.ring
    sat = SatakePair.of(f, p)
    st = split_type(f.D, p)
    factors = []
    if st is SplitType.SPLIT:
        cg = class_group(f.D)
        cls = prime_class(cg, p)
        for idx in (cls, cg.inv(cls)):
            t = (
                _chi_value(ring, chi, idx)
                if chi is not None
                else CycloElem.scalar(ring, ring.one())
            )
            one = CycloElem.scalar(ring, ring.one())
            c1 = -(t * sat.e1)
            c2 = (t * t) * sat.e2
            factors.append(EulerFactor(ring, p, [one, c1, c2]).substitute(shift))
        if combine_split:
            return [factors[0] * factors[1]]
        return factors
    if st is SplitType.INERT:
        # residue degree 2: parameters are the squares, norm p^2, class trivial
        one = CycloElem.scalar(ring, ring.one())
        s2 = sat.power_sum(2)
        prod2 = sat.product_power(2)
        c1 = CycloElem.scalar(ring, -s2)
        c2 = CycloElem.scalar(ring, prod2)
        return [EulerFactor(ring, p * p, [one, c1, c2]).substitute(shift)]
    raise ValueError("no factor at the ramified prime")


def std_factor_lift(f: NewformData, chi: ClassChar, p: int) -> list[EulerFactor]:
    """Degree-4 standard Euler factors of the lift at the primes above p.

    Built from the Frobenius eigenvalue multiset
    {A, B, Np A, Np B} * chi(P) Np^(2-k/2), A, B the d-th powers of the
    Satake parameters, expanded symmetrically so only e1 and e2 appear.
    """
    if p == f.D:
        raise ValueError("standard factors are defined away from the level")
    if f.k % 2:
        raise ValueError("k must be even")
    ring = f.ring
    sat = SatakePair.of(f, p)
    st = split_type(f.D, p)
    out = []
    if st is SplitType.SPLIT:
        cg = class_group(f.D)
        cls = prime_class(cg, p)
        prime_data = [(cls, 1, p), (cg.inv(cls), 1, p)]
    else:
        prime_data = [(None, 2, p * p)]
    for idx, d, norm in prime_data:
        P = sat.power_sum(d)  # A + B
        Q = sat.product_power(d)  # A B
        N = Fraction(norm)
        t = (
            _chi_value(ring, chi, idx)
            if idx is not None
            else CycloElem.scalar(ring, ring.one())
        ) * (N ** (2 - f.k // 2))
        one = CycloElem.scalar(ring, ring.one())
        # elementary symmetric functions of {A, B, N A, N B}
        s1 = CycloElem.scalar(ring, P * (1 + N))
        s2 = CycloElem.scalar(ring, Q * (1 + N * N) + P * P * N)
        s3 = CycloElem.scalar(ring, P * Q * (N + N * N))
        s4 = CycloElem.scalar(ring, Q * Q * N * N)
        coeffs = [
            one,
            -(t * s1),
            (t * t) * s2,
            -((t * t * t) * s3),
            (t * t * t * t) * s4,
        ]
        out.append(EulerFactor(ring, norm, coeffs))
    return out


def verify_product134(
    f: NewformData, chi: ClassChar, p: int
) -> tuple[bool, list[list[CycloElem]]]:
    """Exact factorization check: the standard factor of the lift at each
    prime above p equals the product of the two base-change factors twisted
    by chi at arguments shifted by 2 - k/2 and 3 - k/2.

    The two sides go through independent expansions (Frobenius multiset vs
    product of shifted quadratics); returns (ok, per-prime coefficient
    discrepancies).
    """
    k = f.k
    lhs = std_factor_lift(f, chi, p)
    b1 = bc_factor(f, p, chi, shift=Fraction(2 - k // 2))
    b2 = bc_factor(f, p, chi, shift=Fraction(3 - k // 2))
    rhs = [x * y for x, y in zip(b1, b2)]
    ok = True
    discrepancies = []
    for left, right in zip(lhs, rhs):
        d = left.discrepancy(right)
        discrepancies.append(d)
        if any(not c.is_zero() for c in d):
            ok = False
    return ok, discrepancies
