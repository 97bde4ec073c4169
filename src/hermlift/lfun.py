"""Satake parameters, base-change Euler factors over K, and the degree-4
standard factor of a lift, all in exact arithmetic.

Satake parameters never get extracted individually: every factor is
expanded in the elementary symmetric functions e1 = a(p) and
e2 = chi(p) p^(k-2), so no splitting field is ever constructed.  A class
character twist only substitutes X -> chi(P) X, so every factor is
P(zeta^e X) with P over Frac(R) and e the character's exponent at the
prime's class; the root of unity is reduced modulo Phi_d only when a
coefficient is printed.  s-shifts are substitutions X -> Np^c X: every
coefficient is scaled by an integer power of the integer Np, a product or
an exact division, never a rational power.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .elliptic import NewformData
from .quadfield import ClassChar, SplitType, chi_K, class_group, prime_class, split_type, trivial_char
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
def _zeta_reductions(d: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For each 0 <= e < d, the pairs (j, r), j ascending, with zeta_d^e = sum r zeta_d^j
    and j < phi(d): the remainder of x^e modulo Phi_d."""
    phi = _cyclotomic(d)
    return tuple(
        tuple((j, r) for j, r in enumerate(_divmod([0] * e + [1], phi)[1]) if r) for e in range(d)
    )


def _times_power(c: HeckeElem, n: int, e: int) -> HeckeElem:
    """c * n^e for an integer e of either sign."""
    return c * n**e if e >= 0 else c / n**-e


@dataclass(frozen=True)
class ZetaTerm:
    """value * zeta_order^exponent: one coefficient of an Euler factor, for printing.

    Printed in the basis 1, zeta, ..., zeta^(phi(order) - 1) of Q(zeta) over Q.
    """

    value: HeckeElem
    exponent: int
    order: int

    def __repr__(self) -> str:
        if self.value.is_zero():
            return "0"
        return " + ".join(
            f"({self.value * r})" + ("" if j == 0 else f"*z^{j}")
            for j, r in _zeta_reductions(self.order)[self.exponent]
        )


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
    """sum_j poly[j] (zeta_order^twist X)^j in X = (N p)^(-s), poly[0] = 1,
    poly over Frac(R); tagged by the norm of the prime it sits at."""

    ring: HeckeRing
    norm: int
    poly: list[HeckeElem]  # ascending
    order: int
    twist: int

    def __post_init__(self):
        if not self.poly or self.poly[0] != 1:
            raise ValueError("Euler factors are normalised with constant term 1")

    @property
    def degree(self) -> int:
        return len(self.poly) - 1

    @property
    def coeffs(self) -> list[ZetaTerm]:
        """The coefficient of X^j, poly[j] zeta^(j twist), for each j."""
        return [ZetaTerm(c, j * self.twist % self.order, self.order) for j, c in enumerate(self.poly)]

    def _same_place(self, other: "EulerFactor") -> None:
        if (self.norm, self.order, self.twist) != (other.norm, other.order, other.twist):
            raise ValueError("factors differ in their prime or their twist")

    def __mul__(self, other: "EulerFactor") -> "EulerFactor":
        self._same_place(other)
        out = [self.ring.zero()] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.poly):
            for j, b in enumerate(other.poly):
                out[i + j] = out[i + j] + a * b
        return EulerFactor(self.ring, self.norm, out, self.order, self.twist)

    def substitute(self, shift: Fraction | int) -> "EulerFactor":
        """X -> Np^shift X: the factor of L(., s - shift) in X = Np^(-s).

        Only integral total exponents arise (k is even), so poly[j] is
        scaled by the integer power Np^(shift j), multiplying or dividing.
        """
        num, den = shift.numerator, shift.denominator
        out = []
        for j, c in enumerate(self.poly):
            if num * j % den:
                raise ValueError(f"non-integral substitution exponent {Fraction(num * j, den)}")
            out.append(_times_power(c, self.norm, num * j // den))
        return EulerFactor(self.ring, self.norm, out, self.order, self.twist)

    def discrepancy(self, other: "EulerFactor") -> list[HeckeElem]:
        """poly minus other.poly; all zero exactly when the two factors agree."""
        self._same_place(other)
        n = max(self.degree, other.degree) + 1
        zero = self.ring.zero()
        a = self.poly + [zero] * (n - len(self.poly))
        b = other.poly + [zero] * (n - len(other.poly))
        return [x - y for x, y in zip(a, b)]


def _places(f: NewformData, p: int, chi: ClassChar) -> tuple[int, int, list[int]]:
    """(norm, residue degree, chi exponents at their classes) of the primes
    of K above p, which share norm and degree: the distinguished prime
    first when p splits.  An inert prime is principal, so its exponent is 0."""
    if split_type(f.D, p) is SplitType.INERT:
        return p * p, 2, [0]
    cg = class_group(f.D)
    cls = prime_class(cg, p)
    return p, 1, [chi.exponent(idx) for idx in (cls, cg.inv(cls))]


def bc_factor(f: NewformData, p: int, chi: ClassChar | None = None) -> list[EulerFactor]:
    """Base-change Euler factors at the primes of K above p (p != D).

    Split p gives two degree-2 factors in X = p^(-s) (the distinguished
    prime first, its conjugate second), inert p one degree-2 factor in
    X = p^(-2s) whose parameters are the squares.  The twist multiplies X
    by the character value at the prime's class; ``EulerFactor.substitute``
    gives the factor of L(BC(f), s - shift).
    """
    if p == f.D:
        raise ValueError("base-change factors are defined away from the level")
    chi = chi if chi is not None else trivial_char()
    sat = SatakePair.of(f, p)
    norm, d, twists = _places(f, p, chi)
    poly = [f.ring.one(), -sat.power_sum(d), sat.product_power(d)]
    return [EulerFactor(f.ring, norm, list(poly), chi.order, twist) for twist in twists]


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
    sat = SatakePair.of(f, p)
    N, d, twists = _places(f, p, chi)
    P = sat.power_sum(d)  # A + B
    Q = sat.product_power(d)  # A B
    # prod (1 - x Y) over x in {A, B, N A, N B}: signed elementary symmetric functions
    s = [
        f.ring.one(),
        -(P * (1 + N)),
        Q * (1 + N * N) + P * P * N,
        -(P * Q * (N + N * N)),
        Q * Q * (N * N),
    ]
    # Y = chi(P) N^(2 - k/2) X; the twist stays in the tag
    poly = [_times_power(c, N, j * (2 - f.k // 2)) for j, c in enumerate(s)]
    return [EulerFactor(f.ring, N, list(poly), chi.order, twist) for twist in twists]


def verify_product134(
    f: NewformData, chi: ClassChar, p: int
) -> tuple[bool, list[list[HeckeElem]]]:
    """Exact factorization check: the standard factor of the lift at each
    prime above p equals the product of the two base-change factors twisted
    by chi at arguments shifted by 2 - k/2 and 3 - k/2.

    The two sides go through independent expansions (Frobenius multiset vs
    product of shifted quadratics) of polynomials in zeta^e X sharing the
    twist e; P(tX) = Q(tX) for a unit t exactly when P = Q, so their
    scalar coefficients are compared.  Returns (ok, per-prime coefficient
    discrepancies).
    """
    shift = 2 - f.k // 2
    discrepancies = []
    verified = None  # (std poly, bc poly, discrepancy) of the last place expanded
    for left, b in zip(std_factor_lift(f, chi, p), bc_factor(f, p, chi)):
        # conjugate primes above a split p share their scalar polynomials:
        # the product is expanded once, and reused only after checking that
        if verified is not None and verified[0] == left.poly and verified[1] == b.poly:
            left._same_place(b)
            discrepancies.append(list(verified[2]))
            continue
        d = left.discrepancy(b.substitute(shift) * b.substitute(shift + 1))
        verified = (left.poly, b.poly, d)
        discrepancies.append(d)
    return all(c.is_zero() for d in discrepancies for c in d), discrepancies
