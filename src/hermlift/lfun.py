"""Base-change Euler factors over K and the degree-4 standard factor of a
lift, all in exact arithmetic.

One builder, ``_place_factors``, reads a(p), chi_K(p) p^(k-2) and the
primes of K above p once and expands both sides from them; ``bc_factor``,
``std_factor_lift`` and ``verify_product134`` each take its output.
Satake parameters never get extracted individually: every factor is
expanded in the elementary symmetric functions e1 = a(p) and
e2 = chi(p) p^(k-2), so no splitting field is ever constructed.  A class
character twist X -> chi(P) X and an s-shift X -> Np^c X are both tags:
every factor is P(zeta^e Np^c X) with P over Frac(R), e the character's
exponent at the prime's class and c an integer.  The root of unity is
reduced modulo Phi_d only when a coefficient is printed, and Np^(c j) (a
division when c < 0) is applied only when an X-coefficient is read.
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
    """c * n^e for an integer e of either sign: an X-coefficient read off a shifted factor."""
    if not e or c.is_zero():
        return c
    return c * n**e if e > 0 else c / n**-e


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


@dataclass(eq=False)
class EulerFactor:
    """sum_j scalars[j] (zeta_order^twist Np^shift X)^j in X = (N p)^(-s),
    scalars[0] = 1, tagged by the norm Np of the prime it sits at.

    Products and comparisons align two shifts with integer products (see
    ``_aligned``); X-coefficients are formed only when read.
    """

    ring: HeckeRing
    norm: int
    scalars: list[HeckeElem]  # ascending
    order: int
    twist: int
    shift: int = 0

    def __post_init__(self):
        if not self.scalars or self.scalars[0] != 1:
            raise ValueError("Euler factors are normalised with constant term 1")

    @property
    def degree(self) -> int:
        return len(self.scalars) - 1

    @property
    def poly(self) -> list[HeckeElem]:
        """The X-coefficients without their roots of unity: scalars[j] Np^(shift j)."""
        return [_times_power(c, self.norm, self.shift * j) for j, c in enumerate(self.scalars)]

    @property
    def coeffs(self) -> list[ZetaTerm]:
        """The coefficient of X^j, poly[j] zeta^(j twist), for each j."""
        return [ZetaTerm(c, j * self.twist % self.order, self.order) for j, c in enumerate(self.poly)]

    def _same_place(self, other: "EulerFactor") -> None:
        if (self.norm, self.order, self.twist) != (other.norm, other.order, other.twist):
            raise ValueError("factors differ in their prime or their twist")

    def _aligned(self, other: "EulerFactor") -> tuple[list[HeckeElem], list[HeckeElem], int]:
        """Both scalar lists at the lower of the two shifts, and that shift: the
        higher one's scalars times Np^(delta j), integer products only."""
        low = min(self.shift, other.shift)
        a, b = (
            [c * self.norm ** ((x.shift - low) * j) for j, c in enumerate(x.scalars)] if x.shift > low else x.scalars
            for x in (self, other)
        )
        return a, b, low

    def __eq__(self, other) -> bool:
        if not isinstance(other, EulerFactor):
            return NotImplemented
        a, b, _ = self._aligned(other)
        same = (self.ring, self.norm, self.order, self.twist) == (other.ring, other.norm, other.order, other.twist)
        return same and a == b

    def __mul__(self, other: "EulerFactor") -> "EulerFactor":
        self._same_place(other)
        a, b, shift = self._aligned(other)
        # both constant terms are 1, so only the products a[i] b[j], i, j >= 1, are formed
        out = a + [self.ring.zero()] * (len(b) - 1)
        for j in range(1, len(b)):
            out[j] = out[j] + b[j]
        for i in range(1, len(a)):
            for j in range(1, len(b)):
                out[i + j] = out[i + j] + a[i] * b[j]
        return EulerFactor(self.ring, self.norm, out, self.order, self.twist, shift)

    def substitute(self, shift: Fraction | int) -> "EulerFactor":
        """X -> Np^shift X, the factor of L(., s - shift): an integral shift (k is even) added to the tag."""
        if shift.denominator != 1:
            raise ValueError(f"non-integral substitution exponent {Fraction(shift)}")
        shift = self.shift + shift.numerator
        return EulerFactor(self.ring, self.norm, list(self.scalars), self.order, self.twist, shift)

    def discrepancy(self, other: "EulerFactor") -> list[HeckeElem]:
        """X-coefficients of self minus other; all zero exactly when the two factors agree."""
        self._same_place(other)
        a, b, shift = self._aligned(other)
        zero, n = self.ring.zero(), max(len(a), len(b))
        a, b = a + [zero] * (n - len(a)), b + [zero] * (n - len(b))
        return [_times_power(x - y, self.norm, shift * j) for j, (x, y) in enumerate(zip(a, b))]


def _place_factors(f: NewformData, chi: ClassChar, p: int) -> tuple[list[EulerFactor], list[EulerFactor]]:
    """The standard and base-change factors at the primes of K above p != D,
    the distinguished prime first, from one read of a(p) and the places.

    P = A + B and Q = A B for A, B the d-th powers of the Satake parameters,
    d the residue degree: e1 = a(p) and e2 = chi(p) p^(k-2) at a split p,
    e1^2 - 2 e2 and e2^2 at an inert one, whose prime is principal.
    """
    st = split_type(f.D, p)  # refuses a non-prime p
    if p == f.D:
        raise ValueError(f"p = {p} is the ramified prime; factors are defined away from it")
    P, Q = f.a(p), f.ring.from_int(chi_K(f.D, p) * p ** (f.k - 2))
    if st is SplitType.INERT:
        P, Q, N, twists = P * P - Q * 2, Q * Q, p * p, [0]
    else:
        cg = class_group(f.D)
        cls = prime_class(cg, p)
        N, twists = p, [chi.exponent(idx) for idx in (cls, cg.inv(cls))]
    one = f.ring.one()
    # prod (1 - x Y) over x in {A, B, N A, N B}: signed elementary symmetric functions
    s = [one, P * (-1 - N), Q * (1 + N * N) + P * P * N, P * Q * (-N - N * N), Q * Q * (N * N)]
    # Y = chi(P) N^(2 - k/2) X: the twist and the shift stay in the tags; each place its own list
    std = [EulerFactor(f.ring, N, list(s), chi.order, twist, 2 - f.k // 2) for twist in twists]
    return std, [EulerFactor(f.ring, N, [one, -P, Q], chi.order, twist) for twist in twists]


def bc_factor(f: NewformData, p: int, chi: ClassChar | None = None) -> list[EulerFactor]:
    """Base-change Euler factors at the primes of K above p (p != D).

    Split p gives two degree-2 factors in X = p^(-s) (the distinguished
    prime first, its conjugate second), inert p one degree-2 factor in
    X = p^(-2s) whose parameters are the squares.  The twist multiplies X
    by the character value at the prime's class; ``EulerFactor.substitute``
    gives the factor of L(BC(f), s - shift).
    """
    return _place_factors(f, chi if chi is not None else trivial_char(), p)[1]


def std_factor_lift(f: NewformData, chi: ClassChar, p: int) -> list[EulerFactor]:
    """Degree-4 standard Euler factors of the lift at the primes above p.

    Built from the Frobenius eigenvalue multiset
    {A, B, Np A, Np B} * chi(P) Np^(2-k/2), A, B the d-th powers of the
    Satake parameters, expanded symmetrically so only e1 and e2 appear;
    the factor carries Np^(2-k/2) as its shift.
    """
    return _place_factors(f, chi, p)[0]


def verify_product134(f: NewformData, chi: ClassChar, p: int) -> tuple[bool, list[list[HeckeElem]]]:
    """Exact factorization check: the standard factor of the lift at each
    prime above p equals the product of the two base-change factors twisted
    by chi at arguments shifted by 2 - k/2 and 3 - k/2.

    The two sides go through independent expansions (Frobenius multiset vs
    product of shifted quadratics) from one read of a(p) and the places
    above p; they share the twist e, and P(tX) = Q(tX) for a unit t
    exactly when P = Q, so their scalars are compared at a common shift.
    Returns (ok, per-prime X-coefficient discrepancies).
    """
    return _verify_factors(f, *_place_factors(f, chi, p))


def _verify_factors(
    f: NewformData, std: list[EulerFactor], bc: list[EulerFactor]
) -> tuple[bool, list[list[HeckeElem]]]:
    """``verify_product134`` on the factors ``_place_factors`` built."""
    shift = 2 - f.k // 2
    discrepancies = []
    verified = None  # ((scalars, shift) of both sides, discrepancy) of the last place expanded
    for left, b in zip(std, bc):
        # conjugate primes above a split p share their scalars and shifts:
        # the product is expanded once, and reused only after checking that
        key = (left.scalars, left.shift, b.scalars, b.shift)
        if verified is not None and verified[0] == key:
            left._same_place(b)
            discrepancies.append(list(verified[1]))
            continue
        d = left.discrepancy(b.substitute(shift) * b.substitute(shift + 1))
        verified = (key, d)
        discrepancies.append(d)
    return all(c.is_zero() for d in discrepancies for c in d), discrepancies
