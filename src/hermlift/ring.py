"""Exact arithmetic in Z[x]/(m(x)) and its fraction field.

The coefficient ring for everything downstream is an order Z[x]/(m) with
m monic and squarefree over Q ("Hecke ring").  Elements are stored as an
integer coordinate vector in the power basis together with a positive
integer denominator, so a single class covers both ring elements and the
fractions the pipeline produces (all denominators that arise are rational
integers).

Primes of the ring above a rational prime l are obtained by factoring
m mod l; we refuse primes dividing disc(m), which keeps the order maximal
at l and every valuation well-defined with ramification index 1.

All polynomial work (reduction mod m, inverses, norms, the discriminant,
Cantor-Zassenhaus factoring mod l and Hensel lifting) goes through one
toolkit of dense coefficient lists that works over Z or Q, or over Z/n
when given a modulus n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

VAL_CAP = 64

INF = math.inf


def _gcd_many(values: Iterable[int]) -> int:
    g = 0
    for v in values:
        g = math.gcd(g, v)
        if g == 1:
            return 1
    return g


# ---------------------------------------------------------------------------
# polynomial toolkit: dense ascending coefficient lists, over Z or Q when the
# modulus n is None, over Z/n otherwise


def _trim(p: list, n: int | None = None) -> list:
    """Drop zero top coefficients, after reducing mod n when it is given."""
    if n is not None:
        p = [c % n for c in p]
    while p and p[-1] == 0:
        p.pop()
    return p


def _add(p: Sequence, q: Sequence, n: int | None = None) -> list:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return _trim(out, n)


def _sub(p: Sequence, q: Sequence, n: int | None = None) -> list:
    return _add(p, [-c for c in q], n)


def _mul(p: Sequence, q: Sequence, n: int | None = None) -> list:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _trim(out, n)


def _divmod(p: Sequence, m: Sequence, n: int | None = None) -> tuple[list, list]:
    """Quotient and remainder of p by m, whose leading coefficient is 1 (mod n).

    Mod n only the leading coefficient is reduced at each step, which
    leaves the quotient reduced; the remainder is reduced once at the end.
    """
    r = list(p)
    dm = len(m) - 1
    if len(r) <= dm:
        return [], _trim(r, n)
    quo = [0] * (len(r) - dm)
    for k in reversed(range(len(quo))):
        c = r.pop()
        if n is not None:
            c %= n
        quo[k] = c
        if c:
            for i in range(dm):
                r[k + i] -= c * m[i]
    return _trim(quo), _trim(r, n)


def _exact_quo(p: Sequence, m: Sequence, n: int | None = None) -> list:
    """p / m for a monic m known to divide p."""
    quo, rem = _divmod(p, m, n)
    if rem:
        raise AssertionError("inexact quotient")
    return quo


def _powmod(base: Sequence, e: int, m: Sequence, n: int | None = None) -> list:
    """base**e modulo the monic m."""
    out = [1]
    base = _divmod(base, m, n)[1]
    while e:
        if e & 1:
            out = _divmod(_mul(out, base), m, n)[1]
        base = _divmod(_mul(base, base), m, n)[1]
        e >>= 1
    return out


def _xgcd(
    p: Sequence, q: Sequence, n: int | None = None, cofactors: bool = True
) -> tuple[list, list | None, list | None]:
    """(g, u, v) with u*p + v*q = g and g monic, over Q or mod a prime n;
    with ``cofactors=False`` only g is computed, and u, v are None."""

    def inverse(c):
        return 1 / Fraction(c) if n is None else pow(c, -1, n)

    a, b = _trim(list(p), n), _trim(list(q), n)
    ua, va, ub, vb = [1], [], [], [1]
    while b:
        inv = inverse(b[-1])
        quo, r = _divmod(a, _mul(b, [inv], n), n)
        a, b = b, r
        if cofactors:
            # a = quo * (b * inv) + r, so a - (quo * inv) * b = r
            ql = _mul(quo, [inv], n)
            ua, ub = ub, _sub(ua, _mul(ql, ub), n)
            va, vb = vb, _sub(va, _mul(ql, vb), n)
    if a:
        inv = [inverse(a[-1])]
        a = _mul(a, inv, n)
        if cofactors:
            ua, va = _mul(ua, inv, n), _mul(va, inv, n)
    return (a, ua, va) if cofactors else (a, None, None)


def _resultant(p: Sequence, q: Sequence) -> Fraction:
    """Resultant over Q, by the Euclidean remainder sequence.

    With q = quo * p + r: Res(p, q) = lc(p)^(deg q - deg r) Res(p, r), and
    Res(p, q) = (-1)^(deg p deg q) Res(q, p).
    """
    a, b = _trim(list(p)), _trim(list(q))
    res = Fraction(1)
    while a and b:
        da, db = len(a) - 1, len(b) - 1
        if db == 0:
            return res * Fraction(b[0]) ** da
        lead = Fraction(b[-1])
        r = _divmod(a, _mul(b, [1 / lead]))[1]
        if not r:
            break
        res *= (-1) ** (da * db) * lead ** (da - len(r) + 1)
        a, b = b, r
    return Fraction(0)


# ---------------------------------------------------------------------------
# the ring


class HeckeRing:
    """The order Z[x]/(m(x)), m monic and squarefree over Q."""

    def __init__(self, modulus: Sequence[int]):
        mod = tuple(int(c) for c in modulus)
        if len(mod) < 2:
            raise ValueError("modulus must have degree >= 1")
        if mod[-1] != 1:
            raise ValueError("modulus must be monic")
        self.modulus = mod
        self.degree = len(mod) - 1
        self.discriminant = self._disc()
        if self.discriminant == 0:
            raise ValueError("modulus must be squarefree over Q")

    def _disc(self) -> int:
        m = self.modulus
        res = _resultant(m, [i * c for i, c in enumerate(m)][1:])
        g = self.degree
        sign = -1 if (g * (g - 1) // 2) % 2 else 1
        d = sign * res
        if d.denominator != 1:
            raise AssertionError("discriminant of a monic integer polynomial is an integer")
        return int(d)

    # -- constructors ------------------------------------------------------

    def element(self, coords: Sequence[int | Fraction], den: int = 1) -> "HeckeElem":
        """Element with the given power-basis coordinates (rationals allowed)."""
        fracs = [Fraction(c) for c in coords]
        if len(fracs) > self.degree:
            # reduce mod m over Q, then clear denominators
            fracs = _divmod(fracs, self.modulus)[1]
        fracs += [Fraction(0)] * (self.degree - len(fracs))
        lcm = 1
        for f in fracs:
            lcm = lcm * f.denominator // math.gcd(lcm, f.denominator)
        den_total = int(den) * lcm
        num = tuple(int(f * lcm) for f in fracs)
        return HeckeElem(self, num, den_total)

    def zero(self) -> "HeckeElem":
        return HeckeElem(self, (0,) * self.degree, 1)

    def one(self) -> "HeckeElem":
        return self.from_int(1)

    def from_int(self, n: int) -> "HeckeElem":
        return HeckeElem(self, (int(n),) + (0,) * (self.degree - 1), 1)

    def from_rational(self, q: Fraction | int) -> "HeckeElem":
        q = Fraction(q)
        return HeckeElem(self, (q.numerator,) + (0,) * (self.degree - 1), q.denominator)

    def gen(self) -> "HeckeElem":
        if self.degree == 1:
            # x == -m[0] in Z[x]/(x + m0); still well-defined
            return self.from_int(-self.modulus[0])
        return HeckeElem(self, (0, 1) + (0,) * (self.degree - 2), 1)

    def __eq__(self, other) -> bool:
        return isinstance(other, HeckeRing) and self.modulus == other.modulus

    def __hash__(self) -> int:
        return hash(("HeckeRing", self.modulus))

    def __repr__(self) -> str:
        return f"HeckeRing({list(self.modulus)})"


class HeckeElem:
    """Element of Frac(Z[x]/(m)) with an integer denominator.

    Integral ring elements are exactly those with ``den == 1``.  Instances
    are immutable; arithmetic reduces modulo m and normalises the gcd of
    numerator and denominator.
    """

    __slots__ = ("ring", "num", "den")

    def __init__(self, ring: HeckeRing, num: tuple[int, ...], den: int = 1, _norm: bool = True):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            num = tuple(-c for c in num)
            den = -den
        if _norm and den != 1:
            g = _gcd_many(num)
            g = math.gcd(g, den)
            if g > 1:
                num = tuple(c // g for c in num)
                den //= g
        self.ring = ring
        self.num = num
        self.den = den

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.num)

    def is_integral(self) -> bool:
        return self.den == 1

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "HeckeElem"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("mismatched rings")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        if not isinstance(other, HeckeElem):
            return NotImplemented
        self._check(other)
        if self.den == other.den:
            return HeckeElem(self.ring, tuple(a + b for a, b in zip(self.num, other.num)), self.den)
        g = math.gcd(self.den, other.den)
        sa, sb = other.den // g, self.den // g
        den = self.den * sa
        return HeckeElem(self.ring, tuple(a * sa + b * sb for a, b in zip(self.num, other.num)), den)

    __radd__ = __add__

    def __neg__(self):
        return HeckeElem(self.ring, tuple(-c for c in self.num), self.den, _norm=False)

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        if not isinstance(other, HeckeElem):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return self.ring.zero()
            return HeckeElem(self.ring, tuple(c * other for c in self.num), self.den)
        if isinstance(other, Fraction):
            return HeckeElem(
                self.ring,
                tuple(c * other.numerator for c in self.num),
                self.den * other.denominator,
            )
        if not isinstance(other, HeckeElem):
            return NotImplemented
        self._check(other)
        rem = _divmod(_mul(self.num, other.num), self.ring.modulus)[1]
        rem += [0] * (self.ring.degree - len(rem))
        return HeckeElem(self.ring, tuple(rem), self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "HeckeElem":
        """Inverse in the fraction field; fails on zero and on zero divisors."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        g, u, _ = _xgcd(self.num, self.ring.modulus)
        if len(g) != 1:
            raise ZeroDivisionError("element is a zero divisor (shares a factor with the modulus)")
        inv = self.ring.element([c * self.den for c in u])
        return inv

    def __truediv__(self, other):
        if isinstance(other, int):
            return HeckeElem(self.ring, self.num, self.den * other)
        if isinstance(other, Fraction):
            return self * Fraction(other.denominator, other.numerator)
        if not isinstance(other, HeckeElem):
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.den == 1 and self.num == (other,) + (0,) * (self.ring.degree - 1)
        if not isinstance(other, HeckeElem):
            return NotImplemented
        return self.ring == other.ring and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        # integral constants compare equal to their int, so hash like it
        if self.den == 1 and not any(self.num[1:]):
            return hash(self.num[0])
        return hash((self.num, self.den))

    # -- misc ---------------------------------------------------------------

    def coords(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.num)

    def norm(self) -> Fraction:
        """Field norm down to Q (determinant of multiplication by self)."""
        res = _resultant(self.ring.modulus, self.num)
        return res / Fraction(self.den) ** self.ring.degree

    def apply_involution(self, kind: str) -> "HeckeElem":
        """Ring involution given on the power basis: trivial or x -> -x."""
        if kind == "trivial":
            return self
        if kind == "negate-x":
            m = self.ring.modulus
            g = self.ring.degree
            if any(m[i] != 0 for i in range(g + 1) if (g - i) % 2):
                raise ValueError("negate-x is not an endomorphism for this modulus")
            return HeckeElem(
                self.ring,
                tuple(-c if i % 2 else c for i, c in enumerate(self.num)),
                self.den,
                _norm=False,
            )
        raise ValueError(f"unknown involution {kind!r}")

    def __repr__(self) -> str:
        names = {0: "", 1: "*x"}
        terms = [
            f"{c}{names.get(i, f'*x^{i}')}" for i, c in enumerate(self.num) if c
        ] or ["0"]
        s = " + ".join(terms)
        return s if self.den == 1 else f"({s})/{self.den}"


# ---------------------------------------------------------------------------
# primes above l and valuations


@dataclass(frozen=True)
class PrimeAboveL:
    """A prime of Z[x]/(m) above an odd rational prime l not dividing disc(m).

    ``local_factor`` is the monic irreducible factor of m mod l cutting out
    the prime; the ramification index is 1 under the maximality assumption,
    so val(l) = 1 and the residue degree is deg(local_factor).
    """

    ring: HeckeRing
    ell: int
    local_factor: tuple[int, ...]

    @property
    def residue_degree(self) -> int:
        return len(self.local_factor) - 1

    def __repr__(self) -> str:
        return f"PrimeAboveL(ell={self.ell}, factor={list(self.local_factor)})"


def _factor_squarefree_mod(m, ell):
    """Factor a squarefree monic polynomial mod ell into monic irreducibles.

    Distinct-degree splitting followed by Cantor-Zassenhaus equal-degree
    splitting over a deterministic sweep of trial polynomials.
    """
    work = _trim(list(m), ell)
    factors = []
    d = 1
    xq = [0, 1]
    while len(work) - 1 >= 2 * d:
        xq = _powmod(xq, ell, work, ell)
        g = _xgcd(work, _sub(xq, [0, 1], ell), ell, cofactors=False)[0]
        if len(g) > 1:
            factors.extend(_equal_degree_split(g, d, ell))
            work = _exact_quo(work, g, ell)
            xq = _divmod(xq, work, ell)[1]
        d += 1
    if len(work) > 1:
        factors.append(work)
    factors.sort(key=lambda f: (len(f), f))
    return [tuple(f) for f in factors]


def _equal_degree_split(g, d, ell):
    """Split a product of degree-d irreducibles mod ell."""
    out = []
    stack = [g]
    # the trial polynomial has the base-ell digits of the counter as its
    # coefficients, so every residue mod f comes up; constants never split
    attempt = ell
    while stack:
        f = stack.pop()
        if len(f) - 1 == d:
            out.append(f)
            continue
        while True:
            a, rest = [], attempt
            while rest:
                rest, digit = divmod(rest, ell)
                a.append(digit)
            attempt += 1
            t = _sub(_powmod(a, (ell ** d - 1) // 2, f, ell), [1], ell)
            h = _xgcd(f, t, ell, cofactors=False)[0]
            if 1 < len(h) < len(f):
                stack.append(h)
                stack.append(_exact_quo(f, h, ell))
                break
    return out


def primes_above(ring: HeckeRing, ell: int) -> list[PrimeAboveL]:
    """Primes of Z[x]/(m) above ell; requires ell odd and ell not dividing disc(m)."""
    if ell == 2:
        raise ValueError("ell = 2 is not supported (odd primes only)")
    if not _is_prime(ell):
        raise ValueError(f"{ell} is not an odd prime")
    if ring.discriminant % ell == 0:
        raise ValueError(
            f"ell = {ell} divides disc(m) = {ring.discriminant}: non-maximal locus refused"
        )
    return [PrimeAboveL(ring, ell, f) for f in _factor_squarefree_mod(list(ring.modulus), ell)]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _hensel_lift_factor(m, f0, ell, precision):
    """Lift a factor f0 of m mod ell to a factor mod ell**precision.

    Requires gcd(f0, m/f0) = 1 mod ell (automatic: m squarefree mod ell).
    Returns the lifted monic factor with coefficients mod ell**precision.
    """
    f = _trim(list(f0), ell)
    g = _exact_quo(_trim(list(m), ell), f, ell)
    # Bezout: s*f + t*g = 1 mod ell
    one, s, t = _xgcd(f, g, ell)
    if one != [1]:
        raise AssertionError("factor not coprime to cofactor")
    n, target = ell, ell ** precision
    while n < target:
        n = min(n * n, target)
        # classical quadratic step: with e = m - f*g and t*e = q*f + r,
        # f += r and g += s*e + g*q
        e = _sub(m, _mul(f, g), n)
        q, r = _divmod(_mul(t, e), f, n)
        f, g = _add(f, r, n), _add(g, _add(_mul(s, e), _mul(g, q)), n)
        # refresh Bezout data to the new modulus
        d = _sub(_sub([1], _mul(s, f)), _mul(t, g), n)
        q2, r2 = _divmod(_mul(s, d), g, n)
        s, t = _add(s, r2, n), _add(t, _add(_mul(t, d), _mul(f, q2)), n)
    return f


_LIFT_CACHE: dict[tuple, list[int]] = {}


def val_at(prime: PrimeAboveL, a: HeckeElem, cap: int = VAL_CAP) -> int | float:
    """Normalized valuation at a prime above ell; val(ell) = 1, val(0) = +inf.

    Values >= cap are reported as cap (read: "at least cap").
    """
    if a.is_zero():
        return INF
    ring, ell = prime.ring, prime.ell
    if a.ring != ring:
        raise ValueError("element does not belong to the prime's ring")
    precision = cap + 1 + 2 * _val_int(a.den, ell)
    key = (ring.modulus, ell, prime.local_factor, precision)
    lifted = _LIFT_CACHE.get(key)
    if lifted is None:
        if prime.residue_degree == ring.degree:
            lifted = [c % ell ** precision for c in ring.modulus]
        else:
            lifted = _hensel_lift_factor(list(ring.modulus), list(prime.local_factor), ell, precision)
        _LIFT_CACHE[key] = lifted
    n = ell ** precision
    proj = _divmod(a.num, lifted, n)[1]
    if not proj:
        v = precision  # saturated
    else:
        v = min(_val_int(c, ell) if c else precision for c in proj)
    v -= _val_int(a.den, ell)
    return min(v, cap)


def _val_int(n: int, ell: int) -> int:
    if n == 0:
        raise ValueError("valuation of integer zero")
    v = 0
    while n % ell == 0:
        n //= ell
        v += 1
    return v
