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
# polynomial helpers (dense, ascending coefficients)


def _poly_trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(p: Sequence, q: Sequence) -> list:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _poly_trim(out)


def _poly_divmod_monic(p: Sequence, m: Sequence) -> tuple[list, list]:
    """Divide by a monic polynomial, exactly (works over Z and over Q)."""
    p = list(p)
    dm = len(m) - 1
    if dm == 0:
        return p, []
    quo = [0] * max(0, len(p) - dm)
    while len(p) > dm:
        c = p[-1]
        k = len(p) - 1 - dm
        quo[k] = c
        for i in range(dm + 1):
            p[k + i] -= c * m[i]
        _poly_trim(p)
        if len(p) > k + dm:  # defensive; cancellation above removes the top
            raise AssertionError("monic division failed to reduce degree")
    return _poly_trim(quo), p


def _poly_gcd_q(p: Sequence[Fraction], q: Sequence[Fraction]) -> list[Fraction]:
    """Monic gcd over Q."""
    a = [Fraction(c) for c in p]
    b = [Fraction(c) for c in q]
    _poly_trim(a)
    _poly_trim(b)
    while b:
        lead = b[-1]
        bm = [c / lead for c in b]
        _, r = _poly_divmod_monic(a, bm)
        a, b = bm, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def _poly_xgcd_q(p, q):
    """Extended gcd over Q: returns (g, u, v) with u*p + v*q = g, g monic."""
    a = [Fraction(c) for c in p]
    b = [Fraction(c) for c in q]
    _poly_trim(a)
    _poly_trim(b)
    ua, va = [Fraction(1)], []
    ub, vb = [], [Fraction(1)]
    while b:
        lead = b[-1]
        bm = [c / lead for c in b]
        quo, r = _poly_divmod_monic(a, bm)
        # a = quo*bm + r, with bm = b/lead  =>  a - (quo/lead)*b = r
        ql = [c / lead for c in quo]
        ur = [x - y for x, y in _zip_pad(ua, _poly_mul(ql, ub))]
        vr = [x - y for x, y in _zip_pad(va, _poly_mul(ql, vb))]
        a, b = b, _poly_trim(r)
        ua, va = ub, vb
        ub, vb = _poly_trim(ur), _poly_trim(vr)
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
        ua = [c / lead for c in ua]
        va = [c / lead for c in va]
    return a, ua, va


def _zip_pad(p, q):
    n = max(len(p), len(q))
    for i in range(n):
        yield (p[i] if i < len(p) else Fraction(0), q[i] if i < len(q) else Fraction(0))


def _resultant_int(p: Sequence[int], q: Sequence[int]) -> Fraction:
    """Resultant of integer polynomials, via a Sylvester determinant.

    Robust and exact; the degrees here are tiny.
    """
    a = _poly_trim([int(c) for c in p])
    b = _poly_trim([int(c) for c in q])
    da, db = len(a) - 1, len(b) - 1
    if da < 0 or db < 0:
        return Fraction(0)
    if da == 0:
        return Fraction(a[0] ** db)
    if db == 0:
        return Fraction(b[0] ** da)
    n = da + db
    rows = []
    for i in range(db):
        row = [Fraction(0)] * n
        for j, c in enumerate(reversed(a)):
            row[i + j] = Fraction(c)
        rows.append(row)
    for i in range(da):
        row = [Fraction(0)] * n
        for j, c in enumerate(reversed(b)):
            row[i + j] = Fraction(c)
        rows.append(row)
    # fraction-free enough for our sizes: plain Gaussian elimination over Q
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, n):
            f = rows[r][col] * inv
            if f:
                for c in range(col, n):
                    rows[r][c] -= f * rows[col][c]
    return det


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
        deriv = [i * c for i, c in enumerate(mod)][1:]
        g = _poly_gcd_q(mod, deriv)
        if len(g) != 1:
            raise ValueError("modulus must be squarefree over Q")
        self.discriminant = self._disc()

    def _disc(self) -> int:
        m = list(self.modulus)
        dm = [i * c for i, c in enumerate(m)][1:]
        res = _resultant_int(m, dm)
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
            _, rem = _poly_divmod_monic(fracs, [Fraction(c) for c in self.modulus])
            fracs = rem
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
        if self.ring != other.ring:
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
        prod = _poly_mul(list(self.num), list(other.num))
        _, rem = _poly_divmod_monic(prod, list(self.ring.modulus))
        rem += [0] * (self.ring.degree - len(rem))
        return HeckeElem(self.ring, tuple(rem), self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "HeckeElem":
        """Inverse in the fraction field; fails on zero and on zero divisors."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        g, u, _ = _poly_xgcd_q(list(self.num), list(self.ring.modulus))
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
        res = _resultant_int(list(self.ring.modulus), list(self.num))
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

    @property
    def ramification_index(self) -> int:
        return 1

    def __repr__(self) -> str:
        return f"PrimeAboveL(ell={self.ell}, factor={list(self.local_factor)})"


# polynomial arithmetic over Z/n (dense, ascending)


def _pmod_trim(p, n):
    p = [c % n for c in p]
    while p and p[-1] == 0:
        p.pop()
    return p


def _pmod_mul(p, q, n, mod=None):
    out = [0] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] = (out[i + j] + a * b) % n
    out = _pmod_trim(out, n)
    if mod is not None:
        out = _pmod_rem(out, mod, n)
    return out

def _pmod_rem(p, m, n):
    """Remainder mod a monic polynomial m, coefficients in Z/n."""
    p = [c % n for c in p]
    dm = len(m) - 1
    while len(p) > dm:
        c = p[-1]
        k = len(p) - 1 - dm
        if c:
            for i in range(dm + 1):
                p[k + i] = (p[k + i] - c * m[i]) % n
        p.pop()
        while p and p[-1] == 0:
            p.pop()
    return p


def _pmod_pow(base, e, m, n):
    out = [1]
    base = _pmod_rem(base, m, n)
    while e:
        if e & 1:
            out = _pmod_mul(out, base, n, m)
        base = _pmod_mul(base, base, n, m)
        e >>= 1
    return out


def _pmod_gcd(p, q, ell):
    a = _pmod_trim(list(p), ell)
    b = _pmod_trim(list(q), ell)
    while b:
        inv = pow(b[-1], ell - 2, ell)
        bm = [(c * inv) % ell for c in b]
        r = _pmod_rem(a, bm, ell)
        a, b = bm, r
    if a:
        inv = pow(a[-1], ell - 2, ell)
        a = [(c * inv) % ell for c in a]
    return a


def _factor_squarefree_mod(m, ell):
    """Factor a squarefree monic polynomial mod ell into monic irreducibles.

    Distinct-degree splitting followed by deterministic-seeded
    Cantor-Zassenhaus equal-degree splitting.
    """
    m = _pmod_trim(list(m), ell)
    inv = pow(m[-1], ell - 2, ell)
    m = [(c * inv) % ell for c in m]
    factors = []
    work = m
    d = 1
    xq = [0, 1]
    while len(work) - 1 >= 2 * d:
        xq = _pmod_pow(xq, ell, work, ell)
        diff = _pmod_trim([a - b for a, b in zip(xq + [0] * 2, [0, 1] + [0] * len(xq))], ell)
        g = _pmod_gcd(work, diff, ell)
        if len(g) > 1:
            factors.extend(_equal_degree_split(g, d, ell))
            work = _pmod_quo(work, g, ell)
            xq = _pmod_rem(xq, work, ell)
        d += 1
    if len(work) > 1:
        factors.append(work)
    factors.sort(key=lambda f: (len(f), f))
    return [tuple(f) for f in factors]


def _pmod_quo(p, q, ell):
    """Exact quotient p/q mod ell (q monic divides p)."""
    p = list(p)
    dq = len(q) - 1
    quo = [0] * (len(p) - dq)
    while len(p) - 1 >= dq:
        c = p[-1]
        k = len(p) - 1 - dq
        quo[k] = c
        for i in range(dq + 1):
            p[k + i] = (p[k + i] - c * q[i]) % ell
        while p and p[-1] == 0:
            p.pop()
        if len(p) - 1 >= k + dq:
            raise AssertionError("inexact quotient")
    return _pmod_trim(quo, ell)


def _equal_degree_split(g, d, ell):
    """Split a product of degree-d irreducibles mod ell."""
    n = len(g) - 1
    if n == d:
        return [g]
    out = []
    stack = [g]
    attempt = 0
    while stack:
        f = stack.pop()
        if len(f) - 1 == d:
            out.append(f)
            continue
        while True:
            attempt += 1
            # deterministic sweep of trial polynomials
            a = [(attempt * (i + 1) + i * i) % ell for i in range(d + 1)]
            a = _pmod_trim(a, ell) or [1]
            t = _pmod_pow(a, (ell ** d - 1) // 2, f, ell)
            t = _pmod_trim([c for c in t], ell)
            t = _pmod_trim([t[0] - 1] + t[1:], ell) if t else [ell - 1]
            h = _pmod_gcd(f, t, ell)
            if 1 < len(h) < len(f):
                stack.append(h)
                stack.append(_pmod_quo(f, h, ell))
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
    f = _pmod_trim(list(f0), ell)
    g = _pmod_quo(_pmod_trim(list(m), ell), f, ell)
    # Bezout: s*f + t*g = 1 mod ell
    one, s, t = _pmod_xgcd(f, g, ell)
    if one != [1]:
        raise AssertionError("factor not coprime to cofactor")
    modulus = ell
    while modulus < ell ** precision:
        modulus = min(modulus * modulus, ell ** precision)
        n = modulus
        # e = m - f*g
        fg = _poly_mul(f, g)
        e = [(a - b) % n for a, b in _zip_pad_int(list(m), fg)]
        # f += (t*e mod f), g += (s*e + carry)  -- classical quadratic step
        te = _pmod_mul(t, e, n)
        q, r = _pmod_divmod_monic_int(te, f, n)
        f_new = [(a + b) % n for a, b in _zip_pad_int(f, r)]
        se = _pmod_mul(s, e, n)
        gq = _pmod_mul(g, q, n)
        g_new = [(a + b + c) % n for a, b, c in _zip_pad_int3(g, se, gq)]
        f, g = _pmod_trim(f_new, n), _pmod_trim(g_new, n)
        # refresh Bezout data to the new modulus
        one_d = [
            (x - y) % n
            for x, y in _zip_pad_int([1], _poly_mul(s, f) )
        ]
        d = [(x - y) % n for x, y in _zip_pad_int(one_d, _poly_mul(t, g))]
        sd = _pmod_mul(s, d, n)
        q2, r2 = _pmod_divmod_monic_int(sd, g, n)
        s = _pmod_trim([(a + b) % n for a, b in _zip_pad_int(s, r2)], n)
        td = _pmod_mul(t, d, n)
        fq2 = _pmod_mul(f, q2, n)
        t = _pmod_trim([(a + b + c) % n for a, b, c in _zip_pad_int3(t, td, fq2)], n)
    return _pmod_trim(f, ell ** precision)


def _zip_pad_int(p, q):
    n = max(len(p), len(q))
    return [((p[i] if i < len(p) else 0), (q[i] if i < len(q) else 0)) for i in range(n)]


def _zip_pad_int3(p, q, r):
    n = max(len(p), len(q), len(r))
    return [
        (
            (p[i] if i < len(p) else 0),
            (q[i] if i < len(q) else 0),
            (r[i] if i < len(r) else 0),
        )
        for i in range(n)
    ]


def _pmod_divmod_monic_int(p, m, n):
    p = [c % n for c in p]
    dm = len(m) - 1
    quo = [0] * max(0, len(p) - dm)
    while len(p) - 1 >= dm and len(p) > dm:
        c = p[-1]
        k = len(p) - 1 - dm
        quo[k] = c
        for i in range(dm + 1):
            p[k + i] = (p[k + i] - c * m[i]) % n
        while p and p[-1] == 0:
            p.pop()
    return quo, p


def _pmod_xgcd(p, q, ell):
    a, b = _pmod_trim(list(p), ell), _pmod_trim(list(q), ell)
    ua, va = [1], []
    ub, vb = [], [1]
    while b:
        inv = pow(b[-1], ell - 2, ell)
        bm = [(c * inv) % ell for c in b]
        quo, r = _pmod_divmod_monic_int(a, bm, ell)
        ql = [(c * inv) % ell for c in quo]
        ur = [(x - y) % ell for x, y in _zip_pad_int(ua, _pmod_mul(ql, ub, ell))]
        vr = [(x - y) % ell for x, y in _zip_pad_int(va, _pmod_mul(ql, vb, ell))]
        a, b = b, _pmod_trim(r, ell)
        ua, va = ub, vb
        ub, vb = _pmod_trim(ur, ell), _pmod_trim(vr, ell)
    if a:
        inv = pow(a[-1], ell - 2, ell)
        a = [(c * inv) % ell for c in a]
        ua = [(c * inv) % ell for c in ua]
        va = [(c * inv) % ell for c in va]
    return a, ua, va


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
    proj = _pmod_rem([c % n for c in a.num], lifted, n)
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
