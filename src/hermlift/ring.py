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
when given a modulus n.  Products and Q-linear sums of elements are the
hot path, so each ring compiles both once (``_product_kernel``): the
product is straight-line code that forms the 2g - 1 convolution sums of
two numerators (g = deg m) and returns each coordinate as the integer
combination of those sums given by the rows x^j mod m, with no loop and no
zero term; ``lincomb`` loops over the terms unrolled over the g
coordinates, int coefficients taken as they are, and normalises once.

A valuation reads a numerator mod the prime's local factor Hensel-lifted
mod l^precision: a linear map, so ``val_at`` caches its matrix per (prime,
precision) and takes one dot product per residue coordinate, no division.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

VAL_CAP = 64

INF = math.inf


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
            for j, b in enumerate(q, i):
                out[j] += a * b
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


def _product_kernel(ring: "HeckeRing"):
    """(product, lincomb) of Z[x]/(m), compiled once from the integer modulus
    as straight-line code over the g = deg m coordinates.

    product(a, b) gives the coordinates of a b mod m for coordinate tuples
    a, b: with the convolution sums c_j = sum_{i + l = j} a_i b_l,
    coordinate i is c_i plus r c_j for each nonzero coefficient r of x^i in
    x^j mod m, g <= j <= 2g - 2.  lincomb(terms, den) is ``lincomb`` for
    this ring: per term one update per coordinate, an int coefficient taken
    as it is, the common denominator grown to an lcm only when a term's does
    not divide it; then one gcd normalises the sum.
    """
    mod, g = ring.modulus, ring.degree
    conv = [
        " + ".join(f"a{i} * b{j - i}" for i in range(max(0, j - g + 1), min(j, g - 1) + 1))
        for j in range(2 * g - 1)
    ]
    out = conv[:g]
    for j in range(g, 2 * g - 1):
        for i, r in enumerate(_divmod([0] * j + [1], mod)[1]):
            if r:
                out[i] += f" {'-' if r < 0 else '+'} {'' if abs(r) == 1 else f'{abs(r)} * '}c{j}"
    seq = lambda pattern: "".join(pattern.format(i) + ", " for i in range(g))  # seq("a{}"): "a0, a1, "
    product = [f"{seq('a{}')}= a", f"{seq('b{}')}= b", *(f"c{j} = {conv[j]}" for j in range(g, 2 * g - 1)),
               f"return ({''.join(f'{o}, ' for o in out)})"]
    lincomb = [
        f"{seq('n{}')}lcm = {seq('0')}1",
        "for c, e in terms:",
        f"    {seq('a{}')}= e.num",
        "    d = e.den",
        "    if c.__class__ is not int:  # a Fraction",
        "        d, c = d * c.denominator, c.numerator",
        "    if d != lcm:",
        "        if lcm % d:  # widen the common denominator to lcm(lcm, d)",
        "            grow = d // gcd(lcm, d)",
        f"            {seq('n{}')}lcm = {seq('n{} * grow')}lcm * grow",
        "        c *= lcm // d",
        *(f"    n{i} += c * a{i}" for i in range(g)),
        f"if not ({' or '.join(f'n{i}' for i in range(g))}):",
        "    return zero",
        "lcm *= den",  # a negative den: the constructor moves the sign to the numerator
        "if lcm != 1 and (q := gcd(" + seq('n{}') + "lcm)) > 1:",
        f"    {seq('n{}')}lcm = {seq('n{} // q')}lcm // q",
        f"return HeckeElem(ring, ({seq('n{}')}), lcm, False)",
    ]
    namespace = {"gcd": math.gcd, "HeckeElem": HeckeElem, "ring": ring, "zero": ring._zero}
    exec("\n".join(f"def {head}:\n    " + "\n    ".join(lines) for head, lines in
                   (("product(a, b)", product), ("lincomb(terms, den)", lincomb))), namespace)
    return namespace["product"], namespace["lincomb"]


class HeckeRing:
    """The order Z[x]/(m(x)), m monic and squarefree over Q."""

    def __init__(self, modulus: Sequence[int]):
        mod = tuple(int(c) for c in modulus)
        if len(mod) < 2:
            raise ValueError("modulus must have degree >= 1")
        if mod[-1] != 1:
            raise ValueError("modulus must be monic")
        self.modulus = mod
        self.degree = g = len(mod) - 1
        self.discriminant = self._disc()
        if self.discriminant == 0:
            raise ValueError("modulus must be squarefree over Q")
        self._zero = HeckeElem(self, (0,) * g, 1)
        self.product, self._lincomb = _product_kernel(self)

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
        lcm = math.lcm(*(f.denominator for f in fracs))
        den_total = int(den) * lcm
        num = tuple(int(f * lcm) for f in fracs)
        return HeckeElem(self, num, den_total)

    def zero(self) -> "HeckeElem":
        return self._zero

    def one(self) -> "HeckeElem":
        return self.from_int(1)

    def from_int(self, n: int) -> "HeckeElem":
        return HeckeElem(self, (int(n),) + (0,) * (self.degree - 1), 1)

    def gen(self) -> "HeckeElem":
        if self.degree == 1:
            # x == -m[0] in Z[x]/(x + m0); still well-defined
            return self.from_int(-self.modulus[0])
        return HeckeElem(self, (0, 1) + (0,) * (self.degree - 2), 1)

    def negates_odd_powers(self, kind: str) -> bool:
        """Whether the involution ``kind`` negates the odd power-basis coordinates
        (negate-x: x -> -x) or fixes every one (trivial); refuses any other."""
        if kind == "trivial":
            return False
        if kind == "negate-x":
            m, g = self.modulus, self.degree
            if any(m[i] != 0 for i in range(g + 1) if (g - i) % 2):
                raise ValueError("negate-x is not an endomorphism for this modulus")
            return True
        raise ValueError(f"unknown involution {kind!r}")

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
            g = math.gcd(*num, den)
            if g > 1:
                num = tuple(c // g for c in num)
                den //= g
        self.ring = ring
        self.num = num
        self.den = den

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    # -- arithmetic --------------------------------------------------------

    def _linear(self, other, op):
        """self op other for op in (+, -), with ints promoted to the ring."""
        if other.__class__ is not HeckeElem:
            if isinstance(other, int):
                other = self.ring.from_int(other)
            elif not isinstance(other, HeckeElem):
                return NotImplemented
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("mismatched rings")
        if self.den == other.den:
            return HeckeElem(self.ring, tuple(map(op, self.num, other.num)), self.den)
        g = math.gcd(self.den, other.den)
        sa, sb = other.den // g, self.den // g
        num = tuple(op(a * sa, b * sb) for a, b in zip(self.num, other.num))
        return HeckeElem(self.ring, num, self.den * sa)

    def __add__(self, other):
        return self._linear(other, operator.add)

    __radd__ = __add__

    def __neg__(self):
        return HeckeElem(self.ring, tuple(-c for c in self.num), self.den, _norm=False)

    def __sub__(self, other):
        return self._linear(other, operator.sub)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if other.__class__ is not HeckeElem:
            if isinstance(other, int):
                if other == 0:
                    return self.ring.zero()
                return HeckeElem(self.ring, tuple(c * other for c in self.num), self.den)
            if isinstance(other, Fraction):
                num = tuple(c * other.numerator for c in self.num)
                return HeckeElem(self.ring, num, self.den * other.denominator)
            if not isinstance(other, HeckeElem):
                return NotImplemented
        ring = self.ring
        if ring is not other.ring and ring != other.ring:
            raise ValueError("mismatched rings")
        return HeckeElem(ring, ring.product(self.num, other.num), self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "HeckeElem":
        """Inverse in the fraction field; fails on zero and on zero divisors."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if not any(self.num[1:]):  # a constant c / den: den / c, no xgcd
            return HeckeElem(self.ring, (self.den,) + self.num[1:], self.num[0])
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
        if n == 0:
            return self.ring.one()
        base = self
        while not n & 1:
            base = base * base
            n >>= 1
        out = base  # the lowest set bit: no product with one
        while n := n >> 1:
            base = base * base
            if n & 1:
                out = out * base
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.den == 1 and self.num == (other,) + (0,) * (self.ring.degree - 1)
        if not isinstance(other, HeckeElem):
            return NotImplemented
        same_ring = self.ring is other.ring or self.ring == other.ring
        return same_ring and self.num == other.num and self.den == other.den

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
        if not self.ring.negates_odd_powers(kind):
            return self
        return HeckeElem(self.ring, tuple(-c if i % 2 else c for i, c in enumerate(self.num)), self.den, _norm=False)

    def __repr__(self) -> str:
        names = {0: "", 1: "*x"}
        terms = [
            f"{c}{names.get(i, f'*x^{i}')}" for i, c in enumerate(self.num) if c
        ] or ["0"]
        s = " + ".join(terms)
        return s if self.den == 1 else f"({s})/{self.den}"


def lincomb(ring: HeckeRing, terms: Iterable[tuple[int | Fraction, HeckeElem]], den: int = 1) -> HeckeElem:
    """(sum of c e over the pairs (c, e) of terms) / den as one element: the
    numerators are summed over a common denominator and normalised once, by
    the ring's compiled kernel (``_product_kernel``).  The one Q-linear
    summation of the hermitian side; a vanishing sum is the ring's shared
    zero."""
    return ring._lincomb(terms, den)


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
    """Trial division by the primes to 37, which decides n < 37^2, then strong
    Miller-Rabin with a base set proven exact below n (Jaeschke 1993):
    {2, 3} below 1,373,653, {2, 3, 5, 7} below 3,215,031,751, else all twelve."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in bases:
        if n % p == 0:
            return n == p
    if n < 1369:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases[: 2 if n < 1_373_653 else 4 if n < 3_215_031_751 else 12]:
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


_LIFT_CACHE: dict[tuple, tuple[int, list[tuple[int, ...]]]] = {}


def val_at(prime: PrimeAboveL, a: HeckeElem, cap: int = VAL_CAP) -> int | float:
    """Normalized valuation at a prime above ell; val(ell) = 1, val(0) = +inf.

    Values >= cap are reported as cap (read: "at least cap").  The numerator
    is read mod n = ell**precision, precision = cap + v_ell(den) but at least
    1: a numerator valuation below the precision is read exactly, and one at
    or above it gives at least cap; below 1 the value is cap anyway, as it is
    at least -v_ell(den).
    """
    if a.is_zero():
        return INF
    ring, ell = prime.ring, prime.ell
    if a.ring is not ring and a.ring != ring:
        raise ValueError("element does not belong to the prime's ring")
    vden = _val_int(a.den, ell)
    precision = max(cap + vden, 1)
    key = (ring.modulus, ell, prime.local_factor, precision)
    proj = _LIFT_CACHE.get(key)
    if proj is None:  # the columns: coefficient j of x^i mod F (mod n), i < deg m
        n = ell**precision
        if prime.residue_degree == ring.degree:
            lifted = [c % n for c in ring.modulus]
        else:
            lifted = _hensel_lift_factor(list(ring.modulus), list(prime.local_factor), ell, precision)
        rows = [_divmod([0] * i + [1], lifted, n)[1] + [0] * ring.degree for i in range(ring.degree)]
        proj = _LIFT_CACHE[key] = n, list(zip(*rows))[: prime.residue_degree]
    n, cols = proj
    v = precision  # saturated when every residue coordinate vanishes
    for col in cols:
        c = sum(map(operator.mul, a.num, col)) % n
        if c:
            v = min(v, _val_int(c, ell))
    return min(v - vden, cap)


def _val_int(n: int, ell: int) -> int:
    if n == 0:
        raise ValueError("valuation of integer zero")
    v = 0
    while n % ell == 0:
        n //= ell
        v += 1
    return v
