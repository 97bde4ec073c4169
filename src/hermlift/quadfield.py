"""Arithmetic of the imaginary quadratic field K = Q(sqrt(-D)) of prime
discriminant -D, D = 3 mod 4.

Integers are written a + b*omega with omega = (1 + sqrt(-D))/2.  The class
group is realised through reduced primitive binary quadratic forms of
discriminant -D with Gaussian composition; class characters are stored as
formal exponents of a root of unity, never as floating point numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .ring import _is_prime


class SplitType(Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


def chi_K(disc: int, n: int) -> int:
    """Quadratic character of conductor disc attached to K, as a map Z -> {-1,0,1}.

    For disc prime = 3 mod 4 this is the Legendre-type character n -> (n|disc),
    extended by periodicity; it is 1 exactly at (products of) split primes.
    """
    r = n % disc
    if r == 0:
        return 0
    e = pow(r, (disc - 1) // 2, disc)
    return 1 if e == 1 else -1


def split_type(disc: int, p: int) -> SplitType:
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    c = chi_K(disc, p)
    if c == 0:
        return SplitType.RAMIFIED
    return SplitType.SPLIT if c == 1 else SplitType.INERT


def _require_field(D: int) -> None:
    """The one refusal of a D that is no prime = 3 (mod 4)."""
    if not _is_prime(D) or D % 4 != 3:
        raise ValueError(f"D = {D} must be a prime = 3 (mod 4)")


@dataclass(frozen=True)
class FieldParams:
    """Standing parameters: the field discriminant, the weight, and (optionally)
    the congruence prime ell."""

    D: int
    k: int
    ell: int | None = None

    def __post_init__(self):
        _require_field(self.D)
        units = 6 if self.D == 3 else 2
        if self.k <= 0 or self.k % units != 0:
            raise ValueError(f"weight parameter k = {self.k} must be a positive multiple of {units}")
        if self.ell is not None:
            if self.ell == 2 or not _is_prime(self.ell):
                raise ValueError("ell must be an odd prime")
            if self.ell <= self.k:
                raise ValueError(f"ell = {self.ell} must exceed k = {self.k}")
            if self.D % self.ell == 0:
                raise ValueError("ell must not divide the field discriminant")
            h = class_group(self.D).order
            if h % self.ell == 0:
                raise ValueError("ell must not divide the class number")

    @property
    def norm_c(self) -> int:
        """The constant (1+D)/4 in the norm form a^2 + ab + b^2*(1+D)/4."""
        return (1 + self.D) // 4


@dataclass(frozen=True)
class QuadInt:
    """a + b*omega in the maximal order, omega = (1 + sqrt(-D))/2."""

    a: int
    b: int
    D: int

    def _check(self, other: "QuadInt"):
        if self.D != other.D:
            raise ValueError("mismatched fields")

    def __add__(self, other: "QuadInt") -> "QuadInt":
        self._check(other)
        return QuadInt(self.a + other.a, self.b + other.b, self.D)

    def __sub__(self, other: "QuadInt") -> "QuadInt":
        self._check(other)
        return QuadInt(self.a - other.a, self.b - other.b, self.D)

    def __neg__(self) -> "QuadInt":
        return QuadInt(-self.a, -self.b, self.D)

    def __mul__(self, other):
        if isinstance(other, int):
            return QuadInt(self.a * other, self.b * other, self.D)
        self._check(other)
        # omega^2 = omega - (1+D)/4
        q = (1 + self.D) // 4
        a, b, c, d = self.a, self.b, other.a, other.b
        return QuadInt(a * c - b * d * q, a * d + b * c + b * d, self.D)

    __rmul__ = __mul__

    def norm(self) -> int:
        return self.a * self.a + self.a * self.b + self.b * self.b * (1 + self.D) // 4

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __repr__(self) -> str:
        return f"({self.a}{self.b:+d}w)"


def norm_ball(D: int, bound: int) -> list[QuadInt]:
    """All integers with norm <= bound, in a canonical (b, a) order."""
    if bound < 0:
        return []
    out = []
    bmax = math.isqrt(4 * bound // D) if bound else 0
    for b in range(-bmax, bmax + 1):
        # norm = (a + b/2)^2 + D b^2/4 <= bound
        # solve integer a: a^2 + ab <= bound - b^2 (1+D)/4
        c = (1 + D) // 4
        disc = bound - b * b * c
        amax = math.isqrt(4 * disc + b * b) if 4 * disc + b * b >= 0 else -1
        if amax < 0:
            continue
        lo = (-b - amax - 2) // 2
        hi = (-b + amax + 2) // 2
        for a in range(lo, hi + 1):
            z = QuadInt(a, b, D)
            if z.norm() <= bound:
                out.append(z)
    out.sort(key=lambda z: (z.norm(), z.b, z.a))
    return out


# ---------------------------------------------------------------------------
# binary quadratic forms and the class group


@dataclass(frozen=True)
class BQF:
    """Primitive positive form A x^2 + B xy + C y^2 of discriminant -D."""

    A: int
    B: int
    C: int

    @property
    def disc(self) -> int:
        return self.B * self.B - 4 * self.A * self.C

    def reduced(self) -> "BQF":
        a, b, c = self.A, self.B, self.C
        while True:
            if c < a:
                a, b, c = c, -b, a
                continue
            if b > a or b <= -a:
                # normalize b into (-a, a]
                r = (a - b) // (2 * a)
                b2 = b + 2 * r * a
                c2 = a * r * r + b * r + c
                b, c = b2, c2
                continue
            break
        if (b < 0) and (a == -b or a == c):
            b = -b
        return BQF(a, b, c)

    def __repr__(self) -> str:
        return f"({self.A},{self.B},{self.C})"


def _solve_linmod(a: int, b: int, m: int) -> tuple[int, int]:
    """Solutions of a*x = b (mod m) as x = u + v*Z; raises if unsolvable."""
    g = math.gcd(a, m)
    if b % g:
        raise ValueError("no solution")
    n = m // g
    return b // g * pow(a // g, -1, n) % n, n


def _compose(f: BQF, g: BQF) -> BQF:
    """Gaussian composition of primitive forms of equal discriminant."""
    a, b, c = f.A, f.B, f.C
    alpha, beta, _gamma = g.A, g.B, g.C
    gg = (b + beta) // 2
    h = -(b - beta) // 2
    w = math.gcd(math.gcd(a, alpha), gg)
    j = w
    s = a // w
    t = alpha // w
    u = gg // w
    mu, nu = _solve_linmod(t * u, h * u + s * c, s * t)
    lam = _solve_linmod(t * nu, h - t * mu, s)[0]
    k = mu + nu * lam
    el = (k * t - h) // s
    m = (t * u * k - h * u - c * s) // (s * t)
    A = s * t
    B = j * u - (k * t + el * s)
    C = k * el - j * m
    return BQF(A, B, C).reduced()


@dataclass
class ClassGroup:
    """Class group of discriminant -D as reduced forms with a composition table."""

    D: int
    forms: list[BQF]
    composition: list[list[int]] = field(repr=False)
    inverse: list[int] = field(repr=False)
    identity_index: int

    @property
    def order(self) -> int:
        return len(self.forms)

    def index_of(self, f: BQF) -> int:
        return self.forms.index(f.reduced())

    def compose(self, i: int, j: int) -> int:
        return self.composition[i][j]

    def inv(self, i: int) -> int:
        return self.inverse[i]

    def element_order(self, i: int) -> int:
        n, j = 1, i
        while j != self.identity_index:
            j = self.compose(j, i)
            n += 1
        return n


def reduced_forms(D: int) -> list[BQF]:
    """All reduced primitive forms of discriminant -D (D prime, so all primitive)."""
    out = []
    amax = math.isqrt(D // 3)
    for a in range(1, amax + 1):
        for b in range(-a + 1, a + 1):
            if (b * b + D) % (4 * a):
                continue
            c = (b * b + D) // (4 * a)
            if c < a:
                continue
            if b < 0 and (a == -b or a == c):
                continue
            if math.gcd(math.gcd(a, b), c) != 1:
                continue
            out.append(BQF(a, b, c))
    out.sort(key=lambda f: (f.A, f.B, f.C))
    return out


_CG_CACHE: dict[int, ClassGroup] = {}
_PRIME_CLASS_CACHE: dict[tuple[int, int], int] = {}  # (D, p) -> prime_class


def class_group(D: int) -> ClassGroup:
    if D in _CG_CACHE:
        return _CG_CACHE[D]
    _require_field(D)
    forms = reduced_forms(D)
    h = len(forms)
    if h % 2 == 0:
        raise AssertionError("class number of a prime discriminant must be odd")
    identity = forms.index(BQF(1, 1, (1 + D) // 4))
    table = [[forms.index(_compose(fi, fj)) for fj in forms] for fi in forms]
    inverse = [0] * h
    for i in range(h):
        invs = [j for j in range(h) if table[i][j] == identity]
        if len(invs) != 1:
            raise AssertionError("composition table is not a group")
        inverse[i] = invs[0]
    # sanity: associativity on the computed set
    for i in range(h):
        for j in range(h):
            for k in range(h):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    raise AssertionError("composition is not associative")
    cg = ClassGroup(D=D, forms=forms, composition=table, inverse=inverse, identity_index=identity)
    _CG_CACHE[D] = cg
    return cg


def prime_class(cg: ClassGroup, p: int) -> int:
    """Index of the class of the distinguished prime above a split p.

    The prime is pinned by the smallest nonnegative b with b^2 = -D (mod 4p):
    its class is that of the form (p, b, (b^2+D)/(4p)).  The conjugate prime
    gives the inverse class.  Memoised per (D, p).
    """
    cls = _PRIME_CLASS_CACHE.get((cg.D, p))
    if cls is not None:
        return cls
    if split_type(cg.D, p) is not SplitType.SPLIT:
        raise ValueError(f"p = {p} has no split class (not split in the field)")
    for b in range(0, 4 * p):
        if (b * b + cg.D) % (4 * p) == 0:
            cls = _PRIME_CLASS_CACHE[cg.D, p] = cg.index_of(BQF(p, b, (b * b + cg.D) // (4 * p)))
            return cls
    raise AssertionError("no square root of -D mod 4p for a split prime")


@dataclass(frozen=True)
class ClassChar:
    """Character of the class group with values zeta_d^exponent, stored as exponents."""

    order: int  # d, dividing h
    exponents: tuple[int, ...]  # exponent mod d at each class index

    def exponent(self, index: int) -> int:
        if self.order == 1:
            return 0
        return self.exponents[index]

    def is_trivial(self) -> bool:
        return all(e == 0 for e in self.exponents)


def trivial_char(h: int = 1) -> ClassChar:
    return ClassChar(1, (0,) * h)


def char_values(cg: ClassGroup) -> list[ClassChar]:
    """All characters of the class group; requires the group to be cyclic."""
    h = cg.order
    if h == 1:
        return [ClassChar(1, (0,))]
    gen = next(
        (i for i in range(h) if cg.element_order(i) == h),
        None,
    )
    if gen is None:
        raise ValueError("unsupported class group shape: not cyclic")
    # dlog table with respect to the generator
    dlog = [0] * h
    j = cg.identity_index
    for t in range(h):
        dlog[j] = t
        j = cg.compose(j, gen)
    chars = []
    for jchar in range(h):
        d = h // math.gcd(jchar, h)
        exps = tuple((jchar * dlog[i] // (h // d)) % d for i in range(h))
        chars.append(ClassChar(d, exps))
    return chars
