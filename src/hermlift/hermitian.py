"""The Fourier index lattice for degree-2 hermitian forms over Q(sqrt(-D)).

A lattice point is a positive semidefinite matrix

    [[t1,                w/sqrt(-D)],
     [conj(w/sqrt(-D)),  t3        ]]

with t1, t3 nonnegative integers and w integral; the scaled determinant
D*t1*t3 - N(w) is then a nonnegative integer.  The module provides the
content (largest integer divisor), congruence transforms h -> g* h g with
denominators allowed in g, enumeration up to bounds in a canonical order,
and certified diagonalisation modulo l^n.  Diagonalisation is one shear
algorithm for every prime l not dividing D: it uses only a unit integer
pivot and the invertibility of sqrt(-D) mod l, so split and inert l (and
l = 2) need no separate treatment.  The pivot is the first of four fixed
matrices (identity, swap, shears by 1 and by omega) that makes t1 a unit;
on a primitive point one of them always does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .quadfield import QuadInt
from .ring import _is_prime, _val_int


@dataclass(frozen=True)
class HermPoint:
    t1: int
    t3: int
    w: QuadInt

    def __post_init__(self):
        if self.t1 < 0 or self.t3 < 0:
            raise ValueError("diagonal entries must be nonnegative")
        if self.det_scaled() < 0:
            raise ValueError("point is not positive semidefinite")

    @property
    def D(self) -> int:
        return self.w.D

    def det_scaled(self) -> int:
        """D * det(h); always a nonnegative integer on the lattice."""
        return self.D * self.t1 * self.t3 - self.w.norm()

    def is_zero(self) -> bool:
        return self.t1 == 0 and self.t3 == 0 and self.w.is_zero()

    def coords(self) -> tuple[int, int, int, int]:
        return (self.t1, self.t3, self.w.a, self.w.b)

    def sort_key(self):
        return (self.det_scaled(), self.t1, self.t3, self.w.a, self.w.b)

    def key_for(self, D: int):
        """``sort_key()`` at a source of discriminant D, which holds no point of another field."""
        if self.D != D:
            raise ValueError(f"point {self} has discriminant {self.D}, the source has discriminant {D}")
        return self.sort_key()

    def divide(self, n: int) -> Optional["HermPoint"]:
        """h/n if still a lattice point, else None."""
        if self.t1 % n or self.t3 % n or not self.w.divisible(n):
            return None
        return HermPoint(self.t1 // n, self.t3 // n, self.w.divide(n))

    def swap(self) -> "HermPoint":
        return HermPoint(self.t3, self.t1, self.w.conj())

    def __repr__(self) -> str:
        return f"HermPoint({self.t1},{self.t3},{self.w})"


def point(D: int, t1: int, t3: int, wa: int = 0, wb: int = 0) -> HermPoint:
    return HermPoint(t1, t3, QuadInt(wa, wb, D))


def content(h: HermPoint) -> int:
    """Largest q with h/q still a lattice point (gcd of the coordinates)."""
    if h.is_zero():
        raise ValueError("content of the zero point is undefined")
    return math.gcd(math.gcd(h.t1, h.t3), math.gcd(h.w.a, h.w.b))


def content_p(h: HermPoint, p: int) -> int:
    """The exponent of p in content(h); p must be at least 2."""
    if p < 2:
        raise ValueError(f"p = {p} must be at least 2")
    return _val_int(content(h), p)


# ---------------------------------------------------------------------------
# congruence transforms


def transform_integral(h: HermPoint, G: Sequence[Sequence[QuadInt]]) -> HermPoint:
    """G* h G for an integral 2x2 matrix G over the order.

    Written out on lattice coordinates: with G = [[A,B],[C,D]],
        t1' = t1 N(A) + t3 N(C) + omega_coef(w conj(A) C)
        t3' = t1 N(B) + t3 N(D) + omega_coef(w conj(B) D)
        w'  = sqrt(-D) (t1 conj(A)B + t3 conj(C)D) + w conj(A)D - conj(w) B conj(C)
    where sqrt(-D) = 2*omega - 1.
    """
    (A, B), (C, D) = G
    t1, t3, w = h.t1, h.t3, h.w
    wc = w.conj()
    delta = QuadInt(-1, 2, h.D)  # sqrt(-D)
    t1p = t1 * A.norm() + t3 * C.norm() + (w * A.conj() * C).omega_coef()
    t3p = t1 * B.norm() + t3 * D.norm() + (w * B.conj() * D).omega_coef()
    wp = delta * (A.conj() * B * t1 + C.conj() * D * t3) + w * (A.conj() * D) - wc * (B * C.conj())
    return HermPoint(t1p, t3p, wp)


def transform(
    h: HermPoint, G: Sequence[Sequence[QuadInt]], den: int = 1
) -> Optional[HermPoint]:
    """g* h g for g = G/den; returns None when the result leaves the lattice.

    A None signals a vanishing Fourier coefficient for the corresponding
    Hecke coset term.
    """
    _check_invertible(G)
    hi = transform_integral(h, G)
    if den == 1:
        return hi
    return hi.divide(den * den)


def _check_invertible(G):
    (A, B), (C, D) = G
    det = A * D - B * C
    if det.is_zero():
        raise ValueError("singular transform")


def identity_matrix(D: int):
    one, zero = QuadInt(1, 0, D), QuadInt(0, 0, D)
    return ((one, zero), (zero, one))


# ---------------------------------------------------------------------------
# enumeration


def enumerate_points(D: int, bound_det: int, bound_diag: int) -> list[HermPoint]:
    """All lattice points with t1, t3 <= bound_diag and 0 < det_scaled <= bound_det.

    Cusp forms vanish at singular (det 0) points, so none is listed;
    canonically sorted so that table files are byte-stable.
    """
    return [HermPoint(t1, t3, QuadInt(a, b, D)) for _, t1, t3, a, b in _lattice(D, bound_det, bound_diag)[0]]


SHAPES = 16  # shapes _lattice holds at once: a workload cycles through a few, a test suite through many
Key = tuple[int, int, int, int, int]  # a point's canonical sort key (det, t1, t3, w.a, w.b)


@lru_cache(maxsize=SHAPES)
def _lattice(D: int, bound_det: int, bound_diag: int) -> tuple[tuple[Key, ...], tuple[tuple[int, int], ...]]:
    """The points of ``enumerate_points`` as raw sort keys (det, t1, t3, w.a,
    w.b), in the same order, and in parallel each point's (det, content):
    the lattice a ``CoeffTable`` aligns its values with, and the keys that
    lift values and ``check_maass`` read.  One immutable pair per shape,
    built once and shared while it is among the ``SHAPES`` most recently
    used.

    For each diagonal, w runs over the annulus
    D t1 t3 - bound_det <= N(w) < D t1 t3.
    """
    if bound_det < 0 or bound_diag < 0:
        raise ValueError("bounds must be nonnegative")
    raw = []  # (det, t1, t3, a, b), the canonical sort key
    for t1 in range(1, bound_diag + 1):
        for t3 in range(1, bound_diag + 1):
            cap4 = 4 * D * t1 * t3
            bmax = math.isqrt(4 * t1 * t3 - 1)
            for b in range(-bmax, bmax + 1):
                # 4 N(a + b omega) = u^2 + D b^2 with u = 2a + b, so u has the
                # parity of b and outer > u^2 >= inner
                outer, inner = cap4 - D * b * b, cap4 - 4 * bound_det - D * b * b
                lo = math.isqrt(inner - 1) + 1 if inner > 0 else 0
                for u in range(lo + (lo - b) % 2, math.isqrt(outer - 1) + 1, 2):
                    det = (outer - u * u) // 4
                    raw += [(det, t1, t3, (v - b) // 2, b) for v in ((u, -u) if u else (0,))]
    raw.sort()
    shared = {}  # one (det, content) tuple per value
    keys = ((det, math.gcd(t1, t3, a, b)) for det, t1, t3, a, b in raw)
    return tuple(raw), tuple(shared.setdefault(key, key) for key in keys)


# ---------------------------------------------------------------------------
# diagonalisation mod l^n


@dataclass(frozen=True)
class DiagCert:
    """Certificate u* h u = l^epsilon diag(a, d) (mod l^n on lattice coordinates).

    u has entries in the order with det(u) = 1 mod l^n; a is a unit mod l
    unless the point is saturated (all of h divisible by l^n).
    """

    h: HermPoint
    ell: int
    n: int
    u: tuple[tuple[QuadInt, QuadInt], tuple[QuadInt, QuadInt]]
    a: int
    d: int
    epsilon: int
    saturated: bool = False

    def verify(self) -> bool:
        ln = self.ell ** self.n
        if self.saturated:
            return self.epsilon == self.n and content_p(self.h, self.ell) >= self.n
        if self.a % self.ell == 0:
            return False
        (u11, u12), (u21, u22) = self.u
        det = u11 * u22 - u12 * u21
        if (det.a - 1) % ln or det.b % ln:
            return False
        t = transform_integral(self.h, self.u)
        le = self.ell ** self.epsilon
        return (
            (t.t1 - le * self.a) % ln == 0
            and (t.t3 - le * self.d) % ln == 0
            and t.w.a % ln == 0
            and t.w.b % ln == 0
        )


def diagonalize_mod(h: HermPoint, ell: int, n: int) -> DiagCert:
    """Certified diagonalisation u* h u = l^eps diag(a, d) mod l^n, l not dividing a.

    One algorithm for every prime l not dividing D, split or inert.  The
    pivot is the first of four fixed matrices giving h/l^eps a unit t1: the
    identity, the swap [[0, -1], [1, 0]] (t1' = t3), and the shears
    [[1, 0], [s, 1]] for s = 1 and omega (t1' = w.b and w.a + w.b mod l when
    t1 = t3 = 0 mod l; h/l^eps is primitive, so one is a unit).  Then
    [[1, s], [0, 1]], s = -w / (sqrt(-D) t1) mod l^n, clears the off-diagonal,
    and u is the pivot times that shear.  Only a unit t1 and sqrt(-D)
    invertible mod l (its norm is D) are used; neither asks whether l splits.
    """
    if h.is_zero():
        raise ValueError("cannot diagonalize the zero point")
    if not _is_prime(ell):
        raise ValueError(f"l = {ell} is not prime")
    D = h.D
    if D % ell == 0:
        raise ValueError("l must not divide the field discriminant")
    if n < 1:
        raise ValueError("n must be positive")
    eps = content_p(h, ell)
    if eps >= n:
        return DiagCert(h, ell, n, identity_matrix(D), a=0, d=0, epsilon=n, saturated=True)
    ln = ell ** n
    one, zero, omega = QuadInt(1, 0, D), QuadInt(0, 0, D), QuadInt(0, 1, D)
    base = h.divide(ell ** eps)
    for pivot in (((one, zero), (zero, one)), ((zero, -one), (one, zero)),
                  ((one, zero), (one, one)), ((one, zero), (omega, one))):
        cur = transform_integral(base, pivot)
        if cur.t1 % ell:
            break
    # clear the off-diagonal t2 = w/sqrt(-D) with t1 s = -t2 mod l^n, using
    # 1/sqrt(-D) = conj(sqrt(-D))/D = (1 - 2 omega)/D
    c, x = -pow(cur.t1 * D % ln, -1, ln), cur.w * QuadInt(1, -2, D)
    s = QuadInt(x.a * c % ln, x.b * c % ln, D)
    (p11, p12), (p21, p22) = pivot
    u = tuple(tuple(QuadInt(z.a % ln, z.b % ln, D) for z in row)
              for row in ((p11, p11 * s + p12), (p21, p21 * s + p22)))
    d = transform_integral(cur, ((one, s), (zero, one))).t3  # the shear keeps t1
    cert = DiagCert(h, ell, n, u, a=cur.t1 % ln, d=d % ln, epsilon=eps)
    if not cert.verify():
        raise AssertionError("diagonalisation certificate failed to verify")
    return cert
