"""The Fourier index lattice for degree-2 hermitian forms over Q(sqrt(-D)).

A lattice point is a positive semidefinite matrix

    [[t1,                w/sqrt(-D)],
     [conj(w/sqrt(-D)),  t3        ]]

with t1, t3 nonnegative integers and w integral; the scaled determinant
D*t1*t3 - N(w) is then a nonnegative integer.  The module provides the
content (largest integer divisor) and enumeration up to bounds in a
canonical order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .quadfield import QuadInt


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

    def __repr__(self) -> str:
        return f"HermPoint({self.t1},{self.t3},{self.w})"


def point(D: int, t1: int, t3: int, wa: int = 0, wb: int = 0) -> HermPoint:
    return HermPoint(t1, t3, QuadInt(wa, wb, D))


def content(h: HermPoint) -> int:
    """Largest q with h/q still a lattice point (gcd of the coordinates)."""
    if h.is_zero():
        raise ValueError("content of the zero point is undefined")
    return math.gcd(math.gcd(h.t1, h.t3), math.gcd(h.w.a, h.w.b))


# ---------------------------------------------------------------------------
# enumeration


def enumerate_points(D: int, bound_det: int, bound_diag: int) -> list[HermPoint]:
    """All lattice points with t1, t3 <= bound_diag and 0 < det_scaled <= bound_det.

    Cusp forms vanish at singular (det 0) points, so none is listed;
    canonically sorted so that table files are byte-stable.
    """
    return [HermPoint(t1, t3, QuadInt(a, b, D)) for _, t1, t3, a, b in _lattice(D, bound_det, bound_diag).lattice]


SHAPES = 16  # shapes _lattice holds at once: a workload cycles through a few, a test suite through many
Key = tuple[int, int, int, int, int]  # a point's canonical sort key (det, t1, t3, w.a, w.b)


class Shape(NamedTuple):
    """A shape's points and their (det, content) classes, as ``_lattice`` builds them."""

    lattice: tuple[Key, ...]  # the points' sort keys, in canonical order
    distinct: tuple[tuple[int, int], ...]  # the (det, content) keys, in order of first occurrence
    slot: tuple[int, ...]  # each point's index in distinct
    first: tuple[int, ...]  # each key's first position in lattice


@lru_cache(maxsize=SHAPES)
def _lattice(D: int, bound_det: int, bound_diag: int) -> Shape:
    """The points of ``enumerate_points`` as raw sort keys (det, t1, t3, w.a,
    w.b), in the same order, with their (det, content) classes: the
    lattice a ``CoeffTable`` aligns its values with, and the keys that
    lift values and ``check_maass`` read once per class, a point's key
    being ``distinct[slot[j]]``.  One immutable record per shape, built
    once and shared while it is among the ``SHAPES`` most recently used.

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
    index, first = {}, {}  # key -> its position in distinct (one shared int each); position -> its first point
    slot = tuple(index.setdefault((det, math.gcd(t1, t3, a, b)), len(index)) for det, t1, t3, a, b in raw)
    for j, i in enumerate(slot):
        first.setdefault(i, j)
    return Shape(tuple(raw), tuple(index), slot, tuple(first.values()))
