"""The coset walk and per-coset reader of the inert operators: the tests'
reference.

The library reads a lift by (det, content) rows (``hecke._rows``), counts
of h's translates by local type.  Here the cosets are walked one by one:
``_coset_walk`` lists the p^2 + 1 translates alpha_a* h alpha_a of h, in
field coordinates, keeping those divisible by each term's power of p, and
S(h) from ``_diagonal_sum``; the tests check the rows against it at every
point of deep shapes.  The reader takes any source on lattice keys (det,
t1, t3, w.a, w.b): a lift, read through ``maass._lift_getter``, a
``CoeffTable``, or a ``LazyAction``.  It reads one source value per coset
image, one ``lincomb`` per point, memoised, and U_p as T_p applied twice.
Singular keys (det 0) read the ring's zero, where cusp forms vanish.

The walk is checked in turn against the matrix transforms h -> g* h g
(``transform_integral``, and ``transform`` with denominators allowed in
g), written out on lattice coordinates from QuadInt arithmetic, image by
image, with the helpers only the tests use: ``conj``, ``omega_coef`` and
``divide``.
"""

from dataclasses import dataclass
from functools import cache
from itertools import starmap
from math import gcd
from typing import Callable, Optional, Sequence

from hermlift.hermitian import HermPoint
from hermlift.maass import CoeffTable, MaassTuple, RangeError, _lift_getter
from hermlift.quadfield import FieldParams, QuadInt
from hermlift.ring import HeckeRing, lincomb

Slots = tuple[tuple[int, int, list[tuple[int, int, int, int]]], ...]


def _translates(params: FieldParams, p: int) -> Callable[[int, int, int, int], list[tuple[int, int, int, int]]]:
    """h = (t1, t3, w.a, w.b) -> its p^2 + 1 translates alpha_a* h alpha_a: at
    a = x + y omega in O_K/p, x-major, then y, (p^2 t1, t3 + N(a) t1 + wb x -
    wa y, p (w + t1 (c1 + c2 omega))) with c1 + c2 omega = sqrt(-D) a, then
    (t1, p^2 t3, p w) at diag(1, p)."""
    q, pp = params.norm_c, p * p
    every = [(x * x + x * y + y * y * q, x, y, -x - 2 * q * y, 2 * x + y) for x in range(p) for y in range(p)]
    return lambda t1, t3, wa, wb: [(pp * t1, na * t1 + t3 + wb * x - wa * y, p * (t1 * c1 + wa), p * (t1 * c2 + wb))
                                   for na, x, y, c1, c2 in every] + [(t1, pp * t3, p * wa, p * wb)]


def over(images: list[tuple[int, int, int, int]], n: int) -> list[tuple[int, int, int, int]]:
    """The images divisible by n, divided by n: the lattice points among images / n."""
    return [(a // n, b // n, c // n, d // n) for a, b, c, d in images if a % n == b % n == c % n == d % n == 0]


def _coset_walk(kind: str, params: FieldParams, p: int) -> tuple[Callable[..., Slots], int]:
    """The coset images of h under T_{p,0} or T_p, one slot per term, and
    the denominator p^k of the slots' integer scalars: the reference for
    ``hecke._rows``, and the tests' per-coset reference reader.

    ``slots(det, t1, t3, wa, wb)``, on h's lattice key, gives (scalar, det,
    images) per term, images (t1, t3, w.a, w.b) of determinant det in the
    order the source reads them: T_{p,0} reads the translates A of h, the
    lattice points among A / p^2, and h; T_p those among A / p, p h, h / p."""
    translates = _translates(params, p)
    pp, k = p * p, params.k
    den, hi, lo = p ** k, p ** 4, p ** (2 * k)  # hi, lo: p^(4-k), p^k times den

    def slots(det: int, t1: int, t3: int, wa: int, wb: int) -> Slots:
        h = (t1, t3, wa, wb)
        if kind == "InertT0":
            A, s = translates(*h), _diagonal_sum(p, det, gcd(*h))
            return (hi, pp * det, A), (lo, det // pp, over(A, pp)), (s * den, det, [h])
        ph = (p * t1, p * t3, p * wa, p * wb)
        return (p * den, det, over(translates(*h), p)), (hi, pp * det, [ph]), (lo, det // pp, over([h], p))

    return slots, den


def _diagonal_sum(p: int, det: int, c: int) -> int:
    """S(h) from det(h) and c = content(h)."""
    if det % p:
        return p - 1
    return p ** 3 - p * p + p - 1 if c % p == 0 else -p * p + p - 1


def conj(z: QuadInt) -> QuadInt:
    """The conjugate of z = a + b omega: (a + b) - b omega."""
    return QuadInt(z.a + z.b, -z.b, z.D)


def omega_coef(z: QuadInt) -> int:
    """The coefficient of omega; equals (z - conj(z)) / sqrt(-D)."""
    return z.b


def divide(h: HermPoint, n: int) -> Optional[HermPoint]:
    """h/n if still a lattice point, else None."""
    if h.t1 % n or h.t3 % n or h.w.a % n or h.w.b % n:
        return None
    return HermPoint(h.t1 // n, h.t3 // n, QuadInt(h.w.a // n, h.w.b // n, h.D))


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
    wc = conj(w)
    delta = QuadInt(-1, 2, h.D)  # sqrt(-D)
    t1p = t1 * A.norm() + t3 * C.norm() + omega_coef(w * conj(A) * C)
    t3p = t1 * B.norm() + t3 * D.norm() + omega_coef(w * conj(B) * D)
    wp = delta * (conj(A) * B * t1 + conj(C) * D * t3) + w * (conj(A) * D) - wc * (B * conj(C))
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
    return divide(hi, den * den)


def _check_invertible(G):
    (A, B), (C, D) = G
    det = A * D - B * C
    if det.is_zero():
        raise ValueError("singular transform")


STEPS = {"InertT0": ("InertT0",), "InertT": ("InertT",), "InertUp": ("InertT", "InertT")}


@dataclass
class LazyAction:
    """A source given by its values on lattice keys, computed on demand."""

    getter: Callable
    params: FieldParams
    ring: HeckeRing


def table_getter(table: CoeffTable) -> Callable:
    """A table's value at a lattice key; RangeError outside its bounds."""
    bd, bg = table.bound_det, table.bound_diag
    index, vals = table.index, table.vals

    def get(det, t1, t3, wa, wb):
        if t1 > bg or t3 > bg or det > bd:
            raise RangeError(
                f"input table bounds (det<={bd}, diag<={bg}) do not cover the "
                f"needed point ({t1},{t3},{wa},{wb}) with det {det}"
            )
        return vals[index[det, t1, t3, wa, wb]]

    return get


def inert_action(src, kind: str, p: int) -> LazyAction:
    """The operator of ``kind`` applied to src one coset image at a time."""
    if isinstance(src, MaassTuple):
        get = _lift_getter(src)
    else:
        get = src.getter if isinstance(src, LazyAction) else table_getter(src)
    ring = src.ring
    for step in STEPS[kind]:
        slots, den = _coset_walk(step, src.params, p)
        get = cache(lambda *key, get=get, slots=slots, den=den: lincomb(
            ring, [(s, get(d, *im)) for s, d, ims in slots(*key) for im in ims], den))
    return LazyAction(lambda det, *coords: get(det, *coords) if det else ring.zero(), src.params, ring)


def eval_inert_raw(src, kind: str, p: int, points) -> dict:
    """The per-coset image at the given points; ValueError at a point of another field."""
    action = inert_action(src, kind, p)
    return {h: action.getter(*h.key_for(src.params.D)) for h in points}


def act(src, kind: str, p: int, bound_det: int, bound_diag: int) -> CoeffTable:
    """The per-coset image tabulated on a shape, read at each lattice key."""
    get, zero = inert_action(src, kind, p).getter, src.ring.zero()
    table = CoeffTable(src.params, src.ring, bound_det, bound_diag)
    table.vals = [zero if v.is_zero() else v for v in starmap(get, table.lattice)]
    return table
