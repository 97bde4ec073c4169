"""The Maass lift, its membership test, and the descent back to q-expansions.

A lift is stored as its identity-class coefficient table plus the class
character chi: the component at class b is chi(b) times the identity
component, so materialising every component would only invite
inconsistency.  Coefficient tables satisfy the divisor-sum condition

    c(h) = sum_{d | content(h)} d^(k-1) alpha(det_scaled(h) / d^2)

for a single function alpha on determinant values; that condition is the
membership criterion, and alpha is what descends to an elliptic
q-expansion via the counting factor a_K.

Normalisation: the exact global unit i/sqrt(D) relating alpha to the
elliptic coefficients is dropped throughout; it is independent of the
index and the class, so every commutation, membership and congruence
statement checked here is invariant under it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Callable

from .elliptic import NewformData, QExpansion, antisymmetrize
from .hermitian import HermPoint, content, enumerate_points
from .quadfield import ClassChar, FieldParams
from .ring import HeckeElem, HeckeRing

Coeff = HeckeElem
Oracle = Callable[[HermPoint], Coeff]
Getter = Callable[[int, int, int, int], Coeff]


class RangeError(ValueError):
    """A coefficient was needed outside the range its source determines."""


_AK_CACHE: dict[int, set[int]] = {}


def a_K(D: int, n: int) -> int:
    """Number of residues beta mod sqrt(-D) with N(beta) = -n (mod D).

    The quotient by sqrt(-D) has D elements on which the norm is the square
    of the integer residue, so this counts square roots of -n mod D: it is
    1 when D | n, 2 when -n is a nonzero square, 0 otherwise.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    squares = _AK_CACHE.get(D)
    if squares is None:
        squares = {(b * b) % D for b in range(1, D)}
        _AK_CACHE[D] = squares
    r = (-n) % D
    if r == 0:
        return 1
    return 2 if r in squares else 0


# ---------------------------------------------------------------------------
# coefficient tables


@dataclass
class CoeffTable:
    """One classical component: a finite map from lattice points to coefficients.

    Bounds are honest: every lattice point with diagonal entries at most
    ``bound_diag`` and scaled determinant at most ``bound_det`` has an entry
    (zero entries may be omitted from ``values`` but count as present).
    """

    params: FieldParams
    ring: HeckeRing
    bound_det: int
    bound_diag: int
    values: dict[HermPoint, Coeff] = field(default_factory=dict)
    cuspidal: bool = True  # coefficients at singular points vanish identically

    @property
    def D(self) -> int:
        return self.params.D

    def get(self, h: HermPoint) -> Coeff:
        v = self.values.get(h)
        return v if v is not None else self.ring.zero()

    def points(self) -> list[HermPoint]:
        return enumerate_points(self.D, self.bound_det, self.bound_diag)

    def same_shape(self, other: "CoeffTable") -> bool:
        return (
            self.D == other.D
            and self.ring == other.ring
            and self.bound_det == other.bound_det
            and self.bound_diag == other.bound_diag
        )

    def scaled(self, c) -> "CoeffTable":
        return CoeffTable(
            self.params,
            self.ring,
            self.bound_det,
            self.bound_diag,
            {h: v * c for h, v in self.values.items()},
            self.cuspidal,
        )


@dataclass
class MaassTuple:
    """An adelic lift: identity-component data plus the class character.

    ``alpha`` generates the identity component through the divisor-sum
    condition; the component at class index b is zeta^chi.exponent(b) times
    the identity component, with an extra global factor zeta^zeta_exp
    accumulated by split Hecke operators.  ``alpha_max`` is the largest
    index at which alpha is known to be valid.
    """

    params: FieldParams
    chi: ClassChar
    ring: HeckeRing
    alpha: dict[int, Coeff]
    alpha_max: int
    zeta_exp: int = 0
    source_label: str = ""

    @property
    def D(self) -> int:
        return self.params.D

    @property
    def k(self) -> int:
        return self.params.k

    def alpha_at(self, n: int) -> Coeff:
        if n > self.alpha_max:
            raise RangeError(
                f"alpha valid to {self.alpha_max}, needed at {n} (label {self.source_label!r})"
            )
        return self.alpha.get(n, self.ring.zero())

    def oracle(self) -> Oracle:
        return lift_oracle(self.params, self.ring, self.alpha, self.alpha_max)

    def identity_table(self, bound_det: int, bound_diag: int) -> CoeffTable:
        if bound_det > self.alpha_max:
            raise RangeError(f"alpha valid to {self.alpha_max}, needed at {bound_det}")
        get = _lift_getter(self.params, self.ring, self.alpha, self.alpha_max)
        return _tabulate(get, self.params, self.ring, bound_det, bound_diag)

    def component_exponent(self, index: int) -> int:
        """zeta exponent of the component at a class index (identity table scaled)."""
        d = self.chi.order
        return (self.chi.exponent(index) + self.zeta_exp) % d if d > 1 else 0

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.alpha.values())


def lift_oracle(
    params: FieldParams, ring: HeckeRing, alpha: dict[int, Coeff], alpha_max: int
) -> Oracle:
    """Pointwise coefficient function of the lift generated by alpha.

    Evaluates the divisor-sum condition on demand, so Hecke operators can
    reach outside any materialised table; past ``alpha_max`` it raises
    RangeError.
    """
    get = _lift_getter(params, ring, alpha, alpha_max)
    return lambda h: get(h.t1, h.t3, h.w.a, h.w.b)


def _lift_getter(params: FieldParams, ring: HeckeRing, alpha: dict[int, Coeff], alpha_max: int) -> Getter:
    """lift_oracle on raw lattice coordinates (t1, t3, w.a, w.b)."""
    D, k, q = params.D, params.k, params.norm_c
    zero = ring.zero()
    powers: dict[int, int] = {}

    def get(t1: int, t3: int, wa: int, wb: int) -> Coeff:
        det = D * t1 * t3 - (wa * wa + wa * wb + wb * wb * q)
        if det < 0:
            return zero
        if det > alpha_max:
            raise RangeError(f"alpha valid to {alpha_max}, needed at {det}")
        # the zero point has content 0, which has no divisors
        acc = _divisor_sum(alpha, det, gcd(gcd(t1, t3), gcd(wa, wb)), k, powers)
        return acc if acc is not None else zero

    return get


def _divisor_sum(alpha: dict[int, Coeff], det: int, eps: int, k: int, powers: dict[int, int]) -> Coeff | None:
    """sum_{d | eps} d^(k-1) alpha(det / d^2), or None if every term vanishes.

    Missing alpha values are zero; ``powers`` memoises d^(k-1) across calls.
    """
    acc = None
    for d in _divisors(eps):
        v = alpha.get(det // (d * d))
        if v is None or v.is_zero():
            continue
        if d != 1:
            c = powers.get(d)
            if c is None:
                c = d ** (k - 1)
                powers[d] = c
            v = v * c
        acc = v if acc is None else acc + v
    return acc


def _tabulate(get: Getter, params: FieldParams, ring: HeckeRing, bound_det: int, bound_diag: int) -> CoeffTable:
    """The table of a coefficient function on raw coordinates, zeros omitted."""
    values = {}
    for h in enumerate_points(params.D, bound_det, bound_diag):
        v = get(h.t1, h.t3, h.w.a, h.w.b)
        if not v.is_zero():
            values[h] = v
    return CoeffTable(params, ring, bound_det, bound_diag, values)


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    out.sort()
    return out


# ---------------------------------------------------------------------------
# lift construction and descent


def alpha_from_newform(f: NewformData, n_max: int) -> dict[int, Coeff]:
    """The one-variable generating function of the lift of a newform.

    alpha(n) = (phi - phi^rho)(n) / a_K(n) where the count is nonzero, and
    0 where it vanishes; inputs whose antisymmetrisation does not vanish at
    an index with a_K = 0 are outside the image of the descent and are
    rejected.
    """
    D = f.D
    psi = antisymmetrize(f, n_max)
    alpha: dict[int, Coeff] = {}
    for n in range(1, n_max + 1):
        ak = a_K(D, n)
        v = psi.a(n)
        if ak == 0:
            if not v.is_zero():
                raise ValueError(
                    f"input is not in the image of the descent: coefficient {n} "
                    f"nonzero where the counting factor vanishes"
                )
            continue
        if not v.is_zero():
            alpha[n] = v / ak if ak != 1 else v
    return alpha


def build_lift(
    f: NewformData, chi: ClassChar, n_max: int, label: str | None = None
) -> MaassTuple:
    """The lift of a newform as a MaassTuple with alpha valid to n_max."""
    alpha = alpha_from_newform(f, n_max)
    return MaassTuple(
        params=f.params,
        chi=chi,
        ring=f.ring,
        alpha=alpha,
        alpha_max=n_max,
        source_label=label or f.label,
    )


def random_alpha_tuple(
    params: FieldParams,
    chi: ClassChar,
    ring: HeckeRing,
    n_max: int,
    seed: int = 0,
    spread: int = 9,
) -> MaassTuple:
    """A lift-shaped tuple with arbitrary random alpha (not eigenform data).

    The divisor-sum condition is the defining property of the Maass space,
    independent of any Hecke eigenvalue structure, so random alpha gives
    valid members.
    """
    import random as _random

    rng = _random.Random(f"alpha/{seed}/{params.D}/{params.k}/{ring.modulus}")
    g = ring.degree
    alpha = {}
    for n in range(1, n_max + 1):
        coords = [rng.randrange(-spread, spread + 1) for _ in range(g)]
        e = HeckeElem(ring, tuple(coords))
        if not e.is_zero():
            alpha[n] = e
    return MaassTuple(params, chi, ring, alpha, n_max, source_label=f"random-{seed}")


def _primitive_scan(t: CoeffTable, pts: list[HermPoint]) -> tuple[dict[int, Coeff], set[int]]:
    """Nonzero alpha read at the first primitive point of each determinant,
    and the nonzero determinants in range that no primitive point realises."""
    alpha: dict[int, Coeff] = {}
    constrained: set[int] = set()
    dets: set[int] = set()
    for h in pts:
        if h.is_zero():
            continue
        det = h.det_scaled()
        dets.add(det)
        if det not in constrained and content(h) == 1:
            constrained.add(det)
            v = t.get(h)
            if not v.is_zero():
                alpha[det] = v
    return alpha, dets - constrained


def check_maass(
    t: CoeffTable, k: int | None = None, unconstrained: set[int] | None = None
) -> tuple[bool, dict[int, Coeff] | HermPoint]:
    """Test the divisor-sum membership condition on a full table.

    Extracts a candidate alpha from primitive points (content 1, first in
    canonical order for each determinant value), then verifies the
    condition at every point.  Returns (True, alpha) on success and
    (False, first offending point) on failure.  Determinant values not
    realised by any primitive point in range are unconstrained, and points
    whose divisor sum reads one are skipped; a set passed as
    ``unconstrained`` receives those values.
    """
    k = k if k is not None else t.params.k
    pts = t.points()
    alpha, skipped = _primitive_scan(t, pts)
    if unconstrained is not None:
        unconstrained |= skipped
    zero = t.ring.zero()
    powers: dict[int, int] = {}
    for h in pts:
        if h.is_zero():
            if not t.get(h).is_zero():
                return False, h
            continue
        det, eps = h.det_scaled(), content(h)
        # every det / d^2 is a determinant in range, since h / d is in bounds
        if skipped and any(det // (d * d) in skipped for d in _divisors(eps)):
            continue
        acc = _divisor_sum(alpha, det, eps, k, powers)
        if t.get(h) != (acc if acc is not None else zero):
            return False, h
    return True, alpha


def descend(t: MaassTuple, n_max: int) -> dict[int, tuple[int, QExpansion]]:
    """Per class index: (zeta exponent, q-expansion with a(n) = a_K(n) alpha(n)).

    The zeta exponent carries the chi(b) scalar of the component; the
    global unit i/sqrt(D) of the exact descent is dropped (see module
    docstring).  Round trip: descend(build_lift(f, chi)) equals
    chi(b) (phi - phi^rho) per component.
    """
    if n_max > t.alpha_max:
        raise RangeError(f"alpha valid to {t.alpha_max}, needed at {n_max}")
    D = t.D
    base = QExpansion(t.ring, n_max, weight=t.k - 1, level=D, label=t.source_label)
    for n in range(1, n_max + 1):
        ak = a_K(D, n)
        if ak == 0:
            continue
        v = t.alpha.get(n)
        if v is not None and not v.is_zero():
            base.coeffs[n] = v * ak
    from .quadfield import class_group

    h = class_group(D).order
    return {b: (t.component_exponent(b), base) for b in range(h)}
