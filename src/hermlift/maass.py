"""The Maass lift, its membership test, and the descent back to q-expansions.

A lift is stored as its identity-class coefficient table plus the class
character chi: the component at class b is chi(b) times the identity
component, so materialising every component would only invite
inconsistency.  Coefficient tables satisfy the divisor-sum condition

    c(h) = sum_{d | content(h)} d^(k-1) alpha(det_scaled(h) / d^2)

for a single function alpha on determinant values; that condition is the
membership criterion, and alpha is what descends to an elliptic
q-expansion via the counting factor a_K.  One evaluator, ``_lift_values``,
computes the right-hand side per (det, content) for every reader: the
lift's oracle and tables, the membership test, and the keyed inert Hecke
reader (hecke.py).

Normalisation: the exact global unit i/sqrt(D) relating alpha to the
elliptic coefficients is dropped throughout; it is independent of the
index and the class, so every commutation, membership and congruence
statement checked here is invariant under it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from math import gcd
from typing import Callable

from .elliptic import NewformData, QExpansion, _aDK_rho, extend_coeffs
from .hermitian import HermPoint, _lattice, enumerate_points
from .quadfield import ClassChar, FieldParams, QuadInt, chi_K, class_group, trivial_char
from .ring import HeckeElem, HeckeRing, lincomb

Coeff = HeckeElem
Oracle = Callable[[HermPoint], Coeff]
Getter = Callable[[int, int, int, int], Coeff]


class RangeError(ValueError):
    """A coefficient was needed outside the range its source determines."""


def a_K(D: int, n: int) -> int:
    """Number of residues beta mod sqrt(-D) with N(beta) = -n (mod D).

    The quotient by sqrt(-D) has D elements on which the norm is the square
    of the integer residue, so this counts square roots of -n mod D: it is
    1 when D | n, 2 when -n is a nonzero square, 0 otherwise.  Since
    chi_K(-1) = -1 for D = 3 mod 4, that is 1 - chi_K(n) away from D.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return 1 if n % D == 0 else 1 - chi_K(D, n)


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
        """Pointwise coefficient function, evaluated on demand so Hecke
        operators can reach outside any materialised table; past
        ``alpha_max`` it raises RangeError."""
        get = _lift_getter(self)
        return lambda h: get(h.t1, h.t3, h.w.a, h.w.b)

    def identity_table(self, bound_det: int, bound_diag: int) -> CoeffTable:
        if bound_det > self.alpha_max:
            raise RangeError(f"alpha valid to {self.alpha_max}, needed at {bound_det}")
        return _tabulate(_lift_getter(self), self.params, self.ring, bound_det, bound_diag)

    def component_exponent(self, index: int) -> int:
        """zeta exponent of the component at a class index (identity table scaled)."""
        return (self.chi.exponent(index) + self.zeta_exp) % self.chi.order

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.alpha.values())


def _lift_getter(t: MaassTuple) -> Getter:
    """The lift's coefficient function on raw lattice coordinates (t1, t3, w.a, w.b)."""
    D, q = t.D, t.params.norm_c
    zero = t.ring.zero()
    value = _lift_values(t.alpha, t.alpha_max, t.k, t.ring)

    def get(t1: int, t3: int, wa: int, wb: int) -> Coeff:
        det = D * t1 * t3 - (wa * wa + wa * wb + wb * wb * q)
        if det < 0:
            return zero
        return value(det, gcd(t1, t3, wa, wb))

    return get


def _lift_values(alpha: dict[int, Coeff], alpha_max: int, k: int, ring: HeckeRing) -> Callable[[int, int], Coeff]:
    """The lift's coefficient at scaled determinant det and content c,

        sum_{d | c} d^(k-1) alpha(det / d^2),

    memoised for the one reader that builds it.  Missing alpha values are
    zero; a vanishing sum (content 0, the zero point, has no divisors) is
    the ring's shared zero.  Past ``alpha_max`` it raises RangeError.
    """

    @cache
    def value(det: int, c: int) -> Coeff:
        if det > alpha_max:
            raise RangeError(f"alpha valid to {alpha_max}, needed at {det}")
        terms = ((d ** (k - 1), alpha.get(det // (d * d))) for d in _divisors(c))
        return lincomb(ring, [(m, v) for m, v in terms if v is not None])

    return value


def _tabulate(get: Getter, params: FieldParams, ring: HeckeRing, bound_det: int, bound_diag: int) -> CoeffTable:
    """The table of a coefficient function on raw coordinates, zeros omitted."""
    D, values = params.D, {}
    for _, t1, t3, a, b in _lattice(D, bound_det, bound_diag):
        v = get(t1, t3, a, b)
        if not v.is_zero():
            values[HermPoint(t1, t3, QuadInt(a, b, D))] = v
    return CoeffTable(params, ring, bound_det, bound_diag, values)


def _by_coords(t: CoeffTable) -> dict[tuple[int, int, int, int], Coeff]:
    """The table's stored values keyed by raw coordinates (t1, t3, w.a, w.b)."""
    return {h.coords(): v for h, v in t.values.items()}


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

    alpha(n) = (phi - phi^rho)(n) / a_K(n), read from one expansion of phi.
    For m prime to D, phi^rho(m D^e) = chi(m) a(m) a^rho(D)^e, so alpha is
    a(n) where chi(n) = -1 (the difference 2 a(n) over a_K = 2),
    a(m) (a(D)^e - chi(m) a^rho(D)^e) at n = m D^e with e >= 1 (a_K = 1),
    and 0 where chi(n) = +1, where the difference vanishes.  Zero values
    are omitted; keys ascend.
    """
    D = f.D
    chi = [chi_K(D, r) for r in range(D)]
    aD, aD_rho = f.aDK, _aDK_rho(f)
    factor = [{}]  # factor[e][c] = a(D)^e - c a^rho(D)^e for chi(m) = c
    while D ** len(factor) <= n_max:
        pw, pw_rho = aD ** len(factor), aD_rho ** len(factor)
        factor.append({1: pw - pw_rho, -1: pw + pw_rho})
    a = extend_coeffs(f, n_max).coeffs
    alpha: dict[int, Coeff] = {}
    for n, v in a.items():
        c = chi[n % D]
        if c == 1:
            continue
        if c == 0:
            m, e = n // D, 1
            while m % D == 0:
                m //= D
                e += 1
            v = a[m] * factor[e][chi[m % D]]
        if not v.is_zero():
            alpha[n] = v
    return alpha


def build_lift(f: NewformData, chi: ClassChar, n_max: int) -> MaassTuple:
    """The lift of a newform as a MaassTuple with alpha valid to n_max."""
    return MaassTuple(f.params, chi, f.ring, alpha_from_newform(f, n_max), n_max, source_label=f.label)


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


def _primitive_scan(flat: dict[tuple, Coeff], keyed: list[tuple]) -> tuple[dict[int, Coeff], set[int]]:
    """Nonzero alpha read at the first primitive point of each determinant,
    and the determinants of nonzero points that no primitive point realises;
    ``keyed`` lists (det, content, coordinates) in canonical order."""
    alpha: dict[int, Coeff] = {}
    constrained: set[int] = set()
    dets: set[int] = set()
    for det, eps, coords in keyed:
        if eps:
            dets.add(det)
        if eps == 1 and det not in constrained:
            constrained.add(det)
            v = flat.get(coords)
            if v is not None and not v.is_zero():
                alpha[det] = v
    return alpha, dets - constrained


def check_maass(t: CoeffTable, unconstrained: set[int] | None = None) -> tuple[bool, dict[int, Coeff] | HermPoint]:
    """Test the divisor-sum membership condition on a full table.

    Extracts a candidate alpha from primitive points (content 1, first in
    canonical order for each determinant value), then verifies the
    condition at every point against the lift values of that alpha.
    Returns (True, alpha) on success and (False, first offending point) on
    failure.  Determinant values not realised by any primitive point in
    range are unconstrained, and points whose divisor sum reads one are
    skipped; a set passed as ``unconstrained`` receives those values.
    """
    flat, zero = _by_coords(t), t.ring.zero()
    lattice = _lattice(t.D, t.bound_det, t.bound_diag)
    keyed = [(det, gcd(t1, t3, a, b), (t1, t3, a, b)) for det, t1, t3, a, b in lattice]
    alpha, skipped = _primitive_scan(flat, keyed)
    if unconstrained is not None:
        unconstrained |= skipped
    value = _lift_values(alpha, t.bound_det, t.params.k, t.ring)

    @cache
    def reads_unconstrained(det: int, eps: int) -> bool:
        # every det / d^2 is a determinant in range, since h / d is in bounds
        return any(det // (d * d) in skipped for d in _divisors(eps))

    for det, eps, coords in keyed:
        if skipped and reads_unconstrained(det, eps):
            continue
        if flat.get(coords, zero) != value(det, eps):
            t1, t3, a, b = coords
            return False, HermPoint(t1, t3, QuadInt(a, b, t.D))
    return True, alpha


def descend(t: MaassTuple, n_max: int) -> dict[int, tuple[int, QExpansion]]:
    """Per class index: (zeta exponent, q-expansion with a(n) = a_K(n) alpha(n)).

    The zeta exponent carries the chi(b) scalar of the component; the
    global unit i/sqrt(D) of the exact descent is dropped (see module
    docstring).  a_K is read from one residue table of chi_K: 2 where
    chi(n) = -1, 1 where D | n, 0 where chi(n) = +1.  Round trip:
    descend(build_lift(f, chi)) equals chi(b) (phi - phi^rho) per component.
    """
    if n_max > t.alpha_max:
        raise RangeError(f"alpha valid to {t.alpha_max}, needed at {n_max}")
    D = t.D
    chi = [chi_K(D, r) for r in range(D)]
    base = QExpansion(t.ring, n_max)
    for n in sorted(t.alpha):
        if n > n_max:
            break
        v = t.alpha[n]
        if n < 1 or v.is_zero():
            continue
        c = chi[n % D]
        if c == -1:
            base.coeffs[n] = v + v
        elif c == 0:
            base.coeffs[n] = v
    return {b: (t.component_exponent(b), base) for b in range(class_group(D).order)}


def antisymmetrize(f: NewformData, n_max: int) -> QExpansion:
    """q-expansion of psi = phi - phi^rho = a_K alpha up to n_max: the
    descent of the lift under the trivial character.  Zero values are
    omitted."""
    return descend(build_lift(f, trivial_char(), n_max), n_max)[0][1]
