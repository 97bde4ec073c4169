"""The Maass lift, its membership test, and the descent back to q-expansions.

A lift is stored as its identity-class coefficient table plus the class
character chi: the component at class b is chi(b) times the identity
component, so materialising every component would only invite
inconsistency.  Coefficient tables satisfy the divisor-sum condition

    c(h) = sum_{d | content(h)} d^(k-1) alpha(det_scaled(h) / d^2)

for a single function alpha on determinant values; that condition is the
membership criterion, and alpha is what descends to an elliptic
q-expansion via the counting factor a_K.  One evaluator, ``_lift_values``,
computes the right-hand side per (det, content): once per lift
(``MaassTuple.value``) for every reader of it, the lift's oracle and
tables and the keyed inert Hecke reader (hecke.py), and once per call of
the membership test for the alpha it extracts.  At content 1 the sum is
alpha(det), read in place as alpha's own object; only imprimitive classes
form a sum.

Normalisation: the exact global unit i/sqrt(D) relating alpha to the
elliptic coefficients is dropped throughout; it is independent of the
index and the class, so every commutation, membership and congruence
statement checked here is invariant under it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache, cached_property, partial
from itertools import compress, starmap
from math import gcd, isqrt
from operator import is_not
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

from .elliptic import NewformData, QExpansion, _aDK_rho, _Lazy, extend_coeffs
from .hermitian import HermPoint, _lattice
from .quadfield import ClassChar, FieldParams, QuadInt, chi_K, class_group, trivial_char
from .ring import HeckeElem, HeckeRing, lincomb

Coeff = HeckeElem
Oracle = Callable[[HermPoint], Coeff]
Getter = Callable[[int, int, int, int, int], Coeff]  # on lattice keys (det, t1, t3, w.a, w.b)


class RangeError(ValueError):
    """A coefficient was needed outside the range its source determines."""


def a_K(D: int, n: int) -> int:
    """Number of residues beta mod sqrt(-D) with N(beta) = -n (mod D).

    The quotient by sqrt(-D) has D elements on which the norm is the square
    of the integer residue, so this counts square roots of -n mod D: it is
    1 when D | n, 2 when -n is a nonzero square, 0 otherwise.  Since
    chi_K(-1) = -1 for D = 3 mod 4, that is 1 - chi_K(n), which reads 1
    at D | n too, where chi_K vanishes.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return 1 - chi_K(D, n)


# ---------------------------------------------------------------------------
# coefficient tables


class CoeffTable:
    """One classical component: its shape (D, ``bound_det``, ``bound_diag``)
    and ``vals``, one value for every point of ``lattice``, zeros as the
    ring's shared zero; ``get`` refuses a point outside the shape with
    RangeError, and a point of another field with ValueError.  ``shape``
    is the shape's ``_lattice`` record, immutable and shared by every
    table of the shape, and ``lattice``, ``distinct``, ``slot`` and
    ``first`` are its fields.  Built from a HermPoint mapping (points
    outside the shape refused, points left out zero) or, given ``at``,
    from a coefficient function of (det, content) alone, read once per
    class and gathered to the points; not changed after.  ``values`` is the
    read-only HermPoint view of the nonzero entries, in canonical order.
    """

    def __init__(self, params: FieldParams, ring: HeckeRing, bound_det: int, bound_diag: int,
                 values: Mapping[HermPoint, Coeff] = MappingProxyType({}),
                 at: Callable[[int, int], Coeff] | None = None):
        self.params, self.D, self.ring, self.bound_det, self.bound_diag = params, params.D, ring, bound_det, bound_diag
        self.shape = _lattice(params.D, bound_det, bound_diag)
        self.lattice, self.distinct, self.slot, self.first = self.shape[:4]
        self._view = None
        if at is not None:
            reps = list(starmap(at, self.distinct))
            self.vals = list(map(reps.__getitem__, self.slot))
            return
        self.vals = [ring.zero()] * len(self.lattice)
        for h, v in values.items():
            self.vals[self._position(h)] = ring.zero() if v.is_zero() else v

    @cached_property
    def index(self) -> dict[tuple[int, int, int, int, int], int]:
        """The position in ``lattice`` of each raw key (det, t1, t3, w.a, w.b)."""
        return dict(zip(self.lattice, range(len(self.lattice))))

    def _position(self, h: HermPoint) -> int:
        i = self.index.get(h.key_for(self.D))
        if i is None:
            raise RangeError(f"point {h} outside the table (D = {self.D}, bound_det {self.bound_det}, "
                             f"bound_diag {self.bound_diag})")
        return i

    def get(self, h: HermPoint) -> Coeff:
        return self.vals[self._position(h)]

    @property
    def values(self) -> Mapping[HermPoint, Coeff]:
        if self._view is None:
            D, zero = self.D, self.ring.zero()
            self._view = MappingProxyType({HermPoint(t1, t3, QuadInt(a, b, D)): v
                                           for (_, t1, t3, a, b), v in zip(self.lattice, self.vals) if v is not zero})
        return self._view

    def same_shape(self, other: "CoeffTable") -> bool:
        shape = (self.D, self.ring, self.bound_det, self.bound_diag)
        return shape == (other.D, other.ring, other.bound_det, other.bound_diag)


@dataclass(frozen=True)
class MaassTuple:
    """An adelic lift: identity-component data plus the class character.

    ``alpha`` generates the identity component through the divisor-sum
    condition; the component at class index b is zeta^chi.exponent(b) times
    the identity component, with an extra global factor zeta^zeta_exp
    accumulated by split Hecke operators.  ``alpha_max`` is the largest
    index at which alpha is known to be valid.  Lifts are cusp forms, so
    an alpha with index 0 (a value at singular points) is refused.  A
    lift's alpha is never mutated: a newform's is a view formed on read
    (``alpha_from_newform``), and readers such as ``descend`` hold it by
    reference.  Frozen, so ``value`` never goes stale: a lift with other
    data is a ``replace``, which starts a new memo.
    """

    params: FieldParams
    chi: ClassChar
    ring: HeckeRing
    alpha: Mapping[int, Coeff]
    alpha_max: int
    zeta_exp: int = 0
    source_label: str = ""

    def __post_init__(self):
        if 0 in self.alpha:
            raise ValueError("alpha has index 0: a cusp form vanishes at singular points")

    @property
    def D(self) -> int:
        return self.params.D

    @property
    def k(self) -> int:
        return self.params.k

    @cached_property
    def value(self) -> Callable[[int, int], Coeff]:
        """The lift's coefficient at (det, content), ``_lift_values`` memoised
        once per lift: its oracle, its tables and every inert operator
        applied to it read this one evaluator.  Not a field, so ``replace``
        does not copy it."""
        return _lift_values(self.alpha, self.alpha_max, self.k, self.ring)

    def alpha_at(self, n: int) -> Coeff:
        if n > self.alpha_max:
            raise RangeError(
                f"alpha valid to {self.alpha_max}, needed at {n} (label {self.source_label!r})"
            )
        return self.alpha.get(n, self.ring.zero())

    def oracle(self) -> Oracle:
        """Pointwise coefficient function, evaluated on demand so Hecke
        operators can reach outside any materialised table; past
        ``alpha_max`` it raises RangeError, at a point of another field ValueError."""
        get, D = _lift_getter(self), self.D
        return lambda h: get(*h.key_for(D))

    def identity_table(self, bound_det: int, bound_diag: int) -> CoeffTable:
        if bound_det > self.alpha_max:
            raise RangeError(f"alpha valid to {self.alpha_max}, needed at {bound_det}")
        return _tabulate(self.value, self.params, self.ring, bound_det, bound_diag)

    def component_exponent(self, index: int) -> int:
        """zeta exponent of the component at a class index (identity table scaled)."""
        return (self.chi.exponent(index) + self.zeta_exp) % self.chi.order

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.alpha.values())


def _lift_getter(t: MaassTuple) -> Getter:
    """The lift's coefficient function on lattice keys (det, t1, t3, w.a, w.b):
    the lift value at the key's det and the content of its coordinates."""
    value = t.value
    return lambda det, t1, t3, wa, wb: value(det, gcd(t1, t3, wa, wb))


def _lift_values(alpha: Mapping[int, Coeff], alpha_max: int, k: int, ring: HeckeRing) -> Callable[[int, int], Coeff]:
    """The lift's coefficient at scaled determinant det and content c,

        sum_{d | c} d^(k-1) alpha(det / d^2),

    memoised for the lift (``MaassTuple.value``) or the membership test
    that builds it.  At content 1 that is alpha(det) itself, read in
    place: alpha's own object, or the ring's shared zero where alpha has
    no entry or holds a zero.  Only an imprimitive class sums, one
    ``lincomb`` over the cached (d, d^(k-1)) of c; missing alpha values
    are zero there and a vanishing sum is the shared zero.  Past
    ``alpha_max`` it raises RangeError.
    """
    zero = ring.zero()

    @cache
    def value(det: int, c: int) -> Coeff:
        if det > alpha_max:
            raise RangeError(f"alpha valid to {alpha_max}, needed at {det}")
        if c == 1:
            v = alpha.get(det, zero)
            return zero if v.is_zero() else v
        terms = ((m, alpha.get(det // (d * d))) for d, m in _divisor_powers(c, k))
        return lincomb(ring, [(m, v) for m, v in terms if v is not None])

    return value


def _tabulate(at: Callable[[int, int], Coeff], params: FieldParams, ring: HeckeRing, bound_det: int,
              bound_diag: int) -> CoeffTable:
    """The table of a coefficient function of (det, content) alone, as a
    lift's and its inert images' are: evaluated once per distinct key of
    the shape, in ``_lattice`` order, each point a gather of its class's
    value; its values are already the ring's shared zero where they vanish
    (``lincomb``, and ``_lift_values`` at content 1)."""
    return CoeffTable(params, ring, bound_det, bound_diag, at=at)


@cache
def _divisor_powers(c: int, k: int) -> tuple[tuple[int, int], ...]:
    """The pairs (d, d^(k-1)) over the divisors d of c, ascending."""
    low = [d for d in range(1, isqrt(c) + 1) if c % d == 0]
    return tuple((d, d ** (k - 1)) for d in sorted({*low, *(c // d for d in low)}))


# ---------------------------------------------------------------------------
# lift construction and descent


def alpha_from_newform(f: NewformData, n_max: int) -> Mapping[int, Coeff]:
    """The one-variable generating function of the lift of a newform.

    alpha(n) = (phi - phi^rho)(n) / a_K(n), read from one expansion of phi.
    For m prime to D, phi^rho(m D^e) = chi(m) a(m) a^rho(D)^e, so alpha is
    a(n) where chi(n) = -1 (the difference 2 a(n) over a_K = 2),
    a(m) (a(D)^e - chi(m) a^rho(D)^e) at n = m D^e with e >= 1 (a_K = 1),
    and 0 where chi(n) = +1, where the difference vanishes.

    It is a ``_View`` over the kernel of ``extend_coeffs(f, n_max)``, which
    refuses data that stops short here: where chi(n) = -1 it reads the
    kernel's a(n) in place, and only the products at multiples of D are
    formed, each the first time it is read, and cached.  Zeros and indices
    outside 1..n_max read as absent; iteration yields the nonzero indices
    ascending.  Construction forms only the powers of a(D) and a^rho(D).
    """
    D, aD, aD_rho = f.D, f.aDK, _aDK_rho(f)
    factor = [{}]  # factor[e][c] = a(D)^e - c a^rho(D)^e for chi(m) = c
    while D ** len(factor) <= n_max:
        pw, pw_rho = aD ** len(factor), aD_rho ** len(factor)
        factor.append({1: pw - pw_rho, -1: pw + pw_rho})
    a = extend_coeffs(f, n_max).coeffs.kernel

    def form(n: int) -> Coeff:  # n = m D^e, e >= 1
        m, e = n, 0
        while m % D == 0:
            m, e = m // D, e + 1
        return a[m] * factor[e][chi_K(D, m)]

    return _View(a.__getitem__, range(1, n_max + 1).__iter__, D, n_max, -1, form)


class _View(_Lazy):
    """A read-only view of 1 <= n <= n_max over a source, by chi(n) =
    chi_K(D, n): nothing where chi(n) = +1; the source's own value, ``read(n)``
    in place, where chi(n) = ``own``; ``form(n)`` at the other residue,
    formed the first time n is read and cached.  Zeros, and a source with
    nothing at n (a KeyError), read as absent; iteration yields the nonzero
    indices of ``keys()``, which come ascending."""

    def __init__(self, read: Callable[[int], Coeff], keys: Callable[[], Iterable[int]], D: int, n_max: int,
                 own: int, form: Callable[[int], Coeff]):
        self._read, self._keys, self._D, self._n_max, self._own = read, keys, D, n_max, own
        self._chi, self._form = [chi_K(D, r) for r in range(D)], cache(form)

    def get(self, n, default=None):
        if not 1 <= n <= self._n_max or (c := self._chi[n % self._D]) == 1:
            return default
        try:
            v = self._read(n) if c == self._own else self._form(n)
        except KeyError:
            return default
        return v if any(v.num) else default

    def __iter__(self):
        get = self.get
        return (n for n in self._keys() if get(n) is not None)


def build_lift(f: NewformData, chi: ClassChar, n_max: int) -> MaassTuple:
    """The lift of a newform as a MaassTuple with alpha valid to n_max."""
    return MaassTuple(f.params, chi, f.ring, alpha_from_newform(f, n_max), n_max, source_label=f.label)


def random_alpha_tuple(params: FieldParams, chi: ClassChar, ring: HeckeRing, n_max: int, seed: int = 0,
                       spread: int = 9) -> MaassTuple:
    """A lift-shaped tuple with arbitrary random alpha (not eigenform data).

    The divisor-sum condition is the defining property of the Maass space,
    independent of any Hecke eigenvalue structure, so random alpha gives
    valid members.  Equal draws share one element.
    """
    rng = random.Random(f"alpha/{seed}/{params.D}/{params.k}/{ring.modulus}")
    g = ring.degree
    alpha, elems = {}, {}  # one shared element per coordinate vector drawn
    for n in range(1, n_max + 1):
        coords = tuple([rng.randrange(-spread, spread + 1) for _ in range(g)])
        if any(coords):
            if coords not in elems:
                elems[coords] = HeckeElem(ring, coords)
            alpha[n] = elems[coords]
    return MaassTuple(params, chi, ring, alpha, n_max, source_label=f"random-{seed}")


def check_maass(t: CoeffTable, unconstrained: set[int] | None = None) -> tuple[bool, dict[int, Coeff] | HermPoint]:
    """Test the divisor-sum membership condition on a full table.

    Extracts a candidate alpha from primitive points (content 1, first in
    canonical order for each determinant value), then verifies the
    condition at every point against the lift values of that alpha.
    Returns (True, alpha) on success and (False, first offending point) on
    failure.  Determinant values not realised by any primitive point in
    range are unconstrained, and points whose divisor sum reads one are
    skipped; a set passed as ``unconstrained`` receives those values.
    Both depend on the shape alone, and are read from its ``_lattice``
    record.  Each (det, content) class is compared once, at its first
    point, and so at every point holding that point's object; only the
    points holding another object are compared by value with it, and only
    once one list comparison with the classes' first values, which passes
    identical objects without a call, finds that some point differs.  On a
    tabulated table none does, nor on a Maass table read from a file,
    whose equal value texts share one object (``cli.read_table``).  The
    witness is the earlier of the first point of the first failing class
    and the first such point that differs.
    """
    # alpha at each determinant's first primitive point: the first point of its content-1 class
    reps, zero = list(map(t.vals.__getitem__, t.first)), t.ring.zero()
    alpha = {det: v for (det, eps), v in zip(t.distinct, reps) if eps == 1 and v is not zero}
    free = t.shape.free  # the skipped dets and the classes reading one are the shape's, derived once
    if unconstrained is not None:
        unconstrained |= t.shape.skipped
    value = _lift_values(alpha, t.bound_det, t.params.k, t.ring)
    # each class once, at its first point, and so every point holding that point's object
    witness = next((j for j, key, v, f in zip(t.first, t.distinct, reps, free) if not (f or v == value(*key))),
                   len(t.vals))
    # then, by value against their class's first, the points holding another object: one list
    # comparison, which passes identical objects without a call, finds whether any differs (none on a
    # tabulated table) and only then are those before the witness listed, since a point of a failing
    # class lies after its first
    ref = [reps[i] for i in t.slot]
    if t.vals != ref:
        off = compress(range(witness), map(is_not, t.vals, ref))
        witness = next((j for j in off if not (free[t.slot[j]] or t.vals[j] == ref[j])), witness)
    if witness == len(t.vals):
        return True, alpha
    _, t1, t3, a, b = t.lattice[witness]
    return False, HermPoint(t1, t3, QuadInt(a, b, t.D))


def descend(t: MaassTuple, n_max: int) -> dict[int, tuple[int, QExpansion]]:
    """Per class index: (zeta exponent, q-expansion with a(n) = a_K(n) alpha(n)).

    The zeta exponent carries the chi(b) scalar of the component; the
    global unit i/sqrt(D) of the exact descent is dropped (see module
    docstring).  a_K is 2 where chi(n) = -1, 1 where D | n and 0 where
    chi(n) = +1.  Every component shares one expansion, whose ``coeffs``
    is a ``_View`` over the lift's alpha, held by reference: alpha's own
    object where D | n, read in place, and a doubled copy where chi(n) =
    -1, formed the first time it is read and cached.  Round trip:
    descend(build_lift(f, chi)) equals chi(b) (phi - phi^rho) per component.
    """
    if n_max > t.alpha_max:
        raise RangeError(f"alpha valid to {t.alpha_max}, needed at {n_max}")
    alpha, ring = t.alpha, t.ring

    def doubled(n: int) -> Coeff:  # doubling keeps a value nonzero
        v = alpha[n]
        return HeckeElem(ring, tuple([2 * x for x in v.num]), v.den)

    base = QExpansion(ring, n_max, _View(alpha.__getitem__, partial(sorted, alpha), t.D, n_max, 0, doubled))
    return {b: (t.component_exponent(b), base) for b in range(class_group(t.D).order)}


def antisymmetrize(f: NewformData, n_max: int) -> QExpansion:
    """q-expansion of psi = phi - phi^rho = a_K alpha up to n_max: the
    descent of the lift under the trivial character.  Zero values are
    omitted."""
    return descend(build_lift(f, trivial_char(), n_max), n_max)[0][1]
