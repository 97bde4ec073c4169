"""Elliptic newform data and q-expansion arithmetic.

Eigenform data is ingested (or generated synthetically), never computed
from scratch: a newform here is its level D (an odd prime), its weight
k-1, the quadratic nebentypus of conductor D, and Hecke eigenvalues a(p)
in an exact coefficient ring.  The conjugate form has coefficients
a(p) -> chi(p) a(p) away from D and a(D) -> D^(k-2) / a(D).  One
expansion of phi therefore determines phi - phi^rho, whose quotient by the
counting factor generates the lift (maass.alpha_from_newform).  Both read
one recurrence kernel (``_Sieve``) that forms a(n) the first time n is
read; ``extend_coeffs`` checks the data at every prime in range at once.
"""

from __future__ import annotations

import math
import random
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache, lru_cache

from .quadfield import FieldParams, chi_K, class_group
from .ring import HeckeElem, HeckeRing, _is_prime, _val_int, lincomb


@dataclass
class NewformData:
    """Level-D weight-(k-1) newform with quadratic nebentypus, by its eigenvalues.

    ``ap`` maps each prime p != D to a(p); ``aDK`` is the eigenvalue at the
    ramified prime, constrained by aDK * conj(aDK) = D^(k-2).
    """

    params: FieldParams
    ring: HeckeRing
    ap: dict[int, HeckeElem]
    aDK: HeckeElem
    involution: str = "trivial"
    label: str = ""

    @property
    def D(self) -> int:
        return self.params.D

    @property
    def k(self) -> int:
        return self.params.k

    def a(self, p: int) -> HeckeElem:
        if p == self.D:
            return self.aDK
        if p not in self.ap:
            raise KeyError(f"eigenvalue at p = {p} not ingested (label {self.label})")
        return self.ap[p]

    def p_max(self) -> int:
        return max(self.ap, default=1)

    def validate(self) -> None:
        """Check the conjugation constraints at every supplied prime."""
        odd = None  # whether the involution negates the odd coordinates, asked once
        for p, a in sorted(self.ap.items()):
            if not _is_prime(p) or p == self.D:
                raise ValueError(f"bad prime {p} in eigenvalue data")
            if odd is None:
                odd = self.ring.negates_odd_powers(self.involution)
            c = chi_K(self.D, p)
            # split: a = conj(a), so the negated coordinates vanish; inert: a = -conj(a), the fixed ones
            if any(a.num[1::2] if c == 1 else a.num[::2]) if odd else (c != 1 and any(a.num)):
                kind = "split" if c == 1 else "inert"
                raise ValueError(
                    f"eigenvalue at {kind} p = {p} violates the conjugation "
                    f"symmetry a(p) = chi(p) conj(a(p))"
                )
        if self.aDK.is_zero():
            raise ValueError("a(D) must be nonzero: |a(D)|^2 = D^(k-2)")
        norm_target = self.ring.from_int(self.D) ** (self.k - 2)
        lhs = self.aDK * self.aDK.apply_involution(self.involution)
        if lhs != norm_target:
            raise ValueError("a(D) * conj(a(D)) != D^(k-2)")

    def is_self_conjugate(self) -> bool:
        """phi = phi^rho, i.e. every inert eigenvalue vanishes."""
        return all(
            a.is_zero() for p, a in self.ap.items() if chi_K(self.D, p) == -1
        ) and self.aDK == self.aDK.apply_involution(self.involution)


@dataclass
class QExpansion:
    """Finite q-expansion sum a(n) q^n, n = 1..n_max, over a Hecke ring."""

    ring: HeckeRing
    n_max: int
    coeffs: Mapping[int, HeckeElem] = field(default_factory=dict)

    def a(self, n: int) -> HeckeElem:
        if n < 1 or n > self.n_max:
            raise IndexError(f"coefficient index {n} outside 1..{self.n_max}")
        return self.coeffs.get(n, self.ring.zero())

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, QExpansion):
            return NotImplemented
        n = min(self.n_max, other.n_max)
        return all(self.a(i) == other.a(i) for i in range(1, n + 1)) and self.n_max == other.n_max


def extend_coeffs(f: NewformData, n_max: int) -> QExpansion:
    """All coefficients a(n), n <= n_max, from the eigenvalues by multiplicativity.

    Every prime up to n_max is read from f here, so data that stops short
    (KeyError, the first missing prime ascending) or an eigenvalue of
    another ring (ValueError) is refused at once.  ``coeffs`` is a
    read-only view, dense on 1..n_max with zeros held, that forms a(n)
    the first time n is read (``_Sieve``) and keeps it.
    """
    return QExpansion(f.ring, n_max, _Coeffs(f, n_max))


_UNREAD = object()


class _Lazy(Mapping):
    """A read-only map that forms its value at n, ``_form(n)`` or None where
    it has none, the first time n is read, and keeps it in ``_memo``; a
    subclass gives ``_form`` (or its own ``get``) and ``__iter__``."""

    def get(self, n, default=None):
        v = self._memo.get(n, _UNREAD)
        if v is _UNREAD:
            v = self._memo[n] = self._form(n)
        return default if v is None else v

    def __getitem__(self, n):
        if (v := self.get(n)) is None:
            raise KeyError(n)
        return v

    def __len__(self) -> int:
        return sum(1 for _ in self)


class _Coeffs(_Lazy):
    """``extend_coeffs``' view: the kernel read inside 1..n_max, keys
    ascending, an order in which each value reads ones already formed."""

    def __init__(self, f: NewformData, n_max: int):
        self._memo, self._n_max = _Sieve(f, n_max), n_max

    def get(self, n, default=None):
        return self._memo[n] if 1 <= n <= self._n_max else default

    def __iter__(self):
        return iter(range(1, self._n_max + 1))


class _Sieve(dict):
    """a(n) for 1 <= n <= n_max (its readers keep n there), formed by
    ``__missing__`` on the first read and kept.  With q = p^e the power of
    the smallest prime p = spf[n] exactly dividing n, a(n) = a(n / q) a(q)
    costs one ring product.  Prime powers follow a(p^(r+1)) = a(p) a(p^r)
    - chi(p) p^(k-2) a(p^(r-1)), which at the ramified prime collapses to
    a(D^r) = a(D)^r.  a(1) and every a(p) are held from construction,
    where ``f.a`` reads each and the first fault ascending is refused: a
    prime past the data, or a value of another ring."""

    def __init__(self, f: NewformData, n_max: int):
        (spf, primes), ring = _factor_table(max(n_max, 1)), f.ring
        super().__init__(zip(primes, map(f.ap.get, primes)))
        if f.D <= n_max:
            self[f.D] = f.aDK
        if not all(v is not None and v.ring is ring for v in self.values()):
            for p in primes:  # the first fault ascending, as f.a meets it
                if (v := f.a(p)).ring is not ring and v.ring != ring:
                    raise ValueError("mismatched rings")
        self[1] = ring.one()
        self._f, self._ring, self._spf, self._product = f, ring, spf, ring.product

    def __missing__(self, n: int) -> HeckeElem:
        p = self._spf[n]
        q, m = p, n // p
        while m % p == 0:
            q, m = q * p, m // p
        x, y = (self[p], self[n // p]) if m == 1 else (self[m], self[q])
        v = self[n] = HeckeElem(self._ring, self._product(x.num, y.num), x.den * y.den)
        if m == 1:  # n = p^e, e >= 2
            v = self[n] = v - self[n // (p * p)] * (chi_K(self._f.D, p) * p ** (self._f.k - 2))
        return v


def _aDK_rho(f: NewformData) -> HeckeElem:
    """a^rho(D) = D^(k-2) / a(D)."""
    if f.aDK.is_zero():
        raise ValueError("a(D) = 0 contradicts |a(D)|^2 = D^(k-2)")
    return (f.ring.from_int(f.D) ** (f.k - 2)) / f.aDK


def rho_conjugate(f: NewformData) -> NewformData:
    """The form with conjugated coefficients: a(p) -> chi(p) a(p), a(D) -> D^(k-2)/a(D)."""
    new_ap = {p: (a if chi_K(f.D, p) == 1 else -a) for p, a in f.ap.items()}
    return replace(f, ap=new_ap, aDK=_aDK_rho(f), label=f.label + "^rho" if f.label else "")


TpPoly = tuple[tuple[int, Fraction], ...]  # (degree, coefficient)


def apply_tp_poly(q: QExpansion, poly: TpPoly, p: int, k: int, D: int) -> QExpansion:
    """The sum of c T_p^d over the (d, c) of ``poly`` on q, valid to n_max // p^top
    (top the largest d), in one pass: a'(n) is one ``lincomb`` over the row of
    min(v_p(n), top).  Missing coefficients read zero; zeros are not stored."""
    rows, den = _tp_rows(p, chi_K(D, p) * p ** (k - 2), poly)
    top, get, out = len(rows) - 1, q.coeffs.get, {}
    for n in range(1, q.n_max // p ** top + 1):
        row = rows[min(_val_int(n, p), top)]
        terms = [(c, x) for mul, div, c in row if (x := get(n * mul // div)) is not None]
        if terms and not (acc := lincomb(q.ring, terms, den)).is_zero():
            out[n] = acc
    return QExpansion(q.ring, q.n_max // p ** top, out)


@cache  # one set of rows per (p, eps, polynomial) for the process
def _tp_rows(p: int, eps: int, poly: TpPoly) -> tuple[tuple[tuple[tuple[int, int, int], ...], ...], int]:
    """For v = 0..top, the row (mul, div, c) of the polynomial at n with v_p(n)
    = v (top serves all v >= top), summing c a(n mul / div) over den, the lcm
    of the denominators.  T a(n) = a(np) + eps [p | n] a(n/p) maps T^d's
    functional {e: coefficient of a(n p^e)} to T^(d+1)'s, e to e - 1 if v + e >= 1."""
    top, coeff, den = max(d for d, _ in poly), dict(poly), math.lcm(*(c.denominator for _, c in poly))
    rows = []
    for v in range(top + 1):
        row, power = {}, {0: 1}  # power: the functional of T^d
        for d in range(top + 1):
            step: dict[int, int] = {}
            for e, c in power.items():
                row[e] = row.get(e, 0) + coeff.get(d, 0) * c
                step[e + 1] = step.get(e + 1, 0) + c
                if v + e >= 1:
                    step[e - 1] = step.get(e - 1, 0) + eps * c
            power = step
        rows.append(tuple((p ** max(e, 0), p ** max(-e, 0), int(c * den)) for e, c in sorted(row.items()) if c))
    return tuple(rows), den


# ---------------------------------------------------------------------------
# ingestion


def parse_newform(text: str) -> NewformData:
    """Parse the line-oriented newform format.

    Header lines, each once: ``field D``, ``weight m`` (the elliptic weight,
    = k-1), ``ring c0 c1 ... 1`` (monic modulus, ascending), ``involution
    kind``, ``label name`` (optional; the rest of the line), ``aDK
    <coords>``; then ``ap <p> <coords>`` lines.  Coordinates, in the power
    basis, are integers or rationals ``a/b``.
    """
    D = k = ring = aDK = None
    involution, label = "trivial", ""
    ap_lines: list[tuple[int, tuple[int, ...] | list[Fraction]]] = []
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key = parts[0]
        try:
            if key == "ap":
                ap_lines.append((int(parts[1]), _coords(parts[2:])))
                continue
            _header(key, parts, seen, lineno, ("field", "weight", "involution"))
            if key == "field":
                D = int(parts[1])
                class_group(D)  # refuses a D that is not a prime = 3 (mod 4)
            elif key == "weight":
                k, k_line = int(parts[1]) + 1, (lineno, raw)
            elif key == "ring":
                ring = HeckeRing([int(c) for c in parts[1:]])
            elif key == "involution":
                involution = parts[1]
            elif key == "label":
                label = line.split(None, 1)[1]
            elif key == "aDK":
                aDK = _coords(parts[1:])
            else:
                raise ValueError(f"unknown key {key!r}")
        except (IndexError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed newform line {lineno}: {raw!r} ({exc})") from exc
    if D is None or k is None or ring is None or aDK is None:
        raise ValueError("newform file must define field, weight, ring and aDK")
    try:
        params = FieldParams(D, k)
    except ValueError as exc:
        lineno, raw = k_line
        raise ValueError(f"malformed newform line {lineno}: {raw!r} ({exc})") from exc
    if involution not in ("trivial", "negate-x"):
        raise ValueError(f"unknown involution {involution!r}")
    ap = {}
    for p, coords in ap_lines:
        if len(coords) != ring.degree:
            raise ValueError(f"eigenvalue at p = {p} has {len(coords)} coordinates, expected {ring.degree}")
        if p in ap:
            raise ValueError(f"duplicate eigenvalue line for p = {p}")
        ap[p] = _element(ring, coords)
    if len(aDK) != ring.degree:
        raise ValueError("aDK coordinate count does not match the ring degree")
    f = NewformData(params, ring, ap, _element(ring, aDK), involution, label)
    f.validate()
    return f


def _header(key: str, parts: list[str], seen: dict[str, int], lineno: int, single: tuple[str, ...]) -> None:
    """Refuse a header line whose key came before, or a one-valued key with more than one value."""
    if key in seen:
        raise ValueError(f"{key} already given at line {seen[key]}")
    seen[key] = lineno
    if key in single and len(parts) > 2:
        raise ValueError(f"{key} takes one value, got {len(parts) - 1}")


def _coords(tokens: list[str]) -> tuple[int, ...] | list[Fraction]:
    """A line's coordinates: ints when ``int`` reads every token, else Fractions
    (``int`` reads a subset of what ``Fraction`` reads, to the same values)."""
    try:
        return tuple(map(int, tokens))
    except ValueError:
        return [Fraction(c) for c in tokens]


def _element(ring: HeckeRing, coords: tuple[int, ...] | list[Fraction]) -> HeckeElem:
    return HeckeElem(ring, coords) if type(coords) is tuple else ring.element(coords)


def format_newform(f: NewformData) -> str:
    lines = [
        f"field {f.D}",
        f"weight {f.k - 1}",
        "ring " + " ".join(str(c) for c in f.ring.modulus),
        f"involution {f.involution}",
    ]
    if f.label:
        lines.append(f"label {f.label}")
    lines.append("aDK " + _format_coords(f.aDK))
    for p in sorted(f.ap):
        lines.append(f"ap {p} " + _format_coords(f.ap[p]))
    return "\n".join(lines) + "\n"


def _format_coords(e: HeckeElem) -> str:
    return " ".join(str(c) for c in e.coords())


# ---------------------------------------------------------------------------
# synthetic eigenform data and the bundled CM form


def synthetic_newform(params: FieldParams, ring: HeckeRing, involution: str, p_max: int, seed: int = 0,
                      spread: int = 9) -> NewformData:
    """Random eigenvalue data subject to the conjugation symmetry.

    Split primes get involution-fixed values, inert primes anti-fixed ones;
    with the trivial involution the inert values are forced to zero (the
    self-conjugate, CM-like case).  All identities exercised downstream are
    polynomial in the a(p), so random data covers them.
    """
    rng = random.Random(f"{seed}/{params.D}/{params.k}/{ring.modulus}")
    g = ring.degree
    ap: dict[int, HeckeElem] = {}
    for p in _factor_table(max(p_max, 1))[1]:
        if p == params.D:
            continue
        c = chi_K(params.D, p)
        coords = [0] * g
        if involution == "trivial":
            if c == 1:
                coords[0] = rng.randrange(-spread, spread + 1)
        else:  # negate-x: fixed subring = even powers, anti-fixed = odd powers
            for i in range(g):
                keep = (i % 2 == 0) if c == 1 else (i % 2 == 1)
                if keep:
                    coords[i] = rng.randrange(-spread, spread + 1)
        ap[p] = HeckeElem(ring, tuple(coords))
    aDK = ring.from_int(rng.choice((1, -1)) * params.D ** ((params.k - 2) // 2))
    f = NewformData(params, ring, ap, aDK, involution, f"synthetic-D{params.D}-k{params.k}-s{seed}")
    f.validate()
    return f


@lru_cache(maxsize=16)  # a workload builds lifts at a few bounds, a test suite at many
def _factor_table(n: int) -> tuple[list[int], list[int]]:
    """spf[i], the smallest prime factor of i <= n (spf[0] = 0, spf[1] = 1),
    and the primes up to n, ascending; n >= 1.  Shared: callers only read."""
    spf = list(range(n + 1))
    for d in range(math.isqrt(n), 1, -1):  # descending, so that the smallest prime writes last
        spf[d * d :: d] = [d] * len(range(d * d, n + 1, d))
    return spf, [p for p in range(2, n + 1) if spf[p] == p]


def bundled_cm_form() -> NewformData:
    """The weight-3 level-7 CM newform (eta product), shipped with the package."""
    from importlib.resources import files

    text = files("hermlift.data").joinpath("cm_d7_w3.nf").read_text()
    return parse_newform(text)
