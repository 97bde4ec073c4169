"""Congruence depths between coefficient tables and Hecke eigenvalue systems.

Depth is the largest n with two systems congruent modulo the n-th power of
a chosen prime above ell in the coefficient ring, computed as a minimum of
valuations of differences.  Reports are lower-bound ledgers over ingested
or constructed data; no existence claims about non-lift forms congruent to
a lift are ever made here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import ClassVar

from .elliptic import NewformData
from .hecke import HeckeOpId, _check_lift, _eigenvalue, descend_op
from .maass import CoeffTable
from .quadfield import ClassChar
from .ring import VAL_CAP, HeckeElem, HeckeRing, INF, PrimeAboveL, _val_int, val_at


@dataclass
class EigenSystem:
    """Finite map from Hecke operators to eigenvalues (scalar, zeta exponent)."""

    label: str
    ring: HeckeRing
    values: dict[str, tuple[HeckeElem, int]]


def build_eigen_system(
    f: NewformData, chi: ClassChar, ops: list[HeckeOpId], label: str | None = None
) -> EigenSystem:
    """Eigenvalue system of the lift of f over the given operators."""
    _check_lift(f)
    values = {str(op): _eigenvalue(f, chi, descend_op(op, f.k)) for op in ops}
    return EigenSystem(label or f.label, f.ring, values)


def _clamp(v, cap: int):
    if v == INF or v >= cap:
        return cap, True
    return int(v), False


def table_congruence(t1: CoeffTable, t2: CoeffTable, prime: PrimeAboveL, cap: int = VAL_CAP) -> tuple[int, bool]:
    """min over lattice points of val(difference); (depth, capped_flag).

    The capped flag distinguishes "at least cap" (e.g. equal tables) from an
    exact depth.  The two value lists are zipped over their common lattice,
    and a pair holding one object (shared zeros) differs by nothing.  A
    difference with ell^e in its denominator has valuation at least -e, so
    it is valued only when that bound is below the running minimum, and
    capped there: nothing else can lower the minimum, whatever the order of
    the points.  The walk stops once the minimum reaches the lowest bound
    over both tables, which is 0 for integral tables.

    A lift table repeats one value per (det, content), so each distinct
    pair of values, keyed by value and not by object, is visited once:
    after its first visit the minimum is at most its valuation (capped at
    the running minimum then), and a repeat, valued at min(val, running),
    can never lower it.
    """
    if not t1.same_shape(t2):
        raise ValueError("tables must share bounds and ring")
    ell = prime.ell
    depth: int | float = INF
    floor = None  # the lowest bound, <= 0, taken once the depth first reaches 0
    seen = set()
    for v, w in zip(t1.vals, t2.vals):
        if v is w or (key := (v.num, v.den, w.num, w.den)) in seen:
            continue
        seen.add(key)
        d, running = v - w, min(cap, depth)
        if d.is_zero() or -_val_int(d.den, ell) >= running:
            continue
        depth = min(depth, val_at(prime, d, cap=running))
        if depth <= 0:
            if floor is None:
                floor = -max(_val_int(x.den, ell) for x in chain(t1.vals, t2.vals))
            if depth <= floor:
                break
    return _clamp(depth, cap)


def eigen_congruence(
    e1: EigenSystem, e2: EigenSystem, prime: PrimeAboveL, cap: int = VAL_CAP
) -> dict[str, tuple[int, bool]]:
    """Per-operator valuations of eigenvalue differences, plus the "min" entry.

    Operators at p = ell are refused: away from ell, the p-power
    normalisations of U_p are units and change no valuation.  Systems must
    agree on the character exponents of the compared values.
    """
    if e1.ring != e2.ring:
        raise ValueError("eigen systems live over different rings")
    ops = sorted(e1.values.keys() & e2.values.keys())
    if not ops:
        raise KeyError("no common operators to compare")
    out: dict[str, tuple[int, bool]] = {}
    depth: int | float = INF
    for op in ops:
        (v1, z1), (v2, z2) = e1.values[op], e2.values[op]
        if z1 != z2:
            raise ValueError(f"operator {op}: incomparable character exponents {z1} != {z2}")
        if int(op.rsplit("@", 1)[1]) == prime.ell:
            raise ValueError(f"operator {op} sits at p = ell = {prime.ell}")
        v = INF if v1 == v2 else val_at(prime, v1 - v2, cap=cap)
        out[op] = _clamp(v, cap)
        depth = min(depth, v)
    out["min"] = _clamp(depth, cap)
    return out


@dataclass
class DepthReport:
    """Lower-bound ledger of congruence depths against a reference system.

    ``max_depth`` is the desk-scale analogue of the exponent measuring how
    deep any ingested system is congruent to the reference; it never
    asserts the existence of deeper congruences.
    """

    reference: str
    prime_ell: int
    prime_tag: str
    cap: int
    entries: list[dict] = field(default_factory=list)
    kind: ClassVar[str] = "lower-bound ledger"

    @property
    def max_depth(self) -> int:
        real = [e for e in self.entries if not e.get("self")]
        return max((e["depth"] for e in real), default=0)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "reference": self.reference,
            "ell": self.prime_ell,
            "prime": self.prime_tag,
            "cap": self.cap,
            "max_depth": self.max_depth,
            "entries": self.entries,
        }


def maass_ideal_report(phi_system: EigenSystem, others: list[EigenSystem], prime: PrimeAboveL,
                       cap: int = VAL_CAP) -> DepthReport:
    """Depth ledger of a lift's eigenvalue system against ingested systems.

    Entries are sorted by decreasing depth; a system with the reference's
    own label is flagged "self" and excluded from the max.
    """
    report = DepthReport(
        reference=phi_system.label,
        prime_ell=prime.ell,
        prime_tag=str(list(prime.local_factor)),
        cap=cap,
    )
    for g in others:
        per_op = eigen_congruence(phi_system, g, prime, cap=cap)
        depth, capped = per_op.pop("min")
        entry = {
            "label": g.label,
            "depth": depth,
            "capped": capped,
            "per_op": {op: {"val": v, "capped": c} for op, (v, c) in per_op.items()},
        }
        if g.label == phi_system.label:
            entry["self"] = True
        report.entries.append(entry)
    report.entries.sort(key=lambda e: (-e["depth"], e["label"]))
    return report
