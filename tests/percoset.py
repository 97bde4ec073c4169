"""The per-coset reader of the inert operators: the tests' reference.

The library reads a lift by (det, content) rows (``hecke._rows``).  This
reader takes any source on lattice keys (det, t1, t3, w.a, w.b): a lift,
read through ``maass._lift_getter``, a ``CoeffTable``, or a ``LazyAction``.
It reads one source value per coset image of ``hecke._coset_walk``, one
``lincomb`` per point, memoised, and U_p as T_p applied twice.  Singular
keys (det 0) read the ring's zero, where cusp forms vanish.
"""

from dataclasses import dataclass
from functools import cache
from itertools import starmap
from typing import Callable

from hermlift.hecke import _coset_walk
from hermlift.maass import CoeffTable, MaassTuple, RangeError, _lift_getter
from hermlift.quadfield import FieldParams
from hermlift.ring import HeckeRing, lincomb

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
