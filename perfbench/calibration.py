"""Fixed loops that measure the machine's current speed.

On a shared machine the speed of single-threaded Python drifts by up to 2x
in phases lasting seconds, with CPU time tracking wall time.  run.py
runs ``calibrate`` between operations and reports times scaled to a fixed
speed, as if ``calibrate`` returned ``REF_S``; raw times are printed beside
them.  Different phases slow arithmetic and memory access by different
amounts, so ``calibrate`` is the geometric mean of two loops: one imitates
hermlift's arithmetic (exact fractions over Z[i] stored as tuples of
multi-word integers with a gcd normalisation, a memo keyed by index
tuples), the other reads a few megabytes of Python objects in a random
order.  Neither calls hermlift, so a change to hermlift cannot move them.
"""

import math
import time

REF_S = 0.003
ARITH_LOOP = 360
MEMORY_LOOP = 18000
_MASK = (1 << 17) - 1
_OBJECTS = [3 * i + 7 for i in range(_MASK + 1)]


class _Elem:
    __slots__ = ("num", "den")

    def __init__(self, num, den):
        g = math.gcd(math.gcd(*num), den)
        self.num = tuple(c // g for c in num) if g > 1 else num
        self.den = den // g if g > 1 else den

    def __add__(self, other):
        return _Elem(tuple(a * other.den + b * self.den for a, b in zip(self.num, other.num)), self.den * other.den)

    def __mul__(self, other):
        (a, b), (c, d) = self.num, other.num
        return _Elem((a * c - b * d, a * d + b * c), self.den * other.den)


def _arithmetic() -> float:
    t0 = time.perf_counter()
    memo = {}
    x, y = _Elem((3**20, 5**13), 7), _Elem((11**9, -(13**8)), 9)
    acc = x
    for i in range(ARITH_LOOP):
        key = (i % 97, i % 89, i & 7)
        v = memo.get(key)
        if v is None:
            v = memo[key] = x * y if i & 1 else x + y
        acc = acc + v
        if acc.den > 10**40:
            acc = x
    return time.perf_counter() - t0


def _memory() -> float:
    t0 = time.perf_counter()
    total, i = 0, 1
    for _ in range(MEMORY_LOOP):
        i = (i * 1103515245 + 12345) & _MASK
        total += _OBJECTS[i]
    return time.perf_counter() - t0


def calibrate() -> float:
    """Seconds, the geometric mean of the two loops' times now."""
    return math.sqrt(_arithmetic() * _memory())
