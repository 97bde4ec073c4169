import math
import random
import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from hermlift import ring as ring_module
from hermlift.ring import (
    HeckeElem,
    HeckeRing,
    INF,
    _divmod,
    _hensel_lift_factor,
    _is_prime,
    _mul,
    _val_int,
    lincomb,
    primes_above,
    val_at,
)


GAUSS = HeckeRing([1, 0, 1])  # x^2 + 1
FIB = HeckeRing([-1, -1, 1])  # x^2 - x - 1
ZZ = HeckeRing([0, 1])  # degree one: plain integers


def test_gen_squares_to_minus_one():
    x = GAUSS.gen()
    assert x * x == GAUSS.from_int(-1)


def test_degree_one_ring_is_integer_arithmetic():
    a, b = ZZ.from_int(3), ZZ.from_int(4)
    assert a * b == ZZ.from_int(12)


small = st.integers(-2, 2)
ints_and_elems = st.one_of(
    small,
    st.builds(ZZ.from_int, small),
    st.builds(GAUSS.element, st.lists(small, min_size=2, max_size=2), st.integers(1, 2)),
)


@given(ints_and_elems, ints_and_elems)
def test_equal_values_hash_equal(a, b):
    if a == b:
        assert hash(a) == hash(b)


def test_golden_ratio_relation():
    x = FIB.gen()
    assert x * x == x + FIB.one()


def test_division_by_unit_and_errors():
    x = GAUSS.gen()
    y = (x + GAUSS.from_int(2))
    assert y * y.inverse() == GAUSS.one()
    with pytest.raises(ZeroDivisionError):
        GAUSS.zero().inverse()
    with pytest.raises(ValueError):
        GAUSS.one() + ZZ.one()
    with pytest.raises(ValueError):
        GAUSS.gen() * ZZ.one()
    assert GAUSS.gen() * HeckeRing([1, 0, 1]).gen() == -GAUSS.one()  # an equal ring object


@pytest.mark.parametrize("ring", [ZZ, GAUSS, HeckeRing([1, 0, 0, 0, 1])], ids=["Z", "Z[i]", "Z[x]/(x^4+1)"])
@pytest.mark.parametrize("c", [Fraction(3), Fraction(-5), Fraction(1), Fraction(-1), Fraction(7, 4), Fraction(-6, 9)], ids=str)
def test_constant_inverse_is_den_over_c_without_xgcd(monkeypatch, ring, c):
    e = ring.element([c])
    monkeypatch.setattr(ring_module, "_xgcd", None)  # a constant needs no extended gcd
    inv = e.inverse()
    want = ring.element([Fraction(c.denominator, c.numerator)])
    assert (inv.num, inv.den) == (want.num, want.den)
    assert e * inv == ring.one()
    with pytest.raises(ZeroDivisionError):
        ring.zero().inverse()


def test_zero_divisor_rejected():
    r = HeckeRing([0, -1, 0, 1])  # x^3 - x = x(x-1)(x+1), squarefree
    with pytest.raises(ZeroDivisionError):
        r.gen().inverse()  # x is a zero divisor


def test_squarefree_required():
    with pytest.raises(ValueError):
        HeckeRing([0, 0, 1])  # x^2


def test_rational_coordinates_and_denominators():
    e = GAUSS.element([Fraction(1, 2), Fraction(1, 3)])
    assert e.den == 6 and e.num == (3, 2)
    assert (e * 6).den == 1


def test_ring_axioms_randomized():
    rng = random.Random(1)
    for ring in (GAUSS, FIB, HeckeRing([2, 0, -3, 1])):
        els = [
            ring.element([rng.randrange(-9, 10) for _ in range(ring.degree)], rng.randrange(1, 5))
            for _ in range(6)
        ]
        for a in els:
            for b in els:
                assert a + b == b + a
                assert a * b == b * a
                for c in els:
                    assert (a + b) * c == a * c + b * c
                    assert (a * b) * c == a * (b * c)


def test_norm_is_multiplicative():
    rng = random.Random(2)
    for _ in range(20):
        a = GAUSS.element([rng.randrange(-9, 10), rng.randrange(-9, 10)])
        b = GAUSS.element([rng.randrange(-9, 10), rng.randrange(-9, 10)])
        assert (a * b).norm() == a.norm() * b.norm()


def test_primes_above_split_and_inert():
    ps = primes_above(GAUSS, 5)
    assert len(ps) == 2 and all(p.residue_degree == 1 for p in ps)
    factors = sorted(p.local_factor for p in ps)
    assert factors == [(2, 1), (3, 1)]  # x+2 and x+3, i.e. x-3 and x-2 mod 5

    ps3 = primes_above(GAUSS, 3)
    assert len(ps3) == 1 and ps3[0].residue_degree == 2

    psz = primes_above(ZZ, 7)
    assert len(psz) == 1 and psz[0].residue_degree == 1


def test_primes_above_refuses_bad_ell():
    with pytest.raises(ValueError):
        primes_above(GAUSS, 2)
    # disc(x^2+1) = -4; no odd prime divides it, so use a ring where one does
    r = HeckeRing([3, 0, 1])  # disc = -12, divisible by 3
    with pytest.raises(ValueError):
        primes_above(r, 3)


def test_val_at_examples():
    p5 = primes_above(ZZ, 5)[0]
    assert val_at(p5, ZZ.from_int(50)) == 2
    assert val_at(p5, ZZ.from_int(0)) == INF
    assert val_at(p5, ZZ.element([Fraction(1, 5)])) == -1

    # x+3 at the prime (5, x-2): residue 2+3 = 5 = 0 mod 5, exactly once
    pr = next(p for p in primes_above(GAUSS, 5) if p.local_factor == (3, 1))
    v = val_at(pr, GAUSS.element([3, 1]))
    assert v == 1
    # and at the other prime (5, x+3... i.e. x-(-3)=x+3 -> factor (2,1) is x+2)
    other = next(p for p in primes_above(GAUSS, 5) if p.local_factor == (2, 1))
    assert val_at(other, GAUSS.element([3, 1])) == 0


def test_val_additivity_and_ultrametric():
    rng = random.Random(3)
    for ell in (5, 13):
        for prime in primes_above(GAUSS, ell):
            for _ in range(25):
                a = GAUSS.element([rng.randrange(-50, 51), rng.randrange(-50, 51)])
                b = GAUSS.element([rng.randrange(-50, 51), rng.randrange(-50, 51)])
                if a.is_zero() or b.is_zero():
                    continue
                assert val_at(prime, a * b) == val_at(prime, a) + val_at(prime, b)
                s = a + b
                if not s.is_zero():
                    assert val_at(prime, s) >= min(val_at(prime, a), val_at(prime, b))


def test_val_against_norm():
    rng = random.Random(4)
    for ell in (5, 13, 17):
        primes = primes_above(GAUSS, ell)
        for _ in range(20):
            a = GAUSS.element([rng.randrange(-40, 41), rng.randrange(-40, 41)])
            if a.is_zero():
                continue
            total = sum(p.residue_degree * val_at(p, a) for p in primes)
            nv = 0
            n = a.norm()
            assert n.denominator == 1
            n = int(n)
            while n % ell == 0:
                n //= ell
                nv += 1
            assert total == nv


def test_involutions():
    x = GAUSS.gen()
    e = GAUSS.from_int(3) + x * 2
    assert e.apply_involution("trivial") == e
    assert e.apply_involution("negate-x") == GAUSS.from_int(3) - x * 2
    with pytest.raises(ValueError):
        FIB.one().apply_involution("negate-x")  # x^2-x-1 is neither even nor odd


# the least strong pseudoprime to the first 1, 2, ..., 8 prime bases: each
# bounds the Miller-Rabin base set before it (Jaeschke 1993)
STRONG_PSEUDOPRIMES = (2047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747, 3_474_749_660_383,
                       341_550_071_728_321, 3_825_123_056_546_413_051)


def test_is_prime_matches_sympy():
    near_bounds = [n + d for n in STRONG_PSEUDOPRIMES for d in range(-2, 3)]
    carmichael = [561, 1105, 1729]
    wrong = [n for n in [*range(200_001), *near_bounds, *carmichael] if _is_prime(n) != sympy.isprime(n)]
    assert not wrong


X = sympy.Symbol("x")


def _sympy_poly(coeffs, **kw):
    return sympy.Poly(list(reversed(coeffs)), X, **kw)


def _sympy_factors_mod(m, ell):
    """Monic irreducible factors of m mod ell, as ascending tuples in [0, ell)."""
    lead, factors = _sympy_poly(m, modulus=ell).factor_list()
    assert lead % ell == 1 and all(e == 1 for _, e in factors)
    return sorted(tuple(int(c) % ell for c in reversed(f.all_coeffs())) for f, _ in factors)


@contextmanager
def _time_limit(seconds):
    def fail(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, fail)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("m, ell", [([3, 1, 1], 3), ([8, 19, -9, -6, -9, 1], 5)])
def test_equal_degree_split_terminates(m, ell):
    # every trial polynomial of a sweep with period ell failed to split these
    with _time_limit(10):
        got = sorted(p.local_factor for p in primes_above(HeckeRing(m), ell))
    assert got == _sympy_factors_mod(m, ell)
    if m == [3, 1, 1]:
        assert got == [(0, 1), (1, 1)]


ELLS = st.sampled_from([3, 5, 7, 11, 13, 31])
monic = st.lists(st.integers(-20, 20), min_size=1, max_size=6).map(lambda c: c + [1])


def _unramified(m, ell):
    """The ring of m when ell does not divide its discriminant, else None."""
    disc = sympy.discriminant(_sympy_poly(m))
    if disc == 0 or disc % ell == 0:
        return None
    return HeckeRing(m)


@settings(deadline=None)
@given(monic, ELLS)
def test_primes_above_matches_sympy(m, ell):
    ring = _unramified(m, ell)
    assume(ring is not None)
    with _time_limit(10):
        got = sorted(p.local_factor for p in primes_above(ring, ell))
    assert got == _sympy_factors_mod(m, ell)


@settings(deadline=None)
@given(monic, ELLS, st.integers(1, 12))
def test_hensel_lift_is_a_monic_factor_mod_ell_power(m, ell, precision):
    ring = _unramified(m, ell)
    assume(ring is not None)
    n = ell**precision
    for prime in primes_above(ring, ell):
        f0 = list(prime.local_factor)
        lifted = _hensel_lift_factor(m, f0, ell, precision)
        assert len(lifted) == len(f0) and lifted[-1] == 1
        assert [c % ell for c in lifted] == f0
        assert all(0 <= c < n for c in lifted)
        rem = _sympy_poly(m).rem(_sympy_poly(lifted))
        assert all(c % n == 0 for c in rem.all_coeffs())


def _remainder_val(prime, a, cap):
    """val_at read from the remainder of a's numerator by the prime's factor
    of m lifted mod ell**precision: one polynomial division per element."""
    if a.is_zero():
        return INF
    ring, ell = prime.ring, prime.ell
    precision = cap + 1 + 2 * _val_int(a.den, ell)
    if prime.residue_degree == ring.degree:
        lifted = [c % ell**precision for c in ring.modulus]
    else:
        lifted = _hensel_lift_factor(list(ring.modulus), list(prime.local_factor), ell, precision)
    rem = _divmod(a.num, lifted, ell**precision)[1]
    v = min((_val_int(c, ell) if c else precision for c in rem), default=precision)
    return min(v - _val_int(a.den, ell), cap)


CAPS = st.sampled_from([*range(-3, 6), 64])


@settings(deadline=None)
@given(monic, ELLS, st.data())
def test_val_at_matches_the_remainder_by_a_hensel_lift(m, ell, data):
    ring = _unramified(m, ell)
    assume(ring is not None)
    scaled = st.tuples(st.integers(-(ell**3), ell**3), st.integers(0, 4)).map(lambda t: t[0] * ell ** t[1])
    num = data.draw(st.lists(scaled, min_size=ring.degree, max_size=ring.degree))
    den = data.draw(st.integers(1, 12)) * ell ** data.draw(st.integers(0, 3))
    a, cap = ring.element(num, den), data.draw(CAPS)
    for prime in primes_above(ring, ell):
        assert val_at(prime, a, cap) == _remainder_val(prime, a, cap)


def test_val_against_norm_at_residue_degree_two():
    # x^4 + 1 is a product of two quadratics mod 13 (13 = 5 mod 8)
    ring, ell = HeckeRing([1, 0, 0, 0, 1]), 13
    primes = primes_above(ring, ell)
    assert [p.residue_degree for p in primes] == [2, 2]
    rng = random.Random(6)
    for _ in range(200):
        num = [rng.randrange(-200, 201) * ell ** rng.randrange(3) for _ in range(4)]
        a = ring.element(num, rng.randrange(1, 5) * ell ** rng.randrange(3))
        if a.is_zero():
            continue
        n = a.norm()
        assert sum(p.residue_degree * val_at(p, a) for p in primes) == _val_int(n.numerator, ell) - _val_int(
            n.denominator, ell
        )


def test_val_at_divides_no_polynomial_once_its_projection_is_cached(monkeypatch):
    ring = HeckeRing([1, 0, 0, 0, 1])
    prime = primes_above(ring, 17)[0]
    rng = random.Random(7)
    elems = [ring.element([rng.randrange(-(10**6), 10**6) for _ in range(4)]) for _ in range(1000)]
    val_at(prime, elems[0], cap=5)
    calls = []
    divmod_ = ring_module._divmod
    monkeypatch.setattr(ring_module, "_divmod", lambda *args: calls.append(args) or divmod_(*args))
    values = [val_at(prime, e, cap=5) for e in elems]
    assert not calls
    assert values == [_remainder_val(prime, e, 5) for e in elems]


def _uniformiser(prime):
    """An element of valuation 1 at ``prime`` and 0 at the other primes above
    ell, found from norms alone: the prime's local factor plus a multiple of
    ell (a unit at the other primes, as the factors are coprime mod ell)
    whose norm has ell-valuation the residue degree."""
    ell, factor = prime.ell, list(prime.local_factor)
    for t in range(ell):
        a = prime.ring.element([factor[0] + ell * t, *factor[1:]])
        if _val_int(a.norm().numerator, ell) == prime.residue_degree:
            return a
    raise AssertionError("no uniformiser found")


@pytest.mark.parametrize("modulus, ell", [([1, 0, 1], 13), ([1, 0, 0, 0, 1], 13), ([1, 0, 0, 0, 1], 17)])
def test_val_at_reads_a_valuation_one_below_the_cap(modulus, ell):
    # pi^(cap - 1 + j) / ell^j has valuation cap - 1: its numerator must be
    # read mod ell^(cap + j), not one digit less, and not without the j
    ring = HeckeRing(modulus)
    for prime in primes_above(ring, ell):
        pi = _uniformiser(prime)
        for cap in (1, 2, 5):
            for j in (0, 1, 2):
                a = pi ** (cap - 1 + j) / ell**j
                assert a.den == ell**j
                assert val_at(prime, a, cap) == cap - 1
                assert val_at(prime, a * pi, cap) == val_at(prime, a * ell, cap) == cap


coords = st.lists(st.integers(-30, 30), min_size=5, max_size=5)


@settings(deadline=None)
@given(st.lists(st.integers(-10, 10), min_size=1, max_size=5), coords, coords, st.integers(1, 6))
def test_ring_over_random_moduli(m, ca, cb, den):
    m = m + [1]
    disc = sympy.discriminant(_sympy_poly(m))
    if disc == 0:
        with pytest.raises(ValueError):
            HeckeRing(m)
        return
    ring = HeckeRing(m)
    assert ring.discriminant == disc
    a, b = ring.element(ca[: ring.degree], den), ring.element(cb[: ring.degree])
    assert (a * b).norm() == a.norm() * b.norm()
    for e in (a, b):
        if e.norm() == 0:  # zero or a zero divisor
            with pytest.raises(ZeroDivisionError):
                e.inverse()
        else:
            assert e * e.inverse() == 1


def _canonical(ring, coords):
    """(num, den) in lowest terms of the element with these rational coordinates."""
    coords = [Fraction(c) for c in coords] + [Fraction(0)] * (ring.degree - len(coords))
    den = math.lcm(*(c.denominator for c in coords))
    return tuple(int(c * den) for c in coords), den


def _as_pair(e):
    return e.num, e.den


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_elem_kernel_matches_toolkit_reference(data):
    # a squarefree monic modulus of degree 1-6; the reference is the toolkit's
    # _divmod(_mul(a, b), m) on numerators, over the product of the denominators
    m = data.draw(st.lists(st.integers(-9, 9), min_size=1, max_size=6).map(lambda c: c + [1]))
    try:
        ring = HeckeRing(m)
    except ValueError:
        assume(False)
    g = ring.degree
    coord = st.lists(st.integers(-40, 40), min_size=g, max_size=g)
    den = st.integers(1, 12).flatmap(lambda d: st.sampled_from([d, -d]))
    a, b = (HeckeElem(ring, tuple(data.draw(coord)), data.draw(den)) for _ in range(2))
    for x in (a, b):
        assert x.den > 0 and math.gcd(*x.num, x.den) == 1
        assert x.is_zero() == all(c == 0 for c in x.num)
    rem = _divmod(_mul(a.num, b.num), ring.modulus)[1]
    assert _as_pair(a * b) == _canonical(ring, [Fraction(c, a.den * b.den) for c in rem])
    ca, cb = a.coords(), b.coords()
    assert _as_pair(a + b) == _canonical(ring, [x + y for x, y in zip(ca, cb)])
    assert _as_pair(a - b) == _canonical(ring, [x - y for x, y in zip(ca, cb)])
    assert (a - a).is_zero() and (a * ring.zero()).is_zero()
    # an equal ring that is a different object mixes freely
    twin = HeckeElem(HeckeRing(m), b.num, b.den)
    assert a * twin == a * b and a + twin == a + b and a - twin == a - b
    s = data.draw(st.one_of(st.integers(-50, 50), st.booleans(), st.fractions(max_denominator=20)))
    scaled = _canonical(ring, [c * s for c in ca])
    assert _as_pair(a * s) == _as_pair(s * a) == scaled
    if isinstance(s, int):
        shifted = [ca[0] + s, *ca[1:]]
        assert _as_pair(a + s) == _as_pair(s + a) == _canonical(ring, shifted)
        assert _as_pair(a - s) == _canonical(ring, [ca[0] - s, *ca[1:]])
        assert _as_pair(s - a) == _canonical(ring, [s - ca[0], *(-c for c in ca[1:])])
    else:
        with pytest.raises(TypeError):
            a + s
    stranger = next(r for r in (ZZ, GAUSS) if r != ring).one()
    for op in (lambda x, y: x * y, lambda x, y: x + y, lambda x, y: x - y):
        with pytest.raises(ValueError, match="mismatched rings"):
            op(a, stranger)


def _check_product_against_sympy(m, a_num, a_den, b_num, b_den):
    """a * b in (num, den) against sympy's remainder of the numerators'
    product by m, in two equal rings built separately."""
    ring, twin = HeckeRing(m), HeckeRing(m)
    a, b = HeckeElem(ring, tuple(a_num), a_den), HeckeElem(twin, tuple(b_num), b_den)
    rem = (_sympy_poly(a.num) * _sympy_poly(b.num)).rem(_sympy_poly(m))
    want = _canonical(ring, [Fraction(int(c), a.den * b.den) for c in reversed(rem.all_coeffs())])
    assert _as_pair(a * b) == _as_pair(b * a) == want
    assert (a * b).ring is ring and (b * a).ring is twin


BIG = st.integers(-(10**30), 10**30)


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_product_kernel_matches_sympy_remainder(data):
    # monic squarefree moduli of degree 1-8, coordinates up to 10^30
    g = data.draw(st.integers(1, 8), "degree")
    m = data.draw(st.lists(st.integers(-9, 9), min_size=g, max_size=g), "m") + [1]
    assume(sympy.discriminant(_sympy_poly(m)) != 0)
    coord = st.lists(BIG, min_size=g, max_size=g)
    den = st.integers(1, 10**6)
    _check_product_against_sympy(m, data.draw(coord), data.draw(den), data.draw(coord), data.draw(den))


@pytest.mark.parametrize("m0", [5, -3, 10**30])
def test_product_kernel_on_x_plus_constant(m0):
    # Z[x]/(x + m0) is Z with x = -m0; a product is one integer product
    _check_product_against_sympy([m0, 1], [10**30 + 7], 3, [-(10**29)], 10)
    x = HeckeRing([m0, 1]).gen()
    assert x * x == m0 * m0


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_lincomb_matches_fold_of_add_and_mul(data):
    # lincomb(ring, terms, den) against acc + e * c over the terms, then / den,
    # in (num, den); no terms, mixed denominators, rational scalars, negative
    # den, and terms followed by their negatives (a sum that cancels to zero)
    ring = data.draw(st.sampled_from((ZZ, GAUSS, FIB, HeckeRing([1, 0, 0, 0, 1]))), "ring")
    elem = st.builds(
        lambda num, d: HeckeElem(ring, tuple(num), d),
        st.lists(st.integers(-30, 30), min_size=ring.degree, max_size=ring.degree),
        st.integers(1, 12),
    )
    scalar = st.one_of(st.integers(-20, 20), st.fractions(max_denominator=12))
    terms = data.draw(st.lists(st.tuples(scalar, elem), max_size=6), "terms")
    cancel = data.draw(st.booleans(), "cancel")
    if cancel:
        terms += [(-c, e) for c, e in terms]
    den = data.draw(st.integers(1, 30).flatmap(lambda d: st.sampled_from([d, -d])), "den")
    acc = ring.zero()
    for c, e in terms:
        acc = acc + e * c
    got = lincomb(ring, iter(terms), den)
    assert _as_pair(got) == _as_pair(acc / den)
    assert got.den > 0 and math.gcd(*got.num, got.den) == 1
    if cancel or not terms:
        assert got is ring.zero()


def fraction_lincomb(ring, terms, den):
    """The lincomb of terms over den, coordinate by coordinate in Fraction."""
    out = [Fraction(0)] * ring.degree
    for c, e in terms:
        out = [acc + Fraction(c) * Fraction(a, e.den) for acc, a in zip(out, e.num)]
    return [x / den for x in out]


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_compiled_lincomb_matches_a_fraction_reference(data):
    # the kernel compiled per ring against the sum written out in Fraction,
    # on rings of degree 1, 2 and 4: int and Fraction coefficients,
    # elements of denominator > 1, no terms, a den argument, and sums that
    # cancel, which return the ring's shared zero itself
    ring = data.draw(st.sampled_from((ZZ, GAUSS, HeckeRing([1, 0, 0, 0, 1]))), "ring")
    elem = st.builds(
        lambda num, d: HeckeElem(ring, tuple(num), d),
        st.lists(st.integers(-10**6, 10**6), min_size=ring.degree, max_size=ring.degree),
        st.sampled_from((1, 1, 2, 3, 4, 6, 9, 10**12)),
    )
    scalar = st.one_of(st.integers(-10**9, 10**9), st.fractions(max_denominator=50))
    terms = data.draw(st.lists(st.tuples(scalar, elem), max_size=8), "terms")
    if data.draw(st.booleans(), "cancel"):
        terms += [(-c, e) for c, e in reversed(terms)]
    den = data.draw(st.integers(1, 10**6), "den")
    got = lincomb(ring, terms, den)
    want = fraction_lincomb(ring, terms, den)
    if not any(want):
        assert got is ring._zero
    else:
        assert list(got.coords()) == want
        assert got.den > 0 and math.gcd(*got.num, got.den) == 1


def test_compiled_lincomb_grows_its_denominator_to_an_lcm():
    # denominators 4, 6 and 9 in turn: the common one widens to 12, then 36;
    # a later term whose denominator divides it is scaled, not widened
    x = GAUSS.gen()
    terms = [(1, x / 4), (Fraction(1, 3), GAUSS.one() / 2), (5, x / 9), (1, x / 12)]
    got = lincomb(GAUSS, terms, 2)
    assert got.coords() == (Fraction(1, 12), (Fraction(1, 4) + Fraction(5, 9) + Fraction(1, 12)) / 2)


@pytest.mark.parametrize("ring", [ZZ, GAUSS, HeckeRing([1, 0, 0, 0, 1])], ids=["Z", "Z[i]", "Z[x]/(x^4+1)"])
def test_power_equals_repeated_products(ring):
    # the power from the element itself, by squaring: n = 0 is one, a
    # negative n inverts, and zero to a negative power raises
    rng = random.Random(ring.degree)
    base = ring.element([Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 3)) for _ in range(ring.degree)])
    for n in range(-3, 10):
        want, step = ring.one(), base if n >= 0 else base.inverse()
        for _ in range(abs(n)):
            want = want * step
        assert base ** n == want, n
    assert base ** 1 is base and ring.zero() ** 3 == 0
    for n in (-1, -2):
        with pytest.raises(ZeroDivisionError):
            ring.zero() ** n
