import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hermlift.hermitian import SHAPES, HermPoint, _lattice, content, enumerate_points, point
from hermlift.maass import CoeffTable
from hermlift.quadfield import FieldParams, QuadInt
from hermlift.ring import HeckeRing
from percoset import conj, transform, transform_integral


def qi(a, b, D=7):
    return QuadInt(a, b, D)


def test_det_scaled_examples():
    assert point(7, 1, 1).det_scaled() == 7
    assert point(7, 1, 2, 3, 0).det_scaled() == 14 - 9
    assert qi(1, 1).norm() == 4
    assert point(7, 1, 1, 1, 1).det_scaled() == 3


def test_psd_enforced():
    with pytest.raises(ValueError):
        point(7, 1, 1, 3, 0)  # det_scaled = 7 - 9 < 0
    with pytest.raises(ValueError):
        point(7, -1, 1)


def test_content():
    assert content(point(7, 2, 4, 2, 0)) == 2
    assert content(point(7, 1, 5)) == 1
    h = point(7, 6, 9, 3, 3)
    assert content(h) == 3
    with pytest.raises(ValueError):
        content(point(7, 0, 0))


# independent oracle: matrix arithmetic over Q(sqrt(-D)) with entries (u, v)
# meaning u + v*sqrt(-D), u, v rational
def _sym(z: QuadInt):
    return (Fraction(z.a) + Fraction(z.b, 2), Fraction(z.b, 2))


def _sym_mul(x, y, D):
    return (x[0] * y[0] - D * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _sym_conj(x):
    return (x[0], -x[1])


def _herm_matrix(h: HermPoint):
    D = h.D
    w = _sym(h.w)
    dinv = (Fraction(0), Fraction(-1, D))  # 1/sqrt(-D) = -sqrt(-D)/D
    t2 = _sym_mul(w, dinv, D)
    return [
        [(Fraction(h.t1), Fraction(0)), t2],
        [_sym_conj(t2), (Fraction(h.t3), Fraction(0))],
    ]


def _oracle_transform(h: HermPoint, G):
    D = h.D
    M = _herm_matrix(h)
    Gs = [[_sym(G[i][j]) for j in range(2)] for i in range(2)]
    Gc = [[_sym_conj(Gs[j][i]) for j in range(2)] for i in range(2)]  # G*

    def mul(X, Y):
        return [
            [
                tuple(
                    a + b
                    for a, b in zip(
                        _sym_mul(X[i][0], Y[0][j], D), _sym_mul(X[i][1], Y[1][j], D)
                    )
                )
                for j in range(2)
            ]
            for i in range(2)
        ]

    R = mul(mul(Gc, M), Gs)
    # read back lattice coordinates
    t1 = R[0][0][0]
    t3 = R[1][1][0]
    # t2 = w/sqrt(-D) => w = t2 * sqrt(-D): (u, v)*(0,1) = (-D v, u)
    w_u, w_v = -D * R[0][1][1], R[0][1][0]
    return t1, t3, w_u, w_v


def test_transform_matches_matrix_oracle():
    rng = random.Random(7)
    for D in (7, 23):
        for _ in range(60):
            h = _random_point(rng, D)
            G = tuple(
                tuple(QuadInt(rng.randrange(-3, 4), rng.randrange(-3, 4), D) for _ in range(2))
                for _ in range(2)
            )
            det = G[0][0] * G[1][1] - G[0][1] * G[1][0]
            if det.is_zero():
                continue
            got = transform_integral(h, G)
            t1, t3, wu, wv = _oracle_transform(h, G)
            assert Fraction(got.t1) == t1
            assert Fraction(got.t3) == t3
            w = _sym(got.w)
            assert w == (wu, wv)


def _random_point(rng, D, spread=4):
    while True:
        t1 = rng.randrange(0, spread)
        t3 = rng.randrange(0, spread)
        wa = rng.randrange(-spread, spread + 1)
        wb = rng.randrange(-spread, spread + 1)
        w = QuadInt(wa, wb, D)
        if t1 == 0 or t3 == 0:
            continue
        if D * t1 * t3 - w.norm() >= 0:
            return HermPoint(t1, t3, w)


def test_transform_identity_and_diag():
    h = point(7, 1, 2, 1, 1)
    I = ((qi(1, 0), qi(0, 0)), (qi(0, 0), qi(1, 0)))
    assert transform(h, I) == h
    P = ((qi(1, 0), qi(0, 0)), (qi(0, 0), qi(3, 0)))
    hp = transform(h, P)
    assert hp == point(7, 1, 18, 3, 3)
    # inverse transform: diag(1, 1/3) brings it back
    Pinv = ((qi(3, 0), qi(0, 0)), (qi(0, 0), qi(1, 0)))
    assert transform(hp, Pinv, den=3) == h
    assert transform(point(7, 1, 1), Pinv, den=3) is None  # leaves the lattice


def test_transform_det_identity():
    rng = random.Random(8)
    for D in (7, 11):
        for _ in range(40):
            h = _random_point(rng, D)
            G = tuple(
                tuple(QuadInt(rng.randrange(-2, 3), rng.randrange(-2, 3), D) for _ in range(2))
                for _ in range(2)
            )
            det = G[0][0] * G[1][1] - G[0][1] * G[1][0]
            if det.is_zero():
                continue
            got = transform_integral(h, G)
            assert got.det_scaled() == det.norm() * h.det_scaled()


def test_content_invariant_under_unimodular():
    rng = random.Random(9)
    D = 7
    shears = []
    for s in (qi(1, 0), qi(0, 1), qi(-1, 1)):
        shears.append(((qi(1, 0), s), (qi(0, 0), qi(1, 0))))
        shears.append(((qi(1, 0), qi(0, 0)), (s, qi(1, 0))))
    for _ in range(30):
        h = _random_point(rng, D)
        for G in shears:
            assert content(transform_integral(h, G)) == content(h)


def test_enumerate_small():
    # no singular point is listed: not the zero point, not the axis points
    assert enumerate_points(7, 0, 0) == enumerate_points(7, 0, 5) == enumerate_points(7, 30, 0) == []

    pts = enumerate_points(7, 7, 1)
    inner = [h for h in pts if h.t1 == 1 and h.t3 == 1]
    # w ranges over all integers with N(w) < 7: verified by brute force
    brute = {
        (1, 1, a, b)
        for a in range(-3, 4)
        for b in range(-3, 4)
        if QuadInt(a, b, 7).norm() < 7
    }
    assert {h.coords() for h in inner} == brute == {h.coords() for h in pts}


def brute_force_keys(D, bound_diag, keep):
    """Sort keys (det, t1, t3, a, b) of the points with t1, t3 <= bound_diag
    whose det passes ``keep``, by a scan of a box, in canonical order."""
    # N(a + b omega) <= D t1 t3 forces |b| <= 2 bound_diag and
    # |a| <= (sqrt(D) + 1) bound_diag, so the box below holds every point
    rb, ra = 2 * bound_diag, (math.isqrt(D) + 2) * bound_diag
    brute = []
    for t1 in range(bound_diag + 1):
        for t3 in range(bound_diag + 1):
            for a in range(-ra, ra + 1):
                for b in range(-rb, rb + 1):
                    det = D * t1 * t3 - QuadInt(a, b, D).norm()
                    if keep(det):
                        brute.append((det, t1, t3, a, b))
    return sorted(brute)


@pytest.mark.parametrize("D, bound_det, bound_diag", [(3, 12, 3), (7, 28, 2), (7, 63, 3), (23, 92, 2), (23, 180, 4)])
def test_enumerate_matches_brute_force(D, bound_det, bound_diag):
    brute = brute_force_keys(D, bound_diag, lambda det: 0 < det <= bound_det)
    assert any(key[0] == bound_det for key in brute)  # the closed end of the annulus
    assert [h.sort_key() for h in enumerate_points(D, bound_det, bound_diag)] == brute


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([7, 11, 23, 43]), st.integers(0, 400), st.integers(0, 5))
def test_lattice_memo_holds_each_points_det_and_content(D, bound_det, bound_diag):
    # the memoised record is a fresh build's; distinct lists each point's
    # (det, content) in order of first occurrence, slot points into it and
    # first is each key's least position; skipped holds the dets no point
    # of content 1 realises and free marks the keys (det, c) with some
    # det / d^2, d | c, among them; every table of the shape holds that one
    # record
    shape = _lattice(D, bound_det, bound_diag)
    lattice, distinct, slot, first, skipped, free = shape
    assert shape == _lattice.__wrapped__(D, bound_det, bound_diag)
    pts = enumerate_points(D, bound_det, bound_diag)
    assert list(lattice) == [h.sort_key() for h in pts]
    keys = [(h.det_scaled(), content(h)) for h in pts]
    assert distinct == tuple(dict.fromkeys(keys)) and len(slot) == len(keys)
    assert all(keys[j] == distinct[slot[j]] for j in range(len(keys)))
    least = {}
    for j, i in enumerate(slot):
        least.setdefault(i, j)
    assert first == tuple(least[i] for i in range(len(distinct))) and len(least) == len(distinct)
    assert skipped == {det for det, _ in keys} - {det for det, c in keys if c == 1}
    assert isinstance(skipped, frozenset)
    assert not any(det // (c * c) in skipped for det, c in distinct)  # h / content(h) is primitive, of det det / c^2
    assert free == tuple(any(c % d == 0 and det // (d * d) in skipped for d in range(1, c + 1)) for det, c in distinct)
    rings = (HeckeRing([0, 1]), HeckeRing([1, 0, 1]))
    a, b = (CoeffTable(FieldParams(D, 8), ring, bound_det, bound_diag) for ring in rings)
    assert a.shape is b.shape is shape
    assert a.lattice is b.lattice is lattice and a.distinct is b.distinct is distinct
    assert a.slot is b.slot is slot and a.first is b.first is first


def test_lattice_memo_stays_bounded():
    # 2 SHAPES distinct shapes leave SHAPES held; an evicted shape is built again, equal
    shapes = [(7, 1000 + i, 1) for i in range(2 * SHAPES)]
    first = _lattice(*shapes[0])
    for shape in shapes[1:]:
        _lattice(*shape)
    assert _lattice.cache_info().currsize == _lattice.cache_info().maxsize == SHAPES
    again = _lattice(*shapes[0])
    assert again == first and again is not first


def test_enumerate_symmetries_and_order():
    pts = enumerate_points(7, 30, 2)
    keys = [h.sort_key() for h in pts]
    assert keys == sorted(keys)
    coords = {h.coords() for h in pts}
    for h in pts:
        assert (h.t1, h.t3, -h.w.a, -h.w.b) in coords  # w -> -w
        assert (h.t3, h.t1, conj(h.w).a, conj(h.w).b) in coords  # t1 <-> t3 with conjugation
        assert (h.det_scaled() + h.w.norm()) % 7 == 0
