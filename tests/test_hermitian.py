import math
import random
import signal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hermlift import hermitian
from hermlift.hermitian import (
    SHAPES,
    DiagCert,
    HermPoint,
    _lattice,
    content,
    content_p,
    diagonalize_mod,
    enumerate_points,
    identity_matrix,
    point,
    transform,
    transform_integral,
)
from hermlift.maass import CoeffTable
from hermlift.quadfield import FieldParams, QuadInt, chi_K
from hermlift.ring import HeckeRing


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
    assert content_p(h, 2) == 0 and content_p(h, 3) == 1
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


def singular_points(D, bound_diag):
    """The nonzero points of det 0 with t1, t3 <= bound_diag, by brute force:
    the axis points and, at t1 t3 > 0, the rank-1 points."""
    return [point(D, *key[1:]) for key in brute_force_keys(D, bound_diag, lambda det: det == 0) if any(key[1:])]


@pytest.mark.parametrize("D, bound_det, bound_diag", [(3, 12, 3), (7, 28, 2), (7, 63, 3), (23, 92, 2), (23, 180, 4)])
def test_enumerate_matches_brute_force(D, bound_det, bound_diag):
    brute = brute_force_keys(D, bound_diag, lambda det: 0 < det <= bound_det)
    assert any(key[0] == bound_det for key in brute)  # the closed end of the annulus
    assert [h.sort_key() for h in enumerate_points(D, bound_det, bound_diag)] == brute


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([7, 11, 23, 43]), st.integers(0, 400), st.integers(0, 5))
def test_lattice_memo_holds_each_points_det_and_content(D, bound_det, bound_diag):
    # the memoised pair is a fresh build's, its keys each point's (det, content),
    # and every table of the shape holds that one pair
    lattice, keys = _lattice(D, bound_det, bound_diag)
    assert (lattice, keys) == _lattice.__wrapped__(D, bound_det, bound_diag)
    pts = enumerate_points(D, bound_det, bound_diag)
    assert list(lattice) == [h.sort_key() for h in pts]
    assert list(keys) == [(h.det_scaled(), content(h)) for h in pts]
    rings = (HeckeRing([0, 1]), HeckeRing([1, 0, 1]))
    a, b = (CoeffTable(FieldParams(D, 8), ring, bound_det, bound_diag) for ring in rings)
    assert a.lattice is b.lattice is lattice and a.keys is b.keys is keys


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
        assert h.swap().coords() in coords  # t1 <-> t3 with conjugation
        assert (h.det_scaled() + h.w.norm()) % 7 == 0


def test_diagonalize_trivial_cases():
    h = point(7, 1, 1)
    cert = diagonalize_mod(h, 3, 2)
    assert cert.verify() and cert.epsilon == 0 and cert.a % 3 != 0

    h2 = point(7, 3, 6)
    cert2 = diagonalize_mod(h2, 3, 3)
    assert cert2.verify() and cert2.epsilon == 1

    sat = point(7, 9, 9, 9, 0)
    cert3 = diagonalize_mod(sat, 3, 2)
    assert cert3.saturated and cert3.epsilon == 2 and cert3.verify()


def test_diagonalize_random_certificates():
    rng = random.Random(10)
    count = 0
    for D in (7, 11, 23):
        for ell in (3, 5):
            if D % ell == 0:
                continue
            for n in (1, 2, 3):
                for _ in range(25):
                    h = _random_point(rng, D, spread=9)
                    cert = diagonalize_mod(h, ell, n)
                    assert cert.verify()
                    if not cert.saturated:
                        assert cert.a % ell != 0
                        if content_p(h, ell) < n:
                            assert cert.epsilon == content_p(h, ell)
                    count += 1
    assert count >= 400


def test_diagonalize_rejects():
    with pytest.raises(ValueError):
        diagonalize_mod(point(7, 0, 0), 3, 1)
    with pytest.raises(ValueError):
        diagonalize_mod(point(7, 1, 1), 7, 1)  # l = D


def _bounded(seconds, call, *args):
    """call(*args) under an alarm, so a call that never returns fails the test."""

    def expire(signum, frame):
        raise TimeoutError(f"{call.__name__}{args} did not return in {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        return call(*args)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_content_p_refuses_p_below_two():
    h = point(7, 2, 4, 2, 0)
    for p in (1, 0, -1, -2):  # p = 1 looped forever on c % 1 == 0
        with pytest.raises(ValueError):
            _bounded(2, content_p, h, p)
    assert content_p(h, 2) == 1


def test_diagonalize_refuses_non_prime_ell():
    h = point(7, 2, 4, 1, 0)
    for ell in (1, 0, -3, 4, 9, 15):
        with pytest.raises(ValueError, match="not prime"):
            _bounded(2, diagonalize_mod, h, ell, 2)


def _integral(x, y):
    """Whether x + y sqrt(-D) lies in the order: it is (x - y) + 2y omega."""
    return (2 * y).denominator == 1 and (x - y).denominator == 1


def test_diagonalize_sweep_against_matrix_oracle():
    # every point of a small table, the nonzero det-0 points of its diagonals
    # (which tables leave out), points with t1 = t3 = 0 mod l that need the
    # pivot shear, and their multiples by l and l^2; each certificate is
    # read back through the rational matrix oracle, not only through
    # DiagCert.verify
    kinds = set()
    for D in (7, 11):  # l = 2, 3, 5 split at one D and stay inert at the other
        table = singular_points(D, 1) + enumerate_points(D, D, 1)
        for ell in (2, 3, 5, 7, 11):
            if D % ell == 0:
                continue
            side = "split" if chi_K(D, ell) == 1 else "inert"
            base = table + [
                point(D, ell, ell, wa, wb)
                for wa in range(-1, 2)
                for wb in range(-1, 2)
                if (wa, wb) != (0, 0) and D * ell * ell >= QuadInt(wa, wb, D).norm()
            ]
            for n in range(1, 5):
                ln = ell ** n
                for h0 in base:
                    for m in (1, ell, ell * ell):
                        h = HermPoint(m * h0.t1, m * h0.t3, h0.w * m)
                        cert = diagonalize_mod(h, ell, n)
                        eps = content_p(h, ell)
                        if cert.saturated:
                            assert eps >= n and cert.epsilon == n
                            kinds.add("saturated")
                            continue
                        assert cert.epsilon == eps and cert.a % ell != 0
                        (u11, u12), (u21, u22) = [[_sym(z) for z in row] for row in cert.u]
                        det = [x - y for x, y in zip(_sym_mul(u11, u22, D), _sym_mul(u12, u21, D))]
                        assert _integral((det[0] - 1) / ln, det[1] / ln), (h, ell, n)
                        t1, t3, wu, wv = _oracle_transform(h, cert.u)
                        le = ell ** eps
                        assert t1.denominator == 1 and (t1 - le * cert.a) % ln == 0
                        assert t3.denominator == 1 and (t3 - le * cert.d) % ln == 0
                        assert _integral(wu / ln, wv / ln), (h, ell, n)
                        kinds.add(side)
                        if h0.det_scaled() == 0:
                            kinds.add("det 0")
                        if h0.t1 % ell == 0 and h0.t3 % ell == 0:
                            kinds.add("shear pivot, " + side)
    assert kinds == {"split", "inert", "saturated", "det 0", "shear pivot, split", "shear pivot, inert"}


def _reference_diagonalize(h, ell, n):
    """The residue search that the four fixed pivots replaced: t1, else a swap
    to t3, else the first shear [[1, 0], [s, 1]] over s = sa + sb omega mod l
    (sb outer, sa inner) making t1 a unit; then the clearing shear."""
    D = h.D
    eps = content_p(h, ell)
    if eps >= n:
        return DiagCert(h, ell, n, identity_matrix(D), a=0, d=0, epsilon=n, saturated=True)
    ln = ell ** n
    one, zero = QuadInt(1, 0, D), QuadInt(0, 0, D)

    def matmul(X, Y):
        return [[X[i][0] * Y[0][j] + X[i][1] * Y[1][j] for j in range(2)] for i in range(2)]

    u = [[one, zero], [zero, one]]
    cur = h.divide(ell ** eps)
    if cur.t1 % ell == 0 and cur.t3 % ell:
        swap = ((zero, QuadInt(-1, 0, D)), (one, zero))
        cur, u = transform_integral(cur, swap), matmul(u, swap)
    elif cur.t1 % ell == 0:
        shears = (((one, zero), (QuadInt(sa, sb, D), one)) for sb in range(ell) for sa in range(ell))
        shear = next(g for g in shears if transform_integral(cur, g).t1 % ell)
        cur, u = transform_integral(cur, shear), matmul(u, shear)
    delta = QuadInt(-1, 2, D)
    t1inv = pow(cur.t1 % ln, -1, ln)
    w_over_delta = cur.w * delta.conj() * pow(D % ln, -1, ln)
    s = QuadInt((-w_over_delta.a * t1inv) % ln, (-w_over_delta.b * t1inv) % ln, D)
    shear = ((one, s), (zero, one))
    cur, u = transform_integral(cur, shear), matmul(u, shear)
    uu = tuple(tuple(QuadInt(z.a % ln, z.b % ln, D) for z in row) for row in u)
    return DiagCert(h, ell, n, uu, a=cur.t1 % ln, d=cur.t3 % ln, epsilon=eps)


def _pivot_kind(h, ell):
    """Which pivot the primitive part of h needs, read off its coordinates."""
    if content_p(h, ell) >= 2:  # saturated at n <= 2
        return "saturated"
    c = h.divide(ell ** content_p(h, ell))
    if c.t1 % ell:
        return "identity"
    if c.t3 % ell:
        return "swap"
    return "shear 1" if c.w.b % ell else "shear omega"


def test_fixed_pivots_match_the_residue_search():
    kinds = {}
    for D in (3, 7, 11, 23):
        table = singular_points(D, 1) + enumerate_points(D, D, 1)
        for ell in (2, 3, 5, 7):
            if D % ell == 0:
                continue
            base = table + [
                point(D, ell, ell, wa, wb)
                for wa in range(-2, 3)
                for wb in range(-2, 3)
                if (wa, wb) != (0, 0) and D * ell * ell >= QuadInt(wa, wb, D).norm()
            ]
            for h0 in base:
                for m in (1, ell, ell * ell):
                    h = HermPoint(m * h0.t1, m * h0.t3, h0.w * m)
                    kinds.setdefault(ell, set()).add(_pivot_kind(h, ell))
                    for n in (1, 2):
                        got, want = diagonalize_mod(h, ell, n), _reference_diagonalize(h, ell, n)
                        assert (got.u, got.a, got.d, got.epsilon, got.saturated) == (
                            want.u, want.a, want.d, want.epsilon, want.saturated
                        ), (h, ell, n)
    for ell in (2, 3, 5, 7):
        assert kinds[ell] == {"identity", "swap", "shear 1", "shear omega", "saturated"}, ell


def test_diagonalize_at_large_ell_makes_few_transforms(monkeypatch):
    # t1 = t3 = w.b = 0 mod l: the residue search scanned all l shears with
    # sb = 0 before omega; the fixed pivots try four and clear with one more
    ell = 10007
    h = point(7, ell, ell, 1, ell)
    calls = []
    real = hermitian.transform_integral

    def counted(h, G):
        calls.append(G)
        return real(h, G)

    monkeypatch.setattr(hermitian, "transform_integral", counted)
    cert = diagonalize_mod(h, ell, 2)
    assert len(calls) <= 6  # the self-check through verify() included
    assert cert.verify() and not cert.saturated and cert.epsilon == 0
