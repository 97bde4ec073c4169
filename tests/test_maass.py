import random
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from hermlift import hermitian, maass
from hermlift.elliptic import QExpansion, _aDK_rho, bundled_cm_form, extend_coeffs, rho_conjugate, synthetic_newform
from hermlift.hecke import HeckeOpId, act_inert_T, act_inert_T0, act_inert_Up, descend_op, eval_inert_raw
from hermlift.hermitian import _lattice, content, enumerate_points, point
from hermlift.maass import (
    CoeffTable,
    MaassTuple,
    RangeError,
    a_K,
    alpha_from_newform,
    build_lift,
    check_maass,
    descend,
    random_alpha_tuple,
)
from hermlift.quadfield import ClassChar, FieldParams, QuadInt, char_values, chi_K, class_group, norm_ball
from hermlift.ring import HeckeElem, HeckeRing

import percoset
from test_elliptic import trial_division_coeffs

GAUSS = HeckeRing([1, 0, 1])
TRIV = ClassChar(1, (0,))


def ak_lattice_oracle(D, n):
    """Count beta in O_K/(sqrt(-D)) with N(beta) = -n mod D, by brute force.

    Enumerating a + b*omega over a full [0,D)^2 window hits each residue
    class mod sqrt(-D) exactly D times.
    """
    count = 0
    for a in range(D):
        for b in range(D):
            if (QuadInt(a, b, D).norm() + n) % D == 0:
                count += 1
    assert count % D == 0
    return count // D


@pytest.mark.parametrize("D", [7, 11, 23])
def test_a_K_brute_force_and_characterisation(D):
    for n in range(0, 5 * D):
        val = a_K(D, n)
        assert val in (0, 1, 2)
        if n > 0:
            assert val == ak_lattice_oracle(D, n)
        if n % D == 0:
            assert val == 1
        else:
            assert (val == 0) == (chi_K(D, n) == 1)


PRIMES_3_MOD_4 = [D for D in range(3, 500, 4) if all(D % d for d in range(2, int(D ** 0.5) + 1))]


@settings(deadline=None, max_examples=200)
@given(st.sampled_from(PRIMES_3_MOD_4), st.data())
def test_a_K_counts_square_roots_of_minus_n(D, data):
    n = data.draw(st.integers(0, 10 * D - 1))
    assert a_K(D, n) == sum(1 for b in range(D) if (b * b + n) % D == 0)


def test_a_K_examples_d7():
    assert a_K(7, 1) == 0
    assert a_K(7, 3) == 2
    assert a_K(7, 7) == 1


def test_alpha_from_cm_form_is_zero():
    f = bundled_cm_form()
    assert alpha_from_newform(f, 200) == {}


def test_alpha_synthetic_example():
    params = FieldParams(7, 8)
    f = synthetic_newform(params, GAUSS, "negate-x", p_max=210, seed=5)
    alpha = alpha_from_newform(f, 200)
    # inert 3: a_K(3) = 2 and (phi - phi^rho)(3) = 2 a(3)
    assert alpha[3] == f.a(3)


def psi_oracle(f, n_max):
    """[None, psi(1), ..., psi(n_max)] for psi = phi - phi^rho, from two
    separate expansions, never from the lift."""
    phi, phi_rho = extend_coeffs(f, n_max), extend_coeffs(rho_conjugate(f), n_max)
    return [None] + [phi.a(n) - phi_rho.a(n) for n in range(1, n_max + 1)]


def test_build_lift_divisor_sum_examples():
    params = FieldParams(7, 8)
    f = synthetic_newform(params, GAUSS, "negate-x", p_max=600, seed=8)
    t = build_lift(f, TRIV, 560)
    oracle = t.oracle()
    k = params.k
    # content 1 point: value = alpha(det)
    h1 = point(7, 1, 3, 1, 1)  # det 21 - 4 = 17
    assert oracle(h1) == t.alpha_at(17)
    # content 2 point: alpha(4m) + 2^(k-1) alpha(m)
    h2 = point(7, 2, 4, 2, 0)  # det = 56 - 4 = 52 = 4*13
    assert oracle(h2) == t.alpha_at(52) + t.alpha_at(13) * 2 ** (k - 1)
    # zero newform gives the zero tuple
    zero_f = synthetic_newform(params, GAUSS, "trivial", p_max=60, seed=1)
    zt = build_lift(zero_f, TRIV, 50)
    assert zt.is_zero()


def test_check_maass_roundtrip_and_fault():
    params = FieldParams(7, 8)
    t = random_alpha_tuple(params, TRIV, GAUSS, 7 * 9, seed=2)
    table = t.identity_table(bound_det=7 * 9, bound_diag=3)
    ok, alpha = check_maass(table)
    assert ok
    for n, v in alpha.items():
        assert v == t.alpha.get(n, GAUSS.zero()), n

    # perturb one coefficient at a content-2 point
    pts = enumerate_points(table.D, table.bound_det, table.bound_diag)
    h2 = next(h for h in pts if not h.is_zero() and h.t1 % 2 == 0 and h.t3 % 2 == 0 and h.w.a % 2 == 0 and h.w.b % 2 == 0)
    faulty = {**table.values, h2: table.get(h2) + GAUSS.one()}
    table = CoeffTable(params, GAUSS, table.bound_det, table.bound_diag, faulty)
    ok2, witness = check_maass(table)
    assert not ok2 and witness == h2


# singular points inside the bounds (7 * 9, 3) at D = 7: the zero point, axis
# points, and rank-1 points (1, 1, sqrt(-7)), (1, 2, 3 + omega), 3 (1, 1, sqrt(-7))
SINGULAR = [point(7, 0, 0), point(7, 1, 0), point(7, 0, 3), point(7, 1, 1, -1, 2), point(7, 1, 2, 3, 1),
            point(7, 3, 3, -3, 6)]


def test_maass_tuple_is_a_cusp_form():
    # an alpha with index 0 would give singular points a value: a MaassTuple
    # refuses it, and its tables hold no singular point, so a cusp form's
    # table has nowhere to put one
    params = FieldParams(7, 8)
    t = random_alpha_tuple(params, TRIV, GAUSS, 7 * 9, seed=3)
    with pytest.raises(ValueError, match="index 0"):
        replace(t, alpha={**t.alpha, 0: GAUSS.one()})
    table = t.identity_table(7 * 9, 3)
    assert check_maass(table)[0] and check_maass_reference(table)[0]
    pts = enumerate_points(table.D, table.bound_det, table.bound_diag)
    assert all(h.det_scaled() > 0 for h in pts) and not set(SINGULAR) & set(pts)


@pytest.mark.parametrize("h", SINGULAR, ids=lambda h: "-".join(map(str, h.coords())))
def test_coeff_table_refuses_a_singular_key(h):
    # a singular point lies outside every table, whatever its value, so the
    # library builds no table that read_table refuses
    assert h.det_scaled() == 0
    for value in (GAUSS.one(), GAUSS.zero()):
        with pytest.raises(RangeError, match="outside the table"):
            CoeffTable(FieldParams(7, 8), GAUSS, 7 * 9, 3, {h: value})
    with pytest.raises(RangeError):
        CoeffTable(FieldParams(7, 8), GAUSS, 7 * 9, 3).get(h)


def test_coeff_table_refuses_a_point_of_another_field():
    # a D = 23 point in a D = 7 table is refused with the ValueError that
    # eval_inert_raw and the oracle raise, naming both discriminants, and
    # not as a RangeError; a same-field point past the bounds stays one
    table = random_alpha_tuple(FieldParams(7, 8), TRIV, GAUSS, 7 * 9, seed=1).identity_table(7 * 9, 3)
    h = point(23, 1, 1, 0, 0)
    for call in (lambda: table.get(h), lambda: CoeffTable(FieldParams(7, 8), GAUSS, 7 * 9, 3, {h: GAUSS.one()})):
        with pytest.raises(ValueError, match="^point .* has discriminant 23, the source has discriminant 7$") as err:
            call()
        assert not isinstance(err.value, RangeError)
    with pytest.raises(RangeError, match="outside the table"):
        table.get(point(7, 4, 4))


def test_check_maass_zero_table():
    params = FieldParams(7, 8)
    table = CoeffTable(params, GAUSS, 40, 2)
    ok, alpha = check_maass(table)
    assert ok and alpha == {}


def test_lift_tables_and_check_maass_read_the_shapes_keys_and_take_no_gcd(monkeypatch):
    # a lift's table and its membership test read each point's content from
    # the shape's shared (det, content) keys
    from hermlift import maass

    t = random_alpha_tuple(FieldParams(23, 8), TRIV, GAUSS, 400, seed=3)
    monkeypatch.setattr(maass, "gcd", lambda *args: pytest.fail("a gcd per point"))
    table = t.identity_table(400, 3)
    ok, alpha = check_maass(table)
    assert ok and alpha and all(t.alpha[n] == v for n, v in alpha.items())


def check_maass_reference(table):
    """check_maass as a loop over enumerate_points in canonical order: alpha
    from the first primitive point of each positive determinant (a cusp
    form vanishes at singular points), then the first point
    whose value differs from its divisor sum, skipping points that read a
    determinant no primitive point realises."""
    pts = enumerate_points(table.D, table.bound_det, table.bound_diag)
    alpha, primitive = {}, set()
    for h in pts:
        if h.det_scaled() and content(h) == 1 and h.det_scaled() not in primitive:
            primitive.add(h.det_scaled())
            if not table.get(h).is_zero():
                alpha[h.det_scaled()] = table.get(h)
    free = {h.det_scaled() for h in pts if h.det_scaled()} - primitive
    for h in pts:
        c = 0 if h.is_zero() else content(h)
        if any(c % d == 0 and h.det_scaled() // (d * d) in free for d in range(1, c + 1)):
            continue
        if table.get(h) != lift_value_reference(alpha, h, table.params.k, table.ring):
            return False, h
    return True, alpha


@pytest.mark.parametrize("seed", range(3))
def test_check_maass_witness_matches_canonical_reference(seed):
    # check_maass walks raw coordinates and builds a point only for its
    # witness.  A nonzero value planted at a point the table omits as zero,
    # or a stored value removed, must give the reference's first offending
    # point, which need not be the corrupted one when alpha is read there
    params = FieldParams(7, 8)
    t = random_alpha_tuple(params, TRIV, GAUSS, 7 * 12, seed=seed, spread=1)
    table = t.identity_table(7 * 12, 3)
    ok, alpha = check_maass(table)
    assert ok and (ok, alpha) == check_maass_reference(table)
    rng = random.Random(seed)
    pts = enumerate_points(table.D, table.bound_det, table.bound_diag)
    omitted = [h for h in pts if h not in table.values and not h.is_zero()]
    failures = 0
    for h in rng.sample(omitted, 6) + rng.sample(list(table.values), 6):
        values = dict(table.values)
        if values.pop(h, None) is None:
            values[h] = GAUSS.one()
        bad = CoeffTable(params, GAUSS, table.bound_det, table.bound_diag, values)
        got = check_maass(bad)
        assert got == check_maass_reference(bad), h
        failures += not got[0]
    assert failures >= 6


def with_vals(table, vals):
    """A table of the same shape holding ``vals``."""
    out = CoeffTable(table.params, table.ring, table.bound_det, table.bound_diag)
    out.vals = vals
    return out


# D: (smallest inert prime, deep bound_det, alpha range); Up reads alpha to p^4 bound_det
DEEP = {7: (3, 108, 81 * 108), 23: (5, 180, 24000)}
SHALLOW_FREE = {7: (200, 2), 23: (92, 2)}  # shapes where some determinants no primitive point realises


@pytest.mark.parametrize("D", [7, 23])
def test_per_class_check_agrees_with_the_reference(D):
    # check_maass compares each (det, content) class once and by value only
    # the points that hold another object than their class's first: a lift
    # table and its inert images at a deep shape, the same tables with equal
    # but distinct objects per point (every point then compared by value),
    # and each corruption of them give the reference's (ok, alpha | witness)
    p, bound_det, n_max = DEEP[D]
    t = random_alpha_tuple(FieldParams(D, 8), TRIV, GAUSS, n_max, seed=D, spread=5)
    acts = ((act_inert_T0, 2), (act_inert_T, 2), (act_inert_Up, 4))
    tables = [t.identity_table(bound_det, 6)] + [act(t, p, min(bound_det, n_max // p ** r), 6) for act, r in acts]
    one, zero, shallow = GAUSS.one(), GAUSS.zero(), t.identity_table(*SHALLOW_FREE[D])
    for table in tables + [shallow]:
        distinct, slot, first, vals = table.distinct, table.slot, table.first, table.vals
        unconstrained = set()
        ok, alpha = check_maass(table, unconstrained)
        assert ok and (ok, alpha) == check_maass_reference(table)
        copied = with_vals(table, [v if v is zero else HeckeElem(GAUSS, v.num, v.den) for v in vals])
        assert check_maass(copied) == (ok, alpha) and any(v is not w for v, w in zip(copied.vals, vals))
        free = [any(det // (d * d) in unconstrained for d in range(1, c + 1) if c % d == 0) for det, c in distinct]
        # the deepest classes of two or more points reading no unconstrained det
        prim, imprim = (next(i for i in reversed(range(len(distinct))) if slot.count(i) > 1 and not free[i]
                             and (distinct[i][1] == 1) == want) for want in (True, False))
        wrong = vals[first[imprim]] + one  # one shared object at every point of the class
        later = len(slot) - 1 - slot[::-1].index(prim)
        cases = [  # (corrupted vals, the position it must fail at, or None if it must pass)
            (vals[:first[imprim]] + [wrong] + vals[first[imprim] + 1:], first[imprim]),
            (vals[:later] + [vals[later] + one] + vals[later + 1:], later),
            ([wrong if s == imprim else v for s, v in zip(slot, vals)], first[imprim]),
        ]
        if table is shallow:
            j = slot.index(free.index(True))
            cases.append((vals[:j] + [vals[j] + one] + vals[j + 1:], None))
        for bad_vals, j in cases:
            bad = with_vals(table, bad_vals)
            got = check_maass(bad)
            assert got == check_maass_reference(bad), (table.bound_det, j)
            if j is None:
                assert got[0], table.bound_det
            else:
                _, t1, t3, a, b = table.lattice[j]
                assert got == (False, point(D, t1, t3, a, b)), (table.bound_det, j)


@pytest.mark.parametrize("ring", [HeckeRing([0, 1]), GAUSS], ids=["ZZ", "Z[i]"])
def test_witness_is_an_earlier_point_of_a_primitive_class_than_the_failing_class(ring):
    # zeroing the first point of the primitive class (3, 1) reads alpha(3) as
    # zero: the other points of (3, 1) still hold the old value and fail by
    # value, before the first point of the class (12, 2), which fails too
    table = random_alpha_tuple(FieldParams(7, 8), TRIV, ring, 200, seed=0).identity_table(200, 3)
    vals = list(table.vals)
    vals[table.first[table.distinct.index((3, 1))]] = ring.zero()
    bad = with_vals(table, vals)
    assert check_maass(bad) == check_maass_reference(bad) == (False, point(7, 1, 1, -2, 1))
    assert table.lattice[table.first[table.distinct.index((12, 2))]] == (12, 2, 2, -4, 0)


def test_descend_roundtrip_trivial_chi():
    params = FieldParams(7, 8)
    f = synthetic_newform(params, GAUSS, "negate-x", p_max=520, seed=9)
    t = build_lift(f, TRIV, 500)
    psi = psi_oracle(f, 500)
    comps = descend(t, 500)
    assert set(comps) == {0}
    exp, q = comps[0]
    assert exp == 0
    for n in range(1, 501):
        assert q.a(n) == psi[n], n


def test_descend_components_differ_by_zeta_only():
    params = FieldParams(23, 8)
    cg = class_group(23)
    chars = char_values(cg)
    nontriv = next(c for c in chars if not c.is_trivial())
    f = synthetic_newform(params, GAUSS, "negate-x", p_max=320, seed=4)
    t = build_lift(f, nontriv, 300)
    comps = descend(t, 300)
    assert len(comps) == 3
    qs = [comps[b][1] for b in range(3)]
    assert qs[0] == qs[1] == qs[2]
    exps = sorted(comps[b][0] for b in range(3))
    assert exps == sorted(nontriv.exponents)
    # trivial character: all components identical with exponent 0
    t2 = build_lift(f, chars[0], 300)
    comps2 = descend(t2, 300)
    assert all(comps2[b][0] == 0 for b in range(3))


def test_descent_forms_only_the_coefficients_a_hecke_polynomial_reads(monkeypatch):
    # InertT0@7 on the descent of a D = 23 lift at 4,900 reads 198 indices,
    # 92 of them nonzero, all of character -1 here; only those are formed, a
    # doubled alpha(n) each, once however often they are read.  At D | n the
    # coefficient is alpha's own object
    from hermlift import maass

    D, k, p = 23, 8, 7
    f = synthetic_newform(FieldParams(D, k), GAUSS, "negate-x", p_max=4910, seed=1)
    t = build_lift(f, TRIV, 4900)
    made, real = [], maass.HeckeElem
    monkeypatch.setattr(maass, "HeckeElem", lambda *args: made.append(1) or real(*args))
    q = descend(t, 4900)[0][1]
    assert not made
    read, get = [], q.coeffs.get
    q.coeffs.get = lambda n, default=None: read.append(n) or get(n, default)
    out = descend_op(HeckeOpId.make("InertT0", p, D), k).apply_to_qexp(q, k, D)
    formed = len(made)
    nonzero = {n for n in read if get(n) is not None}
    doubled = {n for n in nonzero if chi_K(D, n) == -1}
    assert (formed, len(doubled), len(nonzero), len(set(read))) == (92, 92, 92, 198)
    n, m = min(doubled), min(n for n in t.alpha if n % D == 0)
    assert q.a(n) is q.a(n) and q.a(m) is t.alpha[m] and len(made) == formed
    ref = QExpansion(GAUSS, 4900, descend_reference(t, 4900))
    assert out == descend_op(HeckeOpId.make("InertT0", p, D), k).apply_to_qexp(ref, k, D)


def test_a_descent_reads_as_the_dict_of_its_nonzero_coefficients():
    # get, in, [] and iteration answer as the dict descend_reference builds,
    # at every index inside and outside 1..n_max, whether or not it was read
    t = random_alpha_tuple(FieldParams(23, 8), TRIV, GAUSS, 300, seed=3)
    t = replace(t, alpha={**t.alpha, 46: GAUSS.element([0, 0]), 69: GAUSS.zero()})
    want = descend_reference(t, 200)
    q = descend(t, 200)[0][1]
    for n in range(-2, 306):
        assert q.coeffs.get(n) == want.get(n) and (n in q.coeffs) == (n in want), n
        if n not in want:
            with pytest.raises(KeyError):
                q.coeffs[n]
    assert list(q.coeffs.items()) == list(want.items()) and len(q.coeffs) == len(want)
    with pytest.raises(TypeError):
        q.coeffs[5] = GAUSS.one()


def test_a_fully_read_lift_and_descent_cache_only_the_values_they_form():
    # D = 23, read in full three ways: the alpha view reads the kernel's a(n)
    # in place where chi(n) = -1 and caches a product at each of the 213
    # multiples of 23 it reads, and nowhere else; the descent reads alpha's
    # own object where 23 | n and caches a doubled copy only where chi(n) =
    # -1 and alpha(n) != 0 (2,183 of the 2,343 indices of character -1)
    D, n_max = 23, 4900
    f = synthetic_newform(FieldParams(D, 8), GAUSS, "negate-x", p_max=n_max + 10, seed=1)
    t = build_lift(f, TRIV, n_max)
    q = descend(t, n_max)[0][1]
    for view in (t.alpha, q.coeffs):
        read = [n for n in range(-2, n_max + 4) if view.get(n) is not None]
        assert list(view) == [n for n, _ in view.items()] == read
    doubled = [n for n in t.alpha if chi_K(D, n) == -1]
    assert t.alpha._form.cache_info().currsize == n_max // D == 213
    assert q.coeffs._form.cache_info().currsize == len(doubled) == 2183
    m, n = next(n for n in t.alpha if n % D == 0), doubled[0]
    assert q.coeffs[m] is t.alpha[m] and q.coeffs[n] == 2 * t.alpha[n]


def test_expansions_of_different_lengths_compare_unequal_unread():
    # n_max is compared first: two descents of one lift to different bounds
    # differ without a coefficient being read, while equal bounds walk 1..n_max
    f = synthetic_newform(FieldParams(23, 8), GAUSS, "negate-x", p_max=310, seed=1)
    t = build_lift(f, TRIV, 300)
    short, full, again = (descend(t, n)[0][1] for n in (200, 300, 200))
    read = []
    for q in (short, full, again):
        get = q.coeffs.get
        q.coeffs.get = lambda n, default=None, get=get: read.append(n) or get(n, default)
    assert short != full and full != short and not read
    assert short == again and sorted(set(read)) == list(range(1, 201))


def test_build_is_linear_in_alpha():
    # the divisor sum is linear, so tables add when the generating
    # functions add
    params = FieldParams(7, 8)
    t1 = random_alpha_tuple(params, TRIV, GAUSS, 7 * 9, seed=21)
    t2 = random_alpha_tuple(params, TRIV, GAUSS, 7 * 9, seed=22)
    from hermlift.maass import MaassTuple

    summed = MaassTuple(
        params,
        TRIV,
        GAUSS,
        {n: t1.alpha.get(n, GAUSS.zero()) + t2.alpha.get(n, GAUSS.zero()) for n in range(1, 7 * 9 + 1)},
        7 * 9,
    )
    a = t1.identity_table(7 * 9, 3)
    b = t2.identity_table(7 * 9, 3)
    c = summed.identity_table(7 * 9, 3)
    for h in enumerate_points(c.D, c.bound_det, c.bound_diag):
        assert c.get(h) == a.get(h) + b.get(h)


def test_lift_oracle_range_guard():
    params = FieldParams(7, 8)
    t = random_alpha_tuple(params, TRIV, GAUSS, 20, seed=3)
    oracle = t.oracle()
    with pytest.raises(ValueError, match="alpha valid to"):
        oracle(point(7, 2, 2, 0, 0))  # det 28 > 20


def alpha_reference(f, n_max):
    """alpha_from_newform as a loop over every n <= n_max, dividing the
    two-expansion oracle by the counting factor."""
    psi = psi_oracle(f, n_max)
    alpha = {}
    for n in range(1, n_max + 1):
        ak, v = a_K(f.D, n), psi[n]
        if ak == 0:
            if not v.is_zero():
                raise ValueError("not in the image")
            continue
        if not v.is_zero():
            alpha[n] = v / ak if ak != 1 else v
    return alpha


def descend_reference(t, n_max):
    """descend's coefficients as a loop over every n <= n_max."""
    out = {}
    for n in range(1, n_max + 1):
        ak, v = a_K(t.D, n), t.alpha.get(n)
        if ak and v is not None and not v.is_zero():
            out[n] = v * ak
    return out


RINGS = (HeckeRing([0, 1]), GAUSS, HeckeRing([1, 0, 0, 0, 1]))


def least_inert_prime(D):
    return next(p for p in range(2, D) if chi_K(D, p) == -1)


def halved(f):
    """f with every a(p) halved: eigenvalues with denominator 2, which keep
    the conjugation symmetry."""
    return replace(f, ap={p: v / 2 for p, v in f.ap.items()})


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from([7, 11, 19, 23, 43, 47, 71]),  # least inert prime 3, 2, 2, 5, 2, 5, 7
    st.sampled_from(RINGS),
    st.sampled_from(["trivial", "negate-x"]),
    st.sampled_from([4, 8]),
    st.sampled_from([1, 2]),
    st.integers(0, 10**6),
    st.data(),
)
def test_lift_loops_match_per_index_reference(D, ring, involution, k, den, seed, data):
    # the view formed on read against the per-index reference, n_max drawn
    # freely, next to each multiple of p0 and next to each power of D, where
    # alpha(D^e) reads a(1) times the e-th power factor of a(D)
    p0 = least_inert_prime(D)
    near = [p0 * j + d for j in range(1, 400 // p0) for d in (-1, 0, 1)]
    near += [q + d for q in (D, D**2, D**3) if q < 2500 for d in (-1, 0, 1)]
    n_max = data.draw(st.one_of(st.integers(1, 400), st.sampled_from(near)))
    f = synthetic_newform(FieldParams(D, k), ring, involution, p_max=n_max + 10, seed=seed)
    if den == 2:
        f = halved(f)
    alpha = alpha_from_newform(f, n_max)
    assert list(alpha.items()) == list(alpha_reference(f, n_max).items())
    # a sparse alpha, unsorted, with zeros and indices past n_max, and the
    # full one (an index 0 is refused: test_maass_tuple_is_a_cusp_form)
    keep = data.draw(st.sets(st.sampled_from(sorted(alpha) or [1])))
    sparse = {n: alpha[n] for n in keep if n in alpha}
    sparse.update({n_max + 5: ring.one(), 2: ring.zero()})
    for a in (alpha, sparse):
        t = MaassTuple(f.params, TRIV, ring, a, n_max + 5)
        cut = data.draw(st.integers(1, n_max + 5))
        q = descend(t, cut)[0][1]
        assert list(q.coeffs.items()) == list(descend_reference(t, cut).items())


@settings(deadline=None, max_examples=40)
@given(
    st.sampled_from([7, 23, 47]),
    st.sampled_from(RINGS),
    st.sampled_from(["trivial", "negate-x"]),
    st.sampled_from([4, 8]),
    st.integers(0, 10**6),
    st.integers(1, 400),
    st.data(),
)
def test_lift_descends_to_two_expansion_oracle(D, ring, involution, k, seed, n_max, data):
    # synthetic_newform validates the conjugation symmetry of its data
    f = synthetic_newform(FieldParams(D, k), ring, involution, p_max=n_max + 10, seed=seed)
    psi = psi_oracle(f, n_max)
    chi = data.draw(st.sampled_from(char_values(class_group(D))))
    t = build_lift(f, chi, n_max)
    for n in range(1, n_max + 1):
        if a_K(D, n) == 0:
            # phi - phi^rho is in the image of the descent, and the lift
            # puts nothing where the counting factor vanishes
            assert psi[n].is_zero() and t.alpha_at(n).is_zero(), n
    comps = descend(t, n_max)
    assert sorted(comps) == list(range(class_group(D).order))
    for b, (exp, q) in comps.items():
        assert exp == chi.exponent(b), b
        for n in range(1, n_max + 1):
            assert q.a(n) == psi[n], (b, n)


@pytest.mark.parametrize("D", [7, 11, 23, 71])  # least inert prime 3, 2, 5, 7
def test_lift_at_each_multiple_of_p0_restricts_the_dense_one(D):
    # the view to every multiple n_max of p0, read in full, is the reference
    # to 1,000 cut at n_max: it forms no index past its own n_max, and every
    # value it forms is the one the full reference holds there
    f = synthetic_newform(FieldParams(D, 8), GAUSS, "negate-x", p_max=1000, seed=D)
    full = list(alpha_reference(f, 1000).items())
    for n_max in range(0, 1000, least_inert_prime(D)):
        assert list(alpha_from_newform(f, n_max).items()) == [(n, v) for n, v in full if n <= n_max], n_max


@pytest.mark.parametrize("den", [1, 2])
def test_lift_forms_only_the_coefficients_it_reads(den):
    # D = 23: the lift forms alpha(n) when n is read, so building it makes
    # only the powers of a(D) and a^rho(D), 6 products here.  Read in full,
    # the sieve forms a(n) where chi(n) = -1, at the multiples of D and at
    # the factors these read: 2,360 products for 2,281 nonzero values, where
    # forming every a(n) to 4,900 makes 4,245
    ring = HeckeRing([1, 0, 1])  # a ring of its own, so that its product can be counted
    f = synthetic_newform(FieldParams(23, 8), ring, "negate-x", p_max=4900, seed=1)
    f = halved(f) if den == 2 else f
    calls, product = [], ring.product
    ring.product = lambda x, y: calls.append(1) or product(x, y)
    alpha = build_lift(f, TRIV, 4900).alpha
    assert len(calls) <= 0.56 * 4900
    assert list(alpha.items()) == list(alpha_reference(f, 4900).items())


def as_pairs(m):
    return {n: (v.num, v.den) for n, v in m.items()}


@settings(deadline=None, max_examples=40)
@given(
    st.sampled_from([7, 23, 47, 199]),
    st.sampled_from(RINGS),
    st.sampled_from(["trivial", "negate-x"]),
    st.sampled_from([4, 8]),
    st.sampled_from([1, 2]),
    st.integers(0, 10**6),
    st.data(),
)
def test_coefficient_and_alpha_views_read_alike_in_any_order(D, ring, involution, k, den, seed, data):
    # extend_coeffs' coefficients and a lift's alpha form a value the first
    # time it is read: read in a drawn order, a fresh view gives the values
    # an ascending read gives, and both give the oracles' (D^2 is an edge
    # range only where it is at most 2,500)
    edges = [n for n in (1, D, D * D, 2 * D, 3 * D) if n <= 2500]
    n_max = data.draw(st.one_of(st.integers(1, 600), st.sampled_from(edges)))
    f = synthetic_newform(FieldParams(D, k), ring, involution, p_max=n_max + 10, seed=seed)
    f = halved(f) if den == 2 else f
    order = list(range(-2, n_max + 4))
    data.draw(st.randoms(use_true_random=False)).shuffle(order)
    views = ((lambda: extend_coeffs(f, n_max).coeffs, trial_division_coeffs(f, n_max)),
             (lambda: build_lift(f, TRIV, n_max).alpha, alpha_reference(f, n_max)))
    for make, want in views:
        ascending = make()
        assert list(as_pairs(ascending).items()) == list(as_pairs(want).items())
        drawn, want = make(), as_pairs(want)
        got = {n: drawn.get(n) for n in order}
        assert {n: (v.num, v.den) for n, v in got.items() if v is not None} == want
        for n in (0, -1, -2, n_max + 1, n_max + 3, *order[:20]):
            assert (n in drawn) == (n in want) and drawn.get(n, "absent") is ("absent" if n not in want else got[n])
            if n not in want:
                with pytest.raises(KeyError):
                    drawn[n]
            else:
                assert drawn[n] is got[n]
        assert len(drawn) == len(want) and list(drawn) == list(want)
        with pytest.raises(TypeError):
            drawn[1] = ring.one()


def recurrence_closure(indices):
    """The composite m whose a(m) forming each a(n), n in ``indices``, reads,
    by trial division: a(n) = a(n / q) a(q), q the exact power of n's
    smallest prime p, and a(p^e) from a(p), a(p^(e-1)) and a(p^(e-2))."""
    seen, todo = set(), list(indices)
    while todo:
        n = todo.pop()
        p = next((d for d in range(2, n + 1) if n % d == 0), n)
        if n in seen or p == n:  # 1, a prime, or already counted
            continue
        seen.add(n)
        q = p
        while n % (q * p) == 0:
            q *= p
        todo += [p, n // p, n // (p * p)] if q == n else [n // q, q]
    return seen


def test_a_t0_diagram_forms_only_the_recurrence_closure_of_what_it_reads():
    # the lift-descent T0@7 diagram at D = 23, k = 8, in Z[i]: build the lift
    # to 4,900, descend it, take InertT0@7's raw image at a point of each det
    # up to 100 and compare it with the T_p polynomial on the descent.  The
    # lift's construction forms the a(D)^e table alone; after it, the ring
    # products are at most one per composite index of the recurrence closure
    # of the a(n) that the alpha indices read need, plus one per multiple of
    # D read (a(m) times its a(D)-power factor)
    D, k, p, n_max = 23, 8, 7, 4900
    ring = HeckeRing([1, 0, 1])  # a ring of its own, so that its product can be counted
    f = synthetic_newform(FieldParams(D, k), ring, "negate-x", p_max=n_max + 60, seed=1)
    calls, product = [], ring.product
    ring.product = lambda x, y: calls.append(1) or product(x, y)
    aD_rho = _aDK_rho(f)
    powers = [(f.aDK ** e, aD_rho ** e) for e in (1, 2)]  # the a(D)^e table: D^e <= 4,900 < D^3
    table, calls[:] = len(calls), []
    t = build_lift(f, TRIV, n_max)
    assert len(calls) <= table
    built, read, get = len(calls), set(), t.alpha.get
    t.alpha.get = lambda n, default=None: read.add(n) or get(n, default)
    pts = {}
    for n in range(1, 101):
        w = next((w for w in norm_ball(D, D * (n // D + 3)) if (w.norm() + n) % D == 0), None)
        if a_K(D, n) and w is not None:
            pts[n] = point(D, 1, (n + w.norm()) // D, w.a, w.b)
    q = descend(t, n_max)[0][1]
    raw = eval_inert_raw(t, "InertT0", p, pts.values())
    rhs = descend_op(HeckeOpId.make("InertT0", p, D), k).apply_to_qexp(q, k, D)
    assert all(raw[h] * a_K(D, n) == rhs.a(n) for n, h in pts.items())
    formed = {n for n in read if 1 <= n <= n_max and chi_K(D, n) != 1}
    multiples = {n for n in formed if n % D == 0}
    d_free = {n // D ** max(e for e in range(1, 4) if n % D ** e == 0) for n in multiples}
    bound = len(recurrence_closure((formed - multiples) | d_free)) + len(multiples)
    assert len(calls) - built <= bound < 150
    # a full read then forms the rest, each value once (the bound of
    # test_lift_forms_only_the_coefficients_it_reads, which now counts
    # construction alone)
    full = list(t.alpha.items())
    assert len(calls) <= 0.56 * n_max
    assert full == list(alpha_reference(f, n_max).items())


def lift_value_reference(alpha, h, k, ring):
    """The divisor-sum condition at one point, as a plain loop over d <= content."""
    if h.is_zero():
        return ring.zero()
    n, c = h.det_scaled(), content(h)
    acc = ring.zero()
    for d in range(1, c + 1):
        if c % d == 0:
            acc = acc + alpha.get(n // (d * d), ring.zero()) * d ** (k - 1)
    return acc


INERT = {7: 3, 23: 5}


def test_a_dense_alpha_table_matches_the_divisor_sum_at_every_point():
    # alpha nonzero at almost every det, so every imprimitive point adds
    # d^(k-1) alpha(det / d^2) for each divisor d of its content, up to 4
    t = random_alpha_tuple(FieldParams(7, 8), TRIV, GAUSS, 112, seed=0)
    assert len(t.alpha) > 100
    table = t.identity_table(112, 4)
    pts = enumerate_points(7, 112, 4)
    assert any(content(h) == 4 for h in pts)
    for h in pts:
        assert table.get(h) == lift_value_reference(t.alpha, h, 8, GAUSS), h.coords()


@settings(deadline=None, max_examples=40)
@given(
    st.sampled_from([7, 23]),
    st.sampled_from([8, 12]),
    st.integers(1, 6),
    st.integers(0, 160),
    st.data(),
)
def test_lift_values_match_per_point_divisor_sum(D, k, bound_diag, bound_det, data):
    # alpha with gaps (missing keys) and explicit zeros
    alpha_max = bound_det + data.draw(st.integers(0, 20))
    coords = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    drawn = data.draw(st.dictionaries(st.integers(1, max(alpha_max, 1)), coords, max_size=alpha_max + 1))
    alpha = {n: GAUSS.element(list(c)) for n, c in drawn.items()}
    t = MaassTuple(FieldParams(D, k), TRIV, GAUSS, alpha, alpha_max)

    def want(h):
        return lift_value_reference(alpha, h, k, GAUSS)

    table = t.identity_table(bound_det, bound_diag)
    oracle = t.oracle()
    pts = enumerate_points(D, bound_det, bound_diag)
    assert set(table.values) <= set(pts)
    assert not any(v.is_zero() for v in table.values.values())
    for h in pts:
        assert table.get(h) == want(h) == oracle(h), h.coords()

    # the keyed inert reader against a per-coset read of the reference
    p = INERT[D]
    q = t.params.norm_c

    def ref_get(det, t1, t3, wa, wb):
        # the slots' determinants, checked against the coordinates
        assert det == D * t1 * t3 - (wa * wa + wa * wb + wb * wb * q), (det, t1, t3, wa, wb)
        if det > alpha_max:
            raise RangeError(f"alpha valid to {alpha_max}, needed at {det}")
        return want(point(D, t1, t3, wa, wb))

    ref = percoset.LazyAction(ref_get, t.params, GAUSS)
    near = [h for h in pts if h.det_scaled() * p * p <= alpha_max]
    for kind in ("InertT0", "InertT"):
        assert eval_inert_raw(t, kind, p, near) == percoset.eval_inert_raw(ref, kind, p, near)

    # past alpha_max the oracle and the table raise, never read a zero
    t3 = alpha_max // D + 1
    with pytest.raises(RangeError, match=f"^alpha valid to {alpha_max}, needed at {D * t3}$"):
        oracle(point(D, 1, t3))
    with pytest.raises(RangeError, match=f"alpha valid to {alpha_max}, needed at {alpha_max + 1}"):
        t.identity_table(alpha_max + 1, bound_diag)


def test_an_explicit_zero_in_alpha_reads_as_the_shared_zero():
    # alpha holds a fresh zero element at dets that content-1 points realise,
    # some of them also read by imprimitive classes (det 4 n); a zero reaches
    # no table, no inert image and no extracted alpha as anything but the
    # ring's shared zero, which they leave out
    D, p, zero = 7, 3, GAUSS.zero()
    t = random_alpha_tuple(FieldParams(D, 8), TRIV, GAUSS, 900, seed=5)
    table = t.identity_table(100, 3)
    primitive = sorted({det for det, c in table.distinct if c == 1})
    fresh = {det: GAUSS.element([0, 0]) for det in primitive[::3]}
    assert all(v is not zero for v in fresh.values())
    t = replace(t, alpha={**t.alpha, **fresh})
    for out in (t.identity_table(100, 3), act_inert_T0(t, p, 100, 3)):
        assert all(v is zero for v in out.vals if v.is_zero())
        assert not any(v.is_zero() for v in out.values.values())
    ok, alpha = check_maass(t.identity_table(100, 3))
    assert ok and not any(v.is_zero() for v in alpha.values())
    assert set(fresh).isdisjoint(alpha)


def test_a_lift_table_reads_alpha_in_place_and_sums_only_imprimitive_classes(monkeypatch):
    # every content-1 point with alpha(det) != 0 holds alpha's own object;
    # tabulation takes one lincomb per (det, content) class with content > 1
    t = random_alpha_tuple(FieldParams(23, 8), TRIV, GAUSS, 400, seed=4)
    calls, real = [], maass.lincomb
    monkeypatch.setattr(maass, "lincomb", lambda *args: calls.append(1) or real(*args))
    table = t.identity_table(400, 3)
    imprimitive = sum(c > 1 for _, c in table.distinct)
    assert 0 < imprimitive < len(table.distinct) and len(calls) == imprimitive
    read = [(j, det) for j, i in enumerate(table.slot) for det, c in [table.distinct[i]] if c == 1 and det in t.alpha]
    assert read and all(table.vals[j] is t.alpha[det] for j, det in read)


def test_a_lift_is_frozen_and_each_replace_starts_a_memo_of_its_own():
    # MaassTuple.value memoises the lift's (det, content) values once per
    # lift.  Assigning a field would leave that memo stale, so the fields
    # are frozen; value is no field, so a replace reads its own data
    t = random_alpha_tuple(FieldParams(7, 8), TRIV, GAUSS, 400, seed=3)
    table = t.identity_table(400, 3)  # fills t's memo at every class of the shape
    assert "value" not in {f.name for f in fields(MaassTuple)}
    for name, v in (("alpha_max", 100), ("alpha", {}), ("zeta_exp", 1)):
        with pytest.raises(FrozenInstanceError):
            setattr(t, name, v)
    doubled = replace(t, alpha={n: v + v for n, v in t.alpha.items()})
    assert doubled.identity_table(400, 3).vals == [v + v for v in table.vals]
    assert t.identity_table(400, 3).vals == table.vals
    short, h = replace(t, alpha_max=100), point(7, 3, 3, 0, 0)  # det 63, content 3
    assert short.oracle()(h) == t.oracle()(h)
    for get in (short.oracle(), short.oracle()):  # t's memo holds det 252; short's refuses it, each time
        with pytest.raises(RangeError):
            get(point(7, 6, 6, 0, 0))
    for _ in range(2):  # U_p at 3 reads alpha to 81 det; the second application raises again
        with pytest.raises(RangeError):
            act_inert_Up(short, 3, 4, 1)
    assert act_inert_Up(replace(t, alpha_max=81 * 4), 3, 4, 1).vals == act_inert_Up(t, 3, 4, 1).vals


def test_one_lift_sums_each_imprimitive_key_once_across_its_operators(monkeypatch):
    # every inert operator applied to a lift reads its one memo: T0, T and
    # Up at both inert primes of D = 7, on a shallow and a deep shape, take
    # one maass-side lincomb per distinct imprimitive (det, content) key
    # they read, however many operators read it
    reads, sums = [], []
    real_values, real_lincomb = maass._lift_values, maass.lincomb
    spy = lambda value: lambda det, c: reads.append((det, c)) or value(det, c)
    monkeypatch.setattr(maass, "_lift_values", lambda *args: spy(real_values(*args)))
    monkeypatch.setattr(maass, "lincomb", lambda *args: sums.append(args) or real_lincomb(*args))
    n_max = 81 * 108
    t = random_alpha_tuple(FieldParams(7, 8), TRIV, GAUSS, n_max, seed=44, spread=5)
    for p in (3, 5):
        for bound_det, bound_diag in ((4 * 7, 2), (108, 6)):
            for act, reach in ((act_inert_T0, 2), (act_inert_T, 2), (act_inert_Up, 4)):
                act(t, p, min(bound_det, n_max // p ** reach), bound_diag)
    imprimitive = [key for key in reads if key[1] > 1]
    assert len(sums) == len(set(imprimitive)) < len(imprimitive)


def test_checking_tables_of_one_shape_derives_its_constraints_once(monkeypatch):
    # the dets no primitive point realises and the classes whose divisor
    # sum reads one are fields of the shape's _lattice record: derived once
    # with the shape, read by every check of a table of it.  A caller's
    # unconstrained set receives them and owns what it receives
    calls, real = [], hermitian._constraints
    monkeypatch.setattr(hermitian, "_constraints", lambda distinct: calls.append(distinct) or real(distinct))
    _lattice.cache_clear()
    D, bound_det, bound_diag = 7, *SHALLOW_FREE[7]
    a, b = (random_alpha_tuple(FieldParams(D, 8), TRIV, GAUSS, bound_det, seed=s).identity_table(bound_det, bound_diag)
            for s in (1, 2))
    pts = enumerate_points(D, bound_det, bound_diag)
    reference = {h.det_scaled() for h in pts} - {h.det_scaled() for h in pts if content(h) == 1}
    for table in (a, b, a):
        unconstrained = {-1}
        assert check_maass(table, unconstrained)[0] and unconstrained == reference | {-1}
        unconstrained.clear()
        unconstrained.add(1)
    assert len(calls) == 1 and a.shape is b.shape and reference and a.shape.skipped == reference
    with pytest.raises(AttributeError):
        a.shape.skipped.add(0)
