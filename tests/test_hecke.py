import pytest
from hypothesis import given, settings, strategies as st

from hermlift.elliptic import synthetic_newform
from hermlift.hecke import (
    HeckeOpId,
    LazyAction,
    RangeError,
    act_inert_T,
    act_inert_T0,
    act_inert_Up,
    act_split_on_lift,
    descend_op,
    eval_inert_raw,
    inert_action,
    maass_eigenvalue,
)
from hermlift.hermitian import enumerate_points, point
from hermlift.maass import MaassTuple, _lift_getter, a_K, build_lift, check_maass, descend, random_alpha_tuple
from hermlift.quadfield import (
    FieldParams,
    char_values,
    class_group,
    norm_ball,
    trivial_char,
)
from hermlift.ring import HeckeRing

ZZ = HeckeRing([0, 1])
GAUSS = HeckeRing([1, 0, 1])


def primitive_points(D, n_max):
    """A canonical primitive lattice point of each scaled determinant <= n_max."""
    pts = {}
    for n in range(1, n_max + 1):
        if a_K(D, n) == 0:
            continue
        for w in norm_ball(D, D * (n // D + 3)):
            if (w.norm() + n) % D == 0:
                pts[n] = point(D, 1, (n + w.norm()) // D, w.a, w.b)
                break
    return pts


def test_op_id_validation():
    with pytest.raises(ValueError):
        HeckeOpId.make("SplitT1", 3, 7)  # 3 inert at 7
    with pytest.raises(ValueError):
        HeckeOpId.make("InertT0", 2, 7)  # 2 split at 7
    with pytest.raises(ValueError):
        HeckeOpId.make("InertT0", 7, 7)  # ramified
    with pytest.raises(ValueError):
        HeckeOpId.make("InertT0", 13, 7, ell=13)
    with pytest.raises(ValueError):
        HeckeOpId.parse("Delta@2", 23)  # no operator kind without an action
    op = HeckeOpId.parse("T0@3", 7)
    assert op.kind == "InertT0" and op.p == 3
    assert str(op) == "T0@3"


def test_zero_table_maps_to_zero():
    params = FieldParams(7, 8)
    t = random_alpha_tuple(params, trivial_char(), ZZ, 300, seed=1, spread=0)
    assert t.is_zero()
    out = act_inert_T0(t, 3, 21, 1)
    assert not out.values


def test_invariance_T0_and_T_deep():
    # output tables include points of content divisible by p, so the
    # divisor sums are exercised at depth
    params = FieldParams(7, 8)
    t = random_alpha_tuple(params, trivial_char(), ZZ, 9 * 7 * 36 + 40, seed=4, spread=5)
    for act in (act_inert_T0, act_inert_T):
        out = act(t, 3, 7 * 36, 6)
        ok, _ = check_maass(out)
        assert ok


def test_invariance_Up():
    params = FieldParams(7, 8)
    t = random_alpha_tuple(params, trivial_char(), ZZ, 81 * 7 * 9 + 40, seed=5, spread=4)
    out = act_inert_Up(t, 3, 7 * 9, 3)
    ok, _ = check_maass(out)
    assert ok


def test_inert_range_error_names_deficit():
    params = FieldParams(7, 8)
    t = random_alpha_tuple(params, trivial_char(), ZZ, 50, seed=6)
    for past_range in (
        lambda: t.oracle()(point(7, 3, 3)),
        lambda: act_inert_T0(t, 3, 49, 2),
        lambda: act_inert_T(t, 3, 49, 2),
        lambda: act_inert_Up(t, 3, 49, 2),
        lambda: eval_inert_raw(t, "InertT0", 3, [point(7, 1, 1)]),
        lambda: inert_action(t, "InertT0", 3).getter(1, 1, 0, 0),
    ):
        with pytest.raises(RangeError, match="alpha valid to 50, needed at"):
            past_range()


def test_split_descent_diagram_T1_T2():
    # descend(T(lift)) = Desc(T)(descend(lift)) coefficientwise, exactly
    D, k, N = 23, 8, 120
    params = FieldParams(D, k)
    cg = class_group(D)
    chars = char_values(cg)
    f = synthetic_newform(params, GAUSS, "negate-x", p_max=N * 9 + 60, seed=21)
    for chi in chars:
        for p in (2, 3):  # both split at 23
            t = build_lift(f, chi, N * p * p)
            for kind in ("SplitT1", "SplitT2"):
                op = HeckeOpId.make(kind, p, D)
                dop = descend_op(op, k)
                reach = p if kind == "SplitT1" else p * p
                lhs = descend(act_split_on_lift(t, op), N * p * p // reach)
                rhs_q = dop.apply_to_qexp(descend(t, N * p * p)[0][1], k, D)
                shift = dop.zeta_exponent(chi, D)
                for b in range(cg.order):
                    exp_b, q_b = lhs[b]
                    assert exp_b == (chi.exponent(b) + shift) % max(chi.order, 1) or chi.order == 1
                    for n in range(1, min(q_b.n_max, rhs_q.n_max) + 1):
                        assert q_b.a(n) == rhs_q.a(n), (kind, p, n)


def test_inert_descent_diagram_raw_vs_closed():
    # the strongest cross-check: raw coset action evaluated pointwise
    # against the descended polynomial applied to the q-expansion
    D, k, N = 23, 8, 40
    params = FieldParams(D, k)
    f = synthetic_newform(params, GAUSS, "negate-x", p_max=N * 625 + 80, seed=31)
    chi = trivial_char(3)
    pts = primitive_points(D, N)
    for p in (5, 7):  # inert at 23
        t = build_lift(f, chi, N * p * p + 30)
        psi = descend(t, N * p * p)[0][1]
        for kind in ("InertT0", "InertT"):
            raw = eval_inert_raw(t, kind, p, list(pts.values()))
            rhs = descend_op(HeckeOpId.make(kind, p, D), k).apply_to_qexp(psi, k, D)
            for n, h in pts.items():
                assert raw[h] * a_K(D, n) == rhs.a(n), (kind, p, n)


def test_inert_Up_descent_diagram():
    D, k, N, p = 23, 8, 10, 5
    params = FieldParams(D, k)
    f = synthetic_newform(params, GAUSS, "negate-x", p_max=N * p ** 4 + 80, seed=32)
    t = build_lift(f, trivial_char(3), N * p ** 4 + 30)
    pts = primitive_points(D, N)
    raw = eval_inert_raw(t, "InertUp", p, list(pts.values()))
    psi = descend(t, N * p ** 4)[0][1]
    rhs = descend_op(HeckeOpId.make("InertUp", p, D), k).apply_to_qexp(psi, k, D)
    for n, h in pts.items():
        assert raw[h] * a_K(D, n) == rhs.a(n), n


def test_inert_output_denominators_bounded():
    # every coefficient of an inert operator output lies in p^(-2k) times
    # the input ring
    params = FieldParams(7, 8)
    t = random_alpha_tuple(params, trivial_char(), ZZ, 9 * 7 * 9 + 30, seed=43, spread=5)
    p, k = 3, 8
    for act in (act_inert_T0, act_inert_T):
        out = act(t, p, 7 * 9, 3)
        bound = p ** (2 * k)
        for v in out.values.values():
            assert bound % v.den == 0, v


def test_split_operators_commute():
    D, k = 23, 8
    params = FieldParams(D, k)
    chi = char_values(class_group(D))[1]
    t = random_alpha_tuple(params, chi, GAUSS, 23 * 36 * 16, seed=41)
    op1 = HeckeOpId.make("SplitT1", 2, D)
    op2 = HeckeOpId.make("SplitT2", 3, D)
    a = act_split_on_lift(act_split_on_lift(t, op1), op2)
    b = act_split_on_lift(act_split_on_lift(t, op2), op1)
    assert a.alpha_max == b.alpha_max and a.zeta_exp == b.zeta_exp
    for n in range(1, a.alpha_max + 1):
        assert a.alpha_at(n) == b.alpha_at(n), n


def test_inert_operators_commute():
    params = FieldParams(7, 8)
    t = random_alpha_tuple(params, trivial_char(), ZZ, 7 * 4 * 225 + 50, seed=42, spread=4)
    bd, bg = 7 * 4, 2
    a = act_inert_T(inert_action(t, "InertT0", 3), 5, bd, bg)
    b = act_inert_T0(inert_action(t, "InertT", 5), 3, bd, bg)
    assert a.values == b.values


INERT_PRIMES = {7: (3, 5), 11: (2, 7), 23: (5, 7)}  # the two smallest at each D


@settings(deadline=None)
@given(st.data())
def test_keyed_lift_kernel_matches_per_coset_reference(data):
    # a lift read by (det, content) against the same lift read one coset
    # image at a time through a lazy source, which takes the per-coset path
    D = data.draw(st.sampled_from(sorted(INERT_PRIMES)), "D")
    p = data.draw(st.sampled_from(INERT_PRIMES[D]), "p")
    kind = data.draw(st.sampled_from(("InertT0", "InertT", "InertUp")), "kind")
    ring = data.draw(st.sampled_from((ZZ, GAUSS)), "ring")
    k = data.draw(st.sampled_from((8, 12)), "k")
    reach = p ** (4 if kind == "InertUp" else 2)  # alpha read at reach * det
    budget = 6000
    # the zero point, det-0 points of content p and p^2, then drawn points of
    # positive det with their multiples by 2, p and p^2 while alpha stays
    # within the budget
    pts = [point(D, 0, 0), point(D, p, 0), point(D, 0, p * p)]
    pool = [h for h in enumerate_points(D, budget // reach, 2) if h.det_scaled() > 0]
    for _ in range(data.draw(st.integers(1, 3), "npoints") if pool else 0):
        h = data.draw(st.sampled_from(pool))
        for c in (1, 2, p, p * p):
            if reach * c * c * h.det_scaled() <= budget:
                pts.append(point(D, c * h.t1, c * h.t3, c * h.w.a, c * h.w.b))
    needed = reach * max(h.det_scaled() for h in pts)
    short = data.draw(st.integers(1, 3), "short") if needed and data.draw(st.booleans()) else 0
    t = random_alpha_tuple(FieldParams(D, k), trivial_char(), ring, needed - short, seed=data.draw(st.integers(0, 99)))
    ref = LazyAction(_lift_getter(t.params, t.ring, t.alpha, t.alpha_max), t.params, t.ring)
    if short:
        with pytest.raises(RangeError) as keyed_err:
            eval_inert_raw(t, kind, p, pts)
        with pytest.raises(RangeError) as ref_err:
            eval_inert_raw(ref, kind, p, pts)
        assert str(keyed_err.value) == str(ref_err.value)
    else:
        assert eval_inert_raw(t, kind, p, pts) == eval_inert_raw(ref, kind, p, pts)


def test_split_closed_forms_commute_with_raw_inert_T0():
    # T1@2 and T2@2 in closed form against the raw T0@3, alpha read back
    # through check_maass on both sides; every determinant up to bd has a
    # primitive point within diagonal bg at D = 7
    D, bd, bg, p_inert = 7, 42, 8, 3
    params = FieldParams(D, 8)
    t = random_alpha_tuple(params, trivial_char(), GAUSS, 4 * p_inert ** 2 * bd, seed=61, spread=4)

    def raw_T0_alpha(src):
        unconstrained = set()
        ok, alpha = check_maass(act_inert_T0(src, p_inert, bd, bg), unconstrained=unconstrained)
        assert ok and not unconstrained
        return alpha

    t0_alpha = raw_T0_alpha(t)
    t0 = MaassTuple(params, t.chi, GAUSS, t0_alpha, bd, source_label="T0@3")
    for kind in ("SplitT1", "SplitT2"):
        op = HeckeOpId.make(kind, 2, D)
        a = raw_T0_alpha(act_split_on_lift(t, op))
        b = act_split_on_lift(t0, op)
        assert b.alpha_max == bd // 2 ** op.reach
        assert any(not v.is_zero() for v in b.alpha.values())
        for n in range(1, b.alpha_max + 1):
            assert a.get(n, GAUSS.zero()) == b.alpha_at(n), (kind, n)


def test_eigenform_property_split():
    D, k = 23, 8
    params = FieldParams(D, k)
    cg = class_group(D)
    chi = char_values(cg)[1]
    f = synthetic_newform(params, GAUSS, "negate-x", p_max=23 * 64 + 60, seed=51)
    N = 23 * 16
    t = build_lift(f, chi, N * 4)
    op = HeckeOpId.make("SplitT1", 2, D)
    out = act_split_on_lift(t, op)
    lam, ze = maass_eigenvalue(f, chi, op)
    assert ze == (out.zeta_exp - t.zeta_exp) % chi.order
    for n in range(1, out.alpha_max + 1):
        assert out.alpha_at(n) == lam * t.alpha_at(n), n


def test_eigenvalue_examples():
    D, k = 7, 8
    params = FieldParams(D, k)
    f = synthetic_newform(params, GAUSS, "negate-x", p_max=60, seed=52)
    chi = trivial_char()
    from fractions import Fraction

    # split p = 2: p^(2-k/2)(p+1) a(p)
    lam, ze = maass_eigenvalue(f, chi, HeckeOpId.make("SplitT1", 2, D))
    assert lam == f.a(2) * Fraction(3, 4) and ze == 0
    # inert Up with a(p) = 0: constant term p^2 (p+1)^4
    f.ap[3] = GAUSS.zero()
    lam_up, _ = maass_eigenvalue(f, chi, HeckeOpId.make("InertUp", 3, D))
    assert lam_up == GAUSS.from_int(9 * 4 ** 4)
    # self-conjugate input is rejected
    from hermlift.elliptic import bundled_cm_form

    with pytest.raises(ValueError, match="self-conjugate"):
        maass_eigenvalue(bundled_cm_form(), chi, HeckeOpId.make("SplitT1", 2, 7))


def test_descended_op_consistency():
    # U_p descends to the square of T_p's image: forced by U_p = T_p o T_p
    for p, k in ((3, 8), (5, 8), (3, 12)):
        dT = dict(descend_op(HeckeOpId("InertT", p), k).tp_poly)
        dU = dict(descend_op(HeckeOpId("InertUp", p), k).tp_poly)
        # (c2 T^2 + c0)^2 = c2^2 T^4 + 2 c2 c0 T^2 + c0^2
        assert dU[4] == dT[2] ** 2
        assert dU[2] == 2 * dT[2] * dT[0]
        assert dU[0] == dT[0] ** 2
