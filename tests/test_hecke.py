import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from hermlift import hecke
from hermlift.cli import read_table, write_table
from hermlift.elliptic import QExpansion, _tp_rows, synthetic_newform
from hermlift.hecke import (
    HeckeOpId,
    act_inert_T,
    act_inert_T0,
    act_inert_Up,
    act_inert_on_lift,
    act_split_on_lift,
    descend_op,
    eval_inert_raw,
    maass_eigenvalue,
)
from hermlift.hermitian import HermPoint, enumerate_points, point
from hermlift.maass import (
    CoeffTable,
    MaassTuple,
    RangeError,
    _lift_getter,
    a_K,
    build_lift,
    check_maass,
    descend,
    random_alpha_tuple,
)
from hermlift.quadfield import (
    FieldParams,
    QuadInt,
    SplitType,
    char_values,
    chi_K,
    class_group,
    norm_ball,
    prime_class,
    split_type,
    trivial_char,
)
from hermlift.ring import HeckeElem, HeckeRing, lincomb

import percoset
from percoset import LazyAction, _coset_walk, conj, divide, omega_coef, transform, transform_integral

ZZ = HeckeRing([0, 1])
GAUSS = HeckeRing([1, 0, 1])


def eval_raw(src, kind, p, points):
    """eval_inert_raw on a lift, the per-coset reader on a table or lazy source."""
    return (eval_inert_raw if isinstance(src, MaassTuple) else percoset.eval_inert_raw)(src, kind, p, points)


def tabulate_raw(act, src, p, bound_det, bound_diag):
    """act on a lift, the per-coset reader of act's operator on a table or lazy source."""
    if isinstance(src, MaassTuple):
        return act(src, p, bound_det, bound_diag)
    return percoset.act(src, act.__name__.replace("act_inert_", "Inert"), p, bound_det, bound_diag)


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
        lambda: percoset.inert_action(t, "InertT0", 3).getter(7, 1, 1, 0, 0),
    ):
        with pytest.raises(RangeError, match="alpha valid to 50, needed at"):
            past_range()


def test_inert_sources_give_zero_at_singular_points():
    # D = 7, k = 8, random alpha of seed 3, at p = 3: the lift, its table and
    # a lazy source of it agree under T_{p,0} and T_p on shape (14, 1), which
    # holds no singular point, and the images pass check_maass.  At singular
    # points (the zero point, axis points and rank-1 points, content p
    # included), which no table holds, eval_inert_raw (the per-coset reader
    # on the table and the lazy source) and the per-coset reader's getter
    # give the ring's zero for T_{p,0}, T_p and U_p on all three sources
    params = FieldParams(7, 8)
    t = random_alpha_tuple(params, trivial_char(), ZZ, 126, seed=3)
    sources = (t, t.identity_table(126, 23), LazyAction(_lift_getter(t), params, ZZ))
    for act in (act_inert_T0, act_inert_T):
        lift, table, lazy = (tabulate_raw(act, src, 3, 14, 1) for src in sources)
        assert lift.vals == table.vals == lazy.vals and check_maass(lift)[0], act.__name__
        assert all(key[0] for key in lift.lattice) and any(not v.is_zero() for v in lift.vals)
    singular = [point(7, 0, 0), point(7, 1, 0), point(7, 0, 9), point(7, 1, 1, -1, 2), point(7, 1, 2, 3, 1),
                point(7, 3, 3, -3, 6)]
    assert {h.det_scaled() for h in singular} == {0}
    for kind in ("InertT0", "InertT", "InertUp"):
        for src in sources:
            assert all(v is ZZ.zero() for v in eval_raw(src, kind, 3, singular).values()), (kind, src)
            get = percoset.inert_action(src, kind, 3).getter
            assert all(get(*h.sort_key()) is ZZ.zero() for h in singular), (kind, src)


def test_a_point_of_another_field_is_refused():
    # sources over D = 7 hold no point of D = 23: eval_inert_raw on a lift,
    # a table and a lazy source, and the lift's oracle, refuse it with a
    # ValueError naming both discriminants, not a RangeError and not a value
    t = random_alpha_tuple(FieldParams(7, 8), trivial_char(), ZZ, 23 * 81, seed=1)
    h = point(23, 1, 1, 0, 0)
    sources = (t, t.identity_table(7 * 9, 3), LazyAction(_lift_getter(t), t.params, ZZ))
    calls = [lambda src=src: eval_raw(src, kind, 3, [h]) for src in sources for kind in ("InertT0", "InertT")]
    for call in calls + [lambda: t.oracle()(h)]:
        with pytest.raises(ValueError, match="discriminant 23, the source has discriminant 7") as err:
            call()
        assert not isinstance(err.value, RangeError)


class KeyIndex(dict):
    """Every lattice key is its own position."""

    def __missing__(self, key):
        return key


class KeyValues(dict):
    """The value at a lattice key, read from a getter when asked for."""

    def __init__(self, get):
        super().__init__()
        self.get_at = get

    def __missing__(self, key):
        return self.get_at(*key)


def per_key_table(get, params, ring):
    """A CoeffTable of a getter over every shape: the per-coset reader runs
    on it at shapes whose covering tables are too large to build (U_p at
    (27, 3), D = 7, p = 3 reads diag 91)."""
    table = CoeffTable(params, ring, 0, 0)
    table.bound_det = table.bound_diag = math.inf
    table.index, table.vals = KeyIndex(), KeyValues(get)
    return table


@pytest.mark.parametrize("D", [7, 23])
def test_inert_operators_read_no_singular_point(D, monkeypatch):
    # every coset image of a point of positive det has det p^2 det, det or
    # det / p^2, so with tables of positive det only, no inert operator reads
    # its source at det 0: not the lift's (det, content) values, not a
    # table's getter, not a lazy source (both read by the per-coset reader).
    # T_{p,0}, T_p and U_p at both inert p < 8 on a shallow shape (t1 = t3 =
    # 1), and at the smaller p on a deep one (diag p, det up to p^2 dmin,
    # dmin the least det at diag 1, so it holds content p; the larger p's
    # deep shape costs seconds per source)
    reads = []
    spy = lambda get: lambda det, *rest: reads.append(det) or get(det, *rest)
    for module, name in ((hecke, "_lift_values"), (percoset, "table_getter")):
        monkeypatch.setattr(module, name, lambda *args, real=getattr(module, name): spy(real(*args)))
    params = FieldParams(D, 8)
    dmin = D - max(w.norm() for w in norm_ball(D, D - 1))
    for p in INERT_PRIMES[D]:
        t = replace(random_alpha_tuple(params, trivial_char(), ZZ, 300, seed=p), alpha_max=p ** 6 * dmin)
        sources = (t, per_key_table(_lift_getter(t), params, ZZ), LazyAction(spy(_lift_getter(t)), params, ZZ))
        for shape in ((D, 1), (p * p * dmin, p))[:2 if p == INERT_PRIMES[D][0] else 1]:
            for act in (act_inert_T0, act_inert_T, act_inert_Up):
                outs = []
                for src in sources:
                    reads.clear()
                    outs.append(tabulate_raw(act, src, p, *shape))
                    assert reads and min(reads) > 0, (p, shape, act.__name__, type(src).__name__)
                assert outs[0].vals == outs[1].vals == outs[2].vals, (p, shape, act.__name__)


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


def apply_Tp(q: QExpansion, p: int, k: int, D: int) -> QExpansion:
    """Classical Hecke action a'(n) = a(np) + chi(p) p^(k-2) a(n/p), valid to n_max/p."""
    if q.n_max < p:
        raise ValueError("insufficient coefficient range for T_p")
    n_out, get, zero = q.n_max // p, q.coeffs.get, q.ring.zero()
    coeffs = {n: get(n * p, zero) for n in range(1, n_out + 1)}
    scal = chi_K(D, p) * p ** (k - 2)
    if scal:  # the second term, at the multiples n of p with a(n/p) stored
        for n in range(p, n_out + 1, p):
            if (v := get(n // p)) is not None:
                coeffs[n] = lincomb(q.ring, [(1, coeffs[n]), (scal, v)])
    return QExpansion(q.ring, n_out, coeffs)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([("SplitT1", 2), ("SplitT2", 3), ("InertT0", 5), ("InertT", 7), ("InertUp", 5)]),
    st.sampled_from([4, 8]),
    st.integers(1, 4),
    st.integers(0, 2**32),
)
def test_apply_to_qexp_matches_the_per_index_formula(op, k, mult, seed):
    # sum over the terms c T_p^d of c a_d(n), a_d read with bounds checks,
    # on q-expansions with missing coefficients, stored zeros and fractions
    D, ring, rng = 23, GAUSS, random.Random(seed)
    dop = descend_op(HeckeOpId(*op), k)
    max_deg = max(d for d, _ in dop.tp_poly)
    q = QExpansion(ring, op[1] ** max_deg * mult + rng.randrange(op[1]))
    for n in range(1, q.n_max + 1):
        kind = rng.randrange(4)
        if kind == 1:
            q.coeffs[n] = ring.zero()
        elif kind > 1:
            q.coeffs[n] = HeckeElem(ring, (rng.randrange(-9, 10), rng.randrange(-9, 10)), rng.choice([1, 2, 3]))
    powers = [q]
    for _ in range(max_deg):
        powers.append(apply_Tp(powers[-1], op[1], k, D))
    expected = {}
    for n in range(1, q.n_max // op[1] ** max_deg + 1):
        acc = ring.zero()
        for deg, c in dop.tp_poly:
            acc = acc + ring.element([c]) * powers[deg].a(n)
        if not acc.is_zero():
            expected[n] = acc
    out = dop.apply_to_qexp(q, k, D)
    assert out.n_max == q.n_max // op[1] ** max_deg and out.coeffs == expected


def test_tp_rows_match_the_ballot_closed_form():
    # T_p^d = sum_i (C(d, i) - C(d, i-1)) eps^i T_{p^(d-2i)} and
    # T_{p^r} a(n) = sum_{j <= min(r, v)} eps^j a(n p^(r-2j)), v = v_p(n):
    # every row of every descended polynomial, eps positive (split),
    # negative (inert) and 0 (ramified)
    rows_checked = 0
    for kind, p, k in itertools.product(hecke._KINDS, (2, 3, 5, 7), (4, 8, 12)):
        poly = descend_op(HeckeOpId(kind, p), k).tp_poly
        for eps in (p ** (k - 2), -p ** (k - 2), 0):
            rows, den = _tp_rows(p, eps, poly)
            assert len(rows) == max(d for d, _ in poly) + 1
            for v, row in enumerate(rows):
                want = {}
                for d, c in poly:
                    for i in range(d // 2 + 1):
                        ballot = math.comb(d, i) - (math.comb(d, i - 1) if i else 0)
                        for j in range(min(d - 2 * i, v) + 1):
                            e = d - 2 * i - 2 * j
                            want[e] = want.get(e, 0) + c * ballot * eps ** (i + j)
                got = {Fraction(mul, div): Fraction(c, den) for mul, div, c in row}
                assert got == {Fraction(p) ** e: c for e, c in want.items() if c}, (kind, p, k, eps, v)
                rows_checked += 1
    assert rows_checked == 576


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
    a = percoset.act(percoset.inert_action(t, "InertT0", 3), "InertT", 5, bd, bg)
    b = percoset.act(percoset.inert_action(t, "InertT", 5), "InertT0", 3, bd, bg)
    assert a.values == b.values
    # the library composes at the alpha level, the image of a lift being a lift
    c = act_inert_T(act_inert_on_lift(t, HeckeOpId.make("InertT0", 3, 7)), 5, bd, bg)
    assert c.values == a.values and c.values


ALPHA_LEVEL_CASES = [  # (D, operator, source, alpha_max of the image)
    (23, "T0@5", "newform", 92), (23, "T@5", "newform", 92), (7, "Up@3", "newform", 42), (7, "T0@3", "newform", 84),
    (7, "T@3", "random", 84), (11, "T0@2", "random", 88), (11, "T@2", "random", 88), (11, "Up@2", "random", 66),
    (23, "Up@5", "random", 46), (31, "T0@3", "random", 124), (31, "T@3", "random", 124), (31, "Up@3", "random", 62),
]


def covering_diag(D, n_max):
    """The least diagonal bound at which every det n <= n_max with a_K(D, n) != 0
    has a primitive point (1, t3, w)."""
    return max([1] + [min((n + w.norm()) // D for w in norm_ball(D, D * (n // D + D)) if (w.norm() + n) % D == 0)
                      for n in range(1, n_max + 1) if a_K(D, n)])


@pytest.mark.parametrize("D, name, source, n_out", ALPHA_LEVEL_CASES)
def test_alpha_level_image_matches_the_extraction_from_the_raw_image(D, name, source, n_out):
    # the image of a lift is a lift: act_inert_on_lift's alpha' equals the
    # alpha check_maass extracts from the raw image tabulated on a shape
    # whose primitive points realise every det up to alpha', and alpha' is
    # nonzero at no other index; lifts of newforms and random lifts (over Z
    # and Z[i]), with a character of order 3 where h = 3
    op, params = HeckeOpId.parse(name, D), FieldParams(D, 8)
    chars = char_values(class_group(D))
    chi = chars[1] if len(chars) > 1 else trivial_char()
    n_max = n_out * op.p ** op.reach + op.p - 1
    if source == "newform":
        t = build_lift(synthetic_newform(params, GAUSS, "negate-x", p_max=n_max + 60, seed=D + op.p), chi, n_max)
    else:
        t = random_alpha_tuple(params, chi, GAUSS if D > 11 else ZZ, n_max, seed=D + op.p, spread=4)
    image = act_inert_on_lift(t, op)
    assert image.alpha_max == t.alpha_max // op.p ** op.reach == n_out
    assert (image.chi, image.zeta_exp, image.params, image.ring) == (t.chi, t.zeta_exp, t.params, t.ring)
    act = {"InertT0": act_inert_T0, "InertT": act_inert_T, "InertUp": act_inert_Up}[op.kind]
    table = act(t, op.p, n_out, covering_diag(D, n_out))
    unconstrained = set()
    ok, alpha = check_maass(table, unconstrained=unconstrained)
    realised = {det for det, c in table.distinct if c == 1}
    assert ok and not unconstrained and realised == {n for n in range(1, n_out + 1) if a_K(D, n)}
    assert alpha == image.alpha and set(image.alpha) <= realised and len(image.alpha) > n_out // 4


def test_inert_operators_refuse_a_table():
    t = random_alpha_tuple(FieldParams(7, 8), trivial_char(), ZZ, 7 * 9, seed=1)
    table = t.identity_table(7 * 9, 3)
    for call in (lambda: act_inert_T0(table, 3, 7, 1), lambda: eval_inert_raw(table, "InertT0", 3, [point(7, 1, 1)]),
                 lambda: act_inert_on_lift(table, HeckeOpId.make("InertT0", 3, 7))):
        with pytest.raises(TypeError, match="act on a MaassTuple"):
            call()


INERT_PRIMES = {7: (3, 5), 11: (2, 7), 23: (5, 7)}  # the two smallest at each D


@settings(deadline=None)
@given(st.data())
def test_keyed_lift_kernel_matches_per_coset_reference(data):
    # a lift read by (det, content) against the same lift read one coset
    # image at a time through a lazy source by the per-coset reader
    D = data.draw(st.sampled_from(sorted(INERT_PRIMES)), "D")
    p = data.draw(st.sampled_from(INERT_PRIMES[D]), "p")
    kind = data.draw(st.sampled_from(("InertT0", "InertT", "InertUp")), "kind")
    ring = data.draw(st.sampled_from((ZZ, GAUSS)), "ring")
    k = data.draw(st.sampled_from((8, 12)), "k")
    reach = p ** (4 if kind == "InertUp" else 2)  # alpha read at reach * det
    budget = 6000
    # the zero point, det-0 points of content p and p^2, a point with p not
    # dividing det (the lemma's closed-form dict; of det up to 7 where the
    # budget leaves none, as at D = 23, p = 7 under U_p), then drawn points
    # of positive det with their multiples by 2, p, 2p, p^2 and p^3 while
    # alpha stays within the budget; one drawn point has rank 1 mod p (p | det,
    # h nonzero mod p), where a single point of P^1 is isotropic
    coprime = [h for h in enumerate_points(D, max(budget // reach, 7), 2) if h.det_scaled() % p]
    lemma_point = data.draw(st.sampled_from(coprime), "coprime")
    pts = [point(D, 0, 0), point(D, p, 0), point(D, 0, p * p), lemma_point]
    pool = [h for h in enumerate_points(D, budget // reach, 2) if h.det_scaled() > 0]
    rank1 = [h for h in pool if h.det_scaled() % p == 0 and any(c % p for c in h.coords())]
    drawn = [data.draw(st.sampled_from(pool)) for _ in range(data.draw(st.integers(1, 3), "npoints"))] if pool else []
    drawn += [data.draw(st.sampled_from(rank1), "rank1")] if rank1 else []
    for h in drawn:
        for c in (1, 2, p, 2 * p, p * p, p ** 3):
            if reach * c * c * h.det_scaled() <= budget:
                pts.append(point(D, c * h.t1, c * h.t3, c * h.w.a, c * h.w.b))
    needed = reach * max(h.det_scaled() for h in pts)
    short = data.draw(st.integers(1, 3), "short") if needed and data.draw(st.booleans()) else 0
    t = random_alpha_tuple(FieldParams(D, k), trivial_char(), ring, needed - short, seed=data.draw(st.integers(0, 99)))
    ref = LazyAction(_lift_getter(t), t.params, t.ring)
    if short:
        with pytest.raises(RangeError) as keyed_err:
            eval_inert_raw(t, kind, p, pts)
        with pytest.raises(RangeError) as ref_err:
            percoset.eval_inert_raw(ref, kind, p, pts)
        assert str(keyed_err.value) == str(ref_err.value)
    else:
        assert eval_inert_raw(t, kind, p, pts) == percoset.eval_inert_raw(ref, kind, p, pts)
    # alpha one short of the deepest read at the point with p not dividing det
    t = replace(t, alpha_max=min(t.alpha_max, reach * lemma_point.det_scaled() - 1))
    ref = LazyAction(_lift_getter(t), t.params, t.ring)
    with pytest.raises(RangeError) as keyed_err:
        eval_inert_raw(t, kind, p, [lemma_point])
    with pytest.raises(RangeError) as ref_err:
        percoset.eval_inert_raw(ref, kind, p, [lemma_point])
    assert str(keyed_err.value) == str(ref_err.value)


@pytest.mark.parametrize("D, p", [(7, 3), (7, 5), (7, 7), (23, 3), (23, 5), (23, 7), (11, 2)])
def test_isotropic_residues_match_full_scan(D, p):
    # for every h mod p: T_p's middle images are exactly the translates
    # alpha_a* h alpha_a with t3 divisible by p, divided by p, at the
    # residues a = x + y omega in scan order (then diag(1, p) when p | t1),
    # with t3 and w from QuadInt arithmetic (and t3 from transform_integral
    # at one class).  At an inert p the isotropic points of P^1 (the
    # residues, and diag(1, p) when p | t1) number p^2 + 1 at h = 0 mod p,
    # one when p | det, and p + 1 otherwise.  The per-coset T_{p,0} walk
    # lists all p^2 + 1 alpha-translates, and the row of h, which lumps them
    # by (det, content), still adds up to p^(4-k) (p^2 + 1) over the
    # denominator p^k at det p^2 det(h)
    params = FieldParams(D, 8)
    full, _ = _coset_walk("InertT0", params, p)
    t, _ = _coset_walk("InertT", params, p)
    row, _ = hecke._rows("InertT0", p, params.k)
    residues = [QuadInt(x, y, D) for x in range(p) for y in range(p)]
    root = QuadInt(-1, 2, D)  # sqrt(-D)
    t3_pad = p * p * (params.norm_c + 2)  # keeps every representative positive
    for r1, r3, ra, rb in itertools.product(range(p), repeat=4):
        h = point(D, r1 + p, r3 + t3_pad, ra, rb)
        # t3 of alpha_a* h alpha_a, the (2, 2) entry: t1 N(a) + t3 + 2 Re(conj(a) w / sqrt(-D));
        # its w is p (w + sqrt(-D) a t1)
        t3s = [h.t1 * a.norm() + h.t3 + omega_coef(h.w * conj(a)) for a in residues]
        scan = [(a.a, a.b) for a, t3 in zip(residues, t3s) if t3 % p == 0]
        mid = [(p * h.t1, t3 // p, w.a, w.b) for a, t3 in zip(residues, t3s) if t3 % p == 0
               for w in [h.w + root * a * h.t1]]
        mid += [(h.t1 // p, p * h.t3, h.w.a, h.w.b)] if r1 == 0 else []
        assert t(*h.sort_key())[0][2] == mid
        if r1 == r3 == ra == rb == p - 1:  # the formula against the transform, at one class
            alpha = [((QuadInt(p, 0, D), a), (QuadInt(0, 0, D), QuadInt(1, 0, D))) for a in residues]
            assert [(a.a, a.b) for a, g in zip(residues, alpha) if transform_integral(h, g).t3 % p == 0] == scan
        det = h.det_scaled()
        if split_type(D, p) is SplitType.INERT:
            lines = len(scan) + (r1 == 0)
            assert lines == (p * p + 1 if (r1, r3, ra, rb) == (0, 0, 0, 0) else 1 if det % p == 0 else p + 1)
        assert len(full(*h.sort_key())[0][2]) == p * p + 1
        assert sum(m for (e, _), m in row(det, math.gcd(*h.coords())) if e == 2) == p ** 4 * (p * p + 1)


@pytest.mark.parametrize("D, p", [(7, 3), (7, 5), (11, 2), (11, 7), (23, 5), (23, 7)])
def test_images_at_points_prime_to_p_have_the_lemma_contents(D, p):
    # the lemma behind row (0, 0), image by image on the per-coset walk
    # alone: at p not dividing det(h), with c = content(h), exactly p + 1
    # points of P^1 are isotropic (p | u3, or p | t1 for
    # diag(1, p)); T_{p,0}'s alpha-translates there have content p c and c
    # elsewhere, T_p's mid images (those translates over p) have c and p h has
    # p c, and no beta-translate and no h/p is integral
    params = FieldParams(D, 8)
    t0, _ = _coset_walk("InertT0", params, p)
    t, _ = _coset_walk("InertT", params, p)
    pts = [h for h in enumerate_points(D, 6 * D, 3) if h.det_scaled() % p]
    for h in pts:
        key, c = h.sort_key(), math.gcd(*h.coords())
        (_, _, up), (_, _, beta), _ = t0(*key)
        iso = [image[1] % p == 0 for image in up[:-1]] + [h.t1 % p == 0]
        assert sum(iso) == p + 1, h
        assert [math.gcd(*image) for image in up] == [p * c if i else c for i in iso], h
        (_, _, mid), (_, _, up_T), (_, _, down) = t(*key)
        assert mid == [tuple(x // p for x in image) for image, i in zip(up, iso) if i], h
        assert {math.gcd(*image) for image in mid} == {c} and [math.gcd(*image) for image in up_T] == [p * c], h
        assert beta == down == [], h
    assert len(pts) >= 10


ROW_CASES = {7: (3, 5), 11: (2, 7), 23: (5, 7), 43: (2, 3, 5, 7)}  # the inert p < 8 at each D


def walked_row(slots, p, h):
    """The (det, content) -> multiplier dict of the coset walk at h, relative
    to h's (det, c): each key (e, j) with p^e = det' / det and p^j = c' / c,
    or the ratio itself where it is no power of p."""
    det, c = h.det_scaled(), math.gcd(*h.coords())
    powers = {Fraction(p) ** e: e for e in range(-4, 5)}
    rel = lambda x, y: powers.get(Fraction(x, y), Fraction(x, y))
    row = {}
    for s, d, images in slots(*h.sort_key()):
        for image in images:
            key = (rel(d, det), rel(math.gcd(*image), c))
            row[key] = row.get(key, 0) + s
    return row


def row_type(p, h):
    """(min(v_p(det) - 2 v_p(c), 2), min(v_p(c), 2)): the type of h under T_{p,0}."""
    v = lambda n: next(e for e in itertools.count() if n % p ** (e + 1))
    det, c = h.det_scaled(), math.gcd(*h.coords())
    return min(v(det) - 2 * v(c), 2), min(v(c), 2)


@pytest.mark.parametrize("D", sorted(ROW_CASES))
def test_rows_match_the_coset_walk_at_every_point(D):
    # the rows' claim, tested and not assumed: at every point of a shape,
    # at a point (1, t3, 1) with v_p(det) = a for a = 1, 2, 3, and at the
    # multiples of all of these by p and p^2 (and p^3 at p = 2), so that
    # v_p(c) reaches 2 (3 at p = 2), past each row cap, the coset walk's
    # relative dict is the one _rows holds for the point's (det, content).
    # Every type is reached, and k = 2, 4 and 12 are tested as well as 8 at
    # the first p, since scalars carry p^k: at k < 4 p^4 exceeds p^k, so a
    # mis-scaled p^4 or p^(2k) term shows
    shape = enumerate_points(D, 2 * D, 2)
    for p in ROW_CASES[D]:
        # det = D t3 - 1 with p^a | det and p^(a + 1) not
        t3s = [next(t for t in itertools.count(1) if (D * t - 1) % p ** a == 0 < (D * t - 1) % p ** (a + 1))
               for a in (1, 2, 3)]
        deep = [point(D, 1, t3, 1) for t3 in t3s]
        pts = [point(D, *(p ** b * x for x in h.coords())) for h in shape + deep for b in range(4 if p == 2 else 3)]
        types = {(a, b) for a in (0, 1, 2) for b in (0, 1, 2)}
        assert {row_type(p, h) for h in pts} == types
        assert max(math.gcd(*h.coords()) for h in pts) % p ** (3 if p == 2 else 2) == 0
        for k in (2, 4, 8, 12) if p == ROW_CASES[D][0] else (8,):
            params = FieldParams(D, k)
            for kind in ("InertT0", "InertT"):
                slots, _ = _coset_walk(kind, params, p)
                row, _ = hecke._rows(kind, p, k)
                for h in pts:
                    assert walked_row(slots, p, h) == dict(row(h.det_scaled(), math.gcd(*h.coords()))), (kind, p, k, h)


@pytest.mark.parametrize("D", sorted(ROW_CASES))
def test_coset_walk_matches_the_matrix_transforms(D):
    # the walk against the matrix transforms, image by image in slot
    # order, at every point of a small shape and at p times the points of
    # diag 1 in it (whose images include beta-translates):
    # T_{p,0}'s alpha-translates are g* h g for g = [[p, a], [0, 1]] at the
    # residues a, x-major, then y, and g = diag(1, p); its beta-translates
    # are those g* h g / p^2 that are lattice points, and T_p's middle images
    # those g* h g / p that are.  Each image has its slot's det
    zero, one = QuadInt(0, 0, D), QuadInt(1, 0, D)
    params, shape = FieldParams(D, 8), enumerate_points(D, 6, 2)
    for p in ROW_CASES[D]:
        gs = [((QuadInt(p, 0, D), QuadInt(x, y, D)), (zero, one)) for x in range(p) for y in range(p)]
        gs.append(((one, zero), (zero, QuadInt(p, 0, D))))
        t0, _ = _coset_walk("InertT0", params, p)
        t, _ = _coset_walk("InertT", params, p)
        betas = 0
        for h in shape + [point(D, *(p * x for x in h.coords())) for h in shape if h.t1 == h.t3 == 1]:
            (_, up_det, up), (_, beta_det, beta), _ = t0(*h.sort_key())
            (_, mid_det, mid), _, _ = t(*h.sort_key())
            alpha = [transform_integral(h, g) for g in gs]
            betas_at = [b for g in gs if (b := transform(h, g, p)) is not None]
            mids = [m for a in alpha if (m := divide(a, p)) is not None]
            for det, images, want in ((up_det, up, alpha), (beta_det, beta, betas_at), (mid_det, mid, mids)):
                assert images == [x.coords() for x in want] and {x.det_scaled() for x in want} <= {det}, (p, h)
            betas += len(beta)
        assert betas > 0


def test_rows_are_derived_once_per_operator_prime_and_weight():
    # a process derives each (kind, p, k) row table once, T_{p,0}'s, T_p's
    # and U_p's (composed from T_p's): applications after the first read the
    # cached rows, whatever the lift, the shape or the field
    params = FieldParams(43, 8)
    lifts = [random_alpha_tuple(params, trivial_char(), ring, 81 * 86, seed=s) for ring, s in ((ZZ, 1), (GAUSS, 2))]
    misses = hecke._rows.cache_info().misses
    for act, shape in ((act_inert_T0, (43 * 8, 2)), (act_inert_T, (43 * 8, 2)), (act_inert_Up, (43 * 2, 1))):
        act(lifts[0], 3, *shape)
    assert hecke._rows.cache_info().misses <= misses + 3
    misses = hecke._rows.cache_info().misses
    for t in lifts:
        for act, shape in ((act_inert_T0, (43 * 4, 3)), (act_inert_T, (43 * 8, 1)), (act_inert_Up, (43 * 2, 2))):
            act(t, 3, *shape)
    assert hecke._rows.cache_info().misses == misses
    # p = 5 is inert at D = 7 and at D = 23: the second field reads the first's rows
    for D in (7, 23):
        t = random_alpha_tuple(FieldParams(D, 8), trivial_char(), ZZ, 25 * 4 * D, seed=D)
        act_inert_T0(t, 5, 4 * D, 1)
        act_inert_T(t, 5, 4 * D, 1)
        if D == 7:
            misses = hecke._rows.cache_info().misses
    assert hecke._rows.cache_info().misses == misses


@pytest.mark.parametrize("D, p", [(7, 3), (11, 2), (23, 5)])
def test_keyed_reader_takes_one_gcd_per_point_and_one_sum_per_det_and_content(D, p, monkeypatch):
    # at every point, p | det included: content(h) is the point's one gcd,
    # and each distinct (det, content) one lincomb in an application,
    # U_p's too: its rows are T_p's composed with themselves.
    # Tabulated, the shape's shared (det, content) keys stand in for the gcd,
    # and a vanishing sum is the ring's shared zero
    gcds, sums = [], []
    real = hecke.lincomb
    monkeypatch.setattr(hecke, "gcd", lambda *args: gcds.append(args) or math.gcd(*args))
    monkeypatch.setattr(hecke, "lincomb", lambda *args: sums.append(args) or real(*args))
    pts = enumerate_points(D, 12 * D, 2 * p)
    keys = {(h.det_scaled(), math.gcd(*h.coords())) for h in pts}
    assert any(d % p == 0 and c % p == 0 for d, c in keys)
    t = random_alpha_tuple(FieldParams(D, 8), trivial_char(), GAUSS, p ** 4 * 12 * D, seed=D)
    blank = replace(t, alpha={})  # every sum vanishes
    acts, zero = {"InertT0": act_inert_T0, "InertT": act_inert_T, "InertUp": act_inert_Up}, GAUSS.zero()
    for kind in ("InertT0", "InertT", "InertUp"):
        gcds.clear()
        sums.clear()
        eval_inert_raw(t, kind, p, pts)
        assert len(gcds) == len(pts), kind
        assert len(sums) == len(keys) < len(pts) // 2, kind
        for src in (t, blank):
            gcds.clear()
            sums.clear()
            vals = acts[kind](src, p, 12 * D, 2 * p).vals
            assert gcds == [] and len(sums) == len(keys), kind
            assert all(v is zero for v in vals if src is blank or v.is_zero()), kind


@pytest.mark.parametrize("kind", ["InertT0", "InertT", "InertUp"])
def test_tabulation_and_check_take_one_evaluation_and_one_comparison_per_class(kind, monkeypatch, tmp_path):
    # at (7, 108, 6), 5617 points in 87 (det, content) classes: _tabulate
    # reads its evaluator once per class and check_maass compares once per
    # class, on the table and on the table written and read back from a file
    from hermlift import maass

    t = random_alpha_tuple(FieldParams(7, 8), trivial_char(), GAUSS, 81 * 108, seed=35, spread=5)
    at, params, ring = hecke._op_getter(t, kind, 3)
    calls = []
    table = maass._tabulate(lambda *key: calls.append(key) or at(*key), params, ring, 108, 6)
    keys = [(h.det_scaled(), math.gcd(*h.coords())) for h in enumerate_points(7, 108, 6)]
    assert calls == list(dict.fromkeys(keys)) and len(calls) == len(table.distinct) < len(keys) // 50
    assert table.vals == [at(*key) for key in keys]
    write_table(str(tmp_path / "image.tbl"), table, trivial_char(), 0)
    read, _, _ = read_table(str(tmp_path / "image.tbl"))
    eqs, real = [], HeckeElem.__eq__
    monkeypatch.setattr(HeckeElem, "__eq__", lambda a, b: eqs.append(b) or real(a, b))
    assert check_maass(table)[0] and 0 < len(eqs) <= len(table.distinct)
    eqs.clear()
    assert check_maass(read)[0] and 0 < len(eqs) <= len(read.distinct)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_composed_up_rows_match_the_keyed_T_at_p_twice(p):
    # U_p's rows are T_p's composed once per (p, k): on random (det,
    # content)-keyed data its one keyed sum equals the keyed T_p of the
    # keyed T_p, at every local type (min(v_p(det) - 2 v_p(c), 4),
    # min(v_p(c), 2)) and past both caps, and it reads the data in the
    # order the two nested sums first read them.  Every merged scalar is
    # positive, so no read of the nested sums is lost to a cancellation
    rng = random.Random(p)
    data = {}

    def keyed(reads):
        def value(det, c):
            assert det % (c * c) == 0 and det > 0, (det, c)
            reads.append((det, c))
            if (det, c) not in data:
                data[det, c] = GAUSS.element([rng.randint(-9, 9), rng.randint(-9, 9)], rng.choice((1, 1, 2, 3)))
            return data[det, c]
        return value

    unit = next(u for u in (2, 3, 5) if u % p)
    for k in (4, 8, 12):
        tp, up = hecke._rows("InertT", p, k), hecke._rows("InertUp", p, k)
        assert up[1] == tp[1] ** 2 == p ** (2 * k)
        types = set()
        for a in range(7):
            for b in range(4):
                c = p ** b * unit
                det = c * c * p ** a * (unit + p)
                nested, composed = [], []
                twice = hecke._keyed(hecke._keyed(keyed(nested), GAUSS, p, *tp), GAUSS, p, *tp)(det, c)
                once = hecke._keyed(keyed(composed), GAUSS, p, *up)(det, c)
                assert once == twice and composed == list(dict.fromkeys(nested)), (k, a, b)
                row = up[0](det, c)
                assert all(s > 0 for _, s in row) and len(row) == len(composed), (k, a, b)
                types.add((min(a, 4), min(b, 2)))
        assert len(types) == 15


@pytest.mark.parametrize("D, p, shape, classes", [(7, 3, (108, 6), 87), (23, 5, (180, 6), 130)])
def test_up_takes_one_sum_per_det_and_content_class(D, p, shape, classes, monkeypatch):
    # U_p on a lift, tabulated on a deep shape, takes exactly one
    # hecke-side lincomb per (det, content) class of the shape
    sums, real = [], hecke.lincomb
    monkeypatch.setattr(hecke, "lincomb", lambda *args: sums.append(args) or real(*args))
    t = random_alpha_tuple(FieldParams(D, 8), trivial_char(), GAUSS, p ** 4 * shape[0], seed=D)
    table = act_inert_Up(t, p, *shape)
    assert len(sums) == len(table.distinct) == classes


def lumped_case_points(D, p):
    """h = p h' with h' generic (p does not divide det h'), of rank 1 mod p
    (p | det h', h' nonzero mod p) and zero mod p, each of least positive
    det: (name, h)."""
    pool = sorted((h for h in enumerate_points(D, 8 * D, 2) if h.det_scaled() > 0), key=HermPoint.sort_key)
    generic = next(h for h in pool if h.det_scaled() % p)
    rank1 = next(h for h in pool if h.det_scaled() % p == 0 and any(c % p for c in h.coords()))
    times = lambda c, h: point(D, c * h.t1, c * h.t3, c * h.w.a, c * h.w.b)
    return [(name, times(p, h)) for name, h in (("generic", generic), ("rank 1", rank1), ("zero", times(p, generic)))]


@pytest.mark.parametrize("D, p", [(7, 3), (23, 5), (11, 2)])
def test_lumped_translates_match_the_per_coset_reference(D, p):
    # at h = p h' the rows lump the translates by (det, content); the
    # per-coset reader reads all p^2 + 1 of them.  With alpha one index
    # short of the deepest read, both raise the same error
    reach = {"InertT0": p ** 2, "InertT": p ** 2, "InertUp": p ** 4}  # alpha read at reach * det
    cases = [(kind, name, h) for name, h in lumped_case_points(D, p) for kind in reach]
    cases = [case for case in cases if reach[case[0]] * case[2].det_scaled() <= 120000]
    assert {name for kind, name, _ in cases if kind == "InertUp"} >= {"generic", "rank 1"}
    n_max = max(reach[kind] * h.det_scaled() for kind, _, h in cases)
    for ring in (ZZ, GAUSS):
        full = random_alpha_tuple(FieldParams(D, 8), trivial_char(), ring, n_max, seed=D + p)
        for kind, name, h in cases:
            needed = reach[kind] * h.det_scaled()
            for t in (replace(full, alpha_max=needed), replace(full, alpha_max=needed - 1)):
                ref = LazyAction(_lift_getter(t), t.params, t.ring)
                if t.alpha_max < needed:
                    with pytest.raises(RangeError) as keyed_err:
                        eval_inert_raw(t, kind, p, [h])
                    with pytest.raises(RangeError) as ref_err:
                        percoset.eval_inert_raw(ref, kind, p, [h])
                    assert str(keyed_err.value) == str(ref_err.value), (kind, name)
                else:
                    value = eval_inert_raw(t, kind, p, [h])[h]
                    assert not value.is_zero() and value == percoset.eval_inert_raw(ref, kind, p, [h])[h], (kind, name)


@pytest.mark.parametrize("p", [3, 5])
def test_keyed_T_at_p_times_a_generic_point_takes_few_gcds(p, monkeypatch):
    # h = p h' with p not dividing det h': p + 1 points of P^1 are isotropic
    # for h', and the keyed T_p on a lift, reading h by its row, takes one
    # gcd, content(h), and none per coset image
    D = 7
    calls = []
    monkeypatch.setattr(hecke, "gcd", lambda *args: calls.append(args) or math.gcd(*args))
    pts = [h for h in enumerate_points(D, 4 * D, 2) if h.det_scaled() % p]
    t = random_alpha_tuple(FieldParams(D, 8), trivial_char(), ZZ, p ** 4 * 4 * D, seed=p)
    for h in pts:
        calls.clear()
        eval_inert_raw(t, "InertT", p, [point(D, p * h.t1, p * h.t3, p * h.w.a, p * h.w.b)])
        assert len(calls) == 1, h
    assert len(pts) >= 4


def per_coset_reference(get, kind, p, params, ring):
    """The per-coset reader written out: one lincomb per point."""
    slots, den = _coset_walk(kind, params, p)
    return cache(lambda *key: lincomb(ring, [(s, get(det, *im)) for s, det, ims in slots(*key) for im in ims], den))


@pytest.mark.parametrize("source", ["lift", "random"])
def test_inert_tables_match_the_reader_without_memos(source):
    # the rows on a lift, and the tests' per-coset reader on a lazy table
    # that is no lift (read as a CoeffTable is), leave every table as one lincomb per
    # point over the coset walk gives it; the lazy table's values are taken
    # from a small pool by a mix of the coordinates
    D, p, params = 7, 3, FieldParams(7, 8)
    if source == "lift":
        src = random_alpha_tuple(params, trivial_char(), GAUSS, 81 * 28, seed=5, spread=4)
        get = _lift_getter(src)
    else:
        pool = [HeckeElem(GAUSS, (a, b), d) for a in (-1, 0, 2) for b in (0, 1) for d in (1, 3)]
        get = lambda det, t1, t3, wa, wb: pool[(det + 3 * t1 + 5 * t3 + 7 * wa + 11 * wb) % len(pool)]
        src = LazyAction(get, params, GAUSS)
    ref_T = per_coset_reference(get, "InertT", p, params, GAUSS)
    refs = {
        act_inert_T0: per_coset_reference(get, "InertT0", p, params, GAUSS),
        act_inert_T: ref_T,
        act_inert_Up: per_coset_reference(ref_T, "InertT", p, params, GAUSS),
    }
    for act, ref in refs.items():
        out = tabulate_raw(act, src, p, 28, 2)
        assert out.vals == [ref(*key) for key in out.lattice], act.__name__
        assert sum(not v.is_zero() for v in out.vals) > len(out.vals) // 2, act.__name__


def split_reference(t, op):
    """act_split_on_lift as the two hand-written loops, one per kind, that it
    replaced: (alpha, alpha_max, zeta_exp) of the image."""
    p = op.p
    D, k = t.D, t.k
    chi_e = t.chi.exponent(prime_class(class_group(D), p))
    d = t.chi.order
    alpha = t.alpha

    def a(n):
        v = alpha.get(n)
        return v if v is not None and not v.is_zero() else None

    new_alpha = {}
    new_max = t.alpha_max // p ** op.reach
    if op.kind == "SplitT1":
        c_hi = Fraction(p + 1) * Fraction(p ** 2, p ** (k // 2))
        c_lo = (p + 1) * p ** (k // 2)
        for n in range(1, new_max + 1):
            acc = None
            v = a(n * p)
            if v is not None:
                acc = v * c_hi
            if n % p == 0:
                v = a(n // p)
                if v is not None:
                    w = v * c_lo
                    acc = w if acc is None else acc + w
            if acc is not None:
                new_alpha[n] = acc
        shift = chi_e
    else:
        c_hi = Fraction(p ** 4, p ** k)
        c_mid = p ** 3 + p ** 2 + p
        for n in range(1, new_max + 1):
            acc = None
            v = a(n * p * p)
            if v is not None:
                acc = v * c_hi
            v = a(n)
            if v is not None:
                c = c_mid
                if n % p == 0:
                    c += p * p
                w = v * c
                acc = w if acc is None else acc + w
            if n % (p * p) == 0:
                v = a(n // (p * p))
                if v is not None:
                    w = v * p ** k
                    acc = w if acc is None else acc + w
            if acc is not None:
                new_alpha[n] = acc
        shift = 2 * chi_e
    return new_alpha, new_max, (t.zeta_exp + shift) % d if d > 1 else 0


SPLIT_PRIMES = {7: (2, 11), 23: (2, 3)}  # the two smallest at each D


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_split_term_table_matches_hand_written_loops(data):
    D = data.draw(st.sampled_from(sorted(SPLIT_PRIMES)), "D")
    p = data.draw(st.sampled_from(SPLIT_PRIMES[D]), "p")
    op = HeckeOpId.make(data.draw(st.sampled_from(("SplitT1", "SplitT2")), "kind"), p, D)
    chi = data.draw(st.sampled_from(char_values(class_group(D))), "chi")
    k = data.draw(st.sampled_from((8, 12)), "k")
    zeta_exp = data.draw(st.integers(0, chi.order - 1), "zeta_exp")
    # alpha_max from below p^reach (an empty image) to a few multiples of it;
    # alpha with gaps and explicit zeros
    alpha_max = data.draw(st.integers(0, 4 * p ** op.reach), "alpha_max")
    coords = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    drawn = data.draw(st.dictionaries(st.integers(1, max(alpha_max, 1)), coords, max_size=80), "alpha")
    alpha = {n: GAUSS.element(list(c)) for n, c in drawn.items()}
    t = MaassTuple(FieldParams(D, k), chi, GAUSS, alpha, alpha_max, zeta_exp)
    got = act_split_on_lift(t, op)
    want_alpha, want_max, want_exp = split_reference(t, op)
    assert (got.alpha_max, got.zeta_exp) == (want_max, want_exp)
    # as maps of nonzero values: the hand-written loops store a zero where terms cancel
    want = {n: (v.num, v.den) for n, v in want_alpha.items() if not v.is_zero()}
    assert {n: (v.num, v.den) for n, v in got.alpha.items()} == want


def test_split_image_stores_no_zero_where_terms_cancel():
    # T1@2 at k = 8: alpha'(2) = 3/4 alpha(4) + 48 alpha(1) = 0 for alpha(4) = -64 alpha(1)
    D, k, p = 23, 8, 2
    op = HeckeOpId.make("SplitT1", p, D)
    alpha = {1: GAUSS.element([1, 2]), 4: GAUSS.element([-64, -128])}
    t = MaassTuple(FieldParams(D, k), trivial_char(), GAUSS, alpha, 4)
    assert split_reference(t, op)[0][2].is_zero()  # the cancellation the loops store
    got = act_split_on_lift(t, op)
    assert got.alpha_max == 2 and got.alpha == {}


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
