import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hermlift import congr, hecke
from hermlift.congr import (
    DepthReport,
    EigenSystem,
    build_eigen_system,
    eigen_congruence,
    maass_ideal_report,
    table_congruence,
)
from hermlift.elliptic import bundled_cm_form, synthetic_newform
from hermlift.hecke import HeckeOpId, maass_eigenvalue
from hermlift.hermitian import enumerate_points
from hermlift.maass import CoeffTable, build_lift, random_alpha_tuple
from hermlift.quadfield import FieldParams, char_values, chi_K, class_group, trivial_char
from hermlift.ring import INF, VAL_CAP, HeckeElem, HeckeRing, primes_above, val_at

GAUSS = HeckeRing([1, 0, 1])


def perturbed_pair(D, k, ell, m, seed=0, p_max=80):
    """Two synthetic eigenforms with a(p) = a'(p) mod ell^m at every prime."""
    params = FieldParams(D, k, ell)
    f = synthetic_newform(params, GAUSS, "negate-x", p_max=p_max, seed=seed)
    g = synthetic_newform(params, GAUSS, "negate-x", p_max=p_max, seed=seed + 1000)
    scale = ell ** m
    new_ap = {}
    for p, a in f.ap.items():
        delta = g.ap[p] - a
        new_ap[p] = a + delta * scale
    from dataclasses import replace

    g2 = replace(f, ap=new_ap, label=f.label + f"+{ell}^{m}")
    g2.validate()
    return f, g2


def default_ops(D, ell):
    ops = []
    for p in (2, 3, 5, 7, 11):
        if p in (D, ell):
            continue
        if chi_K(D, p) == 1:
            ops.append(HeckeOpId.make("SplitT1", p, D, ell))
            ops.append(HeckeOpId.make("SplitT2", p, D, ell))
        else:
            ops.append(HeckeOpId.make("InertT0", p, D, ell))
            ops.append(HeckeOpId.make("InertUp", p, D, ell))
    return ops


def test_table_congruence_basics():
    params = FieldParams(7, 8)
    t = random_alpha_tuple(params, trivial_char(), GAUSS, 7 * 4, seed=1)
    table = t.identity_table(7 * 4, 2)
    prime = primes_above(GAUSS, 13)[0]

    depth, capped = table_congruence(table, table, prime)
    assert depth == VAL_CAP and capped

    # one entry moved by ell
    h0 = next(iter(table.values))
    t2 = moved_table(table, {h0: GAUSS.from_int(13)})
    assert table_congruence(table, t2, prime) == (1, False)

    # scaling by a unit mod the prime gives depth 0
    t3 = scaled(table, GAUSS.from_int(2))
    assert table_congruence(table, t3, prime) == (0, False)

    t4 = scaled(table, GAUSS.from_int(1))
    t4.bound_det += 1
    with pytest.raises(ValueError):
        table_congruence(table, t4, prime)


def scaled(table, c):
    """A new table of the same shape with every value times c."""
    values = {h: v * c for h, v in table.values.items()}
    return CoeffTable(table.params, table.ring, table.bound_det, table.bound_diag, values)


def moved_table(table, shifts):
    """A new table of the same shape with shifts[h] added at each point h."""
    values = {**table.values, **{h: table.get(h) + s for h, s in shifts.items()}}
    return CoeffTable(table.params, table.ring, table.bound_det, table.bound_diag, values)


def reference_depth(t1, t2, prime, cap=VAL_CAP):
    """The minimum of full-cap valuations over every point, then clamped."""
    pts = enumerate_points(t1.D, t1.bound_det, t1.bound_diag)
    vals = [val_at(prime, t1.get(h) - t2.get(h), cap=cap) for h in pts]
    depth = min(vals, default=INF)
    return (cap, True) if depth >= cap else (depth, False)


@pytest.mark.parametrize(
    "modulus,ell", [([1, 0, 1], 13), ([1, 0, 1], 11), ([1, 0, 0, 0, 1], 17)], ids=["Z[i]-13", "Z[i]-11", "x4+1-17"]
)
def test_running_cap_depth_equals_full_cap_minimum(modulus, ell):
    # each point is valued only up to the depth so far; the minimum, and
    # whether it reached the cap, must be those of the full-cap valuations
    ring = HeckeRing(modulus)
    rng = random.Random(ell)
    table = random_alpha_tuple(FieldParams(7, 8), trivial_char(), ring, 7 * 4, seed=ell).identity_table(7 * 4, 2)
    points = enumerate_points(table.D, table.bound_det, table.bound_diag)
    for prime in primes_above(ring, ell):
        assert table_congruence(table, table, prime) == reference_depth(table, table, prime) == (VAL_CAP, True)
        unit = scaled(table, ring.from_int(2))
        assert table_congruence(table, unit, prime) == reference_depth(table, unit, prime) == (0, False)
        for m in (1, 2, 3):
            for trial in range(4):
                # half the points moved by ell^(m + r) u, r random, so the depth so far drops in steps
                shifts = {}
                for h in rng.sample(points, len(points) // 2):
                    u = HeckeElem(ring, tuple(rng.randrange(-ell, ell) for _ in modulus[1:]))
                    shifts[h] = u * ell ** (m + rng.randrange(4))
                moved = moved_table(table, shifts)
                got = table_congruence(table, moved, prime)
                assert got == reference_depth(table, moved, prime), (prime.local_factor, m, trial)
                assert got[0] >= m
                for cap in (m, m + 1):
                    assert table_congruence(table, moved, prime, cap=cap) == reference_depth(table, moved, prime, cap)


def test_table_congruence_with_ell_in_denominators_is_order_free():
    # differences 1/13 at one point and 1/169 at another: the depth is -2
    # wherever the two sit, the minimum of the full-cap valuations
    lift = random_alpha_tuple(FieldParams(7, 8), trivial_char(), GAUSS, 7 * 4, seed=1).identity_table(7 * 4, 2)
    lattice = enumerate_points(lift.D, lift.bound_det, lift.bound_diag)
    points, missing = lattice[:7], lattice[7]
    table = moved_table(lift, {missing: -lift.get(missing)})  # zero at missing, so table.values omits it
    assert missing not in table.values
    for prime in primes_above(GAUSS, 13):
        for h1, h2 in itertools.permutations(points + [missing], 2):
            shifts = {h1: GAUSS.element([Fraction(1, 13)]), h2: GAUSS.element([Fraction(1, 169)])}
            moved = moved_table(table, shifts)
            for t1, t2 in ((table, moved), (moved, table)):
                assert table_congruence(t1, t2, prime) == reference_depth(t1, t2, prime) == (-2, False)


def test_table_congruence_values_each_distinct_pair_once(monkeypatch):
    # a lift table repeats one value per (det, content): at D = 23,
    # det <= 92, diag 2, 248 lattice entries hold 40 distinct value pairs
    D, ell, n_max = 23, 13, 92
    f, g = perturbed_pair(D, 8, ell, 2, seed=4, p_max=n_max + 10)
    tf, tg = (build_lift(x, trivial_char(), n_max).identity_table(n_max, 2) for x in (f, g))
    pairs = {(v.num, v.den, w.num, w.den) for v, w in zip(tf.vals, tg.vals) if v is not w}
    assert len(pairs) < len(tf.vals) // 2
    calls, value = [], congr.val_at

    def counting(prime, a, cap=VAL_CAP):
        calls.append(a)
        return value(prime, a, cap=cap)

    for prime in primes_above(GAUSS, ell):
        expected = reference_depth(tf, tg, prime)
        monkeypatch.setattr(congr, "val_at", counting)
        calls.clear()
        assert table_congruence(tf, tg, prime) == expected
        monkeypatch.undo()
        assert 0 < len(calls) <= len(pairs) and expected[0] >= 2


@st.composite
def pooled_tables(draw):
    """Two tables of one shape whose values come from a small pool, so pairs
    repeat.  The pool crosses a few numerators with a few denominators, some
    divisible by 13, and the second table differs from the first at a few
    points, so the minimum often sits at one repeated pair."""
    ring, coord = GAUSS, st.sampled_from([0, 1, -2, 5, 13, 169 * 3])
    nums = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=2))
    dens = draw(st.lists(st.sampled_from([1, 2, 13, 169, 26]), min_size=1, max_size=3, unique=True))
    pool = [ring.zero()] + [HeckeElem(ring, num, den) for num in nums for den in dens]
    idx = st.integers(0, len(pool) - 1)
    shape = CoeffTable(FieldParams(7, 8), ring, 7 * 3, 1)
    points = enumerate_points(shape.D, shape.bound_det, shape.bound_diag)
    first = {h: pool[draw(idx)] for h in points}
    moved = draw(st.lists(st.sampled_from(points), min_size=1, max_size=6))
    second = {**first, **{h: pool[draw(idx)] for h in moved}}
    t1, t2 = (CoeffTable(shape.params, ring, shape.bound_det, shape.bound_diag, v) for v in (first, second))
    return t1, t2, draw(st.integers(1, 6))


@settings(max_examples=150, deadline=None)
@given(pooled_tables())
def test_table_congruence_over_pooled_values_equals_the_full_minimum(tables):
    t1, t2, cap = tables
    for prime in primes_above(GAUSS, 13):
        assert table_congruence(t1, t2, prime, cap=cap) == reference_depth(t1, t2, prime, cap)


def test_descend_op_is_derived_once_per_operator_and_weight():
    for op in default_ops(23, 13):
        for k in (4, 8):
            assert hecke.descend_op(op, k) is hecke.descend_op(op, k)
    op = HeckeOpId.make("InertT0", 5, 23)
    assert hecke.descend_op(op, 4) != hecke.descend_op(op, 8)


@pytest.mark.parametrize("ell,m", [(13, 1), (13, 2), (17, 1), (17, 2)])
def test_congruent_forms_give_deep_eigen_and_table_congruence(ell, m):
    D, k = 7, 8
    f, g = perturbed_pair(D, k, ell, m, seed=3)
    chi = trivial_char()
    ops = default_ops(D, ell)
    sys_f = build_eigen_system(f, chi, ops)
    sys_g = build_eigen_system(g, chi, ops)
    for prime in primes_above(GAUSS, ell):
        per_op = eigen_congruence(sys_f, sys_g, prime)
        depth, _ = per_op["min"]
        assert depth >= m, (ell, m, per_op)

    # lifted coefficient tables are congruent at least as deeply
    n_max = 7 * 9
    tf = build_lift(f, chi, n_max).identity_table(n_max, 3)
    tg = build_lift(g, chi, n_max).identity_table(n_max, 3)
    for prime in primes_above(GAUSS, ell):
        depth, _ = table_congruence(tf, tg, prime)
        assert depth >= m


@pytest.mark.parametrize("D", [7, 23])
def test_eigen_system_descends_each_operator_once(D, monkeypatch):
    calls, descend = [], hecke.descend_op

    def counting(op, k):
        calls.append(op)
        return descend(op, k)

    monkeypatch.setattr(hecke, "descend_op", counting)
    monkeypatch.setattr(congr, "descend_op", counting)
    ell = 13
    ops = default_ops(D, ell)
    for seed, chi in enumerate(char_values(class_group(D))):
        f = synthetic_newform(FieldParams(D, 8, ell), GAUSS, "negate-x", p_max=40, seed=seed)
        calls.clear()
        system = build_eigen_system(f, chi, ops)
        assert calls == ops
        assert system.values == {str(op): maass_eigenvalue(f, chi, op) for op in ops}
    with pytest.raises(ValueError, match="eigenvalue undefined: the form is self-conjugate"):
        build_eigen_system(bundled_cm_form(), trivial_char(), default_ops(7, ell))


def test_eigen_congruence_self_and_errors():
    D, k, ell = 7, 8, 13
    f, g = perturbed_pair(D, k, ell, 1, seed=5)
    chi = trivial_char()
    ops = default_ops(D, ell)
    sys_f = build_eigen_system(f, chi, ops)
    prime = primes_above(GAUSS, ell)[0]
    per_op = eigen_congruence(sys_f, sys_f, prime)
    assert per_op["min"] == (VAL_CAP, True)
    with pytest.raises(KeyError):
        eigen_congruence(sys_f, EigenSystem("empty", GAUSS, {}), prime)
    # an operator built without ell can sit at p = ell (13 is inert at 7);
    # there the p-power normalisations of U_p are not units, so it is refused
    at_ell = build_eigen_system(f, chi, [HeckeOpId.make("InertUp", ell, D)])
    with pytest.raises(ValueError, match="p = ell"):
        eigen_congruence(at_ell, at_ell, prime)


def test_depth_with_single_split_op():
    # lambda difference for SplitT1 is p^(2-k/2)(p+1)(a - a'): p-power is a
    # unit at the prime, so depth equals val(a - a')
    D, k, ell = 7, 8, 13
    f, g = perturbed_pair(D, k, ell, 1, seed=7)
    chi = trivial_char()
    op = HeckeOpId.make("SplitT1", 2, D, ell)
    sys_f = build_eigen_system(f, chi, [op])
    sys_g = build_eigen_system(g, chi, [op])
    prime = primes_above(GAUSS, ell)[0]
    from hermlift.ring import val_at

    expected = val_at(prime, g.a(2) - f.a(2))
    got, _ = eigen_congruence(sys_f, sys_g, prime)["min"]
    assert got == expected >= 1


def test_ultrametric_triangle():
    D, k, ell = 7, 8, 13
    rng = random.Random(8)
    chi = trivial_char()
    ops = default_ops(D, ell)
    prime = primes_above(GAUSS, ell)[0]
    systems = []
    for seed in range(3):
        f = synthetic_newform(FieldParams(D, k, ell), GAUSS, "negate-x", p_max=40, seed=seed)
        systems.append(build_eigen_system(f, chi, [o for o in ops if o.p <= 40]))
    d = {}
    for i in range(3):
        for j in range(3):
            if i != j:
                d[i, j] = eigen_congruence(systems[i], systems[j], prime)["min"][0]
    assert d[0, 1] == d[1, 0]
    assert d[0, 2] >= min(d[0, 1], d[1, 2])


def test_unit_scaling_invariance():
    params = FieldParams(7, 8)
    t = random_alpha_tuple(params, trivial_char(), GAUSS, 7 * 4, seed=9)
    a = t.identity_table(7 * 4, 2)
    b = scaled(a, GAUSS.from_int(3))
    prime = primes_above(GAUSS, 13)[0]
    d_ab = table_congruence(a, b, prime)
    a2 = scaled(a, GAUSS.from_int(5))
    b2 = scaled(b, GAUSS.from_int(5))
    assert table_congruence(a2, b2, prime) == d_ab


def test_maass_ideal_report():
    D, k, ell = 7, 8, 13
    chi = trivial_char()
    ops = default_ops(D, ell)
    prime = primes_above(GAUSS, ell)[0]
    f, _ = perturbed_pair(D, k, ell, 1, seed=11)
    ref = build_eigen_system(f, chi, ops)

    # empty comparison set is legal
    empty = maass_ideal_report(ref, [], prime)
    assert empty.entries == [] and empty.max_depth == 0

    # self entry is flagged and excluded from the max
    report = maass_ideal_report(ref, [ref], prime)
    assert report.entries[0]["self"] and report.max_depth == 0

    # mixed depths sorted descending, max picked up
    others = []
    for m in (1, 2):
        _, g = perturbed_pair(D, k, ell, m, seed=11)
        others.append(build_eigen_system(g, chi, ops, label=f"pert-{m}"))
    h = synthetic_newform(FieldParams(D, k, ell), GAUSS, "negate-x", p_max=80, seed=999)
    others.append(build_eigen_system(h, chi, ops, label="far"))
    report = maass_ideal_report(ref, others, prime)
    depths = [e["depth"] for e in report.entries]
    assert depths == sorted(depths, reverse=True)
    assert report.max_depth >= 2
    assert report.kind == "lower-bound ledger"
    d = report.to_dict()
    assert d["max_depth"] == report.max_depth
