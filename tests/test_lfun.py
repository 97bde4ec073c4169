import random
from dataclasses import replace
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hermlift import lfun
from hermlift.cli import main
from hermlift.elliptic import bundled_cm_form, synthetic_newform
from hermlift.lfun import EulerFactor, ZetaTerm, bc_factor, std_factor_lift, verify_product134
from hermlift.quadfield import (
    ClassChar,
    FieldParams,
    SplitType,
    char_values,
    chi_K,
    class_group,
    prime_class,
    split_type,
    trivial_char,
)
from hermlift.ring import HeckeRing

GAUSS = HeckeRing([1, 0, 1])
ZZ = HeckeRing([0, 1])
DATA = Path(__file__).parent / "data"


def printed(value, rem, x):
    """The text of value * rem(x), rem a sympy remainder modulo Phi_d."""
    if value.is_zero():
        return "0"
    terms = [(j, int(r)) for j, r in enumerate(reversed(rem.all_coeffs())) if r]
    return " + ".join(f"({value * r})" + ("" if j == 0 else f"*z^{j}") for j, r in terms)


@pytest.mark.parametrize("h", [3, 5, 9])
def test_cyclo_reduces_modulo_phi_d(h):
    # printing reduces value * zeta_d^m to the remainder of value * x^m modulo Phi_d
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(h)
    for d in (d for d in range(1, h + 1) if h % d == 0):
        phi = sympy.Poly(sympy.cyclotomic_poly(d, x), x)
        for m in range(d):
            rem = sympy.rem(sympy.Poly(x**m, x), phi)
            for value in (ZZ.one(), ZZ.from_int(rng.randint(-9, 9)), GAUSS.element([rng.randint(-9, 9), 1], 4)):
                assert repr(ZetaTerm(value, m, d)) == printed(value, rem, x), (d, m, value)
    if h == 9:
        # 1 + zeta^3 + zeta^6 = 0 at d = 9
        assert repr(ZetaTerm(ZZ.one(), 6, 9)) == "(-1) + (-1)*z^3"


def test_twisted_coefficients_print_modulo_phi_d():
    # the X^j coefficient of a twisted factor is poly[j] zeta^(j e), printed modulo Phi_d
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    f = synthetic_newform(FieldParams(199, 8), GAUSS, "negate-x", p_max=30, seed=2)
    for chi in char_values(class_group(199)):
        phi = sympy.Poly(sympy.cyclotomic_poly(chi.order, x), x)
        for p in (2, 5, 7, 13):
            for fac in bc_factor(f, p, chi) + std_factor_lift(f, chi, p):
                assert fac.order == chi.order
                for j, (c, term) in enumerate(zip(fac.poly, fac.coeffs)):
                    rem = sympy.rem(sympy.Poly(x ** (j * fac.twist), x), phi)
                    assert repr(term) == str(term) == printed(c, rem, x)


def satake_sums(f, p, d):
    """(alpha^d + beta^d, (alpha beta)^d) for the roots of X^2 - a(p) X + chi(p) p^(k-2),
    d >= 1, the power sum by Newton's identity."""
    e1, e2 = f.a(p), f.ring.from_int(chi_K(f.D, p) * p ** (f.k - 2))
    prev, cur = f.ring.from_int(2), e1
    for _ in range(d - 1):
        prev, cur = cur, e1 * cur - e2 * prev
    return cur, e2**d


def test_satake_power_sums():
    f = bundled_cm_form()
    # alpha + beta = -3, alpha beta = chi(2) * 2^2 = 4
    assert satake_sums(f, 2, 1) == (-3, 4)
    assert satake_sums(f, 2, 2)[0] == f.ring.from_int(9 - 8)  # e1^2 - 2 e2
    assert satake_sums(f, 2, 3)[0] == f.ring.from_int(-27 + 3 * 3 * 4)  # e1^3 - 3 e1 e2


def test_inert_zero_eigenvalue_factor_is_square():
    # a(p) = 0 at inert p gives (1 - p^(k-2) X)^2 in X = p^(-2s):
    # k = 4, p = 3 inert at 7, so 1 - 18 X + 81 X^2
    f = bundled_cm_form()
    (fac,) = bc_factor(f, 3)
    assert fac.norm == 9 and fac.degree == 2
    # -(alpha^2 + beta^2) = -(e1^2 - 2 e2) = -(0 + 2*9) = -18
    assert fac.poly[1] == -18
    assert fac.poly[2] == 81
    assert [str(c) for c in fac.coeffs] == ["(1)", "(-18)", "(81)"]


def test_shift_substitution():
    f = bundled_cm_form()
    (fac,) = bc_factor(f, 3)
    shifted = fac.substitute(1)
    assert shifted.poly[1] == fac.poly[1] * 9
    assert shifted.poly[2] == fac.poly[2] * 81
    assert fac.substitute(0) == fac


def test_split_factor_pair_and_combined():
    f = bundled_cm_form()
    cg = class_group(7)
    chars = char_values(cg)
    pair = bc_factor(f, 2, chars[0])
    assert len(pair) == 2 and all(fac.norm == 2 for fac in pair)
    # h = 1: both primes are untwisted, and their product is the degree-4
    # factor of L(BC(f)) at 2, the square of 1 - a(2) X + chi(2) 2^(k-2) X^2
    combined = pair[0] * pair[1]
    assert combined.degree == 4 and combined == pair[1] * pair[0]
    one, (e1, e2) = f.ring.one(), satake_sums(f, 2, 1)
    assert combined.poly == [one, -(e1 * 2), e1 * e1 + e2 * 2, -(e1 * e2 * 2), e2 * e2]


def test_mismatched_twists_raise():
    f = synthetic_newform(FieldParams(23, 8), GAUSS, "negate-x", p_max=60, seed=3)
    chi = next(c for c in char_values(class_group(23)) if not c.is_trivial())
    a, b = bc_factor(f, 2, chi)  # the two primes above 2 lie in inverse classes
    assert a.twist != b.twist and a.norm == b.norm
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        a.discrepancy(b)
    (inert,) = bc_factor(f, 5, chi)  # another norm
    with pytest.raises(ValueError):
        inert * bc_factor(f, 3, chi)[0]


def test_split_swap_invariance_trivial_twist():
    D = 23
    params = FieldParams(D, 8)
    f = synthetic_newform(params, GAUSS, "negate-x", p_max=60, seed=3)
    a, b = bc_factor(f, 2, trivial_char(3))
    assert a == b  # conjugate primes agree when untwisted


def test_functional_symmetry_under_conjugation():
    # replacing a(p) by its conjugate and chi by its inverse conjugates the
    # scalar coefficients and negates the twist
    D = 23
    params = FieldParams(D, 8)
    f = synthetic_newform(params, GAUSS, "negate-x", p_max=60, seed=5)
    from hermlift.elliptic import rho_conjugate

    chars = char_values(class_group(D))
    chi = next(c for c in chars if not c.is_trivial())
    for p in (2, 5):  # split and inert at 23
        orig = bc_factor(f, p, chi)
        conj = bc_factor(rho_conjugate(f), p, ClassChar(chi.order, tuple(-e % chi.order for e in chi.exponents)))
        for x, y in zip(orig, conj):
            assert (y.norm, y.order, y.twist) == (x.norm, x.order, -x.twist % x.order)
            assert y.poly == [c.apply_involution(f.involution) for c in x.poly]


def test_product134_cm_form():
    f = bundled_cm_form()
    chars = char_values(class_group(7))
    for p in (2, 3, 5):
        for chi in chars:
            ok, _ = verify_product134(f, chi, p)
            assert ok, p


def test_product134_synthetic_random():
    params = FieldParams(23, 8)
    chars = char_values(class_group(23))
    for seed in range(8):
        f = synthetic_newform(params, GAUSS, "negate-x", p_max=50, seed=seed)
        for p in (2, 3, 5, 7, 13):
            for chi in chars:
                ok, disc = verify_product134(f, chi, p)
                assert ok, (seed, p)


def test_product134_detects_misuse():
    # same shift twice is not the factorization
    f = bundled_cm_form()
    chi = trivial_char()
    k = f.k
    lhs = std_factor_lift(f, chi, 3)[0]
    b = bc_factor(f, 3, chi)[0].substitute(Fraction(2 - k // 2))
    wrong = b * b
    assert lhs != wrong
    d = lhs.discrepancy(wrong)
    assert any(not c.is_zero() for c in d)


def test_ramified_prime_rejected():
    f = bundled_cm_form()
    with pytest.raises(ValueError):
        bc_factor(f, 7)
    with pytest.raises(ValueError):
        std_factor_lift(f, trivial_char(), 7)


def test_constant_terms_are_one():
    f = bundled_cm_form()
    for p in (2, 3, 5, 11):
        for fac in bc_factor(f, p) + std_factor_lift(f, trivial_char(), p):
            assert fac.poly[0] == 1 and repr(fac.coeffs[0]) == "(1)"


@pytest.mark.parametrize("D", ["23", "199", "23_k2", "23_k4"])
def test_euler_json_golden(D, capsys):
    # chi 1 has order 3 at D = 23 and order 9 at D = 199; the k = 8 files
    # substitute X -> Np^c X with c < 0, the k = 2 and k = 4 files with c >= 0
    primes = [a for p in (2, 3, 5, 7, 11, 13, 29) for a in ("--p", str(p))]
    code = main(["--json", "euler", str(DATA / f"euler_d{D}.nf"), *primes, "--chi", "1", "--verify-product134"])
    assert code == 0
    assert capsys.readouterr().out == (DATA / f"euler_d{D}_chi1.json").read_text()


def test_euler_reads_each_place_once(capsys, monkeypatch):
    # printing and verifying at a prime share one read of a(p) and its places:
    # the builder classifies p once, and nothing else in lfun does
    calls, classify = [], lfun.split_type

    def counting(D, p):
        calls.append(p)
        return classify(D, p)

    monkeypatch.setattr(lfun, "split_type", counting)
    code = main(["--json", "euler", str(DATA / "euler_d23.nf"), "--p", "2", "--p", "3", "--p", "5",
                 "--chi", "1", "--verify-product134"])
    assert code == 0 and calls == [2, 3, 5]
    golden = (DATA / "euler_d23_chi1.json").read_text().splitlines(keepends=True)
    assert capsys.readouterr().out == "".join(golden[:3])


@cache
def oracle_form(D, k, seed):
    return synthetic_newform(FieldParams(D, k), GAUSS, "negate-x", p_max=40, seed=seed)


def reference_places(D, p, chi):
    """(norm, twist) of each prime above p, the distinguished one first."""
    if split_type(D, p) is SplitType.INERT:
        return [(p * p, 0)]
    cg = class_group(D)
    cls = prime_class(cg, p)
    return [(p, chi.exponent(cls)), (p, chi.exponent(cg.inv(cls)))]


def reference_std(f, p, norm):
    # the Frobenius multiset expansion, every scaling a Fraction power of the norm
    P, Q = satake_sums(f, p, 1 if norm == p else 2)
    N = Fraction(norm)
    t = -(N ** (2 - f.k // 2))
    s = [f.ring.one(), P * (1 + N), Q * (1 + N * N) + P * P * N, P * Q * (N + N * N), Q * Q * N * N]
    return [c * t**j for j, c in enumerate(s)]


def reference_shifted_bc(f, p, norm, c):
    P, Q = satake_sums(f, p, 1 if norm == p else 2)
    poly = [f.ring.one(), -P, Q]
    return [a * Fraction(norm) ** (c * j) for j, a in enumerate(poly)]


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from([23, 199]),
    st.sampled_from([2, 4, 6, 8, 12]),
    st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 29, 31, 37]),
    st.integers(0, 2),
)
def test_factors_match_fraction_power_oracle(D, k, p, seed):
    f = oracle_form(D, k, seed)
    for chi in char_values(class_group(D)):
        places = reference_places(D, p, chi)
        std, bc = std_factor_lift(f, chi, p), bc_factor(f, p, chi)
        assert [(x.norm, x.twist) for x in std] == [(x.norm, x.twist) for x in bc] == places
        for (norm, _), left, b in zip(places, std, bc):
            assert left.poly == reference_std(f, p, norm)
            for c in (2 - k // 2, 3 - k // 2):
                assert b.substitute(c).poly == reference_shifted_bc(f, p, norm, c)
            with pytest.raises(ValueError):
                b.substitute(Fraction(1, 2))
        for side in (std, bc):
            if len(side) == 2:
                # one polynomial for both primes above a split p, in two lists
                a, b = side
                assert a.poly == b.poly and a.poly is not b.poly
        assert verify_product134(f, chi, p)[0]


def test_corrupted_conjugate_place_fails(monkeypatch):
    # the expansion at the distinguished prime is reused at its conjugate only
    # when both sides' polynomials there are equal to the ones already checked
    f = oracle_form(23, 8, 0)
    chi = char_values(class_group(23))[1]

    build = lfun._place_factors  # the builder behind verify_product134

    def corrupted(f, chi, p):
        std, bc = build(f, chi, p)
        std[1].scalars[2] = std[1].scalars[2] + 1
        return std, bc

    monkeypatch.setattr(lfun, "_place_factors", corrupted)
    for p in (2, 3, 13):  # split at 23
        ok, disc = verify_product134(f, chi, p)
        assert not ok
        assert all(c.is_zero() for c in disc[0])
        assert [c.is_zero() for c in disc[1]] == [True, True, False, True, True]


def fraction_x_poly(scalars, norm, shift):
    """X-coefficients of sum scalars[j] (Np^shift X)^j, every power a Fraction."""
    return [c * Fraction(norm) ** (shift * j) for j, c in enumerate(scalars)]


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from([23, 199]),
    st.sampled_from([2, 3, 5, 7, 13, 29]),  # split and inert at both
    st.integers(-6, 6),
    st.integers(-6, 6),
    st.integers(0, 2),
)
def test_shift_tags_match_fraction_power_oracle(D, p, a, b, seed):
    # x.substitute(a) * y.substitute(b) and their discrepancy, read as
    # X-coefficients, against the same polynomials built with Fraction powers
    f, g = oracle_form(D, 8, seed), oracle_form(D, 8, seed + 1)
    for chi in char_values(class_group(D)):
        for x, y in zip(std_factor_lift(f, chi, p), bc_factor(g, p, chi)):
            xs, ys = x.substitute(a), y.substitute(b)
            xa = fraction_x_poly(reference_std(f, p, x.norm), x.norm, a)
            yb = reference_shifted_bc(g, p, y.norm, b)
            assert xs.poly == xa and ys.poly == yb
            want = [sum((xa[i] * yb[n - i] for i in range(len(xa)) if 0 <= n - i < len(yb)), f.ring.zero())
                    for n in range(len(xa) + len(yb) - 1)]
            prod = xs * ys
            assert prod.poly == want and (prod.norm, prod.twist, prod.order) == (x.norm, x.twist, x.order)
            assert [str(t) for t in prod.coeffs] == [str(ZetaTerm(c, j * x.twist % x.order, x.order))
                                                     for j, c in enumerate(want)]
            assert xs.discrepancy(ys) == [u - v for u, v in zip(xa, yb + [f.ring.zero()] * 2)]
            assert ys.discrepancy(xs) == [v - u for u, v in zip(xa, yb + [f.ring.zero()] * 2)]


def test_factor_equals_its_x_polynomial_at_another_tag():
    f = oracle_form(23, 8, 1)
    chi = char_values(class_group(23))[1]
    for p in (2, 5):  # split and inert at 23
        for fac in std_factor_lift(f, chi, p) + bc_factor(f, p, chi):
            for tag in (-5, -1, 0, 3):
                moved = EulerFactor(fac.ring, fac.norm, fraction_x_poly(fac.poly, fac.norm, -tag), fac.order,
                                    fac.twist, tag)
                assert moved == fac and fac == moved
                assert moved.poly == fac.poly and [str(c) for c in moved.coeffs] == [str(c) for c in fac.coeffs]
                assert moved.discrepancy(fac) == [f.ring.zero()] * (fac.degree + 1)
                assert moved != replace(fac, shift=fac.shift + 1)
                assert moved != replace(fac, twist=(fac.twist + 1) % fac.order)


def test_wrong_standard_shift_fails_at_every_prime(monkeypatch):
    # a standard factor tagged 3 - k/2 in place of 2 - k/2 breaks the identity
    # at every p: its top coefficient Q^2 Np^2 never vanishes
    build = lfun._place_factors  # the builder behind std_factor_lift

    def one_too_high(f, chi, p):
        std, bc = build(f, chi, p)
        return [replace(fac, shift=fac.shift + 1) for fac in std], bc

    monkeypatch.setattr(lfun, "_place_factors", one_too_high)
    for f in (bundled_cm_form(), oracle_form(23, 8, 0)):
        for chi in char_values(class_group(f.D)):
            for p in (2, 3, 5, 11, 13, 17, 29):
                assert all(fac.shift == 3 - f.k // 2 for fac in std_factor_lift(f, chi, p))
                ok, disc = verify_product134(f, chi, p)
                assert not ok and all(not d[4].is_zero() for d in disc), (f.D, p)
