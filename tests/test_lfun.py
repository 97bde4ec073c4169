import random
from fractions import Fraction

import pytest

from hermlift.elliptic import bundled_cm_form, synthetic_newform
from hermlift.lfun import CycloElem, EulerFactor, SatakePair, bc_factor, std_factor_lift, verify_product134
from hermlift.quadfield import FieldParams, char_values, chi_K, class_group, trivial_char
from hermlift.ring import HeckeRing

GAUSS = HeckeRing([1, 0, 1])
ZZ = HeckeRing([0, 1])


def test_cyclo_arithmetic():
    one = CycloElem.scalar(ZZ, ZZ.one(), 3)
    z = CycloElem.zeta_power(ZZ, 3, 1)
    z2 = CycloElem.zeta_power(ZZ, 3, 2)
    # 1 + z + z^2 = 0 in the cyclotomic quotient
    assert (one + z + z2).is_zero()
    assert z * z == z2
    assert z * z2 == one
    assert z.conjugate_zeta() == z2
    # canonicalisation is stable under mixed-order lifting
    assert CycloElem.scalar(ZZ, ZZ.from_int(5)) * z == z * 5


@pytest.mark.parametrize("h", [3, 5, 9])
def test_cyclo_reduces_modulo_phi_d(h):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(h)
    for d in (d for d in range(1, h + 1) if h % d == 0):
        phi = sympy.Poly(sympy.cyclotomic_poly(d, x), x)
        assert CycloElem(ZZ, d, {e: ZZ.from_int(c) for e, c in enumerate(reversed(phi.all_coeffs()))}).is_zero()
        for _ in range(20):
            coeffs = [rng.randint(-3, 3) for _ in range(2 * d)]
            elem = CycloElem(ZZ, d, {e: ZZ.from_int(c) for e, c in enumerate(coeffs)})
            rem = sympy.rem(sympy.Poly(list(reversed(coeffs)), x), phi)
            want = {e: c for e, c in enumerate(reversed(rem.all_coeffs())) if c}
            assert {e: c.num[0] for e, c in elem.coeffs.items()} == want, (d, coeffs)
    if h == 9:
        z = [CycloElem.zeta_power(ZZ, 9, e) for e in range(9)]
        assert (z[0] + z[3] + z[6]).is_zero()


def test_satake_power_sums():
    f = bundled_cm_form()
    sat = SatakePair.of(f, 2)
    # alpha + beta = -3, alpha beta = chi(2) * 2^2 = 4
    assert sat.e1 == -3 and sat.e2 == 4
    assert sat.power_sum(2) == f.ring.from_int(9 - 8)  # e1^2 - 2 e2
    assert sat.power_sum(3) == f.ring.from_int(-27 + 3 * 3 * 4)  # e1^3 - 3 e1 e2


def test_inert_zero_eigenvalue_factor_is_square():
    # a(p) = 0 at inert p gives (1 - p^(k-2) X)^2 in X = p^(-2s):
    # k = 4, p = 3 inert at 7, so 1 - 18 X + 81 X^2
    f = bundled_cm_form()
    (fac,) = bc_factor(f, 3)
    assert fac.norm == 9 and fac.degree == 2
    # -(alpha^2 + beta^2) = -(e1^2 - 2 e2) = -(0 + 2*9) = -18
    assert fac.coeffs[1] == CycloElem.scalar(f.ring, f.ring.from_int(-18))
    assert fac.coeffs[2] == CycloElem.scalar(f.ring, f.ring.from_int(81))


def test_shift_substitution():
    f = bundled_cm_form()
    (fac,) = bc_factor(f, 3)
    shifted = fac.substitute(1)
    assert shifted.coeffs[1] == fac.coeffs[1] * 9
    assert shifted.coeffs[2] == fac.coeffs[2] * 81
    assert bc_factor(f, 3, shift=0)[0] == fac


def test_split_factor_pair_and_combined():
    f = bundled_cm_form()
    cg = class_group(7)
    chars = char_values(cg)
    pair = bc_factor(f, 2, chars[0])
    assert len(pair) == 2 and all(fac.norm == 2 for fac in pair)
    (combined,) = bc_factor(f, 2, chars[0], combine_split=True)
    assert combined.degree == 4
    assert combined == pair[0] * pair[1]


def test_split_swap_invariance_trivial_twist():
    D = 23
    params = FieldParams(D, 8)
    f = synthetic_newform(params, GAUSS, "negate-x", p_max=60, seed=3)
    a, b = bc_factor(f, 2, trivial_char(3))
    assert a == b  # conjugate primes agree when untwisted


def test_functional_symmetry_under_conjugation():
    # replacing a(p) by its conjugate and chi by its inverse conjugates
    # the coefficients
    D = 23
    params = FieldParams(D, 8)
    f = synthetic_newform(params, GAUSS, "negate-x", p_max=60, seed=5)
    from hermlift.elliptic import rho_conjugate

    chars = char_values(class_group(D))
    chi = next(c for c in chars if not c.is_trivial())
    for p in (2, 5):  # split and inert at 23
        orig = bc_factor(f, p, chi)
        conj = bc_factor(rho_conjugate(f), p, chi.conjugate())
        for x, y in zip(orig, conj):
            for cx, cy in zip(x.coeffs, y.coeffs):
                assert cy == cx.conjugate_zeta().apply_involution(f.involution)


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
    b = bc_factor(f, 3, chi, shift=Fraction(2 - k // 2))[0]
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
            assert fac.coeffs[0] == CycloElem.scalar(f.ring, f.ring.one())
