import random

import pytest

from hermlift.quadfield import (
    BQF,
    _compose,
    _solve_linmod,
    FieldParams,
    QuadInt,
    SplitType,
    char_values,
    chi_K,
    class_group,
    norm_ball,
    prime_class,
    reduced_forms,
    split_type,
)
from hermlift.ring import _is_prime
from percoset import conj


def test_chi_examples_d7():
    assert chi_K(7, 2) == 1   # 3^2 = 2 mod 7
    assert chi_K(7, 3) == -1  # squares mod 7 are {1,2,4}
    assert chi_K(7, 7) == 0


def test_chi_multiplicative_and_periodic():
    D = 23
    for n in range(1, 4 * D):
        assert chi_K(D, n + D) == chi_K(D, n)
        for m in range(1, 50):
            if n % D and m % D:
                assert chi_K(D, n * m) == chi_K(D, n) * chi_K(D, m)


def test_chi_matches_quadratic_reciprocity_oracle():
    # chi(p) = +1 iff p is a square mod D, computed by brute force
    for D in (7, 11, 23):
        squares = {pow(b, 2, D) for b in range(1, D)}
        for p in (2, 3, 5, 11, 13, 17, 19, 29):
            if p == D:
                continue
            assert chi_K(D, p) == (1 if p % D in squares else -1)


def test_split_type():
    assert split_type(7, 2) is SplitType.SPLIT
    assert split_type(7, 3) is SplitType.INERT
    assert split_type(23, 23) is SplitType.RAMIFIED


def test_quadint_norm_multiplicative():
    rng = random.Random(5)
    for D in (7, 23):
        for _ in range(40):
            z = QuadInt(rng.randrange(-9, 10), rng.randrange(-9, 10), D)
            w = QuadInt(rng.randrange(-9, 10), rng.randrange(-9, 10), D)
            assert (z * w).norm() == z.norm() * w.norm()
            assert conj(z * w) == conj(z) * conj(w)
            assert z.norm() >= 0
            assert (z.norm() == 0) == z.is_zero()


def test_norm_ball_complete():
    # brute-force window should find exactly the same points
    D, X = 7, 50
    ball = set(norm_ball(D, X))
    brute = {
        QuadInt(a, b, D)
        for a in range(-40, 41)
        for b in range(-40, 41)
        if QuadInt(a, b, D).norm() <= X
    }
    assert ball == brute


@pytest.mark.parametrize(
    "D, h",
    [(7, 1), (11, 1), (19, 1), (23, 3), (31, 3), (43, 1), (47, 5), (71, 7)],
)
def test_class_numbers(D, h):
    assert class_group(D).order == h


def test_reduced_forms_d7_d23():
    assert reduced_forms(7) == [BQF(1, 1, 2)]
    assert set(reduced_forms(23)) == {BQF(1, 1, 6), BQF(2, 1, 3), BQF(2, -1, 3)}


def test_group_axioms():
    for D in (23, 47, 71):
        cg = class_group(D)  # associativity asserted inside
        h = cg.order
        e = cg.identity_index
        for i in range(h):
            assert cg.compose(i, e) == i
            assert cg.compose(cg.inv(i), i) == e
            for j in range(h):
                assert cg.compose(i, j) == cg.compose(j, i)


def test_squaring_is_the_general_composition():
    # g = (a, b + 2a, a + b + c) is f moved by x -> x + y: the same class but
    # not the same tuple, so compose(f, g) takes the general formula at any
    # version of _compose, and compose(f, f) must agree with it
    checked = 0
    for D in range(3, 500, 4):
        if not _is_prime(D):
            continue
        for f in reduced_forms(D):
            g = BQF(f.A, f.B + 2 * f.A, f.A + f.B + f.C)
            assert g != f and g.reduced() == f and g.disc == f.disc == -D
            assert _compose(f, f) == _compose(f, g), (D, f)
            checked += 1
    assert checked > 300


def test_prime_class_examples():
    cg23 = class_group(23)
    c2 = prime_class(cg23, 2)
    assert cg23.forms[c2] == BQF(2, 1, 3)
    assert cg23.element_order(c2) == 3

    cg7 = class_group(7)
    assert prime_class(cg7, 2) == cg7.identity_index

    c59 = prime_class(cg23, 59)
    assert cg23.compose(c59, cg23.inv(c59)) == cg23.identity_index

    with pytest.raises(ValueError):
        prime_class(cg23, 5)  # inert


def principal_norm_rep(D, p):
    """A norm-p element of the order if one exists (brute force), else None."""
    for z in norm_ball(D, p):
        if z.norm() == p:
            return z
    return None


def test_principal_split_primes_have_identity_class():
    for D in (23, 47):
        cg = class_group(D)
        for p in (2, 3, 5, 7, 11, 13, 29, 59):
            if split_type(D, p) is not SplitType.SPLIT:
                continue
            rep = principal_norm_rep(D, p)
            if rep is not None:
                assert prime_class(cg, p) == cg.identity_index
            else:
                assert prime_class(cg, p) != cg.identity_index


def test_char_values():
    cg7 = class_group(7)
    chars = char_values(cg7)
    assert len(chars) == 1 and chars[0].is_trivial()

    cg23 = class_group(23)
    chars = char_values(cg23)
    assert len(chars) == 3
    patterns = sorted(ch.exponents for ch in chars if not ch.is_trivial())
    # identity gets exponent 0; the two nontrivial characters are conjugate
    assert all(p[cg23.identity_index] == 0 for p in patterns)
    assert patterns[0] == tuple((-e) % 3 for e in patterns[1])
    for ch in chars:
        for i in range(cg23.order):
            assert (ch.exponent(i) + ch.exponent(cg23.inv(i))) % ch.order == 0


def test_field_params_validation():
    FieldParams(7, 8, 13)
    with pytest.raises(ValueError):
        FieldParams(13, 8)  # 13 = 1 mod 4
    with pytest.raises(ValueError):
        FieldParams(7, 7)  # odd weight parameter
    with pytest.raises(ValueError):
        FieldParams(3, 8)  # D = 3 needs 6 | k
    FieldParams(3, 12)
    with pytest.raises(ValueError):
        FieldParams(7, 8, 7)  # ell | D
    with pytest.raises(ValueError):
        FieldParams(7, 8, 5)  # ell <= k
    FieldParams(23, 8, 13)  # 13 > 8, 13 coprime to 23*3


def test_solve_linmod_brute_force():
    for m in range(1, 25):
        for a in range(-m, 2 * m):
            for b in range(-m, m + 1):
                sols = {x for x in range(m) if (a * x - b) % m == 0}
                if not sols:
                    with pytest.raises(ValueError):
                        _solve_linmod(a, b, m)
                    continue
                u, v = _solve_linmod(a, b, m)
                assert sols == {(u + v * i) % m for i in range(m)}, (a, b, m)


def test_prime_class_is_memoised_and_still_refuses_a_non_split_prime():
    # the class of the distinguished prime is found once per (D, p); a
    # split p memoised for D leaves the refusal of D's inert and ramified
    # primes, and of a non-prime, as it was
    cg = class_group(47)
    first = prime_class(cg, 2)
    assert prime_class(cg, 2) == first == prime_class(class_group(47), 2)
    assert cg.forms[first].A == 2 and cg.element_order(first) == 5
    for p in (5, 47, 4):  # inert, ramified, no prime
        with pytest.raises(ValueError):
            prime_class(cg, p)
