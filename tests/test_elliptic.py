import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hermlift.elliptic import (
    NewformData,
    QExpansion,
    apply_tp_poly,
    bundled_cm_form,
    extend_coeffs,
    format_newform,
    parse_newform,
    rho_conjugate,
    synthetic_newform,
)
from hermlift.maass import alpha_from_newform, antisymmetrize, build_lift
from hermlift.quadfield import FieldParams, chi_K, trivial_char
from hermlift.ring import HeckeElem, HeckeRing, _is_prime

ZZ, GAUSS, QUARTIC = HeckeRing([0, 1]), HeckeRing([1, 0, 1]), HeckeRing([1, 0, 0, 0, 1])
RINGS = [ZZ, GAUSS, QUARTIC]  # Z, Z[i], Z[x]/(x^4 + 1)


def _factorize(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def trial_division_coeffs(f, n_max):
    """Reference a(n): factor each n by trial division, multiply its prime-power values."""
    ring = f.ring

    def prime_power(p, e):
        c = chi_K(f.D, p)
        vals = [ring.one(), f.a(p)]
        for _ in range(2, e + 1):
            vals.append(f.a(p) * vals[-1] - ring.from_int(c * p ** (f.k - 2)) * vals[-2])
        return vals[e]

    out = {}
    for n in range(1, n_max + 1):
        acc = ring.one()
        for p, e in _factorize(n):
            acc = acc * prime_power(p, e)
        out[n] = acc
    return out


def raw(values):
    return [(v.num, v.den) for v in values]


def assert_matches_oracles(f, n_max):
    q = extend_coeffs(f, n_max)
    assert list(q.coeffs) == list(range(1, n_max + 1))
    assert raw(q.coeffs.values()) == raw(trial_division_coeffs(f, n_max).values())
    # psi is the descent of the lift, sparse like descend: compare it at
    # every index, not key by key
    psi = antisymmetrize(f, n_max)
    conj = extend_coeffs(rho_conjugate(f), n_max)
    assert raw(psi.a(n) for n in range(1, n_max + 1)) == raw(q.a(n) - conj.a(n) for n in range(1, n_max + 1))


def eta_product_oracle(n_max):
    """q prod (1-q^n)^3 (1-q^7n)^3, the level-7 weight-3 newform."""
    poly = [0] * n_max
    poly[0] = 1

    def mul(n, times):
        for _ in range(times):
            for i in range(len(poly) - 1, n - 1, -1):
                poly[i] -= poly[i - n]

    for n in range(1, n_max):
        mul(n, 3)
        if 7 * n < n_max:
            mul(7 * n, 3)
    return [0] + poly  # a(n) = poly[n-1], shifted so a[n] indexes q^n


def test_bundled_cm_form_matches_eta_product():
    f = bundled_cm_form()
    assert f.D == 7 and f.k == 4
    assert f.a(2) == -3 and f.a(3) == 0 and f.a(5) == 0
    assert f.aDK * f.aDK == f.ring.from_int(49)
    n_max = 300
    a = eta_product_oracle(n_max + 1)
    q = extend_coeffs(f, n_max)
    for n in range(1, n_max + 1):
        assert q.a(n) == a[n], n


def test_extend_coeffs_examples():
    f = bundled_cm_form()
    q = extend_coeffs(f, 50)
    assert q.a(1) == 1
    assert q.a(4) == 5  # a(2)^2 - chi(2) 2^2 = 9 - 4
    assert q.a(6) == 0  # a(2) a(3)
    assert q.a(49) == 49  # aDK^2


def test_missing_prime_data():
    f = bundled_cm_form()
    with pytest.raises(KeyError):
        f.a(1009)  # beyond the bundled range


def test_expansions_refuse_primes_past_the_data():
    f = bundled_cm_form()
    last = f.p_max()
    beyond = next(p for p in range(last + 1, 2 * last) if _is_prime(p))
    assert extend_coeffs(f, beyond - 1).n_max == beyond - 1
    for fn in (extend_coeffs, antisymmetrize, alpha_from_newform):
        with pytest.raises(KeyError, match=f"p = {beyond}"):
            fn(f, beyond)


@pytest.mark.parametrize("p", [13, 197])  # at D = 23 and 200: below and above 200 // 5, the least inert prime
def test_an_eigenvalue_of_another_ring_is_refused_at_construction(p):
    # one a(p) of an equal ring that is another object is read as the same
    # value; one of another ring is refused by extend_coeffs and build_lift
    # themselves, before any coefficient is read, and a prime past the range
    # is not read.  With a prime missing too, the first fault ascending wins
    n_max = 200
    f = synthetic_newform(FieldParams(23, 8), GAUSS, "negate-x", p_max=n_max + 10, seed=3)
    v = f.ap[p]
    twin = replace(f, ap={**f.ap, p: HeckeElem(HeckeRing(GAUSS.modulus), v.num, v.den)})
    assert extend_coeffs(twin, n_max) == extend_coeffs(f, n_max)
    assert dict(alpha_from_newform(twin, n_max).items()) == dict(alpha_from_newform(f, n_max).items())
    stranger = replace(f, ap={**f.ap, p: HeckeElem(QUARTIC, v.num + (0, 0), v.den)})
    builders = (lambda g, n: extend_coeffs(g, n), lambda g, n: build_lift(g, trivial_char(), n))
    for build in builders:
        with pytest.raises(ValueError, match="mismatched rings"):
            build(stranger, n_max)
        assert build(stranger, p - 1) is not None
    short = replace(stranger, ap={q: w for q, w in stranger.ap.items() if q != 19})
    for build in builders:
        with pytest.raises(ValueError, match="mismatched rings") if p < 19 else pytest.raises(KeyError, match="p = 19"):
            build(short, n_max)


@settings(deadline=None, max_examples=40)
@given(
    D=st.sampled_from([7, 23, 47, 199]),
    k=st.sampled_from([4, 6, 8]),
    ring=st.sampled_from(RINGS),
    involution=st.sampled_from(["trivial", "negate-x"]),
    n_max=st.integers(1, 600),
    seed=st.integers(0, 10**6),
)
def test_sieve_matches_trial_division_and_conjugate_difference(D, k, ring, involution, n_max, seed):
    f = synthetic_newform(FieldParams(D, k), ring, involution, p_max=n_max, seed=seed)
    assert_matches_oracles(f, n_max)
    assert_matches_oracles(rho_conjugate(f), n_max)


@pytest.mark.parametrize("D", [7, 23])
@pytest.mark.parametrize("ring", RINGS, ids=["Z", "Z[i]", "Z[x]/(x^4+1)"])
def test_sieve_edge_ranges(D, ring):
    f = synthetic_newform(FieldParams(D, 6), ring, "negate-x", p_max=D * D, seed=D)
    for n_max in (1, D, D * D, D * 2, D * 3):
        assert_matches_oracles(f, n_max)
    assert raw(extend_coeffs(f, 1).coeffs.values()) == raw([ring.one()])


def test_parse_rejects_fact1_violations():
    bad = "\n".join(
        [
            "field 7",
            "weight 3",
            "ring 0 1",
            "involution trivial",
            "aDK -7",
            "ap 3 1",  # 3 is inert at D=7; a real nonzero value is impossible
        ]
    )
    with pytest.raises(ValueError, match="p = 3"):
        parse_newform(bad)


def test_parse_empty_coefficients_is_legal():
    text = "field 7\nweight 3\nring 0 1\ninvolution trivial\naDK 7\n"
    f = parse_newform(text)
    assert f.p_max() == 1


def test_parse_roundtrip():
    f = bundled_cm_form()
    g = parse_newform(format_newform(f))
    assert g.ap == f.ap and g.aDK == f.aDK and g.D == f.D and g.k == f.k
    # a label is the rest of its line, inner spaces kept
    labelled = replace(f, label="cm form  of level 7")
    assert parse_newform(format_newform(labelled)) == labelled


def _fraction_reads(token: str) -> bool:
    try:
        Fraction(token)
    except (ValueError, ZeroDivisionError):
        return False
    return True


def _spell(x: Fraction, style: int, pad: int, m: int) -> str:
    """A token Fraction reads as x: plain or signed and zero padded, with
    underscores, as a/b with a common factor m, or as a decimal."""
    sign = "-" if x < 0 else "+" if style % 2 else ""
    n, d = abs(x.numerator), x.denominator
    digits = "0" * pad + str(n)
    if style < 2 and d == 1:
        return sign + digits
    if style < 4 and d == 1:
        return sign + "_".join(digits)
    if style < 6 or 10**6 % d:
        return f"{sign}{'0' * pad}{n * m}/{d * m}"
    scaled = str(n * 10**6 // d).rjust(7, "0")
    return f"{sign}{'0' * pad}{scaled[:-6]}.{scaled[-6:]}"


# integer, a/b and decimal shapes over ASCII and Arabic-Indic digits; many are malformed
TOKEN_SHAPES = st.from_regex(r"[+-]?[0-9\u0663_]{1,5}(/[0-9_]{1,3}|\.[0-9_]{0,3})?([eE][+-]?[0-9]{1,2})?", fullmatch=True)


@st.composite
def newform_lines(draw):
    """A valid newform file's lines, its coordinates spelled every way Fraction reads;
    with the field parameters, ring and involution they must parse to."""
    D = draw(st.sampled_from([7, 23]))
    ring, involution = draw(st.sampled_from([(ZZ, "trivial"), (GAUSS, "trivial"), (GAUSS, "negate-x"),
                                             (QUARTIC, "negate-x")]))
    shapes = draw(st.lists(TOKEN_SHAPES.filter(_fraction_reads), min_size=1, max_size=8))
    rng = random.Random(draw(st.integers(0, 2**32)))

    def spell(x):
        return _spell(x, rng.randrange(8), rng.randrange(4), rng.randrange(1, 6))

    def coords(free):
        # a forced zero, a drawn token shape or a spelled random rational
        return " ".join(spell(Fraction(0)) if i not in free else rng.choice(shapes) if rng.random() < 0.3
                        else spell(Fraction(rng.randint(-10**4, 10**4), rng.choice([1, 1, 2, 3, 4, 5, 8, 12])))
                        for i in range(ring.degree))

    lines = [f"field {D}", "weight 7", "ring " + " ".join(map(str, ring.modulus)), f"involution {involution}",
             "label a  form", "aDK " + " ".join([spell(Fraction(rng.choice([1, -1]) * D**3))] + ["0"] * (ring.degree - 1))]
    primes = [p for p in range(2, 45) if _is_prime(p) and p != D]
    rng.shuffle(primes)
    for p in primes:
        split = chi_K(D, p) == 1
        free = range(ring.degree) if involution == "trivial" else range(0 if split else 1, ring.degree, 2)
        lines.append(f"ap {p} " + coords(free if split or involution != "trivial" else ()))
    return lines, FieldParams(D, 8), ring, involution


def _reference_parse(lines, params, ring, involution):
    """Fraction on every coordinate token, ring.element on every line."""
    rows = [line.split() for line in lines]
    aDK = next(ring.element([Fraction(t) for t in r[1:]]) for r in rows if r[0] == "aDK")
    ap = {int(r[1]): ring.element([Fraction(t) for t in r[2:]]) for r in rows if r[0] == "ap"}
    return NewformData(params, ring, ap, aDK, involution, "a  form")


@settings(deadline=None, max_examples=60)
@given(newform_lines())
def test_parse_newform_matches_a_fraction_reference(case):
    lines, params, ring, involution = case
    assert parse_newform("\n".join(lines)) == _reference_parse(lines, params, ring, involution)


@settings(deadline=None, max_examples=30)
@given(newform_lines(), st.data())
def test_parse_newform_refuses_a_token_fraction_refuses_at_its_line(case, data):
    lines = case[0]
    junk = ["1/0", "x", "0x10", "1__0", "_1", "--1", "1.2.3", "/", "nan", "1/2e3", "0b1", "1,5"]
    text = st.text("0123456789\u0663+-_./eEx", min_size=1, max_size=6)
    bad = data.draw(st.one_of(text.filter(lambda t: not _fraction_reads(t)), st.sampled_from(junk)))
    i = data.draw(st.integers(5, len(lines) - 1))  # aDK or an ap line
    parts = lines[i].split()
    parts[data.draw(st.integers(1 if parts[0] == "aDK" else 2, len(parts) - 1))] = bad
    lines[i] = " ".join(parts)
    with pytest.raises(ValueError, match=f"^malformed newform line {i + 1}: "):
        parse_newform("\n".join(lines))


@settings(deadline=None, max_examples=200)
@given(st.sampled_from([(GAUSS, "trivial"), (GAUSS, "negate-x"), (QUARTIC, "negate-x")]),
       st.lists(st.integers(-2, 2), min_size=4, max_size=4), st.sampled_from([2, 3, 5, 11]))
def test_validate_reads_the_symmetry_as_apply_involution_does(kind, nums, p):
    ring, involution = kind
    a = ring.element(nums)
    f = NewformData(FieldParams(7, 8), ring, {p: a}, ring.from_int(7**3), involution)
    c = chi_K(7, p)
    if a.apply_involution(involution) == (a if c == 1 else -a):
        f.validate()
    else:
        with pytest.raises(ValueError, match=f"p = {p} violates the conjugation symmetry"):
            f.validate()


def test_validate_reports_a_bad_prime_before_an_involution_that_does_not_fit():
    fib = HeckeRing([-1, -1, 1])  # x^2 - x - 1: x -> -x is no endomorphism
    params, aDK = FieldParams(7, 8), fib.from_int(7**3)
    with pytest.raises(ValueError, match="bad prime 4"):
        NewformData(params, fib, {4: fib.one(), 5: fib.zero()}, aDK, "negate-x").validate()
    for ap in ({3: fib.zero()}, {}):
        with pytest.raises(ValueError, match="negate-x is not an endomorphism for this modulus"):
            NewformData(params, fib, ap, aDK, "negate-x").validate()
    with pytest.raises(ValueError, match="unknown involution 'swap'"):
        NewformData(params, fib, {3: fib.zero()}, aDK, "swap").validate()


def test_rho_conjugate():
    params = FieldParams(7, 8)
    f = synthetic_newform(params, GAUSS, "negate-x", p_max=60, seed=3)
    g = rho_conjugate(f)
    for p, a in f.ap.items():
        c = chi_K(7, p)
        assert g.ap[p] == (a if c == 1 else -a)
    assert g.aDK * f.aDK == f.ring.from_int(7) ** 6
    # double conjugation is the identity
    gg = rho_conjugate(g)
    assert gg.ap == f.ap and gg.aDK == f.aDK


def test_cm_form_is_self_conjugate():
    f = bundled_cm_form()
    assert f.is_self_conjugate()
    assert antisymmetrize(f, 100).is_zero()


def test_antisymmetrize_synthetic():
    params = FieldParams(7, 8)
    f = synthetic_newform(params, GAUSS, "negate-x", p_max=210, seed=5)
    psi = antisymmetrize(f, 200)
    # inert prime: (phi - phi^rho)(p) = 2 a(p); split prime: 0
    for p in (3, 5, 13):  # inert at 7
        assert psi.a(p) == f.a(p) * 2
    for p in (2, 11, 23):  # split at 7
        assert psi.a(p).is_zero()
    # the coefficient vanishes whenever chi(n) = +1, n coprime to 7
    for n in range(1, 201):
        if n % 7 and chi_K(7, n) == 1:
            assert psi.a(n).is_zero(), n


def test_eigenform_property():
    params = FieldParams(7, 8)
    f = synthetic_newform(params, GAUSS, "negate-x", p_max=120, seed=7)
    q = extend_coeffs(f, 110)
    for p in (2, 3, 5):
        tq = apply_tp_poly(q, ((1, 1),), p, f.k, f.D)
        for n in range(1, tq.n_max + 1):
            assert tq.a(n) == f.a(p) * q.a(n), (p, n)
    # and at the ramified prime the second term drops
    t7 = apply_tp_poly(q, ((1, 1),), 7, f.k, f.D)
    for n in range(1, t7.n_max + 1):
        assert t7.a(n) == q.a(7 * n)


def test_tp_commute():
    params = FieldParams(11, 8)
    rng = random.Random(11)
    ring = GAUSS
    q = QExpansion(
        ring, 450, {n: ring.element([rng.randrange(-5, 6), rng.randrange(-5, 6)]) for n in range(1, 451)}
    )
    a = apply_tp_poly(apply_tp_poly(q, ((1, 1),), 2, 8, 11), ((1, 1),), 3, 8, 11)
    b = apply_tp_poly(apply_tp_poly(q, ((1, 1),), 3, 8, 11), ((1, 1),), 2, 8, 11)
    assert a.n_max == b.n_max == 75
    for n in range(1, 76):
        assert a.a(n) == b.a(n)


def test_synthetic_validates_and_involution_shape():
    params = FieldParams(23, 8)
    f = synthetic_newform(params, GAUSS, "negate-x", p_max=100, seed=1)
    f.validate()
    for p, a in f.ap.items():
        c = chi_K(23, p)
        coords = a.coords()
        if c == 1:
            assert coords[1] == 0  # involution-fixed: no x part
        else:
            assert coords[0] == 0  # anti-fixed: pure x part
