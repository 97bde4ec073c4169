"""Building a lift and testing membership through the divisor-sum condition.

A degree-2 hermitian form is in the Maass space exactly when its Fourier
coefficients are divisor sums

    c(h) = sum_{d | content(h)} d^(k-1) alpha(D det(h) / d^2)

of a single function alpha of the scaled determinant.  The lift of an
elliptic newform phi realises alpha = (phi - phi^rho) / a_K, where a_K
counts square roots of the negated index mod D.
"""

from hermlift import (
    HeckeRing,
    FieldParams,
    a_K,
    build_lift,
    bundled_cm_form,
    check_maass,
    content,
    descend,
    extend_coeffs,
    point,
    rho_conjugate,
    synthetic_newform,
    trivial_char,
)

# The bundled level-7 weight-3 CM form is its own conjugate, so its
# antisymmetrisation -- and hence its lift -- vanishes.
cm = bundled_cm_form()
print("CM form a(2), a(3), a(7):", cm.a(2), cm.a(3), cm.aDK)
print("lift of the CM form is zero:", build_lift(cm, trivial_char(), 100).is_zero())

# A synthetic eigenform with eigenvalues in Z[i] has a nonzero lift.
params = FieldParams(7, 8)
ring = HeckeRing([1, 0, 1])  # Z[x]/(x^2+1)
f = synthetic_newform(params, ring, "negate-x", p_max=800, seed=1)
phi, phi_rho = extend_coeffs(f, 30), extend_coeffs(rho_conjugate(f), 30)
psi = {n: phi.a(n) - phi_rho.a(n) for n in range(1, 31)}
print("\nsynthetic phi - phi^rho:", {n: str(v) for n, v in psi.items() if n < 15 and not v.is_zero()})
print("a_K(n) for n = 1..14:", [a_K(7, n) for n in range(1, 15)])

t = build_lift(f, trivial_char(), 700)
oracle = t.oracle()
h = point(7, 2, 4, 2, 0)  # content 2, scaled determinant 52
print(f"\ncoefficient at {h} (content {content(h)}):", oracle(h))
print("   = alpha(52) + 2^7 alpha(13):", t.alpha_at(52) + t.alpha_at(13) * 2 ** 7)

# membership check extracts alpha back from a finite table
table = t.identity_table(bound_det=7 * 9, bound_diag=3)
ok, alpha = check_maass(table)
print("\ntable passes the membership check:", ok)
print("alpha extracted on", len(alpha), "indices")

# and the descent returns the difference of the two expansions exactly
exp, q = descend(t, 30)[0]
print("descend equals phi - phi^rho:", all(q.a(n) == psi[n] for n in range(1, 31)))
