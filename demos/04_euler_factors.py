"""Satake parameters, base change, and the standard L-factor of a lift.

The degree-4 standard Euler factor of a lift factors as a product of two
shifted base-change factors of the underlying newform.  Both sides are
computed by independent expansions (a Frobenius eigenvalue multiset
versus products of shifted quadratics).  A class-character twist only
substitutes X -> chi(P) X, the same on both sides, so they are compared
exactly, coefficient by coefficient, in the fraction field of the Hecke
ring; the printed coefficients carry the twist as powers z of a root of
unity.
"""

from hermlift import (
    bc_factor,
    bundled_cm_form,
    char_values,
    class_group,
    std_factor_lift,
    trivial_char,
    verify_product134,
)

f = bundled_cm_form()  # level 7, weight 3, so k = 4
print("newform: level 7, weight 3, a(2) =", f.a(2))

# Base change at a split prime gives one quadratic factor per prime of K.
for fac in bc_factor(f, 2):
    print(f"\nBC factor at a prime of norm {fac.norm}:")
    for j, c in enumerate(fac.coeffs):
        print(f"   X^{j}: {c}")

# At an inert prime the Satake parameters get squared (residue degree 2).
(fac,) = bc_factor(f, 3)
print(f"\nBC factor at the inert prime 3 (norm {fac.norm}):",
      [str(c) for c in fac.coeffs])

# The factorization identity, checked at every class character.
for chi in char_values(class_group(7)):
    results = [verify_product134(f, chi, p)[0] for p in (2, 3, 5, 11, 13)]
    print("factorization holds at p = 2,3,5,11,13:", all(results))

# The standard factor itself, at p = 2 with the trivial twist:
for fac in std_factor_lift(f, trivial_char(), 2):
    print(f"\nstandard degree-4 factor (norm {fac.norm}):")
    for j, c in enumerate(fac.coeffs):
        print(f"   X^{j}: {c}")
