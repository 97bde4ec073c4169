"""Hecke operators on lifts: invariance and descent.

Inert primes act on lifts through raw double-coset sums;
split primes act in closed form on the generating function.  Both
preserve the Maass space, and both descend to explicit polynomials in the
classical elliptic Hecke operator.
"""

from hermlift import (
    FieldParams,
    HeckeOpId,
    HeckeRing,
    a_K,
    act_inert_T0,
    act_split_on_lift,
    build_lift,
    check_maass,
    descend,
    descend_op,
    maass_eigenvalue,
    random_alpha_tuple,
    synthetic_newform,
    trivial_char,
)

ring = HeckeRing([1, 0, 1])
params = FieldParams(7, 8)
chi = trivial_char()

# Invariance needs no eigenform structure at all: any divisor-sum table
# is mapped to a divisor-sum table.
t = random_alpha_tuple(params, chi, ring, n_max=9 * 7 * 16 + 20, seed=7)
out = act_inert_T0(t, 3, 7 * 16, 4)
ok, alpha_out = check_maass(out)
print("T_{3,0} of a random divisor-sum table is again one:", ok)

# On the lift of an eigenform every operator acts by an explicit scalar.
f = synthetic_newform(params, ring, "negate-x", p_max=7 * 64 * 4 + 40, seed=2)
t = build_lift(f, chi, 7 * 64 * 4)
op = HeckeOpId.make("SplitT1", 2, 7)
acted = act_split_on_lift(t, op)
lam, _ = maass_eigenvalue(f, chi, op)
print(f"\nT1@2 eigenvalue p^(2-k/2)(p+1)a(2) = {lam}")
print(
    "tuple is an eigenvector:",
    all(acted.alpha_at(n) == lam * t.alpha_at(n) for n in range(1, acted.alpha_max + 1)),
)

# The descent intertwines the hermitian action with a polynomial in the
# classical T_p: here for the inert generator at p = 3.
dop = descend_op(HeckeOpId.make("InertT0", 3, 7), k=8)
print("\nInert T0@3 descends to", dict(dop.tp_poly), "in the classical T_3")

psi = descend(t, 7 * 64)[0][1]
rhs = dop.apply_to_qexp(psi, 8, 7)
from hermlift import eval_inert_raw, point

h5 = point(7, 1, 1, 0, 1)  # primitive, determinant 5
raw = eval_inert_raw(t, "InertT0", 3, [h5])[h5]
print("diagram commutes at n = 5:", raw * a_K(7, 5) == rhs.a(5))
