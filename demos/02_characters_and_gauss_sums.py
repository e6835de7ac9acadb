"""Characters and the classical sum layer.

Enumerates the multiplicative character group of F_13, evaluates the
additive character, and checks the textbook Gauss/Jacobi facts numerically.
"""

import numpy as np

from mixedsums import (
    all_chars,
    build_field,
    eval_add,
    gauss,
    jacobi,
    quadratic_char,
    quartic_char,
    trivial_char,
)

f = build_field(13, 1)
chars = all_chars(f)
print(f"F_13 has {len(chars)} multiplicative characters: {chars[:4]} ...")

eps = trivial_char(f)
phi = quadratic_char(f)
A4 = quartic_char(f)
print(f"quadratic character of -1: {phi(f.neg(1)):+.0f}")
print(f"quartic character of the generator: {A4(f.g):+.3f}")

# The additive character sums to zero over the whole field.
total = sum(eval_add(f, y) for y in range(13))
print(f"sum of additive character over F_13: {abs(total):.2e}")

# |G(chi)| = sqrt(q) for nontrivial chi; G(eps) = -1.
print(f"G(eps) = {gauss(eps).real:+.0f}")
for chi in (phi, A4):
    g = gauss(chi)
    print(f"|G({chi})| = {abs(g):.6f}  (sqrt(13) = {np.sqrt(13):.6f})")

# Jacobi sums factor through Gauss sums when chi1*chi2 is nontrivial.
j = jacobi(f, phi.m, A4.m)  # characters enter as their exponents
g_ratio = gauss(phi) * gauss(A4) / gauss(phi * A4)
print(f"J(phi, A4) = {j:.6f}, Gauss-sum ratio = {g_ratio:.6f}, "
      f"difference = {abs(j - g_ratio):.2e}")
