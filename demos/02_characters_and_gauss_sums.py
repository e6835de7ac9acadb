"""Characters and the classical sum layer.

A multiplicative character chi_m of F_13 is its exponent m: chi_m sends g^t
to exp(2*pi*i*m*t/12), and the product of chi_m and chi_n is chi_(m+n).
The demo evaluates the additive character, and checks the textbook
Gauss/Jacobi facts numerically over every exponent at once.
"""

import numpy as np

from mixedsums import MultChar, build_field, jacobi
from mixedsums.chars import psi_table
from mixedsums.sums import gauss_table

f = build_field(13, 1)
qm1 = f.q - 1
m = np.arange(qm1)  # every character, as its exponent
h, e = qm1 // 2, qm1 // 4  # the quadratic character phi and the quartic A4
print(f"F_13 has {qm1} multiplicative characters chi_0 ... chi_{qm1 - 1}")
print(f"quadratic character of -1: {MultChar(f, h)(f.neg(1)).real:+.0f}")
print(f"quartic character of the generator: {MultChar(f, e)(f.g):+.3f}")

# The additive character sums to zero over the whole field.
print(f"sum of additive character over F_13: {abs(psi_table(f).sum()):.2e}")

# |G(chi)| = sqrt(q) for nontrivial chi; G(chi_0) = -1.
G = gauss_table(f)
print(f"G(chi_0) = {G[0].real:+.0f}")
print(f"max ||G(chi_m)| - sqrt(13)| over m != 0: "
      f"{np.abs(np.abs(G[1:]) - np.sqrt(13)).max():.2e}")

# Jacobi sums factor through Gauss sums when chi_a chi_b is nontrivial.
# jacobi takes each character as a (slope, offset) pair (s, t), standing for
# chi_(s m + t), and returns the sum for every m at once: J(chi_m, A4) for
# every m is one sweep, read here at m = h.
j = jacobi(f, (1, 0), (0, e))[h]
g_ratio = G[h] * G[e] / G[(h + e) % qm1]
print(f"J(phi, A4) = {j:.6f}, Gauss-sum ratio = {g_ratio:.6f}, "
      f"difference = {abs(j - g_ratio):.2e}")
# An array of offsets gives one sweep per offset: row ma is J(chi_ma, chi_mb)
# over every mb.
table = jacobi(f, (0, m), (1, 0))
ma, mb = m[:, None], m[None, :]
nontrivial = (ma + mb) % qm1 != 0
ratio = G[ma] * G[mb] / G[(ma + mb) % qm1]
print(f"max |J - Gauss-sum ratio| over all {nontrivial.sum()} such pairs: "
      f"{np.abs(table - ratio)[nontrivial].max():.2e}")
