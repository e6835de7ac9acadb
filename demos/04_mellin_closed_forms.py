"""Mellin transforms of V and P and their Gauss-sum closed forms.

Sweeps every multiplicative character chi of F_13, compares the directly
summed transforms S(chi) = sum_j V(j) chi(j) and T(chi) = sum_j P(j,0) chi(j)
against their closed forms, and inverts the transform to recover V.
A character chi_m is its exponent m, so each closed form is one call on
the array of all exponents.
"""

import numpy as np

from mixedsums import build_field, make_context, mixed_table, state_vector
from mixedsums import mellin as ml
from mixedsums.mixed import element_order

f = build_field(13, 1)
ctx = make_context(f, 3)
m = np.arange(f.q - 1)

direct_S = ml.mellin_v_all(ctx)
closed_S = ml.mellin_v_closed(ctx, m)
print("S(chi): transform of the state vector")
print(f"  nonzero entries (fourth powers only): "
      f"{m[np.abs(direct_S) > 1e-9].tolist()}")
print(f"  max |direct - closed| over all chi: "
      f"{np.abs(direct_S - closed_S).max():.3e}")

# V, and P on both axes, are in log order (index s for g^s, the last for 0),
# the layout the transforms read; element_order reads them by element.
P = mixed_table(ctx)
i = element_order(f)
zero_row = P[i, i[0]]  # P(j, 0) for j = 0..q-1
direct_T = ml.mellin_p0_all(f, P)
closed_T = ml.mellin_p0_closed(ctx, m)
print("T(chi): transform of the zero row of P")
print(f"  max |direct - closed| over all chi: "
      f"{np.abs(direct_T - closed_T).max():.3e}")
print(f"  |T(trivial) - sum of P(j, 0) over j != 0| = "
      f"{abs(direct_T[0] - zero_row[1:].sum()):.3e}")

# The double transform of the full table is the outer product of S with itself;
# it is computed in P's own buffer, which it uses up.
T2 = ml.double_mellin_matrix(f, P)
print(f"double transform: max |T - S x S| = "
      f"{np.abs(T2 - np.outer(direct_S, direct_S)).max():.3e}")

# Inverting the closed-form spectrum reproduces V pointwise.
V = state_vector(ctx)
js = f.units()
err = np.abs(ml.inverse_mellin(f, closed_S, js) - V[i[js]]).max()
print(f"inverse transform of the closed spectrum: max error = {err:.3e}")
