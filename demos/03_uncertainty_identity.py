"""The product identity P(j,k) = V(j) V(k).

Builds the mixed exponential sum table P and the minimum-uncertainty state
vector V over several fields and parameters a, and shows that the q x q
table factors exactly as an outer product.  state_vector keeps V, and
mixed_table P on both axes, in one log order (index s for g^s, the last
for 0), so P and np.outer(V, V) compare as they are; element_order reads
single values by element.
"""

import numpy as np

from mixedsums import build_field, make_context, mixed_table, state_vector
from mixedsums.mixed import element_order

for p, n in [(5, 1), (13, 1), (3, 2), (17, 1)]:
    f = build_field(p, n)
    worst = 0.0
    for a in range(1, f.q):
        ctx = make_context(f, a)
        P = mixed_table(ctx)   # direct double sum, all (j, k)
        V = state_vector(ctx)  # single sums plus the corner value V(0)
        worst = max(worst, float(np.abs(P - np.outer(V, V)).max()))
    print(f"q = {f.q:2d}: max |P - V x V| over all a = {worst:.3e}")

# A closer look at one instance: the table is real and symmetric, and the
# corner entry P(0,0) has its own two-term closed value.
f = build_field(13, 1)
ctx = make_context(f, 2)
P = mixed_table(ctx)
V = state_vector(ctx)
zero = element_order(f)[0]  # where the element 0 sits
print(f"\nq = 13, a = 2: tau = {ctx.tau:.6f}")
print(f"  max imaginary part of P: {np.abs(P.imag).max():.2e}")
print(f"  max |P - P^T|:           {np.abs(P - P.T).max():.2e}")
print(f"  V(0)^2 = {V[zero] ** 2:.6f}, P(0,0) = {P[zero, zero]:.6f}")
