"""Scalar brute-force reference implementations used as test oracles.

Everything here is written with plain Python loops and cmath so the
expected values are computed independently of the vectorized library path.
"""

import cmath


def chi_val(f, m, x):
    if x == 0:
        return 0.0
    return cmath.exp(2j * cmath.pi * m * int(f.log_table[x]) / (f.q - 1))


def psi_val(f, y):
    return cmath.exp(2j * cmath.pi * int(f.trace_table[y]) / f.p)


def naive_gauss(f, m):
    return sum(chi_val(f, m, y) * psi_val(f, y) for y in range(f.q))


def naive_jacobi(f, ma, mb):
    return sum(chi_val(f, ma, y) * chi_val(f, mb, int(f.sub(1, y))) for y in range(f.q))


def naive_hyp2f1(f, ma, mb, mc, x):
    if x == 0:
        return 0.0
    total = 0.0
    for y in range(f.q):
        total += (
            chi_val(f, mb, y)
            * chi_val(f, mc - mb, int(f.sub(y, 1)))
            * chi_val(f, -ma, int(f.sub(1, f.mul(x, y))))
        )
    return total / f.q


def naive_mixed_sum(f, a, j, k):
    phi_m = (f.q - 1) // 2
    g_phi = naive_gauss(f, phi_m)
    total = 0.0
    for x in range(1, f.q):
        ax = f.mul(a, f.inv(x))
        s = f.mul(f.add(j, k), f.add(j, k))
        d = f.mul(f.sub(j, k), f.sub(j, k))
        arg = f.add(f.mul(x, s), f.mul(ax, d))
        total += chi_val(f, phi_m, int(f.sub(ax, x))) * psi_val(f, int(arg))
    val = total / g_phi
    if j == k:
        val += 1
    if j == f.neg(k):
        val += chi_val(f, phi_m, int(f.neg(1)))
    return val


def naive_state_value(f, a, tau, j):
    quarter = (f.q - 1) // 4
    total = 0.0
    aj4 = f.mul(a, f.pow(j, 4))
    for x in range(1, f.q):
        total += chi_val(f, quarter, x) * psi_val(f, int(f.add(x, f.mul(aj4, f.inv(x)))))
    return total / tau


def naive_mellin_v(f, V, m):
    """S(chi_m) = sum over j != 0 of chi_m(j) V(j)."""
    return sum(chi_val(f, m, j) * complex(V[j]) for j in range(1, f.q))


def naive_mellin_p0(f, P, m):
    """T(chi_m) = sum over j != 0 of chi_m(j) P(j, 0)."""
    return sum(chi_val(f, m, j) * complex(P[j][0]) for j in range(1, f.q))


def naive_double_mellin(f, P, m1, m2):
    """T(chi_m1, chi_m2) = sum over j, k != 0 of chi_m1(j) chi_m2(k) P(j, k)."""
    return sum(
        chi_val(f, m1, j) * chi_val(f, m2, k) * complex(P[j][k])
        for j in range(1, f.q)
        for k in range(1, f.q)
    )
