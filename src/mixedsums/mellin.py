"""Mellin transforms of the mixed sums and their closed forms in terms of
Gauss and Jacobi sums, plus the helper sums used to relate the two and the
inverse transform that reconstructs V from its character spectrum.

Every "direct" function is a literal character sum; every "closed"
function evaluates Gauss-sum expressions from the per-field cache.  The
verification suites compare the two routes, so the pairs are kept strictly
independent of each other.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .gf import FieldError, ZeroArgument
from .chars import MultChar, char_matrix, fourth_root, is_fourth_power, unit_roots
from .mixed import MixedSumContext, mixed_table, state_vector
from .sums import gauss, hyp2f1_many, jacobi


class FourthPowerTrivial(FieldError):
    pass


# --- Mellin transform of V ---


def mellin_v_all(ctx: MixedSumContext) -> np.ndarray:
    """S(chi_m) = sum over j != 0 of chi_m(j) V(j), for all m at once,
    through the character matrix."""
    f = ctx.field
    return char_matrix(f) @ state_vector(ctx)[f.exp_table]


def mellin_v_closed_root(ctx: MixedSumContext, nu: MultChar) -> complex:
    """Gauss-sum evaluation of S(nu^4) for an explicit fourth root nu."""
    f = ctx.field
    A4 = ctx.A4
    nubar_a = nu.conj()(ctx.a)
    total = 0.0 + 0.0j
    for m in range(4):
        total += (A4 ** (1 - m))(ctx.a) * gauss(nu * A4 ** (m - 1)) * gauss(nu * A4**m)
    return nubar_a * total / ctx.tau


def mellin_v_closed(ctx: MixedSumContext, chi: MultChar) -> complex:
    """Closed form of S(chi): exactly 0 unless chi is a fourth power."""
    if not is_fourth_power(chi):
        return 0.0 + 0.0j
    return mellin_v_closed_root(ctx, fourth_root(chi))


def mellin_v_octic(ctx: MixedSumContext) -> complex:
    """S(phi) written through the octic character, valid when 8 | q-1."""
    f = ctx.field
    if (f.q - 1) % 8 != 0:
        raise FieldError("no octic character: 8 does not divide q-1")
    A8 = MultChar(f, (f.q - 1) // 8)
    if ctx.A4.m != (f.q - 1) // 4:
        A8 = A8.conj()  # keep A8^2 equal to the context's quartic character
    a = ctx.a
    total = (
        A8(a) * gauss(A8) * gauss(A8.conj())
        + (A8**5)(a) * gauss(A8**3) * gauss((A8**3).conj())
        + (A8**3)(a) * gauss(A8.conj()) * gauss((A8**3).conj())
        + A8.conj()(a) * gauss(A8) * gauss(A8**3)
    )
    return total / ctx.tau


def v_moment_sum(ctx: MixedSumContext, lam: MultChar) -> complex:
    """sum over x != 0 of A4(x) conj(lam)(x + a/x)."""
    f = ctx.field
    x = f.units()
    args = f.add(x, f.mul(ctx.a, f.inv_table[x]))
    return complex(np.sum(ctx.A4.values()[x] * lam.conj().values()[args]))


# --- Mellin transform of P(j, 0) ---


def mellin_p0_all(ctx: MixedSumContext) -> np.ndarray:
    """T(chi_m) = sum over j != 0 of chi_m(j) P(j, 0), for all m at once."""
    f = ctx.field
    return char_matrix(f) @ mixed_table(ctx)[f.exp_table, 0]


def mellin_p0_closed_root(ctx: MixedSumContext, nu: MultChar) -> complex:
    f = ctx.field
    A4 = ctx.A4
    neg_one = f.neg_table[1]
    prefac = A4(neg_one) * (A4.conj()(ctx.a) * gauss(A4) + gauss(A4.conj())) / f.q
    total = 0.0 + 0.0j
    for m in range(4):
        total += (A4 ** (1 - m))(ctx.a) * gauss(nu * A4**m) * gauss(nu * A4 ** (m - 1))
    return prefac * nu.conj()(ctx.a) * total


def mellin_p0_closed(ctx: MixedSumContext, chi: MultChar) -> complex:
    if not is_fourth_power(chi):
        return 0.0 + 0.0j
    return mellin_p0_closed_root(ctx, fourth_root(chi))


def kummer_closed(ctx: MixedSumContext, nu: MultChar) -> complex:
    """Gauss-sum value of the 2F1 with parameters (nu^2, nu*A4; nu*conj(A4))
    at -1, from the finite-field analogue of Kummer's summation formula.
    Requires nu^4 nontrivial."""
    f = ctx.field
    if (nu**4).is_trivial():
        raise FourthPowerTrivial("nu^4 must be nontrivial")
    A4 = ctx.A4
    phi = ctx.phi
    neg_one = f.neg_table[1]
    num = A4(neg_one) * gauss(nu * A4) * (
        gauss(nu) * gauss(A4) + gauss(nu * phi) * gauss(A4.conj())
    )
    return num / (f.q * gauss(phi) * gauss(nu**2))


def axis_sum(ctx: MixedSumContext, lam: MultChar) -> complex:
    """Sum over the locus x + a/x = 0 of phi(x - a/x) times the full
    character sum of lam*A4 plus lam*conj(A4) over F_q*."""
    f = ctx.field
    x = f.units()
    ax = f.mul(ctx.a, f.inv_table[x])
    on_axis = f.add(x, ax) == 0
    phi_vals = ctx.phi.values()[f.sub(x, ax)]
    j_sum = np.sum((lam * ctx.A4).values()[x] + (lam * ctx.A4.conj()).values()[x])
    return complex(np.sum(phi_vals[on_axis]) * j_sum)


def p0_locus_sum(ctx: MixedSumContext, lam: MultChar) -> complex:
    """G(lam*A4) * sum over x != 0 of phi(x - a/x) conj(lam*A4)(x + a/x)."""
    f = ctx.field
    x = f.units()
    ax = f.mul(ctx.a, f.inv_table[x])
    w = ctx.phi.values()[f.sub(x, ax)] * (lam * ctx.A4).conj().values()[f.add(x, ax)]
    return complex(gauss(lam * ctx.A4) * np.sum(w))


# --- double Mellin transform of P(j, k) ---


def cross_form(ctx: MixedSumContext, j, x):
    """The quadratic form x (j+1)^2 + a (j-1)^2 / x; never 0 at j = +-1."""
    f = ctx.field
    if np.any(np.asarray(x) == 0):
        raise ZeroArgument("x must be nonzero")
    jp = f.add(j, 1)
    jm = f.sub(j, 1)
    return f.add(f.mul(x, f.mul(jp, jp)), f.mul(f.mul(ctx.a, f.mul(jm, jm)), f.inv_table[x]))


def hyper_kernel(ctx: MixedSumContext, D: MultChar, j) -> complex:
    """h(D, j) = sum over x != 0 of D(x) phi(1-x)
    (conj(D)^2 phi)(x (j+1)^2 + (j-1)^2), for j != 0."""
    return complex(hyper_kernel_row(ctx, D, np.asarray([int(j)]))[0])


def hyper_kernel_row(ctx: MixedSumContext, D: MultChar, js: np.ndarray) -> np.ndarray:
    """hyper_kernel at every j in js (all nonzero), vectorized."""
    f = ctx.field
    js = np.asarray(js)
    if np.any(js == 0):
        raise ZeroArgument("j must be nonzero")
    x = f.units()
    w = D.values()[x] * ctx.phi.values()[f.sub(1, x)]
    Dbar2phi = ((D.conj() ** 2) * ctx.phi).values()
    jp = f.add(js, 1)
    jm = f.sub(js, 1)
    args = f.add(f.mul(x[None, :], f.mul(jp, jp)[:, None]), f.mul(jm, jm)[:, None])
    return (w[None, :] * Dbar2phi[args]).sum(axis=1)


def hyper_kernel_closed(ctx: MixedSumContext, D: MultChar, j) -> complex:
    return complex(hyper_kernel_closed_row(ctx, D, np.asarray([int(j)]))[0])


def hyper_kernel_closed_row(ctx: MixedSumContext, D: MultChar, js: np.ndarray) -> np.ndarray:
    """Closed form of hyper_kernel: direct evaluations for D trivial or
    quartic, a hypergeometric Gauss-sum expression otherwise."""
    f = ctx.field
    js = np.asarray(js)
    if np.any(js == 0):
        raise ZeroArgument("j must be nonzero")
    phi = ctx.phi
    j2 = f.mul(js, js)
    j4 = f.mul(j2, j2)
    neg_one = f.neg_table[1]
    if D.is_trivial():
        out = -2.0 + f.q * (j2 == neg_one) + 1.0 * (j2 == 1)
        return out.astype(complex)
    quarter = (f.q - 1) // 4
    if D.m in (quarter, 3 * quarter):
        return jacobi(D, phi) - phi.values()[f.sub(j4, 1)]
    pref = gauss(D) ** 2 * gauss(phi) / gauss((D**2) * phi)
    return pref * hyp2f1_many(D, D * ctx.A4, ctx.A4, j4)


def null_locus_sum(ctx: MixedSumContext, lam1: MultChar) -> complex:
    """Sum of chi1(j) phi(x - a/x) over the zero locus of the cross form,
    where chi1 = lam1^2 phi."""
    f = ctx.field
    chi1 = (lam1**2) * ctx.phi
    x = f.units()
    j = f.units()
    ax = f.mul(ctx.a, f.inv_table[x])
    alpha = cross_form(ctx, j[:, None], x[None, :])
    w = chi1.values()[j][:, None] * ctx.phi.values()[f.sub(x, ax)][None, :]
    return complex(np.sum(w[alpha == 0]))


def null_locus_closed(ctx: MixedSumContext, nu1: MultChar) -> complex:
    """(A4(a) + conj(A4)(a)) * sum over m of J(nu1 A4^m, phi)."""
    A4 = ctx.A4
    jsum = sum(jacobi(nu1 * A4**m, ctx.phi) for m in range(4))
    return complex((A4(ctx.a) + A4.conj()(ctx.a)) * jsum)


def cross_form_sum(ctx: MixedSumContext, lam1: MultChar, lam2: MultChar) -> complex:
    """Double sum of chi1(j) phi(x - a/x) conj(lam1 lam2)(alpha(j, x))."""
    f = ctx.field
    chi1 = (lam1**2) * ctx.phi
    x = f.units()
    j = f.units()
    ax = f.mul(ctx.a, f.inv_table[x])
    alpha = cross_form(ctx, j[:, None], x[None, :])
    vals = (lam1 * lam2).conj().values()[alpha]
    w = chi1.values()[j][:, None] * ctx.phi.values()[f.sub(x, ax)][None, :]
    return complex(np.sum(w * vals))


def double_mellin_matrix(ctx: MixedSumContext) -> np.ndarray:
    """T(chi_m1, chi_m2) = sum over j, k != 0 of chi_m1(j) chi_m2(k) P(j, k),
    for all pairs, via two character-matrix products."""
    f = ctx.field
    C = char_matrix(f)
    Pg = mixed_table(ctx)[np.ix_(f.exp_table, f.exp_table)]
    return C @ Pg @ C.T


def double_mellin_closed(ctx: MixedSumContext, nu1: MultChar, nu2: MultChar) -> complex:
    """Gauss-sum evaluation of T(nu1^4, nu2^4)."""
    f = ctx.field
    A4 = ctx.A4
    mu = nu1 * nu2
    neg_a = f.neg_table[ctx.a]
    total = 0.0 + 0.0j
    for m in range(4):
        gm = gauss(nu2 * A4 ** (m - 1)) * gauss(nu2 * A4**m)
        for n in range(4):
            coeff = (mu.conj() * (A4.conj() ** (m + n)))(ctx.a)
            total += coeff * gauss(nu1 * A4 ** (n - 1)) * gauss(nu1 * A4**n) * gm
    return A4(neg_a) * total / f.q


def pair_coeffs(ctx: MixedSumContext, nu1: MultChar) -> tuple[complex, complex, complex, complex]:
    """Coefficients (R0, R1, R2, R3) of the quartic-value expansion
    T(chi1, conj(chi1)) = sum_k R_k A4(a)^k, in Jacobi-sum form."""
    f = ctx.field
    A4 = ctx.A4
    phi = ctx.phi
    chi1 = nu1**4
    d = 1 if chi1.is_trivial() else 0
    jsum = sum(jacobi(nu1 * A4**m, phi) for m in range(4))
    g_phi = gauss(phi)
    r0 = complex(4 * f.q - (2 * f.q - 2) * d)
    r1 = (f.q * jsum - d * (f.q - 1) * jacobi(A4.conj(), phi)) / g_phi
    r3 = (f.q * jsum - d * (f.q - 1) * jacobi(A4, phi)) / g_phi
    r2 = sum(
        jacobi(nu1.conj() * (A4.conj() ** (m + 1)), phi) * jacobi(nu1 * A4**m, phi)
        for m in range(4)
    )
    return r0, complex(r1), complex(r2), complex(r3)


def pair_coeffs_gauss(ctx: MixedSumContext, nu1: MultChar) -> tuple[complex, complex, complex, complex]:
    """The same coefficients as quadruple Gauss-sum sums restricted to
    m + n == 1 - k (mod 4)."""
    f = ctx.field
    A4 = ctx.A4
    neg_one = f.neg_table[1]
    out = []
    for k in range(4):
        total = 0.0 + 0.0j
        for m in range(4):
            for n in range(4):
                if (m + n) % 4 != (1 - k) % 4:
                    continue
                total += (
                    gauss(nu1 * A4 ** (n - 1))
                    * gauss(nu1 * A4**n)
                    * gauss(nu1.conj() * A4 ** (m - 1))
                    * gauss(nu1.conj() * A4**m)
                )
        out.append(A4(neg_one) * total / f.q)
    return tuple(out)


def inverse_mellin(values, j, field=None) -> complex:
    """Reconstruct f(j) from all q-1 transform values via orthogonality:
    (1/(q-1)) sum over chi of conj(chi)(j) values(chi), j != 0.

    values may be a mapping MultChar -> complex or a sequence indexed by
    the character exponent (then field must be given).
    """
    if isinstance(values, Mapping):
        items = list(values.items())
        field = items[0][0].field
        spec = np.zeros(field.q - 1, dtype=complex)
        for chi, val in items:
            spec[chi.m] = val
    else:
        if field is None:
            raise ValueError("field is required for sequence input")
        spec = np.asarray(values, dtype=complex)
    j = int(j)
    if j == 0:
        raise ZeroArgument("inverse transform is defined on F_q* only")
    qm1 = field.q - 1
    t = int(field.log_table[j])
    phases = unit_roots(field)[(-np.arange(qm1) * t) % qm1]
    return complex(np.sum(phases * spec) / qm1)
