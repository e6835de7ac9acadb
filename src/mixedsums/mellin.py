"""Mellin transforms of the mixed sums and their closed forms in terms of
Gauss and Jacobi sums, plus the helper sums used to relate the two and the
inverse transform that reconstructs V from its character spectrum.

Every "direct" function is a literal character sum; every "closed"
function evaluates Gauss-sum expressions from the per-field cache.  The
verification suites compare the two routes, so the pairs are kept strictly
independent of each other.

Characters enter as integer exponents (m stands for chi_m, reduced mod
q-1), and the closed forms work elementwise over exponent arrays; only
hyper_kernel_closed, the one-value view of hyper_kernel_closed_row, reads
the exponent off a MultChar.
"""

from __future__ import annotations

import numpy as np

from .gf import FieldError, FieldTable, ZeroArgument
from .chars import MultChar, dft, unit_roots
from .mixed import MixedSumContext, mixed_table, state_vector
from .sums import exponent_sweep, gauss_table, hyp2f1_many, jacobi


class FourthPowerTrivial(FieldError):
    pass


def _gauss(f: FieldTable, m) -> np.ndarray:
    """G(chi_m), elementwise over the exponent array m."""
    return gauss_table(f)[np.mod(m, f.q - 1)]


def _char_at(f: FieldTable, m, x) -> np.ndarray:
    """chi_m(x) for nonzero element indices x, elementwise over the
    broadcast arrays m and x."""
    return unit_roots(f)[np.mod(np.multiply(m, f.log_table[x]), f.q - 1)]


def _gauss_pairs(ctx: MixedSumContext, nu) -> list[np.ndarray]:
    """[G(nu A4^(k-1)) G(nu A4^k) for k = 0..3], elementwise over the
    exponent array nu: the Gauss-sum pairs every closed form is built of."""
    f, e = ctx.field, ctx.A4.m
    return [_gauss(f, nu + (k - 1) * e) * _gauss(f, nu + k * e) for k in range(4)]


# --- Mellin transform of V ---


def mellin_v_all(ctx: MixedSumContext) -> np.ndarray:
    """S(chi_m) = sum over j != 0 of chi_m(j) V(j), for all m at once,
    as one DFT over log j."""
    f = ctx.field
    return dft(f, state_vector(ctx)[f.exp_table])


def _root_sum(ctx: MixedSumContext, nu) -> np.ndarray:
    """conj(nu)(a) sum over k of conj(A4)^(k-1)(a) G(nu A4^(k-1)) G(nu A4^k),
    the factor S(nu^4) and T(nu^4) share."""
    f, e = ctx.field, ctx.A4.m
    nu = np.asarray(nu)
    total = sum(_char_at(f, (1 - k) * e, ctx.a) * g for k, g in enumerate(_gauss_pairs(ctx, nu)))
    return _char_at(f, -nu, ctx.a) * total


def mellin_v_closed_root(ctx: MixedSumContext, nu) -> np.ndarray:
    """Gauss-sum evaluation of S(nu^4) for explicit fourth roots nu
    (an exponent array)."""
    return _root_sum(ctx, nu) / ctx.tau


def mellin_v_closed(ctx: MixedSumContext, m) -> np.ndarray:
    """Closed form of S(chi_m) for an exponent array m: exactly 0 unless
    4 | m, else evaluated at the root chi_(m/4), m reduced mod q-1."""
    m = np.mod(m, ctx.field.q - 1)
    return np.where(m % 4 == 0, mellin_v_closed_root(ctx, m // 4), 0.0)


def mellin_v_octic(ctx: MixedSumContext) -> complex:
    """S(phi) written through the octic character chi_o, o = +-(q-1)/8 with
    the sign that makes chi_o^2 the context's quartic character; valid when
    8 | q-1."""
    f = ctx.field
    if (f.q - 1) % 8 != 0:
        raise FieldError("no octic character: 8 does not divide q-1")
    o = (f.q - 1) // 8
    if ctx.A4.m != 2 * o:
        o = -o
    a = ctx.a
    total = (
        _char_at(f, o, a) * _gauss(f, o) * _gauss(f, -o)
        + _char_at(f, 5 * o, a) * _gauss(f, 3 * o) * _gauss(f, -3 * o)
        + _char_at(f, 3 * o, a) * _gauss(f, -o) * _gauss(f, -3 * o)
        + _char_at(f, -o, a) * _gauss(f, o) * _gauss(f, 3 * o)
    )
    return complex(total / ctx.tau)


def v_moment_sum(ctx: MixedSumContext, lam: int) -> complex:
    """sum over x != 0 of A4(x) conj(lam)(x + a/x), lam = chi_lam."""
    f = ctx.field
    x = f.units()
    args = f.add(x, f.mul(ctx.a, f.inv_table[x]))
    return complex(np.sum(ctx.A4(x) * MultChar(f, -lam).values()[args]))


# --- Mellin transform of P(j, 0) ---


def mellin_p0_all(ctx: MixedSumContext) -> np.ndarray:
    """T(chi_m) = sum over j != 0 of chi_m(j) P(j, 0), for all m at once."""
    f = ctx.field
    return dft(f, mixed_table(ctx)[f.exp_table, 0])


def mellin_p0_closed_root(ctx: MixedSumContext, nu) -> np.ndarray:
    """Gauss-sum evaluation of T(nu^4) for explicit fourth roots nu
    (an exponent array)."""
    f, e = ctx.field, ctx.A4.m
    prefac = (_char_at(f, -e, ctx.a) * _gauss(f, e) + _gauss(f, -e)) / f.q
    return _char_at(f, e, f.neg_table[1]) * prefac * _root_sum(ctx, nu)


def mellin_p0_closed(ctx: MixedSumContext, m) -> np.ndarray:
    """Closed form of T(chi_m) for an exponent array m: exactly 0 unless
    4 | m, else evaluated at the root chi_(m/4), m reduced mod q-1."""
    m = np.mod(m, ctx.field.q - 1)
    return np.where(m % 4 == 0, mellin_p0_closed_root(ctx, m // 4), 0.0)


def kummer_closed(ctx: MixedSumContext, nu) -> np.ndarray:
    """Gauss-sum value of the 2F1 with parameters (nu^2, nu*A4; nu*conj(A4))
    at -1, from the finite-field analogue of Kummer's summation formula,
    for an exponent array nu.  Requires every nu^4 nontrivial."""
    f = ctx.field
    nu = np.asarray(nu)
    if np.any(np.mod(4 * nu, f.q - 1) == 0):
        raise FourthPowerTrivial("nu^4 must be nontrivial")
    e = ctx.A4.m
    h = (f.q - 1) // 2
    num = _char_at(f, e, f.neg_table[1]) * _gauss(f, nu + e) * (
        _gauss(f, nu) * _gauss(f, e) + _gauss(f, nu + h) * _gauss(f, -e)
    )
    return num / (f.q * _gauss(f, h) * _gauss(f, 2 * nu))


def axis_sum(ctx: MixedSumContext, lam: int) -> complex:
    """Sum over the locus x + a/x = 0 of phi(x - a/x) times the full
    character sum of lam*A4 plus lam*conj(A4) over F_q*, lam = chi_lam."""
    f, e = ctx.field, ctx.A4.m
    x = f.units()
    ax = f.mul(ctx.a, f.inv_table[x])
    on_axis = f.add(x, ax) == 0
    phi_vals = ctx.phi.values()[f.sub(x, ax)]
    j_sum = np.sum(_char_at(f, lam + e, x) + _char_at(f, lam - e, x))
    return complex(np.sum(phi_vals[on_axis]) * j_sum)


def p0_locus_sum(ctx: MixedSumContext, lam: int) -> complex:
    """G(lam*A4) * sum over x != 0 of phi(x - a/x) conj(lam*A4)(x + a/x),
    lam = chi_lam."""
    f = ctx.field
    mu = lam + ctx.A4.m  # lam*A4
    x = f.units()
    ax = f.mul(ctx.a, f.inv_table[x])
    w = ctx.phi.values()[f.sub(x, ax)] * MultChar(f, -mu).values()[f.add(x, ax)]
    return complex(_gauss(f, mu) * np.sum(w))


# --- double Mellin transform of P(j, k) ---


def cross_form(ctx: MixedSumContext, j, x):
    """The quadratic form x (j+1)^2 + a (j-1)^2 / x; never 0 at j = +-1."""
    f = ctx.field
    if np.any(np.asarray(x) == 0):
        raise ZeroArgument("x must be nonzero")
    jp = f.add(j, 1)
    jm = f.sub(j, 1)
    return f.add(f.mul(x, f.mul(jp, jp)), f.mul(f.mul(ctx.a, f.mul(jm, jm)), f.inv_table[x]))


def hyper_kernel_row(ctx: MixedSumContext, js) -> np.ndarray:
    """h(D, j) = sum over x != 0 of D(x) phi(1-x) (conj(D)^2 phi)(x (j+1)^2 + (j-1)^2)
    for every j in js (all nonzero) and every character D = chi_m, as a
    (len(js), q-1) table indexed [j, m].

    For D = chi_m each term is zeta^(m k) times a part free of m, with
    k = log x - 2 log(x (j+1)^2 + (j-1)^2), so one exponent sweep covers
    every character."""
    f = ctx.field
    qm1 = f.q - 1
    js = np.asarray(js)
    if np.any(js == 0):
        raise ZeroArgument("j must be nonzero")
    x = np.arange(2, f.q)  # phi(1-x) vanishes at x = 1
    jp = f.add(js, 1)
    jm = f.sub(js, 1)
    args = f.add(f.mul(x, f.mul(jp, jp)[:, None]), f.mul(jm, jm)[:, None])
    lx, largs = f.log_table[x], f.log_table[args]
    w = unit_roots(f)[np.mod(ctx.phi.m * (f.log_table[f.sub(1, x)] + largs), qm1)]
    w[args == 0] = 0.0
    return exponent_sweep(f, lx - 2 * largs, w)


def hyper_kernel_closed(ctx: MixedSumContext, D: MultChar, j) -> complex:
    return complex(hyper_kernel_closed_row(ctx, [int(j)])[0, D.m])


def hyper_kernel_closed_row(ctx: MixedSumContext, js) -> np.ndarray:
    """Closed form of hyper_kernel_row, a (len(js), q-1) table indexed
    [j, m]: G(D)^2 G(phi) / G(D^2 phi) 2F1(D, D A4; A4 | j^4) for D = chi_m,
    with direct evaluations in the trivial and quartic columns."""
    f = ctx.field
    qm1 = f.q - 1
    js = np.asarray(js)
    if np.any(js == 0):
        raise ZeroArgument("j must be nonzero")
    e, h = ctx.A4.m, ctx.phi.m
    m = np.arange(qm1)
    j2 = f.mul(js, js)
    j4 = f.mul(j2, j2)
    pref = _gauss(f, m) ** 2 * _gauss(f, h) / _gauss(f, 2 * m + h)
    out = pref * hyp2f1_many(f, (1, 0), (1, e), (0, e), j4)
    out[:, 0] = -2.0 + f.q * (j2 == f.neg_table[1]) + 1.0 * (j2 == 1)
    quartic = [qm1 // 4, 3 * qm1 // 4]
    out[:, quartic] = jacobi(f, quartic, h) - ctx.phi(f.sub(j4, 1))[:, None]
    return out


def null_locus_sum(ctx: MixedSumContext, lam1) -> np.ndarray:
    """Sum of chi1(j) phi(x - a/x) over the zero locus of the cross form,
    where chi1 = lam1^2 phi, for an exponent array lam1.  The locus is
    found once, in FieldTable.blocks rows of j, and chi1(j) =
    zeta^(lam1 2 log j) phi(j), so one exponent sweep covers every lam1."""
    f = ctx.field
    x = f.units()
    ax = f.mul(ctx.a, f.inv_table[x])
    js, xs = [], []
    for jb in f.blocks(f.units()):  # at most two x per j, so the locus is O(q)
        jl, xl = np.nonzero(cross_form(ctx, jb[:, None], x) == 0)
        js.append(jb[jl])
        xs.append(xl)
    j, xl = np.concatenate(js), np.concatenate(xs)
    w = ctx.phi.values()[f.sub(x, ax)][xl] * ctx.phi(j)
    return exponent_sweep(f, 2 * f.log_table[j], w)[np.mod(lam1, f.q - 1)]


def null_locus_closed(ctx: MixedSumContext, nu1) -> np.ndarray:
    """(A4(a) + conj(A4)(a)) * sum over m of J(nu1 A4^m, phi), for an
    exponent array nu1."""
    f, e = ctx.field, ctx.A4.m
    jsum = sum(jacobi(f, np.add(nu1, k * e), ctx.phi.m) for k in range(4))
    return (_char_at(f, e, ctx.a) + _char_at(f, -e, ctx.a)) * jsum


def cross_form_sum(ctx: MixedSumContext, lam1: int, lam2: int) -> complex:
    """Double sum of chi1(j) phi(x - a/x) conj(lam1 lam2)(alpha(j, x)),
    chi1 = lam1^2 phi, lam1 = chi_lam1 and lam2 = chi_lam2."""
    f = ctx.field
    x = f.units()
    j = f.units()
    ax = f.mul(ctx.a, f.inv_table[x])
    alpha = cross_form(ctx, j[:, None], x[None, :])
    vals = MultChar(f, -(lam1 + lam2)).values()[alpha]
    w = _char_at(f, 2 * lam1 + ctx.phi.m, j)[:, None] * ctx.phi.values()[f.sub(x, ax)][None, :]
    return complex(np.sum(w * vals))


def double_mellin_matrix(ctx: MixedSumContext) -> np.ndarray:
    """T(chi_m1, chi_m2) = sum over j, k != 0 of chi_m1(j) chi_m2(k) P(j, k),
    for all pairs, as one 2-D DFT over (log j, log k), run in place in the
    gather of P in log order, so the step holds P and T only."""
    f = ctx.field
    T = mixed_table(ctx)[np.ix_(f.exp_table, f.exp_table)]
    return dft(f, T, axes=(0, 1), out=T)


def double_mellin_closed(ctx: MixedSumContext, nu1, nu2) -> np.ndarray:
    """Gauss-sum evaluation of T(nu1^4, nu2^4), elementwise over the
    broadcast exponent arrays nu1 and nu2."""
    f, e = ctx.field, ctx.A4.m
    mu = np.add(nu1, nu2)
    g1, g2 = _gauss_pairs(ctx, np.asarray(nu1)), _gauss_pairs(ctx, np.asarray(nu2))
    total = sum(_char_at(f, -mu - (m + n) * e, ctx.a) * g1[n] * g2[m]
                for m in range(4) for n in range(4))
    return _char_at(f, e, f.neg_table[ctx.a]) * total / f.q


def pair_coeffs(ctx: MixedSumContext, nu1) -> np.ndarray:
    """Coefficients (R0, R1, R2, R3) of the quartic-value expansion
    T(chi1, conj(chi1)) = sum_k R_k A4(a)^k, chi1 = nu1^4, in Jacobi-sum
    form, on a last axis of length 4 after the shape of the exponent array
    nu1."""
    f = ctx.field
    q, e, h = f.q, ctx.A4.m, ctx.phi.m
    nu1 = np.asarray(nu1)
    d = np.mod(4 * nu1, q - 1) == 0
    jsum = sum(jacobi(f, nu1 + k * e, h) for k in range(4))
    g_phi = _gauss(f, h)
    r0 = 4 * q - (2 * q - 2) * d
    r1 = (q * jsum - d * (q - 1) * jacobi(f, -e, h)) / g_phi
    r3 = (q * jsum - d * (q - 1) * jacobi(f, e, h)) / g_phi
    r2 = sum(jacobi(f, -nu1 - (k + 1) * e, h) * jacobi(f, nu1 + k * e, h) for k in range(4))
    return np.stack([r0, r1, r2, r3], axis=-1)


def pair_coeffs_gauss(ctx: MixedSumContext, nu1) -> np.ndarray:
    """The same coefficients as quadruple Gauss-sum sums restricted to
    m + n == 1 - k (mod 4), on a last axis of length 4."""
    f = ctx.field
    nu1 = np.asarray(nu1)
    g, gbar = _gauss_pairs(ctx, nu1), _gauss_pairs(ctx, -nu1)
    out = [sum(g[(1 - k - m) % 4] * gbar[m] for m in range(4)) for k in range(4)]
    return _char_at(f, ctx.A4.m, f.neg_table[1]) * np.stack(out, axis=-1) / f.q


def inverse_mellin(field: FieldTable, spec, j) -> np.ndarray:
    """Reconstruct f(j) from the q-1 transform values spec[m] = F(chi_m) via
    orthogonality: (1/(q-1)) sum over m of conj(chi_m)(j) spec[m], for every
    nonzero element index in the array j.  That sum is the DFT of spec at
    the log index -log j."""
    j = np.asarray(j)
    if np.any(j == 0):
        raise ZeroArgument("inverse transform is defined on F_q* only")
    return dft(field, spec)[np.mod(-field.log_table[j], field.q - 1)] / (field.q - 1)
