"""Mellin transforms of the mixed sums and their closed forms in terms of
Gauss and Jacobi sums, plus the helper sums used to relate the two and the
inverse transform that reconstructs V from its character spectrum.

Every "direct" function is a literal character sum; every "closed"
function evaluates Gauss- and Jacobi-sum expressions from per-field caches.
The verification suites compare the two routes, so the pairs are kept
strictly independent of each other.

Characters enter as integer exponents (m stands for chi_m, reduced mod
q-1), and the closed forms work elementwise over exponent arrays; only
hyper_kernel_closed, the one-value view of hyper_kernel_closed_row, reads
the exponent off a MultChar.  A function of a context with a batch of a
puts the a axis before the exponent axes (see mixed).
"""

from __future__ import annotations

import numpy as np

from .gf import FieldError, FieldTable, ZeroArgument
from .chars import MultChar, char_at, dft, unit_roots
from .mixed import MixedSumContext, per_a, state_vector
from .sums import exponent_sweep, gauss_table, hyp2f1_many, jacobi


class FourthPowerTrivial(FieldError):
    pass


def _gauss(f: FieldTable, m) -> np.ndarray:
    """G(chi_m), elementwise over the exponent array m."""
    return gauss_table(f)[np.mod(m, f.q - 1)]


def _jacobi_phi(f: FieldTable, m) -> np.ndarray:
    """J(chi_m, phi), elementwise over the exponent array m, read from one
    sweep over every m, cached per field."""
    qm1 = f.q - 1
    return f.cached("jacobi_phi", lambda f: jacobi(f, (1, 0), (0, qm1 // 2)))[np.mod(m, qm1)]


def _gauss_pairs(ctx: MixedSumContext, nu) -> np.ndarray:
    """G(nu A4^(k-1)) G(nu A4^k) for k = 0..3 on a leading axis, elementwise
    over the exponent array nu: the Gauss-sum pairs every closed form is
    built of, read from one (4, q-1) table cached per field and quartic
    exponent (run_main's W uses conj(A4))."""
    f, e = ctx.field, ctx.A4.m
    n = np.arange(f.q - 1)
    pairs = f.cached(("gauss_pairs", e), lambda f: np.stack(
        [_gauss(f, n + (k - 1) * e) * _gauss(f, n + k * e) for k in range(4)]))
    return pairs[:, np.mod(nu, f.q - 1)]


# --- Mellin transform of V ---


def mellin_v_all(ctx: MixedSumContext) -> np.ndarray:
    """S(chi_m) = sum over j != 0 of chi_m(j) V(j), for all m at once,
    as one DFT over log j: the DFT of V in log order but its last entry."""
    return dft(ctx.field, state_vector(ctx)[..., :-1])


def _root_sum(ctx: MixedSumContext, nu) -> np.ndarray:
    """conj(nu)(a) sum over k of conj(A4)^(k-1)(a) G(nu A4^(k-1)) G(nu A4^k),
    the factor of S(nu^4), T(nu^4) and T(nu1^4, nu2^4), elementwise over the
    exponent array nu, read from one length-(q-1) vector per a cached per context."""
    def build(ctx):
        f, e, n, a = ctx.field, ctx.A4.m, np.arange(ctx.field.q - 1), per_a(ctx, ctx.a)
        total = sum(char_at(f, (1 - k) * e, a) * g for k, g in enumerate(_gauss_pairs(ctx, n)))
        return char_at(f, -n, a) * total
    return ctx.cached("root_sum", build)[..., np.mod(nu, ctx.field.q - 1)]


def mellin_v_closed_root(ctx: MixedSumContext, nu) -> np.ndarray:
    """Gauss-sum evaluation of S(nu^4) for explicit fourth roots nu
    (an exponent array)."""
    return _root_sum(ctx, nu) / per_a(ctx, ctx.tau, np.ndim(nu))


def mellin_v_closed(ctx: MixedSumContext, m) -> np.ndarray:
    """Closed form of S(chi_m) for an exponent array m: exactly 0 unless
    4 | m, else evaluated at the root chi_(m/4), m reduced mod q-1."""
    m = np.mod(m, ctx.field.q - 1)
    return np.where(m % 4 == 0, mellin_v_closed_root(ctx, m // 4), 0.0)


def mellin_v_octic(ctx: MixedSumContext) -> np.ndarray:
    """S(phi) written through the octic character chi_o, o = +-(q-1)/8 with
    the sign that makes chi_o^2 the context's quartic character, one value
    per a; valid when 8 | q-1."""
    f = ctx.field
    if (f.q - 1) % 8 != 0:
        raise FieldError("no octic character: 8 does not divide q-1")
    o = (f.q - 1) // 8
    if ctx.A4.m != 2 * o:
        o = -o
    terms = np.array([(o, o, -o), (5 * o, 3 * o, -3 * o), (3 * o, -o, -3 * o), (-o, o, 3 * o)])
    c, g1, g2 = terms.T.reshape((3, 4) + (1,) * np.ndim(ctx.a))  # a term on a first axis
    t = char_at(f, c, ctx.a) * _gauss(f, g1) * _gauss(f, g2)
    return (t[0] + t[1] + t[2] + t[3]) / ctx.tau


def v_moment_sum(ctx: MixedSumContext, lam: int) -> complex:
    """sum over x != 0 of A4(x) conj(lam)(x + a/x), lam = chi_lam."""
    f = ctx.field
    x = f.units()
    args = f.add(x, f.mul(ctx.a, f.inv_table[x]))
    return complex(np.sum(ctx.A4(x) * MultChar(f, -lam).values()[args]))


# --- Mellin transform of P(j, 0) ---


def mellin_p0_all(field: FieldTable, P) -> np.ndarray:
    """T(chi_m) = sum over j != 0 of chi_m(j) P(j, 0), for all m at once,
    as one DFT of P(g^s, 0), the last column of the table P of
    mixed.mixed_table but its last entry."""
    return dft(field, P[..., :-1, -1])


def mellin_p0_closed_root(ctx: MixedSumContext, nu) -> np.ndarray:
    """Gauss-sum evaluation of T(nu^4) for explicit fourth roots nu
    (an exponent array), with the factor before _root_sum cached per context."""
    f, e = ctx.field, ctx.A4.m
    c = ctx.cached("p0_prefactor", lambda ctx: np.asarray(char_at(f, e, f.neg_table[1]) * (
        (char_at(f, -e, ctx.a) * _gauss(f, e) + _gauss(f, -e)) / f.q)))
    return per_a(ctx, c, np.ndim(nu)) * _root_sum(ctx, nu)


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
    num = char_at(f, e, f.neg_table[1]) * _gauss(f, nu + e) * (
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
    j_sum = np.sum(char_at(f, lam + e, x) + char_at(f, lam - e, x))
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
    every character.  For j != +-1 the form is (1-j)^2 (1 + x r^2),
    r = (1+j)/(1-j), whose log is 2 log(1-j) + zech[log x + 2 log r]."""
    f = ctx.field
    qm1 = f.q - 1
    half = qm1 // 2
    js = np.asarray(js)
    if np.any(js == 0):
        raise ZeroArgument("j must be nonzero")
    lx = f.log_table[2:]  # x = 1 is element index 1, and phi(1-x) vanishes there
    lj = f.log_table[js][:, None]
    lp, lm = f.zech[lj], f.zech[lj - half]  # log(1 + j), log(1 - j): 0 only at j = -1, 1
    d = (lx + 2 * (lp - lm)) % qm1  # log(x r^2)
    generic = (lp != 0) & (lm != 0)
    # at j = 1 the form is 4x, whose log is d, and at j = -1 it is 4
    largs = np.where(generic, 2 * lm + f.zech[d], np.where(lm == 0, d, 2 * lm))
    w = unit_roots(f)[np.mod(ctx.phi.m * (f.zech[lx - half] + largs), qm1)]
    w[generic & (d == half)] = 0.0  # x r^2 = -1: the form is 0
    return exponent_sweep(f, lx - 2 * largs, w)


def hyper_kernel_closed(ctx: MixedSumContext, D: MultChar, j) -> complex:
    return complex(hyper_kernel_closed_row(ctx, [int(j)])[0, D.m])


def hyper_kernel_closed_row(ctx: MixedSumContext, js) -> np.ndarray:
    """Closed form of hyper_kernel_row, a (len(js), q-1) table indexed
    [j, m]: G(D)^2 G(phi) / G(D^2 phi) 2F1(D, D A4; A4 | j^4) for D = chi_m,
    with direct evaluations in the trivial and quartic columns.  The 2F1 row
    is summed once per distinct j^4, shared by the four j = g^(r + k(q-1)/4),
    k = 0..3, of a class r; the trivial column reads j^2 at each j."""
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
    out[:, quartic] = _jacobi_phi(f, quartic) - ctx.phi(f.sub(j4, 1))[:, None]
    return out


def null_locus_sum(ctx: MixedSumContext, lam1) -> np.ndarray:
    """Sum of chi1(j) phi(x - a/x) over the zero locus of the cross form,
    where chi1 = lam1^2 phi, for an exponent array lam1.  The locus is
    solved, not searched: x^2 (j+1)^2 = -a (j-1)^2 has no x at j = +-1, and
    else x = +-r (j-1)/(j+1) with r^2 = -a, so it is empty unless -a is a
    square; both x give the same term, and logs come from the Zech table.
    chi1(j) = zeta^(lam1 2 log j) phi(j), so one exponent sweep covers every lam1.
    In a batch, the terms of an a with no locus weigh 0."""
    f = ctx.field
    n, half = f.q - 1, (f.q - 1) // 2
    log_r2 = per_a(ctx, (f.log_table[ctx.a] + half) % n)  # log(-a)
    empty = log_r2 % 2 == 1  # no r: no locus
    j = np.arange(0) if empty.all() else np.arange(2, f.q)  # j != 0, 1
    lj = f.log_table[j[j != f.neg_table[1]]]
    lx = (log_r2 // 2 + half + f.zech[lj - half] - f.zech[lj]) % n  # log r (j-1)/(j+1)
    t = (log_r2 - 2 * lx) % n  # x - a/x = x (1 + g^t), and 0 at t = log(-1)
    roots = unit_roots(f)
    w = np.where((t == half) | empty, 0.0, roots[half * (lx + f.zech[t]) % n])
    w = w * roots[half * lj % n]
    return exponent_sweep(f, np.repeat(2 * lj, 2), np.repeat(w, 2, axis=-1))[..., np.mod(lam1, n)]


def null_locus_closed(ctx: MixedSumContext, nu1) -> np.ndarray:
    """(A4(a) + conj(A4)(a)) * sum over m of J(nu1 A4^m, phi), for an
    exponent array nu1."""
    f, e = ctx.field, ctx.A4.m
    jsum = sum(_jacobi_phi(f, np.add(nu1, k * e)) for k in range(4))
    return per_a(ctx, char_at(f, e, ctx.a) + char_at(f, -e, ctx.a), np.ndim(nu1)) * jsum


def cross_form_sum(ctx: MixedSumContext, lam1: int, lam2: int) -> complex:
    """Double sum of chi1(j) phi(x - a/x) conj(lam1 lam2)(alpha(j, x)),
    chi1 = lam1^2 phi, lam1 = chi_lam1 and lam2 = chi_lam2."""
    f = ctx.field
    x = f.units()
    j = f.units()
    ax = f.mul(ctx.a, f.inv_table[x])
    alpha = cross_form(ctx, j[:, None], x[None, :])
    vals = MultChar(f, -(lam1 + lam2)).values()[alpha]
    w = char_at(f, 2 * lam1 + ctx.phi.m, j)[:, None] * ctx.phi.values()[f.sub(x, ax)][None, :]
    return complex(np.sum(w * vals))


def double_mellin_matrix(field: FieldTable, P) -> np.ndarray:
    """T(chi_m1, chi_m2) = sum over j, k != 0 of chi_m1(j) chi_m2(k) P(j, k),
    for all pairs: the 2-D DFT over (log j, log k) of the (q-1) x (q-1)
    corner of P, the table of mixed.mixed_table in log order, in place,
    which uses P up.  P's last two axes are (j, k), after a batch's a."""
    T = P[..., :-1, :-1]
    return dft(field, T, axes=(-2, -1), out=T)


def double_mellin_closed(ctx: MixedSumContext, nu1, nu2) -> np.ndarray:
    """Gauss-sum evaluation of T(nu1^4, nu2^4), elementwise over the broadcast
    exponent arrays nu1 and nu2: its 16 terms factor, as chi(-nu1 - nu2 - (m + n) e)(a)
    splits, into A4(-1/a) _root_sum(nu1) _root_sum(nu2) / q."""
    f = ctx.field
    nu1, nu2 = np.broadcast_arrays(nu1, nu2)
    c = char_at(f, ctx.A4.m, f.neg_table[f.inv_table[ctx.a]]) / f.q
    return per_a(ctx, c, nu1.ndim) * _root_sum(ctx, nu1) * _root_sum(ctx, nu2)


def pair_coeffs(ctx: MixedSumContext, nu1) -> np.ndarray:
    """Coefficients (R0, R1, R2, R3) of the quartic-value expansion
    T(chi1, conj(chi1)) = sum_k R_k A4(a)^k, chi1 = nu1^4, in Jacobi-sum
    form, on a last axis of length 4 after the shape of the exponent array
    nu1, read from one (q-1, 4) table cached per field and quartic
    exponent: the coefficients do not depend on a."""
    def build(f):
        q, e, h = f.q, ctx.A4.m, ctx.phi.m
        nu = np.arange(q - 1)
        d = np.mod(4 * nu, q - 1) == 0
        jsum = sum(_jacobi_phi(f, nu + k * e) for k in range(4))
        g_phi = _gauss(f, h)
        r0 = 4 * q - (2 * q - 2) * d
        r1 = (q * jsum - d * (q - 1) * _jacobi_phi(f, -e)) / g_phi
        r3 = (q * jsum - d * (q - 1) * _jacobi_phi(f, e)) / g_phi
        r2 = sum(_jacobi_phi(f, -nu - (k + 1) * e) * _jacobi_phi(f, nu + k * e) for k in range(4))
        return np.stack([r0, r1, r2, r3], axis=-1)
    f = ctx.field
    return f.cached(("pair_coeffs", ctx.A4.m), build)[np.mod(nu1, f.q - 1)]


def pair_coeffs_gauss(ctx: MixedSumContext, nu1) -> np.ndarray:
    """The same coefficients as quadruple Gauss-sum sums restricted to
    m + n == 1 - k (mod 4), on a last axis of length 4, cached likewise."""
    def build(f):
        nu = np.arange(f.q - 1)
        g, gbar = _gauss_pairs(ctx, nu), _gauss_pairs(ctx, -nu)
        out = [sum(g[(1 - k - m) % 4] * gbar[m] for m in range(4)) for k in range(4)]
        return char_at(f, ctx.A4.m, f.neg_table[1]) * np.stack(out, axis=-1) / f.q
    f = ctx.field
    return f.cached(("pair_coeffs_gauss", ctx.A4.m), build)[np.mod(nu1, f.q - 1)]


def inverse_mellin(field: FieldTable, spec, j) -> np.ndarray:
    """Reconstruct f(j) from the q-1 transform values spec[m] = F(chi_m) via
    orthogonality: (1/(q-1)) sum over m of conj(chi_m)(j) spec[m], for every
    nonzero element index in the array j.  That sum is the DFT of spec at
    the log index -log j."""
    j = np.asarray(j)
    if np.any(j == 0):
        raise ZeroArgument("inverse transform is defined on F_q* only")
    return dft(field, spec)[..., np.mod(-field.log_table[j], field.q - 1)] / (field.q - 1)
