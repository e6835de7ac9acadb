"""Scalar brute-force reference implementations used as test oracles.

Everything here is written with plain Python loops and cmath so the
expected values are computed independently of the vectorized library path,
but element_table, which reads the table of P by element,
squares_table, which fills the squares table from its row blocks,
full_length_squares, which builds both routes of the squares table by
full-length convolutions read at every second output,
p_order_main, which replays the main suite on the full table of P,
equivalent_reports, the rule by which two reports agree up to rounding,
gathered_double_mellin, which takes the double transform of P gathered in
log order, per_z_quad_transform and per_j_hyper_kernel, which replay
one check each with one element per library call, and
sixteen_term_double_mellin_closed, the closed form of the double transform
as its 16 gathered Gauss-sum products.
"""

import cmath
from itertools import product

import numpy as np

from mixedsums.chars import char_at, convolver, dft, psi_table
from mixedsums.harness import BRANCH_TOL, Checker, Checks
from mixedsums.mellin import (_gauss_pairs, cross_form, hyper_kernel_closed_row,
                              hyper_kernel_row)
from mixedsums.mixed import (element_order, make_context, mixed_table, per_a, square_rows,
                             state_vector)
from mixedsums.sums import DEFAULT_TOL, exponent_sweep, gauss, quad_transform


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


def naive_hyper_kernel(f, m, j):
    """h(chi_m, j) = sum over x != 0 of
    chi_m(x) phi(1-x) (conj(chi_m)^2 phi)(x (j+1)^2 + (j-1)^2)."""
    h = (f.q - 1) // 2
    jp, jm = int(f.add(j, 1)), int(f.sub(j, 1))
    total = 0.0
    for x in range(1, f.q):
        arg = int(f.add(f.mul(x, f.mul(jp, jp)), f.mul(jm, jm)))
        total += chi_val(f, m, x) * chi_val(f, h, int(f.sub(1, x))) * chi_val(f, h - 2 * m, arg)
    return total


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


def element_table(ctx):
    """The table P of mixed_table, which is in log order on both axes, read
    by element through mixed.element_order: P(j, k) at [..., j, k], in a
    second q x q array."""
    i = element_order(ctx.field)
    return mixed_table(ctx)[..., i[:, None], i]


def element_state(ctx):
    """V of state_vector, which is in log order, read by element through
    mixed.element_order: V(j) at [..., j]."""
    return state_vector(ctx)[..., element_order(ctx.field)]


def p_order_main(ctx, tol=DEFAULT_TOL):
    """The main suite as it ran when it read P entry by entry: each check
    on the q x q table of P in index order, one instance per entry,
    with negation_symmetry reading P at (-j, k).  Its reports are those of
    harness.run_main, which reads each cell of the squares table once."""
    f = ctx.field
    q, n = f.q, f.q - 1
    P = element_table(ctx)
    V = element_state(ctx)
    W = element_state(make_context(f, ctx.a, conjugate_quartic=ctx.A4.m == n // 4))
    checks = Checks(f, ctx.a, tol)
    main, corner, zero_row, symmetry, negation, quarter, drift = (
        checks[c] for c in ("main_identity", "corner_value", "zero_row_factorization",
                            "mixed_symmetry", "negation_symmetry", "quarter_turn",
                            "imaginary_drift"))
    branch = checks.add("tau_branch", BRANCH_TOL)
    branch.compare_arrays(W**2, V**2)
    main.compare_arrays(P, np.outer(V, V))
    branch.compare_arrays(P, np.outer(W, W))
    zero_row.compare_arrays(P[:, 0], V[0] * V)
    drift.compare_arrays(P.imag, 0.0)
    negation.compare_arrays(P[f.neg_table], P)  # phi(-1) = 1
    symmetry.compare_arrays(P, P.T)
    expect = 2 + 2 * (gauss(ctx.A4) ** 2 / (q * ctx.A4(f.neg_table[ctx.a]))).real
    corner.compare_arrays(P[0, 0], [expect, V[0] ** 2])
    j = f.units()
    quarter.compare_arrays(V[f.mul(j, f.i_elem)], V[j])
    return checks.reports()


def equivalent_reports(got, expect):
    """Whether two reports agree up to rounding: the same rows in the same
    order, with equal check_id, q, a, instances, tol and passed, and each
    pair of max_abs_err within 2x of each other or both at most 1e-14.
    The identities are exact, so two routes to the same values may differ
    in the last bits of a worst error, which depend on the array shapes and
    on whether numpy's complex loops fuse the multiply-add."""
    def key(r):
        return r.check_id, r.q, r.a, r.instances, r.tol, r.passed

    def close(x, y):
        return x <= 2 * y and y <= 2 * x or x <= 1e-14 and y <= 1e-14 or repr(x) == repr(y)
    got, expect = list(got), list(expect)
    return len(got) == len(expect) and all(
        key(r) == key(e) and close(r.max_abs_err, e.max_abs_err) for r, e in zip(got, expect))


def squares_table(ctx):
    """The squares table S, P as a function of ((j+k)^2, (j-k)^2), whole:
    the row blocks of mixed.square_rows, filled into one array."""
    half = (ctx.field.q - 1) // 2
    S = np.empty((half + 1, half + 1), dtype=complex)
    for rows, block, _ in square_rows(ctx):
        S[rows] = block
    return S


def full_length_squares(ctx):
    """Both routes of mixed.square_rows, whole, by full-length convolution,
    the reference for its fold: for every row u = g^(2t) (and u = 0) the
    bracket w(g^s) psi(g^(s+2t+shift)), with the weight phi(a/x - x) and
    the route-0 kernel psi(a x) from field arithmetic, convolved at full
    length q-1 (chars.convolver) and read at every second output, divided
    by G(phi), with column 0 the bracket's plain sum and 1 added to column
    0 and to row 0.  Returns (S, C), with S[..., u, v] = S(u, v) and
    C[..., u, v] the second route's S(v, u), each after the a axis."""
    f = ctx.field
    n, half = f.q - 1, (f.q - 1) // 2
    x = f.exp_table
    a = per_a(ctx, ctx.a)
    w = ctx.phi(f.sub(f.mul(a, f.inv_table[x]), x))
    psi = psi_table(f)
    psi_log = np.tile(psi[x], 3)
    starts = 2 * np.arange(half)[:, None] + np.arange(n)
    lead = np.shape(ctx.a)
    routes = ((w, 0, psi[f.mul(a, x)][..., None, :]),
              (w[..., -np.arange(n)], per_a(ctx, f.log_table[ctx.a], 2), psi[x]))
    tables = []
    for weight, shift, kernel in routes:
        h = np.ones(lead + (half + 1, n), dtype=complex)
        h[..., 1:, :] = psi_log[starts + shift]
        h *= weight[..., None, :]
        S = np.empty(lead + (half + 1, half + 1), dtype=complex)
        S[..., 0] = h.sum(axis=-1)
        S[..., 1:] = convolver(f, kernel)(h)[..., ::2]
        S /= gauss(ctx.phi)
        S[..., 0] += 1.0
        S[..., 0, :] += 1.0
        tables.append(S)
    return tuple(tables)


def gathered_double_mellin(ctx):
    """The double transform T of the table of P in index order,
    gathered into a second array in log order along both axes, then one
    2-D DFT in place."""
    f = ctx.field
    T = element_table(ctx)[np.ix_(f.exp_table, f.exp_table)]
    return dft(f, T, axes=(0, 1), out=T)


def per_z_quad_transform(f, tol=DEFAULT_TOL):
    """The quad_transform row of the transforms suite, with both sides
    computed for one z at a time, in index order: no 2F1 row is shared."""
    check = Checker("quad_transform", f, None, tol)
    for z in range(2, f.q):
        if z != f.neg_table[1]:
            check.compare_arrays(*quad_transform(f, [z]))
    return check.report()


def per_j_hyper_kernel(f, tol=DEFAULT_TOL):
    """The hyper_kernel row of the mellin_field suite, with both sides
    computed for one j at a time, in index order: no 2F1 row is shared."""
    ctx = make_context(f, 1)
    check = Checker("hyper_kernel", f, None, tol)
    for j in range(1, f.q):
        check.compare_arrays(hyper_kernel_row(ctx, [j]), hyper_kernel_closed_row(ctx, [j]))
    return check.report()


def naive_state_value(f, a, tau, j, quartic_m):
    """V(j) for j != 0, with A4 = chi_quartic_m (either quartic character)."""
    total = 0.0
    aj4 = f.mul(a, f.pow(j, 4))
    for x in range(1, f.q):
        total += chi_val(f, quartic_m, x) * psi_val(f, int(f.add(x, f.mul(aj4, f.inv(x)))))
    return total / tau


def naive_convolve(h, k):
    """out[r] = sum over s of h[s] k[(r - s) mod n], as a plain double loop."""
    n = len(h)
    return [sum(h[s] * k[(r - s) % n] for s in range(n)) for r in range(n)]


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


# --- closed forms, with characters as exponents (chi_m for any integer m) ---


def naive_v_closed_root(ctx, nu):
    """S(nu^4) = conj(nu)(a) / tau * sum over k of
    conj(A4)^(k-1)(a) G(nu A4^(k-1)) G(nu A4^k)."""
    f, a, e = ctx.field, ctx.a, ctx.A4.m
    total = 0.0
    for k in range(4):
        total += (chi_val(f, (1 - k) * e, a) * naive_gauss(f, nu + (k - 1) * e)
                  * naive_gauss(f, nu + k * e))
    return chi_val(f, -nu, a) * total / ctx.tau


def naive_v_closed(ctx, m):
    q = ctx.field.q
    if m % 4 != 0:
        return 0.0
    return naive_v_closed_root(ctx, (m % (q - 1)) // 4)


def naive_p0_closed_root(ctx, nu):
    f, a, e = ctx.field, ctx.a, ctx.A4.m
    prefac = chi_val(f, e, int(f.neg(1))) * (
        chi_val(f, -e, a) * naive_gauss(f, e) + naive_gauss(f, -e)) / f.q
    total = 0.0
    for k in range(4):
        total += (chi_val(f, (1 - k) * e, a) * naive_gauss(f, nu + k * e)
                  * naive_gauss(f, nu + (k - 1) * e))
    return prefac * chi_val(f, -nu, a) * total


def naive_p0_closed(ctx, m):
    q = ctx.field.q
    if m % 4 != 0:
        return 0.0
    return naive_p0_closed_root(ctx, (m % (q - 1)) // 4)


def naive_kummer_closed(ctx, nu):
    f, e = ctx.field, ctx.A4.m
    h = (f.q - 1) // 2
    num = chi_val(f, e, int(f.neg(1))) * naive_gauss(f, nu + e) * (
        naive_gauss(f, nu) * naive_gauss(f, e) + naive_gauss(f, nu + h) * naive_gauss(f, -e))
    return num / (f.q * naive_gauss(f, h) * naive_gauss(f, 2 * nu))


def naive_null_locus_closed(ctx, nu1):
    f, a, e = ctx.field, ctx.a, ctx.A4.m
    h = (f.q - 1) // 2
    jsum = sum(naive_jacobi(f, nu1 + k * e, h) for k in range(4))
    return (chi_val(f, e, a) + chi_val(f, -e, a)) * jsum


def naive_null_locus_sum(ctx, lam1):
    """null_locus_sum by search: the zeros of the cross form are found by
    testing every (j, x) in F_q* x F_q*, in row blocks of j, and summed in
    the same (j, x) order."""
    f = ctx.field
    x = np.arange(1, f.q)
    js, xs = [], []
    for jb in f.blocks(x):
        jl, xl = np.nonzero(cross_form(ctx, jb[:, None], x) == 0)
        js.append(jb[jl])
        xs.append(x[xl])
    j, xz = np.concatenate(js), np.concatenate(xs)
    w = ctx.phi(f.sub(xz, f.mul(ctx.a, f.inv_table[xz]))) * ctx.phi(j)
    return exponent_sweep(f, 2 * f.log_table[j], w)[np.mod(lam1, f.q - 1)]


def naive_double_mellin_closed(ctx, nu1, nu2):
    f, a, e = ctx.field, ctx.a, ctx.A4.m
    total = 0.0
    for m in range(4):
        gm = naive_gauss(f, nu2 + (m - 1) * e) * naive_gauss(f, nu2 + m * e)
        for n in range(4):
            coeff = chi_val(f, -(nu1 + nu2) - (m + n) * e, a)
            total += (coeff * naive_gauss(f, nu1 + (n - 1) * e) * naive_gauss(f, nu1 + n * e)
                      * gm)
    return chi_val(f, e, int(f.neg(a))) * total / f.q


def sixteen_term_double_mellin_closed(ctx, nu1, nu2):
    """The closed form of T(nu1^4, nu2^4) as the 16 gathered Gauss-sum
    products, elementwise over the broadcast exponent arrays: A4(-a)/q
    times the sum over m, n = 0..3 of chi(-nu1 - nu2 - (m + n) e)(a)
    G(nu1 A4^(n-1)) G(nu1 A4^n) G(nu2 A4^(m-1)) G(nu2 A4^m), e the exponent
    of A4, from the library's Gauss-sum pairs."""
    f, e = ctx.field, ctx.A4.m
    mu = np.mod(np.add(nu1, nu2), f.q - 1)
    g1, g2 = _gauss_pairs(ctx, nu1), _gauss_pairs(ctx, nu2)
    # chi(-mu - s e)(a) takes 7 distinct values per mu, s = m + n = 0..6
    c = char_at(f, -np.arange(f.q - 1) - e * np.arange(7)[:, None], ctx.a)
    total = sum(c[m + n][mu] * g1[n] * g2[m] for m in range(4) for n in range(4))
    return char_at(f, e, f.neg_table[ctx.a]) * total / f.q


def naive_pair_coeffs(ctx, nu1):
    f, e = ctx.field, ctx.A4.m
    q, h = f.q, (f.q - 1) // 2
    d = 1 if (4 * nu1) % (q - 1) == 0 else 0
    jsum = sum(naive_jacobi(f, nu1 + k * e, h) for k in range(4))
    g_phi = naive_gauss(f, h)
    r0 = 4 * q - (2 * q - 2) * d
    r1 = (q * jsum - d * (q - 1) * naive_jacobi(f, -e, h)) / g_phi
    r3 = (q * jsum - d * (q - 1) * naive_jacobi(f, e, h)) / g_phi
    r2 = sum(naive_jacobi(f, -nu1 - (k + 1) * e, h) * naive_jacobi(f, nu1 + k * e, h)
             for k in range(4))
    return [r0, r1, r2, r3]


def naive_pair_coeffs_gauss(ctx, nu1):
    f, e = ctx.field, ctx.A4.m
    out = []
    for k in range(4):
        total = 0.0
        for m in range(4):
            for n in range(4):
                if (m + n) % 4 != (1 - k) % 4:
                    continue
                total += (naive_gauss(f, nu1 + (n - 1) * e) * naive_gauss(f, nu1 + n * e)
                          * naive_gauss(f, -nu1 + (m - 1) * e) * naive_gauss(f, -nu1 + m * e))
        out.append(chi_val(f, e, int(f.neg(1))) * total / f.q)
    return out


# --- the field build, one element at a time ---


def _digits_of(index, p, n):
    return [(index // p**i) % p for i in range(n)]


def _index_of(digits, p):
    return sum(c * p**i for i, c in enumerate(digits))


def _poly_rem(u: list[int], v: list[int], p: int) -> list[int]:
    """Remainder of u modulo v (lead coefficient of v invertible)."""
    u = [c % p for c in u]
    dv = len(v) - 1
    inv_lead = pow(v[-1], -1, p)
    for i in range(len(u) - 1, dv - 1, -1):
        c = u[i]
        if c:
            f = c * inv_lead % p
            for k in range(dv + 1):
                u[i - dv + k] = (u[i - dv + k] - f * v[k]) % p
    return u[:dv]


def _is_irreducible(coeffs: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    n = len(coeffs) - 1
    if n == 1:
        return True
    for d in range(1, n // 2 + 1):
        for low in product(range(p), repeat=d):
            divisor = list(low) + [1]
            if not any(_poly_rem(coeffs, divisor, p)):
                return False
    return True


def naive_smallest_irreducible(p: int, n: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree n over F_p,
    coefficient vectors compared low-degree first: one candidate and one
    trial divisor at a time."""
    for low in product(range(p), repeat=n):
        coeffs = list(low) + [1]
        if _is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise AssertionError(f"no irreducible polynomial of degree {n} over F_{p}")


def _mul_digits(u, v, modulus, p):
    n = len(modulus) - 1
    prod = [0] * (2 * n - 1)
    for i, ci in enumerate(u):
        if ci:
            for j, cj in enumerate(v):
                prod[i + j] = (prod[i + j] + ci * cj) % p
    # reduce high coefficients using x^n = -(modulus minus lead)
    for i in range(2 * n - 2, n - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for k in range(n):
                prod[i - n + k] = (prod[i - n + k] - c * modulus[k]) % p
    return prod[:n]


def naive_field(p, n):
    """(modulus, g, exp_table) of F_{p^n} built with scalar polynomial
    arithmetic: g is the smallest index whose power at every cofactor
    (q-1)/r, r a prime factor of q-1, is not 1, and exp_table[t] = g^t."""
    from mixedsums.gf import prime_factors

    q = p**n
    modulus = naive_smallest_irreducible(p, n)

    def mul_idx(x, y):
        return _index_of(_mul_digits(_digits_of(x, p, n), _digits_of(y, p, n), modulus, p), p)

    def pow_idx(x, e):
        r = 1
        while e:
            if e & 1:
                r = mul_idx(r, x)
            x = mul_idx(x, x)
            e >>= 1
        return r

    cofactors = [(q - 1) // r for r in prime_factors(q - 1)]
    g = next(c for c in range(2, q) if all(pow_idx(c, e) != 1 for e in cofactors))
    exp_table = [1]
    for _ in range(q - 2):
        exp_table.append(mul_idx(exp_table[-1], g))
    assert mul_idx(exp_table[-1], g) == 1
    return modulus, g, exp_table
