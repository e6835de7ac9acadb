"""The mixed exponential sum P(j,k) and the minimum-uncertainty sums
V(j) whose outer products reproduce it.

A MixedSumContext fixes everything the sums depend on: the field, the
parameter a in F_q*, the quartic character, and the normalizing constant
tau with tau^2 = q * A4(-a).  The branch of the square root is fixed
deterministically (see make_context); the other branch would negate
every V(j) and leave P = V(j)V(k) unchanged.

a is an axis: a context may hold one a or a 1-D array of B values, and
every per-context array then has a leading axis of length B (none for
one a), each of whose rows is what that a alone gives.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field as dc_field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .gf import FieldError, FieldTable, ZeroArgument
from .chars import MultChar, convolver, psi_table, quadratic_char, unit_roots
from .sums import gauss


class ParameterOutOfRange(FieldError):
    """The parameter a is not an element index in 1..q-1."""


@dataclass
class MixedSumContext:
    field: FieldTable
    a: int | np.ndarray  # one a, or a 1-D array of them
    A4: MultChar
    tau: complex | np.ndarray  # one per a
    _cache: dict = dc_field(default_factory=dict, repr=False)

    @property
    def phi(self) -> MultChar:
        return quadratic_char(self.field)

    cached = FieldTable.cached  # a per-context table, built once and read-only


def make_context(field: FieldTable, a, conjugate_quartic: bool = False) -> MixedSumContext:
    """Fix (a, A4, tau) over the given field, for one a or for a 1-D array
    of values of a (a batch, with one tau per a).

    tau is minus the principal square root of q * A4(-a): the quartic value
    A4(-a) is i^k for an exact k in {0,1,2,3}, and the principal root
    sqrt(q) * exp(i*pi*k/4) is the one with argument in [0, pi).
    """
    batch = np.ndim(a) > 0
    a = np.array(a, dtype=np.int64) if batch else int(a)
    values = np.ravel(a).tolist()
    if 0 in values:
        raise ZeroArgument("the parameter a must be nonzero")
    bad = [x for x in values if not 1 <= x < field.q]
    if bad:
        raise ParameterOutOfRange(f"a = {bad[0]} is not an element index in 1..{field.q - 1}")
    quarter = (field.q - 1) // 4
    A4 = MultChar(field, -quarter if conjugate_quartic else quarter)
    k = ((A4.m * field.log_table[field.neg_table[a]]) % (field.q - 1)) // quarter
    tau = -np.sqrt(field.q) * np.exp(1j * np.pi * k / 4)
    return MixedSumContext(field=field, a=a, A4=A4, tau=tau if batch else complex(tau))


def per_a(ctx: MixedSumContext, x, ndim: int = 1) -> np.ndarray:
    """x, one value per a of ctx, with ndim axes of length 1 after the a
    axis, so that it broadcasts over a per-context array with ndim axes
    after it."""
    return np.asarray(x).reshape(np.shape(ctx.a) + (1,) * ndim)


def state_vector(ctx: MixedSumContext) -> np.ndarray:
    """V(j) for every j in F_q in log order (see element_order): V(g^s) at
    index s, and V(0) last, cached.

    V(j) = tau^{-1} * sum_{x != 0} A4(x) psi(x + a j^4 / x) for j != 0,
    and V(0) = G(A4)/tau + tau/G(A4).

    psi is additive, so psi(x + c/x) = psi(x) psi(c/x).  With x = g^s and
    c = g^r the x-sum is the cyclic convolution over log x
        K[r] = sum_s A4(g^s) psi(g^s) psi(g^(r-s)),
    one FFT product for every c at once, and tau V(g^s) = K[log a + 4s].
    K does not depend on a, so it is cached per field and quartic exponent.
    """
    def build(ctx):
        f = ctx.field
        K = f.cached(("state_kernel", ctx.A4.m), lambda f: convolver(  # x = g^s
            f, psi_table(f)[f.exp_table])(ctx.A4(f.exp_table) * psi_table(f)[f.exp_table]))
        v = np.empty(np.shape(ctx.a) + (f.q,), dtype=complex)
        logs = per_a(ctx, f.log_table[ctx.a]) + 4 * np.arange(f.q - 1)
        tau, g4 = per_a(ctx, ctx.tau, 0), gauss(ctx.A4)
        v[..., :-1] = K[logs % (f.q - 1)] / tau[..., None]
        v[..., -1] = g4 / tau + tau / g4
        return v
    return ctx.cached("state", build)


Route = namedtuple("Route", "weight shift spectrum")


def psi_windows(field: FieldTable) -> np.ndarray:
    """psi(g^(r+s)) over s = 0..q-2 for every start r < 2(q-1), window r:
    one strided view of psi(g^s) taken over three periods, cached."""
    return field.cached("psi_windows", lambda f: sliding_window_view(
        np.tile(psi_table(f)[f.exp_table], 3), f.q - 1))


def square_routes(ctx: MixedSumContext, i: int) -> Route:
    """Route i of square_rows, as Route(weight, shift, spectrum): route 0
    gives S(u, .) and route 1 S(., u), for the same u.

    u and v run over the (q+1)/2 squares of F_q: column 0 is 0 and column
    1 + t is g^(2t), so the column of j^2 is 1 + (log(j) mod (q-1)/2).
    F(u, v) = sum_{x != 0} w(x) psi(x u + (a/x) v), w(x) = phi(a/x - x).
    psi is additive, so with x = g^s, u = g^(2t) and v = g^r each row is
    the cyclic convolution over log x
        F(u, g^r) = sum_s [w(g^s) psi(g^(s+2t))] psi(a g^(r-s)),
    read at even r; F(u, 0) is the plain sum of the bracket, and the row
    u = 0 convolves w alone.  Route 1 substitutes x -> a/x, which gives
    F(v, u) = phi(-1) F(u, v) = F(u, v) (q = 1 mod 4), over v as
        F(g^r, u) = sum_s [w(g^(-s)) psi(g^(s+2t+log a))] psi(g^(r-s)),
    whose kernel is free of a.  A route's bracket is weight times the
    window of psi(g^s) that starts at 2t + shift, and spectrum is the FFT
    of the route's kernel, taken once here, over 2 G(phi) (see
    square_rows).  S(u, v) = F(u, v) / G(phi) + delta(v, 0) + delta(u, 0),
    so either route adds 1 to column 0 and to row 0.

    Both inputs that depend on a are read from tables, with no field
    arithmetic: a/x - x = -x (1 - a/x^2), so log(a/x - x) =
    s + (q-1)/2 + zech[log a - 2s + (q-1)/2], and w = 0 where
    log a = 2s (mod q-1); psi(a g^s) is the window of psi(g^s) that
    starts at log a.
    """
    f = ctx.field
    n, half = f.q - 1, (f.q - 1) // 2
    s = np.arange(n)
    log_a = per_a(ctx, f.log_table[ctx.a])

    def build(ctx):
        d = (log_a - 2 * s + half) % n
        return np.where(d == half, 0j, unit_roots(f)[half * (s + half + f.zech[d]) % n])
    w = ctx.cached("square_weight", build)
    windows = psi_windows(f)
    weight, shift, kernel = ((w, 0, windows[log_a]) if i == 0 else
                             (w[..., -s], f.log_table[ctx.a], windows[0]))
    return Route(weight, shift, np.fft.fft(kernel) / (2 * gauss(ctx.phi)))


def square_rows(ctx: MixedSumContext, columns: bool = False):
    """The squares table S, P as a function of the pair of squares
    ((j+k)^2, (j-k)^2), in FieldTable.blocks row blocks, each from one
    convolution per row: yields (rows, block, cols) with block = S[rows]
    from route 0 of square_routes, and cols None, or with columns,
    cols[i, v] = S(v, rows[i]) from route 1, each after the a axis.  The
    blocks are views of buffers that the next step overwrites, so no array
    grows as q^2.

    Each row is read at v = g^(2r) only, and the convolution read at every
    second index is the inverse transform, at length (q-1)/2, of its
    spectrum folded in two (the two halves summed): so a row is one
    forward FFT of length q-1, the product with the route's spectrum (over
    2 G(phi), the 2 from the halved length), the fold and one inverse FFT
    of length (q-1)/2, straight into the row's columns 1..(q-1)/2.  Column
    0, the plain sum of the bracket, is the forward transform's DC term.
    """
    f = ctx.field
    n = f.q - 1
    half = n // 2
    routes = [square_routes(ctx, i) for i in range(1 + columns)]
    # (index, shift) of each window a route copies: route 0's shift is free
    # of a, so one copy fills every a; route 1 shifts by log a, one per a
    shifts = [list(np.ndenumerate(np.asarray(route.shift))) for route in routes]
    # psi(u x) over s is the window that starts at 2t + shift < 2(q-1) for
    # u = g^(2t), so the windows of consecutive rows are one strided view;
    # psi(0 x) is all ones
    windows = psi_windows(f)
    g_phi = gauss(ctx.phi)
    blocks = list(f.blocks(np.arange(half + 1)))
    lead = np.shape(ctx.a)
    h = np.empty(lead + (len(blocks[0]), n), dtype=complex)
    out = np.empty((2,) + h.shape[:-1] + (half + 1,), dtype=complex)
    for rows in blocks:
        b = len(rows)
        top = int(rows[0] == 0)
        lo = 2 * (rows[top] - 1)  # 2t for the first row u = g^(2t)
        hb, ob = h[..., :b, :], out[..., :b, :]
        for o, route, starts in zip(ob, routes, shifts):
            hb[..., :top, :] = 1.0
            for i, shift in starts:
                hb[i][..., top:, :] = windows[lo + shift:lo + shift + 2 * (b - top):2]
            hb *= route.weight[..., None, :]
            np.fft.fft(hb, out=hb)
            o[..., 0] = hb[..., 0] / g_phi + 1.0  # v = 0: the DC term
            hb *= route.spectrum
            hb.reshape(hb.shape[:-1] + (2, half)).sum(axis=-2, out=o[..., 1:])
            np.fft.ifft(o[..., 1:], out=o[..., 1:])
            o[..., :top, :] += 1.0  # the row u = 0, in the first block
        yield rows, ob[0], ob[1] if columns else None


def cell_logs(field: FieldTable, rows, out) -> np.ndarray:
    """The log-order indices (see element_order) of one pair (j, k) of each
    cell of the squares-table rows `rows` (consecutive), written into out,
    an int64 (2, len(rows), (q+1)/2) array: X[..., out[0]] and
    X[..., out[1]] are X(j) and X(k) for a function X on F_q in log order.

    For the cell (g^(2t), g^(2r)), take j + k = g^t and j - k = g^r: with
    d = r - t, j = g^t (1 + g^d) / 2 and k = g^t (1 - g^d) / 2, so
    log j = t + A[d] - log 2 and log k = t + B[d] - log 2, with the Zech
    logarithms A[d] = field.zech[d] and B[d] = log(1 - g^d) = A[d + (q-1)/2].
    The other pairs of the cell, (k, j), (-j, -k) and (-k, -j), have the
    same X(j)X(k) when X depends on j only through j^4, and mixed_table
    writes the cell at all four.  |d| < (q-1)/2, so 1 + g^d is never 0, and
    1 - g^d is 0 only at d = 0, the diagonal u = v, where k = 0.  The
    column v = 0 is j = k = g^t/2, the row u = 0 is j = -k = g^r/2, and the
    corner is j = k = 0.  The Zech offsets are cached per field over d, and
    row t reads them at d = -t .. (q-1)/2 - 1 - t, a window of the table, so
    a block is one add and one reduction mod q-1.  The cache holds these
    windows, window t + 1 for row t, as one strided view of the table over d.
    """
    n = field.q - 1
    half = n // 2

    def build(f):
        d = np.arange(-half, half + 1)  # d = (q-1)/2 is read only for the row u = 0, then overwritten
        z = (np.stack((f.zech[d % n], f.zech[(d + half) % n])) - f.zech[0]) % n  # zech[0] = log 2
        return sliding_window_view(z, half, axis=1)[:, ::-1]
    windows = field.cached("cell_logs", build)
    c0 = n - field.log_table[2]  # log of 1/2, in 1..q-1: 2 = 1 + 1 is the element index 2
    lo, hi = rows[0], rows[-1] + 1
    t = np.arange(lo - 1, hi - 1)[:, None]
    np.add(windows[:, lo:hi], t, out=out[:, :, 1:])
    np.add(t, c0, out=out[:, :, :1])
    if lo == 0:
        out[0, 0, 1:] = c0 + np.arange(half)
        out[1, 0, 1:] = out[0, 0, 1:] + half  # k = -j
    u = out.view(np.uint64)  # every entry is below 2(q-1), and u - (q-1) wraps
    np.minimum(u, u - n, out=u)  # above u exactly when u < q-1: u mod q-1
    out[1, np.arange(len(rows)), rows] = n  # d = 0 and the corner: k = 0
    if lo == 0:
        out[0, 0, 0] = n  # the corner: j = 0
    return out


def element_order(field: FieldTable) -> np.ndarray:
    """Where each element of F_q (index order) sits on an axis in log
    order, index s for g^s and q-1 for 0: log x for x != 0 and q-1 for 0,
    cached.  V, P and cell_logs are in log order: with i = element_order(field),
    V[..., i[j]] is V(j) and P[..., i[j], i[k]] is P(j, k)."""
    return field.cached("element_order", lambda f: np.append(f.q - 1, f.log_table[1:]))


def mixed_table(ctx: MixedSumContext) -> np.ndarray:
    """The full q x q table of P(j,k) in log order on both axes (see
    element_order), built on each call and not cached, scattered from the
    squares table: each row block of square_rows is written at the pair
    (j, k) that cell_logs gives for each of its cells, and at (k, j),
    (-j, -k) and (-k, -j), -x at log x + (q-1)/2.  These are all the pairs
    of the cell, so every entry of P is a copy of one cell of S, laid out as
    np.outer(V, V).  The suites' one q x q array: mellin reads P(j, 0) as
    its last column and turns its corner into T (double_mellin_matrix).
    """
    f = ctx.field
    q, half = f.q, (f.q - 1) // 2
    neg = np.append((np.arange(q - 1) + half) % (q - 1), q - 1)  # the index of -x, by that of x
    P = np.empty(np.shape(ctx.a) + (q, q), dtype=complex)
    flat = P.reshape(np.shape(ctx.a) + (q * q,))
    for rows, block, _ in square_rows(ctx):
        j, k = jk = cell_logs(f, rows, np.empty((2, len(rows), half + 1), dtype=np.int64))
        nj, nk = neg[jk]
        for x, y in ((j, k), (k, j), (nj, nk), (nk, nj)):
            flat[..., x * q + y] = block
    return P
