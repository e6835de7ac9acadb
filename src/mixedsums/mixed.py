"""The mixed exponential sum P(j,k) and the minimum-uncertainty sums
V(j) whose outer products reproduce it.

A MixedSumContext fixes everything the sums depend on: the field, the
parameter a in F_q*, the quartic character, the square root i of -1, and
the normalizing constant tau with tau^2 = q * A4(-a).  The branch of the
square root is fixed deterministically (see make_context); the other
branch would negate every V(j) and leave P = V(j)V(k) unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .gf import FieldError, FieldTable, ZeroArgument
from .chars import MultChar, convolve, psi_table, quadratic_char
from .sums import gauss


class ParameterOutOfRange(FieldError):
    """The parameter a is not an element index in 1..q-1."""


@dataclass
class MixedSumContext:
    field: FieldTable
    a: int
    A4: MultChar
    i_elem: int
    tau: complex
    _cache: dict = dc_field(default_factory=dict, repr=False)

    @property
    def phi(self) -> MultChar:
        return quadratic_char(self.field)

    cached = FieldTable.cached  # a per-context table, built once and read-only


def make_context(field: FieldTable, a: int, conjugate_quartic: bool = False) -> MixedSumContext:
    """Fix (a, A4, tau) over the given field.

    tau is minus the principal square root of q * A4(-a): the quartic value
    A4(-a) is i^k for an exact k in {0,1,2,3}, and the principal root
    sqrt(q) * exp(i*pi*k/4) is the one with argument in [0, pi).
    """
    a = int(a)
    if a == 0:
        raise ZeroArgument("the parameter a must be nonzero")
    if not 1 <= a < field.q:
        raise ParameterOutOfRange(f"a = {a} is not an element index in 1..{field.q - 1}")
    quarter = (field.q - 1) // 4
    A4 = MultChar(field, -quarter if conjugate_quartic else quarter)
    k = ((A4.m * field.log_table[field.neg_table[a]]) % (field.q - 1)) // quarter
    tau = -np.sqrt(field.q) * np.exp(1j * np.pi * k / 4)
    return MixedSumContext(field=field, a=a, A4=A4, i_elem=field.i_elem, tau=complex(tau))


def state_vector(ctx: MixedSumContext) -> np.ndarray:
    """V(j) for every j in F_q (index order), cached.

    V(j) = tau^{-1} * sum_{x != 0} A4(x) psi(x + a j^4 / x) for j != 0,
    and V(0) = G(A4)/tau + tau/G(A4).

    psi is additive, so psi(x + c/x) = psi(x) psi(c/x).  With x = g^s and
    c = g^r the x-sum is the cyclic convolution over log x
        K[r] = sum_s A4(g^s) psi(g^s) psi(g^(r-s)),
    one FFT product for every c at once, and tau V(j) = K[log a + 4 log j].
    K does not depend on a, so it is cached per field and quartic exponent.
    """
    def build(ctx):
        f = ctx.field
        K = f.cached(("state_kernel", ctx.A4.m), lambda f: convolve(  # x = g^s
            f, ctx.A4(f.exp_table) * psi_table(f)[f.exp_table], psi_table(f)[f.exp_table]))
        v = np.empty(f.q, dtype=complex)
        v[1:] = K[(f.log_table[ctx.a] + 4 * f.log_table[1:]) % (f.q - 1)] / ctx.tau
        g4 = gauss(ctx.A4)
        v[0] = g4 / ctx.tau + ctx.tau / g4
        return v
    return ctx.cached("state", build)


def slot_base(field: FieldTable) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, col), the tables that place P(j,k) in the squares table,
    cached per field.  For j = g^s and k = g^(s+d), j +- k = g^s (1 +- g^d),
    so the columns of (j+k)^2 and (j-k)^2 are col[s + A[d]] and
    col[s + B[d]]: A[d] = log(1 + g^d) is the Zech logarithm,
    B[d] = log(1 - g^d) = A[d + (q-1)/2], and col[t] = 1 + (t mod (q-1)/2)
    is the column of (g^t)^2.  Column q-1 + d of offsets is (A[d], B[d])
    for -(q-1) <= d < q-1, so a difference of logs needs no reduction;
    columns 2(q-1) to 3(q-1) are 0, where k = 0 lands with its log read as
    2(q-1), since (j +- 0)^2 = j^2.  Where the sum is 0 (A at d = (q-1)/2,
    B at d = 0) the offset is the sentinel 3(q-1): col is periodic below
    3(q-1) and 0, the column of 0, up to 5(q-1), so s + d + offset is in
    range for every s, d < q."""
    def offsets(f):
        n = f.q - 1
        A = f.log_table[f.add(1, f.exp_table)]
        A[n // 2] = 3 * n
        out = np.zeros((2, 3 * n + 1), dtype=np.int64)
        out[:, :2 * n] = np.tile([A, np.roll(A, -(n // 2))], 2)
        return out

    def columns(f):
        t = np.arange(5 * (f.q - 1))
        return np.where(t < 3 * (f.q - 1), 1 + t % ((f.q - 1) // 2), 0)
    return field.cached("slot_offsets", offsets), field.cached("square_columns", columns)


def square_slots(field: FieldTable, s, offsets, ks, out=None):
    """(u, v) = (col[s + offsets[0]], col[s + offsets[1]]): the
    squares-table columns of (j+k)^2 and (j-k)^2 for the column of row logs
    s and a pair of offset arrays read from slot_base, written into the
    int64 pair out if given (out may be offsets itself).  A row s = q-1 is
    j = 0, where (j +- k)^2 = k^2: both slots read the column of k^2 for
    ks, the k of each column.  Each slot is one broadcast add and one take
    from col, in place; every index is in range by construction, and
    mode="clip" keeps take from buffering out (mode="raise" copies it)."""
    col = slot_base(field)[1]
    sums = (np.add(s, o, out=b) for o, b in zip(offsets, out or (None, None)))
    u, v = (col.take(t, out=t, mode="clip") for t in sums)
    zero = s[:, 0] == field.q - 1
    if zero.any():
        u[zero] = v[zero] = np.where(np.asarray(ks) == 0, 0, col[field.log_table[ks]])
    return u, v


def read_squares(ctx: MixedSumContext, u, v, out=None, index=None) -> np.ndarray:
    """S[u, v] for slot arrays u and v: one gather from the squares table
    into out, through a flat index built in index (u itself may serve)."""
    S = squares_table(ctx)
    i = np.multiply(u, S.shape[1], out=index)
    i += v
    return S.ravel().take(i, out=out, mode="clip")


def squares_table(ctx: MixedSumContext) -> np.ndarray:
    """P as a function of the pair of squares ((j+k)^2, (j-k)^2), cached
    per context: S(u, v) = F(u, v) / G(phi) + delta(v, 0) + phi(-1) delta(u, 0).

    F(u, v) = sum_{x != 0} phi(a/x - x) psi(x u + (a/x) v).
    u and v run over the (q+1)/2 squares of F_q: column 0 is 0 and column
    1 + t is g^(2t), so the column of j^2 is 1 + (log(j) mod (q-1)/2).
    psi is additive, so with x = g^s, u = g^(2t) and v = g^r each row is
    the cyclic convolution over log x
        F(u, g^r) = sum_s [w(g^s) psi(g^(s+2t))] psi(a g^(r-s)),
    w(x) = phi(a/x - x), read at even r; F(u, 0) is the plain sum of the
    bracket, and the row u = 0 convolves w alone.  Rows are built in
    FieldTable.blocks steps, in one reused block buffer, so nothing but S
    grows as q^2.
    (j-k)^2 = 0 exactly when j = k and (j+k)^2 = 0 exactly when j = -k, so
    the two delta terms of P are column 0 and row 0 of S.
    """
    def build(ctx):
        f = ctx.field
        n = f.q - 1
        half = n // 2
        x = f.exp_table  # x = g^s
        w = ctx.phi(f.sub(f.mul(ctx.a, f.inv_table[x]), x))
        psi = psi_table(f)
        k = psi[f.mul(ctx.a, x)]  # psi(a g^s)
        # psi(u x) over s is a window of psi(g^s) taken over two periods,
        # starting at 2t for u = g^(2t); the window at 2n, all ones, is u = 0
        psi_ux = np.concatenate((np.tile(psi[x], 2), np.ones(n)))
        start = np.concatenate(([2 * n], 2 * np.arange(half)))  # row r of S
        S = np.empty((half + 1, half + 1), dtype=complex)
        blocks = list(f.blocks(np.arange(half + 1)))
        buf = np.empty((len(blocks[0]), n), dtype=complex)
        index = np.empty(buf.shape, dtype=np.int64)
        for rows in blocks:
            i = np.add(start[rows, None], np.arange(n), out=index[:len(rows)])
            h = psi_ux.take(i, out=buf[:len(rows)], mode="clip")
            h *= w
            S[rows, 0] = h.sum(axis=1)
            S[rows, 1:] = convolve(f, h, k, out=h)[:, ::2]
        S /= gauss(ctx.phi)
        S[:, 0] += 1.0
        S[0, :] += ctx.phi(f.neg_table[1])
        return S
    return ctx.cached("squares", build)


def mixed_block(ctx: MixedSumContext, js, ks, out=None) -> np.ndarray:
    """P(j,k) for every j in js and k in ks, as a (len(js), len(ks)) array
    written into out if given: the general, index-order read of the slot
    tables, with s = log j (q-1 for j = 0) and offset column
    e = q-1 + log k - s (log 0 read as 2(q-1)).  The second slot array
    lives in out's memory until the gather overwrites it.

    P(j,k) = delta(j,k) + phi(-1) delta(j,-k)
             + G(phi)^{-1} F((j+k)^2, (j-k)^2).
    """
    f = ctx.field
    n = f.q - 1
    js, ks = np.asarray(js), np.asarray(ks)
    s = np.where(js == 0, n, f.log_table[js])[:, None]
    e = np.subtract(np.where(ks == 0, 3 * n, f.log_table[ks] + n), s)
    if out is None:
        out = np.empty(e.shape, dtype=complex)
    offsets = slot_base(f)[0]
    v = offsets[1].take(e, out=out.reshape(-1).view(np.int64)[:e.size].reshape(e.shape),
                        mode="clip")
    u = offsets[0].take(e, out=e, mode="clip")
    return read_squares(ctx, *square_slots(f, s, (u, v), ks, out=(u, v)), out=out, index=u)


def mixed_table(ctx: MixedSumContext) -> np.ndarray:
    """The full q x q table of P(j,k), cached: mixed_block over every
    column, filled in FieldTable.blocks row blocks, so each entry is one
    read of the squares table at columns found through the slot tables and
    no q x q slot array is built.  The main suite streams P in log order
    instead and never holds this table.
    """
    def build(ctx):
        f = ctx.field
        jj = np.arange(f.q)
        P = np.empty((f.q, f.q), dtype=complex)
        for jb in f.blocks(jj):
            mixed_block(ctx, jb, jj, out=P[jb[0]:jb[-1] + 1])
        return P
    return ctx.cached("mixed", build)

