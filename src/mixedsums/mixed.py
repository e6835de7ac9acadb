"""The mixed exponential sum P(j,k) and the minimum-uncertainty sums
V(j) whose outer products reproduce it.

A MixedSumContext fixes everything the sums depend on: the field, the
parameter a in F_q*, the quartic character, the square root i of -1, and
the normalizing constant tau with tau^2 = q * A4(-a).  The branch of the
square root is fixed deterministically (see make_context); the other
branch would negate every V(j) and leave P = V(j)V(k) unchanged.
"""

from __future__ import annotations

from collections import namedtuple
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


SlotBase = namedtuple("SlotBase", "jk kj col")


def slot_base(field: FieldTable) -> SlotBase:
    """(jk, kj, col), the tables that place P in the squares table in log
    order, cached per field.  For j = g^r and k = g^(r+c), j +- k =
    g^r (1 +- g^c), so the columns of (j+k)^2 and (j-k)^2 are col[r + A[c]]
    and col[r + B[c]], with the Zech logarithm A[c] = log(1 + g^c),
    B[c] = log(1 - g^c) = A[c + (q-1)/2] and col[t] = 1 + (t mod (q-1)/2),
    the column of (g^t)^2.  Column c of jk is (A[c], B[c]), and 0 at
    c = q-1, where k = 0 lands: (j +- 0)^2 = j^2.  Column c of kj is
    c + (A[-c], B[-c]), the offsets of P(k, j), since log(k +- j) - log j =
    c + log(1 +- g^(-c)).  A sum of 0 (A at c = (q-1)/2, B at c = 0) has
    the offset 3(q-1): col is periodic below 3(q-1) and 0, the column of 0,
    up to 5(q-1), so r + offset is in range for every r < q.  As
    g^c (1 + g^(-c)) = 1 + g^c and g^c (1 - g^(-c)) = -(1 - g^c), kj is
    congruent to jk mod (q-1)/2, sentinels included: P(k, j) reads P(j, k)'s
    own slots, so the main suite's mixed_symmetry check is structural."""
    def offsets(f):
        n = f.q - 1
        c = np.arange(n)
        A = f.log_table[f.add(1, f.exp_table)]
        A[n // 2] = 3 * n
        AB = np.array([A, np.roll(A, -(n // 2))])
        out = np.zeros((2, 2, f.q), dtype=np.int64)
        out[:, :, :n] = AB, c + AB[:, -c]
        return out

    def columns(f):
        t = np.arange(5 * (f.q - 1))
        return np.where(t < 3 * (f.q - 1), 1 + t % ((f.q - 1) // 2), 0)
    jk, kj = field.cached("slot_offsets", offsets)
    return SlotBase(jk, kj, field.cached("square_columns", columns))


def log_rows(ctx: MixedSumContext, rs, offsets, slots, out) -> np.ndarray:
    """P in log order for the rows rs, written into out, a (len(rs), q)
    complex array: row r is j = g^r and column c is k = g^(r+c), with j = 0
    in row q-1 and k = 0 in column q-1.  offsets is slot_base's jk, or kj
    for P(k, j).  The columns (u, v) of (j+k)^2 and (j-k)^2 and the flat
    index of the gather are left in slots, the caller's int64
    (3, len(rs), q) work array.  Row q-1 is j = 0: both slots read the
    column of k^2.  Each slot is one add and one take from col in place;
    every index is in range by construction, and mode="clip" keeps take
    from buffering out (mode="raise" copies it).

    P(j,k) = delta(j,k) + phi(-1) delta(j,-k)
             + G(phi)^{-1} F((j+k)^2, (j-k)^2).
    """
    n = ctx.field.q - 1
    col = slot_base(ctx.field).col
    u, v, index = slots
    for o, t in zip(offsets, (u, v)):
        col.take(np.add(rs[:, None], o, out=t), out=t, mode="clip")
    zero = rs == n
    u[zero] = v[zero] = np.append(col[:n], 0)
    return read_squares(ctx, u, v, out, index)


def read_squares(ctx: MixedSumContext, u, v, out, index) -> np.ndarray:
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


def mixed_table(ctx: MixedSumContext) -> np.ndarray:
    """The full q x q table of P(j,k) in index order, cached: log_rows in
    FieldTable.blocks row blocks, each scattered to its (j, k) =
    (g^r, g^(r+c)), with k = 0 in the last column, so no q x q slot array
    is built.  The main suite streams the log-order rows instead and never
    holds this table.
    """
    def build(ctx):
        f = ctx.field
        q, n = f.q, f.q - 1
        elems = np.append(f.exp_table, 0)  # g^r, and 0 at r = q-1
        c = np.arange(q)
        P = np.empty((q, q), dtype=complex)
        for rs in f.blocks(c):
            slots = np.empty((3, len(rs), q), dtype=np.int64)
            rows = log_rows(ctx, rs, slot_base(f).jk, slots, np.empty(slots.shape[1:], complex))
            P[elems[rs, None], elems[np.where(c == n, n, (rs[:, None] + c) % n)]] = rows
        return P
    return ctx.cached("mixed", build)
