"""The mixed exponential sum P(j,k) and the minimum-uncertainty sums
V(j) whose outer products reproduce it.

A MixedSumContext fixes everything the sums depend on: the field, the
parameter a in F_q*, the quartic character, the square root i of -1, and
the normalizing constant tau with tau^2 = q * A4(-a).  The branch of the
square root is fixed deterministically (see make_context); flipping it
negates every V(j) and is exposed for the branch-robustness checks.
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


def make_context(field: FieldTable, a: int, conjugate_quartic: bool = False,
                 flip_tau: bool = False) -> MixedSumContext:
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
    if flip_tau:
        tau = -tau
    return MixedSumContext(field=field, a=a, A4=A4, i_elem=field.i_elem, tau=complex(tau))


def state_vector(ctx: MixedSumContext) -> np.ndarray:
    """V(j) for every j in F_q (index order), cached.

    V(j) = tau^{-1} * sum_{x != 0} A4(x) psi(x + a j^4 / x) for j != 0,
    and V(0) = G(A4)/tau + tau/G(A4).

    psi is additive, so psi(x + c/x) = psi(x) psi(c/x).  With x = g^s and
    c = g^r the x-sum is the cyclic convolution over log x
        K[r] = sum_s A4(g^s) psi(g^s) psi(g^(r-s)),
    one FFT product for every c at once, and tau V(j) = K[log a + 4 log j].
    """
    v = ctx._cache.get("state")
    if v is None:
        f = ctx.field
        x = f.exp_table  # x = g^s
        psi = psi_table(f)[x]
        K = convolve(f, ctx.A4(x) * psi, psi)
        v = np.empty(f.q, dtype=complex)
        v[1:] = K[(f.log_table[ctx.a] + 4 * f.log_table[1:]) % (f.q - 1)] / ctx.tau
        g4 = gauss(ctx.A4)
        v[0] = g4 / ctx.tau + ctx.tau / g4
        v.flags.writeable = False
        ctx._cache["state"] = v
    return v


def _zech_table(field: FieldTable) -> np.ndarray:
    """The Zech logarithms Z[d] = log(1 + g^d), d = 0..q-2, stored twice
    over so that Z[lk - lj + q - 1] needs no reduction mod q-1; cached per
    field.  1 + g^d = 0 at d = (q-1)/2, whose entry is the sentinel 2(q-1):
    it lands past the end of _square_columns' periodic part, on a 0."""
    def build(f):
        z = f.log_table[f.add(1, f.exp_table)]
        z[(f.q - 1) // 2] = 2 * (f.q - 1)
        return np.tile(z, 2)
    return field.cached("zech", build)


def _square_columns(field: FieldTable) -> np.ndarray:
    """col[t] = 1 + (t mod (q-1)/2), the column of (g^t)^2 in the squares
    table, for t < 2(q-1) (a sum of two logs); col[t] = 0, the column of 0,
    for the q-1 entries after that, which the Zech sentinel reads.  Cached
    per field."""
    def build(f):
        t = np.arange(2 * (f.q - 1))
        return np.concatenate((1 + t % ((f.q - 1) // 2), np.zeros(f.q - 1, dtype=t.dtype)))
    return field.cached("square_columns", build)


def sum_square_slots(field: FieldTable, js, ks) -> np.ndarray:
    """The squares-table column of (j+k)^2 for every j in js, k in ks, as a
    (len(js), len(ks)) array.  For j, k != 0, j + k = g^lj (1 + g^(lk-lj)),
    so log(j+k) = lj + Z[lk - lj] and the column is col[lj + Z[lk - lj]];
    k = -j reads the Zech sentinel and gets column 0.  The row of j = 0 and
    the column of k = 0 are the columns of k^2 and j^2."""
    f = field
    col = _square_columns(f)
    js, ks = np.asarray(js), np.asarray(ks)
    lj, lk = f.log_table[js], f.log_table[ks]
    s = col[lj[:, None] + _zech_table(f)[(lk + (f.q - 1)) - lj[:, None]]]
    s[js == 0, :] = np.where(ks == 0, 0, col[lk])
    s[:, ks == 0] = np.where(js == 0, 0, col[lj])[:, None]
    return s


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
    FieldTable.blocks steps, so nothing but S grows as q^2.
    (j-k)^2 = 0 exactly when j = k and (j+k)^2 = 0 exactly when j = -k, so
    the two delta terms of P are column 0 and row 0 of S.
    """
    S = ctx._cache.get("squares")
    if S is None:
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
        for rows in f.blocks(np.arange(half + 1)):
            h = psi_ux[start[rows, None] + np.arange(n)]
            h *= w
            S[rows, 0] = h.sum(axis=1)
            S[rows, 1:] = convolve(f, h, k)[:, ::2]
        S /= gauss(ctx.phi)
        S[:, 0] += 1.0
        S[0, :] += ctx.phi(f.neg_table[1])
        S.flags.writeable = False
        ctx._cache["squares"] = S
    return S


def mixed_block(ctx: MixedSumContext, js, ks) -> np.ndarray:
    """P(j,k) for every j in js and k in ks, as a (len(js), len(ks)) array:
    one gather from the squares table at the columns of (j+k)^2 and of
    (j-k)^2 = (j+(-k))^2 (sum_square_slots).

    P(j,k) = delta(j,k) + phi(-1) delta(j,-k)
             + G(phi)^{-1} F((j+k)^2, (j-k)^2).
    """
    f = ctx.field
    S = squares_table(ctx)
    u = sum_square_slots(f, js, ks)
    u *= S.shape[1]
    u += sum_square_slots(f, js, f.neg_table[ks])
    return S.ravel()[u]


def mixed_table(ctx: MixedSumContext) -> np.ndarray:
    """The full q x q table of P(j,k), cached: mixed_block over every
    column, filled in FieldTable.blocks row blocks, so each entry is one
    read of the squares table at columns found through the Zech table and
    no q x q slot array is built.  The main suite streams row blocks of
    mixed_block instead and never holds this table.
    """
    P = ctx._cache.get("mixed")
    if P is None:
        f = ctx.field
        jj = np.arange(f.q)
        P = np.empty((f.q, f.q), dtype=complex)
        for jb in f.blocks(jj):
            P[jb] = mixed_block(ctx, jb, jj)
        P.flags.writeable = False
        ctx._cache["mixed"] = P
    return P

