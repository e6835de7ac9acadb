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
from .chars import MultChar, psi_table, quadratic_char, quartic_char
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
    A4 = quartic_char(field)
    if conjugate_quartic:
        A4 = A4.conj()
    quarter = (field.q - 1) // 4
    k = ((A4.m * field.log_table[field.neg_table[a]]) % (field.q - 1)) // quarter
    tau = -np.sqrt(field.q) * np.exp(1j * np.pi * k / 4)
    if flip_tau:
        tau = -tau
    return MixedSumContext(field=field, a=a, A4=A4, i_elem=field.i_elem, tau=complex(tau))


def state_vector(ctx: MixedSumContext) -> np.ndarray:
    """V(j) for every j in F_q (index order), cached.

    V(j) = tau^{-1} * sum_{x != 0} A4(x) psi(x + a j^4 / x) for j != 0,
    and V(0) = G(A4)/tau + tau/G(A4).

    psi is additive, so psi(x + c/x) = psi(x) psi(c/x) and the x-sum is one
    matrix-vector product: tau V(j) = psi[c x^{-1}] @ (A4(x) psi(x)) with
    c = a j^4.  It depends on j only through j^4 = g^(4t), t = log(j) mod
    (q-1)/4, so the product runs over the (q-1)/4 fourth powers and is then
    gathered back to j by t.
    """
    v = ctx._cache.get("state")
    if v is None:
        f = ctx.field
        x = f.units()
        psi = psi_table(f)
        coef = f.mul(ctx.a, f.exp_table[::4])  # a g^(4t)
        kernel = psi[f.mul(coef[:, None], f.inv_table[x][None, :])]  # psi(c/x)
        sums = kernel @ (ctx.A4.values()[x] * psi[x])
        v = np.empty(f.q, dtype=complex)
        v[1:] = sums[f.log_table[x] % ((f.q - 1) // 4)] / ctx.tau
        g4 = gauss(ctx.A4)
        v[0] = g4 / ctx.tau + ctx.tau / g4
        v.flags.writeable = False
        ctx._cache["state"] = v
    return v


def state_value(ctx: MixedSumContext, j) -> complex:
    return complex(state_vector(ctx)[int(j)])


def mixed_table(ctx: MixedSumContext) -> np.ndarray:
    """The full q x q table of P(j,k), cached.

    P(j,k) = delta(j,k) + phi(-1) delta(j,-k)
             + G(phi)^{-1} F((j+k)^2, (j-k)^2),
    F(u, v) = sum_{x != 0} phi(a/x - x) psi(x u + (a/x) v).
    psi is additive, so psi(x u + (a/x) v) = psi(x u) psi((a/x) v) and F is
    one matrix product over x:
        F = (w[:, None] * psi[x u])^T @ psi[(a/x) v],   w(x) = phi(a/x - x).
    P reads F only at pairs of squares, so u and v run over the (q+1)/2
    squares of F_q: column 0 is 0 and column 1 + t is g^(2t).  The column
    of j^2 is slot[j] = 1 + (log(j) mod (q-1)/2), and slot[0] = 0.
    """
    P = ctx._cache.get("mixed")
    if P is None:
        f = ctx.field
        x = f.units()
        ax = f.mul(ctx.a, f.inv_table[x])
        w = ctx.phi.values()[f.sub(ax, x)]
        psi = psi_table(f)
        jj = np.arange(f.q)
        squares = np.concatenate(([0], f.exp_table[::2]))
        slot = np.where(jj == 0, 0, 1 + f.log_table[jj] % ((f.q - 1) // 2))
        left = w[:, None] * psi[f.mul(x[:, None], squares[None, :])]
        right = psi[f.mul(ax[:, None], squares[None, :])]
        F = left.T @ right
        del left, right  # free before the q x q gather, which sets the peak memory
        F /= gauss(ctx.phi)
        u = slot[f.add(jj[:, None], jj[None, :])]  # column of (j+k)^2
        P = F[u, u[:, f.neg_table]]                # (j-k)^2 = (j+(-k))^2
        P[jj, jj] += 1.0
        P[jj, f.neg_table[jj]] += ctx.phi(f.neg_table[1])
        P.flags.writeable = False
        ctx._cache["mixed"] = P
    return P


def mixed_sum(ctx: MixedSumContext, j, k) -> complex:
    return complex(mixed_table(ctx)[int(j), int(k)])
