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

from .gf import FieldTable, ZeroArgument
from .chars import MultChar, psi_table, quadratic_char, quartic_char
from .sums import gauss


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
    """
    v = ctx._cache.get("state")
    if v is None:
        f = ctx.field
        x = f.units()
        a_over_x = f.mul(ctx.a, f.inv_table[x])
        A4x = ctx.A4.values()[x]
        psi = psi_table(f)
        j = f.units()
        coef = f.mul(ctx.a, f.pow(j, 4))
        args = f.add(x[None, :], f.mul(coef[:, None], f.inv_table[x][None, :]))
        v = np.empty(f.q, dtype=complex)
        v[1:] = (A4x[None, :] * psi[args]).sum(axis=1) / ctx.tau
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
             + G(phi)^{-1} sum_{x != 0} phi(a/x - x)
                                        psi(x (j+k)^2 + (a/x)(j-k)^2).
    The x-sum depends only on (u, v) = ((j+k)^2, (j-k)^2), so it is built
    once as a q x q table over (u, v) and then gathered.
    """
    P = ctx._cache.get("mixed")
    if P is None:
        f = ctx.field
        q = f.q
        x = f.units()
        ax = f.mul(ctx.a, f.inv_table[x])
        w = ctx.phi.values()[f.sub(ax, x)]
        psi = psi_table(f)
        u = np.arange(q)
        xu = f.mul(x[:, None], u[None, :])    # (q-1, q)
        axv = f.mul(ax[:, None], u[None, :])
        F = np.zeros((q, q), dtype=complex)
        for t in range(q - 1):
            F += w[t] * psi[f.add(xu[t][:, None], axv[t][None, :])]
        g_phi = gauss(ctx.phi)
        jj = np.arange(q)
        s = f.add(jj[:, None], jj[None, :])
        d = f.sub(jj[:, None], jj[None, :])
        P = F[f.mul(s, s), f.mul(d, d)] / g_phi
        phi_m1 = ctx.phi(f.neg_table[1])
        P[jj, jj] += 1.0
        P[jj, f.neg_table[jj]] += phi_m1
        P.flags.writeable = False
        ctx._cache["mixed"] = P
    return P


def mixed_sum(ctx: MixedSumContext, j, k) -> complex:
    return complex(mixed_table(ctx)[int(j), int(k)])
