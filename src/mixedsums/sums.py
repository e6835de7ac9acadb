"""Classical character sums: Gauss, Jacobi, Greene's hypergeometric 2F1
over F_q, the Hasse-Davenport product relation, and the quadratic
2F1 transformation used throughout the verification suites.

Gauss sums for all q-1 characters are computed once per field (a single
(q-1)x(q-1) matrix product against the additive character on the group)
and cached; every closed-form evaluation reads the cache.
"""

from __future__ import annotations

import math

import numpy as np

from .gf import FieldError, FieldTable
from .chars import MultChar, char_matrix, psi_table, quadratic_char, quartic_char

DEFAULT_TOL = 1e-8


class BadArgument(FieldError):
    pass


def residual(lhs: complex, rhs: complex) -> float:
    return abs(lhs - rhs)


def agree(lhs: complex, rhs: complex, tol: float = DEFAULT_TOL) -> bool:
    """Mixed relative/absolute comparison: values range from O(1) to O(q^2).
    A NaN or infinite difference never agrees."""
    err = abs(lhs - rhs)
    return math.isfinite(err) and err <= tol * (1.0 + max(abs(lhs), abs(rhs)))


def gauss_table(field: FieldTable) -> np.ndarray:
    """G(chi_m) for m = 0..q-2, cached per field."""
    tab = field._cache.get("gauss")
    if tab is None:
        psi_on_group = psi_table(field)[field.exp_table]
        tab = char_matrix(field) @ psi_on_group
        tab.flags.writeable = False
        field._cache["gauss"] = tab
    return tab


def gauss(chi: MultChar) -> complex:
    """G(A) = sum over y in F_q of A(y) psi(y)."""
    return complex(gauss_table(chi.field)[chi.m])


def jacobi(A: MultChar, B: MultChar) -> complex:
    """J(A, B) = sum over y of A(y) B(1-y); the y = 0, 1 terms vanish."""
    f = A.field
    y = np.arange(f.q)
    return complex(np.sum(A.values()[y] * B.values()[f.sub(1, y)]))


def hyp2f1(A: MultChar, B: MultChar, C: MultChar, x) -> complex:
    """Greene's hypergeometric 2F1 over F_q at the element index x."""
    return complex(hyp2f1_many(A, B, C, np.asarray([int(x)]))[0])


def hyp2f1_many(A: MultChar, B: MultChar, C: MultChar, xs: np.ndarray) -> np.ndarray:
    """2F1 at every element index in xs (vectorized over the argument).

    The value is (eps(x)/q) * sum_y B(y) (conj(B) C)(y-1) conj(A)(1-x y);
    x = 0 gives exactly 0 through the eps(x) prefactor.
    """
    f = A.field
    xs = np.asarray(xs)
    y = np.arange(f.q)
    w = B.values()[y] * (B.conj() * C).values()[f.sub(y, 1)]
    Abar = A.conj().values()
    out = (w[None, :] * Abar[f.sub(1, f.mul(xs[:, None], y[None, :]))]).sum(axis=1) / f.q
    return np.where(xs == 0, 0.0 + 0.0j, out)


def hasse_davenport_residual(A: MultChar) -> float:
    """|A(4) G(A) G(A phi) - G(A^2) G(phi)|."""
    f = A.field
    phi = quadratic_char(f)
    four = f.add(2, 2)
    lhs = A(four) * gauss(A) * gauss(A * phi)
    rhs = gauss(A * A) * gauss(phi)
    return residual(lhs, rhs)


def quad_transform_residual(D: MultChar, z) -> float:
    """Residual of the quadratic 2F1 transformation relating the argument
    z^4 to -((z+1)/(z-1))^2; defined for z outside {0, 1, -1}."""
    f = D.field
    z = int(z)
    if z in (0, 1, f.neg_table[1]):
        raise BadArgument(f"z = {z} is excluded")
    A4 = quartic_char(f)
    phi = quadratic_char(f)
    lhs = hyp2f1(D, D * A4, A4, f.pow(z, 4))
    ratio = f.mul(f.add(z, 1), f.inv(f.sub(z, 1)))
    arg = f.neg(f.mul(ratio, ratio))
    rhs = (D.conj() ** 4)(f.sub(z, 1)) * hyp2f1(D, (D**2) * phi, D * phi, arg)
    return residual(lhs, rhs)
