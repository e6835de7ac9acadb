"""Classical character sums: Gauss, Jacobi, Greene's hypergeometric 2F1
over F_q, the Hasse-Davenport product relation, and the quadratic
2F1 transformation used throughout the verification suites.

Gauss sums for all q-1 characters are computed once per field (one DFT
of the additive character over the log index) and cached; every
closed-form evaluation reads the cache.  Jacobi sums and the 2F1 are
literal sums over y, for every character at once in one exponent sweep.
"""

from __future__ import annotations

import numpy as np

from .gf import FieldError, FieldTable
from .chars import MultChar, char_at, dft, psi_table, unit_roots

DEFAULT_TOL = 1e-8


class BadArgument(FieldError):
    pass


def gauss_table(field: FieldTable) -> np.ndarray:
    """G(chi_m) for m = 0..q-2, cached per field."""
    return field.cached("gauss", lambda f: dft(f, psi_table(f)[f.exp_table]))


def gauss(chi: MultChar) -> complex:
    """G(A) = sum over y in F_q of A(y) psi(y)."""
    return complex(gauss_table(chi.field)[chi.m])


def jacobi(field: FieldTable, a, b) -> np.ndarray:
    """J(chi_(sa m + ta), chi_(sb m + tb)) for every m, on a last axis of
    length q-1 after the broadcast shape of the offsets, for the (slope,
    offset) pairs a = (sa, ta) and b = (sb, tb): the literal sum over
    y not in {0, 1} of chi_(sa m + ta)(y) chi_(sb m + tb)(1-y).  The
    exponent of each term is m (sa log y + sb log(1-y)) plus a part free
    of m, so one exponent_sweep covers every m.
    """
    f = field
    (sa, ta), (sb, tb) = a, b
    ly = f.log_table[2:]  # y = 0 and y = 1 are element indices 0 and 1
    ly1 = f.zech[ly - (f.q - 1) // 2]  # log(1 - y) = log(1 + g^(log y + (q-1)/2))
    t = np.multiply.outer(ta, ly) + np.multiply.outer(tb, ly1)
    return exponent_sweep(f, sa * ly + sb * ly1, unit_roots(f)[np.mod(t, f.q - 1)])


def exponent_sweep(field: FieldTable, k, w) -> np.ndarray:
    """out[..., m] = sum over y of w[..., y] zeta^(m k[..., y]) for every m,
    zeta = exp(2 pi i/(q-1)): one bincount of the weights as interleaved
    (real, imaginary) pairs, by row and k mod q-1, fills a float histogram
    read as complex, and one dft call transforms it in place."""
    qm1 = field.q - 1
    k, w = np.broadcast_arrays(np.mod(k, qm1), np.asarray(w, dtype=complex))
    lead = k.shape[:-1]
    rows = int(np.prod(lead))
    size = 2 * rows * qm1
    bins = np.empty((rows, k.shape[-1], 2), dtype=np.int64)  # the bins of each pair
    real = np.add(np.arange(0, size, 2 * qm1)[:, None], 2 * k.reshape(rows, -1), out=bins[..., 0])
    np.add(real, 1, out=bins[..., 1])
    hist = np.bincount(bins.ravel(), np.ascontiguousarray(w).view(float).ravel(), size)
    hist = hist.view(complex).reshape(lead + (qm1,))
    return dft(field, hist, out=hist)


def hyp2f1_many(field: FieldTable, a, b, c, xs) -> np.ndarray:
    """2F1(chi_a, chi_b; chi_c | x) for every x in xs and every character
    D = chi_m, as a (len(xs), q-1) table indexed [x, m].

    Each parameter is a (slope, offset) pair (s, t) standing for the
    character chi_(s m + t).  The value is the literal sum
    (eps(x)/q) sum over y not in {0, 1} of B(y) (conj(B) C)(y-1) conj(A)(1-x y),
    where a term with 1 - x y = 0 is 0 and the x = 0 row is exactly 0.
    The exponent of each term is m k(x, y) plus a part free of m, so one
    exponent_sweep covers every character.  Each distinct x is summed
    once, and its row copied to every place of x in xs.
    """
    f = field
    qm1 = f.q - 1
    slot = np.zeros(f.q, dtype=np.intp)  # slot[x]: the row of x among the distinct x
    slot[xs] = 1
    x = np.flatnonzero(slot)
    slot[x] = np.arange(len(x))
    (sa, ta), (sb, tb), (sc, tc) = a, b, c
    ly = f.log_table[2:]  # y = 0 and y = 1 are element indices 0 and 1
    # log(y-1) = log(1-y) + log(-1), reduced mod q-1 where it is used
    ly1 = f.zech[ly - qm1 // 2] + qm1 // 2
    lnxy = (f.log_table[x][:, None] + (ly + qm1 // 2)) % qm1  # log(-x y) for x != 0
    lu = f.zech[lnxy]  # log(1 - x y)
    k = sb * ly + (sc - sb) * ly1 - sa * lu
    w = unit_roots(f)[np.mod(tb * ly + (tc - tb) * ly1 - ta * lu, qm1)]
    w[(lnxy == qm1 // 2) | (x[:, None] == 0)] = 0.0  # x y = 1, or x = 0
    return (exponent_sweep(f, k, w) / f.q)[slot[xs]]


def hasse_davenport_residual(field: FieldTable, m) -> np.ndarray:
    """|A(4) G(A) G(A phi) - G(A^2) G(phi)| for A = chi_m, elementwise over
    the exponent array m."""
    qm1 = field.q - 1
    G = gauss_table(field)
    m = np.asarray(m)
    h = qm1 // 2
    a_four = char_at(field, m, field.add(2, 2))
    lhs = a_four * G[np.mod(m, qm1)] * G[np.mod(m + h, qm1)]
    return np.abs(lhs - G[np.mod(2 * m, qm1)] * G[h])


def quad_transform(field: FieldTable, z) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the quadratic 2F1 transformation relating the argument
    z^4 to -((z+1)/(z-1))^2, for every character D = chi_m and every z in an
    array of element indices outside {0, 1, -1}: two (len(z), q-1) tables
    indexed [z, m].

    lhs = 2F1(D, D A4; A4 | z^4) and
    rhs = conj(D)^4(z-1) 2F1(D, D^2 phi; D phi | -((z+1)/(z-1))^2).
    Each 2F1 row is summed once per distinct argument: the four
    z = g^(r + k(q-1)/4), k = 0..3, share z^4, and z and 1/z share -((z+1)/(z-1))^2.
    """
    f = field
    z = np.asarray(z)
    bad = (z == 0) | (z == 1) | (z == f.neg_table[1])
    if np.any(bad):
        raise BadArgument(f"z = {int(z[bad].flat[0])} is excluded")
    e, h = (f.q - 1) // 4, (f.q - 1) // 2
    lhs = hyp2f1_many(f, (1, 0), (1, e), (0, e), f.pow(z, 4))
    zm1 = f.sub(z, 1)
    ratio = f.mul(f.add(z, 1), f.inv_table[zm1])
    dbar4 = char_at(f, -4 * np.arange(f.q - 1), zm1[:, None])
    rhs = dbar4 * hyp2f1_many(f, (1, 0), (2, h), (1, h), f.neg(f.mul(ratio, ratio)))
    return lhs, rhs

