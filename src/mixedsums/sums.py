"""Classical character sums: Gauss, Jacobi, Greene's hypergeometric 2F1
over F_q, the Hasse-Davenport product relation, and the quadratic
2F1 transformation used throughout the verification suites.

Gauss sums for all q-1 characters are computed once per field (one DFT
of the additive character over the log index) and cached; every
closed-form evaluation reads the cache.  Jacobi sums for all pairs of
characters are one 2-D DFT of a log-index histogram, cached the same way.
"""

from __future__ import annotations

import numpy as np

from .gf import FieldError, FieldTable
from .chars import MultChar, dft, psi_table, unit_roots

DEFAULT_TOL = 1e-8


class BadArgument(FieldError):
    pass


def gauss_table(field: FieldTable) -> np.ndarray:
    """G(chi_m) for m = 0..q-2, cached per field."""
    return field.cached("gauss", lambda f: dft(f, psi_table(f)[f.exp_table]))


def gauss(chi: MultChar) -> complex:
    """G(A) = sum over y in F_q of A(y) psi(y)."""
    return complex(gauss_table(chi.field)[chi.m])


def jacobi(field: FieldTable, ma, mb) -> np.ndarray:
    """J(chi_ma, chi_mb) = sum over y not in {0, 1} of chi_ma(y) chi_mb(1-y),
    elementwise over the broadcast exponent arrays ma and mb, read from the
    all-pairs table cached per field.

    The table is the 2-D DFT of the histogram H[s, t] = #{y not in {0, 1} :
    log y = s, log(1-y) = t}, so the sum never reads the Gauss sums it is
    checked against.
    """
    qm1 = field.q - 1
    return field.cached("jacobi", _jacobi_table)[np.mod(ma, qm1), np.mod(mb, qm1)]


def _jacobi_table(f: FieldTable) -> np.ndarray:
    qm1 = f.q - 1
    y = np.arange(2, f.q)  # index 0 is the zero element, index 1 the one
    pairs = f.log_table[y] * qm1 + f.log_table[f.sub(1, y)]
    return dft(f, np.bincount(pairs, minlength=qm1 * qm1).reshape(qm1, qm1), axes=(0, 1))


def exponent_sweep(field: FieldTable, k, w) -> np.ndarray:
    """out[..., m] = sum over y of w[..., y] zeta^(m k[..., y]) for every m,
    zeta = exp(2 pi i/(q-1)): each row of w is histogrammed by k mod q-1
    (one bincount per real and imaginary part) and all histograms go
    through one dft call."""
    qm1 = field.q - 1
    k, w = np.broadcast_arrays(np.mod(k, qm1), np.asarray(w, dtype=complex))
    lead = k.shape[:-1]
    rows = int(np.prod(lead))
    bins = (np.arange(rows)[:, None] * qm1 + k.reshape(rows, -1)).ravel()
    size = rows * qm1
    hist = np.bincount(bins, w.real.ravel(), size) + 1j * np.bincount(bins, w.imag.ravel(), size)
    return dft(field, hist.reshape(lead + (qm1,)))


def hyp2f1_many(field: FieldTable, a, b, c, xs) -> np.ndarray:
    """2F1(chi_a, chi_b; chi_c | x) for every x in xs and every character
    D = chi_m, as a (len(xs), q-1) table indexed [x, m].

    Each parameter is a (slope, offset) pair (s, t) standing for the
    character chi_(s m + t).  The value is the literal sum
    (eps(x)/q) sum over y not in {0, 1} of B(y) (conj(B) C)(y-1) conj(A)(1-x y),
    where a term with 1 - x y = 0 is 0 and the x = 0 row is exactly 0.
    The exponent of each term is m k(x, y) plus a part free of m, so one
    exponent_sweep covers every character.
    """
    f = field
    qm1 = f.q - 1
    xs = np.asarray(xs)
    (sa, ta), (sb, tb), (sc, tc) = a, b, c
    y = np.arange(2, f.q)  # index 0 is the zero element, index 1 the one
    ly, ly1 = f.log_table[y], f.log_table[f.sub(y, 1)]
    u = f.sub(1, f.mul(xs[:, None], y))
    lu = f.log_table[u]
    k = sb * ly + (sc - sb) * ly1 - sa * lu
    w = unit_roots(f)[np.mod(tb * ly + (tc - tb) * ly1 - ta * lu, qm1)]
    w[(u == 0) | (xs[:, None] == 0)] = 0.0
    return exponent_sweep(f, k, w) / f.q


def hasse_davenport_residual(field: FieldTable, m) -> np.ndarray:
    """|A(4) G(A) G(A phi) - G(A^2) G(phi)| for A = chi_m, elementwise over
    the exponent array m."""
    qm1 = field.q - 1
    G = gauss_table(field)
    m = np.asarray(m)
    h = qm1 // 2
    a_four = unit_roots(field)[np.mod(m * field.log_table[field.add(2, 2)], qm1)]
    lhs = a_four * G[np.mod(m, qm1)] * G[np.mod(m + h, qm1)]
    return np.abs(lhs - G[np.mod(2 * m, qm1)] * G[h])


def quad_transform(field: FieldTable, z) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the quadratic 2F1 transformation relating the argument
    z^4 to -((z+1)/(z-1))^2, for every character D = chi_m and every z in an
    array of element indices outside {0, 1, -1}: two (len(z), q-1) tables
    indexed [z, m].

    lhs = 2F1(D, D A4; A4 | z^4) and
    rhs = conj(D)^4(z-1) 2F1(D, D^2 phi; D phi | -((z+1)/(z-1))^2).
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
    m = np.arange(f.q - 1)
    dbar4 = unit_roots(f)[np.mod(np.outer(-4 * f.log_table[zm1], m), f.q - 1)]
    rhs = dbar4 * hyp2f1_many(f, (1, 0), (2, h), (1, h), f.neg(f.mul(ratio, ratio)))
    return lhs, rhs

