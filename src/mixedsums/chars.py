"""Characters of F_q: the multiplicative group dual and the canonical
additive character psi(y) = exp(2*pi*i*trace(y)/p).

A multiplicative character chi_m sends g^t to exp(2*pi*i*m*t/(q-1)) and 0
to 0 (every character, including the trivial one), and is written as its
integer exponent m: products, powers and conjugates of characters are sums,
multiples and negatives of exponents.  All values are read from one shared
table of (q-1)-st roots of unity, so they never accumulate phase error.
"""

from __future__ import annotations

import numpy as np

from .gf import FieldTable


def unit_roots(field: FieldTable) -> np.ndarray:
    """The shared table exp(2*pi*i*t/(q-1)), t = 0..q-2."""
    return field.cached("unit_roots",
                        lambda f: np.exp(2j * np.pi * np.arange(f.q - 1) / (f.q - 1)))


def char_at(field: FieldTable, m, x) -> np.ndarray:
    """chi_m(x) for nonzero element indices x, elementwise over the
    broadcast arrays m and x."""
    return unit_roots(field)[np.mod(np.multiply(m, field.log_table[x]), field.q - 1)]


def psi_table(field: FieldTable) -> np.ndarray:
    """Additive character values per element index."""
    return field.cached("psi", lambda f: np.exp(2j * np.pi * f.trace_table / f.p))


def dft(field: FieldTable, h, axes=(-1,), out=None) -> np.ndarray:
    """out[m] = sum over t of h[t] zeta^(t m), zeta = exp(2*pi*i/(q-1)), on
    each given axis (of length q-1).  For h indexed by the log index t of
    g^t this is the sum of chi_m h over F_q* for every chi_m; it is the one
    place that fixes the sign and normalisation of such sums.  A complex
    array of h's shape passed as out receives the result (out=h transforms
    in place, with no second copy of h)."""
    h = np.asarray(h)
    if any(h.shape[ax] != field.q - 1 for ax in axes):
        raise ValueError(f"dft axes {axes} of shape {h.shape} are not of length q-1")
    for ax in reversed(axes):  # the last axis first, as ifftn, whose result this is bit for bit
        h = np.fft.ifft(h, axis=ax, norm="forward", out=out)
    return h


def convolver(field: FieldTable, k):
    """The cyclic convolution with one kernel k (an array ending in an axis
    of length q-1), as a function conv(h, out=None) that returns
    out[..., r] = sum over s of h[..., s] k[(r - s) mod (q-1)], one FFT
    product, with fft(k) computed once here.  For h and k indexed by the
    log index of x = g^s this is the sum over x y = g^r of h(x) k(y), for
    every r at once.  out=h convolves in place."""
    k = np.asarray(k)
    if k.shape[-1] != field.q - 1:
        raise ValueError(f"kernel of shape {k.shape} does not end in an axis of length q-1")
    k_fft = np.fft.fft(k)

    def conv(h, out=None):
        h = np.asarray(h)
        if h.shape[-1] != field.q - 1:
            raise ValueError(f"operand of shape {h.shape} does not end in an axis of length q-1")
        out = np.multiply(np.fft.fft(h, out=out), k_fft, out=out)
        return np.fft.ifft(out, out=out)
    return conv


class MultChar:
    """The values of chi_m on F_q, with chi_m(0) = 0: an evaluator for the
    exponent m, with no arithmetic of its own."""

    __slots__ = ("field", "m")

    def __init__(self, field: FieldTable, m: int):
        self.field = field
        self.m = int(m) % (field.q - 1)

    def __call__(self, x):
        """Character value at element index x (scalar or array)."""
        x = np.asarray(x)
        return np.where(x == 0, 0.0 + 0.0j, char_at(self.field, self.m, x))[()]

    def values(self) -> np.ndarray:
        """Value vector over all q element indices."""
        return self(np.arange(self.field.q))

    def __repr__(self):
        return f"chi_{self.m}"


def quadratic_char(field: FieldTable) -> MultChar:
    return MultChar(field, (field.q - 1) // 2)


def quartic_char(field: FieldTable) -> MultChar:
    return MultChar(field, (field.q - 1) // 4)


def char_matrix(field: FieldTable) -> np.ndarray:
    """Matrix C[m, t] = chi_m(g^t), shape (q-1, q-1), built on each call:
    the table whose column sums the orthogonality check reads.  Sums over
    every character go through dft instead."""
    t = np.arange(field.q - 1)
    return unit_roots(field)[np.outer(t, t) % (field.q - 1)]
