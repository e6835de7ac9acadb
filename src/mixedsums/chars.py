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
    return np.fft.ifftn(h, axes=axes, norm="forward", out=out)


def convolve(field: FieldTable, h, k) -> np.ndarray:
    """out[..., r] = sum over s of h[..., s] k[(r - s) mod (q-1)], the cyclic
    convolution on the last axis (of length q-1), as one FFT product.  For
    h and k indexed by the log index of x = g^s this is the sum over
    x y = g^r of h(x) k(y), for every r at once."""
    h, k = np.asarray(h), np.asarray(k)
    if h.shape[-1] != field.q - 1 or k.shape[-1] != field.q - 1:
        raise ValueError(f"convolve operands of shapes {h.shape} and {k.shape} "
                         "do not end in an axis of length q-1")
    out = np.fft.fft(h) * np.fft.fft(k)
    return np.fft.ifft(out, out=out)


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
        vals = unit_roots(self.field)[(self.m * self.field.log_table[x]) % (self.field.q - 1)]
        return np.where(x == 0, 0.0 + 0.0j, vals)[()]

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
