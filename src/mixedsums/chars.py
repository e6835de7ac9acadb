"""Characters of F_q: the multiplicative group dual and the canonical
additive character psi(y) = exp(2*pi*i*trace(y)/p).

A multiplicative character chi_m sends g^t to exp(2*pi*i*m*t/(q-1)) and 0
to 0 (every character, including the trivial one).  All values are read
from one shared table of (q-1)-st roots of unity, so products of characters
reduce to index addition and never accumulate phase error.
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


def dft(field: FieldTable, h, axes=(-1,)) -> np.ndarray:
    """out[m] = sum over t of h[t] zeta^(t m), zeta = exp(2*pi*i/(q-1)), on
    each given axis (of length q-1).  For h indexed by the log index t of
    g^t this is the sum of chi_m h over F_q* for every chi_m; it is the one
    place that fixes the sign and normalisation of such sums."""
    h = np.asarray(h)
    if any(h.shape[ax] != field.q - 1 for ax in axes):
        raise ValueError(f"dft axes {axes} of shape {h.shape} are not of length q-1")
    return np.fft.ifftn(h, axes=axes, norm="forward")


def eval_add(field: FieldTable, y) -> complex:
    """psi(y), elementwise on indices."""
    return psi_table(field)[y]


class MultChar:
    """Multiplicative character chi_m on F_q*, extended by chi(0) = 0."""

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

    def __mul__(self, other: "MultChar") -> "MultChar":
        return MultChar(self.field, self.m + other.m)

    def __pow__(self, e: int) -> "MultChar":
        return MultChar(self.field, self.m * e)

    def conj(self) -> "MultChar":
        return MultChar(self.field, -self.m)

    def is_trivial(self) -> bool:
        return self.m == 0

    def __eq__(self, other):
        return isinstance(other, MultChar) and self.field is other.field and self.m == other.m

    def __hash__(self):
        return hash((id(self.field), self.m))

    def __repr__(self):
        return f"chi_{self.m}"


def all_chars(field: FieldTable) -> list[MultChar]:
    return [MultChar(field, m) for m in range(field.q - 1)]


def trivial_char(field: FieldTable) -> MultChar:
    return MultChar(field, 0)


def quadratic_char(field: FieldTable) -> MultChar:
    return MultChar(field, (field.q - 1) // 2)


def quartic_char(field: FieldTable) -> MultChar:
    return MultChar(field, (field.q - 1) // 4)


def octic_char(field: FieldTable) -> MultChar | None:
    """The fixed octic character with square equal to the quartic one,
    or None when 8 does not divide q-1."""
    if (field.q - 1) % 8 != 0:
        return None
    return MultChar(field, (field.q - 1) // 8)


def special_chars(field: FieldTable):
    """(trivial, quadratic, quartic, octic-or-None)."""
    return trivial_char(field), quadratic_char(field), quartic_char(field), octic_char(field)


def delta_char(chi: MultChar) -> int:
    """1 if chi is trivial, else 0."""
    return 1 if chi.m == 0 else 0


def delta_kron(j, k) -> int:
    """Kronecker delta on element indices."""
    return 1 if int(j) == int(k) else 0


def char_matrix(field: FieldTable) -> np.ndarray:
    """Matrix C[m, t] = chi_m(g^t), shape (q-1, q-1), built on each call:
    the table whose column sums the orthogonality check reads.  Sums over
    every character go through dft instead."""
    t = np.arange(field.q - 1)
    return unit_roots(field)[np.outer(t, t) % (field.q - 1)]
