"""Small finite fields F_q, q = p^n == 1 (mod 4), with exact table arithmetic.

Elements are dense integer indices 0..q-1 encoding polynomials over F_p
(index = sum c_i * p^i).  A field is built once into immutable numpy lookup
tables (generator powers, discrete logs, traces, negation, inversion); all
arithmetic afterwards is pure table reads and works elementwise on scalars
or numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

# Desk-scale cap: tables are O(q), sums are O(q^2) and worse.
MAX_Q = 1 << 16


class FieldError(ValueError):
    """Base class for field construction / arithmetic errors."""


class NotPrime(FieldError):
    pass


class WrongResidue(FieldError):
    """q is not congruent to 1 mod 4."""


class TooLarge(FieldError):
    pass


class ZeroArgument(FieldError):
    """Inverse or discrete log of the zero element."""


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def prime_factors(m: int) -> list[int]:
    """Distinct prime factors of m, by trial division (m is tiny here)."""
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


@dataclass(frozen=True)
class FieldParams:
    p: int
    n: int
    q: int
    modulus: tuple[int, ...]  # monic, degree n, coefficients low-degree first


# --- polynomial helpers over F_p (coefficient lists, low-degree first) ---


def _poly_rem(u: list[int], v: list[int], p: int) -> list[int]:
    """Remainder of u modulo v (lead coefficient of v invertible)."""
    u = [c % p for c in u]
    dv = len(v) - 1
    inv_lead = pow(v[-1], -1, p)
    for i in range(len(u) - 1, dv - 1, -1):
        c = u[i]
        if c:
            f = c * inv_lead % p
            for k in range(dv + 1):
                u[i - dv + k] = (u[i - dv + k] - f * v[k]) % p
    return u[:dv]


def _is_irreducible(coeffs: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    n = len(coeffs) - 1
    if n == 1:
        return True
    for d in range(1, n // 2 + 1):
        for low in product(range(p), repeat=d):
            divisor = list(low) + [1]
            if not any(_poly_rem(coeffs, divisor, p)):
                return False
    return True


def smallest_irreducible(p: int, n: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree n over F_p.

    Coefficient vectors are compared low-degree first, so the field modulus
    is reproducible without any external polynomial table.
    """
    for low in product(range(p), repeat=n):
        coeffs = list(low) + [1]
        if _is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise FieldError(f"no irreducible polynomial of degree {n} over F_{p}")  # unreachable


class FieldTable:
    """Immutable arithmetic model of F_q.

    Attributes:
        params: FieldParams (p, n, q, modulus).
        g: index of the fixed generator of F_q* (smallest index of full order).
        exp_table: exp_table[t] = index of g^t, t = 0..q-2.
        log_table: inverse of exp_table; log_table[0] is a sentinel (0).
        trace_table: absolute trace F_q -> F_p as integers 0..p-1.
        i_elem: g^((q-1)/4), a fixed square root of -1.
    """

    def __init__(self, params: FieldParams, g: int, exp_table: np.ndarray):
        self.params = params
        self.p = params.p
        self.n = params.n
        self.q = params.q
        self.g = g
        self.exp_table = exp_table

        p, n, q = self.p, self.n, self.q
        idx = np.arange(q, dtype=np.int64)
        self._ppow = p ** np.arange(n, dtype=np.int64)
        self.digits = (idx[:, None] // self._ppow[None, :]) % p

        self.log_table = np.zeros(q, dtype=np.int64)
        self.log_table[exp_table] = np.arange(q - 1, dtype=np.int64)

        self.neg_table = ((p - self.digits) % p) @ self._ppow

        self.inv_table = np.zeros(q, dtype=np.int64)
        self.inv_table[exp_table] = exp_table[(-np.arange(q - 1)) % (q - 1)]

        # trace(x) = x^p + x^{p^2} + ... + x^{p^n}; x^q = x, so this is the
        # absolute trace.  Computed through the log tables for x != 0.
        logs = self.log_table[1:]
        acc = np.zeros((q - 1, n), dtype=np.int64)
        for k in range(1, n + 1):
            comp = exp_table[(logs * pow(p, k, q - 1)) % (q - 1)]
            acc += self.digits[comp]
        tr_elems = (acc % p) @ self._ppow
        if np.any(tr_elems >= p):
            raise FieldError("trace left the prime subfield; table corrupt")
        self.trace_table = np.zeros(q, dtype=np.int64)
        self.trace_table[1:] = tr_elems

        self.i_elem = int(exp_table[(q - 1) // 4])
        self._cache: dict = {}

    def cached(self, key: str, build):
        """The per-field table stored under key, built once as build(self)
        and made read-only."""
        tab = self._cache.get(key)
        if tab is None:
            tab = self._cache[key] = build(self)
            tab.flags.writeable = False
        return tab

    # -- arithmetic, elementwise over indices (scalars or arrays) --

    def add(self, x, y):
        return ((self.digits[x] + self.digits[y]) % self.p) @ self._ppow

    def sub(self, x, y):
        return self.add(x, self.neg_table[y])

    def neg(self, x):
        return self.neg_table[x]

    def mul(self, x, y):
        x = np.asarray(x)
        y = np.asarray(y)
        prod = self.exp_table[(self.log_table[x] + self.log_table[y]) % (self.q - 1)]
        return np.where((x == 0) | (y == 0), 0, prod)[()]

    def inv(self, x):
        if np.any(np.asarray(x) == 0):
            raise ZeroArgument("0 has no multiplicative inverse")
        return self.inv_table[x]

    def pow(self, x, e: int):
        """x^e with 0^0 = 1 and 0^e = 0 for e > 0; e < 0 requires x != 0."""
        x = np.asarray(x)
        if e < 0 and np.any(x == 0):
            raise ZeroArgument("negative power of 0")
        res = self.exp_table[(self.log_table[x] * e) % (self.q - 1)]
        zero_val = 1 if e == 0 else 0
        return np.where(x == 0, zero_val, res)[()]

    def dlog(self, x):
        if np.any(np.asarray(x) == 0):
            raise ZeroArgument("discrete log of 0")
        return self.log_table[x]

    def trace(self, x):
        return self.trace_table[x]

    def units(self) -> np.ndarray:
        """Indices of all nonzero elements (1..q-1)."""
        return np.arange(1, self.q, dtype=np.int64)

    def __repr__(self):
        return f"FieldTable(q={self.q}, p={self.p}, n={self.n}, g={self.g})"


def _digits_of(index: int, p: int, n: int) -> list[int]:
    return [(index // p**i) % p for i in range(n)]


def _index_of(digits: list[int], p: int) -> int:
    return sum(c * p**i for i, c in enumerate(digits))


def _mul_digits(u: list[int], v: list[int], modulus: tuple[int, ...], p: int) -> list[int]:
    n = len(modulus) - 1
    prod = [0] * (2 * n - 1)
    for i, ci in enumerate(u):
        if ci:
            for j, cj in enumerate(v):
                prod[i + j] = (prod[i + j] + ci * cj) % p
    # reduce high coefficients using x^n = -(modulus minus lead)
    for i in range(2 * n - 2, n - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for k in range(n):
                prod[i - n + k] = (prod[i - n + k] - c * modulus[k]) % p
    return prod[:n]


def build_field(p: int, n: int) -> FieldTable:
    """Construct F_{p^n} deterministically for p^n == 1 (mod 4), p^n <= 2^16."""
    if n < 1:
        raise FieldError("extension degree must be positive")
    # size first (p >= 2, so n bounds q before p**n is formed): a huge p stalls is_prime
    if n >= MAX_Q.bit_length() or p**n > MAX_Q:
        raise TooLarge(f"q = {p}^{n} exceeds the table cap {MAX_Q}")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    q = p**n
    if q % 4 != 1:
        raise WrongResidue(f"q = {q} is not congruent to 1 mod 4")

    modulus = smallest_irreducible(p, n)
    params = FieldParams(p=p, n=n, q=q, modulus=modulus)

    def mul_idx(x: int, y: int) -> int:
        return _index_of(_mul_digits(_digits_of(x, p, n), _digits_of(y, p, n), modulus, p), p)

    def pow_idx(x: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = mul_idx(r, x)
            x = mul_idx(x, x)
            e >>= 1
        return r

    cofactors = [(q - 1) // r for r in prime_factors(q - 1)]
    g = None
    for cand in range(2, q):
        if all(pow_idx(cand, c) != 1 for c in cofactors):
            g = cand
            break
    if g is None:
        raise FieldError("no generator found; modulus not irreducible?")  # unreachable

    exp_table = np.empty(q - 1, dtype=np.int64)
    cur = 1
    for t in range(q - 1):
        exp_table[t] = cur
        cur = mul_idx(cur, g)
    if cur != 1:
        raise FieldError("generator order mismatch")  # unreachable

    return FieldTable(params, g, exp_table)
