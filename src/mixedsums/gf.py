"""Small finite fields F_q, q = p^n == 1 (mod 4), with exact table arithmetic.

Elements are dense integer indices 0..q-1 encoding polynomials over F_p
(index = sum c_i * p^i).  A field is built once into immutable numpy lookup
tables (generator powers, discrete logs, traces, negation, inversion); all
arithmetic afterwards is pure table reads and works elementwise on scalars
or numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    return prime_factors(m) == [m]


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


# candidates per batch of the modulus and generator searches: under MAX_Q
# the smallest generator is below 64 for n = 1 and below p + 64 for n > 1
# (indices below p lie in F_p and never generate)
_CHUNK = 64


def smallest_irreducible(p: int, n: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree n over F_p.

    Coefficient vectors are compared low-degree first, so the field modulus
    is reproducible without any external polynomial table.  A batch of
    candidates is divided by every monic polynomial of each degree
    d <= n/2 at once, by long division on coefficient arrays, and keeps the
    candidates with no zero remainder: the first one left is irreducible.
    """
    def monic(i, degree):  # the i-th monic polynomials, coefficients low-degree first
        digits = i[:, None] // p ** np.arange(degree - 1, -1, -1) % p
        return np.concatenate((digits, np.ones((len(i), 1), dtype=digits.dtype)), axis=1)

    divisors = [monic(np.arange(p**d), d) for d in range(1, n // 2 + 1)]
    # a constant term of 0 is divisible by x, so for n > 1 the search starts at 1
    for start in range(p ** (n - 1) if n > 1 else 0, p**n, _CHUNK):
        cand = monic(np.arange(start, min(start + _CHUNK, p**n)), n)
        for d, div in enumerate(divisors, 1):  # keep what no divisor of degree d divides
            r = np.repeat(cand[:, None, :], len(div), axis=1)  # [candidate, divisor, coefficient]
            for top in range(n, d - 1, -1):
                r[..., top - d:top + 1] -= r[..., top, None] * div
                r[..., top - d:top + 1] %= p
            cand = cand[~np.all(r[..., :d] == 0, axis=-1).any(axis=-1)]
        if len(cand):
            return tuple(int(c) for c in cand[0])
    raise FieldError(f"no irreducible polynomial of degree {n} over F_{p}")  # unreachable


class FieldTable:
    """Immutable arithmetic model of F_q.

    Attributes:
        params: FieldParams (p, n, q, modulus).
        g: index of the fixed generator of F_q* (smallest index of full order).
        exp_table: exp_table[t] = index of g^t, t = 0..q-2.
        log_table: inverse of exp_table; log_table[0] is a sentinel (0).
        zech: Zech logarithms zech[t] = log(1 + g^t); zech[(q-1)/2] is a sentinel (0).
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

        self.zech = self.log_table[self.add(1, exp_table)]
        self.i_elem = int(exp_table[(q - 1) // 4])
        for t in (exp_table, self.digits, self.log_table, self.neg_table, self.inv_table,
                  self.trace_table, self.zech):
            t.flags.writeable = False
        self._cache: dict = {}

    def cached(self, key, build):
        """The table stored under key in this object's cache, built once as
        build(self) and made read-only (MixedSumContext shares this)."""
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

    def blocks(self, xs: np.ndarray, rows: int = 1):
        """Consecutive slices of xs of at most max(16, 2**14 // q) // rows entries
        (at least 1), each standing for rows rows of a sweep, so that each table
        of a sweep stays near 2**14 values, or 16 rows at q > 1024.  The
        harness cuts the values of a into batches as blocks(a_values, q), so
        that a batch's q x q table P stays near 2**14 values."""
        step = max(1, max(16, 2**14 // self.q) // rows)
        return (xs[i:i + step] for i in range(0, len(xs), step))

    def __repr__(self):
        return f"FieldTable(q={self.q}, p={self.p}, n={self.n}, g={self.g})"


def _digit_product(modulus: tuple[int, ...], p: int):
    """The product of F_p[x]/(modulus) on digit arrays of shape (..., n),
    batched over the leading axes: the digits of u*v are
    sum over i, j of u_i v_j R[i+j] mod p, where R[k] holds the digits of
    x^k mod the modulus, k = 0..2n-2."""
    n = len(modulus) - 1
    low = np.array(modulus[:n], dtype=np.int64)
    R = np.zeros((2 * n - 1, n), dtype=np.int64)
    R[:n] = np.eye(n, dtype=np.int64)
    for k in range(n, 2 * n - 1):  # x^k = x * x^(k-1), with x^n = -low
        R[k, 1:] = R[k - 1, :-1]
        R[k] = (R[k] - R[k - 1, -1] * low) % p
    M = R[np.add.outer(np.arange(n), np.arange(n))].reshape(n * n, n)

    def mul(u, v):
        uv = u[..., :, None] * v[..., None, :]
        return uv.reshape(uv.shape[:-2] + (n * n,)) @ M % p

    return mul


def field_size(p: int, n: int) -> int:
    """q = p^n, after checking that build_field can build F_{p^n}: n >= 1,
    q <= MAX_Q, p prime and q == 1 (mod 4); else a FieldError."""
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
    return q


def build_field(p: int, n: int) -> FieldTable:
    """Construct F_{p^n} deterministically for p^n == 1 (mod 4), p^n <= 2^16.

    g is the smallest index of full order: a batch of candidates x is
    raised to every cofactor (q-1)/r, r a prime factor of q-1, by
    square-and-multiply on digit arrays. exp_table is built by doubling:
    g^k * (g^0 .. g^(k-1)) is one batched product."""
    q = field_size(p, n)
    modulus = smallest_irreducible(p, n)
    params = FieldParams(p=p, n=n, q=q, modulus=modulus)
    mul = _digit_product(modulus, p)
    ppow = p ** np.arange(n, dtype=np.int64)
    one = np.zeros(n, dtype=np.int64)
    one[0] = 1

    cofactors = [(q - 1) // r for r in prime_factors(q - 1)]
    for start in range(2, q, _CHUNK):
        cand = np.arange(start, min(start + _CHUNK, q))
        full_order = np.ones(len(cand), dtype=bool)
        for c in cofactors:  # cand^c by square-and-multiply
            x, r = (cand[:, None] // ppow) % p, one
            while c:
                if c & 1:
                    r = mul(r, x)
                x, c = mul(x, x), c >> 1
            full_order &= np.any(r != one, axis=-1)
        if full_order.any():
            g = int(cand[np.argmax(full_order)])
            break
    else:
        raise FieldError("no generator found; modulus not irreducible?")  # unreachable

    powers = np.empty((q - 1, n), dtype=np.int64)
    powers[0] = one
    gk, k = (g // ppow) % p, 1  # gk = g^k
    while k < q - 1:
        m = min(k, q - 1 - k)
        powers[k:k + m] = mul(powers[:m], gk)
        gk, k = mul(gk, gk), 2 * k
    return FieldTable(params, g, powers @ ppow)
