import itertools

import numpy as np
import pytest

from mixedsums import (
    NotPrime,
    TooLarge,
    WrongResidue,
    ZeroArgument,
    build_field,
)
from mixedsums.gf import is_prime, smallest_irreducible
from oracles import naive_field


def test_f5_generator_and_exp_table(f5):
    # oracle: orders of 2, 3, 4 in (Z/5)* by brute force
    def order(x):
        y, k = x, 1
        while y != 1:
            y = y * x % 5
            k += 1
        return k

    gens = [x for x in range(2, 5) if order(x) == 4]
    assert f5.g == min(gens) == 2
    assert list(f5.exp_table) == [1, 2, 4, 3]


def test_f9_modulus_is_x2_plus_1(f9):
    # x^2 + 1 has no root mod 3, and every lex-smaller monic quadratic does
    assert f9.params.modulus == (1, 0, 1)
    assert all((r * r + 1) % 3 != 0 for r in range(3))


def test_f49_builds():
    f = build_field(7, 2)
    assert f.q == 49
    assert f.q % 4 == 1


def test_build_rejects_bad_parameters():
    with pytest.raises(NotPrime):
        build_field(4, 1)
    with pytest.raises(WrongResidue):
        build_field(7, 1)  # 7 == 3 mod 4
    with pytest.raises(WrongResidue):
        build_field(3, 1)
    with pytest.raises(TooLarge):
        build_field(257, 2)
    with pytest.raises(TooLarge):
        build_field(3, 10**8)  # rejected before 3**n is formed


@pytest.mark.parametrize("pn", [(5, 1), (3, 2), (13, 1), (17, 1), (5, 2), (29, 1),
                                (3, 4), (5, 3), (7, 2)])
def test_zech_table_is_digit_addition_of_one(pn):
    # zech[t] = log(1 + g^t), one digit addition per t; at t = (q-1)/2,
    # 1 + g^t = 0 and the entry is the sentinel log 0, as log_table[0] is
    f = build_field(*pn)
    for t in range(f.q - 1):
        assert f.zech[t] == f.log_table[f.add(1, f.exp_table[t])], (pn, t)
    half = (f.q - 1) // 2
    assert f.add(1, f.exp_table[half]) == 0 and f.zech[half] == 0


def test_is_prime_at_small_and_nonpositive_m():
    primes = [m for m in range(2, 60) if all(m % d for d in range(2, m))]
    assert [m for m in range(-5, 60) if is_prime(m)] == primes


def test_trace_examples(f5, f9):
    # alpha = x (index 3) satisfies alpha^2 = -1 in F_9, so alpha^3 = -alpha
    # and trace(alpha) = alpha - alpha = 0
    assert f9.trace(3) == 0
    assert f9.trace(0) == 0
    assert f5.trace(3) == 3  # n = 1: trace is the identity


def test_dlog_examples(f5):
    assert f5.dlog(4) == 2  # 2^2 = 4
    assert f5.dlog(1) == 0
    assert f5.dlog(3) == 3  # 2^3 = 8 = 3
    with pytest.raises(ZeroArgument):
        f5.dlog(0)


def test_dlog_is_homomorphism(f13):
    for x in range(1, 13):
        for y in range(1, 13):
            lhs = f13.dlog(f13.mul(x, y))
            assert lhs == (f13.dlog(x) + f13.dlog(y)) % 12


def test_frobenius_fixes_trace(f9, f25):
    for f in (f9, f25):
        x = np.arange(f.q)
        assert np.array_equal(f.trace(f.pow(x, f.p)), f.trace(x))


def test_fourth_root_of_unity(f9, f13, f17):
    for f in (f9, f13, f17):
        i = f.i_elem
        assert f.mul(i, i) == f.neg(1)
        assert f.pow(i, 4) == 1


def test_exp_log_roundtrip(f13, f25):
    for f in (f13, f25):
        x = f.units()
        assert np.array_equal(f.exp_table[f.log_table[x]], x)


def test_inverse(f13, f9):
    for f in (f13, f9):
        x = f.units()
        assert np.all(f.mul(x, f.inv(x)) == 1)
        with pytest.raises(ZeroArgument):
            f.inv(0)


@pytest.mark.parametrize("pn", [(5, 1), (3, 2), (13, 1)])
def test_field_axioms_exhaustive(pn):
    f = build_field(*pn)
    elems = range(f.q)
    for x, y, z in itertools.product(elems, repeat=3):
        assert f.add(f.add(x, y), z) == f.add(x, f.add(y, z))
        assert f.mul(f.mul(x, y), z) == f.mul(x, f.mul(y, z))
        assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))


def test_field_axioms_random_triples():
    f = build_field(7, 2)
    rng = np.random.default_rng(0)
    x, y, z = rng.integers(0, f.q, size=(3, 500))
    assert np.array_equal(f.add(f.add(x, y), z), f.add(x, f.add(y, z)))
    assert np.array_equal(f.mul(f.mul(x, y), z), f.mul(x, f.mul(y, z)))
    assert np.array_equal(f.mul(x, f.add(y, z)), f.add(f.mul(x, y), f.mul(x, z)))


def test_smallest_irreducible_is_minimal():
    # no monic quadratic over F_3 lex-smaller than x^2 + 1 is irreducible
    assert smallest_irreducible(3, 2) == (1, 0, 1)
    assert smallest_irreducible(5, 1) == (0, 1)
    # degree-2 over F_7: check against a brute-force root search
    c = smallest_irreducible(7, 2)
    assert all((r * r * c[2] + r * c[1] + c[0]) % 7 != 0 for r in range(7))


# every q = 1 (mod 4) prime power up to 2,500, plus two larger fields with n > 1
ORACLE_FIELDS = [(p, n) for p in range(3, 2501) if is_prime(p) for n in range(1, 8)
                 if p**n <= 2500 and p**n % 4 == 1] + [(3, 8), (89, 2)]


def test_build_field_matches_scalar_build():
    # the batched digit arithmetic finds the same generator and powers as
    # one polynomial product at a time
    assert len(ORACLE_FIELDS) == 202
    for p, n in ORACLE_FIELDS:
        f = build_field(p, n)
        modulus, g, exp_table = naive_field(p, n)
        assert (f.params.modulus, f.g) == (modulus, g), (p, n)
        assert f.exp_table.dtype == np.int64 and f.exp_table.tolist() == exp_table, (p, n)
