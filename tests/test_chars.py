import cmath

import numpy as np
import pytest

from mixedsums import MultChar, build_field, quadratic_char, quartic_char
from mixedsums.chars import char_matrix, dft, psi_table


def test_dft_is_the_character_matrix_product(f13, f9):
    # out[m] = sum over t of chi_m(g^t) h[t], on one axis or on two
    rng = np.random.default_rng(0)
    for f in (f13, f9):
        qm1 = f.q - 1
        C = char_matrix(f)
        h = rng.standard_normal((3, qm1)) + 1j * rng.standard_normal((3, qm1))
        assert np.allclose(dft(f, h), h @ C.T, atol=1e-12)
        H = rng.standard_normal((qm1, qm1))
        assert np.allclose(dft(f, H, axes=(0, 1)), C @ H @ C.T, atol=1e-11)
        with pytest.raises(ValueError):
            dft(f, np.ones(qm1 + 1))


def test_zero_maps_to_zero(f13):
    for m in range(f13.q - 1):
        assert MultChar(f13, m)(0) == 0


def test_quadratic_at_minus_one(f13, f9, f17):
    # q == 1 mod 4: -1 is a square
    for f in (f13, f9, f17):
        phi = quadratic_char(f)
        assert abs(phi(f.neg(1)) - 1) < 1e-12


def test_quartic_at_minus_four(f13, f17, f25):
    # -4 = (1+i)^4 is always a fourth power
    for f in (f13, f17, f25):
        A4 = quartic_char(f)
        minus_four = f.neg(f.add(2, 2))
        assert abs(A4(minus_four) - 1) < 1e-12


def test_additive_char(f5):
    psi = psi_table(f5)
    assert psi[0] == 1
    assert abs(psi[1] - cmath.exp(2j * cmath.pi / 5)) < 1e-12
    assert abs(psi.sum()) < 1e-12


@pytest.mark.parametrize("pn", [(3, 2), (5, 2), (7, 2)])
def test_additive_char_is_additive(pn):
    # psi(x + y) = psi(x) psi(y) is the only fact the matrix-product forms
    # of state_vector and mixed_table rely on.
    f = build_field(*pn)
    psi = psi_table(f)
    x = np.arange(f.q)
    lhs = psi[f.add(x[:, None], x[None, :])]
    assert np.abs(lhs - psi[:, None] * psi[None, :]).max() < 1e-12


def test_special_chars_q13(f13):
    assert (quadratic_char(f13).m, quartic_char(f13).m) == (6, 3)
    assert (f13.q - 1) % 8 != 0  # no octic character


def test_special_chars_q17(f17):
    # the octic exponent (q-1)/8 = 2 squares to the quartic one
    A8 = MultChar(f17, 2)
    assert np.allclose(A8.values() ** 2, quartic_char(f17).values(), atol=1e-12)


def test_quadratic_squares_to_trivial(f13, f9, f25):
    for f in (f13, f9, f25):
        assert np.allclose(quadratic_char(f).values()[1:] ** 2, 1.0, atol=1e-12)


def test_fourth_power_iff_value_one_at_i(f13, f17):
    for f in (f13, f17):
        for m in range(f.q - 1):
            at_i = MultChar(f, m)(f.i_elem)
            assert (m % 4 == 0) == (abs(at_i - 1) < 1e-12)


def test_orthogonality_over_elements(f13):
    for m in range(f13.q - 1):
        total = np.sum(MultChar(f13, m).values()[1:])
        expect = 12.0 if m == 0 else 0.0
        assert abs(total - expect) < 1e-10


def test_orthogonality_over_characters(f13):
    for x in range(1, 13):
        total = sum(MultChar(f13, m)(x) for m in range(f13.q - 1))
        expect = 12.0 if x == 1 else 0.0
        assert abs(total - expect) < 1e-10


def test_multiplicativity(f13):
    chi = MultChar(f13, 5)
    for x in range(1, 13):
        for y in range(1, 13):
            assert abs(chi(f13.mul(x, y)) - chi(x) * chi(y)) < 1e-12


def test_unit_modulus(f25):
    for m in range(f25.q - 1):
        assert np.all(np.abs(np.abs(MultChar(f25, m).values()[1:]) - 1) < 1e-12)


def test_group_law_on_characters(f13):
    # the product, conjugate and power of characters are the sum, negative
    # and multiple of their exponents, mod q-1
    def chi(m):
        return MultChar(f13, m).values()

    assert np.allclose(chi(5) * chi(9), chi(2), atol=1e-12)
    assert np.allclose(np.conj(chi(5)), chi(-5), atol=1e-12)
    assert np.allclose(chi(5) ** 3, chi(3), atol=1e-12)
    assert (MultChar(f13, -5).m, MultChar(f13, 15).m) == (7, 3)
