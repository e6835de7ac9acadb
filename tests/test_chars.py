import cmath

import numpy as np
import pytest

from mixedsums import (
    MultChar,
    all_chars,
    build_field,
    delta_char,
    delta_kron,
    eval_add,
    quadratic_char,
    quartic_char,
    special_chars,
    trivial_char,
)
from mixedsums.chars import psi_table


def test_zero_maps_to_zero(f13):
    for chi in all_chars(f13):
        assert chi(0) == 0


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
    assert eval_add(f5, 0) == 1
    assert abs(eval_add(f5, 1) - cmath.exp(2j * cmath.pi / 5)) < 1e-12
    total = sum(eval_add(f5, y) for y in range(5))
    assert abs(total) < 1e-12


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
    eps, phi, A4, A8 = special_chars(f13)
    assert (eps.m, phi.m, A4.m) == (0, 6, 3)
    assert A8 is None  # 8 does not divide 12


def test_special_chars_q17(f17):
    _, _, A4, A8 = special_chars(f17)
    assert A8.m == 2
    assert (A8 * A8) == A4


def test_quadratic_squares_to_trivial(f13, f9, f25):
    for f in (f13, f9, f25):
        phi = quadratic_char(f)
        assert (phi * phi).is_trivial()


def test_deltas(f13):
    assert delta_char(trivial_char(f13)) == 1
    assert delta_char(quadratic_char(f13)) == 0
    assert delta_kron(3, 3) == 1
    assert delta_kron(3, 4) == 0


def test_fourth_power_iff_value_one_at_i(f13, f17):
    for f in (f13, f17):
        for chi in all_chars(f):
            at_i = chi(f.i_elem)
            assert (chi.m % 4 == 0) == (abs(at_i - 1) < 1e-12)


def test_orthogonality_over_elements(f13):
    for chi in all_chars(f13):
        total = np.sum(chi.values()[1:])
        expect = 12.0 if chi.is_trivial() else 0.0
        assert abs(total - expect) < 1e-10


def test_orthogonality_over_characters(f13):
    for x in range(1, 13):
        total = sum(chi(x) for chi in all_chars(f13))
        expect = 12.0 if x == 1 else 0.0
        assert abs(total - expect) < 1e-10


def test_multiplicativity(f13):
    chi = MultChar(f13, 5)
    for x in range(1, 13):
        for y in range(1, 13):
            assert abs(chi(f13.mul(x, y)) - chi(x) * chi(y)) < 1e-12


def test_unit_modulus(f25):
    for chi in all_chars(f25):
        assert np.all(np.abs(np.abs(chi.values()[1:]) - 1) < 1e-12)


def test_group_law_on_characters(f13):
    a, b = MultChar(f13, 5), MultChar(f13, 9)
    assert (a * b).m == 2
    assert a.conj().m == 7
    assert (a**3).m == 3
