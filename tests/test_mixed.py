import math

import numpy as np
import pytest

from mixedsums import (
    ParameterOutOfRange,
    ZeroArgument,
    build_field,
    gauss,
    make_context,
    mixed_block,
    mixed_table,
    quartic_char,
    state_vector,
)
from mixedsums.mixed import sum_square_slots
from oracles import naive_mixed_sum, naive_state_value


def find_a(field, quartic_value):
    """Smallest a in F_q* with A4(-a) equal to the given root of unity."""
    A4 = quartic_char(field)
    for a in range(1, field.q):
        if abs(A4(field.neg(a)) - quartic_value) < 1e-9:
            return a
    raise AssertionError("no such a")


def test_tau_principal_branch(f13):
    a = find_a(f13, 1)
    ctx = make_context(f13, a)
    assert abs(ctx.tau + math.sqrt(13)) < 1e-12
    a = find_a(f13, -1)
    ctx = make_context(f13, a)
    assert abs(ctx.tau + 1j * math.sqrt(13)) < 1e-12


def test_tau_squares_to_quartic_value(f13, f9, f17):
    for f in (f13, f9, f17):
        A4 = quartic_char(f)
        for a in range(1, f.q):
            ctx = make_context(f, a)
            assert abs(ctx.tau**2 - f.q * A4(f.neg(a))) < 1e-10
            assert ctx.tau != 0


def test_context_rejects_zero(f13):
    with pytest.raises(ZeroArgument):
        make_context(f13, 0)


@pytest.mark.parametrize("a", [-1, 13, 99])
def test_context_rejects_out_of_range(f13, a):
    with pytest.raises(ParameterOutOfRange):
        make_context(f13, a)


ORACLE_CASES = [
    pytest.param(pn, a, id=f"q{pn[0] ** pn[1]}-a{a}")
    for pn in [(5, 1), (3, 2), (13, 1), (5, 2)]
    for a in (1, 2, pn[0] ** pn[1] - 1)
]


@pytest.mark.parametrize("pn, a", ORACLE_CASES)
def test_mixed_table_matches_oracle(pn, a):
    f = build_field(*pn)
    P = mixed_table(make_context(f, a))
    for j in range(f.q):
        for k in range(f.q):
            assert abs(P[j, k] - naive_mixed_sum(f, a, j, k)) < 1e-10


@pytest.mark.parametrize("pn, a", ORACLE_CASES)
def test_state_vector_matches_oracle(pn, a):
    f = build_field(*pn)
    for ctx in (make_context(f, a), make_context(f, a, conjugate_quartic=True),
                make_context(f, a, flip_tau=True)):
        V = state_vector(ctx)
        for j in range(1, f.q):
            expect = naive_state_value(f, a, ctx.tau, j, ctx.A4.m)
            assert abs(V[j] - expect) < 1e-10


def test_corner_value(f13):
    for a in (1, 2, 6):
        ctx = make_context(f13, a)
        g4 = gauss(ctx.A4)
        expect = 2 + 2 * (g4**2 / (13 * ctx.A4(f13.neg(a)))).real
        corner = mixed_table(ctx)[0, 0]
        assert abs(corner - expect) < 1e-10
        assert abs(corner - state_vector(ctx)[0] ** 2) < 1e-10


def test_state_at_zero(f13):
    a = 12  # -a = 1, so A4(-a) = 1 and tau = -sqrt(13)
    ctx = make_context(f13, a)
    g4 = gauss(ctx.A4)
    root = -math.sqrt(13)
    assert abs(state_vector(ctx)[0] - (g4 / root + root / g4)) < 1e-10


def test_symmetries(f13):
    ctx = make_context(f13, 2)
    P = mixed_table(ctx)
    assert np.abs(P - P.T).max() < 1e-10
    neg = f13.neg_table[np.arange(13)]
    assert np.abs(P[neg, :] - P).max() < 1e-10  # phi(-1) = 1 here
    assert np.abs(P.imag).max() < 1e-10


def test_quarter_turn_invariance(f13, f9):
    for f in (f13, f9):
        ctx = make_context(f, 1)
        V = state_vector(ctx)
        j = f.units()
        assert np.abs(V[f.mul(j, f.i_elem)] - V[j]).max() < 1e-10


@pytest.mark.parametrize("pn", [(5, 1), (13, 1), (3, 2)])
def test_main_identity_all_a(pn):
    f = build_field(*pn)
    for a in range(1, f.q):
        ctx = make_context(f, a)
        P = mixed_table(ctx)
        V = state_vector(ctx)
        assert np.abs(P - np.outer(V, V)).max() < 1e-10


def test_tau_sign_invariance(f13):
    for a in (1, 2, 6):
        ctx = make_context(f13, a)
        flipped = make_context(f13, a, flip_tau=True)
        V, Vf = state_vector(ctx), state_vector(flipped)
        assert np.abs(Vf + V).max() < 1e-12
        assert np.abs(np.outer(Vf, Vf) - np.outer(V, V)).max() < 1e-12


def test_conjugate_quartic_context(f13):
    for a in (1, 2, 6):
        ctx = make_context(f13, a, conjugate_quartic=True)
        assert abs(ctx.tau**2 - 13 * ctx.A4(f13.neg(a))) < 1e-10
        P = mixed_table(ctx)
        V = state_vector(ctx)
        assert np.abs(P - np.outer(V, V)).max() < 1e-10


@pytest.mark.parametrize("pn", [(5, 1), (3, 2), (13, 1), (5, 2), (7, 2), (3, 4), (5, 3)])
def test_zech_slots_match_field_addition(pn):
    # the column of (j+k)^2 through the Zech table equals the column of the
    # square of f.add(j, k), over the full grid
    f = build_field(*pn)
    jj = np.arange(f.q)
    slot = np.where(jj == 0, 0, 1 + f.log_table % ((f.q - 1) // 2))
    assert np.array_equal(sum_square_slots(f, jj, jj), slot[f.add(jj[:, None], jj)])


def test_mixed_table_is_mixed_block_over_every_row():
    # at q = 169 the table is filled in several row blocks
    f = build_field(13, 2)
    ctx = make_context(f, 3)
    jj = np.arange(f.q)
    P = mixed_table(ctx)
    assert len(list(f.blocks(jj))) > 1
    assert np.array_equal(P, mixed_block(ctx, jj, jj))
    assert not P.flags.writeable


@pytest.mark.parametrize("pn, a", [((13, 1), 2), ((5, 2), 3), ((3, 2), 8)])
def test_mixed_block_matches_oracle(pn, a):
    f = build_field(*pn)
    ctx = make_context(f, a)
    j = 2
    js = [0, j, int(f.neg(j)), 1, 0]
    for ks in ([int(f.neg(j)), 0, j, f.q - 1, 1], [j], [0]):
        block = mixed_block(ctx, js, ks)
        assert block.shape == (len(js), len(ks))
        expect = [[naive_mixed_sum(f, a, x, y) for y in ks] for x in js]
        assert np.abs(block - expect).max() < 1e-10
