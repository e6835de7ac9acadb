import dataclasses
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
from mixedsums import harness
from mixedsums.mixed import slot_base, square_slots
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
    base = make_context(f, a)
    for ctx in (base, make_context(f, a, conjugate_quartic=True),
                dataclasses.replace(base, tau=-base.tau, _cache={})):
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
        flipped = dataclasses.replace(ctx, tau=-ctx.tau, _cache={})
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


def log_grid(f):
    """(elems, ks, offsets) of the log-order layout of P, where row r is
    j = g^r and column c is k = g^(r+c), with j = 0 in row q-1 and k = 0 in
    column q-1: elems holds each row's j, which is also the k of each
    column of row q-1, ks the k of every entry, and offsets the slot
    offsets of every row (slot_base)."""
    n = f.q - 1
    elems = np.append(f.exp_table, 0)
    r, c = np.arange(f.q)[:, None], np.arange(f.q)
    ks = np.where(c == n, 0, f.exp_table[(np.where(r == n, 0, r) + c) % n])
    return elems, ks, slot_base(f)[0][:, n:2 * n + 1]


@pytest.mark.parametrize("pn", [(5, 1), (3, 2), (13, 1), (5, 2), (7, 2), (3, 4), (5, 3)])
def test_zech_slots_match_field_addition(pn):
    # the columns of (j+k)^2 and (j-k)^2 read through the slot tables, in
    # log order and in index order, equal the columns of the squares of
    # f.add(j, k) and f.add(j, -k), over the full grid
    f = build_field(*pn)
    slot = np.where(np.arange(f.q) == 0, 0, 1 + f.log_table % ((f.q - 1) // 2))
    elems, ks, offsets = log_grid(f)
    u, v = square_slots(f, np.arange(f.q)[:, None], offsets, elems)
    assert np.array_equal(u, slot[f.add(elems[:, None], ks)])
    assert np.array_equal(v, slot[f.add(elems[:, None], f.neg_table[ks])])
    jj = np.arange(f.q)
    s = np.where(jj == 0, f.q - 1, f.log_table)[:, None]
    e = np.where(jj == 0, 3 * (f.q - 1), f.log_table + f.q - 1) - s
    u, v = square_slots(f, s, slot_base(f)[0][:, e], jj)
    assert np.array_equal(u, slot[f.add(jj[:, None], jj)])
    assert np.array_equal(v, slot[f.add(jj[:, None], f.neg_table[jj])])


@pytest.mark.parametrize("pn", [(5, 1), (3, 2), (13, 1), (13, 2), (5, 4)])
def test_log_order_rows_are_mixed_table(pn, monkeypatch):
    # run_main's P, streamed in log order with the k = 0 column and the
    # j = 0 row in the same blocks, is mixed_table at (g^s, g^(s+d)) bit for
    # bit; at q = 169 it comes in two blocks
    f = build_field(*pn)
    ctx = make_context(f, 3)
    P, rows = mixed_table(ctx), []
    compare = harness.Checker.compare_arrays

    def keep_p(self, lhs, rhs):
        if self.check_id == "main_identity":
            rows.append(np.array(lhs))
        compare(self, lhs, rhs)
    monkeypatch.setattr(harness.Checker, "compare_arrays", keep_p)
    assert all(r.passed for r in harness.run_main(ctx))
    elems, ks, _ = log_grid(f)
    assert len(rows) == len(list(f.blocks(elems)))
    assert np.concatenate(rows).tobytes() == P[elems[:, None], ks].tobytes()


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


def test_mixed_block_into_reused_buffers():
    # at q = 169 the rows come in a full block and a shorter last one; the
    # gathers into views of one block-sized buffer equal the fresh arrays bit
    # for bit
    f = build_field(13, 2)
    ctx = make_context(f, 3)
    jj = np.arange(f.q)
    blocks = list(f.blocks(jj))
    assert [len(b) for b in blocks] == [96, 73]
    buf = np.empty(96 * f.q, dtype=complex)
    for jb in blocks:
        n = len(jb)
        for js, ks in ((jb, jj), (jj, jb), (f.neg_table[jb], jj)):
            out = buf[:n * f.q].reshape(len(js), len(ks))
            got = mixed_block(ctx, js, ks, out=out)
            assert got is out
            assert got.tobytes() == mixed_block(ctx, js, ks).tobytes()
    elems, _, offsets = log_grid(f)
    slots = np.empty((2, 96, f.q), dtype=np.int64)
    for rs in blocks:
        out = tuple(slots[:, :len(rs)])
        got = square_slots(f, rs[:, None], offsets, elems, out=out)
        assert all(x is y for x, y in zip(got, out))
        assert np.array_equal(got, square_slots(f, rs[:, None], offsets, elems))
