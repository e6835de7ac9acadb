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
    mixed_table,
    quartic_char,
    state_vector,
)
from mixedsums import harness, mixed
from mixedsums.mixed import cell_logs, element_order, square_rows
from oracles import (element_state, element_table, full_length_squares, naive_mixed_sum,
                     naive_state_value, squares_table)


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
    P = element_table(make_context(f, a))
    for j in range(f.q):
        for k in range(f.q):
            assert abs(P[j, k] - naive_mixed_sum(f, a, j, k)) < 1e-10


@pytest.mark.parametrize("pn, a", ORACLE_CASES)
def test_state_vector_matches_oracle(pn, a):
    f = build_field(*pn)
    base = make_context(f, a)
    for ctx in (base, make_context(f, a, conjugate_quartic=True),
                dataclasses.replace(base, tau=-base.tau, _cache={})):
        V = element_state(ctx)
        for j in range(1, f.q):
            expect = naive_state_value(f, a, ctx.tau, j, ctx.A4.m)
            assert abs(V[j] - expect) < 1e-10


def test_corner_value(f13):
    for a in (1, 2, 6):
        ctx = make_context(f13, a)
        g4 = gauss(ctx.A4)
        expect = 2 + 2 * (g4**2 / (13 * ctx.A4(f13.neg(a)))).real
        corner = element_table(ctx)[0, 0]
        assert abs(corner - expect) < 1e-10
        assert abs(corner - element_state(ctx)[0] ** 2) < 1e-10


def test_state_at_zero(f13):
    a = 12  # -a = 1, so A4(-a) = 1 and tau = -sqrt(13)
    ctx = make_context(f13, a)
    g4 = gauss(ctx.A4)
    root = -math.sqrt(13)
    assert abs(element_state(ctx)[0] - (g4 / root + root / g4)) < 1e-10


def test_symmetries(f13):
    ctx = make_context(f13, 2)
    P = element_table(ctx)
    assert np.abs(P - P.T).max() < 1e-10
    neg = f13.neg_table[np.arange(13)]
    assert np.abs(P[neg, :] - P).max() < 1e-10  # phi(-1) = 1 here
    assert np.abs(P.imag).max() < 1e-10


def test_quarter_turn_invariance(f13, f9):
    for f in (f13, f9):
        ctx = make_context(f, 1)
        V = element_state(ctx)
        j = f.units()
        assert np.abs(V[f.mul(j, f.i_elem)] - V[j]).max() < 1e-10


@pytest.mark.parametrize("pn", [(5, 1), (13, 1), (3, 2)])
def test_main_identity_all_a(pn):
    f = build_field(*pn)
    for a in range(1, f.q):
        ctx = make_context(f, a)
        P = mixed_table(ctx)  # V and P share one log order
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


def square_column(f):
    """The squares-table column of x^2 for every x in F_q."""
    return np.where(np.arange(f.q) == 0, 0, 1 + f.log_table % ((f.q - 1) // 2))


@pytest.mark.parametrize("pn", [(5, 1), (3, 2), (13, 1), (5, 2), (13, 2), (5, 4)])
def test_main_stream_is_squares_table(pn, monkeypatch):
    # run_main reads each row block of S once, as square_rows yields it:
    # the blocks its main_identity counts, in order, are the whole S bit
    # for bit, and its negation_symmetry blocks, from the second route, are
    # S's transpose to rounding; at q = 625 S comes in 13 blocks
    f = build_field(*pn)
    ctx = make_context(f, 3)
    seen = {"main_identity": [], "negation_symmetry": []}
    compare = harness.Checker.compare_arrays

    def keep_lhs(self, lhs, rhs, count=None):
        if self.check_id in seen and count:
            seen[self.check_id].append(np.array(lhs))
        compare(self, lhs, rhs, count)
    monkeypatch.setattr(harness.Checker, "compare_arrays", keep_lhs)
    assert all(r.passed for r in harness.run_main(ctx))
    assert "squares" not in ctx._cache
    S = squares_table(ctx)
    assert len(seen["main_identity"]) == len(list(f.blocks(S[:, 0])))
    assert np.concatenate(seen["main_identity"]).tobytes() == S.tobytes()
    assert np.abs(np.concatenate(seen["negation_symmetry"]) - S.T).max() < 1e-12


@pytest.mark.parametrize("pn", [(5, 1), (3, 2), (13, 1), (5, 2), (13, 2), (7, 2), (3, 4), (5, 3)])
def test_cell_logs_place_each_cell_at_its_squares(pn):
    # the (j, k) that cell_logs picks for each cell (u, v) of the squares
    # table, read back from the element at each log-order index, has
    # (j+k)^2 = u and (j-k)^2 = v by field arithmetic, over every cell and
    # for row ranges that start at 0, in the middle and end at the last row:
    # its Zech offsets agree with field addition.  Every index is in
    # 0..q-1, so none aliases another under take(mode="clip"), and q-1, the
    # element 0, sits only where a cell holds 0: k on the diagonal u = v,
    # and j too at the corner u = v = 0
    f = build_field(*pn)
    n = f.q - 1
    half = n // 2
    elems = np.append(f.exp_table, 0)  # the element at each index of the log order
    slot = square_column(f)
    cols = np.arange(half + 1)
    for lo, hi in ((0, half + 1), (0, 2), (1, half + 1), (half // 2, half + 1), (half, half + 1),
                   (half // 2, half // 2 + 2)):
        rows = np.arange(lo, hi)
        logs = cell_logs(f, rows, np.empty((2, len(rows), half + 1), dtype=np.int64))
        assert 0 <= logs.min() and logs.max() <= n
        diagonal = rows[:, None] == cols
        assert np.array_equal(logs[1] == n, diagonal)
        assert np.array_equal(logs[0] == n, diagonal & (cols == 0))
        j, k = elems[logs]
        assert np.array_equal(slot[f.add(j, k)], np.broadcast_to(rows[:, None], j.shape))
        assert np.array_equal(slot[f.sub(j, k)], np.broadcast_to(np.arange(half + 1), j.shape))


@pytest.mark.parametrize("pn, a", [((13, 1), 2), ((5, 2), 3), ((29, 1), 1), ((13, 2), 5)])
def test_square_rows_second_route_is_the_transpose(pn, a):
    # the first route is the whole S bit for bit, and the second, through
    # x -> a/x, a kernel free of a and windows shifted by log a, is S(., u)
    f = build_field(*pn)
    ctx = make_context(f, a)
    S = squares_table(ctx)
    for rows, block, cols in square_rows(ctx, columns=True):
        assert block.tobytes() == S[rows].tobytes()
        assert np.abs(cols - S[:, rows].T).max() < 1e-12
    assert all(cols is None for _, _, cols in square_rows(ctx))


@pytest.mark.parametrize("pn, which", [(pn, which) for pn in ((5, 1), (13, 1), (7, 2), (5, 4))
                                       for which in ("1", "g", "-1")] + [((7, 2), "batch")])
def test_folded_rows_match_the_full_length_convolution(pn, which):
    # each row of S, read at even outputs only, is the half-length inverse
    # transform of its folded spectrum: every block of both routes equals
    # the full-length convolution read at every second output, for one a
    # and for a batch of them
    f = build_field(*pn)
    a = {"1": 1, "g": f.g, "-1": f.neg(1), "batch": [1, f.g, f.q - 1]}[which]
    ctx = make_context(f, a)
    S, C = full_length_squares(ctx)
    tol = 1e-12 * (1 + max(np.abs(S).max(), np.abs(C).max()))
    covered = 0
    for rows, block, cols in square_rows(ctx, columns=True):
        assert np.abs(block - S[..., rows, :]).max() <= tol
        assert np.abs(cols - C[..., rows, :]).max() <= tol
        covered += len(rows)
    assert covered == S.shape[-2]


@pytest.mark.parametrize("streamed, columns, built", [
    (False, False, 1), (False, True, 2), (True, False, 1), (True, True, 2)])
def test_square_rows_builds_only_the_routes_it_runs(monkeypatch, streamed, columns, built):
    # route 0 (S's rows) always runs, and route 1 (its columns) only when
    # columns asks for it: each route built is one kernel transform, in
    # square_routes, and the blocks are S's rows either way.  A context
    # that has streamed S before (as main does before mellin) keeps nothing
    # of it, so a second stream builds its routes again
    f = build_field(13, 2)
    ctx = make_context(f, 3)
    S = squares_table(make_context(f, 3))
    if streamed:
        squares_table(ctx)
        assert "squares" not in ctx._cache
    built_routes = []
    build = mixed.square_routes
    monkeypatch.setattr(mixed, "square_routes",
                        lambda ctx, i: built_routes.append(i) or build(ctx, i))
    for rows, block, cols in square_rows(ctx, columns):
        assert block.tobytes() == S[rows].tobytes()
        assert (cols is None) != columns
    assert built_routes == list(range(built))


def test_mixed_table_reads_squares_at_field_sums():
    # over the full grid at q = 289, where S comes in three row blocks, P(j,k)
    # is the squares table at the columns of (j+k)^2 and (j-k)^2 found by
    # field addition, bit for bit, read by element from P in log order
    f = build_field(17, 2)
    jj = np.arange(f.q)
    slot = square_column(f)
    add, sub = slot[f.add(jj[:, None], jj)], slot[f.sub(jj[:, None], jj)]
    ctx = make_context(f, 3)
    S = squares_table(ctx)
    assert len(list(f.blocks(S[:, 0]))) == 3
    P = mixed_table(ctx)
    i = element_order(f)
    assert P[np.ix_(i, i)].tobytes() == S[add, sub].tobytes()
    # P is built on each call, and neither P nor S is cached
    assert mixed_table(ctx) is not P
    assert not ctx._cache.keys() & {"mixed", "squares"}


@pytest.mark.parametrize("pn", [(5, 1), (13, 1), (5, 2), (13, 2), (5, 4)])
def test_p_zero_column_is_the_squares_diagonal(pn):
    # (j + 0)^2 = (j - 0)^2 = j^2, so P(j, 0) is the diagonal cell
    # S(col(j^2), col(j^2)), bit for bit, for every j: P(j, 0) can be read
    # from S without building P
    f = build_field(*pn)
    ctx = make_context(f, 3)
    col = square_column(f)
    assert element_table(ctx)[:, 0].tobytes() == squares_table(ctx)[col, col].tobytes()
