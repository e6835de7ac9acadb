import numpy as np
import pytest

from conftest import assert_matches
from mixedsums import (
    ZeroArgument,
    build_field,
    jacobi,
    make_context,
    mixed_table,
    state_vector,
)
from mixedsums import mellin as ml
from mixedsums.mellin import FourthPowerTrivial
from mixedsums.sums import exponent_sweep, gauss_table, hyp2f1_many
import oracles
from oracles import (chi_val, element_state, element_table, naive_double_mellin,
                     naive_hyper_kernel, naive_mellin_p0, naive_mellin_v)


def test_direct_routes_never_read_gauss_sums(monkeypatch):
    # a fresh field, so that the cached J(chi_m, phi) sweep is built under the patch
    f = build_field(17, 1)
    ctx = make_context(f, 3)

    def no_gauss(field):
        raise AssertionError("a direct route read the Gauss sums")

    monkeypatch.setattr("mixedsums.sums.gauss_table", no_gauss)
    monkeypatch.setattr("mixedsums.mellin.gauss_table", no_gauss)
    qm1 = f.q - 1
    m = np.arange(qm1)
    js = f.units()
    assert jacobi(f, (0, m), (1, 0)).shape == (qm1, qm1)
    assert ml._jacobi_phi(f, m).shape == (qm1,)
    assert exponent_sweep(f, m, np.ones(qm1)).shape == (qm1,)
    assert hyp2f1_many(f, (1, 0), (1, qm1 // 4), (0, qm1 // 4), js).shape == (qm1, qm1)
    assert ml.hyper_kernel_row(ctx, js).shape == (qm1, qm1)
    assert ml.null_locus_sum(ctx, m).shape == (qm1,)


def test_mellin_v_vanishes_off_fourth_powers(f13):
    for a in (1, 2):
        S = ml.mellin_v_all(make_context(f13, a))
        for m in range(f13.q - 1):
            if m % 4 != 0:
                assert abs(S[m]) < 1e-10


def test_mellin_v_direct_equals_closed(f13, f9):
    for f in (f13, f9):
        for a in (1, f.g):
            ctx = make_context(f, a)
            S = ml.mellin_v_all(ctx)
            for m in range(f.q - 1):
                assert abs(S[m] - ml.mellin_v_closed(ctx, m)) < 1e-9


def test_mellin_v_trivial_char_is_plain_sum(f13):
    ctx = make_context(f13, 3)
    assert abs(ml.mellin_v_all(ctx)[0] - state_vector(ctx)[:-1].sum()) < 1e-10


def test_mellin_v_octic_form(f17):
    # with either quartic character, whose square root the octic one must follow
    for a in range(1, f17.q):
        for ctx in (make_context(f17, a), make_context(f17, a, conjugate_quartic=True)):
            phi = (f17.q - 1) // 2
            octic = ml.mellin_v_octic(ctx)
            assert abs(octic - ml.mellin_v_closed(ctx, phi)) < 1e-9
            assert abs(octic - ml.mellin_v_all(ctx)[phi]) < 1e-9


@pytest.mark.parametrize("p, n", [(5, 1), (3, 2), (13, 1)])
def test_mellin_transforms_match_oracles(p, n):
    # the vectorized transforms against the literal character sums, for
    # every character (and every pair of characters)
    f = build_field(p, n)
    q = f.q
    for a in (1, f.g, q - 1):
        ctx = make_context(f, a)
        V, P = element_state(ctx), element_table(ctx)
        S, T0 = ml.mellin_v_all(ctx), ml.mellin_p0_all(f, mixed_table(ctx))
        T = ml.double_mellin_matrix(f, mixed_table(ctx))
        for m1 in range(q - 1):
            assert abs(S[m1] - naive_mellin_v(f, V, m1)) < 1e-10
            assert abs(T0[m1] - naive_mellin_p0(f, P, m1)) < 1e-10
            for m2 in range(q - 1):
                assert abs(T[m1, m2] - naive_double_mellin(f, P, m1, m2)) < 1e-9


def test_mellin_v_closed_root_shift(f13):
    ctx = make_context(f13, 2)
    for nu in range(f13.q - 1):
        a_val = ml.mellin_v_closed_root(ctx, nu)
        b_val = ml.mellin_v_closed_root(ctx, nu + ctx.A4)  # nu A4
        assert abs(a_val - b_val) < 1e-10


def test_v_moment_sum_oracle(f13):
    ctx = make_context(f13, 1)
    total = 0.0
    for x in range(1, 13):
        arg = int(f13.add(x, f13.mul(1, f13.inv(x))))
        total += chi_val(f13, 3, x) * chi_val(f13, -1, arg)
    assert abs(oracles.v_moment_sum(ctx, 1) - total) < 1e-10


def test_v_moment_jacobi_form(f13):
    # for lam = nu^2 conj(A4) with lam^2 nontrivial:
    # Y(lam) = conj(nu)(a) {A4(a) J(nu, nu conj(A4)) + conj(A4)(a) J(nu phi, nu A4)}
    e, h = 3, 6  # the exponents of A4 and phi at q = 13
    j_first = jacobi(f13, (1, 0), (1, -e))  # J(nu, nu conj(A4)) at index nu
    j_second = jacobi(f13, (1, h), (1, e))  # J(nu phi, nu A4)
    for a in (1, 2, 5):
        ctx = make_context(f13, a)
        assert (ctx.A4, (f13.q - 1) // 2) == (e, h)
        for nu in range(f13.q - 1):
            lam = 2 * nu - e
            if 2 * lam % 12 == 0:
                continue
            rhs = chi_val(f13, -nu, a) * (
                chi_val(f13, e, a) * j_first[nu] + chi_val(f13, -e, a) * j_second[nu]
            )
            assert abs(oracles.v_moment_sum(ctx, lam) - rhs) < 1e-9


def test_mellin_p0_direct_equals_closed(f13):
    f17 = build_field(17, 1)
    for f, a_list in ((f13, (1, 2, 6)), (f17, (3,))):
        for a in a_list:
            ctx = make_context(f, a)
            T = ml.mellin_p0_all(f, mixed_table(ctx))
            for m in range(f.q - 1):
                assert abs(T[m] - ml.mellin_p0_closed(ctx, m)) < 1e-9


def test_mellin_p0_trivial_case(f13):
    ctx = make_context(f13, 4)
    plain = element_table(ctx)[1:, 0].sum()
    assert abs(ml.mellin_p0_closed(ctx, 0) - plain) < 1e-9


def test_kummer_closed(f13, f9):
    # 2F1(nu^2, nu A4; nu conj(A4) | -1) for every nu = chi_m, in one table
    for f, roots in ((f13, (1, 2)), (f9, (1,))):
        ctx = make_context(f, 1)
        e = ctx.A4
        rhs = hyp2f1_many(f, (2, 0), (1, e), (1, -e), [f.neg(1)])
        for m in roots:
            assert abs(ml.kummer_closed(ctx, m) - rhs[0, m]) < 1e-10


def test_kummer_rejects_trivial_fourth_power(f13):
    ctx = make_context(f13, 1)
    with pytest.raises(FourthPowerTrivial):
        ml.kummer_closed(ctx, 3)


def test_axis_sum_closed_cases(f13):
    # lam*A4 = nu^2 with nu^4 trivial: the axis sum collapses to
    # (q-1)(A4(a) + conj(A4)(a))
    for a in range(1, 13):
        ctx = make_context(f13, a)
        e = ctx.A4
        for lam in (-e, 3):
            expect = 12 * (chi_val(f13, e, a) + chi_val(f13, -e, a))
            assert abs(oracles.axis_sum(ctx, lam) - expect) < 1e-9


def test_axis_sum_empty_locus(f13):
    # phi(-a) = -1: no x with x^2 = -a, so the sum is empty
    phi_m = 6
    for a in range(1, 13):
        ctx = make_context(f13, a)
        if abs(chi_val(f13, phi_m, int(f13.neg(a))) + 1) < 1e-9:
            assert oracles.axis_sum(ctx, 1) == 0


def test_p0_locus_sum_gauss_form(f13):
    # lam = chi_1: lam*A4 = nu^2 with nu = chi_2 and nu^4 nontrivial
    def G(m):
        return gauss_table(f13)[m % 12]

    for a in (1, 2, 5):
        ctx = make_context(f13, a)
        e, h = ctx.A4, (f13.q - 1) // 2
        nu = 2
        lam = 2 * nu - e
        pref = chi_val(f13, e, int(f13.neg(1))) * G(h) / 13
        rhs = pref * G(nu + e) * chi_val(f13, -nu - e, a) * (
            G(nu) * G(e) + G(nu + h) * G(-e)
        ) + pref * G(nu - e) * chi_val(f13, -nu + e, a) * (
            G(nu + h) * G(e) + G(nu) * G(-e)
        )
        assert abs(oracles.p0_locus_sum(ctx, lam) - rhs) < 1e-9


def test_cross_form(f5, f13):
    ctx = make_context(f5, 1)
    assert oracles.cross_form(ctx, 2, 1) == 0  # (2+1)^2 + (2-1)^2 = 10 = 0 in F_5
    ctx13 = make_context(f13, 1)
    for x in range(1, 13):
        assert oracles.cross_form(ctx13, 1, x) == f13.mul(4, x)
        assert oracles.cross_form(ctx13, f13.neg(1), x) == f13.mul(4, f13.inv(x))
        assert oracles.cross_form(ctx13, 1, x) != 0
    with pytest.raises(ZeroArgument):
        oracles.cross_form(ctx13, 1, 0)


def test_hyper_kernel_special_values(f13):
    ctx = make_context(f13, 1)
    e, h = ctx.A4, (f13.q - 1) // 2
    assert abs(ml.hyper_kernel_closed(ctx, 0, f13.i_elem) - (13 - 2)) < 1e-10
    j_phi = jacobi(f13, (1, 0), (0, h))[e]  # J(A4, phi)
    assert abs(ml.hyper_kernel_closed(ctx, e, 1) - j_phi) < 1e-10
    # the closed special values agree with the defining sum
    for m in (0, e, -e % 12):
        for j in range(1, 13):
            direct = ml.hyper_kernel_row(ctx, [j])[0, m]
            assert abs(direct - ml.hyper_kernel_closed(ctx, m, j)) < 1e-9


def test_hyper_kernel_closed_everywhere(f13, f9):
    for f in (f13, f9):
        ctx = make_context(f, 1)
        js = f.units()
        direct = ml.hyper_kernel_row(ctx, js)
        closed = ml.hyper_kernel_closed_row(ctx, js)
        for m in range(f.q - 1):
            assert np.abs(direct[:, m] - closed[:, m]).max() < 1e-9


def test_hyper_kernel_rows_match_oracle(f5, f9, f13):
    # every character, every nonzero j, both routes against the plain loop
    for f in (f5, f9, f13):
        ctx = make_context(f, 1)
        js = f.units()
        direct = ml.hyper_kernel_row(ctx, js)
        closed = ml.hyper_kernel_closed_row(ctx, js)
        assert direct.shape == closed.shape == (f.q - 1, f.q - 1)
        for i, j in enumerate(js):
            for m in range(f.q - 1):
                expect = naive_hyper_kernel(f, m, int(j))
                assert abs(direct[i, m] - expect) < 1e-10
                assert abs(closed[i, m] - expect) < 1e-9


def test_hyper_kernel_rejects_zero(f13):
    ctx = make_context(f13, 1)
    with pytest.raises(ZeroArgument):
        ml.hyper_kernel_closed(ctx, 1, 0)
    for row in (ml.hyper_kernel_row, ml.hyper_kernel_closed_row):
        with pytest.raises(ZeroArgument):
            row(ctx, np.array([2, 0, 3]))


def test_null_locus_sum(f13):
    g = f13.g
    for a in (1, g):
        ctx = make_context(f13, a)
        for lam1 in range(f13.q - 1):
            chi1 = (2 * lam1 + 6) % 12  # lam1^2 phi, phi = chi_6
            direct = ml.null_locus_sum(ctx, lam1)
            if chi1 % 4 == 0:
                assert abs(direct - ml.null_locus_closed(ctx, chi1 // 4)) < 1e-9
            else:
                assert abs(direct) < 1e-10


def test_null_locus_sum_over_several_blocks():
    # q = 169, a field of degree 2, at a = 1 and a = g
    f = build_field(13, 2)
    m = np.arange(f.q - 1)
    for a in (1, f.g):
        ctx = make_context(f, a)
        chi1 = (2 * m + (f.q - 1) // 2) % (f.q - 1)  # lam1^2 phi
        expect = np.where(chi1 % 4 == 0, ml.null_locus_closed(ctx, chi1 // 4), 0.0)
        assert np.abs(ml.null_locus_sum(ctx, m) - expect).max() < 1e-9


@pytest.mark.parametrize("p, n", [(5, 1), (3, 2), (13, 1), (5, 2), (29, 1), (7, 2), (3, 4)])
def test_null_locus_sum_matches_the_scan(p, n):
    # the solved locus against a search of every (j, x), for every a: the
    # same terms in the same order, so the same floats; the locus is empty,
    # and the sum 0, exactly when -a is not a square
    f = build_field(p, n)
    m = np.arange(f.q - 1)
    nonsquare = 0
    for a in range(1, f.q):
        ctx = make_context(f, a)
        got = ml.null_locus_sum(ctx, m)
        np.testing.assert_array_equal(got, oracles.naive_null_locus_sum(ctx, m))
        if f.log_table[f.neg(a)] % 2:
            nonsquare += 1
            assert not got.any()
    assert nonsquare == (f.q - 1) // 2


def test_cross_form_sum_oracle_q5(f5):
    ctx = make_context(f5, 1)
    chi1_m = (2 * 1 + 2) % 4  # lam^2 * phi for lam = chi_1
    total = 0.0
    for j in range(1, 5):
        for x in range(1, 5):
            ax = int(f5.mul(1, f5.inv(x)))
            alpha = int(oracles.cross_form(ctx, j, x))
            total += (
                chi_val(f5, chi1_m, j)
                * chi_val(f5, 2, int(f5.sub(x, ax)))
                * chi_val(f5, -2, alpha)
            )
    assert abs(oracles.cross_form_sum(ctx, 1, 1) - total) < 1e-10


def test_double_mellin_assembly_from_parts(f13):
    # G(phi)(T - (2q-2) delta) = delta (q-1) H + G(l1 l2) E(l1, l2)
    #                            + G(l1 l2 phi) E(l1, l2 phi)
    # for lam1 = chi_m1, lam2 = chi_m2 and chi_i = lam_i^2 phi
    ctx = make_context(f13, 2)
    h = (f13.q - 1) // 2  # phi = chi_h
    G = gauss_table(f13)
    T_all = ml.double_mellin_matrix(f13, mixed_table(ctx))
    for m1, m2 in [(0, 0), (1, 1), (2, 3), (5, 1), (3, 9)]:
        d = 1 if 2 * (m1 + m2) % 12 == 0 else 0  # (lam1 lam2)^2 trivial
        T = T_all[(2 * m1 + h) % 12, (2 * m2 + h) % 12]
        lhs = G[h] * (T - (2 * 13 - 2) * d)
        rhs = (
            d * 12 * ml.null_locus_sum(ctx, m1)
            + G[(m1 + m2) % 12] * oracles.cross_form_sum(ctx, m1, m2)
            + G[(m1 + m2 + h) % 12] * oracles.cross_form_sum(ctx, m1, m2 + h)
        )
        assert abs(lhs - rhs) < 1e-8


@pytest.mark.parametrize("pn", [(5, 1), (3, 2), (13, 1), (17, 1), (5, 2), (29, 1), (7, 2),
                                (3, 4), (257, 1), (5, 4)])
def test_double_mellin_matrix_is_the_gathered_transform(pn):
    # P is in log order, so T is the transform of its (q-1) x (q-1) corner
    # in P's own buffer: it is the transform of P read by element and
    # gathered into log order in a second array, bit for bit
    f = build_field(*pn)
    for a in dict.fromkeys((1, f.g, int(f.neg_table[1]), 3)):
        ctx = make_context(f, a)
        expect = oracles.gathered_double_mellin(ctx).tobytes()
        P = mixed_table(ctx)
        T = ml.double_mellin_matrix(f, P)
        assert T.shape == (f.q - 1, f.q - 1)
        assert np.shares_memory(T, P)
        assert np.ascontiguousarray(T).tobytes() == expect, a


def test_double_mellin_symmetric(f13):
    ctx = make_context(f13, 1)
    T = ml.double_mellin_matrix(f13, mixed_table(ctx))
    assert np.abs(T - T.T).max() < 1e-9


def test_double_mellin_vanishes(f13):
    ctx = make_context(f13, 3)
    T = ml.double_mellin_matrix(f13, mixed_table(ctx))
    for m1 in range(12):
        for m2 in range(12):
            if m1 % 4 and m2 % 4 or (m1 % 4 == 0) != (m2 % 4 == 0):
                assert abs(T[m1, m2]) < 1e-9


def test_double_mellin_direct_equals_closed(f13):
    ctx = make_context(f13, 1)
    direct = ml.double_mellin_matrix(f13, mixed_table(ctx))[4, 8]
    closed = ml.double_mellin_closed(ctx, 1, 2)
    assert abs(direct - closed) < 1e-9


def test_double_mellin_q17_example(f17):
    ctx = make_context(f17, 5)
    direct = ml.double_mellin_matrix(f17, mixed_table(ctx))[4, 12]
    closed = ml.double_mellin_closed(ctx, 1, 3)
    assert abs(direct - closed) < 1e-9


def test_double_mellin_trivial_pair(f13):
    ctx = make_context(f13, 4)
    closed = ml.double_mellin_closed(ctx, 0, 0)
    plain = element_table(ctx)[1:, 1:].sum()
    assert abs(closed - plain) < 1e-8


def test_double_mellin_closed_root_shift(f13):
    ctx = make_context(f13, 2)
    e = ctx.A4
    for m1 in range(12):
        for m2 in range(12):
            base = ml.double_mellin_closed(ctx, m1, m2)
            assert abs(base - ml.double_mellin_closed(ctx, m1 + e, m2)) < 1e-9


@pytest.mark.parametrize("pn", [(13, 1), (5, 2), (29, 1), (7, 2), (3, 4)])
def test_double_mellin_closed_is_the_sixteen_term_sum(pn):
    # chi(-nu1 - nu2 - (m + n) e)(a) = chi(-nu1 - n e)(a) chi(-nu2 - m e)(a),
    # so the 16 gathered Gauss-sum products are one product of two root
    # sums: for every pair of exponents, at a in {1, g, -1} and with either
    # quartic character, the two agree to rounding.  The 8 x 8 part of
    # run_mellin's root_shift_invariance compares the closed form at
    # (nu1, nu2) and (nu1 + e, nu2 - e).  In either form that shift permutes
    # the same 16 terms: each root sum's four Gauss-sum pairs move one place,
    # and the character values move with them.  So the two sides differ only
    # in rounding, and the row may read exactly 0, as it does at q = 5, a = 1.
    f = build_field(*pn)
    m = np.arange(f.q - 1)
    for a in dict.fromkeys((1, f.g, int(f.neg_table[1]))):
        for conj in (False, True):
            ctx = make_context(f, a, conjugate_quartic=conj)
            T = oracles.sixteen_term_double_mellin_closed(ctx, m[:, None], m)
            got = ml.double_mellin_closed(ctx, m[:, None], m)
            assert np.all(np.abs(got - T) <= 1e-12 * (1 + np.abs(T))), (a, conj)


def test_pair_coeffs(f13):
    for a in (1, 2):
        ctx = make_context(f13, a)
        T = ml.double_mellin_matrix(f13, mixed_table(ctx))
        A4a = chi_val(f13, ctx.A4, ctx.a)
        for nu1 in range(f13.q - 1):
            rj = ml.pair_coeffs(ctx, nu1)
            rg = ml.pair_coeffs_gauss(ctx, nu1)
            for x, y in zip(rj, rg):
                assert abs(x - y) < 1e-8
            if nu1 == 0:
                assert abs(rj[0] - (2 * 13 + 2)) < 1e-10
            assembled = sum(rj[k] * A4a**k for k in range(4))
            direct = T[(4 * nu1) % 12, (-4 * nu1) % 12]
            assert abs(assembled - direct) < 1e-8


def test_inverse_mellin(f13):
    ctx = make_context(f13, 2)
    V = element_state(ctx)
    S = ml.mellin_v_all(ctx)
    closed = ml.mellin_v_closed(ctx, np.arange(12))
    for j in range(1, 13):
        assert abs(ml.inverse_mellin(f13, S, j) - V[j]) < 1e-9
        assert abs(ml.inverse_mellin(f13, closed, j) - V[j]) < 1e-9
    js = f13.units()
    assert np.abs(ml.inverse_mellin(f13, S, js) - V[js]).max() < 1e-9
    assert ml.inverse_mellin(f13, np.zeros(12), 5) == 0
    with pytest.raises(ZeroArgument):
        ml.inverse_mellin(f13, S, 0)


def closed_contexts(f):
    """a in {1, g, q-1} with the fixed quartic character, and a = g with its
    conjugate."""
    for a in dict.fromkeys((1, f.g, f.q - 1)):
        yield make_context(f, a)
    yield make_context(f, f.g, conjugate_quartic=True)


@pytest.mark.parametrize("p, n", [(5, 1), (3, 2), (13, 1), (17, 1)])
def test_closed_forms_match_oracles(p, n):
    # each closed form in one call over every exponent (every pair for the
    # double transform) against the scalar transcription
    f = build_field(p, n)
    m = np.arange(f.q - 1)
    nus = m[4 * m % (f.q - 1) != 0]
    for ctx in closed_contexts(f):
        for fn, oracle, ms in [
            (ml.mellin_v_closed, oracles.naive_v_closed, m),
            (ml.mellin_v_closed_root, oracles.naive_v_closed_root, m),
            (ml.mellin_p0_closed, oracles.naive_p0_closed, m),
            (ml.mellin_p0_closed_root, oracles.naive_p0_closed_root, m),
            (ml.kummer_closed, oracles.naive_kummer_closed, nus),
            (ml.null_locus_closed, oracles.naive_null_locus_closed, m),
            (ml.pair_coeffs, oracles.naive_pair_coeffs, m),
            (ml.pair_coeffs_gauss, oracles.naive_pair_coeffs_gauss, m),
        ]:
            assert_matches(fn(ctx, ms), [oracle(ctx, int(mi)) for mi in ms])
        assert_matches(ml.double_mellin_closed(ctx, m[:, None], m),
                       [[oracles.naive_double_mellin_closed(ctx, int(m1), int(m2)) for m2 in m]
                        for m1 in m])
