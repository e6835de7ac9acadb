
import numpy as np
import pytest

from conftest import assert_matches
from mixedsums import (
    BadArgument,
    MultChar,
    gauss,
    hasse_davenport_residual,
    jacobi,
    quadratic_char,
)
from mixedsums.chars import unit_roots
from mixedsums.harness import Checker
from mixedsums.sums import exponent_sweep, gauss_table, hyp2f1_many, quad_transform
from oracles import chi_val, naive_gauss, naive_hyp2f1, naive_jacobi


def test_gauss_matches_oracle(f13, f9):
    for f in (f13, f9):
        G = gauss_table(f)
        for m in range(f.q - 1):
            assert abs(G[m] - naive_gauss(f, m)) < 1e-10
            assert gauss(MultChar(f, m)) == G[m]


def test_gauss_trivial(f13):
    assert abs(gauss_table(f13)[0] + 1) < 1e-10


def test_gauss_quadratic_q5(f5):
    g = gauss(quadratic_char(f5))
    assert abs(g - naive_gauss(f5, 2)) < 1e-12
    assert abs(g - 2.2360680) < 1e-6


def a_at_minus_one(f, ms):
    """chi_m(-1) for every exponent m in ms, by the scalar oracle."""
    return np.array([chi_val(f, int(m), int(f.neg(1))) for m in ms])


def test_gauss_norm_relation(f13, f25):
    for f in (f13, f25):
        G = gauss_table(f)
        ms = np.arange(1, f.q - 1)
        assert_matches(G[ms] * G[-ms], a_at_minus_one(f, ms) * f.q)


def test_jacobi_values(f13):
    assert abs(jacobi(f13, 0, 0) - 11) < 1e-10
    ms = np.arange(1, f13.q - 1)
    assert_matches(jacobi(f13, 0, ms), np.full(len(ms), -1.0))
    assert_matches(jacobi(f13, ms, -ms), -a_at_minus_one(f13, ms))


def test_jacobi_matches_oracle(f5, f9, f13):
    # the full (q-1) x (q-1) table in one call
    for f in (f5, f9, f13):
        m = np.arange(f.q - 1)
        got = jacobi(f, m[:, None], m)
        assert got.shape == (f.q - 1, f.q - 1)
        for ma in m:
            for mb in m:
                assert abs(got[ma, mb] - naive_jacobi(f, ma, mb)) < 1e-10


def test_jacobi_gauss_ratio(f13, f9):
    for f in (f13, f9):
        qm1 = f.q - 1
        G = gauss_table(f)
        ma, mb = np.nonzero((np.arange(qm1)[:, None] + np.arange(qm1)) % qm1)  # A*B nontrivial
        assert_matches(jacobi(f, ma, mb), G[ma] * G[mb] / G[(ma + mb) % qm1])


def test_jacobi_reflection(f13):
    # J(A, conj(C)) = A(-1) J(A, conj(A) C) for C nontrivial
    ma = np.arange(f13.q - 1)[:, None]
    mc = np.arange(1, f13.q - 1)
    assert_matches(jacobi(f13, ma, -mc),
                   a_at_minus_one(f13, ma.ravel())[:, None] * jacobi(f13, ma, mc - ma))


def test_hyp2f1_zero_argument(f13):
    # every character chi_m in the first parameter, with chi_2 and chi_5
    assert np.all(hyp2f1_many(f13, (1, 0), (0, 2), (0, 5), [0]) == 0)


def test_hyp2f1_matches_transcription_exhaustive_q5(f5):
    xs = np.arange(5)
    for mb in range(4):
        for mc in range(4):
            got = hyp2f1_many(f5, (1, 0), (0, mb), (0, mc), xs)  # [x, ma]
            for ma in range(4):
                for x in xs:
                    assert abs(got[x, ma] - naive_hyp2f1(f5, ma, mb, mc, int(x))) < 1e-10


def test_hyp2f1_matches_transcription_q13(f13):
    xs = np.arange(13)
    got = hyp2f1_many(f13, (1, 0), (0, 2), (0, 5), xs)
    assert abs(got[2, 1] - naive_hyp2f1(f13, 1, 2, 5, 2)) < 1e-10
    # sampled sweep across parameter space
    for ma, mb, mc in [(0, 0, 0), (3, 7, 1), (6, 6, 6), (11, 1, 4), (2, 9, 10)]:
        got = hyp2f1_many(f13, (1, 0), (0, mb), (0, mc), xs)
        for x in xs:
            assert abs(got[x, ma] - naive_hyp2f1(f13, ma, mb, mc, int(x))) < 1e-10


# (slope, offset) pairs for a, b, c: chi_(s m + t), with negative offsets and
# offsets of q-1 or more
SWEEP_PARAMS = [
    ((1, 0), (1, 1), (0, 1)),
    ((2, 0), (1, 3), (1, -3)),
    ((-1, 5), (0, -7), (3, 20)),
    ((0, 0), (0, 0), (0, 0)),
    ((-2, -13), (4, 2), (-1, 30)),
]


@pytest.mark.parametrize("params", SWEEP_PARAMS)
def test_hyp2f1_many_matches_oracle(f5, f9, f13, params):
    # every character m, every argument x, in one call per field
    for f in (f5, f9, f13):
        xs = np.arange(f.q)
        got = hyp2f1_many(f, *params, xs)
        assert got.shape == (f.q, f.q - 1)
        assert np.all(got[0] == 0)
        for m in range(f.q - 1):
            ma, mb, mc = (s * m + t for s, t in params)
            for x in xs:
                assert abs(got[x, m] - naive_hyp2f1(f, ma, mb, mc, int(x))) < 1e-10


def test_quad_transform_matches_oracle(f5, f9, f13):
    for f in (f5, f9, f13):
        e, h = (f.q - 1) // 4, (f.q - 1) // 2
        zs = np.array([z for z in range(2, f.q) if z != f.neg(1)])
        lhs, rhs = quad_transform(f, zs)
        for i, z in enumerate(zs):
            zm1 = int(f.sub(z, 1))
            ratio = f.mul(f.add(z, 1), f.inv(zm1))
            arg = int(f.neg(f.mul(ratio, ratio)))
            for m in range(f.q - 1):
                expect_l = naive_hyp2f1(f, m, m + e, e, int(f.pow(z, 4)))
                expect_r = chi_val(f, -4 * m, zm1) * naive_hyp2f1(f, m, 2 * m + h, m + h, arg)
                assert abs(lhs[i, m] - expect_l) < 1e-10
                assert abs(rhs[i, m] - expect_r) < 1e-10


def test_exponent_sweep_sign_convention(f13, f9):
    # one term of weight 1 at k = 1 is zeta^m, not its conjugate
    for f in (f13, f9):
        out = exponent_sweep(f, np.array([1]), np.array([1.0]))
        assert np.allclose(out, unit_roots(f), atol=1e-12)
        assert not np.allclose(out[1], np.conj(unit_roots(f)[1]))
        # rows are independent, and equal exponents add their weights
        k = np.array([[1, 1 + (f.q - 1)], [3, 0]])
        w = np.array([[2.0, 1j], [1.0, 1.0]])
        out = exponent_sweep(f, k, w)
        assert np.allclose(out[0], (2 + 1j) * unit_roots(f), atol=1e-12)
        assert np.allclose(out[1], unit_roots(f)[3 * np.arange(f.q - 1) % (f.q - 1)] + 1,
                           atol=1e-12)


def test_hasse_davenport(f13, f9):
    for f in (f13, f9):
        for m in range(f.q - 1):
            assert hasse_davenport_residual(f, m) < 1e-10
        m = np.arange(f.q - 1)
        assert hasse_davenport_residual(f, m).shape == m.shape
        assert hasse_davenport_residual(f, m).max() < 1e-10


def test_quad_transform(f13, f9):
    for f in (f13, f9):
        excluded = {0, 1, int(f.neg(1))}
        zs = np.array(sorted(set(range(f.q)) - excluded))
        lhs, rhs = quad_transform(f, zs)
        assert lhs.shape == rhs.shape == (len(zs), f.q - 1)
        assert np.abs(lhs - rhs).max() < 1e-10
        for i, z in enumerate(zs):  # one z at a time, every character D = chi_m
            lhs_z, rhs_z = quad_transform(f, [z])
            assert np.abs(lhs_z - rhs_z).max() < 1e-10
            assert np.abs(lhs_z[0] - lhs[i]).max() < 1e-12


def test_quad_transform_bad_argument(f13):
    for z in (0, 1, int(f13.neg(1))):
        with pytest.raises(BadArgument):
            quad_transform(f13, [z])
        with pytest.raises(BadArgument):
            quad_transform(f13, np.array([2, z, 3]))


def test_gauss_summation_value_at_one(f13):
    # 2F1(D, D*A4; A4 | 1) has a Gauss-sum closed form away from the
    # trivial and quartic characters: for D = chi_d,
    # conj(D)(4) G(conj(D)^2) / (G(conj(D)^2 phi) G(phi))
    e, h = 3, 6
    G = gauss_table(f13)
    four = int(f13.add(2, 2))
    ds = np.array([d for d in range(12) if d not in (0, e, 3 * e)])
    rhs = [chi_val(f13, -d, four) * G[-2 * d % 12] / (G[(h - 2 * d) % 12] * G[h]) for d in ds]
    assert_matches(hyp2f1_many(f13, (1, 0), (1, e), (0, e), [1])[0, ds], rhs)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
def test_tolerance_policy(f5):
    # |lhs - rhs| <= tol (1 + max(|lhs|, |rhs|)), in the one place the
    # harness applies it
    def passes(lhs, rhs, tol=1e-8):
        c = Checker("policy", f5, None, tol)
        c.compare_arrays(lhs, rhs)
        return c.report().passed

    assert passes(1e6, 1e6 + 1e-3)  # relative slack at large magnitude
    assert not passes(0.0, 1e-6)
    assert passes(0.0, 1e-9)
    for bad in (float("nan"), float("inf")):
        assert not passes(bad, 1.0)
        assert not passes(bad, bad)
