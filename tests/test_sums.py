
import numpy as np
import pytest

from mixedsums import (
    BadArgument,
    MultChar,
    agree,
    all_chars,
    gauss,
    hasse_davenport_residual,
    hyp2f1,
    jacobi,
    quad_transform_residual,
    quadratic_char,
    quartic_char,
    special_chars,
    trivial_char,
)
from mixedsums.chars import unit_roots
from mixedsums.sums import exponent_sweep, hyp2f1_many, quad_transform
from oracles import chi_val, naive_gauss, naive_hyp2f1, naive_jacobi


def test_gauss_matches_oracle(f13, f9):
    for f in (f13, f9):
        for chi in all_chars(f):
            assert abs(gauss(chi) - naive_gauss(f, chi.m)) < 1e-10


def test_gauss_trivial(f13):
    assert abs(gauss(trivial_char(f13)) + 1) < 1e-10


def test_gauss_quadratic_q5(f5):
    g = gauss(quadratic_char(f5))
    assert abs(g - naive_gauss(f5, 2)) < 1e-12
    assert abs(g - 2.2360680) < 1e-6


def test_gauss_norm_relation(f13, f25):
    for f in (f13, f25):
        neg_one = f.neg(1)
        for A in all_chars(f)[1:]:
            assert agree(gauss(A) * gauss(A.conj()), A(neg_one) * f.q)


def test_jacobi_values(f13):
    eps = trivial_char(f13)
    neg_one = f13.neg(1)
    assert abs(jacobi(f13, eps.m, eps.m) - 11) < 1e-10
    for A in all_chars(f13)[1:]:
        assert agree(jacobi(f13, eps.m, A.m), -1.0)
        assert agree(jacobi(f13, A.m, A.conj().m), -A(neg_one))


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
        for A in all_chars(f):
            for B in all_chars(f):
                if (A * B).is_trivial():
                    continue
                assert agree(jacobi(f, A.m, B.m), gauss(A) * gauss(B) / gauss(A * B))


def test_jacobi_reflection(f13):
    # J(A, conj(C)) = A(-1) J(A, conj(A) C) for C nontrivial
    neg_one = f13.neg(1)
    for A in all_chars(f13):
        for C in all_chars(f13)[1:]:
            lhs = jacobi(f13, A.m, C.conj().m)
            rhs = A(neg_one) * jacobi(f13, A.m, (A.conj() * C).m)
            assert agree(lhs, rhs)


def test_hyp2f1_zero_argument(f13):
    A, B, C = MultChar(f13, 1), MultChar(f13, 2), MultChar(f13, 5)
    assert hyp2f1(A, B, C, 0) == 0


def test_hyp2f1_matches_transcription_exhaustive_q5(f5):
    for ma in range(4):
        for mb in range(4):
            for mc in range(4):
                for x in range(5):
                    got = hyp2f1(MultChar(f5, ma), MultChar(f5, mb), MultChar(f5, mc), x)
                    assert abs(got - naive_hyp2f1(f5, ma, mb, mc, x)) < 1e-10


def test_hyp2f1_matches_transcription_q13(f13):
    got = hyp2f1(MultChar(f13, 1), MultChar(f13, 2), MultChar(f13, 5), 2)
    assert abs(got - naive_hyp2f1(f13, 1, 2, 5, 2)) < 1e-10
    # sampled sweep across parameter space
    for ma, mb, mc in [(0, 0, 0), (3, 7, 1), (6, 6, 6), (11, 1, 4), (2, 9, 10)]:
        for x in range(13):
            got = hyp2f1(MultChar(f13, ma), MultChar(f13, mb), MultChar(f13, mc), x)
            assert abs(got - naive_hyp2f1(f13, ma, mb, mc, x)) < 1e-10


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
        for A in all_chars(f):
            assert hasse_davenport_residual(f, A.m) < 1e-10
        m = np.arange(f.q - 1)
        assert hasse_davenport_residual(f, m).shape == m.shape
        assert hasse_davenport_residual(f, m).max() < 1e-10


def test_quad_transform(f13, f9):
    for f in (f13, f9):
        excluded = {0, 1, int(f.neg(1))}
        for D in all_chars(f):
            for z in range(f.q):
                if z in excluded:
                    continue
                assert quad_transform_residual(D, z) < 1e-10
        zs = np.array(sorted(set(range(f.q)) - excluded))
        lhs, rhs = quad_transform(f, zs)
        assert lhs.shape == rhs.shape == (len(zs), f.q - 1)
        assert np.abs(lhs - rhs).max() < 1e-10


def test_quad_transform_bad_argument(f13):
    D = trivial_char(f13)
    for z in (0, 1, int(f13.neg(1))):
        with pytest.raises(BadArgument):
            quad_transform_residual(D, z)
        with pytest.raises(BadArgument):
            quad_transform(f13, np.array([2, z, 3]))


def test_gauss_summation_value_at_one(f13):
    # 2F1(D, D*A4; A4 | 1) has a Gauss-sum closed form away from the
    # trivial and quartic characters
    eps, phi, A4, _ = special_chars(f13)
    four = f13.add(2, 2)
    quarter = 3
    for D in all_chars(f13):
        if D.m in (0, quarter, 3 * quarter):
            continue
        Dbar2 = D.conj() ** 2
        rhs = D.conj()(four) * gauss(Dbar2) / (gauss(Dbar2 * phi) * gauss(phi))
        assert agree(hyp2f1(D, D * A4, A4, 1), rhs)


def test_tolerance_policy():
    assert agree(1e6, 1e6 + 1e-3, 1e-8)  # relative slack at large magnitude
    assert not agree(0.0, 1e-6, 1e-8)
    assert agree(0.0, 1e-9, 1e-8)
    for bad in (float("nan"), float("inf")):
        assert not agree(bad, 1.0)
        assert not agree(bad, bad)
