
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
from oracles import naive_gauss, naive_hyp2f1, naive_jacobi


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
    assert abs(jacobi(eps, eps) - 11) < 1e-10
    for A in all_chars(f13)[1:]:
        assert agree(jacobi(eps, A), -1.0)
        assert agree(jacobi(A, A.conj()), -A(neg_one))


def test_jacobi_matches_oracle(f13):
    for ma in range(12):
        for mb in range(12):
            got = jacobi(MultChar(f13, ma), MultChar(f13, mb))
            assert abs(got - naive_jacobi(f13, ma, mb)) < 1e-10


def test_jacobi_gauss_ratio(f13, f9):
    for f in (f13, f9):
        for A in all_chars(f):
            for B in all_chars(f):
                if (A * B).is_trivial():
                    continue
                assert agree(jacobi(A, B), gauss(A) * gauss(B) / gauss(A * B))


def test_jacobi_reflection(f13):
    # J(A, conj(C)) = A(-1) J(A, conj(A) C) for C nontrivial
    neg_one = f13.neg(1)
    for A in all_chars(f13):
        for C in all_chars(f13)[1:]:
            lhs = jacobi(A, C.conj())
            rhs = A(neg_one) * jacobi(A, A.conj() * C)
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


def test_hasse_davenport(f13, f9):
    for f in (f13, f9):
        for A in all_chars(f):
            assert hasse_davenport_residual(A) < 1e-10


def test_quad_transform(f13, f9):
    for f in (f13, f9):
        excluded = {0, 1, int(f.neg(1))}
        for D in all_chars(f):
            for z in range(f.q):
                if z in excluded:
                    continue
                assert quad_transform_residual(D, z) < 1e-10


def test_quad_transform_bad_argument(f13):
    D = trivial_char(f13)
    for z in (0, 1, int(f13.neg(1))):
        with pytest.raises(BadArgument):
            quad_transform_residual(D, z)


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
