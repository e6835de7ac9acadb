"""Acceptance criteria, one test per criterion.

Every criterion is an exhaustive numerical sweep at the tolerance policy
|lhs - rhs| <= tol * (1 + max(|lhs|, |rhs|)) with tol = 1e-8.  Each test
prints a single pass/fail line; run with `pytest -s tests/test_acceptance.py`
to see them.
"""

import numpy as np

from mixedsums import build_field, gauss, jacobi, make_context
from mixedsums import mellin as ml
from mixedsums.mixed import mixed_table, state_vector
from mixedsums.sums import gauss_table, hasse_davenport_residual, hyp2f1_many
from oracles import chi_val

TOL = 1e-8

FIELD_SPECS = [(5, 1), (3, 2), (13, 1), (17, 1), (5, 2), (29, 1), (37, 1), (41, 1), (7, 2)]
LARGE_Q = {37, 41, 49}  # sampled a-policy for the O(q^2)-per-pair sweeps

_fields = {}
_contexts = {}


def field_for(p, n):
    key = (p, n)
    if key not in _fields:
        _fields[key] = build_field(p, n)
    return _fields[key]


def ctx_for(f, a, conjugate=False):
    key = (f.q, a, conjugate)
    if key not in _contexts:
        _contexts[key] = make_context(f, a, conjugate_quartic=conjugate)
    return _contexts[key]


def a_all(f):
    return [int(a) for a in f.units()]


def a_policy(f):
    if f.q in LARGE_Q:
        g = f.g
        return sorted({1, g, int(f.mul(g, g)), int(f.neg(1))})
    return a_all(f)


class Criterion:
    def __init__(self, label):
        self.label = label
        self.max_err = 0.0
        self.ok = True
        self.instances = 0

    def check(self, lhs, rhs, tol=TOL):
        lhs = np.asarray(lhs, dtype=complex).ravel()
        rhs = np.asarray(rhs, dtype=complex).ravel()
        err = np.abs(lhs - rhs)
        self.instances += lhs.size
        if lhs.size:
            self.max_err = max(self.max_err, float(err.max()))
            scale = 1.0 + np.maximum(np.abs(lhs), np.abs(rhs))
            if np.any(err > tol * scale):
                self.ok = False

    def finish(self):
        status = "PASS" if self.ok else "FAIL"
        print(f"{status} {self.label}: {self.instances} instances, "
              f"max_abs_err = {self.max_err:.3e}")
        assert self.ok, f"{self.label} exceeded tolerance (max err {self.max_err:.3e})"


def test_criterion_01_main_identity():
    c = Criterion("criterion 1 (main identity P = V x V, all q, all a)")
    for p, n in FIELD_SPECS:
        f = field_for(p, n)
        for a in a_all(f):
            ctx = ctx_for(f, a)
            V = state_vector(ctx)
            c.check(mixed_table(ctx), np.outer(V, V))
    c.finish()


def test_criterion_02_zero_arguments():
    c = Criterion("criterion 2 (P(0,0) = V(0)^2 and P(j,0) = V(0)V(j))")
    for p, n in FIELD_SPECS:
        f = field_for(p, n)
        for a in a_all(f):
            ctx = ctx_for(f, a)
            P = mixed_table(ctx)
            V = state_vector(ctx)
            c.check(P[0, 0], V[0] ** 2)
            c.check(P[:, 0], V[0] * V)
            g4 = gauss(ctx.A4)
            c.check(P[0, 0], 2 + 2 * (g4**2 / (f.q * ctx.A4(f.neg(a)))).real)
    c.finish()


def test_criterion_03_mellin_v():
    c = Criterion("criterion 3 (Mellin transform of V: direct = closed; octic form)")
    for p, n in FIELD_SPECS:
        f = field_for(p, n)
        for a in a_all(f):
            ctx = ctx_for(f, a)
            direct = ml.mellin_v_all(ctx)
            closed = ml.mellin_v_closed(ctx, np.arange(f.q - 1))
            c.check(direct, closed)
            if (f.q - 1) % 8 == 0:
                octic = ml.mellin_v_octic(ctx)
                c.check(direct[(f.q - 1) // 2], octic)
                c.check(ml.mellin_v_closed(ctx, ctx.phi.m), octic)
    c.finish()


def test_criterion_04_mellin_p0_and_kummer():
    c = Criterion("criterion 4 (Mellin transform of P(.,0): direct = closed; Kummer value)")
    for p, n in FIELD_SPECS:
        f = field_for(p, n)
        qm1 = f.q - 1
        ref = ctx_for(f, 1)
        e = ref.A4.m
        # 2F1(nu^2, nu A4; nu conj(A4) | -1) for every nu = chi_m with nu^4 nontrivial
        m = np.arange(qm1)
        nus = m[4 * m % qm1 != 0]
        lhs = hyp2f1_many(f, (2, 0), (1, e), (1, -e), [f.neg(1)])[0, nus]
        c.check(lhs, ml.kummer_closed(ref, nus))
        for a in a_all(f):
            ctx = ctx_for(f, a)
            direct = ml.mellin_p0_all(ctx)
            closed = ml.mellin_p0_closed(ctx, np.arange(f.q - 1))
            c.check(direct, closed)
    c.finish()


def test_criterion_05_double_mellin():
    c = Criterion("criterion 5 (double Mellin transform: direct = closed or 0)")
    for p, n in FIELD_SPECS:
        f = field_for(p, n)
        qm1 = f.q - 1
        for a in a_policy(f):
            ctx = ctx_for(f, a)
            T = ml.double_mellin_matrix(ctx)
            closed = np.zeros_like(T)
            for m1 in range(0, qm1, 4):
                for m2 in range(0, qm1, 4):
                    closed[m1, m2] = ml.double_mellin_closed(ctx, m1 // 4, m2 // 4)
            c.check(T, closed)
    c.finish()


def test_criterion_06_hyper_kernel():
    c = Criterion("criterion 6 (hypergeometric kernel h: direct = closed, all D, all j)")
    for p, n in FIELD_SPECS:
        f = field_for(p, n)
        # the kernel does not involve a, so one sweep per field covers
        # every a in the criterion-5 policy
        ctx = ctx_for(f, 1)
        js = f.units()
        c.check(ml.hyper_kernel_row(ctx, js), ml.hyper_kernel_closed_row(ctx, js))
    c.finish()


def test_criterion_07_transformation_layer():
    c = Criterion("criterion 7 (Hasse-Davenport; quadratic transformation; "
                  "Gauss summation at 1)")
    for p, n in FIELD_SPECS:
        f = field_for(p, n)
        qm1 = f.q - 1
        m = np.arange(qm1)
        c.check(hasse_davenport_residual(f, m), 0.0)
        neg_one = int(f.neg(1))
        zs = np.array([z for z in range(1, f.q) if z not in (1, neg_one)])
        e, h = qm1 // 4, qm1 // 2  # the quartic and quadratic exponents
        lhs = hyp2f1_many(f, (1, 0), (1, e), (0, e), f.pow(zs, 4))
        ratio = f.mul(f.add(zs, 1), f.inv(f.sub(zs, 1)))
        arg = f.neg(f.mul(ratio, ratio))
        # conj(D)^4(z - 1) for D = chi_d
        dbar4 = np.array([[chi_val(f, -4 * d, int(z)) for d in m] for z in f.sub(zs, 1)])
        rhs = dbar4 * hyp2f1_many(f, (1, 0), (2, h), (1, h), arg)
        c.check(lhs, rhs)
        # Gauss summation for D = chi_d away from the trivial and quartic characters:
        # 2F1(D, D A4; A4 | 1) = conj(D)(4) G(conj(D)^2) / (G(conj(D)^2 phi) G(phi))
        G = gauss_table(f)
        four = int(f.add(2, 2))
        at_one = hyp2f1_many(f, (1, 0), (1, e), (0, e), [1])[0]
        for d in m:
            if d in (0, e, 3 * e):
                continue
            rhs = chi_val(f, -d, four) * G[-2 * d % qm1] / (G[(h - 2 * d) % qm1] * G[h])
            c.check(at_one[d], rhs)
    c.finish()


def test_criterion_08_product_assembly():
    c = Criterion("criterion 8 (S(chi1) S(chi2) = T(chi1, chi2); inverse transform "
                  "recovers V)")
    for p, n in FIELD_SPECS:
        f = field_for(p, n)
        for a in a_policy(f):
            ctx = ctx_for(f, a)
            S = ml.mellin_v_all(ctx)
            T = ml.double_mellin_matrix(ctx)
            c.check(np.outer(S, S), T)
            closed = ml.mellin_v_closed(ctx, np.arange(f.q - 1))
            V = state_vector(ctx)
            for j in f.units():
                c.check(ml.inverse_mellin(f, closed, j), V[j])
    c.finish()


def test_criterion_09_branch_robustness():
    c = Criterion("criterion 9 (tau sign, conjugate quartic character, and "
                  "fourth-root shifts)")
    for p, n in FIELD_SPECS:
        f = field_for(p, n)
        for a in a_all(f):
            ctx = ctx_for(f, a)
            V = state_vector(ctx)
            flipped = make_context(f, a, flip_tau=True)
            Vf = state_vector(flipped)
            c.check(Vf, -V, tol=1e-12)
            c.check(np.outer(Vf, Vf), np.outer(V, V), tol=1e-12)
            # criteria 1-3 under the conjugate quartic character
            cctx = ctx_for(f, a, conjugate=True)
            Vc = state_vector(cctx)
            Pc = mixed_table(cctx)
            c.check(Pc, np.outer(Vc, Vc))
            c.check(Pc[:, 0], Vc[0] * Vc)
            direct = ml.mellin_v_all(cctx)
            closed = ml.mellin_v_closed(cctx, np.arange(f.q - 1))
            c.check(direct, closed)
        # closed forms are invariant under nu -> nu * A4
        ctx = ctx_for(f, f.g)
        e = ctx.A4.m
        for nu in range(f.q - 1):
            c.check(ml.mellin_v_closed_root(ctx, nu),
                    ml.mellin_v_closed_root(ctx, nu + e))
            c.check(ml.mellin_p0_closed_root(ctx, nu),
                    ml.mellin_p0_closed_root(ctx, nu + e))
        for m1 in range(0, f.q - 1, max(1, (f.q - 1) // 8)):
            for m2 in range(0, f.q - 1, max(1, (f.q - 1) // 8)):
                c.check(ml.double_mellin_closed(ctx, m1, m2),
                        ml.double_mellin_closed(ctx, m1 + e, m2))
    c.finish()


def test_criterion_10_classical_layer():
    c = Criterion("criterion 10 (classical Gauss/Jacobi sum facts, exhaustive)")
    for p, n in FIELD_SPECS:
        f = field_for(p, n)
        qm1 = f.q - 1
        G = gauss_table(f)
        neg_one = int(f.neg(1))
        c.check(G[0], -1.0)
        c.check(jacobi(f, 0, 0), f.q - 2.0)
        for ma in range(1, qm1):
            a_neg_one = chi_val(f, ma, neg_one)
            c.check(G[ma] * G[-ma], a_neg_one * f.q)
            c.check(jacobi(f, ma, -ma), -a_neg_one)
            c.check(jacobi(f, 0, ma), -1.0)
        for ma in range(qm1):
            for mb in range(qm1):
                if (ma + mb) % qm1 == 0:
                    continue
                c.check(jacobi(f, ma, mb), G[ma] * G[mb] / G[(ma + mb) % qm1])
    c.finish()
