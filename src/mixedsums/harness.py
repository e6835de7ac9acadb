"""Suite orchestration: run the identity checks over fields and parameter
values, collect structured pass/fail reports, and emit them as JSON or CSV.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from dataclasses import dataclass, field as dc_field, asdict

import numpy as np

from . import gf
from .gf import FieldTable, build_field
from .chars import (
    MultChar,
    all_chars,
    char_matrix,
    fourth_root,
    is_fourth_power,
    quartic_char,
    special_chars,
    unit_roots,
)
from .sums import (
    DEFAULT_TOL,
    agree,
    gauss,
    gauss_table,
    hasse_davenport_residual,
    hyp2f1,
    hyp2f1_many,
    jacobi,
)
from .mixed import MixedSumContext, make_context, mixed_table, state_vector
from . import mellin as ml

SUITES = ("classical", "transforms", "main", "mellin")


class ConfigError(ValueError):
    pass


@dataclass
class SuiteConfig:
    fields: list[tuple[int, int]]
    a_policy: str | list[int] = "all"  # "all" | "sample" | explicit index list
    suites: tuple[str, ...] = SUITES
    tol: float = DEFAULT_TOL
    out_path: str | None = None
    format: str = "json"

    def __post_init__(self):
        if not (0 < self.tol < math.inf):
            raise ConfigError("tol must be positive and finite")
        if "all" in self.suites:
            self.suites = SUITES
        for s in self.suites:
            if s not in SUITES:
                raise ConfigError(f"unknown suite {s!r}")
        if self.format not in ("json", "csv"):
            raise ConfigError(f"unknown format {self.format!r}")


@dataclass
class CheckReport:
    check_id: str
    q: int
    a: int | None
    instances: int
    max_abs_err: float
    tol: float
    passed: bool


class Checker:
    """Accumulates per-instance comparisons into one CheckReport."""

    def __init__(self, check_id: str, field: FieldTable, a: int | None, tol: float):
        self.check_id = check_id
        self.q = field.q
        self.a = a
        self.tol = tol
        self.instances = 0
        self.max_abs_err = 0.0
        self.passed = True

    def _note(self, err: float, ok: bool):
        """Fold one error into the report. A NaN error is kept once seen,
        and a non-finite error always fails."""
        if err > self.max_abs_err or math.isnan(err):
            self.max_abs_err = err
        if not (ok and math.isfinite(err)):
            self.passed = False

    def compare(self, lhs, rhs):
        self.instances += 1
        self._note(float(abs(lhs - rhs)), agree(lhs, rhs, self.tol))

    def compare_arrays(self, lhs: np.ndarray, rhs: np.ndarray):
        lhs = np.asarray(lhs, dtype=complex).ravel()
        rhs = np.asarray(rhs, dtype=complex).ravel()
        err = np.abs(lhs - rhs)
        scale = 1.0 + np.maximum(np.abs(lhs), np.abs(rhs))
        self.instances += lhs.size
        if lhs.size:
            # max propagates NaN, so a finite max means every error is finite
            self._note(float(err.max()), bool(np.all(err <= self.tol * scale)))

    def report(self) -> CheckReport:
        return CheckReport(self.check_id, self.q, self.a, self.instances,
                           self.max_abs_err, self.tol, self.passed)


# --- suites ---


def run_classical(field: FieldTable, tol: float = DEFAULT_TOL) -> list[CheckReport]:
    """Unit layer: textbook Gauss/Jacobi sum facts and character
    orthogonality, exhaustive over the character group."""
    eps, phi, A4, _ = special_chars(field)
    q = field.q
    neg_one = field.neg_table[1]
    chars = all_chars(field)
    out = []

    c = Checker("gauss_trivial", field, None, tol)
    c.compare(gauss(eps), -1.0)
    out.append(c.report())

    c = Checker("jacobi_trivial", field, None, tol)
    c.compare(jacobi(eps, eps), q - 2.0)
    out.append(c.report())

    c = Checker("gauss_norm", field, None, tol)
    for A in chars[1:]:
        c.compare(gauss(A) * gauss(A.conj()), A(neg_one) * q)
    out.append(c.report())

    c = Checker("jacobi_conjugate", field, None, tol)
    for A in chars[1:]:
        c.compare(jacobi(A, A.conj()), -A(neg_one))
    out.append(c.report())

    c = Checker("jacobi_with_trivial", field, None, tol)
    for A in chars[1:]:
        c.compare(jacobi(eps, A), -1.0)
    out.append(c.report())

    c = Checker("jacobi_gauss_ratio", field, None, tol)
    for A in chars:
        for B in chars:
            if (A * B).is_trivial():
                continue
            c.compare(jacobi(A, B), gauss(A) * gauss(B) / gauss(A * B))
    out.append(c.report())

    c = Checker("char_orthogonality", field, None, tol)
    for chi in chars:
        expect = (q - 1.0) if chi.is_trivial() else 0.0
        c.compare(np.sum(chi.values()[1:]), expect)
    col_sums = char_matrix(field).sum(axis=0)
    for t in range(q - 1):
        c.compare(col_sums[t], (q - 1.0) if t == 0 else 0.0)
    out.append(c.report())
    return out


def run_transforms(field: FieldTable, tol: float = DEFAULT_TOL) -> list[CheckReport]:
    """Hasse-Davenport, the quadratic 2F1 transformation, and the Gauss
    summation value of the 2F1 at argument 1."""
    eps, phi, A4, _ = special_chars(field)
    q = field.q
    neg_one = field.neg_table[1]
    four = field.add(2, 2)
    chars = all_chars(field)
    out = []

    c = Checker("hasse_davenport", field, None, tol)
    for A in chars:
        c.compare(hasse_davenport_residual(A), 0.0)
    out.append(c.report())

    c = Checker("quad_transform", field, None, tol)
    zs = np.array([z for z in range(1, q) if z not in (1, neg_one)])
    for D in chars:
        lhs = hyp2f1_many(D, D * A4, A4, field.pow(zs, 4))
        ratio = field.mul(field.add(zs, 1), field.inv_table[field.sub(zs, 1)])
        arg = field.neg(field.mul(ratio, ratio))
        rhs = (D.conj() ** 4)(field.sub(zs, 1)) * hyp2f1_many(D, (D**2) * phi, D * phi, arg)
        c.compare_arrays(lhs, rhs)
    out.append(c.report())

    c = Checker("gauss_summation_at_one", field, None, tol)
    quarter = (q - 1) // 4
    for D in chars:
        if D.m in (0, quarter, 3 * quarter):
            continue
        Dbar2 = D.conj() ** 2
        rhs = D.conj()(four) * gauss(Dbar2) / (gauss(Dbar2 * phi) * gauss(phi))
        c.compare(hyp2f1(D, D * A4, A4, 1), rhs)
    out.append(c.report())
    return out


def run_main(ctx: MixedSumContext, tol: float = DEFAULT_TOL,
             branch_tol: float = 1e-12) -> list[CheckReport]:
    """The flagship identity P(j,k) = V(j)V(k) and its structural
    symmetries, plus the square-root branch robustness check."""
    f = ctx.field
    q = f.q
    P = mixed_table(ctx)
    V = state_vector(ctx)
    out = []

    c = Checker("main_identity", f, ctx.a, tol)
    c.compare_arrays(P, np.outer(V, V))
    out.append(c.report())

    c = Checker("corner_value", f, ctx.a, tol)
    g4 = gauss(ctx.A4)
    neg_a = f.neg_table[ctx.a]
    c.compare(P[0, 0], 2 + 2 * (g4**2 / (q * ctx.A4(neg_a))).real)
    c.compare(P[0, 0], V[0] ** 2)
    out.append(c.report())

    c = Checker("zero_row_factorization", f, ctx.a, tol)
    c.compare_arrays(P[:, 0], V[0] * V)
    out.append(c.report())

    c = Checker("mixed_symmetry", f, ctx.a, tol)
    c.compare_arrays(P, P.T)
    out.append(c.report())

    c = Checker("negation_symmetry", f, ctx.a, tol)
    phi_m1 = ctx.phi(f.neg_table[1])
    c.compare_arrays(P[f.neg_table[np.arange(q)], :], phi_m1 * P)
    out.append(c.report())

    c = Checker("quarter_turn", f, ctx.a, tol)
    j = f.units()
    c.compare_arrays(V[f.mul(j, ctx.i_elem)], V[j])
    out.append(c.report())

    c = Checker("imaginary_drift", f, ctx.a, tol)
    c.compare_arrays(P.imag, np.zeros_like(P.imag))
    out.append(c.report())

    c = Checker("tau_branch", f, ctx.a, branch_tol)
    flipped = make_context(f, ctx.a, conjugate_quartic=ctx.A4.m != (q - 1) // 4,
                           flip_tau=True)
    Vf = state_vector(flipped)
    c.compare_arrays(Vf, -V)
    c.compare_arrays(np.outer(Vf, Vf), np.outer(V, V))
    out.append(c.report())
    return out


def run_mellin_field(field: FieldTable, tol: float = DEFAULT_TOL) -> list[CheckReport]:
    """Parameter-independent Mellin layer: the Kummer-style 2F1 value at -1
    and the hypergeometric kernel closed form, for every character."""
    ctx = make_context(field, 1)
    eps, phi, A4, _ = special_chars(field)
    out = []

    c = Checker("kummer_value", field, None, tol)
    for nu in all_chars(field):
        if (nu**4).is_trivial():
            continue
        lhs = hyp2f1(nu**2, nu * A4, nu * A4.conj(), field.neg_table[1])
        c.compare(lhs, ml.kummer_closed(ctx, nu))
    out.append(c.report())

    c = Checker("hyper_kernel", field, None, tol)
    js = field.units()
    for D in all_chars(field):
        c.compare_arrays(ml.hyper_kernel_row(ctx, D, js),
                         ml.hyper_kernel_closed_row(ctx, D, js))
    out.append(c.report())
    return out


def run_mellin(ctx: MixedSumContext, tol: float = DEFAULT_TOL) -> list[CheckReport]:
    """Mellin transforms of V, P(.,0) and P(.,.) against their closed
    forms, the coefficient expansion for conjugate pairs, the product
    assembly, and inverse-transform reconstruction."""
    f = ctx.field
    q = f.q
    qm1 = q - 1
    chars = all_chars(f)
    out = []

    s_direct = ml.mellin_v_all(ctx)
    c = Checker("mellin_v", f, ctx.a, tol)
    for chi in chars:
        c.compare(s_direct[chi.m], ml.mellin_v_closed(ctx, chi))
    out.append(c.report())

    if qm1 % 8 == 0:
        c = Checker("mellin_v_octic", f, ctx.a, tol)
        phi = ctx.phi
        c.compare(ml.mellin_v_closed(ctx, phi), ml.mellin_v_octic(ctx))
        c.compare(s_direct[phi.m], ml.mellin_v_octic(ctx))
        out.append(c.report())

    t_direct = ml.mellin_p0_all(ctx)
    c = Checker("mellin_p0", f, ctx.a, tol)
    for chi in chars:
        c.compare(t_direct[chi.m], ml.mellin_p0_closed(ctx, chi))
    out.append(c.report())

    c = Checker("null_locus", f, ctx.a, tol)
    for lam1 in chars:
        chi1 = (lam1**2) * ctx.phi
        direct = ml.null_locus_sum(ctx, lam1)
        if is_fourth_power(chi1):
            c.compare(direct, ml.null_locus_closed(ctx, fourth_root(chi1)))
        else:
            c.compare(direct, 0.0)
    out.append(c.report())

    T = ml.double_mellin_matrix(ctx)
    c = Checker("double_mellin", f, ctx.a, tol)
    for m1 in range(qm1):
        for m2 in range(qm1):
            lhs = T[m1, m2]
            if m1 % 4 == 0 and m2 % 4 == 0:
                rhs = ml.double_mellin_closed(ctx, MultChar(f, m1 // 4), MultChar(f, m2 // 4))
            else:
                rhs = 0.0
            c.compare(lhs, rhs)
    out.append(c.report())

    c = Checker("pair_coeffs", f, ctx.a, tol)
    A4a = ctx.A4(ctx.a)
    for nu1 in chars:
        rj = ml.pair_coeffs(ctx, nu1)
        rg = ml.pair_coeffs_gauss(ctx, nu1)
        c.compare_arrays(np.array(rj), np.array(rg))
        assembled = sum(rj[k] * A4a**k for k in range(4))
        c.compare(assembled, T[(4 * nu1.m) % qm1, (-4 * nu1.m) % qm1])
    out.append(c.report())

    c = Checker("product_assembly", f, ctx.a, tol)
    c.compare_arrays(np.outer(s_direct, s_direct), T)
    out.append(c.report())

    c = Checker("inverse_mellin", f, ctx.a, tol)
    closed = np.array([ml.mellin_v_closed(ctx, chi) for chi in chars])
    V = state_vector(ctx)
    for j in f.units():
        c.compare(ml.inverse_mellin(closed, j, field=f), V[j])
    out.append(c.report())

    c = Checker("root_shift_invariance", f, ctx.a, tol)
    A4 = ctx.A4
    for nu in chars:
        c.compare(ml.mellin_v_closed_root(ctx, nu), ml.mellin_v_closed_root(ctx, nu * A4))
        c.compare(ml.mellin_p0_closed_root(ctx, nu), ml.mellin_p0_closed_root(ctx, nu * A4))
    for nu1 in chars[: min(qm1, 8)]:
        for nu2 in chars[: min(qm1, 8)]:
            c.compare(ml.double_mellin_closed(ctx, nu1, nu2),
                      ml.double_mellin_closed(ctx, nu1 * A4, nu2 * A4.conj()))
    out.append(c.report())
    return out


# --- orchestration ---


def resolve_a_values(field: FieldTable, a_policy) -> list[int]:
    if isinstance(a_policy, str):
        if a_policy == "all":
            return [int(a) for a in field.units()]
        if a_policy == "sample":
            g = field.g
            sample = [1, g, int(field.mul(g, g)), int(field.neg_table[1])]
            return sorted(set(sample))
        raise ConfigError(f"unknown a policy {a_policy!r}")
    vals = [int(a) for a in a_policy]
    if any(a <= 0 or a >= field.q for a in vals):
        raise ConfigError("explicit a values must be nonzero field indices")
    return vals


def run(config: SuiteConfig) -> list[CheckReport]:
    reports: list[CheckReport] = []
    for p, n in config.fields:
        field = build_field(p, n)
        if "classical" in config.suites:
            reports.extend(run_classical(field, config.tol))
        if "transforms" in config.suites:
            reports.extend(run_transforms(field, config.tol))
        if "mellin" in config.suites:
            reports.extend(run_mellin_field(field, config.tol))
        a_values = resolve_a_values(field, config.a_policy)
        for a in a_values:
            ctx = make_context(field, a)
            if "main" in config.suites:
                reports.extend(run_main(ctx, config.tol))
            if "mellin" in config.suites:
                reports.extend(run_mellin(ctx, config.tol))
    if config.out_path:
        emit_report(reports, config.format, config.out_path, config.fields)
    return reports


def _field_header(p: int, n: int) -> dict:
    field = build_field(p, n)
    return {
        "p": p,
        "n": n,
        "q": field.q,
        "modulus": list(field.params.modulus),
        "generator": field.g,
    }


def _json_row(r: CheckReport) -> dict:
    """asdict(r), with a non-finite max_abs_err written as the string
    "nan", "inf" or "-inf": strict JSON has no such numbers."""
    row = asdict(r)
    if not math.isfinite(r.max_abs_err):
        row["max_abs_err"] = repr(float(r.max_abs_err))
    return row


def emit_report(reports: list[CheckReport], format: str, path: str,
                fields: list[tuple[int, int]] | None = None) -> None:
    """Write the report atomically (temp file + rename).

    JSON output is a list of {field: {...}, runs: [...]} groups, one per
    field, in execution order; CSV is one row per check.
    """
    if format == "json":
        groups = []
        if fields is None:
            qs = []
            for r in reports:
                if r.q not in qs:
                    qs.append(r.q)
            fields = [_factor_prime_power(q) for q in qs]
        for p, n in fields:
            q = p**n
            groups.append({
                "field": _field_header(p, n),
                "runs": [_json_row(r) for r in reports if r.q == q],
            })
        payload = json.dumps(groups, indent=2, allow_nan=False)
    else:
        import io

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["check_id", "q", "a", "instances", "max_abs_err", "tol", "pass"])
        for r in reports:
            writer.writerow([r.check_id, r.q, "" if r.a is None else r.a,
                             r.instances, repr(r.max_abs_err), repr(r.tol),
                             str(r.passed).lower()])
        payload = buf.getvalue()
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".report-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _factor_prime_power(q: int) -> tuple[int, int]:
    """Split q into (p, n) with p prime, or raise ConfigError."""
    if q < 2:
        raise ConfigError(f"{q} is not a prime power")
    p = min(gf.prime_factors(q))
    n = 0
    m = q
    while m % p == 0:
        m //= p
        n += 1
    if m != 1:
        raise ConfigError(f"{q} is not a prime power")
    return p, n
