"""Suite orchestration: run the identity checks over fields and parameter
values, collect structured pass/fail reports, and emit them as JSON or CSV.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from dataclasses import dataclass, asdict

import numpy as np

from . import gf
from .gf import FieldTable, build_field
from .chars import char_matrix, trivial_char, unit_roots
from .sums import (
    DEFAULT_TOL,
    gauss,
    gauss_table,
    hasse_davenport_residual,
    hyp2f1_many,
    jacobi,
    quad_transform,
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
        self.fields = list(dict.fromkeys(map(tuple, self.fields)))  # a repeated field runs once
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
    """Folds comparisons of whole arrays into one CheckReport."""

    def __init__(self, check_id: str, field: FieldTable, a: int | None, tol: float):
        self.check_id = check_id
        self.q = field.q
        self.a = a
        self.tol = tol
        self.instances = 0
        self.max_abs_err = 0.0
        self.passed = True

    def compare_arrays(self, lhs, rhs):
        """Compare lhs with rhs elementwise after broadcasting them to one
        shape. A NaN error is kept once seen, and a non-finite error always
        fails."""
        lhs, rhs = np.broadcast_arrays(np.atleast_1d(np.asarray(lhs, dtype=complex)),
                                       np.atleast_1d(np.asarray(rhs, dtype=complex)))
        self.instances += lhs.size
        if not lhs.size:
            return
        err = np.abs(lhs - rhs)
        # tol * (1 + max(|lhs|, |rhs|)) in place: a q x q temporary is 3 MB at q=625
        bound = np.abs(lhs)
        np.maximum(bound, np.abs(rhs), out=bound)
        bound += 1.0
        bound *= self.tol
        # max propagates NaN, so a finite max means every error is finite
        worst = float(err.max())
        if worst > self.max_abs_err or math.isnan(worst):
            self.max_abs_err = worst
        if not (math.isfinite(worst) and np.all(err <= bound)):
            self.passed = False

    compare = compare_arrays

    def report(self) -> CheckReport:
        return CheckReport(self.check_id, self.q, self.a, self.instances,
                           self.max_abs_err, self.tol, self.passed)


class Checks(dict):
    """check_id -> Checker, each created on first use."""

    def __init__(self, field: FieldTable, a: int | None, tol: float):
        super().__init__()
        self.field, self.a, self.tol = field, a, tol

    def __missing__(self, check_id: str) -> Checker:
        c = self[check_id] = Checker(check_id, self.field, self.a, self.tol)
        return c

    def reports(self) -> list[CheckReport]:
        """One report per check, in first-use order."""
        return [c.report() for c in self.values()]


# --- suites ---


def _blocks(xs: np.ndarray, q: int):
    """Consecutive slices of xs of at most max(1, 2**14 // q) entries, so
    that each (len(block), q-1) table of a sweep stays near 2**14 values."""
    step = max(1, 2**14 // q)
    return (xs[i:i + step] for i in range(0, len(xs), step))


def run_classical(field: FieldTable, tol: float = DEFAULT_TOL) -> list[CheckReport]:
    """Unit layer: textbook Gauss/Jacobi sum facts and character
    orthogonality, exhaustive over the character group."""
    q = field.q
    m = np.arange(q - 1)
    G = gauss_table(field)
    ms = m[1:]
    A_neg_one = unit_roots(field)[ms * field.log_table[field.neg_table[1]] % (q - 1)]  # chi_m(-1)
    checks = Checks(field, None, tol)

    checks["gauss_trivial"].compare_arrays(gauss(trivial_char(field)), -1.0)
    checks["jacobi_trivial"].compare_arrays(jacobi(field, 0, 0), q - 2.0)
    checks["gauss_norm"].compare_arrays(G[ms] * G[-ms], A_neg_one * q)
    checks["jacobi_conjugate"].compare_arrays(jacobi(field, ms, -ms), -A_neg_one)
    checks["jacobi_with_trivial"].compare_arrays(jacobi(field, 0, ms), -1.0)
    for rows in _blocks(m, q):
        ra, mb = np.nonzero((rows[:, None] + m) % (q - 1))  # every pair with ma + mb != 0
        ma = rows[ra]
        checks["jacobi_gauss_ratio"].compare_arrays(
            jacobi(field, ma, mb), G[ma] * G[mb] / G[(ma + mb) % (q - 1)])
    # row sums over x != 0 of chi_m(x), read through the log table
    char_sums = unit_roots(field)[np.outer(m, field.log_table[1:]) % (q - 1)].sum(axis=1)
    expect = np.where(m == 0, q - 1.0, 0.0)
    checks["char_orthogonality"].compare_arrays(
        [char_sums, char_matrix(field).sum(axis=0)], expect)
    return checks.reports()


def run_transforms(field: FieldTable, tol: float = DEFAULT_TOL) -> list[CheckReport]:
    """Hasse-Davenport, the quadratic 2F1 transformation, and the Gauss
    summation value of the 2F1 at argument 1, for every character."""
    q = field.q
    qm1 = q - 1
    e, h = qm1 // 4, qm1 // 2
    m = np.arange(qm1)
    G = gauss_table(field)
    checks = Checks(field, None, tol)

    checks["hasse_davenport"].compare_arrays(hasse_davenport_residual(field, m), 0.0)
    zs = np.array([z for z in range(1, q) if z not in (1, field.neg_table[1])])
    for z in _blocks(zs, q):
        checks["quad_transform"].compare_arrays(*quad_transform(field, z))
    ds = m[(m != 0) & (m != e) & (m != 3 * e)]
    dbar_four = unit_roots(field)[-ds * field.log_table[field.add(2, 2)] % qm1]
    checks["gauss_summation_at_one"].compare_arrays(
        hyp2f1_many(field, (1, 0), (1, e), (0, e), [1])[0, ds],
        dbar_four * G[-2 * ds % qm1] / (G[(h - 2 * ds) % qm1] * G[h]))
    return checks.reports()


def run_main(ctx: MixedSumContext, tol: float = DEFAULT_TOL,
             branch_tol: float = 1e-12) -> list[CheckReport]:
    """The flagship identity P(j,k) = V(j)V(k) and its structural
    symmetries, plus the square-root branch robustness check."""
    f = ctx.field
    q = f.q
    P = mixed_table(ctx)
    V = state_vector(ctx)
    j = f.units()
    checks = Checks(f, ctx.a, tol)

    checks["main_identity"].compare_arrays(P, np.outer(V, V))
    corner = 2 + 2 * (gauss(ctx.A4) ** 2 / (q * ctx.A4(f.neg_table[ctx.a]))).real
    checks["corner_value"].compare_arrays(P[0, 0], [corner, V[0] ** 2])
    checks["zero_row_factorization"].compare_arrays(P[:, 0], V[0] * V)
    checks["mixed_symmetry"].compare_arrays(P, P.T)
    checks["negation_symmetry"].compare_arrays(P[f.neg_table[np.arange(q)], :],
                                               ctx.phi(f.neg_table[1]) * P)
    checks["quarter_turn"].compare_arrays(V[f.mul(j, ctx.i_elem)], V[j])
    checks["imaginary_drift"].compare_arrays(P.imag, 0.0)
    flipped = make_context(f, ctx.a, conjugate_quartic=ctx.A4.m != (q - 1) // 4,
                           flip_tau=True)
    Vf = state_vector(flipped)
    checks["tau_branch"] = Checker("tau_branch", f, ctx.a, branch_tol)
    checks["tau_branch"].compare_arrays(Vf, -V)
    checks["tau_branch"].compare_arrays(np.outer(Vf, Vf), np.outer(V, V))
    return checks.reports()


def run_mellin_field(field: FieldTable, tol: float = DEFAULT_TOL) -> list[CheckReport]:
    """Parameter-independent Mellin layer: the Kummer-style 2F1 value at -1
    and the hypergeometric kernel closed form, for every character."""
    ctx = make_context(field, 1)
    qm1 = field.q - 1
    e = qm1 // 4
    m = np.arange(qm1)
    nus = m[4 * m % qm1 != 0]
    checks = Checks(field, None, tol)

    checks["kummer_value"].compare_arrays(
        hyp2f1_many(field, (2, 0), (1, e), (1, -e), [field.neg_table[1]])[0, nus],
        ml.kummer_closed(ctx, nus))
    for js in _blocks(field.units(), field.q):
        checks["hyper_kernel"].compare_arrays(ml.hyper_kernel_row(ctx, js),
                                              ml.hyper_kernel_closed_row(ctx, js))
    return checks.reports()


def run_mellin(ctx: MixedSumContext, tol: float = DEFAULT_TOL) -> list[CheckReport]:
    """Mellin transforms of V, P(.,0) and P(.,.) against their closed
    forms, the coefficient expansion for conjugate pairs, the product
    assembly, and inverse-transform reconstruction."""
    f = ctx.field
    qm1 = f.q - 1
    m = np.arange(qm1)
    e = ctx.A4.m
    phi_m = ctx.phi.m
    checks = Checks(f, ctx.a, tol)

    s_direct = ml.mellin_v_all(ctx)
    s_closed = ml.mellin_v_closed(ctx, m)
    checks["mellin_v"].compare_arrays(s_direct, s_closed)
    if qm1 % 8 == 0:
        checks["mellin_v_octic"].compare_arrays(
            [s_closed[phi_m], s_direct[phi_m]], ml.mellin_v_octic(ctx))
    checks["mellin_p0"].compare_arrays(ml.mellin_p0_all(ctx), ml.mellin_p0_closed(ctx, m))
    chi1 = (2 * m + phi_m) % qm1  # lam1^2 phi for lam1 = chi_m
    checks["null_locus"].compare_arrays(
        ml.null_locus_sum(ctx, m),
        np.where(chi1 % 4 == 0, ml.null_locus_closed(ctx, chi1 // 4), 0.0))
    T = ml.double_mellin_matrix(ctx)
    closed = np.zeros((qm1, qm1), dtype=complex)  # T vanishes off fourth-power pairs
    roots = np.arange(qm1 // 4)
    closed[::4, ::4] = ml.double_mellin_closed(ctx, roots[:, None], roots)
    checks["double_mellin"].compare_arrays(T, closed)
    rj = ml.pair_coeffs(ctx, m)
    m4 = 4 * m
    checks["pair_coeffs"].compare_arrays(rj, ml.pair_coeffs_gauss(ctx, m))
    checks["pair_coeffs"].compare_arrays((rj * ctx.A4(ctx.a) ** np.arange(4)).sum(axis=1),
                                         T[m4 % qm1, -m4 % qm1])
    checks["product_assembly"].compare_arrays(np.outer(s_direct, s_direct), T)
    checks["inverse_mellin"].compare_arrays(ml.inverse_mellin(f, s_closed, f.units()),
                                            state_vector(ctx)[1:])
    checks["root_shift_invariance"].compare_arrays(
        [ml.mellin_v_closed_root(ctx, m), ml.mellin_p0_closed_root(ctx, m)],
        [ml.mellin_v_closed_root(ctx, m + e), ml.mellin_p0_closed_root(ctx, m + e)])
    few = m[:8]
    checks["root_shift_invariance"].compare_arrays(
        ml.double_mellin_closed(ctx, few[:, None], few),
        ml.double_mellin_closed(ctx, few[:, None] + e, few - e))
    return checks.reports()


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
    return list(dict.fromkeys(vals))  # each a once, in first-seen order


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
        for a in resolve_a_values(field, config.a_policy):
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
            fields = [_factor_prime_power(q) for q in dict.fromkeys(r.q for r in reports)]
        for p, n in fields:
            q = p**n
            groups.append({
                "field": _field_header(p, n),
                "runs": [_json_row(r) for r in reports if r.q == q],
            })
        payload = json.dumps(groups, indent=2, allow_nan=False)
    else:
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
    if q > gf.MAX_Q:  # before trial division, which stalls on a huge q
        raise ConfigError(f"q = {q} exceeds the table cap {gf.MAX_Q}")
    p = min(gf.prime_factors(q))
    n = 0
    m = q
    while m % p == 0:
        m //= p
        n += 1
    if m != 1:
        raise ConfigError(f"{q} is not a prime power")
    return p, n
