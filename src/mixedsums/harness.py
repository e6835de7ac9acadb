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
from dataclasses import dataclass

import numpy as np

from . import gf
from .gf import FieldTable, build_field
from .chars import char_matrix, unit_roots
from .sums import (
    DEFAULT_TOL,
    exponent_sweep,
    gauss,
    gauss_table,
    hasse_davenport_residual,
    hyp2f1_many,
    jacobi,
    quad_transform,
)
from .mixed import MixedSumContext, make_context, mixed_block, state_vector
from . import mellin as ml

SUITES = ("classical", "transforms", "main", "mellin")
A_POLICIES = ("all", "sample")
BRANCH_TOL = 1e-12  # tau_branch: flipping tau negates V exactly


class ConfigError(ValueError):
    pass


@dataclass
class SuiteConfig:
    fields: list[tuple[int, int]]
    a_policy: str | list[int] = "all"  # one of A_POLICIES, or explicit indices
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
        if isinstance(self.a_policy, str):
            if self.a_policy not in A_POLICIES:
                raise ConfigError(f"unknown a policy {self.a_policy!r}")
        else:  # on every field, before any suite runs
            for p, n in self.fields:
                if n >= gf.MAX_Q.bit_length():
                    continue  # build_field rejects so large a field before it uses any a
                bad = [a for a in self.a_policy if not 0 < a < p**n]
                if bad:
                    q = f"{p}^{n}" if n > 1 else p  # a huge p^n has too many digits to print
                    raise ConfigError(f"a = {bad[0]} is not a nonzero element index "
                                      f"for q = {q} (1 <= a < q)")


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


def run_classical(field: FieldTable, tol: float = DEFAULT_TOL) -> list[CheckReport]:
    """Unit layer: textbook Gauss/Jacobi sum facts and character
    orthogonality, exhaustive over the character group."""
    q = field.q
    m = np.arange(q - 1)
    G = gauss_table(field)
    ms = m[1:]
    A_neg_one = unit_roots(field)[ms * field.log_table[field.neg_table[1]] % (q - 1)]  # chi_m(-1)
    checks = Checks(field, None, tol)

    checks["gauss_trivial"].compare_arrays(G[0], -1.0)
    checks["jacobi_trivial"].compare_arrays(jacobi(field, 0, 0), q - 2.0)
    checks["gauss_norm"].compare_arrays(G[ms] * G[-ms], A_neg_one * q)
    checks["jacobi_conjugate"].compare_arrays(jacobi(field, ms, -ms), -A_neg_one)
    checks["jacobi_with_trivial"].compare_arrays(jacobi(field, 0, ms), -1.0)
    for rows in field.blocks(m):
        ra, mb = np.nonzero((rows[:, None] + m) % (q - 1))  # every pair with ma + mb != 0
        ma = rows[ra]
        checks["jacobi_gauss_ratio"].compare_arrays(
            jacobi(field, ma, mb), G[ma] * G[mb] / G[(ma + mb) % (q - 1)])
    # row sums over x != 0 of chi_m(x), read through the log table
    char_sums = exponent_sweep(field, field.log_table[1:], 1.0)
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
    for z in field.blocks(zs):
        checks["quad_transform"].compare_arrays(*quad_transform(field, z))
    ds = m[(m != 0) & (m != e) & (m != 3 * e)]
    dbar_four = unit_roots(field)[-ds * field.log_table[field.add(2, 2)] % qm1]
    checks["gauss_summation_at_one"].compare_arrays(
        hyp2f1_many(field, (1, 0), (1, e), (0, e), [1])[0, ds],
        dbar_four * G[-2 * ds % qm1] / (G[(h - 2 * ds) % qm1] * G[h]))
    return checks.reports()


def run_main(ctx: MixedSumContext, tol: float = DEFAULT_TOL) -> list[CheckReport]:
    """The flagship identity P(j,k) = V(j)V(k) and its structural
    symmetries, plus the square-root branch robustness check.

    P is streamed in FieldTable.blocks row blocks: each block of rows, its
    transposed block of columns and its negated rows are read from the
    squares table by their own slot computations, so no q x q array is
    ever held."""
    f = ctx.field
    q = f.q
    V = state_vector(ctx)
    flipped = make_context(f, ctx.a, conjugate_quartic=ctx.A4.m != (q - 1) // 4,
                           flip_tau=True)
    Vf = state_vector(flipped)
    jj = np.arange(q)
    phi_neg_one = ctx.phi(f.neg_table[1])
    checks = Checks(f, ctx.a, tol)
    # created up front, so the report rows keep their order
    main, corner, zero_row, symmetry, negation, quarter, drift = (
        checks[c] for c in ("main_identity", "corner_value", "zero_row_factorization",
                            "mixed_symmetry", "negation_symmetry", "quarter_turn",
                            "imaginary_drift"))
    branch = checks["tau_branch"] = Checker("tau_branch", f, ctx.a, BRANCH_TOL)
    branch.compare_arrays(Vf, -V)

    for jb in f.blocks(jj):
        P = mixed_block(ctx, jb, jj)
        VV = np.outer(V[jb], V)
        main.compare_arrays(P, VV)
        zero_row.compare_arrays(P[:, 0], V[0] * V[jb])
        symmetry.compare_arrays(P, mixed_block(ctx, jj, jb).T)
        negation.compare_arrays(mixed_block(ctx, f.neg_table[jb], jj), phi_neg_one * P)
        drift.compare_arrays(P.imag, 0.0)
        branch.compare_arrays(np.outer(Vf[jb], Vf), VV)
    expect = 2 + 2 * (gauss(ctx.A4) ** 2 / (q * ctx.A4(f.neg_table[ctx.a]))).real
    corner.compare_arrays(mixed_block(ctx, [0], [0])[0, 0], [expect, V[0] ** 2])
    j = f.units()
    quarter.compare_arrays(V[f.mul(j, ctx.i_elem)], V[j])
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
    for js in field.blocks(field.units()):
        checks["hyper_kernel"].compare_arrays(ml.hyper_kernel_row(ctx, js),
                                              ml.hyper_kernel_closed_row(ctx, js))
    return checks.reports()


def run_mellin(ctx: MixedSumContext, tol: float = DEFAULT_TOL) -> list[CheckReport]:
    """Mellin transforms of V, P(.,0) and P(.,.) against their closed
    forms, the coefficient expansion for conjugate pairs, the product
    assembly, and inverse-transform reconstruction.

    The double transform T is compared in FieldTable.blocks row blocks, so
    no q x q array is held but the cached P and T itself."""
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
    # created up front, so the report rows keep their order
    double, coeffs, assembly = (checks[c] for c in ("double_mellin", "pair_coeffs",
                                                      "product_assembly"))
    T = ml.double_mellin_matrix(ctx)
    # T vanishes off the fourth-power pairs, whose closed form is computed once
    roots = np.arange(qm1 // 4)
    closed_roots = ml.double_mellin_closed(ctx, roots[:, None], roots)
    for rows in f.blocks(m):
        closed = np.zeros((len(rows), qm1), dtype=complex)
        fourth = rows % 4 == 0
        closed[fourth, ::4] = closed_roots[rows[fourth] // 4]
        Tb = T[rows]
        double.compare_arrays(Tb, closed)
        assembly.compare_arrays(np.outer(s_direct[rows], s_direct), Tb)
    rj = ml.pair_coeffs(ctx, m)
    m4 = 4 * m
    coeffs.compare_arrays(rj, ml.pair_coeffs_gauss(ctx, m))
    coeffs.compare_arrays((rj * ctx.A4(ctx.a) ** np.arange(4)).sum(axis=1),
                          T[m4 % qm1, -m4 % qm1])
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
    """The values of a that a_policy stands for.  SuiteConfig has already
    checked the policy, and every explicit a against every field."""
    if a_policy == "all":
        return [int(a) for a in field.units()]
    if a_policy == "sample":
        g = field.g
        return sorted({1, g, int(field.mul(g, g)), int(field.neg_table[1])})
    return list(dict.fromkeys(int(a) for a in a_policy))  # each a once, in first-seen order


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
    """asdict(r) without its deep copy, with a non-finite max_abs_err
    written as the string "nan", "inf" or "-inf": strict JSON has no such
    numbers."""
    err = r.max_abs_err
    return {"check_id": r.check_id, "q": r.q, "a": r.a, "instances": r.instances,
            "max_abs_err": err if math.isfinite(err) else repr(float(err)),
            "tol": r.tol, "passed": r.passed}


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
