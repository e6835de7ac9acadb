"""Suite orchestration: run the identity checks over fields and parameter
values, collect structured pass/fail reports, and emit them as JSON or CSV.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import gf
from .gf import FieldTable, build_field
from .chars import char_at, char_matrix
from .sums import (
    DEFAULT_TOL,
    exponent_sweep,
    gauss_table,
    hasse_davenport_residual,
    hyp2f1_many,
    jacobi,
    quad_transform,
)
from .mixed import (MixedSumContext, cell_logs, make_context, mixed_table, per_a,
                    square_rows, state_vector)
from . import mellin as ml

SUITES = ("classical", "transforms", "main", "mellin")
A_POLICIES = ("all", "sample")
BRANCH_TOL = 1e-12  # tau_branch: V from either quartic character factors P
_JSON = {str: json.encoder.encode_basestring_ascii, int: int.__repr__, float: float.__repr__,
         bool: {True: "true", False: "false"}.get, type(None): {None: "null"}.get}


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
        if self.out_path:
            check_out_path(self.out_path)
        if isinstance(self.a_policy, str) and self.a_policy not in A_POLICIES:
            raise ConfigError(f"unknown a policy {self.a_policy!r}")
        explicit = [] if isinstance(self.a_policy, str) else self.a_policy
        for p, n in self.fields:  # every field and every explicit a, before any suite runs
            q = gf.field_size(p, n)
            bad = [a for a in explicit if not 0 < a < q]
            if bad:
                raise ConfigError(f"a = {bad[0]} is not a nonzero element index "
                                  f"for q = {f'{p}^{n}' if n > 1 else p} (1 <= a < q)")


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
    """Folds comparisons of whole arrays into one CheckReport per a: with a
    batch of a (a 1-D array), every comparison leads with its a axis, and
    each a keeps its own worst error and verdict, in max_abs_err[i] and
    passed[i] (i = 0 alone for one a, or for none).  A checker holds no
    array of a comparison's size between calls."""

    def __init__(self, check_id: str, field: FieldTable, a, tol: float):
        self.check_id = check_id
        self.q = field.q
        self.a = a
        self.a_values = np.ravel(a).tolist()  # [None] for none
        self.tol = tol
        self.instances = 0  # per a
        self.max_abs_err = np.zeros(len(self.a_values))
        self.passed = np.ones(len(self.a_values), dtype=bool)

    def compare_arrays(self, lhs, rhs, count=None):
        """Compare lhs with rhs elementwise after broadcasting them to one
        shape, with |lhs - rhs| <= tol * (1 + max(|lhs|, |rhs|)) at every
        entry, counted as count instances per a (by default one per entry
        of each a's row; an entry may stand for several instances). A NaN
        error is kept once seen, and a non-finite error always fails. A
        finite worst error of at most tol passes with no bound computed:
        every bound is tol * (1 + max(...)) >= tol in floating point. Every
        temporary is freed when the call returns."""
        lhs, rhs = np.asarray(lhs), np.asarray(rhs)
        err = np.abs(np.atleast_1d(lhs - rhs))
        self.instances += err.size // len(self.passed) if count is None else count
        if not err.size:
            return
        # max propagates NaN, so a finite max means every error of its a is
        # finite, and maximum keeps a NaN once seen
        rows = err.reshape(len(self.passed), -1)  # each a's entries, in a row
        worst = rows.max(axis=1)
        np.maximum(self.max_abs_err, worst, out=self.max_abs_err)
        if all(w <= self.tol for w in worst.tolist()):  # False for NaN
            return
        self.passed &= np.isfinite(worst)
        bound = self.tol * (1 + np.maximum(np.abs(lhs), np.abs(rhs)))
        self.passed &= (err <= bound).reshape(rows.shape).all(axis=1)

    compare = compare_arrays

    def report(self, i: int = 0) -> CheckReport:
        """The report of the a at index i of the batch (of the one a by default)."""
        return CheckReport(self.check_id, self.q, self.a_values[i], self.instances,
                           float(self.max_abs_err[i]), self.tol, bool(self.passed[i]))


class Checks(dict):
    """check_id -> Checker, each created on first use."""

    def __init__(self, field: FieldTable, a, tol: float):
        super().__init__()
        self.field, self.a, self.tol = field, a, tol

    def __missing__(self, check_id: str) -> Checker:
        return self.add(check_id, self.tol)

    def add(self, check_id: str, tol: float) -> Checker:
        c = self[check_id] = Checker(check_id, self.field, self.a, tol)
        return c

    def reports(self) -> list[CheckReport]:
        """One report per check, in first-use order, for each a in turn."""
        return [c.report(i) for i in range(np.size(self.a)) for c in self.values()]


# --- suites ---


def orbits(field: FieldTable, r) -> np.ndarray:
    """The elements g^(r + k(q-1)/4), k = 0..3, of each class r in the array
    r, k-major: the four elements of each class share their fourth power."""
    return field.exp_table[np.add.outer((field.q - 1) // 4 * np.arange(4), r)].ravel()


def run_classical(field: FieldTable, tol: float = DEFAULT_TOL) -> list[CheckReport]:
    """Unit layer: textbook Gauss/Jacobi sum facts and character
    orthogonality, exhaustive over the character group."""
    q = field.q
    m = np.arange(q - 1)
    G = gauss_table(field)
    ms = m[1:]
    A_neg_one = char_at(field, ms, field.neg_table[1])
    checks = Checks(field, None, tol)

    checks["gauss_trivial"].compare_arrays(G[0], -1.0)
    checks["jacobi_trivial"].compare_arrays(jacobi(field, (0, 0), (0, 0))[0], q - 2.0)
    checks["gauss_norm"].compare_arrays(G[ms] * G[-ms], A_neg_one * q)
    checks["jacobi_conjugate"].compare_arrays(jacobi(field, (1, 0), (-1, 0))[ms], -A_neg_one)
    checks["jacobi_with_trivial"].compare_arrays(jacobi(field, (0, 0), (1, 0))[ms], -1.0)
    # report row here; blocks after char_matrix, so its peak meets a small heap
    ratio_check = checks["jacobi_gauss_ratio"]
    # row sums over x != 0 of chi_m(x), read through the log table
    char_sums = exponent_sweep(field, field.log_table[1:], 1.0)
    expect = np.where(m == 0, q - 1.0, 0.0)
    checks["char_orthogonality"].compare_arrays(
        [char_sums, char_matrix(field).sum(axis=0)], expect)
    for rows in field.blocks(m):
        J = jacobi(field, (0, rows), (1, 0))
        ratio = G[rows, None] * G
        ratio /= G[(rows[:, None] + m) % (q - 1)]
        pole = np.arange(len(rows)), -rows % (q - 1)  # ma + mb = 0: jacobi_conjugate's
        J[pole] = ratio[pole] = 0.0
        ratio_check.compare_arrays(J, ratio, J.size - len(rows))
    return checks.reports()


def run_transforms(field: FieldTable, tol: float = DEFAULT_TOL) -> list[CheckReport]:
    """Hasse-Davenport, the quadratic 2F1 transformation, and the Gauss
    summation value of the 2F1 at argument 1, for every character."""
    qm1 = field.q - 1
    e, h = qm1 // 4, qm1 // 2
    m = np.arange(qm1)
    G = gauss_table(field)
    checks = Checks(field, None, tol)

    checks["hasse_davenport"].compare_arrays(hasse_davenport_residual(field, m), 0.0)
    # 1/z is in class e - r for z in class r: blocks of r <= e/2 with partners
    for r in field.blocks(np.arange(e // 2 + 1), 8):
        z = orbits(field, np.append(r, e - r[(r > 0) & (2 * r < e)]))
        checks["quad_transform"].compare_arrays(
            *quad_transform(field, z[(z != 1) & (z != field.neg_table[1])]))
    ds = m[(m != 0) & (m != e) & (m != 3 * e)]
    dbar_four = char_at(field, -ds, field.add(2, 2))
    checks["gauss_summation_at_one"].compare_arrays(
        hyp2f1_many(field, (1, 0), (1, e), (0, e), [1])[0, ds],
        dbar_four * G[-2 * ds % qm1] / (G[(h - 2 * ds) % qm1] * G[h]))
    return checks.reports()


def run_main(ctx: MixedSumContext, tol: float = DEFAULT_TOL) -> list[CheckReport]:
    """The flagship identity P(j,k) = V(j)V(k) and its structural
    symmetries, plus the branch check: P does not involve A4, so the V
    built from the other quartic character, with its own tau, factors P
    too.

    P(j,k) depends on (j,k) only through ((j+k)^2, (j-k)^2), and V(j) only
    through j^4, so each cell of the squares table S stands for the pairs
    (j,k), (k,j), (-j,-k) and (-k,-j): 4 of them, 2 on the row u = 0 and on
    the column v = 0, and 1 at (0,0).  S is streamed in row blocks
    (mixed.square_rows), each compared once, with every cell counted with
    its multiplicity, against V(j)V(k) read from V (in log order) at
    mixed.cell_logs (the cell's other pairs give products such as V(k)V(j),
    equal to it up to rounding): a row of S but its first stands for 2q
    pairs, the first for q.  So run_main never reads P and holds no S.  The zero row
    P(j, 0) is the diagonal u = v, P(k, j) is the cell itself, and P(-j, k)
    is S(v, u), which the second route of square_rows computes.  A batch
    of a runs as one stream, with the a axis first in every array."""
    f = ctx.field
    q, n = f.q, f.q - 1
    half = n // 2
    V = state_vector(ctx)
    W = state_vector(make_context(f, ctx.a, conjugate_quartic=ctx.A4 == n // 4))
    checks = Checks(f, ctx.a, tol)
    # created up front, so the report rows keep their order
    main, corner, zero_row, symmetry, negation, quarter, drift = (
        checks[c] for c in ("main_identity", "corner_value", "zero_row_factorization",
                            "mixed_symmetry", "negation_symmetry", "quarter_turn",
                            "imaginary_drift"))
    branch = checks.add("tau_branch", BRANCH_TOL)
    branch.compare_arrays(W**2, V**2)  # W = +-V

    m = len(next(f.blocks(np.arange(half + 1))))
    logs = np.empty((2, m, half + 1), dtype=np.int64)
    other = np.empty(np.shape(ctx.a) + (m, half + 1), dtype=complex)
    for rows, S, T in square_rows(ctx, columns=True):
        b = len(rows)
        top = int(rows[0] == 0)
        count = q * (2 * b - top)
        # P(-j, k) = phi(-1) P(j, k), phi(-1) = 1 since q = 1 (mod 4), and
        # (-j +- k)^2 = (j -+ k)^2: S(v, u), by the second route
        negation.compare_arrays(T, S, count)
        symmetry.compare_arrays(S, S, count)
        drift.compare_arrays(S.imag, 0.0, count)
        # V(j) with j^2 = u for each row u: V(0) for u = 0, V(g^t) for u = g^(2t)
        zero_row.compare_arrays(S[..., np.arange(b), rows], V[..., -1:] * V[..., rows - 1],
                                2 * b - top)
        if top:  # j = k = 0
            g4 = gauss_table(f)[ctx.A4]
            expect = 2 + 2 * (g4**2 / (q * char_at(f, ctx.A4, f.neg_table[ctx.a]))).real
            corner.compare_arrays(S[..., 0, :1],
                                  np.array([expect, V[..., -1] * V[..., -1]]).T)
        jk = cell_logs(f, rows, logs[:, :b])
        for X, check in ((V, main), (W, branch)):  # T is spent: its buffer holds the products
            Xk = X.take(jk[1], axis=-1, out=other[..., :b, :], mode="clip")
            Xj = X.take(jk[0], axis=-1, out=T, mode="clip")
            check.compare_arrays(S, np.multiply(Xj, Xk, out=T), count)
    # i = g^((q-1)/4), so V(i g^s) is V(g^s) shifted by (q-1)/4
    quarter.compare_arrays(np.roll(V[..., :n], -(n // 4), axis=-1), V[..., :n])
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
    for r in field.blocks(np.arange(e), 4):
        js = orbits(field, r)
        checks["hyper_kernel"].compare_arrays(ml.hyper_kernel_row(ctx, js),
                                              ml.hyper_kernel_closed_row(ctx, js))
    return checks.reports()


def run_mellin(ctx: MixedSumContext, tol: float = DEFAULT_TOL) -> list[CheckReport]:
    """Mellin transforms of V, P(.,0) and P(.,.) against their closed
    forms, the coefficient expansion for conjugate pairs, the product
    assembly, and inverse-transform reconstruction.

    P is built once, read for P(j, 0) and turned into T in place.  T is
    compared in FieldTable.blocks row blocks, read as views, against one
    block buffer, with S's closed side squared as its closed side: 1/tau^2 =
    A4(-1/a)/q (see mellin.double_mellin_closed).  A batch of a runs as one
    pass, with the a axis first in every array."""
    f = ctx.field
    qm1 = f.q - 1
    m = np.arange(qm1)
    e = ctx.A4
    phi_m = qm1 // 2
    checks = Checks(f, ctx.a, tol)

    s_direct = ml.mellin_v_all(ctx)
    s_closed = ml.mellin_v_closed(ctx, m)
    checks["mellin_v"].compare_arrays(s_direct, s_closed)
    if qm1 % 8 == 0:
        checks["mellin_v_octic"].compare_arrays(
            np.stack([s_closed[..., phi_m], s_direct[..., phi_m]], axis=-1),
            ml.mellin_v_octic(ctx)[..., None])
    P = mixed_table(ctx)
    checks["mellin_p0"].compare_arrays(ml.mellin_p0_all(f, P), ml.mellin_p0_closed(ctx, m))
    chi1 = (2 * m + phi_m) % qm1  # lam1^2 phi for lam1 = chi_m
    checks["null_locus"].compare_arrays(
        ml.null_locus_sum(ctx, m),
        np.where(chi1 % 4 == 0, ml.null_locus_closed(ctx, chi1 // 4), 0.0))
    # created up front, so the report rows keep their order
    double, coeffs, assembly = (checks[c] for c in ("double_mellin", "pair_coeffs",
                                                      "product_assembly"))
    T = ml.double_mellin_matrix(f, P)
    buf = np.empty(np.shape(ctx.a) + (len(next(f.blocks(m))), qm1), dtype=complex)
    for rows in f.blocks(m):
        b = len(rows)
        other = buf[..., :b, :]  # the closed outer product, then the direct one
        Tb = T[..., rows[0]:rows[0] + b, :]
        double.compare_arrays(Tb, np.multiply(s_closed[..., rows, None], s_closed[..., None, :],
                                              out=other))
        assembly.compare_arrays(np.multiply(s_direct[..., rows, None], s_direct[..., None, :],
                                            out=other), Tb)
    rj = ml.pair_coeffs(ctx, m)
    m4 = 4 * m
    # the coefficients are free of a, so every a gets the same comparison
    coeffs.compare_arrays(np.broadcast_to(rj, np.shape(ctx.a) + rj.shape),
                          ml.pair_coeffs_gauss(ctx, m))
    coeffs.compare_arrays((rj * per_a(ctx, char_at(f, e, ctx.a), 2) ** np.arange(4)).sum(axis=-1),
                          T[..., m4 % qm1, -m4 % qm1])
    checks["inverse_mellin"].compare_arrays(ml.inverse_mellin(f, s_closed, f.exp_table),
                                            state_vector(ctx)[..., :-1])
    checks["root_shift_invariance"].compare_arrays(
        np.stack([ml.mellin_v_closed_root(ctx, m), ml.mellin_p0_closed_root(ctx, m)], axis=-2),
        np.stack([ml.mellin_v_closed_root(ctx, m + e), ml.mellin_p0_closed_root(ctx, m + e)],
                 axis=-2))
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
    """Every suite of config over each field and each of its values of a, the
    report written to config.out_path if set.

    main and mellin run once per batch of values of a, cut by
    field.blocks(a_values, q) so that a batch's P stays near 2**14
    entries; a batch of one runs as its one a.  The rows come per field:
    the field suites, then for each a its main rows and its mellin rows."""
    reports: list[CheckReport] = []
    for p, n in config.fields:
        field = build_field(p, n)
        if "classical" in config.suites:
            reports.extend(run_classical(field, config.tol))
        if "transforms" in config.suites:
            reports.extend(run_transforms(field, config.tol))
        if "mellin" in config.suites:
            reports.extend(run_mellin_field(field, config.tol))
        for batch in field.blocks(np.array(resolve_a_values(field, config.a_policy)), field.q):
            ctx = make_context(field, batch if len(batch) > 1 else batch[0])
            rows = []
            if "main" in config.suites:
                rows += run_main(ctx, config.tol)
            if "mellin" in config.suites:
                rows += run_mellin(ctx, config.tol)
            position = {a: i for i, a in enumerate(batch.tolist())}
            reports.extend(sorted(rows, key=lambda r: position[r.a]))  # stable: main first
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


def _json_line(r: CheckReport) -> str:
    """json.JSONEncoder(allow_nan=False).encode(_json_row(r)), byte for byte."""
    return "{" + ", ".join([f'"{k}": {_JSON[type(v)](v)}' for k, v in _json_row(r).items()]) + "}"


def check_out_path(path: str) -> None:
    """Raise ConfigError, naming path, unless a file can be written there."""
    why = "it is a directory" if os.path.isdir(path) else "no such directory"
    if os.path.isdir(path) or not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise ConfigError(f"cannot write the report to {path}: {why}")


@contextmanager
def replacing(path: str):
    """A text file that replaces path once the block has run to its end: a
    temp file in path's directory, renamed over path (so a failure leaves
    path as it was), with path's mode, or for a new file the mode of open().
    An OSError on the way names path, not the temp file."""
    check_out_path(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".report-")
        os.umask(umask := os.umask(0o022))  # reads the umask
        os.fchmod(fd, os.stat(path).st_mode & 0o7777 if os.path.exists(path) else 0o666 & ~umask)
        with os.fdopen(fd, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror or str(exc), path) from exc
        raise


def emit_report(reports: list[CheckReport], format: str, path: str,
                fields: list[tuple[int, int]]) -> None:
    """Write the report atomically (temp file + rename, see replacing).

    JSON output is a list of {field: {...}, runs: [...]} groups, one per
    (p, n) in fields, in that order, with one run per line (_json_line, as
    json.JSONEncoder writes it with no indent). CSV is one row per check.
    """
    if format not in ("json", "csv"):
        raise ConfigError(f"unknown format {format!r}")
    with replacing(path) as fh:
        if format == "json":
            encode = json.JSONEncoder(allow_nan=False).encode
            runs: dict[int, list[str]] = {}
            for r in reports:
                runs.setdefault(r.q, []).append(_json_line(r))
            groups = [f'{{"field": {encode(_field_header(p, n))}, "runs": [\n'
                      + ",\n".join(runs.get(p**n, ())) + "\n]}" for p, n in fields]
            fh.write("[\n" + ",\n".join(groups) + "\n]\n")
        else:
            writer = csv.writer(fh)
            writer.writerow(["check_id", "q", "a", "instances", "max_abs_err", "tol", "pass"])
            writer.writerows([r.check_id, r.q, "" if r.a is None else r.a, r.instances,
                              repr(r.max_abs_err), repr(r.tol), str(r.passed).lower()]
                             for r in reports)


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
