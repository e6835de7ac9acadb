"""Correctness gate for one `mixedsums verify` run.

The run passes when the CLI exits 0, every expected row of the workload's
manifest is in the JSON report with at least the expected number of
instances, and every row of the report passed with a finite `max_abs_err`
no larger than its `tol` (and, for expected rows, no larger than the
manifest's tol). `passed` alone is not trusted: a NaN error can come with
`passed: true`. Extra rows, such as a new identity, are allowed but must
pass too.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field


@dataclass
class Verdict:
    attempted: int
    failed: int
    worst_err_to_tol: float          # largest finite max_abs_err / tol
    problems: list[str] = field(default_factory=list)


def load_report(path) -> list[dict] | None:
    """The report's rows, or None when it is missing or unreadable."""
    try:
        with open(path) as fh:
            groups = json.load(fh)
        return [row for group in groups for row in group["runs"]]
    except (OSError, ValueError, TypeError, KeyError):
        return None


def _row_problem(row: dict, tol_cap: float = math.inf) -> str | None:
    err, tol = row.get("max_abs_err"), row.get("tol")
    if row.get("passed") is not True:
        return "failed"
    if not isinstance(err, (int, float)) or not math.isfinite(err):
        return f"max_abs_err {err!r} is not finite"
    if not isinstance(tol, (int, float)) or not 0 < tol <= tol_cap:
        return f"tol {tol!r} is not in (0, {tol_cap}]"
    if err > tol:
        return f"max_abs_err {err!r} > tol {tol!r}"
    return None


def check(exit_code: int, rows: list[dict] | None, expected) -> Verdict:
    """Gate one run against its expected rows (check_id, q, a, instances, tol)."""
    by_key: dict[tuple, list[dict]] = {}
    for row in rows or []:
        by_key.setdefault((row.get("check_id"), row.get("q"), row.get("a")), []).append(row)

    problems = []
    for cid, q, a, instances, tol in expected:
        found = by_key.get((cid, q, a))
        if not found:
            problems.append(f"{cid} q={q} a={a}: missing")
            continue
        row = found.pop(0)
        why = _row_problem(row, tol)
        if why is None and not row.get("instances", 0) >= instances:
            why = f"instances {row.get('instances')!r} < {instances}"
        if why:
            problems.append(f"{cid} q={q} a={a}: {why}")
    extra = [row for left in by_key.values() for row in left]
    for row in extra:
        why = _row_problem(row)
        if why:
            problems.append(f"{row.get('check_id')} q={row.get('q')} a={row.get('a')} (extra): {why}")

    failed = len(problems)
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
        failed = max(failed, 1)

    ratios = [row["max_abs_err"] / row["tol"] for row in rows or []
              if _row_problem(row) is None]
    return Verdict(attempted=len(expected) + len(extra), failed=failed,
                   worst_err_to_tol=max(ratios, default=0.0), problems=problems)
