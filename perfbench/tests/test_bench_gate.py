import json
import math

import pytest

import gate
from workloads import SEEDED_A, WORKLOADS

EXPECTED = [
    ("gauss_norm", 13, None, 11, 1e-8),
    ("main_identity", 13, 5, 169, 1e-8),
    ("tau_branch", 13, 5, 182, 1e-12),
]


def rows():
    return [{"check_id": cid, "q": q, "a": a, "instances": n, "max_abs_err": 1e-15,
             "tol": tol, "passed": True} for cid, q, a, n, tol in EXPECTED]


def test_clean_report_passes():
    v = gate.check(0, rows(), EXPECTED)
    assert (v.attempted, v.failed, v.problems) == (3, 0, [])
    assert v.worst_err_to_tol == pytest.approx(1e-15 / 1e-12)


def test_missing_row():
    v = gate.check(0, rows()[1:], EXPECTED)
    assert v.failed == 1 and "missing" in v.problems[0]


def test_missing_report():
    v = gate.check(2, None, EXPECTED)
    assert v.attempted == 3 and v.failed == 3


def test_short_instances():
    r = rows()
    r[1]["instances"] = 168
    v = gate.check(0, r, EXPECTED)
    assert v.failed == 1 and "instances" in v.problems[0]


def test_failed_row():
    r = rows()
    r[0]["passed"] = False
    v = gate.check(0, r, EXPECTED)
    assert v.failed == 1 and "failed" in v.problems[0]


@pytest.mark.parametrize("err", [math.nan, math.inf, 2e-8])
def test_bad_error_with_passed_true(err):
    r = rows()
    r[1]["max_abs_err"] = err
    v = gate.check(0, r, EXPECTED)
    assert v.failed == 1 and "max_abs_err" in v.problems[0]
    assert math.isfinite(v.worst_err_to_tol)


def test_loosened_tolerance():
    r = rows()
    r[2]["tol"] = 1e-8
    v = gate.check(0, r, EXPECTED)
    assert v.failed == 1 and "tol" in v.problems[0]


def test_wrong_a_is_missing():
    r = rows()
    r[1]["a"] = 6
    v = gate.check(0, r, EXPECTED)
    assert v.failed == 1   # the expected row is missing; the extra one passes
    r[1]["passed"] = False
    assert gate.check(0, r, EXPECTED).failed == 2


def test_extra_rows_allowed_but_must_pass():
    extra = {"check_id": "new_identity", "q": 13, "a": None, "instances": 4,
             "max_abs_err": 0.0, "tol": 1e-8, "passed": True}
    v = gate.check(0, rows() + [extra], EXPECTED)
    assert (v.attempted, v.failed) == (4, 0)
    extra["max_abs_err"] = math.nan
    v = gate.check(0, rows() + [extra], EXPECTED)
    assert (v.attempted, v.failed) == (4, 1)


def test_nonzero_exit_fails():
    v = gate.check(1, rows(), EXPECTED)
    assert v.failed == 1 and v.problems == ["exit code 1"]


def test_load_report_reads_bare_nan(tmp_path):
    path = tmp_path / "r.json"
    path.write_text('[{"field": {}, "runs": [{"check_id": "x", "q": 5, "a": null, '
                    '"instances": 1, "max_abs_err": NaN, "tol": 1e-8, "passed": true}]}]')
    v = gate.check(0, gate.load_report(path), [("x", 5, None, 1, 1e-8)])
    assert v.failed == 1
    assert gate.load_report(tmp_path / "absent.json") is None


def test_manifests_match_workloads():
    sizes = {"acceptance_sweep": 688, "mellin_q257": 21, "main_q625": 8}
    for name, w in WORKLOADS.items():
        a = w.draw_a(7)
        rows = w.manifest(a)
        assert len(rows) == sizes[name]
        qs = {p**n for p, n in w.fields}
        assert {q for _, q, _, _, _ in rows} == qs
        if w.seeded_a:
            assert 1 <= a < max(qs) and a == w.draw_a(7)
            assert {ra for _, _, ra, _, _ in rows} <= {None, a}
            assert SEEDED_A not in json.dumps(rows)
