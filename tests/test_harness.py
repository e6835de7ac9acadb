import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from mixedsums import CheckReport, ConfigError, SuiteConfig, build_field, emit_report, run
from mixedsums.harness import Checker, _factor_prime_power, resolve_a_values


def test_config_validation():
    with pytest.raises(ConfigError):
        SuiteConfig(fields=[(5, 1)], tol=0.0)
    with pytest.raises(ConfigError):
        SuiteConfig(fields=[(5, 1)], suites=("bogus",))
    with pytest.raises(ConfigError):
        SuiteConfig(fields=[(5, 1)], format="xml")
    for bad_tol in (math.nan, math.inf):
        with pytest.raises(ConfigError):
            SuiteConfig(fields=[(5, 1)], tol=bad_tol)
    cfg = SuiteConfig(fields=[(5, 1)], suites=("all",))
    assert set(cfg.suites) == {"classical", "transforms", "main", "mellin"}
    assert SuiteConfig(fields=[(13, 1), (5, 1), (13, 1), (3, 2), (5, 1)]).fields == [
        (13, 1), (5, 1), (3, 2)]


def test_report_layout_matches_manifest():
    # The benchmark's frozen manifests fix each row's check id, q, a,
    # instance count and tol, in run order.
    manifests = Path(__file__).resolve().parents[1] / "perfbench/manifests"
    qs = (5, 9, 13)
    rows = json.loads((manifests / "acceptance_sweep.json").read_text())
    expected = [tuple(row) for row in rows if row[1] in qs]
    reports = run(SuiteConfig(fields=[(5, 1), (3, 2), (13, 1)], a_policy="sample"))
    assert [(r.check_id, r.q, r.a, r.instances, r.tol) for r in reports] == expected
    # one mid-size field at one a, which stands for the manifest's "seeded" a
    a = 3
    rows = json.loads((manifests / "mellin_q257.json").read_text())
    expected = [(cid, q, a if ra == "seeded" else ra, n, tol) for cid, q, ra, n, tol in rows]
    reports = run(SuiteConfig(fields=[(257, 1)], a_policy=[a],
                              suites=("classical", "transforms", "mellin")))
    assert [(r.check_id, r.q, r.a, r.instances, r.tol) for r in reports] == expected


def test_instances_are_counted_after_broadcasting(f5):
    c = Checker("demo", f5, None, 1e-8)
    c.compare_arrays(np.zeros((3, 4)), 0.0)
    c.compare_arrays(1.0, [1.0, 1.0])
    c.compare_arrays([], [])
    assert c.report().instances == 14
    assert Checker.compare is Checker.compare_arrays


def test_factor_prime_power():
    assert _factor_prime_power(9) == (3, 2)
    assert _factor_prime_power(13) == (13, 1)
    with pytest.raises(ConfigError):
        _factor_prime_power(15)
    with pytest.raises(ConfigError):
        _factor_prime_power(1)


def test_resolve_a_values():
    f = build_field(13, 1)
    assert resolve_a_values(f, "all") == list(range(1, 13))
    sample = resolve_a_values(f, "sample")
    assert set(sample) == {1, f.g, int(f.mul(f.g, f.g)), int(f.neg(1))}
    assert resolve_a_values(f, [3, 7]) == [3, 7]
    assert resolve_a_values(f, [7, 3, 7, 3]) == [7, 3]
    with pytest.raises(ConfigError):
        resolve_a_values(f, [0])
    with pytest.raises(ConfigError):
        resolve_a_values(f, "bogus")


def test_full_run_small_field_passes():
    cfg = SuiteConfig(fields=[(5, 1)], a_policy="all", suites=("all",))
    reports = run(cfg)
    assert reports
    assert all(r.passed for r in reports)
    assert all(r.max_abs_err <= 1e-10 for r in reports)


def test_run_is_deterministic():
    cfg = SuiteConfig(fields=[(13, 1)], a_policy=[1, 2], suites=("main", "classical"))
    first = run(cfg)
    second = run(cfg)
    assert first == second


def test_main_suite_runs_without_mellin():
    cfg = SuiteConfig(fields=[(13, 1)], a_policy=[1], suites=("main",))
    reports = run(cfg)
    assert {r.check_id for r in reports} >= {"main_identity", "zero_row_factorization"}
    assert all(r.passed for r in reports)


def test_emit_json(tmp_path):
    cfg = SuiteConfig(fields=[(5, 1)], a_policy=[1], suites=("main",),
                      out_path=str(tmp_path / "report.json"), format="json")
    reports = run(cfg)
    data = json.loads((tmp_path / "report.json").read_text())
    assert isinstance(data, list) and len(data) == 1
    header = data[0]["field"]
    assert header == {"p": 5, "n": 1, "q": 5, "modulus": [0, 1], "generator": 2}
    runs = data[0]["runs"]
    assert len(runs) == len(reports)
    assert runs[0]["check_id"] == reports[0].check_id
    assert isinstance(runs[0]["passed"], bool)


def test_emit_csv(tmp_path):
    path = tmp_path / "report.csv"
    reports = [
        CheckReport("demo", 5, 1, 10, 1.2345678901234567e-11, 1e-8, True),
        CheckReport("demo2", 5, None, 3, 0.0, 1e-8, False),
    ]
    emit_report(reports, "csv", str(path))
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["check_id", "q", "a", "instances", "max_abs_err", "tol", "pass"]
    assert len(rows) == 3
    # >= 15 significant digits survive the round trip
    assert float(rows[1][4]) == 1.2345678901234567e-11
    assert rows[2][6] == "false"


def test_emit_empty_report(tmp_path):
    path = tmp_path / "empty.csv"
    emit_report([], "csv", str(path))
    rows = list(csv.reader(path.open()))
    assert rows == [["check_id", "q", "a", "instances", "max_abs_err", "tol", "pass"]]


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
@pytest.mark.parametrize("lhs, rhs, shown", [
    (np.full(4, np.nan), np.zeros(4), "nan"),
    (np.array([1.0, np.nan]), np.array([1.0, 2.0]), "nan"),
    (np.array([np.inf, 1.0]), np.array([1.0, 1.0]), "inf"),
    (np.array([np.inf]), np.array([np.inf]), "nan"),
], ids=["all-nan", "one-nan", "inf", "inf-minus-inf"])
def test_non_finite_error_fails_and_is_reported(tmp_path, f5, lhs, rhs, shown):
    path = tmp_path / "report.json"
    for how in ("arrays", "scalars"):
        c = Checker("nan_demo", f5, 1, 1e-8)
        c.compare_arrays(np.zeros(3), np.zeros(3))
        if how == "arrays":
            c.compare_arrays(lhs, rhs)
        else:
            for x, y in zip(lhs, rhs):
                c.compare(complex(x), complex(y))
        c.compare_arrays(np.ones(2), np.ones(2))  # a later finite error keeps the NaN
        r = c.report()
        assert not r.passed
        assert repr(r.max_abs_err) == shown
        emit_report([r], "json", str(path))
        row = json.loads(path.read_text(), parse_constant=_reject_constant)[0]["runs"][0]
        assert row["max_abs_err"] == shown
        assert row["passed"] is False
