import csv
import json
import math
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from mixedsums import (CheckReport, ConfigError, SuiteConfig, build_field, emit_report,
                       make_context, run, state_vector)
from mixedsums.harness import (Checker, _factor_prime_power, _json_row, resolve_a_values,
                               run_main, run_mellin)
from mixedsums.mellin import null_locus_sum
from mixedsums.mixed import mixed_table, squares_table


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
    with pytest.raises(ConfigError, match="unknown a policy 'bogus'"):
        SuiteConfig(fields=[(5, 1)], a_policy="bogus")
    # every explicit a is checked against every field when the config is made
    for a, q in ((0, "7\\^4"), (-1, "7\\^4"), (5, "5"), (100, "5")):
        with pytest.raises(ConfigError, match=f"a = {a} .* q = {q} "):
            SuiteConfig(fields=[(7, 4), (5, 1)], a_policy=[1, a])
    with pytest.raises(ConfigError, match="a = 2401 .* q = 7\\^4 "):
        SuiteConfig(fields=[(7, 4)], a_policy=[2401])
    assert SuiteConfig(fields=[(7, 4), (5, 1)], a_policy=[4, 1]).a_policy == [4, 1]
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
    rows = json.loads((manifests / "main_q625.json").read_text())
    expected = [(cid, q, a if ra == "seeded" else ra, n, tol) for cid, q, ra, n, tol in rows]
    reports = run(SuiteConfig(fields=[(5, 4)], a_policy=[a], suites=("main",)))
    assert [(r.check_id, r.q, r.a, r.instances, r.tol) for r in reports] == expected
    assert all(r.passed for r in reports)


def traced_peak(fn):
    """The tracemalloc peak, in bytes, of one call of fn, and its result."""
    tracemalloc.start()
    try:
        out = fn()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def test_main_suite_holds_no_q_by_q_array():
    # P is streamed in row blocks: with V and the squares table already
    # built, run_main allocates less than one q x q complex array.
    f = build_field(5, 4)
    ctx = make_context(f, 3)
    state_vector(ctx)
    squares_table(ctx)
    peak, reports = traced_peak(lambda: run_main(ctx))
    assert all(r.passed for r in reports)
    assert peak < 16 * f.q**2


def test_squares_table_build_holds_no_factor_matrix():
    # Each row block of S is one cyclic convolution over log x, so the build
    # holds little besides S itself.
    peak, S = traced_peak(lambda: squares_table(make_context(build_field(5, 4), 3)))
    assert peak < 2 * S.nbytes


def test_state_vector_build_is_linear_in_q():
    # V is one length-(q-1) convolution, so its build holds O(q) memory.
    f = build_field(5, 4)
    peak, _ = traced_peak(lambda: state_vector(make_context(f, 3)))
    assert peak < 256 * f.q


def test_mellin_suite_holds_only_p_and_t():
    # T is built in place in the gather of P and checked in row blocks, so
    # with the field tables warm and a cold context run_mellin holds P, T,
    # the squares table and little else.
    f = build_field(5, 4)
    run_mellin(make_context(f, 1))  # builds the per-field tables
    peak, reports = traced_peak(lambda: run_mellin(make_context(f, 3)))
    assert all(r.passed for r in reports)
    assert peak < 3 * 16 * f.q**2


def test_mellin_suite_passes_over_several_row_blocks():
    # at q = 169, T and its closed form are compared in several row blocks
    f = build_field(13, 2)
    for a in (1, f.g):
        reports = {r.check_id: r for r in run_mellin(make_context(f, a))}
        assert all(r.passed for r in reports.values())
        assert reports["double_mellin"].instances == (f.q - 1) ** 2
        assert reports["product_assembly"].instances == (f.q - 1) ** 2


def test_null_locus_is_found_in_row_blocks():
    # the cross form is tested on row blocks of j, with no (q-1)^2 digit arrays
    f = build_field(5, 4)
    ctx = make_context(f, 3)
    peak, _ = traced_peak(lambda: null_locus_sum(ctx, np.arange(f.q - 1)))
    assert peak < 16 * f.q**2


def test_mixed_table_is_filled_in_row_blocks():
    # with the squares table built, filling P holds no q x q slot array
    ctx = make_context(build_field(5, 4), 3)
    squares_table(ctx)
    peak, P = traced_peak(lambda: mixed_table(ctx))
    assert peak < 1.25 * P.nbytes


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


def test_json_row_is_asdict():
    finite = CheckReport("demo", 5, 1, 10, 1.25e-11, 1e-8, True)
    assert _json_row(finite) == asdict(finite)
    assert list(_json_row(finite)) == list(asdict(finite))
    nan = CheckReport("demo", 5, None, 3, math.nan, 1e-8, False)
    assert _json_row(nan) == {**asdict(nan), "max_abs_err": "nan"}
    assert list(_json_row(nan)) == list(asdict(nan))


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
