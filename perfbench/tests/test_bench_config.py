import json
from pathlib import Path

from run import summarize
from spans import Recorder
from workloads import WORKLOADS

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def sample(**extra):
    return {"setup_s": 0.2, "verify_s": 3.0, "peak_rss_mb": 32.0, "exit_code": 0,
            "gate": {"attempted": 10, "failed": 0, "worst_err_to_tol": 1e-4, "problems": []},
            **extra}


def declared(key):
    return {m["name"]: m["unit"] for m in BENCHMARK[key]}


def reported(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_workloads_match():
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]


def pair(program, reference):
    return {"program": program, "reference": reference}


def test_end_to_end_metrics_match():
    record = {"setup_rounds": [[pair({"setup_s": 0.1}, {"setup_s": 0.1})] * 2],
              "rounds": [[pair(sample(), sample())] * 2]}
    result = summarize(record, WORKLOADS["acceptance_sweep"])
    assert reported(result) == declared("end_to_end")
    assert result["correct"] and result["attempted"] == 20


def test_times_are_scaled_by_the_reference():
    w = WORKLOADS["mellin_q257"]
    record = {"setup_rounds": [[pair({"setup_s": 0.3}, {"setup_s": 0.1})] * 2] * 2,
              "rounds": [[pair(sample(verify_s=v), sample(verify_s=r))
                          for v, r in round_] for round_ in
                         (((1.0, 4.0), (4.0, 4.0)), ((9.0, 1.0), (1.0, 1.0)),
                          ((3.0, 4.0), (3.0, 4.0)))]}
    metrics = summarize(record, w)["metrics"]
    # A round's ratio is the geometric mean of its pairs': 0.5, 3 and 0.75,
    # whose median is 0.75. Set-up: 3, 3 from the set-up rounds, 1, 1, 1
    # from the verify rounds, whose median is 1.
    assert metrics["verify_s"]["value"] == w.reference_verify_s * 0.75
    assert metrics["setup_s"]["value"] == w.reference_setup_s * 1.0


def test_only_the_program_counts_toward_checks():
    bad = sample()
    bad["gate"] = {"attempted": 10, "failed": 10, "worst_err_to_tol": 0.0, "problems": []}
    record = {"setup_rounds": [], "rounds": [[pair(sample(), bad)] * 2]}
    result = summarize(record, WORKLOADS["main_q625"])
    assert result["failed"] == 0 and result["attempted"] == 20


def test_per_layer_metrics_match():
    traced = sample(layers=Recorder().metrics())
    result = summarize({"traced": traced, "untraced": [sample()]}, WORKLOADS["main_q625"])
    assert reported(result) == declared("per_layer")
    assert result["metrics"]["trace.overhead_s"]["value"] == 0.0
