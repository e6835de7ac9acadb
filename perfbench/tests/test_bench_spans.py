import json
import sys

import numpy as np
import pytest

import spans
from spans import Recorder, outermost, self_times


def test_self_time_is_span_minus_children():
    #   0: [0, 10]  children 1: [1, 3] and 2: [4, 6.5]
    #   3: [1.5, 2.5] is a child of 1, so it does not count against 0
    start = np.array([0.0, 1.0, 4.0, 1.5])
    end = np.array([10.0, 3.0, 6.5, 2.5])
    parent = np.array([-1, 0, 0, 1])
    assert self_times(start, end, parent) == pytest.approx([5.5, 1.0, 2.5, 1.0])


def test_outermost_skips_nested_members():
    parent = np.array([-1, 0, 1, 0, -1])
    in_group = np.array([True, False, True, True, True])
    assert outermost(in_group, parent).tolist() == [True, False, False, False, True]


def mixedsums_bindings():
    import mixedsums.cli  # noqa: F401
    from mixedsums.chars import MultChar
    from mixedsums.gf import FieldTable
    from mixedsums.harness import Checker

    owners = [m for n, m in sys.modules.items() if n.split(".")[0] == "mixedsums"]
    owners += [FieldTable, MultChar, Checker]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def run_traced(tmp_path, argv):
    import mixedsums.cli

    recorder = Recorder()
    with recorder.patched():
        patched = mixedsums_bindings()
        code = mixedsums.cli.main(argv + ["--out", str(tmp_path / "r.json")])
    return recorder, patched, code


def test_traced_run_restores_every_binding(tmp_path, capsys):
    before = mixedsums_bindings()
    recorder, during, code = run_traced(tmp_path, ["verify", "--q", "5", "--a", "2"])
    after = mixedsums_bindings()
    assert code == 0
    changed = [key for key in before if during[key] is not before[key]]
    # every binding of a traced function was replaced, e.g. jacobi in sums and mellin
    import mixedsums.mellin
    import mixedsums.sums
    jacobi = before[(id(mixedsums.sums), "jacobi")]
    assert all(during[key] is not jacobi for key in before if before[key] is jacobi)
    assert before[(id(mixedsums.mellin), "jacobi")] is jacobi
    assert len(changed) >= len(spans.TRACED) + len(spans.COUNTED)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_bindings_restored_after_an_error(tmp_path):
    before = mixedsums_bindings()
    with pytest.raises(RuntimeError):
        with Recorder().patched():
            raise RuntimeError("boom")
    assert all(mixedsums_bindings()[key] is before[key] for key in before)


def test_metrics_of_a_small_run(tmp_path, capsys):
    recorder, _, code = run_traced(tmp_path, ["verify", "--q", "5", "--q", "9", "--a", "sample"])
    assert code == 0
    m = recorder.metrics()
    groups = json.loads((tmp_path / "r.json").read_text())
    rows = [r for g in groups for r in g["runs"]]
    assert m["harness.checks"] == len(rows)
    assert m["harness.instances"] == sum(r["instances"] for r in rows)
    assert m["gf.build_field.calls"] == 4           # run() and emit_report each build
    assert m["gf.build_field.useful_ratio"] == 0.5
    assert m["cli.main.s"] >= m["harness.suites.self_s"] + m["cli.main.self_s"]
    assert m["mixed.mixed_table.alloc_peak_mb"] > 0
    assert m["chars.char_matrix.bytes"] == 16 * (4 * 4 + 8 * 8)
    # spans balance: every span closed, parents precede children
    name_of, start, end, parent = recorder.arrays()
    assert np.all(end >= start) and np.all(parent < np.arange(len(parent)))
