import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mixedsums.cli import main, parse_q


def test_parse_q():
    assert parse_q("13") == (13, 1)
    assert parse_q("3^2") == (3, 2)
    assert parse_q("9") == (3, 2)


def test_verify_passes(capsys):
    code = main(["verify", "--q", "5", "--a", "1", "--suite", "classical"])
    out = capsys.readouterr().out
    assert code == 0
    assert "pass" in out
    assert "checks passed" in out


def test_verify_rejects_non_prime_power(capsys):
    assert main(["verify", "--q", "15"]) == 2
    assert "error" in capsys.readouterr().err


def test_verify_rejects_wrong_residue(capsys):
    assert main(["verify", "--q", "7"]) == 2


def test_verify_fails_with_absurd_tolerance(capsys):
    code = main(["verify", "--q", "5", "--a", "1", "--suite", "classical",
                 "--tol", "1e-30"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_writes_json_report(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["verify", "--q", "13", "--a", "1,2", "--suite", "main",
                 "--out", str(out), "--format", "json"])
    assert code == 0
    data = json.loads(out.read_text())
    assert data[0]["field"]["q"] == 13
    assert all(r["passed"] for r in data[0]["runs"])


def test_table_v(capsys):
    code = main(["table", "--q", "5", "--a", "1", "--object", "V"])
    assert code == 0
    rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
    assert rows[0] == ["j", "re", "im"]
    assert len(rows) == 1 + 5
    for row in rows[1:]:
        float(row[1]), float(row[2])


def test_table_p(tmp_path):
    out = tmp_path / "p.csv"
    code = main(["table", "--q", "5", "--a", "2", "--object", "P", "--out", str(out)])
    assert code == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["j", "k", "re", "im"]
    assert len(rows) == 1 + 25
    for row in rows[1:]:
        float(row[2]), float(row[3])


def test_usage_error_exit_code(capsys):
    assert main(["table", "--q", "5", "--object", "Q"]) == 2


@pytest.mark.parametrize("a", ["-1", "0", "13", "99"])
@pytest.mark.parametrize("command", [
    ["table", "--q", "13", "--object", "V"],
    ["table", "--q", "13", "--object", "P"],
    ["verify", "--q", "13", "--suite", "main"],
], ids=["table-V", "table-P", "verify"])
def test_bad_a_exit_code(capsys, command, a):
    assert main(command + ["--a", a]) == 2
    captured = capsys.readouterr()
    assert "error" in captured.err
    assert captured.out == ""


def test_bad_explicit_a_exits_before_any_suite(monkeypatch, capsys):
    # a = 100 is fine at q = 7^4 but not at q = 5: no suite of either field runs
    def no_suite(*args):
        raise AssertionError("a suite ran before the bad a was rejected")

    monkeypatch.setattr("mixedsums.harness.run_main", no_suite)
    assert main(["verify", "--q", "7^4", "--q", "5", "--a", "100", "--suite", "main"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a = 100 is not a nonzero element index for q = 5 (1 <= a < q)\n"


def test_repeated_q_and_a_run_once(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["verify", "--q", "5", "--q", "5^1", "--a", "1,1", "--suite", "main",
                 "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "8/8 checks passed" in printed
    groups = json.loads(out.read_text())
    assert [g["field"]["q"] for g in groups] == [5]
    assert [r["check_id"] for r in groups[0]["runs"]] == [
        "main_identity", "corner_value", "zero_row_factorization", "mixed_symmetry",
        "negation_symmetry", "quarter_turn", "imaginary_drift", "tau_branch"]


@pytest.mark.parametrize("q", ["abc", "3^x"])
@pytest.mark.parametrize("command", [
    ["verify", "--a", "1"],
    ["table", "--a", "1", "--object", "V"],
], ids=["verify", "table"])
def test_bad_q_text_exit_code(capsys, command, q):
    assert main(command + ["--q", q]) == 2
    assert "bad --q" in capsys.readouterr().err


def test_internal_error_is_not_a_usage_error(monkeypatch):
    # only bad input exits 2; an error inside the program propagates
    def broken(config):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr("mixedsums.cli.run", broken)
    with pytest.raises(ValueError, match="broadcast"):
        main(["verify", "--q", "5"])


@pytest.mark.parametrize("argv, target", [
    (["verify", "--q", "5", "--q", "3^2", "--a", "1"], "mixedsums.cli.run"),
    (["table", "--q", "13", "--a", "1", "--object", "P"], "mixedsums.cli.mixed_table"),
])
def test_out_of_memory_exits_2(monkeypatch, capsys, argv, target):
    # numpy reports a failed allocation as a MemoryError; the stand-in
    # raises one without allocating anything
    def exhausted(*args):
        raise MemoryError("Unable to allocate 16.0 GiB for an array with shape (65520, 32761)")

    monkeypatch.setattr(target, exhausted)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [err.strip()]
    qs = ", ".join(argv[i + 1] for i, arg in enumerate(argv) if arg == "--q")
    assert err.startswith(f"error: out of memory at q = {qs}: Unable to allocate")


def test_huge_q_is_a_usage_error(capsys):
    # 3^10000 has more digits than Python converts to a string by default
    assert main(["verify", "--q", "3^10000"]) == 2
    assert "exceeds the table cap" in capsys.readouterr().err


SRC = Path(__file__).resolve().parents[1] / "src"
HUGE_Q = "1000000000000000000000000000057"


@pytest.mark.parametrize("command", [
    ["verify", "--q", HUGE_Q, "--suite", "main"],
    ["table", "--q", HUGE_Q, "--a", "1", "--object", "V"],
], ids=["verify", "table"])
def test_huge_plain_integer_q_is_rejected_before_factoring(command):
    # trial division of a 31-digit q would run for hours; the size cap comes first
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "mixedsums.cli", *command],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert "exceeds the table cap" in proc.stderr


BAD_INPUTS = (
    [["verify", "--a", "1", f"--q={q}"] for q in
     ("abc", "3^0", "5^-1", "7", "12", "1", "0", "-5", "65537", "2^17", "4^1",
      "3^100000000")]  # 3**100000000 alone takes minutes
    + [["verify", "--q", "5", "--a", "1", f"--tol={t}"] for t in ("nan", "-1", "inf")]
    + [["verify", "--q", "5", "--suite", "bogus"], ["verify", "--q", "5", "--format", "xml"]]
    + [["verify", "--q", "5", "--suite", "main", f"--a={a}"] for a in ("0", "x", ",", "1,,2")]
    + [["verify", "--q", "5", "--a", "1", "--suite", "main", "--out", "{missing}/r.json"],
       ["table", "--q", "5", "--a", "1", "--object", "V", "--out", "{missing}/t.csv"],
       ["table", "--q", "5", "--a", "1", "--object", "Q"]]
)


@pytest.mark.parametrize("argv", BAD_INPUTS, ids=" ".join)
def test_bad_input_is_a_one_line_usage_error(tmp_path, capsys, argv):
    argv = [arg.format(missing=tmp_path / "missing") for arg in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "error:" in err.strip().splitlines()[-1]
