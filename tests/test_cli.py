import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mixedsums import build_field, make_context
from mixedsums.cli import main, parse_q
from oracles import naive_mixed_sum, naive_state_value


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
    # V is kept in log order, and the table writes it by element: row j is
    # V(j) for the element index j, in index order
    for q, a_values in ((5, (1, 3)), (13, (2, 6))):
        f = build_field(q, 1)
        for a in a_values:
            assert main(["table", "--q", str(q), "--a", str(a), "--object", "V"]) == 0
            rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
            assert rows[0] == ["j", "re", "im"]
            assert [int(j) for j, _, _ in rows[1:]] == list(range(q))
            ctx = make_context(f, a)
            # at j = 0 the x-sum is G(A4)/tau, and V(0) = G(A4)/tau + tau/G(A4)
            w = naive_state_value(f, a, ctx.tau, 0, ctx.A4)
            for j, re, im in rows[1:]:
                j = int(j)
                expect = naive_state_value(f, a, ctx.tau, j, ctx.A4) if j else w + 1 / w
                assert abs(complex(float(re), float(im)) - expect) < 1e-10, (q, a, j)


def test_table_p(tmp_path):
    # P is kept in log order, and the table writes it by element: row
    # (j, k) is P(j, k) for the element indices j and k, in index order
    out = tmp_path / "p.csv"
    for q, a_values in ((5, (2, 3)), (13, (1, 6))):
        f = build_field(q, 1)
        for a in a_values:
            argv = ["table", "--q", str(q), "--a", str(a), "--object", "P", "--out", str(out)]
            assert main(argv) == 0
            rows = list(csv.reader(out.open()))
            assert rows[0] == ["j", "k", "re", "im"]
            assert [(int(j), int(k)) for j, k, _, _ in rows[1:]] == [
                (j, k) for j in range(q) for k in range(q)]
            for j, k, re, im in rows[1:]:
                expect = naive_mixed_sum(f, a, int(j), int(k))
                assert abs(complex(float(re), float(im)) - expect) < 1e-10, (q, a, j, k)


def test_written_files_get_the_mode_open_would_give(tmp_path):
    # a new report gets 0666 less the umask, and a file written over keeps
    # its own mode, not the 0600 of the temp file it is renamed from
    old = os.umask(0o022)
    try:
        report = tmp_path / "r.json"
        assert main(["verify", "--q", "5", "--a", "1", "--suite", "main",
                     "--out", str(report)]) == 0
        assert report.stat().st_mode & 0o777 == 0o644
        table = tmp_path / "p.csv"
        table.write_text("old")
        table.chmod(0o640)
        assert main(["table", "--q", "5", "--a", "2", "--object", "P", "--out", str(table)]) == 0
        assert table.stat().st_mode & 0o777 == 0o640
        assert table.read_text().startswith("j,k,re,im")
    finally:
        os.umask(old)


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


def test_out_into_a_missing_directory_exits_before_any_suite(monkeypatch, tmp_path, capsys):
    # the report's directory is checked with the config, and table's before
    # P is built, and the message names the --out path, not a temporary file
    def no_suite(*args):
        raise AssertionError("a suite ran before the bad --out was rejected")

    for suite in ("run_classical", "run_transforms", "run_mellin_field", "run_main", "run_mellin"):
        monkeypatch.setattr(f"mixedsums.harness.{suite}", no_suite)
    monkeypatch.setattr("mixedsums.cli.mixed_table", no_suite)
    for out, why in ((tmp_path / "missing" / "r.json", "no such directory"),
                     (tmp_path, "it is a directory")):
        for argv in (["verify", "--q", "5", "--a", "1"],
                     ["table", "--q", "13", "--a", "1", "--object", "P"]):
            assert main(argv + ["--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: cannot write the report to {out}: {why}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("q, message", [
    ("7", "q = 7 is not congruent to 1 mod 4"),
    ("9^1", "9 is not prime"),
    ("2^17", "q = 2^17 exceeds the table cap 65536"),
])
def test_bad_field_exits_before_any_suite(monkeypatch, capsys, q, message):
    # every field is checked with the config, so the good first field runs no suite
    def no_suite(*args):
        raise AssertionError("a suite ran before the bad field was rejected")

    monkeypatch.setattr("mixedsums.harness.run_main", no_suite)
    assert main(["verify", "--q", "5", "--q", q, "--a", "3", "--suite", "main"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


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
def test_out_of_memory_exits_2(monkeypatch, capsys, tmp_path, argv, target):
    # numpy reports a failed allocation as a MemoryError; the stand-in
    # raises one without allocating anything. An existing --out file is
    # left as it was, and no temp file is left next to it.
    def exhausted(*args):
        raise MemoryError("Unable to allocate 16.0 GiB for an array with shape (65520, 32761)")

    monkeypatch.setattr(target, exhausted)
    out = tmp_path / "out.csv"
    out.write_text("an earlier run\n")
    assert main(argv + ["--out", str(out)]) == 2
    assert out.read_text() == "an earlier run\n"
    assert list(tmp_path.iterdir()) == [out]
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


@pytest.mark.parametrize("target", ["tempfile.mkstemp", "os.replace"])
def test_io_error_names_the_report_path(monkeypatch, capsys, tmp_path, target):
    # an OSError from making the temp file or from renaming it over the
    # report names the report path the user gave, not the temp file; the
    # exit code is 2 and no temp file is left behind
    def refused(*args, **kwargs):
        temp = tmp_path / ".report-abc123"
        raise OSError(13, "Permission denied", str(temp), *([args[1]] if args[1:] else []))

    monkeypatch.setattr(target, refused)
    out = tmp_path / "report.json"
    assert main(["verify", "--q", "5", "--a", "1", "--out", str(out)]) == 2
    assert list(tmp_path.iterdir()) == []
    err = capsys.readouterr().err
    assert err == f"io error: [Errno 13] Permission denied: {str(out)!r}\n"
