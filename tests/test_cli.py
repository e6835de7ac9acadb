import csv
import json

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
