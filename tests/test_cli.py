"""End-to-end checks of the command-line front end, run in process."""

import csv
import hashlib
import io
import json
import sys
import time

import pytest

import qcarlitz.identities
from qcarlitz import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_beta_text(capsys):
    code, out, _ = run(capsys, "compute", "beta", "--n", "1", "--d", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "-1/(1+q)"
    assert lines[1] == "num: ['-1']"
    assert lines[2] == "den: ['1', '1']"


def test_compute_power_sum_text(capsys):
    code, out, _ = run(capsys, "compute", "T", "--n", "1", "--m", "1", "--w", "2")
    assert code == 0
    assert out.splitlines()[0] == "q+q^2+q^3"


def test_compute_qint_zero(capsys):
    code, out, _ = run(capsys, "compute", "qint", "--x", "0")
    assert code == 0
    assert out.splitlines()[0] == "0"


def test_compute_json(capsys):
    code, out, _ = run(capsys, "compute", "beta", "--n", "1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj == {"target": "beta", "text": "-1/(1+q)",
                   "value": {"num": ["-1"], "den": ["1", "1"]}}


def test_compute_csv(capsys):
    code, out, _ = run(capsys, "compute", "beta", "--n", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["target", "text", "num", "den"]
    assert rows[1][0] == "beta"
    assert json.loads(rows[1][2]) == ["0", "1"]


@pytest.mark.parametrize("argv, digest", [
    (("beta_poly", "--n", "3", "--d", "2", "--x", "2", "--format", "json"),
     "beaa0b00d913ad1fc9f6e8b70fb26172b7173e6e45fc4cae7ca5a4461f1fbea9"),
    (("beta_hk", "--n", "3", "--h", "3", "--k", "2", "--d", "2", "--x", "1", "--format", "json"),
     "188649f162ecd458d5446ab9372496e144d746ea8af6d946a2567850a4942608"),
    (("beta_h", "--n", "2", "--h", "2", "--d", "3", "--x", "1"),
     "c714c304f76d613ff5455d4cec3d1538108e88a90024fa0d2531e382e264df49"),
    (("T", "--n", "2", "--m", "3", "--w", "2", "--d", "2", "--format", "json"),
     "599db7c2b3f48d85737faa6a968a4685e3ce9509bb1bc02831c229e25c3adc2f"),
    (("qint", "--x", "5", "--d", "3", "--format", "csv"),
     "178e6b8c98f09ba94cb97dd8b2ddb4142d7b7f6706d758ee825d2e4a51f6779a"),
    (("beta", "--n", "4", "--d", "2", "--format", "text"),
     "e6f4dcef8ea42c6814606b58d637c7f5ef69fa6654ea96a4c4c376d4e9550218"),
])
def test_compute_polynomial_families_bytes(capsys, argv, digest):
    # sha256 of stdout, pinned: every compute target in base q^2 or q^3
    code, out, _ = run(capsys, "compute", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_compute_missing_flag(capsys):
    code, _, err = run(capsys, "compute", "beta")
    assert code == 2
    assert "needs --n" in err


def test_compute_invalid_target_rejected(capsys):
    with pytest.raises(SystemExit):
        cli.main(["compute", "gamma", "--n", "1"])
    capsys.readouterr()


def test_verify_small_grids(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "thm1",
                       "--n-max", "2", "--w-max", "2", "--y-max", "1",
                       "--sample", "40")
    assert code == 0
    assert out.strip().splitlines()[-1].startswith("total 40  passed 40")
    code, out, _ = run(capsys, "verify", "--suite", "cross34",
                       "--n-max", "2", "--w-max", "2", "--y-max", "1",
                       "--sample", "20")
    assert code == 0
    code, out, _ = run(capsys, "verify", "--suite", "qlaws")
    assert code == 0
    code, out, _ = run(capsys, "verify", "--suite", "carlitz-cross",
                       "--n-max", "5")
    assert code == 0


def test_verify_padic_reports_precisions(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "padic",
                       "--p", "3", "--q0", "4", "--N", "4", "--K", "8")
    assert code == 0
    assert "certified=" in out and "window=" in out and "seen=" in out
    assert out.strip().splitlines()[-1].endswith("failed 0")
    assert "FAIL" not in out


def test_verify_padic_at_q0_one_skips_the_q_exp_row(capsys):
    # q0 = 1 is the classical Volkenborn integral; log q = 0 leaves the
    # eq2-qexp row out, and every witt and eq3 row still runs
    code, out, _ = run(capsys, "verify", "--suite", "padic", "--q0", "1",
                       "--N", "2", "--K", "6", "--format", "json")
    assert code == 0
    report = json.loads(out)
    names = [r["identity"] for r in report["results"]]
    assert len(names) == 19 and "eq2-qexp" not in names
    assert set(names) == {"witt", "eq3"}
    assert all(r["verdict"] for r in report["results"])
    assert report["summary"] == {"failed": 0, "passed": 19, "total": 19}


def test_verify_json_roundtrips_byte_identically(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--suite", "lemma2", "--n-max", "3",
                       "--format", "json", "--out", str(path))
    assert code == 0 and out == ""
    raw = path.read_text()
    obj = json.loads(raw)
    assert json.dumps(obj, indent=2, sort_keys=True) + "\n" == raw
    assert set(obj) == {"suite", "grid", "results", "summary"}
    assert obj["summary"]["total"] == len(obj["results"])
    assert obj["summary"]["failed"] == 0
    row = obj["results"][0]
    assert {"identity", "params", "per_sigma", "verdict"} <= set(row)
    assert all(set(ps) == {"sigma", "value"} for ps in row["per_sigma"])


def test_verify_csv_format(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "lemma2", "--n-max", "1",
                       "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["identity", "params", "verdict", "witness"]
    assert all(r[2] == "true" and r[3] == "" for r in rows[1:])
    assert json.loads(rows[1][1]) == {"d": 1, "n": 0, "w3": 1}


def test_verify_padic_refuses_runaway_levels(capsys):
    t0 = time.monotonic()
    code, out, err = run(capsys, "verify", "--suite", "padic", "--p", "101",
                         "--q0", "102", "--N", "5")
    assert code == 2 and out == "" and "budget" in err
    # the single sums fit at N = 3; the k = 2 rows, which run last, do not
    code, out, err = run(capsys, "verify", "--suite", "padic", "--p", "101",
                         "--q0", "102", "--N", "3", "--K", "10")
    assert code == 2 and out == "" and "budget" in err
    # a prime over the budget is refused before its primality test, by a
    # message that names p: N = 1 cannot be lowered
    code, out, err = run(capsys, "verify", "--suite", "padic", "--p", "2305843009213693951",
                         "--q0", "1", "--N", "1", "--K", "3")
    assert code == 2 and out == "" and "p = 2305843009213693951 alone exceeds the budget" in err
    assert "lower N" not in err
    assert time.monotonic() - t0 < 1


def test_verify_padic_refuses_unprintable_precision(capsys, monkeypatch):
    # residues mod 3^9100 exceed the default 4300-digit limit for printing an
    # integer; they used to fail only once the first row was printed
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
    t0 = time.monotonic()
    code, out, err = run(capsys, "verify", "--suite", "padic", "--K", "9100")
    assert code == 2 and out == "" and "K=9100" in err
    assert time.monotonic() - t0 < 1


def test_verify_jobs_do_not_change_output(capsys):
    argv = ["verify", "--suite", "thm3", "--n-max", "1", "--w-max", "2",
            "--y-max", "1", "--format", "json"]
    assert cli.main(argv + ["--jobs", "1"]) == 0
    solo = capsys.readouterr().out
    assert cli.main(argv + ["--jobs", "2"]) == 0
    pooled = capsys.readouterr().out
    assert solo == pooled


def test_jobs_env_fallback(monkeypatch, capsys):
    monkeypatch.setenv("QCARLITZ_JOBS", "2")
    argv = ["verify", "--suite", "lemma2", "--n-max", "2", "--format", "json"]
    assert cli.main(argv) == 0
    via_env = capsys.readouterr().out
    monkeypatch.delenv("QCARLITZ_JOBS")
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == via_env
    monkeypatch.setenv("QCARLITZ_JOBS", "many")
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "QCARLITZ_JOBS must be an integer" in err


def test_resolve_jobs():
    assert cli._resolve_jobs(3) == 3
    with pytest.raises(ValueError, match="--jobs must be positive"):
        cli._resolve_jobs(0)


def test_table_beta_csv(capsys):
    code, out, _ = run(capsys, "table", "beta", "--n-max", "3")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "num", "den", "q1_limit"]
    assert len(rows) == 5
    assert [r[3] for r in rows[1:]] == ["1", "-1/2", "1/6", "0"]
    assert json.loads(rows[2][1]) == ["-1"]
    assert json.loads(rows[2][2]) == ["1", "1"]


@pytest.mark.parametrize("target", ["beta", "qint"])
@pytest.mark.parametrize("n_max", ["-1", "-2"])
def test_table_negative_n_max_rejected(capsys, target, n_max):
    code, out, err = run(capsys, "table", target, "--n-max", n_max)
    assert code == 2
    assert out == ""
    assert "--n-max must be non-negative" in err


def test_table_qint_json(capsys):
    code, out, _ = run(capsys, "table", "qint", "--n-max", "2", "--d", "2",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["target"] == "qint" and obj["d"] == 2
    assert [row["x"] for row in obj["rows"]] == [0, 1, 2]
    assert obj["rows"][2]["num"] == ["1", "0", "1"]
    assert obj["rows"][2]["q1_limit"] == "2"


def test_mutation_is_detected(monkeypatch, capsys):
    monkeypatch.delenv("QCARLITZ_JOBS", raising=False)
    orig = qcarlitz.identities.beta_number

    def flipped(n, d=1):
        v = orig(n, d)
        return v * -1 if n == 1 else v

    monkeypatch.setattr(qcarlitz.identities, "beta_number", flipped)
    code, out, err = run(capsys, "verify", "--suite", "lemma2")
    assert code == 1
    assert "FAIL" in out
    line = next(l for l in err.splitlines() if l.startswith("counterexample: "))
    assert json.loads(line[len("counterexample: "):]) == {
        "identity": "lemma2", "params": {"d": 1, "n": 1, "w3": 1},
        "witness": ["lhs", "rhs"]}


def test_unwritable_out_path(capsys):
    code, _, err = run(capsys, "verify", "--suite", "qlaws",
                       "--out", "/nonexistent-dir/report.txt")
    assert code == 2
    assert err.startswith("error:")


def test_bad_suite_rejected(capsys):
    with pytest.raises(SystemExit):
        cli.main(["verify", "--suite", "nope"])
    capsys.readouterr()


def test_verify_bound_validation(capsys):
    code, _, err = run(capsys, "verify", "--suite", "thm1", "--n-max", "-2")
    assert code == 2
    assert "must be non-negative" in err
    code, _, err = run(capsys, "verify", "--suite", "thm1", "--w-max", "0")
    assert code == 2
    assert "must be positive" in err
    for sample in ("-1", "0"):
        code, _, err = run(capsys, "verify", "--suite", "thm1", "--sample", sample)
        assert code == 2
        assert "--sample must be positive" in err
