"""Golden bytes of `qcarlitz verify --format json` and of the README examples.

Each case runs one suite at its default grid (or at a grid named in the
case) and compares the sha256 of the report with the digest checked in
beside this file.  A change to the algebra that keeps every verdict but
alters one canonical form, one coefficient string or the row order fails
here.  The README's `compute`, `table` and thm1 `verify` examples are
compared with the output of the same commands.

Every case but lemma2 and the default report (which includes lemma2), and
every README example, run with `Poly.gcd` and `Poly.divexact` raising: the
suites reduce over cyclotomic exponent maps, and only lemma2 sums beta_hk
values through public `RatFunc` arithmetic.

Regenerate the digests only when the output is meant to change:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from qcarlitz import cli
from qcarlitz.polyq import Poly

GOLDEN = Path(__file__).with_name("golden_verify.json")
README = Path(__file__).resolve().parent.parent / "README.md"

CASES = {suite: ["--suite", suite] for suite in cli.SUITES}
# plain `qcarlitz verify`: every suite at its default grid
CASES["all"] = []
CASES["thm1 --jobs 2"] = ["--suite", "thm1", "--jobs", "2"]
# the benchmark's carlitz grid (the default stops at n = 8), and n = 40:
# larger packed sums and quotients than n = 20 reaches
for _n in ("20", "40"):
    CASES[f"carlitz-cross --n-max {_n}"] = ["--suite", "carlitz-cross", "--n-max", _n]
# the benchmark's two p-adic levels: p^11 single sums, p^8 double sums
for _case in ("padic --p 3 --q0 4 --N 11 --K 16", "padic --p 5 --q0 6 --N 4 --K 10"):
    CASES[_case] = ["--suite", *_case.split()]
# the benchmark's two identity grids: the thm1 and cross34 sweeps
for _case in ("thm1 --n-max 4 --w-max 3 --y-max 2 --sample 500",
              "cross34 --n-max 3 --w-max 3 --y-max 2 --sample 300"):
    CASES[_case] = ["--suite", *_case.split()]


def _digest(args: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", *args, "--format", "json"])
    assert code == 0
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def _refuse_generic_algebra(monkeypatch) -> None:
    """Make Poly.gcd and Poly.divexact raise for the rest of the test."""
    def refuse(self, other):
        raise AssertionError("generic gcd or division called")

    monkeypatch.setattr(Poly, "gcd", refuse)
    monkeypatch.setattr(Poly, "divexact", refuse)


@pytest.mark.parametrize("case", sorted(CASES))
def test_verify_json_bytes_match_golden(case, monkeypatch):
    expected = json.loads(GOLDEN.read_text())[case]
    if case not in ("lemma2", "all"):
        _refuse_generic_algebra(monkeypatch)
    assert _digest(CASES[case]) == expected


def _readme_output(command: str) -> list[str]:
    """The lines README.md shows under `$ command`, up to the closing fence."""
    lines = README.read_text().splitlines()
    start = lines.index(f"$ {command}") + 1
    return lines[start:lines.index("```", start)]


@pytest.mark.parametrize("command", [
    "qcarlitz compute beta --n 2",
    "qcarlitz table beta --n-max 3",
    "qcarlitz verify --suite thm1 --n-max 2 --w-max 2 --y-max 1 --sample 6",
])
def test_readme_example_output(command, capsys, monkeypatch):
    _refuse_generic_algebra(monkeypatch)
    assert cli.main(command.split()[1:]) == 0
    # compared line by line: the csv writer ends its rows with \r\n
    assert capsys.readouterr().out.splitlines() == _readme_output(command)


if __name__ == "__main__":
    digests = {case: _digest(CASES[case]) for case in sorted(CASES)}
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
