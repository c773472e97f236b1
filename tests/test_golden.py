"""Golden bytes of `qcarlitz verify --format json`.

Each case runs one suite at its default grid and compares the sha256 of
the report with the digest checked in beside this file.  A change to the
algebra that keeps every verdict but alters one canonical form, one
coefficient string or the row order fails here.

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

GOLDEN = Path(__file__).with_name("golden_verify.json")

CASES = {suite: ["--suite", suite] for suite in cli.SUITES}
CASES["thm1 --jobs 2"] = ["--suite", "thm1", "--jobs", "2"]


def _digest(args: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", *args, "--format", "json"])
    assert code == 0
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_verify_json_bytes_match_golden(case):
    expected = json.loads(GOLDEN.read_text())[case]
    assert _digest(CASES[case]) == expected


if __name__ == "__main__":
    digests = {case: _digest(CASES[case]) for case in sorted(CASES)}
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
