"""The benchmark's own smoke test, at tiny sizes:

    python3 -m pytest perfbench/test_smoke.py -q

It checks that every declared metric is printed with its unit, that the
correctness gate fails on injected defects (a flipped beta_1, and a gcd
that never cancels, which keeps every verdict true but changes canonical
forms), that tasks are scaled by the probes around them, that the tracer
replaces every binding a caller looks up, and that the command fails
without the library's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from qcarlitz import carlitz, identities, padic, qcore  # noqa: E402
from qcarlitz.polyq import Poly  # noqa: E402
from qcarlitz.ratfunc import RatFunc  # noqa: E402

import run  # noqa: E402
from probe import REF_S, scaled_times  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


def _result(lines: list[str]) -> dict:
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    code, lines = _bench("--workload", workload, "--seed", "7", "--seconds", "0",
                         "--trace", trace, "--limit", "4")
    assert code == 0, lines
    res = _result(lines)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())
    assert any(line.split()[1:2] == ["failed_share"] for line in lines)


def test_default_seed_is_the_release_gate_sample():
    code, lines = _bench("--workload", "cross34-sweep", "--seed", "20140919",
                         "--seconds", "0", "--limit", "3")
    assert code == 0 and _result(lines)["correct"]


def test_flipped_beta1_fails_carlitz_table():
    code, lines = _bench("--workload", "carlitz-table", "--seed", "7", "--seconds", "0",
                         "--fault", "flip-beta1")
    res = _result(lines)
    assert code == 1 and not res["correct"]
    # n = 1 in each of the three bases
    assert res["failed"] == 3


def test_trivial_gcd_keeps_verdicts_but_fails_the_digest():
    code, lines = _bench("--workload", "thm1-sweep", "--seed", "7", "--seconds", "0",
                         "--limit", "12", "--fault", "trivial-gcd")
    res = _result(lines)
    assert code == 1 and res["failed"] > 0
    failures = [json.loads(line[len("failure "):]) for line in lines
                if line.startswith("failure ")]
    assert failures and all(f["verdict"] is True for f in failures)
    assert all(f["digest"] != f["recorded"] for f in failures)


def test_tasks_are_scaled_by_the_probes_around_them():
    # probes before tasks 0 and 2 and after the last: tasks 0 and 1 sit
    # between the first two, task 2 between the last two
    probes = [[0, REF_S], [2, 3 * REF_S], [3, REF_S]]
    assert scaled_times([1.0, 4.0, 6.0], probes) == pytest.approx([0.5, 2.0, 3.0])


def test_tracer_replaces_every_binding():
    originals = {
        "power_sum_T": qcore.power_sum_T, "q_int_poly": qcore.q_int_poly,
        "beta_number": carlitz.beta_number, "beta_poly": carlitz.beta_poly,
        "beta_hk": carlitz.beta_hk, "rf_eval_rational": padic.rf_eval_rational,
        "witt_check": padic.witt_check, "thm1_check": identities.thm1_check,
    }
    mul, add = Poly.__dict__["__mul__"], Poly.__dict__["__add__"]
    tracer = Tracer()
    tracer.install()
    try:
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("qcarlitz"):
                for name, value in vars(mod).items():
                    assert all(value is not o for o in originals.values()), (mod, name)
        assert Poly.__rmul__ is Poly.__mul__ is not mul
        assert Poly.__radd__ is Poly.__add__ is not add
        x = Poly([0, 1])
        before = len(tracer.spans)
        _ = 3 * x, x * 3, 1 + x, x - 1, 2 - x
        names = [s[2] for s in tracer.spans[before:]]
        assert names.count("polyq.mul") == 2 and names.count("polyq.add") == 3
        RatFunc(x, x)
        assert tracer.spans[-1][2] == "ratfunc.reduce"
        padic.witt_check(0, 2, 2, 0, padic.VolkenbornJob(3, 4, 1, 4, padic.IntegrandSpec(0, 0)))
        assert tracer.spans[-1][2] == "padic.witt_k2"
    finally:
        tracer.uninstall()
    assert qcore.power_sum_T is originals["power_sum_T"]
    assert identities.beta_number is carlitz.beta_number
    assert Poly.__dict__["__mul__"] is mul and Poly.__dict__["__rmul__"] is mul


def test_traced_run_attributes_its_time():
    code, lines = _bench("--workload", "cross34-sweep", "--seed", "7", "--seconds", "0",
                         "--trace", "1", "--limit", "6")
    assert code == 0
    m = {k: v["value"] for k, v in _result(lines)["metrics"].items()}
    assert m["trace.unattributed_s"] < 0.05 * m["identities.check.incl_s"]
    assert m["polyq.mul.calls"] > 0 and m["qcore.power_sum_T.calls"] > 0


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = _bench("--workload", "thm1-sweep", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
