"""The qcarlitz benchmark: seeded verification workloads, verdicts per second.

    python3 perfbench/run.py --workload thm1-sweep --seed 1 --seconds 22 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory, so nothing needs installing.  Every pass runs in a fresh
interpreter (child.py), so the caches start cold as on every ``qcarlitz
verify`` call.  One client runs passes in a closed loop, cycling over the
workload's chunks: at least one whole cycle, and a new pass starts while
``--seconds`` are not up.

With ``--trace 0`` the end-to-end metrics are printed:

* verdicts_per_s: verdicts per second of compute after set-up, over one
  cycle of the chunks, each chunk's compute time being its median over
  the run's passes.
* setup_s: interpreter start, ``import qcarlitz`` and input generation,
  up to the first call into the library (median of several starts).
* peak_rss_mb: peak resident memory of a pass's process.

Both times are in seconds of a host running at a fixed reference speed:
on a shared host the same work can take up to 1.8 times as long from one
second to the next, so every task and every start is scaled by the time
of a fixed piece of pure-Python work run next to it (probe.py).  The probe calls
nothing of the library, so a change to the library moves the scaled
times as it moves the raw ones.  The raw times and the host's slowdown
are printed on ``measured`` lines and kept in the stamped copy.

With ``--trace 1`` one untraced and one traced pass give the per-layer
split (tracer.py), and ``qcarlitz verify --format json`` runs on the
workload's suite for the CLI parity check and the ``cli.*`` figures.

Every verdict must be true, and every report's canonical values must hash
to the digest recorded in digests.json; at the default seed the identity
sweeps must also equal the release-gate samples.  Failures are counted in
``failed`` (failed_share = failed / attempted) and make the exit status 1.
The last line of output is one JSON object; a stamped copy with per-pass
figures goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from probe import REF_S, probe, scaled_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("thm1-sweep", "cross34-sweep", "carlitz-table", "padic-levels")
SETUP_STARTS = 11  # set-up-only interpreter starts per run, besides the passes


class BenchError(Exception):
    """The benchmark could not run (as opposed to a wrong result)."""


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    env.pop("QCARLITZ_JOBS", None)
    return env


def _child(a: argparse.Namespace, *extra: str) -> tuple[float, dict | None]:
    """Start child.py; return (set-up seconds, its result line or None)."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", a.workload,
           "--seed", str(a.seed), "--limit", str(a.limit), *extra]
    if a.fault:
        cmd += ["--fault", a.fault]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        rest = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"child exited with {proc.returncode}: {' '.join(cmd)}")
    info = json.loads(ready)
    if Path(info["qcarlitz"]).resolve().parent.parent != SRC.resolve():
        raise BenchError(f"imported qcarlitz from {info['qcarlitz']}, not {SRC}")
    lines = rest.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def _check_entries(entries: list, digests: dict[str, str], failures: list) -> int:
    """Count verdicts that are false, raised, or whose digest differs."""
    failed = 0
    for key, verdict, dg in entries:
        want = digests.get(key)
        if not verdict or dg != want:
            failed += 1
            failures.append({"key": key, "verdict": verdict, "digest": dg,
                             "recorded": want})
    return failed


def _cli_parity(wl, limit: int, digests: dict[str, str], failures: list,
                tag: str) -> tuple[int, int, float, float]:
    """Run ``qcarlitz verify --format json`` on the workload's suite.

    Returns (rows, failed rows, wall seconds, peak RSS in MB).  Rows whose
    report key the digest file knows must match it; every row's verdict
    must be true and the summary must agree with the rows.
    """
    from workloads import cli_entry

    rows = failed = 0
    wall = rss = 0.0
    for i, args in enumerate(wl.cli_runs(limit)):
        report_path = OUT / f"cli-{tag}-{i}.json"
        cmd = [sys.executable, "-m", "qcarlitz", "verify", *args,
               "--format", "json", "--out", str(report_path)]
        with open(OUT / f"cli-{tag}-{i}.err", "w") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(),
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                # wait4, not Popen.wait, to read the child's peak RSS
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall += perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        rss = max(rss, usage.ru_maxrss / 1024)
        with open(report_path) as fh:
            report = json.load(fh)
        report_path.unlink()
        passed = 0
        for row in report["results"]:
            key, verdict, dg = cli_entry(row)
            rows += 1
            passed += verdict
            if not verdict or (key in digests and dg != digests[key]):
                failed += 1
                failures.append({"cli": args, "key": key, "verdict": verdict,
                                 "digest": dg, "recorded": digests.get(key)})
        summary = report["summary"]
        if (proc.returncode != 0 or summary["total"] != len(report["results"])
                or summary["passed"] != passed):
            failed += 1
            failures.append({"cli": args, "exit": proc.returncode, "summary": summary})
    return rows, failed, wall, rss


def _stamp(a: argparse.Namespace, sizes: dict) -> dict[str, object]:
    """Identify the code and machine a result came from."""
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    return {"git_sha": _git_sha(), "source_sha256": src.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "workload": a.workload, "seed": a.seed, "seconds": a.seconds,
            "trace": a.trace, "sizes": sizes}


def _git_sha() -> str | None:
    # read .git directly: the checkout may not be a repository, and git
    # itself would search the directories above it
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _pass(a: argparse.Namespace, digests: dict[str, str], failures: list,
          *extra: str) -> tuple[float, dict]:
    """One checked pass: (set-up seconds, the child's result with ``failed``)."""
    setup_s, res = _child(a, *extra)
    res["failed"] = _check_entries(res["entries"], digests, failures)
    if res.get("release_match") is False:
        res["failed"] += 1
        failures.append({"release_sample": "differs from the library's sample"})
    return setup_s, res


def _measure(a: argparse.Namespace, wl, digests: dict[str, str],
             failures: list) -> dict:
    for _ in range(3):  # its first runs are slow
        probe()
    # each start's set-up time, with the probe's time just before it
    setups = [(probe(), _child(a, "--setup-only")[0]) for _ in range(SETUP_STARTS)]
    passes = []
    start = perf_counter()
    while True:
        # one whole cycle over the chunks, so every run covers every input;
        # then more passes until --seconds are up
        host = probe()
        setup_s, res = _pass(a, digests, failures, "--chunk", str(len(passes) % wl.passes))
        setups.append((host, setup_s))
        passes.append(res)
        if len(passes) >= wl.passes and perf_counter() - start >= a.seconds:
            break
    # a cycle's compute time: each chunk's median over its passes, summed
    raw: dict[int, list[float]] = {}
    scaled: dict[int, list[float]] = {}
    for n, p in enumerate(passes):
        p["scaled_s"] = sum(scaled_times(p["times"], p["probes"]))
        raw.setdefault(n % wl.passes, []).append(p["compute_s"])
        scaled.setdefault(n % wl.passes, []).append(p["scaled_s"])
    verdicts = sum(len(p["entries"]) for p in passes[:wl.passes])
    metrics = {
        "verdicts_per_s": verdicts / sum(map(statistics.median, scaled.values())),
        "setup_s": statistics.median(s * REF_S / host for host, s in setups),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    probes = [s for p in passes for _, s in p["probes"]] + [host for host, _ in setups]
    measured = {"verdicts_per_s": verdicts / sum(map(statistics.median, raw.values())),
                "setup_s": statistics.median(s for _, s in setups),
                "host_slowdown": statistics.median(probes) / REF_S}
    return {"metrics": metrics, "measured": measured, "passes": passes,
            "setups": setups,
            "attempted": sum(len(p["entries"]) for p in passes),
            "failed": sum(p["failed"] for p in passes)}


def _measure_traced(a: argparse.Namespace, wl, digests: dict[str, str],
                    failures: list) -> dict:
    # the first chunk untraced, then the same chunk traced
    _, plain = _pass(a, digests, failures)
    spans = OUT / f"spans-{a.workload}-seed{a.seed}.tsv.gz"
    _, traced = _pass(a, digests, failures, "--trace", str(spans),
                      "--untraced-s",
                      str(sum(scaled_times(plain["times"], plain["probes"]))))
    passes = [plain, traced]
    rows, cli_failed, cli_s, cli_rss = _cli_parity(
        wl, a.limit, digests, failures, f"{a.workload}-seed{a.seed}")
    metrics = dict(traced["layers"], **{"cli.verify_s": cli_s, "cli.peak_rss_mb": cli_rss})
    return {"metrics": metrics, "passes": passes,
            "attempted": sum(len(p["entries"]) for p in passes) + rows,
            "failed": sum(p["failed"] for p in passes) + cli_failed}


def _units(trace: int) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="qcarlitz benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--limit", type=int, default=0,
                    help="run only this many inputs, evenly strided (smoke test)")
    ap.add_argument("--fault", default=None,
                    help="inject a named defect in the child (smoke test)")
    a = ap.parse_args(argv)
    if not (SRC / "qcarlitz" / "__init__.py").is_file():
        print(f"error: no qcarlitz sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    with open(HERE / "digests.json") as fh:
        digests = json.load(fh)[a.workload]
    OUT.mkdir(exist_ok=True)
    failures: list = []
    try:
        wl = workloads.WORKLOADS[a.workload](a.seed)
        if a.trace:
            res = _measure_traced(a, wl, digests, failures)
        else:
            res = _measure(a, wl, digests, failures)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sizes = res["passes"][0]["sizes"]
    stamp = _stamp(a, sizes)
    correct = res["failed"] == 0
    units = _units(a.trace)
    metrics = {name: {"value": res["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{a.workload:<14} {name:<40} {m['value']:>16.6g} {m['unit']}")
    for name, value in (res.get("measured") or {}).items():
        print(f"{a.workload:<14} {'measured.' + name:<40} {value:>16.6g}")
    print(f"{a.workload:<14} {'failed_share':<40} "
          f"{res['failed'] / res['attempted']:>16.6g} ratio "
          f"({res['failed']}/{res['attempted']})")
    print("stamp " + json.dumps(stamp, sort_keys=True))
    for f in failures[:5]:
        print("failure " + json.dumps(f, sort_keys=True))
    record = {"stamp": stamp, "correct": correct, "attempted": res["attempted"],
              "failed": res["failed"], "failures": failures[:50],
              "metrics": metrics,
              "passes": [{k: v for k, v in p.items() if k != "entries"}
                         for p in res["passes"]],
              "setups": res.get("setups"), "measured": res.get("measured")}
    with open(OUT / f"result-{a.workload}-seed{a.seed}-trace{a.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
