"""One pass of one workload in a fresh interpreter, so the caches start cold.

Started by run.py, never by hand.  Prints a ``ready`` line once the
library is imported and the inputs are generated (the parent times set-up
up to that line), then runs every task of one chunk in order and prints
one JSON line: compute time, the time and the (key, verdict, digest) of
each task, the times of the probes run between tasks (probe.py) and the
process's peak resident memory.  With ``--trace FILE`` it also installs
the span recorder, writes the spans to FILE and adds the per-layer
figures.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent


def _inject(fault: str) -> None:
    """Deliberate defects for the benchmark's own smoke test."""
    from qcarlitz import carlitz, identities
    from qcarlitz.polyq import ONE, Poly

    if fault == "flip-beta1":
        # the criterion-9 fault: beta_1 with its sign flipped
        orig = carlitz.beta_number

        def flipped(n, d=1):
            v = orig(n, d)
            return v * -1 if n == 1 else v

        carlitz.beta_number = identities.beta_number = flipped
    elif fault == "trivial-gcd":
        # reductions stop cancelling; verdicts compare numerators and stay true
        Poly.gcd = lambda self, other: ONE
    else:
        raise ValueError(f"unknown fault {fault!r}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--chunk", type=int, default=0)
    ap.add_argument("--limit", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", default=None, help="write spans to this file")
    ap.add_argument("--untraced-s", type=float, default=0.0,
                    help="the untraced pass's compute time at reference speed")
    ap.add_argument("--fault", default=None)
    a = ap.parse_args()

    import qcarlitz
    import workloads

    wl = workloads.WORKLOADS[a.workload](a.seed)
    tasks = wl.chunk(a.chunk)
    if a.limit and a.limit < len(tasks):
        # an even stride keeps every size class of the full list
        step = -(-len(tasks) // a.limit)
        tasks = tasks[::step]
    print(json.dumps({"ready": True, "qcarlitz": qcarlitz.__file__}), flush=True)
    if a.setup_only:
        return 0
    if a.fault:
        _inject(a.fault)
    from probe import EVERY_S, probe, scaled_times
    for _ in range(3):  # its first runs are slow
        probe()

    tracer = None
    if a.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    entries = []
    times = []
    probes = [[0, probe()]]
    since = 0.0
    for i, task in enumerate(tasks):
        if since >= EVERY_S:
            probes.append([i, probe()])
            since = 0.0
        if tracer:
            tracer.task = i
        t0 = perf_counter()
        try:
            report = wl.run(task)
            entry = None
        except Exception as exc:  # a raised check is a failed verdict, not a crash
            entry = [repr(task), False, f"raised {type(exc).__name__}: {exc}"]
        times.append(perf_counter() - t0)
        since += times[-1]
        entries.append(entry or list(workloads.report_entry(report)))
    probes.append([len(tasks), probe()])
    compute_s = sum(times)
    out = {"compute_s": compute_s, "times": times, "probes": probes,
           "entries": entries,
           "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           "sizes": wl.sizes}
    if tracer:
        tracer.uninstall()
        out["layers"] = tracer.metrics(compute_s, sum(scaled_times(times, probes)),
                                       a.untraced_s)
        tracer.dump(a.trace)
    if a.seed == workloads.DEFAULT_SEED and wl.release_sample() is not None:
        # at the default seed the workload is the release-gate sample
        out["release_match"] = wl.tasks == wl.release_sample()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    sys.exit(main())
