"""Record the canonical-value digest of every input any seed can draw.

Writes perfbench/digests.json: for each workload, a map from the report
key (identity plus params, as in ``qcarlitz verify --format json``) to the
hash of its rendered per-sigma values.  The identity sweeps cover their
whole grids, so every seed's sample is checked, not only the seeds tried
when the file was made.  Run it only when canonical forms change on
purpose:

    python3 perfbench/record_digests.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as W  # noqa: E402  (needs the path above)

DIGESTS = HERE / "digests.json"


def _all_tasks(name: str):
    if name in ("thm1-sweep", "cross34-sweep"):
        wl = W.WORKLOADS[name](W.DEFAULT_SEED)
        return wl, wl.grid
    if name == "carlitz-table":
        wl = W.CarlitzTable(W.DEFAULT_SEED)
        return wl, sorted(wl.tasks, key=lambda t: (t[1], t[0]))
    wl = W.PadicLevels(W.DEFAULT_SEED)
    tasks = []
    for q0 in W.PADIC_A["q0"]:
        tasks += W.level_a_tasks(W.level_a(q0))
    for q0 in W.PADIC_B["q0"]:
        tasks += W.level_b_tasks(W.level_b(q0))
    return wl, tasks


def main() -> int:
    out: dict[str, dict[str, str]] = {}
    for name in W.WORKLOADS:
        wl, tasks = _all_tasks(name)
        out[name] = {}
        for task in tasks:
            k, verdict, dg = W.report_entry(wl.run(task))
            if not verdict:
                print(f"false verdict, not recorded: {k}", file=sys.stderr)
                return 1
            out[name][k] = dg
        print(f"{name}: {len(tasks)} digests", file=sys.stderr)
    with open(DIGESTS, "w") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
