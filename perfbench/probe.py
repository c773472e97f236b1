"""A fixed piece of pure-Python work that times the host, not the library.

On a shared host the same work can take 1.5 to 1.8 times as long from one
second to the next, and runs a minute apart differ as much.  The probe
runs between the tasks of a pass, and a task's time is scaled by the
probe's time around it, to what it would have taken with the probe at
``REF_S``.  The probe is a bytecode loop over a list of small ints: on a
shared 2-vCPU host (Python 3.11.7) the library's checks slowed in step
with it (log-log slope 1.0 to 1.07 over 2 s windows, for cross34 and thm1
checks), while big-int products and gcds barely slowed at all.  It calls
nothing of the library, so a change to the library moves the scaled
times as much as the raw ones.
"""

from __future__ import annotations

from time import perf_counter

REF_S = 0.008  # the probe's time on that host in its quiet spells
EVERY_S = 0.1  # compute time between probes

_V = list(range(300))


def probe() -> float:
    """Run the fixed work once; return its wall time in seconds."""
    t0 = perf_counter()
    s = 0
    for k in range(550):
        s += sum([x * k % 7 for x in _V])
    return perf_counter() - t0


def scaled_times(times: list[float], probes: list[list]) -> list[float]:
    """Each task's time at the probe's reference speed.

    ``probes`` holds ``[i, seconds]`` for a probe run just before task ``i``
    (``i == len(times)`` after the last task), the first before task 0; a
    task is scaled by the mean of the probes on either side of it.
    """
    out = []
    k = 0
    for i, t in enumerate(times):
        while probes[k + 1][0] <= i:
            k += 1
        out.append(t * 2 * REF_S / (probes[k][1] + probes[k + 1][1]))
    return out
