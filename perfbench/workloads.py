"""The benchmark's four workloads: seeded inputs, one verdict per task.

A workload turns a seed into a list of tasks, dealt into ``passes``
chunks; each pass runs in its own process.  Running a task calls the
library's public API through its module attribute (so a traced run sees
the patched binding) and returns the library's report.  ``report_entry``
renders a report the way ``qcarlitz verify --format json`` renders its
``per_sigma`` list, so the benchmark and the CLI hash the same bytes.

Why these four (each stresses a different layer):

* thm1-sweep: reduction-bound; one large gcd per report against the
  master denominator.  Moves with any change to gcd or canonical form.
* cross34-sweep: assembly-bound; Poly products dominate and points share
  cached power sums and shifted beta numerators.
* carlitz-table: many small gcds and exact divisions inside RatFunc
  arithmetic, and the only workload that runs the carlitz module itself.
* padic-levels: the p^N single sums and p^{2N} double sums; polyq and
  ratfunc stay nearly idle, so algebra changes should read "no change".
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from random import Random

from qcarlitz import carlitz, identities, padic

DEFAULT_SEED = 20140919  # the library's own sampling seed (release gate)

CARLITZ_N_MAX = 20
CARLITZ_DS = (1, 2, 3)

# padic-levels: level A runs only p^N single sums (K <= 2N keeps the
# double sum out); level B runs the p^{2N} double sum of witt_check k = 2.
PADIC_A = {"p": 3, "N": 11, "K": 16, "q0": (4, 7, 10, 13, 16, 19, 22, 25)}
PADIC_B = {"p": 5, "N": 4, "K": 10, "q0": (6, 11, 16, 21, 26, 31)}
PADIC_B_POINTS = ((0, 2, 0), (1, 2, 0), (2, 2, 1), (3, 2, 0),
                  (1, 3, 1), (2, 3, 2), (3, 3, 0), (0, 3, 1))


def _rf_rendered(v) -> dict[str, list[str]]:
    return {"num": [str(c) for c in v.num.coefficients()],
            "den": [str(c) for c in v.den.coefficients()]}


def digest(identity: str, per_sigma: list[dict[str, object]]) -> str:
    """Hash of one report's canonical values, in the CLI's JSON shape."""
    blob = json.dumps([identity, per_sigma], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def key(identity: str, params: dict[str, object]) -> str:
    return identity + " " + json.dumps(params, sort_keys=True, separators=(",", ":"))


def report_entry(report) -> tuple[str, bool, str]:
    """(key, verdict, digest) of a library report, as the CLI would render it."""
    per_sigma = []
    for label, value in zip(report.labels, report.values):
        rendered = value if isinstance(value, str) else _rf_rendered(value)
        per_sigma.append({"sigma": label, "value": rendered})
    return (key(report.identity, report.params), bool(report.verdict),
            digest(report.identity, per_sigma))


def cli_entry(row: dict[str, object]) -> tuple[str, bool, str]:
    """(key, verdict, digest) of one row of ``qcarlitz verify --format json``."""
    return (key(row["identity"], row["params"]), bool(row["verdict"]),
            digest(row["identity"], row["per_sigma"]))


# ---------------------------------------------------------------------------
# identity sweeps


def _size_class(p) -> tuple:
    # n and the multisets of weights and shifts fix the master denominator
    # and the degree of every factor; the slot order is what a seed varies
    return p.n, tuple(sorted(p.w)), tuple(sorted(p.y))


def _sample(grid: list, release: list, seed: int) -> list:
    """The release-gate sample at the default seed.  Any other seed redraws
    each release point within its size class (same n, same multisets of w
    and y), so every seed's sample costs about the same and keeps the mix
    of small and large points."""
    if seed == DEFAULT_SEED:
        return list(release)
    classes: dict[tuple, list] = {}
    for p in grid:
        classes.setdefault(_size_class(p), []).append(p)
    want: dict[tuple, int] = {}
    for p in release:
        want[_size_class(p)] = want.get(_size_class(p), 0) + 1
    rng = Random(seed)
    picked = []
    for c in sorted(want):
        picked += rng.sample(classes[c], want[c])
    return sorted(picked)


class _IdentitySweep:
    """A seeded sample of an identity grid, in grid order."""

    def __init__(self, seed: int):
        self.grid = self.make_grid()
        self.tasks = _sample(self.grid, self.release_sample(), seed)
        self.sizes = {"grid": len(self.grid), "points": len(self.tasks),
                      "n_max": self.n_max, "w_max": 3, "y_max": 2}

    def chunk(self, j: int) -> list:
        # dealt out in size-class order, so every pass gets points of every
        # size; the few heaviest points still make some passes slower
        ordered = sorted(self.tasks, key=lambda p: (_size_class(p), p))
        return ordered[j::self.passes]

    def release_sample(self) -> list:
        return identities.sample_grid(self.grid, self.sample)

    def cli_runs(self, limit: int = 0) -> list[list[str]]:
        """``qcarlitz verify`` on the release-gate sample, whatever the seed."""
        return [["--suite", self.suite, "--n-max", str(self.n_max), "--w-max", "3",
                 "--y-max", "2", "--sample", str(limit or self.sample)]]


class Thm1Sweep(_IdentitySweep):
    name, suite, n_max, sample = "thm1-sweep", "thm1", 4, 500  # criterion 6
    passes = 10

    @staticmethod
    def make_grid() -> list:
        return identities.grid_params(range(5), 3, 2)

    def run(self, p):
        return identities.thm1_check(p)


class Cross34Sweep(_IdentitySweep):
    name, suite, n_max, sample = "cross34-sweep", "cross34", 3, 300  # criterion 7
    passes = 3  # 100 points a pass keeps the cache sharing between points

    @staticmethod
    def make_grid() -> list:
        return identities.grid_params((1, 2, 3), 3, 2, vary_y3=False)

    def run(self, p):
        return identities.cross34_check(p)


# ---------------------------------------------------------------------------
# Carlitz table: closed form against the recurrence


class _PairReport:
    """The shape of the CLI's carlitz-cross row."""

    identity = "carlitz-cross"
    labels = ("closed", "recurrence")

    def __init__(self, n: int, d: int, closed, recurrence):
        self.params = {"n": n, "d": d}
        self.values = (closed, recurrence)
        self.verdict = closed == recurrence


class _OnePass:
    passes = 1

    def chunk(self, j: int) -> list:
        return self.tasks

    def release_sample(self) -> None:
        return None


class CarlitzTable(_OnePass):
    name = "carlitz-table"

    def __init__(self, seed: int):
        # the seed only permutes the evaluation order; the work is fixed
        rng = Random(seed)
        ds = list(CARLITZ_DS)
        rng.shuffle(ds)
        self.tasks = []
        for d in ds:
            ns = list(range(CARLITZ_N_MAX + 1))
            rng.shuffle(ns)
            self.tasks += [(n, d) for n in ns]
        self.tables: dict[int, tuple] = {}
        self.sizes = {"n_max": CARLITZ_N_MAX, "d": list(CARLITZ_DS),
                      "points": len(self.tasks)}

    def cli_runs(self, limit: int = 0) -> list[list[str]]:
        n_max = min(limit, CARLITZ_N_MAX) if limit else CARLITZ_N_MAX
        return [["--suite", "carlitz-cross", "--n-max", str(n_max)]]

    def run(self, task):
        n, d = task
        if d not in self.tables:
            self.tables[d] = carlitz.beta_number_recurrence(CARLITZ_N_MAX, d).values
        return _PairReport(n, d, carlitz.beta_number(n, d), self.tables[d][n])


# ---------------------------------------------------------------------------
# p-adic levels


def level_a(q0: Fraction) -> tuple:
    return (PADIC_A["p"], Fraction(q0), PADIC_A["N"], PADIC_A["K"])


def level_b(q0: Fraction) -> tuple:
    return (PADIC_B["p"], Fraction(q0), PADIC_B["N"], PADIC_B["K"])


def level_a_tasks(level: tuple) -> list:
    return ([("witt", level, (n, 1, 1, 0)) for n in range(4)]
            + [("eq3", level, (m, shift)) for m in range(3) for shift in (1, 2, 3)])


def level_b_tasks(level: tuple) -> list:
    return [("witt", level, (n, h, 2, x)) for n, h, x in PADIC_B_POINTS]


class PadicLevels(_OnePass):
    name = "padic-levels"

    def __init__(self, seed: int):
        # the seed picks q0 = 1 (mod p) at each level; the work per call is
        # p^N (or p^{2N}) modular steps whatever q0 is
        rng = Random(seed)
        self.q0_a = Fraction(rng.choice(PADIC_A["q0"]))
        self.q0_b = Fraction(rng.choice(PADIC_B["q0"]))
        a = level_a(self.q0_a)
        b = level_b(self.q0_b)
        self.tasks = level_a_tasks(a) + level_b_tasks(b)
        self.levels = (a, b)
        self.sizes = {"level_a": {"p": a[0], "q0": str(a[1]), "N": a[2], "K": a[3],
                                  "steps_per_sum": a[0] ** a[2]},
                      "level_b": {"p": b[0], "q0": str(b[1]), "N": b[2], "K": b[3],
                                  "steps_per_sum": b[0] ** (2 * b[2])},
                      "points": len(self.tasks)}

    def cli_runs(self, limit: int = 0) -> list[list[str]]:
        return [["--suite", "padic", "--p", str(p), "--q0", str(q0), "--N", str(N),
                 "--K", str(K)] for p, q0, N, K in self.levels]

    def run(self, task):
        kind, (p, q0, N, K), args = task
        if kind == "witt":
            job = padic.VolkenbornJob(p, q0, N, K, padic.IntegrandSpec(0, 0))
            return padic.witt_check(*args, job)
        m, shift = args
        job = padic.VolkenbornJob(p, q0, N, K, padic.IntegrandSpec(0, m))
        return padic.verify_eq3(job, shift)


WORKLOADS = {w.name: w for w in (Thm1Sweep, Cross34Sweep, CarlitzTable, PadicLevels)}
