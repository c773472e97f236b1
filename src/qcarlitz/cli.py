"""Command line front end.

Three subcommands: `compute` prints a single canonical rational-function
value, `verify` runs a verification suite over a parameter grid and emits
a report with one verdict per grid point, `table` dumps coefficient tables.

Reports are deterministic: grids are enumerated in lexicographic order,
samples use a fixed seed, and parallel runs preserve submission order, so
output is independent of the worker count.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from .carlitz import beta_h, beta_hk, beta_number, beta_number_recurrence, beta_poly
from .identities import (CHECKS, IdentityParams, IdentityReport, _check, _pair_report,
                         grid_params, lemma2_coeff_check, sample_grid)
from .padic import (IntegrandSpec, VolkenbornJob, check_step_budget,
                    verify_eq2_qexp, verify_eq3, witt_check)
from .polyq import Poly
from .qcore import power_sum_T, q_int
from .ratfunc import RatFunc, rf_eval_rational

# the identity suites are the checks of identities.CHECKS, in its order
SUITES = ("qlaws", "carlitz-cross", "lemma2", *CHECKS, "padic")


# ---------------------------------------------------------------------------
# serialization

def _poly_coeffs(p: Poly) -> list[str]:
    return [str(c) for c in p.coefficients()]


def _rf_json(v: RatFunc) -> dict[str, list[str]]:
    return {"num": _poly_coeffs(v.num), "den": _poly_coeffs(v.den)}


def _serialize(report: IdentityReport) -> dict[str, object]:
    per_sigma: list[dict[str, object]] = []
    for label, value in zip(report.labels, report.values):
        rendered = value if isinstance(value, str) else _rf_json(value)
        per_sigma.append({"sigma": label, "value": rendered})
    out: dict[str, object] = {
        "identity": report.identity,
        "params": report.params,
        "per_sigma": per_sigma,
        "verdict": report.verdict,
    }
    if report.witness is not None:
        out["witness"] = list(report.witness)
    if report.detail is not None:
        out["detail"] = report.detail
    return out


# ---------------------------------------------------------------------------
# suites

def _suite_qlaws() -> tuple[dict[str, object], list[dict[str, object]]]:
    results = []
    for a in range(7):
        for b in range(7):
            lhs = q_int(a + b, 1)
            rhs = q_int(a, 1) + RatFunc(Poly.q_power(a)) * q_int(b, 1)
            results.append(_serialize(_pair_report(
                "qint-shift", {"a": a, "b": b}, ("lhs", "rhs"), lhs, rhs)))
    for a in range(5):
        for b in range(5):
            for c in range(5):
                lhs = q_int(a + b + c, 1)
                rhs = (q_int(a, 1) + RatFunc(Poly.q_power(a)) * q_int(b, 1)
                       + RatFunc(Poly.q_power(a + b)) * q_int(c, 1))
                results.append(_serialize(_pair_report(
                    "qint-shift3", {"a": a, "b": b, "c": c}, ("lhs", "rhs"), lhs, rhs)))
    for a in range(1, 7):
        for b in range(1, 7):
            lhs = q_int(a * b, 1)
            rhs = q_int(a, 1) * q_int(b, a)
            results.append(_serialize(_pair_report(
                "qint-product", {"a": a, "b": b}, ("lhs", "rhs"), lhs, rhs)))
    grid = {"shift": "a,b in 0..6", "shift3": "a,b,c in 0..4",
            "product": "a,b in 1..6"}
    return grid, results


def _suite_carlitz_cross(n_max: int) -> tuple[dict[str, object], list[dict[str, object]]]:
    results = []
    for d in (1, 2, 3):
        table = beta_number_recurrence(n_max, d)
        for n in range(n_max + 1):
            results.append(_serialize(_pair_report(
                "carlitz-cross", {"n": n, "d": d}, ("closed", "recurrence"),
                beta_number(n, d), table.values[n])))
    return {"n_max": n_max, "d": [1, 2, 3]}, results


def _suite_lemma2(n_max: int) -> tuple[dict[str, object], list[dict[str, object]]]:
    results = [_serialize(lemma2_coeff_check(n, d, w3))
               for n in range(n_max + 1)
               for d in (1, 2, 6)
               for w3 in (1, 2, 3)]
    return {"n_max": n_max, "d": [1, 2, 6], "w3": [1, 2, 3]}, results


def _identity_point(task: tuple[str, int, tuple[int, int, int],
                                tuple[int, int, int]]) -> dict[str, object]:
    suite, n, w, y = task
    return _serialize(_check(suite, IdentityParams(n, w, y)))


def _suite_identity(suite: str, n_max: int, w_max: int, y_max: int,
                    sample: int, jobs: int) -> tuple[dict[str, object], list[dict[str, object]]]:
    least_n, _, reads_y3, _ = CHECKS[suite]
    points = grid_params(range(least_n, n_max + 1), w_max, y_max, vary_y3=reads_y3)
    points = sample_grid(points, sample)
    tasks = [(suite, p.n, p.w, p.y) for p in points]
    if jobs <= 1 or len(tasks) < 4:
        results = [_identity_point(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunk = max(1, len(tasks) // (4 * jobs))
            results = list(pool.map(_identity_point, tasks, chunksize=chunk))
    grid = {"n_max": n_max, "w_max": w_max, "y_max": y_max,
            "sample": sample, "points": len(tasks)}
    return grid, results


def _suite_padic(p: int, q0: Fraction, N: int, K: int
                 ) -> tuple[dict[str, object], list[dict[str, object]]]:
    job = VolkenbornJob(p, q0, N, K, IntegrandSpec(0, 0))
    if K > 2 * N:
        # the k = 2 rows come last; refuse their double sum before any row runs
        check_step_budget(p, 2 * N)
    results = []
    for n in range(4):
        # k=1, h=1, x=0 degenerates to the moment integral of [x]^n, so
        # this row bridges the summation engine to beta_number at q0
        results.append(_serialize(witt_check(n, 1, 1, 0, job)))
    for m in range(3):
        fam = VolkenbornJob(p, q0, N, K, IntegrandSpec(0, m))
        for shift in (1, 2, 3):
            results.append(_serialize(verify_eq3(fam, shift)))
    if q0 != 1:
        # q0 = 1 is the classical integral, where log q = 0 leaves no q^x row
        results.append(_serialize(verify_eq2_qexp(job)))
    for n, h, x in ((1, 2, 0), (2, 2, 1), (3, 3, 2)):
        results.append(_serialize(witt_check(n, h, 1, x, job)))
    if K > 2 * N:
        for n, h, x in ((0, 2, 0), (1, 2, 0), (2, 2, 1)):
            results.append(_serialize(witt_check(n, h, 2, x, job)))
    return {"p": p, "q0": str(q0), "N": N, "K": K}, results


# per-suite grid defaults, applied when the flag is absent
_SUITE_DEFAULTS = {
    "carlitz-cross": {"n_max": 8},
    "lemma2": {"n_max": 6},
    "thm1": {"n_max": 3, "w_max": 2, "y_max": 1, "sample": 500},
    "thm3": {"n_max": 2, "w_max": 2, "y_max": 1, "sample": 300},
    "thm4": {"n_max": 2, "w_max": 2, "y_max": 1, "sample": 300},
    "cross34": {"n_max": 2, "w_max": 2, "y_max": 1, "sample": 300},
}


def _run_suite(suite: str, a: argparse.Namespace, jobs: int
               ) -> tuple[dict[str, object], list[dict[str, object]]]:
    def bound(name: str) -> int:
        flag = getattr(a, name)
        return flag if flag is not None else _SUITE_DEFAULTS[suite][name]

    if suite == "qlaws":
        return _suite_qlaws()
    if suite == "carlitz-cross":
        return _suite_carlitz_cross(bound("n_max"))
    if suite == "lemma2":
        return _suite_lemma2(bound("n_max"))
    if suite == "padic":
        return _suite_padic(a.p, a.q0, a.N, a.K)
    return _suite_identity(suite, bound("n_max"), bound("w_max"),
                           bound("y_max"), bound("sample"), jobs)


# ---------------------------------------------------------------------------
# output formatting

def _dump_json(obj: object) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _params_text(params: dict[str, object]) -> str:
    return " ".join(f"{k}={v}" for k, v in params.items())


def _verify_text(report: dict[str, object]) -> str:
    lines = []
    for r in report["results"]:
        mark = "ok  " if r["verdict"] else "FAIL"
        line = f"{mark} {r['identity']:<13} {_params_text(r['params'])}"
        if "detail" in r:
            d = r["detail"]
            line += (f"  [certified={d['output_precision']}"
                     f" window={d['compare_precision']}"
                     f" seen={d['discrepancy_valuation']}]")
        if not r["verdict"] and "witness" in r:
            line += f"  witness {r['witness'][0]} != {r['witness'][1]}"
        lines.append(line)
    s = report["summary"]
    lines.append(f"total {s['total']}  passed {s['passed']}  failed {s['failed']}")
    return "\n".join(lines) + "\n"


def _verify_csv(report: dict[str, object]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["identity", "params", "verdict", "witness"])
    for r in report["results"]:
        witness = "|".join(r["witness"]) if "witness" in r else ""
        w.writerow([r["identity"], json.dumps(r["params"], sort_keys=True),
                    str(r["verdict"]).lower(), witness])
    return buf.getvalue()


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    with open(out_path, "w") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# commands

_COMPUTE_REQUIRED = {
    "beta": ("n",),
    "beta_poly": ("n",),
    "beta_h": ("n", "h"),
    "beta_hk": ("n", "h", "k"),
    "T": ("n", "m", "w"),
    "qint": ("x",),
}


def _compute_value(a: argparse.Namespace) -> RatFunc:
    for flag in _COMPUTE_REQUIRED[a.target]:
        if getattr(a, flag) is None:
            raise ValueError(f"target {a.target} needs --{flag}")
    d = a.d
    x = a.x if a.x is not None else 0
    if a.target == "beta":
        return beta_number(a.n, d)
    if a.target == "beta_poly":
        return beta_poly(a.n, d, x)
    if a.target == "beta_h":
        return beta_h(a.n, a.h, d, x)
    if a.target == "beta_hk":
        return beta_hk(a.n, a.h, a.k, d, x)
    if a.target == "T":
        return power_sum_T(a.n, a.m, a.w, d)
    return q_int(x, d)


def cmd_compute(a: argparse.Namespace) -> int:
    value = _compute_value(a)
    if a.format == "json":
        _emit(_dump_json({"target": a.target, "text": str(value),
                          "value": _rf_json(value)}), a.out)
    elif a.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["target", "text", "num", "den"])
        w.writerow([a.target, str(value),
                    json.dumps(_poly_coeffs(value.num)),
                    json.dumps(_poly_coeffs(value.den))])
        _emit(buf.getvalue(), a.out)
    else:
        _emit(f"{value}\nnum: {_poly_coeffs(value.num)}\n"
              f"den: {_poly_coeffs(value.den)}\n", a.out)
    return 0


def cmd_verify(a: argparse.Namespace) -> int:
    for name, least in (("n_max", 0), ("y_max", 0), ("w_max", 1), ("sample", 1)):
        flag = getattr(a, name)
        if flag is not None and flag < least:
            rule = "positive" if least else "non-negative"
            raise ValueError(f"--{name.replace('_', '-')} must be {rule}")
    jobs = _resolve_jobs(a.jobs)
    suites = SUITES if a.suite == "all" else (a.suite,)
    grid: dict[str, object] = {}
    results: list[dict[str, object]] = []
    for suite in suites:
        sgrid, sresults = _run_suite(suite, a, jobs)
        grid[suite] = sgrid
        results.extend(sresults)
    passed = sum(1 for r in results if r["verdict"])
    report = {
        "suite": a.suite,
        "grid": grid if a.suite == "all" else grid[a.suite],
        "results": results,
        "summary": {"total": len(results), "passed": passed,
                    "failed": len(results) - passed},
    }
    if a.format == "json":
        _emit(_dump_json(report), a.out)
    elif a.format == "csv":
        _emit(_verify_csv(report), a.out)
    else:
        _emit(_verify_text(report), a.out)
    if passed < len(results):
        first = next(r for r in results if not r["verdict"])
        counterexample = {"identity": first["identity"], "params": first["params"]}
        if "witness" in first:
            counterexample["witness"] = first["witness"]
        print("counterexample: " + json.dumps(counterexample, sort_keys=True),
              file=sys.stderr)
        return 1
    return 0


def cmd_table(a: argparse.Namespace) -> int:
    if a.n_max < 0:
        raise ValueError("--n-max must be non-negative")
    if a.d < 1:
        raise ValueError("--d must be positive")
    key, value_at = ("n", beta_number) if a.target == "beta" else ("x", q_int)
    header = [key, "num", "den", "q1_limit"]
    rows = []
    for i in range(a.n_max + 1):
        v = value_at(i, a.d)
        rows.append({key: i, "num": _poly_coeffs(v.num), "den": _poly_coeffs(v.den),
                     "q1_limit": str(rf_eval_rational(v, 1))})
    if a.format == "json":
        _emit(_dump_json({"target": a.target, "d": a.d, "rows": rows}), a.out)
    elif a.format == "text":
        lines = ["  ".join(header)]
        lines += ["  ".join(str(row[h]) for h in header) for row in rows]
        _emit("\n".join(lines) + "\n", a.out)
    else:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(header)
        for row in rows:
            w.writerow([row[header[0]], json.dumps(row["num"]),
                        json.dumps(row["den"]), row["q1_limit"]])
        _emit(buf.getvalue(), a.out)
    return 0


def _resolve_jobs(flag: int | None) -> int:
    if flag is not None:
        if flag < 1:
            raise ValueError("--jobs must be positive")
        return flag
    env = os.environ.get("QCARLITZ_JOBS")
    if env is None:
        return 1
    try:
        jobs = int(env)
    except ValueError:
        raise ValueError(f"QCARLITZ_JOBS must be an integer, got {env!r}")
    if jobs < 1:
        raise ValueError("QCARLITZ_JOBS must be positive")
    return jobs


def _rational(text: str) -> Fraction:
    """argparse type of --q0: a rational number.  A zero denominator is a
    usage error (exit 2), as a malformed number is, not a traceback."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcarlitz",
        description="Exact q-Bernoulli computations and identity verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="print one value as a canonical "
                        "rational function in q")
    pc.add_argument("target", choices=sorted(_COMPUTE_REQUIRED))
    pc.add_argument("--n", type=int, default=None, help="degree")
    pc.add_argument("--d", type=int, default=1, help="base exponent: q^d")
    pc.add_argument("--h", type=int, default=None, help="order / twist")
    pc.add_argument("--k", type=int, default=None, help="fold count")
    pc.add_argument("--m", type=int, default=None, help="bracket power in T")
    pc.add_argument("--w", type=int, default=None, help="upper summation index in T")
    pc.add_argument("--x", type=int, default=None, help="integer argument")
    pc.add_argument("--format", choices=("json", "csv", "text"), default="text")
    pc.add_argument("--out", default=None, help="write to file instead of stdout")

    pv = sub.add_parser("verify", help="run a verification suite and report "
                        "one verdict per grid point")
    pv.add_argument("--suite", choices=SUITES + ("all",), default="all")
    pv.add_argument("--n-max", type=int, default=None, dest="n_max")
    pv.add_argument("--w-max", type=int, default=None, dest="w_max")
    pv.add_argument("--y-max", type=int, default=None, dest="y_max")
    pv.add_argument("--sample", type=int, default=None,
                    help="deterministic cap on grid points")
    pv.add_argument("--p", type=int, default=3, help="odd prime")
    pv.add_argument("--q0", type=_rational, default=Fraction(4),
                    help="rational q value, 1 mod p")
    pv.add_argument("--N", type=int, default=3, help="summation level p^N")
    pv.add_argument("--K", type=int, default=10, help="working precision digits")
    pv.add_argument("--jobs", type=int, default=None,
                    help="worker processes (default: QCARLITZ_JOBS or 1)")
    pv.add_argument("--format", choices=("json", "csv", "text"), default="text")
    pv.add_argument("--out", default=None, help="write report here instead of stdout")

    pt = sub.add_parser("table", help="dump a coefficient table")
    pt.add_argument("target", choices=("beta", "qint"))
    pt.add_argument("--n-max", type=int, default=3, dest="n_max",
                    help="last row index")
    pt.add_argument("--d", type=int, default=1)
    pt.add_argument("--format", choices=("json", "csv", "text"), default="csv")
    pt.add_argument("--out", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    a = build_parser().parse_args(argv)
    handler = {"compute": cmd_compute, "verify": cmd_verify, "table": cmd_table}
    try:
        return handler[a.command](a)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
