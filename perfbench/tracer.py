"""Spans around the library's public functions, installed from outside.

``Tracer.install`` replaces each traced function with a wrapper that
records one span per call: name, parent span, start, end, the task (one
verdict) it belongs to, and a per-call detail (operand sizes, steps).
Every binding a caller can look up is replaced, not only the defining
one: ``identities``, ``carlitz`` and ``padic`` import functions by value,
and ``Poly.__rmul__``/``__radd__`` alias ``__mul__``/``__add__``.  Spans
stay in memory until ``dump``.

Subtraction and division need no wrapper of their own: ``Poly`` and
``RatFunc`` implement ``a - b`` as ``a + (-b)`` and ``a / b`` as
``a * b.inverse()``, which land in the wrapped ``__add__``/``__mul__``.
"""

from __future__ import annotations

import gzip
import sys
from time import perf_counter

from qcarlitz import carlitz, identities, padic, qcore
from qcarlitz.polyq import Poly
from qcarlitz.ratfunc import RatFunc

_POLY_LAYER = ("polyq.mul", "polyq.add", "polyq.gcd", "polyq.divexact")


def _len(x) -> int:
    return len(x._c) if isinstance(x, Poly) else int(bool(x))


def _mul_detail(args, out):
    a, b = _len(args[0]), _len(args[1])
    return (a * b, max(a, b))


def _gcd_detail(args, out):
    return (max(args[0].degree, args[1].degree), out.degree > 0)


def _reduce_detail(args, out):
    den = args[2] if len(args) > 2 else 1
    before = den.degree if isinstance(den, Poly) else 0
    return (before, args[0].den.degree)


def _percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, -(-pct * len(ordered) // 100) - 1)]


def _steps_single(args, out):
    job = args[0]
    return job.p ** job.N


def _steps_double(args, out):
    job = args[4]
    return job.p ** (2 * job.N)


class Tracer:
    """Collects spans for one traced pass of a workload."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, name, t0, t1, task, detail)
        self.stack: list[int] = []
        self.task = -1
        self._next = 0
        self._undo: list[tuple[object, str, object]] = []
        self._caches: dict[str, object] = {}
        self._cache0: dict[str, tuple[int, int]] = {}

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn, detail=None, skip=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kw):
            if skip is not None and skip(args, kw):
                return fn(*args, **kw)
            sid = self._next
            self._next = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kw)
            finally:
                t1 = perf_counter()
                stack.pop()
            spans.append((sid, parent, name, t0, t1, self.task,
                          detail(args, out) if detail else None))
            return out

        traced.__wrapped__ = fn
        return traced

    def _patch_method(self, cls, attr: str, name: str, **kw) -> None:
        orig = cls.__dict__[attr]
        wrapper = self._wrap(name, orig, **kw)
        for alias, value in list(cls.__dict__.items()):
            if value is orig:
                self._undo.append((cls, alias, value))
                setattr(cls, alias, wrapper)

    def _patch_function(self, module, attr: str, name: str, **kw) -> None:
        orig = getattr(module, attr)
        if hasattr(orig, "cache_info"):
            self._caches[name] = orig
            info = orig.cache_info()
            self._cache0[name] = (info.hits, info.misses)
        self._replace(orig, self._wrap(name, orig, **kw))

    def _replace(self, orig, wrapper) -> None:
        # every module of the package that bound orig, by value or not
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("qcarlitz"):
                continue
            for alias, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, alias, value))
                    setattr(mod, alias, wrapper)

    def install(self) -> None:
        self._patch_method(Poly, "__mul__", "polyq.mul", detail=_mul_detail)
        self._patch_method(Poly, "__add__", "polyq.add")
        self._patch_method(Poly, "gcd", "polyq.gcd", detail=_gcd_detail)
        self._patch_method(Poly, "divexact", "polyq.divexact")
        # RatFunc._raw builds already-reduced values: no reduction, no span
        self._patch_method(RatFunc, "__init__", "ratfunc.reduce", detail=_reduce_detail,
                           skip=lambda args, kw: kw.get("_reduced", False))
        self._patch_method(RatFunc, "__add__", "ratfunc.arith")
        self._patch_method(RatFunc, "__mul__", "ratfunc.arith")
        self._patch_function(qcore, "power_sum_T", "qcore.power_sum_T")
        self._patch_function(qcore, "q_int_poly", "qcore.q_int_poly")
        self._patch_function(carlitz, "beta_number", "carlitz.beta_number")
        self._patch_function(carlitz, "beta_number_recurrence",
                             "carlitz.beta_number_recurrence")
        self._patch_function(carlitz, "beta_poly", "carlitz.beta_poly")
        self._patch_function(carlitz, "beta_hk", "carlitz.beta_hk")
        for check in ("thm1_check", "thm3_check", "thm4_check", "cross34_check",
                      "lemma2_coeff_check"):
            self._patch_function(identities, check, "identities.check")
        self._patch_function(padic, "volkenborn_scaled", "padic.volkenborn_scaled",
                             detail=_steps_single)
        self._patch_function(padic, "rf_eval_rational", "ratfunc.eval")
        self._patch_function(padic, "verify_eq3", "padic.eq3")
        # k = 2 runs the inline p^{2N} double sum; k = 1 one volkenborn_scaled
        witt = padic.witt_check
        k1 = self._wrap("padic.witt", witt)
        k2 = self._wrap("padic.witt_k2", witt, detail=_steps_double)

        def witt_check(n, h, k, x, job):
            return (k2 if k == 2 else k1)(n, h, k, x, job)

        self._replace(witt, witt_check)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- output -----------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every span as a tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            fh.write("id\tparent\tname\tstart\tend\ttask\tdetail\n")
            for sid, parent, name, t0, t1, task, detail in self.spans:
                fh.write(f"{sid}\t{parent}\t{name}\t{t0:.9f}\t{t1:.9f}\t{task}\t"
                         f"{'' if detail is None else detail}\n")

    def metrics(self, compute_s: float, scaled_s: float,
                untraced_scaled_s: float) -> dict[str, float]:
        """Per-layer figures from the recorded spans.

        ``scaled_s`` and ``untraced_scaled_s`` are the compute times of this
        pass and of the same chunk run untraced, both at the probe's
        reference speed (probe.py), so their ratio is the tracing overhead
        and not the host's change of speed between the two passes.
        """
        spans = self.spans
        child_time: dict[int, float] = {}
        for sid, parent, name, t0, t1, task, detail in spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
        calls: dict[str, int] = {}
        incl: dict[str, float] = {}
        self_s: dict[str, float] = {}
        # incl counts only outermost spans of a name, so recursion through
        # a - b = a + (-b) or nested RatFunc arithmetic is not counted twice
        by_id = {s[0]: s for s in spans}
        top_level = 0.0
        reduce_in_check = 0.0
        check_times: list[float] = []
        mul_products = mul_max = 0
        gcd_max = gcd_nontrivial = 0
        reduce_cancel = 0
        steps: dict[str, int] = {}
        for sid, parent, name, t0, t1, task, detail in spans:
            dur = t1 - t0
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur - child_time.get(sid, 0.0)
            anc = parent
            outer_same = True
            in_check = False
            while anc >= 0:
                a = by_id[anc]
                if a[2] == name:
                    outer_same = False
                if a[2] == "identities.check":
                    in_check = True
                anc = a[1]
            if outer_same:
                incl[name] = incl.get(name, 0.0) + dur
            if parent < 0:
                top_level += dur
            if name == "identities.check":
                check_times.append(dur)
            elif name == "ratfunc.reduce":
                if in_check and outer_same:
                    reduce_in_check += dur
                if detail[1] < detail[0]:
                    reduce_cancel += 1
            elif name == "polyq.mul":
                mul_products += detail[0]
                mul_max = max(mul_max, detail[1])
            elif name == "polyq.gcd":
                gcd_max = max(gcd_max, detail[0])
                gcd_nontrivial += detail[1]
            elif name in ("padic.volkenborn_scaled", "padic.witt_k2"):
                steps[name] = steps.get(name, 0) + detail

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out: dict[str, float] = {}
        for name in _POLY_LAYER:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out["polyq.mul.coeff_products"] = mul_products
        out["polyq.mul.max_len"] = mul_max
        out["polyq.gcd.max_degree"] = gcd_max
        out["polyq.gcd.nontrivial_ratio"] = ratio(gcd_nontrivial, calls.get("polyq.gcd", 0))
        for name in ("ratfunc.reduce", "ratfunc.arith"):
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.incl_s"] = incl.get(name, 0.0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out["ratfunc.reduce.cancel_ratio"] = ratio(reduce_cancel,
                                                   calls.get("ratfunc.reduce", 0))
        for name in ("qcore.power_sum_T", "qcore.q_int_poly"):
            info = self._caches[name].cache_info()
            h0, m0 = self._cache0[name]
            hits, misses = info.hits - h0, info.misses - m0
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.hit_ratio"] = ratio(hits, hits + misses)
        out["qcore.power_sum_T.incl_s"] = incl.get("qcore.power_sum_T", 0.0)
        for name in ("carlitz.beta_number", "carlitz.beta_hk"):
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.incl_s"] = incl.get(name, 0.0)
        out["carlitz.beta_number_recurrence.incl_s"] = incl.get(
            "carlitz.beta_number_recurrence", 0.0)
        check_s = incl.get("identities.check", 0.0)
        out["identities.check.calls"] = calls.get("identities.check", 0)
        out["identities.check.incl_s"] = check_s
        out["identities.check.p50_ms"] = _percentile(check_times, 50) * 1e3
        out["identities.check.p90_ms"] = _percentile(check_times, 90) * 1e3
        out["identities.assemble_s"] = check_s - reduce_in_check
        out["identities.reduce_s"] = reduce_in_check
        for name in ("padic.volkenborn_scaled", "padic.witt_k2"):
            t = incl.get(name, 0.0)
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.incl_s"] = t
            out[f"{name}.steps"] = steps.get(name, 0)
            out[f"{name}.steps_per_s"] = ratio(steps.get(name, 0), t)
        out["trace.overhead_ratio"] = ratio(scaled_s, untraced_scaled_s)
        out["trace.unattributed_s"] = compute_s - top_level
        return out
