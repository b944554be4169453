"""Spans and counts recorded around meanlab's module attributes.

The traced run replaces functions on meanlab's modules with wrappers that
record a span per call (name, start, end, parent span, thread, op) plus a
few facts about the call, such as how many points a kernel evaluated.  The
program itself is not changed: every wrapper calls the original and returns
its result untouched, and ``uninstall`` puts the originals back.

Spans stay in memory until ``write`` dumps them as JSON lines.  A span's self
time is its duration minus the time its same-thread children cover; a
child's cover includes the wrapper's own bookkeeping after the call, so that
instrumentation is not charged to the parent's self time.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

perf = time.perf_counter

KERNEL_TAGS = ("A", "G", "H", "L", "I", "P", "X", "Y", "Mp", "Hp")
# kinds whose kernel (or relative kernel) has a series branch
_SERIES_KERNELS = {"means.L", "means.P", "means.X", "means.Y"}
_SERIES_REL = {"L", "I", "P", "X", "Y"}
_SERIES_FUNCS = (
    "xcotx_minus_one",
    "xoversin_minus_one",
    "ycothy_minus_one",
    "tanh_over_y_minus_one",
    "sinh_over_y",
)


#: Every per-layer metric of a traced run, with its unit.  Busy times and
#: counts are per op of the workload; ns_per_point and us_per_call are per
#: kernel point and kernel call.
UNITS = {
    **{f"means.ns_per_point.{tag}": "ns" for tag in KERNEL_TAGS + ("rel",)},
    "means.busy_s": "s/op",
    "means.calls": "count/op",
    "means.us_per_call": "us",
    "means.failed": "count/op",
    "means.warnings_escaped": "count/op",
    "series.points_per_kernel_point": "ratio",
    "series.busy_s": "s/op",
    "expressions.parse_busy_s": "s/op",
    "expressions.self_s": "s/op",
    "expressions.distinct_kernel_ratio": "ratio",
    "chains.verify_chain_busy_s": "s/op",
    "chains.verify_chain_max_s": "s",
    "chains.link_scan_s": "s/op",
    "chains.sharpness_busy_s": "s/op",
    "chains.conjecture_busy_s": "s/op",
    "chains.parallel_efficiency": "ratio",
    "chains.bracket_predicate_evals": "count/bracket",
    "chains.bracket_self_s": "s/op",
    "chains.builtin_suite_s": "s",
    "ratios.endpoint_limit_busy_s": "s/op",
    "cli.import_s": "s",
    "cli.chain_phase_s": "s/op",
    "cli.chain_wait_s": "s/op",
    "cli.report_s": "s/op",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _fingerprint(x):
    flat = np.asarray(x).reshape(-1)
    if flat.size == 0:
        return (0,)
    return (flat.size, float(flat[0]), float(flat[flat.size // 2]), float(flat[-1]))


def _points(a, b) -> int:
    return int(np.broadcast(np.asarray(a), np.asarray(b)).size)


def _mean_failed(a, b, result, error) -> bool:
    """True if a mean raised, is non-finite, or leaves [min(a,b), max(a,b)]."""
    if error is not None:
        return True
    with np.errstate(all="ignore"):
        r = np.asarray(result, dtype=float)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return not bool(np.all(np.isfinite(r) & (r >= lo) & (r <= hi)))


class Tracer:
    def __init__(self):
        # (id, parent, name, t0, t1, cover_end, thread, op, info)
        self.spans: list[tuple] = []
        self.waits: list[float] = []  # seconds each pool task queued
        self.op = -1
        self._root = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._kernels: dict = {}

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, describe=None):
        """``fn`` recording one span per call; ``describe(args, result,
        error)`` returns the span's info, computed after the clock stops."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else tracer._root
            stack.append(sid)
            result = error = None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                t1 = perf()
                stack.pop()
                info = describe(args, result, error) if describe else None
                tracer.spans.append(
                    (sid, parent, name, t0, t1, perf(), threading.get_ident(), tracer.op, info)
                )

        return traced

    def run_op(self, index: int, fn):
        """Run one benchmark op under a root span."""
        self.op = index
        self._root = next(self._ids)
        t0 = perf()
        try:
            return fn()
        finally:
            t1 = perf()
            self.spans.append((self._root, 0, "op", t0, t1, t1, threading.get_ident(), index, None))
            self._root = 0

    # -- installing wrappers -----------------------------------------------

    def _patch(self, module, attr, replacement) -> None:
        if not hasattr(module, attr):
            return  # a renamed attribute leaves its metric at zero
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def _patch_wrapped(self, module, attr, name, describe=None) -> None:
        if hasattr(module, attr):
            self._patch(module, attr, self.wrap(name, getattr(module, attr), describe))

    def install(self, means, series, expressions, chains, ratios, cli) -> None:
        tracer = self

        def kernel_info(label):
            def describe(args, result, error):
                a, b = args[0], args[1]
                return (_points(a, b), _mean_failed(a, b, result, error),
                        (label, _fingerprint(a), _fingerprint(b)))
            return describe

        original_kernel = getattr(means, "mean_kernel", None)

        def mean_kernel(kind):
            got = tracer._kernels.get(kind)
            if got is None:
                got = tracer.wrap("means." + kind.tag, original_kernel(kind), kernel_info(kind.label()))
                tracer._kernels[kind] = got
            return got

        self._patch(means, "mean_kernel", mean_kernel)

        def rel_info(args, result, error):
            kind, a, b = args[0], args[1], args[2]
            bad = error is not None or not bool(np.all(np.isfinite(np.asarray(result, dtype=float))))
            return (_points(a, b), bad, ("rel " + kind.label(), _fingerprint(a), _fingerprint(b)), kind.tag)

        self._patch_wrapped(means, "rel_to_arithmetic", "means.rel", rel_info)

        def power_info(args, result, error):
            a, b, p = args[0], args[1], args[2]
            return (_points(a, b), _mean_failed(a, b, result, error),
                    (f"Mp[{p!r}]", _fingerprint(a), _fingerprint(b)))

        self._patch_wrapped(chains, "power_mean", "means.Mp", power_info)

        def series_info(args, result, error):
            return (int(np.size(args[0])),)

        for fname in _SERIES_FUNCS:
            self._patch_wrapped(series, fname, "series." + fname, series_info)

        # the same function is imported under several modules; wrap each binding
        for attr, name in (("parse_expr", "expressions.parse"), ("evaluate", "expressions.evaluate")):
            original = getattr(expressions, attr)
            wrapped = self.wrap(name, original)
            for module in (expressions, chains, cli):
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapped)

        for attr in ("verify_chain", "sharpness_probe", "conjecture_scan",
                     "bracket_best_exponent", "builtin_suite"):
            self._patch_wrapped(chains, attr, "chains." + attr)
        self._patch_wrapped(ratios, "endpoint_limit", "ratios.endpoint_limit")
        self._patch_wrapped(cli, "main", "cli.main")
        self._patch_wrapped(cli, "_write_out", "cli.report")
        # cli renders the report with json.dumps before writing it
        if hasattr(cli, "json"):
            self._patch(cli, "json", _JsonProxy(cli.json, self.wrap("cli.report", cli.json.dumps)))
        if hasattr(cli, "ThreadPoolExecutor"):
            self._patch(cli, "ThreadPoolExecutor", _pool_class(self))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)
        self._kernels.clear()

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        """Dump every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1, _, tid, op, info in self.spans:
                rec = {"id": sid, "parent": parent, "name": name, "start": t0, "end": t1,
                       "thread": tid, "op": op}
                if info is not None:
                    rec["points"] = info[0]
                    if len(info) > 1:
                        rec["failed"] = info[1]
                fh.write(json.dumps(rec) + "\n")

    def layer_metrics(self, ops: int, threads: int) -> dict[str, float]:
        """Per-layer figures over the traced ops; busy times and counts per op."""
        by_id = {s[0]: s for s in self.spans}
        cover = defaultdict(float)  # same-thread children's cover, per parent
        for sid, parent, name, t0, t1, end, tid, op, info in self.spans:
            p = by_id.get(parent)
            if p is not None and p[6] == tid:
                cover[parent] += end - t0

        def dur(s):
            return s[4] - s[3]

        def self_time(s):
            return dur(s) - cover[s[0]]

        named = defaultdict(list)
        for s in self.spans:
            named[s[2]].append(s)
        out: dict[str, float] = {}

        means_spans = [s for s in self.spans if s[2].startswith("means.")]
        kernel_points = defaultdict(int)
        kernel_time = defaultdict(float)
        for s in means_spans:
            key = s[2].split(".", 1)[1]
            kernel_points[key] += s[8][0]
            kernel_time[key] += dur(s)
        for tag in KERNEL_TAGS + ("rel",):
            pts = kernel_points.get(tag, 0)
            out[f"means.ns_per_point.{tag}"] = kernel_time[tag] / pts * 1e9 if pts else 0.0
        busy = sum(dur(s) for s in means_spans)
        out["means.busy_s"] = busy / ops
        out["means.calls"] = len(means_spans) / ops
        out["means.us_per_call"] = busy / len(means_spans) * 1e6 if means_spans else 0.0
        out["means.failed"] = sum(1 for s in means_spans if s[8][1]) / ops

        series_spans = [s for s in self.spans if s[2].startswith("series.")]
        under_means = sum(
            s[8][0] for s in series_spans if by_id.get(s[1], ("", "", ""))[2].startswith("means.")
        )
        branch_points = sum(
            s[8][0] for s in means_spans
            if s[2] in _SERIES_KERNELS or (s[2] == "means.rel" and s[8][3] in _SERIES_REL)
        )
        out["series.points_per_kernel_point"] = under_means / branch_points if branch_points else 0.0
        out["series.busy_s"] = sum(dur(s) for s in series_spans) / ops

        out["expressions.parse_busy_s"] = sum(dur(s) for s in named["expressions.parse"]) / ops
        out["expressions.self_s"] = sum(self_time(s) for s in named["expressions.evaluate"]) / ops
        distinct = defaultdict(set)
        for s in means_spans:
            distinct[s[7]].add(s[8][2])
        out["expressions.distinct_kernel_ratio"] = (
            sum(len(v) for v in distinct.values()) / len(means_spans) if means_spans else 0.0
        )

        verify = named["chains.verify_chain"]
        verify_busy = sum(dur(s) for s in verify)
        out["chains.verify_chain_busy_s"] = verify_busy / ops
        out["chains.verify_chain_max_s"] = max((dur(s) for s in verify), default=0.0)
        out["chains.link_scan_s"] = sum(self_time(s) for s in verify) / ops
        out["chains.sharpness_busy_s"] = sum(dur(s) for s in named["chains.sharpness_probe"]) / ops
        out["chains.conjecture_busy_s"] = sum(dur(s) for s in named["chains.conjecture_scan"]) / ops
        phases = defaultdict(lambda: [float("inf"), float("-inf")])
        for s in verify:
            ph = phases[s[7]]
            ph[0], ph[1] = min(ph[0], s[3]), max(ph[1], s[4])
        phase = sum(hi - lo for lo, hi in phases.values())
        out["chains.parallel_efficiency"] = verify_busy / (phase * threads) if phase else 0.0
        brackets = named["chains.bracket_best_exponent"]
        bracket_ids = {s[0] for s in brackets}
        evals = sum(1 for s in named["means.Mp"] if s[1] in bracket_ids)
        out["chains.bracket_predicate_evals"] = evals / len(brackets) if brackets else 0.0
        out["chains.bracket_self_s"] = sum(self_time(s) for s in brackets) / ops

        out["ratios.endpoint_limit_busy_s"] = sum(dur(s) for s in named["ratios.endpoint_limit"]) / ops
        out["cli.chain_phase_s"] = phase / ops
        out["cli.chain_wait_s"] = sum(self.waits) / ops
        out["cli.report_s"] = sum(dur(s) for s in named["cli.report"]) / ops
        return out


class _JsonProxy:
    """Stands in for the json module inside cli, timing ``dumps``."""

    def __init__(self, module, dumps):
        self._module = module
        self.dumps = dumps

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def _pool_class(tracer: Tracer):
    class TracedPool(ThreadPoolExecutor):
        """Records how long each submitted task waits before it starts."""

        def submit(self, fn, /, *args, **kwargs):
            queued = perf()

            def task(*a, **k):
                tracer.waits.append(perf() - queued)
                return fn(*a, **k)

            return super().submit(task, *args, **kwargs)

    return TracedPool
