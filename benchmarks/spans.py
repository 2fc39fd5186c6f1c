"""Span wrappers installed around the public functions of the ddp modules.

Each target function is replaced, by identity, in every ``ddp`` module that
binds it (``solve_roots`` is bound in ``ddp.lengthscale``, ``ddp.pipeline``,
``ddp.zoomout`` and the package itself), so a call is timed whichever name
the caller used.  A target that no longer exists is skipped and its metrics
stay absent.

A span is ``(name, start, end, parent, request)``: ``parent`` is the index
of the enclosing span or -1, ``request`` the id of the request being run.
Spans stay in memory until the run ends.  Counters read from a target's
arguments and result run after the span closes and are recorded as
``trace.observe`` spans, so their cost is charged to tracing, not to a layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

OBSERVE = "trace.observe"


def _count_field(c, args, result):
    d, n = result.n_dims, result.n_points
    c["normalization.pairs"] += d * n * (n - 1) // 2
    # margin_zeroed is symmetric with a False diagonal: half its cells are pairs
    c["normalization.margin_zeroed"] += int(np.count_nonzero(result.margin_zeroed)) // 2
    c["normalization.unfittable_dims"] += int(np.count_nonzero(result.unfittable))


def _count_roots(c, args, result):
    closed, refined, fallback = np.bincount(result.convergence.ravel(), minlength=3)[:3]
    c["roots.closed_form"] += int(closed)
    c["roots.refined"] += int(refined)
    c["roots.fallback"] += int(fallback)
    c["lengthscale.root_points"] += result.n_points
    c["roots.sentinel_cells"] += int(np.count_nonzero(result.sentinel))
    c["roots.cells"] += result.sentinel.size


def _count_criticals(c, args, result):
    sentinel = float(args[0].finest_points + 1)
    c["criticals.sentinel"] += sum(v == sentinel for v in result)
    c["criticals.values"] += len(result)


def _add(key, measure):
    def observe(c, args, result):
        c[key] += measure(result)
    return observe


# (layer, function, counter) for every function a span is taken around.
TARGETS = (
    ("ingest", "parse_xyzm", None),
    ("ingest", "prescale_burst", None),
    ("normalization", "build_field", _count_field),
    ("ranking", "borda_state", _add("ranking.calls", lambda r: 1)),
    ("lengthscale", "solve_roots", _count_roots),
    ("zoomout", "aggregate", None),
    ("zoomout", "frame_level_state", None),
    ("zoomout", "zoom_profile", None),
    ("zoomout", "residual_curvature", None),
    ("zoomout", "critical_chain_lengths", _count_criticals),
    ("zoomout", "gti", _add("zoomout.gti_fired", lambda r: int(r.triggered))),
    ("curvature", "update_thresholds", None),
    ("curvature", "curvature_tensor", None),
    ("curvature", "classify_frame", None),
    ("curvature", "detect_chains", _add("curvature.chains", len)),
    ("curvature", "escalate_chain_categories",
     _add("curvature.unstable_points", lambda r: int(np.count_nonzero(r >= 5)))),
    ("pipeline", "analyze_subject", None),
    ("pipeline", "analyze_dataset",
     _add("pipeline.dump_bytes", lambda r: sum(len(t) for t in r.dumps.values()))),
    ("report", "report_json", _add("report.bytes", len)),
    ("report", "roots_table_csv", _add("report.bytes", len)),
    ("report", "group_stats", None),
)

# Counters whose per-request value is itself a metric, with the function counted.
COUNT_METRICS = {
    "normalization.pairs": "build_field",
    "normalization.margin_zeroed": "build_field",
    "normalization.unfittable_dims": "build_field",
    "lengthscale.root_points": "solve_roots",
    "ranking.calls": "borda_state",
    "zoomout.gti_fired": "gti",
    "curvature.unstable_points": "escalate_chain_categories",
    "curvature.chains": "detect_chains",
    "pipeline.dump_bytes": "analyze_dataset",
    "report.bytes": "report_json",
}


class Tracer:
    """Installs wrappers on the target functions and keeps their spans and counts.

    With ``timed=False`` only the counter of each target runs and no span is
    kept; the untraced run uses this to count root convergence labels.
    """

    def __init__(self, timed: bool = True, only: tuple[str, ...] | None = None):
        self.timed = timed
        self.spans: list[tuple[str, float, float, int, object]] = []
        self.counts: Counter = Counter()
        self.request = None
        self.installed: dict[str, str] = {}   # function name -> span name
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._only = only

    def _wrap(self, span_name, fn, observe):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        if not self.timed:
            @functools.wraps(fn)
            def counting(*args, **kwargs):
                result = fn(*args, **kwargs)
                observe(counts, args, result)
                return result
            return counting

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (span_name, start, end, parent, self.request)
            if observe is not None:
                observe(counts, args, result)
                spans.append((OBSERVE, end, clock(), parent, self.request))
            return result
        return traced

    def install(self) -> None:
        """Replace every binding of each target in every loaded ddp module."""
        by_id: dict[int, tuple[object, object]] = {}
        for layer, name, observe in TARGETS:
            if self._only is not None and name not in self._only:
                continue
            try:
                fn = getattr(importlib.import_module(f"ddp.{layer}"), name, None)
            except ImportError:
                fn = None
            if fn is None or (not self.timed and observe is None):
                continue
            span_name = f"{layer}.{name}"
            by_id[id(fn)] = (fn, self._wrap(span_name, fn, observe))
            self.installed[name] = span_name
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "ddp" or name.startswith("ddp."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child[i]
        return dict(totals)

    def top_level_seconds(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def metrics(self, requests: int, busy_s: float) -> dict[str, float]:
        """Per-layer metrics, each a per-request figure or a ratio."""
        per = 1.0 / max(requests, 1)
        out: dict[str, float] = {}
        selfs = self.self_times()
        for name, span_name in self.installed.items():
            out[f"{span_name}_s"] = selfs.get(span_name, 0.0) * per
        for key, fn_name in COUNT_METRICS.items():
            if fn_name in self.installed:
                out[key] = self.counts[key] * per
        c = self.counts
        if "solve_roots" in self.installed:
            vectors = c["roots.closed_form"] + c["roots.refined"] + c["roots.fallback"]
            out["lengthscale.refined_fraction"] = c["roots.refined"] / max(vectors, 1)
            out["lengthscale.fallback_fraction"] = c["roots.fallback"] / max(vectors, 1)
            out["lengthscale.sentinel_fraction"] = c["roots.sentinel_cells"] / max(c["roots.cells"], 1)
        if "critical_chain_lengths" in self.installed:
            out["zoomout.critical_sentinel_fraction"] = (
                c["criticals.sentinel"] / max(c["criticals.values"], 1)
            )
        out["trace.uncovered_s"] = max(busy_s - self.top_level_seconds(), 0.0) * per
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
