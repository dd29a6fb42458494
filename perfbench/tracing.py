"""Span tracing of one `approximate` replication, from outside the library.

``Tracer.install()`` replaces public functions at the module attribute where
the CLI path looks them up (``cli.fit``, ``approx_mc.draw_samples``,
``metrics.eval_batch``, ...) with wrappers that record spans, and
``uninstall()`` restores them.  Nothing in ``src/`` is edited and untraced
runs never install the wrappers.

A span has a name, start, end, parent and the replication id it belongs to.
Per-query calls (``eval_sign``, ``eval_grid``, ...) are folded into one span
per parent that carries the call count and the summed busy time, so a traced
run holds a few dozen spans per replication.  A layer's self time is its busy
time minus the busy time of its direct children.

If a later change routes work around a wrapped function, that time lands in
the self time of the nearest wrapped caller and ``trace.covered_frac`` falls:
lost coverage shows instead of a fake gain.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

ROOT = "cli.cmd_approximate"
ORACLE = "functions.oracle"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    rep: int
    busy: float = 0.0
    calls: int = 1  # folded per-query spans count their calls here
    items: int = 0  # points, samples, queries or probes handled


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._folded: dict[tuple[int | None, str], int] = {}
        self._saved: list[tuple[object, str, object]] = []
        self.rep = -1
        self.models: list = []  # models returned by cli.fit, for model_bytes

    # -- recording -----------------------------------------------------
    def _open(self, name: str, items: int) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.rep, items=items))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index: int, started: float) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.busy = span.end - started
        self._stack.pop()

    def span(self, name: str, fn, items=lambda *a, **k: 0):
        def wrapper(*args, **kwargs):
            index = self._open(name, items(*args, **kwargs))
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index, started)

        return wrapper

    def per_query(self, name: str, fn):
        """Wrap a per-query call: one folded span per parent, counting calls."""

        def wrapper(*args):
            started = time.perf_counter()
            try:
                return fn(*args)
            finally:
                now = time.perf_counter()
                key = (self._stack[-1] if self._stack else None, name)
                index = self._folded.get(key)
                if index is None:
                    index = self._folded[key] = len(self.spans)
                    self.spans.append(Span(name, started, now, key[0], self.rep, calls=0))
                span = self.spans[index]
                span.end = now
                span.busy += now - started
                span.calls += 1
                span.items += 1

        return wrapper

    def replication(self, rep: int, fn, *args):
        """Run ``fn(*args)`` as the root span of replication ``rep``."""
        self.rep = rep
        self._folded.clear()
        index = self._open(ROOT, 0)
        started = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(index, started)

    # -- wrappers --------------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _oracle_wrapper(self, eval_batch):
        traced = self.span(ORACLE, eval_batch, items=lambda oracle, points: len(points))

        def wrapper(oracle, points):
            # Only the truth families live in `functions`; model adapters
            # pass through so their per-query spans stay the model's.
            if type(oracle).__module__ == "monoapprox.functions":
                return traced(oracle, points)
            return eval_batch(oracle, points)

        return wrapper

    def _fit_wrapper(self, fit):
        traced = self.span("approx_mc.fit", fit)

        def wrapper(*args, **kwargs):
            model = traced(*args, **kwargs)
            self.models.append(model)
            return model

        return wrapper

    def install(self) -> None:
        from monoapprox import approx_det, approx_mc, cli, metrics

        span = self.span
        self._patch(cli, "fit", self._fit_wrapper(cli.fit))
        self._patch(cli, "fit_grid", span(
            "approx_det.fit_grid", cli.fit_grid, items=lambda oracle, d, m, *a: (m - 1) ** d))
        self._patch(cli, "family_from_spec", span("functions.family_from_spec", cli.family_from_spec))
        self._patch(cli, "l1_mc", span(
            "metrics.l1_mc", cli.l1_mc, items=lambda f, g, d, n_probe, seed: n_probe))
        for name in ("eval_sign", "eval_generalized", "eval_linear"):
            self._patch(cli, name, self.per_query("approx_mc.eval", getattr(cli, name)))
        self._patch(cli, "eval_grid", self.per_query("approx_det.eval_grid", cli.eval_grid))
        for name in ("choose_params", "ub_error_breakdown", "grid_error_bound"):
            self._patch(cli, name, span("bounds", getattr(cli, name)))
        self._patch(approx_mc, "draw_samples", span("approx_mc.draw_samples", approx_mc.draw_samples))
        self._patch(approx_mc, "estimate_coefficients", span(
            "approx_mc.estimate_coefficients", approx_mc.estimate_coefficients,
            items=lambda samples, *a, **k: samples.n))
        self._patch(approx_mc, "chi_table", span("approx_mc.chi_table", approx_mc.chi_table))
        self._patch(approx_mc.SampleSet, "with_resolution", span(
            "approx_mc.digit_keys", approx_mc.SampleSet.with_resolution))
        self._patch(approx_mc.SampleSet, "sorted", span("approx_mc.value_sort", approx_mc.SampleSet.sorted))
        for module in (approx_mc, approx_det, metrics):
            self._patch(module, "eval_batch", self._oracle_wrapper(module.eval_batch))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def computed_bytes(obj, seen: set | None = None) -> int:
    """Bytes held by ``obj``: ndarray buffers plus Python object sizes, each counted once."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    size = sys.getsizeof(obj)
    if is_dataclass(obj):
        size += sum(computed_bytes(getattr(obj, f.name), seen) for f in fields(obj))
    elif isinstance(obj, dict):
        size += sum(computed_bytes(k, seen) + computed_bytes(v, seen) for k, v in obj.items())
    elif isinstance(obj, (list, tuple)):
        size += sum(computed_bytes(v, seen) for v in obj)
    return size


def layer_metrics(spans: list[Span], reps: int) -> dict[str, float]:
    """Per-replication busy/self times and counts of every traced layer."""
    busy: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    items: dict[str, int] = {}
    child_busy = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_busy[span.parent] += span.busy
    covered = root = 0.0
    for i, span in enumerate(spans):
        busy[span.name] = busy.get(span.name, 0.0) + span.busy
        self_time[span.name] = self_time.get(span.name, 0.0) + span.busy - child_busy[i]
        calls[span.name] = calls.get(span.name, 0) + span.calls
        items[span.name] = items.get(span.name, 0) + span.items
        if span.name == ROOT:
            root += span.busy
            covered += child_busy[i]

    def per_rep(table, name):
        return table.get(name, 0) / reps

    def per_item(name):
        return 1e6 * busy[name] / items[name] if items.get(name) else 0.0

    return {
        "functions.oracle.calls": per_rep(calls, ORACLE),
        "functions.oracle.points": per_rep(items, ORACLE),
        "functions.oracle.busy_s": per_rep(busy, ORACLE),
        "approx_mc.draw_samples.self_s": per_rep(self_time, "approx_mc.draw_samples"),
        "approx_mc.digit_keys.busy_s": per_rep(busy, "approx_mc.digit_keys"),
        "approx_mc.value_sort.busy_s": per_rep(busy, "approx_mc.value_sort"),
        "approx_mc.estimate_coefficients.busy_s": per_rep(busy, "approx_mc.estimate_coefficients"),
        "approx_mc.estimate_coefficients.us_per_sample": per_item("approx_mc.estimate_coefficients"),
        "approx_mc.chi_table.busy_s": per_rep(busy, "approx_mc.chi_table"),
        "approx_mc.fit.busy_s": per_rep(busy, "approx_mc.fit"),
        "approx_mc.fit.self_s": per_rep(self_time, "approx_mc.fit"),
        "approx_mc.eval.queries": per_rep(items, "approx_mc.eval"),
        "approx_mc.eval.busy_s": per_rep(busy, "approx_mc.eval"),
        "approx_mc.eval.us_per_query": per_item("approx_mc.eval"),
        "approx_det.fit_grid.busy_s": per_rep(busy, "approx_det.fit_grid"),
        "approx_det.fit_grid.lattice_points": per_rep(items, "approx_det.fit_grid"),
        "approx_det.eval_grid.queries": per_rep(items, "approx_det.eval_grid"),
        "approx_det.eval_grid.busy_s": per_rep(busy, "approx_det.eval_grid"),
        "approx_det.eval_grid.us_per_query": per_item("approx_det.eval_grid"),
        "metrics.l1_mc.calls": per_rep(calls, "metrics.l1_mc"),
        "metrics.l1_mc.probes": per_rep(items, "metrics.l1_mc"),
        "metrics.l1_mc.self_s": per_rep(self_time, "metrics.l1_mc"),
        "bounds.busy_s": per_rep(busy, "bounds"),
        "cli.cmd_approximate.self_s": per_rep(self_time, ROOT),
        "trace.covered_frac": covered / root if root else 0.0,
    }
