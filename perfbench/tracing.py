"""Span tracing around the public functions of each weil_lab layer.

Each traced function is replaced on its module (and in ``cli._SUITE_FN``,
which holds direct references to the suite functions), so calls made
through ``sf.``, ``db.``, ``nu.`` and the suite table are all caught.
Spans (name, start, end, parent) stay in memory until the run ends.
Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

import numpy as np

SWEEP = "special_fn.axis_sweep"


class Tracer:
    """Spans as [name, start, end, parent index or -1], plus named counts."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.opened = Counter()
        self.enabled = False
        self._stack = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        self.opened[name] += 1
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def merge(self, spans, counts) -> None:
        """Append spans recorded by another process; parents are re-indexed."""
        base = len(self.spans)
        for name, start, end, parent in spans:
            self.spans.append([name, start, end,
                               parent + base if parent >= 0 else -1])
        self.counts.update(counts)

    def write(self, path: str, meta=None) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta or {}, "spans": self.spans,
                       "counts": dict(self.counts)}, fh)


def self_times(spans):
    """Per span: its duration minus the time its child spans cover. Spans
    come from one thread per process, so children of a span never overlap."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


# ----------------------------------------------------------------------
# what is wrapped, and the per-layer metrics it yields
# ----------------------------------------------------------------------

def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_points(metric, name):
    def counter(tracer, args, kwargs):
        tracer.counts[metric] += int(np.size(_arg(args, kwargs, 0, name)))
    return counter


def _count_grid_terms(in_name):
    def counter(tracer, args, kwargs):
        n_in = _arg(args, kwargs, 0, in_name).grid.n_points
        n_out = _arg(args, kwargs, 1, "out").n_points
        tracer.counts["numerics.grid_transform_calls"] += 1
        tracer.counts["numerics.grid_transform_terms"] += n_in * n_out
    return counter


def _count_calls(metric):
    def counter(tracer, args, kwargs):
        tracer.counts[metric] += 1
    return counter


# (module, attribute, span name, counter or None)
WRAPPED = [
    ("special_fn", "critical_line_log_derivative", SWEEP,
     _count_points("special_fn.axis_sweep_points", "x")),
    ("special_fn", "xi", "special_fn.scalar_xi", _count_calls("special_fn.scalar_xi_calls")),
    ("special_fn", "E_xi", "special_fn.scalar_xi", _count_calls("special_fn.scalar_xi_calls")),
    ("special_fn", "theta_xi", "special_fn.scalar_xi", _count_calls("special_fn.scalar_xi_calls")),
    ("special_fn", "zeta_pair", "special_fn.scalar_xi", _count_calls("special_fn.scalar_xi_calls")),
    ("special_fn", "xi_on_critical_line", "special_fn.critical_line_xi",
     _count_points("special_fn.critical_line_xi_points", "t")),
    ("debranges", "axis_samples", "debranges.axis_samples", None),
    ("debranges", "psi_gamma", "debranges.psi_gamma", None),
    ("debranges", "K_apply", "debranges.K_apply", None),
    ("numerics", "inverse_fourier_grid", "numerics.inverse_transform", _count_grid_terms("F")),
    ("numerics", "forward_fourier_grid", "numerics.forward_transform", _count_grid_terms("psi")),
    ("numerics", "fourier_integral", "numerics.fourier_integral",
     _count_calls("numerics.fourier_integral_calls")),
    ("numerics", "fourier_grid_at", "numerics.fourier_grid_at", None),
    ("zero_catalog", "compute_zeros", "zero_catalog.compute_zeros",
     _count_calls("zero_catalog.compute_zeros_calls")),
    ("weil_form", "weil_pairing", "weil_form.weil_pairing", None),
    ("weil_form", "screw_form", "weil_form.screw_form", None),
    ("weil_form", "screw_g_array", "weil_form.screw_g",
     _count_points("weil_form.screw_g_points", "t")),
    ("hilbert_polya", "eigen_residual", "hilbert_polya.eigen_residual", None),
    ("hilbert_polya", "decompose_LW", "hilbert_polya.decompose_LW", None),
] + [("cli", "suite_" + s, "cli.suite_" + s, None)
     for s in ("special", "weil", "screw", "debranges", "hilbert_polya")]

# (metric, unit, better, how): how is ("self", span), ("total", span) or
# ("count", counter name). Layer times are self times, so nested layers are
# not counted twice; a CLI suite time is the suite's whole duration.
PER_LAYER = [
    ("special_fn.axis_sweep_s", "s", "lower", ("self", SWEEP)),
    ("special_fn.axis_sweep_points", "count", "lower", ("count", "special_fn.axis_sweep_points")),
    ("special_fn.scalar_xi_s", "s", "lower", ("self", "special_fn.scalar_xi")),
    ("special_fn.scalar_xi_calls", "count", "lower", ("count", "special_fn.scalar_xi_calls")),
    ("special_fn.critical_line_xi_s", "s", "lower", ("self", "special_fn.critical_line_xi")),
    ("special_fn.critical_line_xi_points", "count", "lower",
     ("count", "special_fn.critical_line_xi_points")),
    ("debranges.axis_cache_misses", "count", "lower", ("count", "debranges.axis_cache_misses")),
    ("debranges.axis_cache_hits", "count", "higher", ("count", "debranges.axis_cache_hits")),
    ("debranges.psi_gamma_s", "s", "lower", ("self", "debranges.psi_gamma")),
    ("debranges.K_apply_s", "s", "lower", ("self", "debranges.K_apply")),
    ("numerics.inverse_transform_s", "s", "lower", ("self", "numerics.inverse_transform")),
    ("numerics.forward_transform_s", "s", "lower", ("self", "numerics.forward_transform")),
    ("numerics.grid_transform_calls", "count", "lower", ("count", "numerics.grid_transform_calls")),
    ("numerics.grid_transform_terms", "count", "lower", ("count", "numerics.grid_transform_terms")),
    ("numerics.fourier_integral_s", "s", "lower", ("self", "numerics.fourier_integral")),
    ("numerics.fourier_integral_calls", "count", "lower",
     ("count", "numerics.fourier_integral_calls")),
    ("numerics.fourier_grid_at_s", "s", "lower", ("self", "numerics.fourier_grid_at")),
    ("zero_catalog.compute_zeros_s", "s", "lower", ("self", "zero_catalog.compute_zeros")),
    ("zero_catalog.compute_zeros_calls", "count", "lower",
     ("count", "zero_catalog.compute_zeros_calls")),
    ("weil_form.weil_pairing_s", "s", "lower", ("self", "weil_form.weil_pairing")),
    ("weil_form.screw_form_s", "s", "lower", ("self", "weil_form.screw_form")),
    ("weil_form.screw_g_s", "s", "lower", ("self", "weil_form.screw_g")),
    ("weil_form.screw_g_points", "count", "lower", ("count", "weil_form.screw_g_points")),
    ("hilbert_polya.eigen_residual_s", "s", "lower", ("self", "hilbert_polya.eigen_residual")),
    ("hilbert_polya.decompose_LW_s", "s", "lower", ("self", "hilbert_polya.decompose_LW")),
] + [("cli.suite_%s_s" % s, "s", "lower", ("total", "cli.suite_" + s))
     for s in ("special", "weil", "screw", "debranges", "hilbert_polya")]


def _wrap(tracer, fn, name, counter):
    if name == "debranges.axis_samples":
        # a call is a miss when a sweep span opens inside it
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            before = tracer.opened[SWEEP]
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                hit = tracer.opened[SWEEP] == before
                tracer.counts["debranges.axis_cache_hits" if hit
                              else "debranges.axis_cache_misses"] += 1
        return traced

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        if counter is not None:
            counter(tracer, args, kwargs)
        idx = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)
    return traced


def install(tracer: Tracer):
    """Wrap every function in WRAPPED; returns a callable that undoes it."""
    undo = []
    for mod_name, attr, name, counter in WRAPPED:
        mod = importlib.import_module("weil_lab." + mod_name)
        orig = getattr(mod, attr)
        wrapped = _wrap(tracer, orig, name, counter)
        setattr(mod, attr, wrapped)
        undo.append((mod, attr, orig))
    cli = importlib.import_module("weil_lab.cli")
    saved_suites = dict(cli._SUITE_FN)
    for key in cli._SUITE_FN:
        cli._SUITE_FN[key] = getattr(cli, "suite_" + key)

    def restore():
        for mod, attr, orig in undo:
            setattr(mod, attr, orig)
        cli._SUITE_FN.update(saved_suites)
    return restore


def layer_metrics(spans, counts):
    """Every PER_LAYER metric as {name: {"value", "unit"}}."""
    selfs = defaultdict(float)
    totals = defaultdict(float)
    for (name, start, end, _), st in zip(spans, self_times(spans)):
        selfs[name] += st
        totals[name] += end - start
    out = {}
    for metric, unit, _, (how, key) in PER_LAYER:
        if how == "self":
            value = selfs[key]
        elif how == "total":
            value = totals[key]
        else:
            value = int(counts.get(key, 0))
        out[metric] = {"value": value, "unit": unit}
    return out
