"""Span tracing of crossearch's public functions, installed from outside.

``Tracer.install()`` replaces every public function of each package module
with a wrapper that records one span ``(name, start, end, parent)`` per call.
A module that imported a function by name (``search`` binds
``evaluate_batch`` from ``polycost``, ``cli`` binds ``run_fig2`` from
``harness``, the package binds everything) holds its own reference, so the
wrapper replaces every binding of the original object, not just the one in
the defining module.  Spans stay in memory until ``uninstall()``; ``layers()``
then reduces them to the per-layer metrics the benchmark reports.

The package is never modified on disk; untraced runs import it untouched.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict

MODULES = ("polycost", "search", "evt", "harness", "seeding", "svgplot", "cli")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _improvements(result):
    """Repeats that lowered the best value, from a crossover stage trace."""
    best = float("inf")
    improved = 0
    for _, value in result.stage_trace:
        if value < best:
            best = value
            improved += 1
    return improved


def _crossover_counts(args, kwargs, result):
    return {
        "evals": result.evaluations,
        "repeats": len(result.stage_trace),
        "improved": _improvements(result),
    }


def _cells(args, kwargs, result):
    rows, _ = result
    return {"cells": len({(row.n_dims, row.instance_seed) for row in rows})}


def _file_bytes(index, name, key):
    def count(args, kwargs, result):
        return {key: os.path.getsize(_arg(args, kwargs, index, name))}

    return count


# Work counted at a layer boundary, from the call's arguments and result.
COUNTERS = {
    "polycost.evaluate_batch": lambda a, k, r: {"rows": len(_arg(a, k, 1, "states"))},
    "polycost.random_states": lambda a, k, r: {"rows": _arg(a, k, 1, "count")},
    "polycost.exhaustive_min": lambda a, k, r: {"states": 2 ** _arg(a, k, 0, "cf").n_dims},
    "search.random_search": lambda a, k, r: {"evals": r.evaluations},
    "search.selection_crossover": _crossover_counts,
    "search.mean_field_search": _crossover_counts,
    "search.gradient_descent": lambda a, k, r: {"delta_evals": r.extras["delta_evaluations"]},
    "harness.run_fig2": _cells,
    "harness.run_fig3": _cells,
    "harness.write_rows": _file_bytes(0, "path", "table_bytes"),
    "svgplot.emit_plot": _file_bytes(2, "path", "svg_bytes"),
}


class Tracer:
    """Wraps the package's public functions and records their spans."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self._stack = [-1]
        self._restore: list = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[f"{name}.{key}"] += value
            return result

        return wrapper

    def install(self) -> "Tracer":
        package = importlib.import_module("crossearch")
        modules = {m: importlib.import_module(f"crossearch.{m}") for m in MODULES}
        wrapped = {}
        for short, module in modules.items():
            for attr, fn in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                ):
                    wrapped[fn] = self._wrap(f"{short}.{attr}", fn)
        for module in (package, *modules.values()):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapped[value])
        return self

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def write_spans(self, path) -> None:
        """One line per span: index, name, start, end, parent index."""
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{index},{name},{start!r},{end!r},{parent}\n")

    def layers(self, t_start: float, t_end: float) -> dict:
        """Per-layer metrics; ``t_start``/``t_end`` bound the timed region.

        Self time is a span's duration minus that of its direct children.
        Totals cover set-up as well as the timed region, so work done while
        generating inputs (sampling instances) shows in its layer.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        covered = 0.0
        for index, (name, start, end, parent) in enumerate(self.spans):
            self_s[name] += end - start - child[index]
            calls[name] += 1
            if parent < 0:
                covered += max(0.0, min(end, t_end) - max(start, t_start))
        counts = self.counts
        run_s = t_end - t_start

        def ratio(num, den):
            return num / den if den > 0 else 0.0

        def group(prefix):
            names = [n for n in self_s if n.startswith(prefix)]
            return sum(self_s[n] for n in names), sum(calls[n] for n in names)

        out = {}
        for layer in (
            "polycost.evaluate_batch",
            "polycost.exhaustive_min",
            "polycost.random_states",
            "polycost.evaluate",
            "polycost.validate_state",
            "polycost.multilinear_extension",
            "polycost.sample_cost_function",
            "search.random_search",
            "search.selection_crossover",
            "search.mean_field_search",
            "search.gradient_descent",
            "search.gradient_descent_restarts",
            "search.offspring_statistics",
            "search.select_parents",
            "search.make_crossover_scheme",
            "harness.write_rows",
            "seeding.stream",
            "svgplot.emit_plot",
            "cli.main",
        ):
            out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
            out[f"{layer}.calls"] = calls.get(layer, 0)
        rows = counts["polycost.evaluate_batch.rows"]
        out["polycost.evaluate_batch.rows"] = rows
        out["polycost.evaluate_batch.rows_per_s"] = ratio(
            rows, self_s.get("polycost.evaluate_batch", 0.0)
        )
        out["polycost.exhaustive_min.states_per_s"] = ratio(
            counts["polycost.exhaustive_min.states"],
            self_s.get("polycost.exhaustive_min", 0.0),
        )
        out["polycost.random_states.rows"] = counts["polycost.random_states.rows"]
        for searcher in ("random_search", "selection_crossover", "mean_field_search"):
            out[f"search.{searcher}.evals"] = counts[f"search.{searcher}.evals"]
        repeats = sum(
            counts[f"search.{s}.repeats"]
            for s in ("selection_crossover", "mean_field_search")
        )
        improved = sum(
            counts[f"search.{s}.improved"]
            for s in ("selection_crossover", "mean_field_search")
        )
        out["search.crossover.improve_ratio"] = ratio(improved, repeats)
        out["search.gradient_descent.delta_evals"] = counts[
            "search.gradient_descent.delta_evals"
        ]
        out["harness.run.self_s"] = self_s.get("harness.run_fig2", 0.0) + self_s.get(
            "harness.run_fig3", 0.0
        )
        out["harness.cells"] = (
            counts["harness.run_fig2.cells"] + counts["harness.run_fig3.cells"]
        )
        out["harness.table_bytes"] = counts["harness.write_rows.table_bytes"]
        out["evt.self_s"], out["evt.calls"] = group("evt.")
        out["svgplot.svg_bytes"] = counts["svgplot.emit_plot.svg_bytes"]
        out["trace.run_s"] = run_s
        out["trace.spans"] = len(self.spans)
        out["trace.uncovered_share"] = ratio(run_s - covered, run_s)
        return out
