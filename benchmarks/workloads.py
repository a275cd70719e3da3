"""The benchmark's three workloads.

Each workload has three steps, all run in one fresh process per pass:

* ``prepare(seed, workdir)`` generates the inputs from the workload seed
  (a config file, or sampled instances).  It counts as set-up.
* ``run(inputs)`` is the timed region: calls into the package's public entry
  points, from the first call to the last output written.  It returns the
  outcome of each operation without checking it.
* ``check(inputs, outcome)`` runs after the timed region and returns one
  ``(operation, error or None)`` pair per operation, plus the number of full
  cost evaluations the pass performed.

The checks test invariants, never a digest of one commit's output: an exact
evaluation kernel may legitimately change which state wins an argmin.
"""
from __future__ import annotations

import math
import os

import numpy as np

import crossearch
from crossearch import cli

# Default budgets of the paper's grids, written out so the checks can compare
# the table's evaluations column against the config the program was given.
GRID_BUDGETS = {
    "max_order": 2,
    "n_instances": 1,
    "random_samples": 1_000_000,
    "pool": 1000,
    "offspring_pool": 1000,
    "repeats": 333,
    "gd_restarts": 1000,
    "offspring_samples": 1000,
    "exhaustive_limit": 20,
}


# Rows of one cell in canonical (alphabetical) order, and the evaluations each
# must report under the config's budgets.
def _reference(b: dict, n_dims: int) -> tuple[str, int]:
    if n_dims <= b["exhaustive_limit"]:
        return "exhaustive", 2**n_dims
    return "descent_reference", b["gd_restarts"]


def _crossover(b: dict) -> tuple[str, int]:
    return "crossover", b["repeats"] * (2 * b["pool"] + b["offspring_pool"])


def _offspring(b: dict) -> tuple[str, int]:
    return "offspring", 2 * b["pool"] + b["offspring_samples"]


VALUE_TOL = 1e-9  # exhaustive minimum vs other rows' best values
EXACT_TOL = 1e-12  # returned value vs evaluate(cf, state)


class _Grid:
    """``crossearch fig2``/``fig3`` through ``cli.main``, in-process."""

    command: str
    config: dict
    plot: bool

    def prepare(self, seed: int, workdir: str) -> dict:
        path = os.path.join(workdir, f"{self.command}.cfg")
        with open(path, "w") as fh:
            for key, value in self.config.items():
                if isinstance(value, tuple):
                    value = " ".join(map(str, value))
                fh.write(f"{key} = {value}\n")
        out = os.path.join(workdir, "out")
        table = os.path.join(out, f"{self.command}_k{self.config['max_order']}.csv")
        return {
            "seed": seed,
            "config": path,
            "out": out,
            "table": table,
            "svg": os.path.join(out, f"{self.command}.svg") if self.plot else None,
        }

    def run(self, inputs: dict) -> dict:
        argv = [self.command, "--config", inputs["config"], "--seed",
                str(inputs["seed"]), "--out", inputs["out"], "--threads", "1"]
        outcome = {"grid": _call(cli.main, argv)}
        if self.plot:
            outcome["plot"] = _call(
                cli.main,
                ["plot", "--table", inputs["table"], "--kind", self.command,
                 "--out", inputs["svg"]],
            )
        return outcome

    def expected_rows(self, n_dims: int) -> list[tuple[str, int]]:
        raise NotImplementedError

    def check(self, inputs: dict, outcome: dict):
        cfg = self.config
        cells = [
            (n, crossearch.split_seed(inputs["seed"], k))
            for n in sorted(cfg["n_dims_grid"])
            for k in range(cfg["n_instances"])
        ]
        results = {cell: None for cell in cells}
        evaluations = 0
        grid_error = _returned_error(outcome["grid"])
        rows = []
        if grid_error is None:
            try:
                rows = crossearch.read_rows(inputs["table"])
            except (OSError, ValueError, crossearch.ConfigError) as err:
                grid_error = f"table does not read back: {err}"
        if grid_error is None:
            expected = [
                (n, seed, label)
                for n, seed in cells
                for label, _ in self.expected_rows(n)
            ]
            got = [(r.n_dims, r.instance_seed, r.algorithm) for r in rows]
            if got != expected:
                grid_error = f"rows or labels differ from the grid: {got[:6]}..."
        if grid_error is not None:
            results = {cell: grid_error for cell in cells}
        else:
            for n, seed in cells:
                cell_rows = [r for r in rows if (r.n_dims, r.instance_seed) == (n, seed)]
                results[(n, seed)] = self._check_cell(n, cell_rows)
                evaluations += sum(r.evaluations or 0 for r in cell_rows)
        ops = [(f"cell n={n} instance_seed={seed}", err) for (n, seed), err in results.items()]
        if self.plot:
            ops.append(("plot", _returned_error(outcome["plot"]) or _svg_error(inputs["svg"])))
        return ops, evaluations

    def _check_cell(self, n_dims: int, rows) -> str | None:
        budgets = dict(self.expected_rows(n_dims))
        for row in rows:
            if row.max_order != self.config["max_order"]:
                return f"{row.algorithm}: max_order {row.max_order}"
            if row.evaluations != budgets[row.algorithm]:
                return (f"{row.algorithm}: {row.evaluations} evaluations, "
                        f"config gives {budgets[row.algorithm]}")
            for name in ("best_value", "offspring_mean", "offspring_variance"):
                value = getattr(row, name)
                if value is not None and not math.isfinite(value):
                    return f"{row.algorithm}: {name} is {value}"
        values = {r.algorithm: r.best_value for r in rows if r.best_value is not None}
        if "exhaustive" in values:
            floor = values["exhaustive"]
            for label, value in values.items():
                if floor > value + VALUE_TOL:
                    return f"exhaustive {floor!r} above {label} {value!r}"
        return None


class Fig2(_Grid):
    name = "fig2_k2"
    command = "fig2"
    plot = True
    config = {"n_dims_grid": (10, 14, 18, 22, 26, 30), **GRID_BUDGETS}

    def expected_rows(self, n_dims):
        b = self.config
        rows = [_reference(b, n_dims), _crossover(b), _offspring(b),
                ("random_search", b["random_samples"])]
        return sorted(rows)


class Fig3(_Grid):
    name = "fig3_k2"
    command = "fig3"
    plot = False
    # Half the default repeats: a pass of about 6 s, so a run holds several
    # passes to take the median of, each still over a thousand 1000-row calls.
    config = {"n_dims_grid": (30,), "n_parents": 4, **GRID_BUDGETS, "repeats": 167}

    def expected_rows(self, n_dims):
        b = self.config
        parents = b["n_parents"]
        rows = [
            _reference(b, n_dims), _crossover(b), _offspring(b),
            ("mean_field", b["repeats"] * (parents * b["pool"] + b["offspring_pool"])),
            ("mean_field_offspring", parents * b["pool"] + b["offspring_samples"]),
        ]
        return sorted(rows)


class ExactK34:
    """Exact minima and random search at orders 3 and 4, as library calls.

    Sized so that ``exhaustive_min`` carries most of the time and
    ``evaluate_batch`` (through ``random_search``) a clear minority.
    """

    name = "exact_k34"
    exhaustive_dims = (14, 16, 18)
    orders = (3, 4)
    search_dims = 30
    search_samples = 65_536
    check_samples = 256

    def prepare(self, seed: int, workdir: str) -> dict:
        def instance(n, k):
            return crossearch.sample_cost_function(n, k, crossearch.split_seed(seed, n, k))

        return {
            "seed": seed,
            "exhaustive": [instance(n, k) for k in self.orders for n in self.exhaustive_dims],
            "search": [
                (instance(self.search_dims, k), crossearch.stream(seed, self.search_dims, k))
                for k in self.orders
            ],
        }

    def run(self, inputs: dict) -> dict:
        return {
            "exhaustive": [_call(crossearch.exhaustive_min, cf) for cf in inputs["exhaustive"]],
            "search": [
                _call(crossearch.random_search, cf, self.search_samples, rng)
                for cf, rng in inputs["search"]
            ],
        }

    def check(self, inputs: dict, outcome: dict):
        seed = inputs["seed"]
        ops = []
        evaluations = 0
        for cf, result in zip(inputs["exhaustive"], outcome["exhaustive"]):
            label = f"exhaustive_min n={cf.n_dims} k={cf.max_order}"
            error = _returned_error(result)
            if error is None:
                state, value = result
                error = _exact_error(cf, state, value)
            if error is None:
                rng = np.random.default_rng([seed, cf.n_dims, cf.max_order])
                sample = 2 * rng.integers(0, 2, (self.check_samples, cf.n_dims)) - 1
                best = min(crossearch.evaluate(cf, s) for s in sample)
                if value > best + EXACT_TOL:
                    error = f"minimum {value!r} above a random state's {best!r}"
            if error is None:
                evaluations += 2**cf.n_dims
            ops.append((label, error))
        for (cf, _), result in zip(inputs["search"], outcome["search"]):
            label = f"random_search n={cf.n_dims} k={cf.max_order}"
            error = _returned_error(result)
            if error is None:
                error = _exact_error(cf, result.best_state, result.best_value)
            if error is None and result.evaluations != self.search_samples:
                error = f"{result.evaluations} evaluations for {self.search_samples} samples"
            if error is None:
                evaluations += result.evaluations
            ops.append((label, error))
        return ops, evaluations


WORKLOADS = {w.name: w for w in (Fig2(), Fig3(), ExactK34())}


class _Raised:
    def __init__(self, err: BaseException):
        self.error = f"{type(err).__name__}: {err}"


def _call(fn, *args):
    """Call into the package; an exception becomes a failed operation."""
    try:
        return fn(*args)
    except Exception as err:  # every failure is counted, none aborts the pass
        return _Raised(err)


def _returned_error(result) -> str | None:
    if isinstance(result, _Raised):
        return result.error
    if isinstance(result, int) and result != 0:
        return f"exit code {result}"
    return None


def _exact_error(cf, state, value) -> str | None:
    state = np.asarray(state)
    if state.shape != (cf.n_dims,) or not np.isin(state, (-1, 1)).all():
        return f"not a state of {cf.n_dims} signs: {state!r}"
    exact = crossearch.evaluate(cf, state)
    if not abs(value - exact) <= EXACT_TOL:
        return f"value {value!r} but evaluate gives {exact!r}"
    return None


def _svg_error(path) -> str | None:
    try:
        with open(path, "rb") as fh:
            head = fh.read(256)
    except OSError as err:
        return f"no plot: {err}"
    return None if b"<svg" in head else "plot is not an SVG document"
