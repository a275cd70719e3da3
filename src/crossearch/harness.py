"""Experiment harness: seeded instance grids, CSV tables, reproducible runs.

Seed derivation is fixed and documented: instance k of a run uses
``cell_seed = split_seed(master_seed, k)``; the instance at dimension N draws
its coefficients from ``split_seed(cell_seed, N)`` and each algorithm consumes
the dedicated stream ``stream(cell_seed, N, algorithm_id)``.  Rows are emitted
in canonical order (grid order, then instance, then algorithm), so repeated
runs of one config produce byte-identical CSV files.
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

from . import evt
from .polycost import exhaustive_min, multilinear_extension, sample_cost_function
from .search import (
    gradient_descent_restarts,
    make_crossover_scheme,
    mean_field_search,
    offspring_statistics,
    random_search,
    select_parents,
    selection_crossover,
)
from .seeding import split_seed, stream

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ExperimentRow",
    "load_config",
    "write_rows",
    "read_rows",
    "run_fig2",
    "run_fig3",
]


class ConfigError(Exception):
    """Bad configuration file or option values."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Desk-scale defaults for the bundled experiments."""

    n_dims_grid: tuple[int, ...] = (10, 14, 18, 22, 26, 30)
    max_order: int = 2
    n_instances: int = 10
    random_samples: int = 1_000_000
    pool: int = 1000
    offspring_pool: int = 1000
    repeats: int = 333
    n_parents: int = 4
    gd_restarts: int = 1000
    offspring_samples: int = 1000
    master_seed: int = 0
    exhaustive_limit: int = 20
    match_budget: bool = False

    def __post_init__(self):
        if not self.n_dims_grid:
            raise ConfigError("n_dims_grid must not be empty")
        if self.max_order < 1:
            raise ConfigError(f"max_order must be >= 1, got {self.max_order}")
        for name in (
            "n_instances",
            "random_samples",
            "pool",
            "offspring_pool",
            "repeats",
            "gd_restarts",
        ):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.offspring_samples < 2:
            raise ConfigError("offspring_samples must be >= 2")
        if self.n_parents < 2:
            raise ConfigError(f"n_parents must be >= 2, got {self.n_parents}")


def fig3_defaults() -> ExperimentConfig:
    return replace(ExperimentConfig(), n_dims_grid=(30,))


def _parse_value(name: str, text: str, kind):
    try:
        if kind == "tuple[int, ...]":
            return tuple(int(part) for part in text.replace(",", " ").split())
        if kind == "bool":
            if text.lower() in ("true", "1", "yes"):
                return True
            if text.lower() in ("false", "0", "no"):
                return False
            raise ValueError(text)
        return int(text)
    except ValueError as err:
        raise ConfigError(f"bad value for {name}: {text!r}") from err


# accepted spellings for a few keys, mapped to the canonical field names
_KEY_ALIASES = {
    "n_dims_list": "n_dims_grid",
    "instances_per_point": "n_instances",
    "random_m": "random_samples",
}


def load_config(path) -> ExperimentConfig:
    """Parse a flat ``key = value`` text file (# starts a comment)."""
    kinds = {f.name: f.type for f in fields(ExperimentConfig)}
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            name, text = (part.strip() for part in line.split("=", 1))
            name = _KEY_ALIASES.get(name, name)
            if name not in kinds:
                raise ConfigError(f"{path}:{lineno}: unknown key {name!r}")
            values[name] = _parse_value(name, text, kinds[name])
    try:
        return ExperimentConfig(**values)
    except TypeError as err:
        raise ConfigError(str(err)) from err


# ---------------------------------------------------------------------------
# rows and tables

_COLUMNS = (
    "n_dims",
    "max_order",
    "instance_seed",
    "algorithm",
    "best_value",
    "evaluations",
    "offspring_mean",
    "offspring_variance",
    "realized_distance",
    "theory_mean",
    "theory_variance",
)

_INT_COLUMNS = {"n_dims", "max_order", "instance_seed", "evaluations"}


@dataclass(frozen=True)
class ExperimentRow:
    """One algorithm on one instance; missing fields stay None, never zero."""

    n_dims: int
    max_order: int
    instance_seed: int
    algorithm: str
    best_value: float | None = None
    evaluations: int | None = None
    offspring_mean: float | None = None
    offspring_variance: float | None = None
    realized_distance: float | None = None
    theory_mean: float | None = None
    theory_variance: float | None = None


def _format_cell(name: str, value) -> str:
    if value is None:
        return ""
    if name in _INT_COLUMNS:
        return str(int(value))
    if name == "algorithm":
        return str(value)
    return repr(float(value))


def write_rows(path, rows) -> None:
    """Write rows as CSV; float cells use repr so parsing them back is exact."""
    lines = [",".join(_COLUMNS)]
    for row in rows:
        lines.append(
            ",".join(_format_cell(name, getattr(row, name)) for name in _COLUMNS)
        )
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_rows(path) -> list[ExperimentRow]:
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if not lines or tuple(lines[0].split(",")) != _COLUMNS:
        raise ConfigError(f"{path}: not a recognized experiment table")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(_COLUMNS):
            raise ConfigError(f"{path}: malformed row {line!r}")
        kwargs = {}
        for name, cell in zip(_COLUMNS, cells):
            if cell == "":
                kwargs[name] = None
            elif name == "algorithm":
                kwargs[name] = cell
            elif name in _INT_COLUMNS:
                kwargs[name] = int(cell)
            else:
                kwargs[name] = float(cell)
        rows.append(ExperimentRow(**kwargs))
    return rows


# ---------------------------------------------------------------------------
# experiment cells

_REFERENCE, _RANDOM, _CROSSOVER, _OFFSPRING, _MEANFIELD, _MF_OFFSPRING = range(1, 7)


def _instance(config: ExperimentConfig, n_dims: int, k: int):
    cell_seed = split_seed(config.master_seed, k)
    cf = sample_cost_function(
        n_dims, config.max_order, split_seed(cell_seed, n_dims)
    )
    return cell_seed, cf


def _reference_row(config, n_dims, cell_seed, cf) -> ExperimentRow:
    theory_mean = evt.global_min_estimate(n_dims)
    if n_dims <= config.exhaustive_limit:
        _, value = exhaustive_min(cf, dim_limit=config.exhaustive_limit)
        return ExperimentRow(
            n_dims, config.max_order, cell_seed, "exhaustive",
            best_value=value, evaluations=2**n_dims, theory_mean=theory_mean,
        )
    run = gradient_descent_restarts(
        cf, config.gd_restarts, stream(cell_seed, n_dims, _REFERENCE)
    )
    return ExperimentRow(
        n_dims, config.max_order, cell_seed, "descent_reference",
        best_value=run.best_value, evaluations=run.evaluations,
        theory_mean=theory_mean,
    )


def _random_row(config, n_dims, cell_seed, cf) -> ExperimentRow:
    run = random_search(
        cf, config.random_samples, stream(cell_seed, n_dims, _RANDOM)
    )
    spec = evt.min_distribution(
        evt.GaussianSpec(0.0, 1.0), config.random_samples, "exact"
    )
    return ExperimentRow(
        n_dims, config.max_order, cell_seed, "random_search",
        best_value=run.best_value, evaluations=run.evaluations,
        theory_mean=spec.mean, theory_variance=spec.variance,
    )


def _crossover_row(config, n_dims, cell_seed, cf) -> ExperimentRow:
    run = selection_crossover(
        cf, config.pool, config.offspring_pool, config.repeats,
        stream(cell_seed, n_dims, _CROSSOVER),
    )
    params = evt.theory_params(n_dims, cf.order_variance)
    spec = evt.offspring_min_distribution(params, config.offspring_pool)
    return ExperimentRow(
        n_dims, config.max_order, cell_seed, "crossover",
        best_value=run.best_value, evaluations=run.evaluations,
        realized_distance=run.extras["mean_parent_distance"],
        theory_mean=spec.mean, theory_variance=spec.variance,
    )


def _offspring_row(config, n_dims, cell_seed, cf) -> ExperimentRow:
    rng = stream(cell_seed, n_dims, _OFFSPRING)
    scheme = make_crossover_scheme(select_parents(cf, config.pool, 2, rng))
    mean, variance = offspring_statistics(cf, scheme, config.offspring_samples, rng)
    params = evt.theory_params(n_dims, cf.order_variance)
    spec = evt.offspring_distribution(params, config.pool)
    return ExperimentRow(
        n_dims, config.max_order, cell_seed, "offspring",
        evaluations=2 * config.pool + config.offspring_samples,
        offspring_mean=mean, offspring_variance=variance,
        realized_distance=scheme.n_differing,
        theory_mean=spec.mean, theory_variance=spec.variance,
    )


def _fig2_cell(config: ExperimentConfig, n_dims: int, k: int) -> list[ExperimentRow]:
    cell_seed, cf = _instance(config, n_dims, k)
    return [
        _reference_row(config, n_dims, cell_seed, cf),
        _random_row(config, n_dims, cell_seed, cf),
        _crossover_row(config, n_dims, cell_seed, cf),
        _offspring_row(config, n_dims, cell_seed, cf),
    ]


def _mean_field_rows(config, n_dims, cell_seed, cf) -> list[ExperimentRow]:
    pool = config.pool
    if config.match_budget:
        pool = max(1, (2 * config.pool) // config.n_parents)
    rng = stream(cell_seed, n_dims, _MEANFIELD)
    if config.n_parents == 2:
        run = selection_crossover(
            cf, pool, config.offspring_pool, config.repeats, rng
        )
        mixture = None
    else:
        run = mean_field_search(
            cf, config.n_parents, pool, config.offspring_pool, config.repeats, rng
        )
        mixture = run.extras["mean_mixture_mean"]
    theory_mean = theory_var = None
    if mixture is not None and abs(mixture) <= 1.0:
        prediction = evt.mixture_prediction(mixture, config.offspring_pool)
        theory_mean = prediction.min_estimate
        theory_var = prediction.offspring_variance
    search_row = ExperimentRow(
        n_dims, config.max_order, cell_seed, "mean_field",
        best_value=run.best_value, evaluations=run.evaluations,
        realized_distance=run.extras["mean_parent_distance"],
        theory_mean=theory_mean, theory_variance=theory_var,
    )
    stats_rng = stream(cell_seed, n_dims, _MF_OFFSPRING)
    scheme = make_crossover_scheme(
        select_parents(cf, pool, max(config.n_parents, 2), stats_rng)
    )
    mean, variance = offspring_statistics(
        cf, scheme, config.offspring_samples, stats_rng
    )
    mixture_here = multilinear_extension(cf, 2.0 * scheme.selection_probability - 1.0)
    stats_row = ExperimentRow(
        n_dims, config.max_order, cell_seed, "mean_field_offspring",
        evaluations=max(config.n_parents, 2) * pool + config.offspring_samples,
        offspring_mean=mean, offspring_variance=variance,
        realized_distance=scheme.n_differing,
        theory_mean=mixture_here, theory_variance=1.0 - mixture_here**2,
    )
    return [search_row, stats_row]


def _fig3_cell(config: ExperimentConfig, n_dims: int, k: int) -> list[ExperimentRow]:
    cell_seed, cf = _instance(config, n_dims, k)
    rows = [
        _reference_row(config, n_dims, cell_seed, cf),
        _crossover_row(config, n_dims, cell_seed, cf),
        _offspring_row(config, n_dims, cell_seed, cf),
    ]
    rows.extend(_mean_field_rows(config, n_dims, cell_seed, cf))
    return rows


# ---------------------------------------------------------------------------
# runners


def _run_cells(config, out_dir, threads, cell, filename):
    os.makedirs(out_dir, exist_ok=True)
    # canonical order: dimension, then instance, then algorithm label
    tasks = sorted(
        (n, k) for n in set(config.n_dims_grid) for k in range(config.n_instances)
    )
    path = os.path.join(out_dir, filename)
    # the marker stands from the first cell until the full table is in place,
    # so a crash, kill or Ctrl-C never leaves a table that looks complete
    marker = path + ".incomplete"
    with open(marker, "w") as fh:
        fh.write("run in progress\n")
    rows: list[ExperimentRow] = []
    try:
        if threads > 1:
            with ProcessPoolExecutor(max_workers=threads) as pool:
                for batch in pool.map(
                    cell, [config] * len(tasks), *zip(*tasks), chunksize=1
                ):
                    rows.extend(sorted(batch, key=lambda r: r.algorithm))
        else:
            for n, k in tasks:
                rows.extend(sorted(cell(config, n, k), key=lambda r: r.algorithm))
    except BaseException as err:
        # flush what completed; the marker stays alongside
        write_rows(path, rows)
        with open(marker, "w") as fh:
            fh.write(f"run aborted: {type(err).__name__}: {err}\n")
        raise
    tmp = path + ".tmp"
    write_rows(tmp, rows)
    os.replace(tmp, path)
    os.remove(marker)
    return rows, path


def run_fig2(config: ExperimentConfig | None = None, out_dir=".", threads: int = 1):
    """Reference vs random search vs crossover across the dimension grid.

    Emits ``fig2_k{max_order}.csv`` in ``out_dir`` and returns (rows, path).
    """
    config = config or ExperimentConfig()
    return _run_cells(
        config, out_dir, threads, _fig2_cell, f"fig2_k{config.max_order}.csv"
    )


def run_fig3(config: ExperimentConfig | None = None, out_dir=".", threads: int = 1):
    """Two-parent crossover vs mean-field mixing on identical instances.

    Emits ``fig3_k{max_order}.csv`` in ``out_dir`` and returns (rows, path).
    """
    config = config or fig3_defaults()
    return _run_cells(
        config, out_dir, threads, _fig3_cell, f"fig3_k{config.max_order}.csv"
    )
