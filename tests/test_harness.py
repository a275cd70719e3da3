import dataclasses

import numpy as np
import pytest

import crossearch as cx
from crossearch import evt, harness
from crossearch.harness import ConfigError, ExperimentConfig, ExperimentRow
from crossearch.seeding import split_seed


@pytest.fixture
def mini_config():
    return ExperimentConfig(
        n_dims_grid=(6, 8),
        max_order=2,
        n_instances=2,
        random_samples=500,
        pool=30,
        offspring_pool=40,
        repeats=2,
        n_parents=4,
        gd_restarts=10,
        offspring_samples=50,
        master_seed=42,
    )


# ---------------------------------------------------------------------------
# configuration


def test_config_defaults():
    config = ExperimentConfig()
    assert config.n_dims_grid == (10, 14, 18, 22, 26, 30)
    assert config.max_order == 2
    assert config.n_instances == 10
    assert config.random_samples == 10**6
    assert (config.pool, config.offspring_pool, config.repeats) == (1000, 1000, 333)
    assert config.n_parents == 4
    assert config.master_seed == 0
    assert harness.fig3_defaults().n_dims_grid == (30,)


@pytest.mark.parametrize(
    "override",
    [
        {"n_dims_grid": ()},
        {"max_order": 0},
        {"n_parents": 1},
        {"offspring_samples": 1},
        {"pool": 0},
        {"repeats": -3},
    ],
)
def test_config_validation(override):
    with pytest.raises(ConfigError):
        ExperimentConfig(**override)


def test_load_config_full(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# experiment setup\n"
        "n_dims_list = 10, 14\n"
        "instances_per_point = 3\n"
        "random_m = 2000   # samples\n"
        "pool = 25\n"
        "match_budget = true\n"
        "\n"
        "master_seed = 7\n"
    )
    config = harness.load_config(path)
    assert config.n_dims_grid == (10, 14)
    assert config.n_instances == 3
    assert config.random_samples == 2000
    assert config.pool == 25
    assert config.match_budget is True
    assert config.master_seed == 7
    # untouched keys keep their defaults
    assert config.repeats == 333


def test_load_config_empty_file_gives_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("# nothing here\n\n")
    assert harness.load_config(path) == ExperimentConfig()


@pytest.mark.parametrize(
    "text",
    [
        "not_a_key = 3\n",
        "pool 25\n",
        "pool = quix\n",
        "n_dims_grid = 3.5\n",
        "match_budget = maybe\n",
    ],
)
def test_load_config_rejects_bad_input(tmp_path, text):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError):
        harness.load_config(path)


# ---------------------------------------------------------------------------
# row tables


def test_rows_round_trip_exactly(tmp_path):
    rows = [
        ExperimentRow(
            10, 2, 2**63 + 11, "random_search",
            best_value=-4.123456789012345, evaluations=10**6,
            theory_mean=-4.7, theory_variance=0.046,
        ),
        ExperimentRow(
            10, 2, 5, "offspring",
            evaluations=2050, offspring_mean=-1.5, offspring_variance=0.74,
            realized_distance=4.0,
        ),
        ExperimentRow(30, 3, 0, "exhaustive"),
    ]
    path = tmp_path / "table.csv"
    harness.write_rows(path, rows)
    assert harness.read_rows(path) == rows
    header = path.read_text().splitlines()[0]
    assert header.split(",") == list(harness._COLUMNS)


def test_read_rows_rejects_foreign_files(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigError):
        harness.read_rows(path)
    path.write_text(",".join(harness._COLUMNS) + "\n1,2\n")
    with pytest.raises(ConfigError):
        harness.read_rows(path)


# ---------------------------------------------------------------------------
# experiment runners


def test_run_fig2_mini(tmp_path, mini_config):
    rows, path = harness.run_fig2(mini_config, out_dir=tmp_path)
    assert path == str(tmp_path / "fig2_k2.csv")
    assert len(rows) == 4 * 2 * 2
    # canonical order: dimension ascending, instances in order, labels sorted
    labels = [r.algorithm for r in rows]
    assert labels == ["crossover", "exhaustive", "offspring", "random_search"] * 4
    dims = [r.n_dims for r in rows]
    assert dims == sorted(dims)
    assert harness.read_rows(path) == rows

    by_label = {r.algorithm: r for r in rows[:4]}
    cell_seed = split_seed(42, 0)
    cf = cx.sample_cost_function(6, 2, split_seed(cell_seed, 6))
    assert all(r.instance_seed == cell_seed for r in rows[:4])

    exhaustive = by_label["exhaustive"]
    assert exhaustive.evaluations == 2**6
    assert exhaustive.best_value == pytest.approx(cx.exhaustive_min(cf)[1], abs=1e-12)
    assert exhaustive.theory_mean == pytest.approx(evt.global_min_estimate(6))

    random_row = by_label["random_search"]
    spec = evt.min_distribution(evt.GaussianSpec(0.0, 1.0), 500, "exact")
    assert random_row.evaluations == 500
    assert random_row.theory_mean == pytest.approx(spec.mean)
    assert random_row.theory_variance == pytest.approx(spec.variance)
    assert random_row.best_value >= exhaustive.best_value - 1e-12

    params = evt.theory_params(6, cf.order_variance)
    crossover = by_label["crossover"]
    cross_spec = evt.offspring_min_distribution(params, 40)
    assert crossover.evaluations == 2 * (2 * 30 + 40)
    assert crossover.theory_mean == pytest.approx(cross_spec.mean)
    assert crossover.best_value >= exhaustive.best_value - 1e-12

    offspring = by_label["offspring"]
    off_spec = evt.offspring_distribution(params, 30)
    assert offspring.evaluations == 2 * 30 + 50
    assert offspring.best_value is None
    assert offspring.offspring_mean is not None
    assert offspring.theory_mean == pytest.approx(off_spec.mean)
    assert offspring.theory_variance == pytest.approx(off_spec.variance)


def test_run_fig2_deterministic_across_runs_and_threads(tmp_path, mini_config):
    _, first = harness.run_fig2(mini_config, out_dir=tmp_path / "a")
    _, second = harness.run_fig2(mini_config, out_dir=tmp_path / "b")
    _, threaded = harness.run_fig2(mini_config, out_dir=tmp_path / "c", threads=2)
    data = open(first, "rb").read()
    assert data == open(second, "rb").read()
    assert data == open(threaded, "rb").read()


def test_run_fig3_mini(tmp_path, mini_config):
    config = dataclasses.replace(mini_config, n_dims_grid=(8,))
    rows, path = harness.run_fig3(config, out_dir=tmp_path)
    assert path == str(tmp_path / "fig3_k2.csv")
    labels = [r.algorithm for r in rows]
    assert labels == [
        "crossover", "exhaustive", "mean_field", "mean_field_offspring", "offspring",
    ] * 2
    mean_field = rows[2]
    assert mean_field.evaluations == 2 * (4 * 30 + 40)
    stats = rows[3]
    assert stats.evaluations == 4 * 30 + 50
    assert stats.offspring_mean is not None
    if stats.theory_mean is not None:
        # mixture columns restate the smoothed landscape value at the vote point
        assert stats.theory_variance == pytest.approx(1.0 - stats.theory_mean**2)


def test_run_fig3_two_parents_falls_back_to_pairwise(tmp_path, mini_config):
    config = dataclasses.replace(mini_config, n_dims_grid=(8,), n_parents=2)
    rows, _ = harness.run_fig3(config, out_dir=tmp_path)
    mean_field = [r for r in rows if r.algorithm == "mean_field"][0]
    assert mean_field.evaluations == 2 * (2 * 30 + 40)
    assert mean_field.theory_mean is None


def test_run_fig3_match_budget_shrinks_pool(tmp_path, mini_config):
    config = dataclasses.replace(
        mini_config, n_dims_grid=(8,), n_instances=1, match_budget=True
    )
    rows, _ = harness.run_fig3(config, out_dir=tmp_path)
    mean_field = [r for r in rows if r.algorithm == "mean_field"][0]
    # four parent pools of (2 * 30) // 4 cost the same as two pools of 30
    assert mean_field.evaluations == 2 * (4 * 15 + 40)


def test_partial_results_flushed_on_failure(tmp_path, mini_config):
    calls = []

    def flaky_cell(config, n_dims, k):
        if len(calls) >= 1:
            raise RuntimeError("instance exploded")
        calls.append((n_dims, k))
        return harness._fig2_cell(config, n_dims, k)

    with pytest.raises(RuntimeError):
        harness._run_cells(mini_config, tmp_path, 1, flaky_cell, "part.csv")
    marker = tmp_path / "part.csv.incomplete"
    assert marker.exists() and "aborted" in marker.read_text()
    assert len(harness.read_rows(tmp_path / "part.csv")) == 4

    harness._run_cells(mini_config, tmp_path, 1, harness._fig2_cell, "part.csv")
    assert not marker.exists()
    assert len(harness.read_rows(tmp_path / "part.csv")) == 16


def test_interrupted_rerun_does_not_leave_old_table(tmp_path, mini_config):
    harness._run_cells(mini_config, tmp_path, 1, harness._fig2_cell, "t.csv")
    marker = tmp_path / "t.csv.incomplete"
    assert not marker.exists()
    assert len(harness.read_rows(tmp_path / "t.csv")) == 16
    calls = []

    def interrupted_cell(config, n_dims, k):
        if len(calls) >= 1:
            raise KeyboardInterrupt
        calls.append((n_dims, k))
        return harness._fig2_cell(config, n_dims, k)

    with pytest.raises(KeyboardInterrupt):
        harness._run_cells(mini_config, tmp_path, 1, interrupted_cell, "t.csv")
    assert marker.exists() and "aborted" in marker.read_text()
    assert len(harness.read_rows(tmp_path / "t.csv")) == 4
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv", "t.csv.incomplete"]


# ---------------------------------------------------------------------------
# plots


def test_emit_plot_rejects_bad_input(tmp_path):
    with pytest.raises(ValueError):
        cx.emit_plot([], "fig1", tmp_path / "x.svg")
    with pytest.raises(ValueError, match="no plottable rows"):
        cx.emit_plot([], "fig2", tmp_path / "x.svg")


def test_emit_plot_fig2(tmp_path, mini_config):
    rows, _ = harness.run_fig2(mini_config, out_dir=tmp_path)
    out = tmp_path / "fig2.svg"
    cx.emit_plot(rows, "fig2", out)
    text = out.read_text()
    assert text.startswith("<svg ") and text.rstrip().endswith("</svg>")
    for label in ("reference", "random_search", "crossover", "offspring"):
        assert f">{label}</text>" in text
    # every series has theory values at both dimensions, so four dashed lines
    assert text.count('<polyline class="theory"') == 4
    assert text.count('<circle class="point"') == 8

    again = tmp_path / "fig2_again.svg"
    cx.emit_plot(rows, "fig2", again)
    assert out.read_bytes() == again.read_bytes()


def test_emit_plot_single_dimension_has_no_lines(tmp_path, mini_config):
    config = dataclasses.replace(mini_config, n_dims_grid=(6,))
    rows, _ = harness.run_fig2(config, out_dir=tmp_path)
    out = tmp_path / "one.svg"
    cx.emit_plot(rows, "fig2", out)
    text = out.read_text()
    assert "<polyline" not in text
    assert text.count('<circle class="point"') == 4


def test_emit_plot_fig3_series(tmp_path, mini_config):
    config = dataclasses.replace(mini_config, n_dims_grid=(8,), n_instances=1)
    rows, _ = harness.run_fig3(config, out_dir=tmp_path)
    out = tmp_path / "fig3.svg"
    cx.emit_plot(rows, "fig3", out)
    text = out.read_text()
    for label in ("mean_field", "mean_field_offspring"):
        assert f">{label}</text>" in text
