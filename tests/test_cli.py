import io
import json

import numpy as np
import pytest

import crossearch as cx
from crossearch import evt
from crossearch.cli import main
from crossearch.seeding import stream


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


@pytest.fixture
def saved_cost(tmp_path, capsys):
    path = str(tmp_path / "instance.npz")
    code, out, _ = run_cli(capsys, "gen", "--n", "10", "--k", "2", "--seed", "5",
                           "--out", path)
    assert code == 0
    return path, json_lines(out)[0]


# ---------------------------------------------------------------------------
# gen / eval


def test_gen_reports_instance_shape(saved_cost):
    _, payload = saved_cost
    assert payload["n_dims"] == 10
    assert payload["max_order"] == 2
    assert payload["seed"] == 5
    assert payload["coefficients"] == 10 + 45


def test_eval_matches_library(saved_cost, capsys):
    path, _ = saved_cost
    cf = cx.load_cost_function(path)
    state = cx.random_states(10, 1, np.random.default_rng(3))[0]
    text = " ".join(str(int(v)) for v in state)
    code, out, _ = run_cli(capsys, "eval", "--cost", path, "--state", text)
    assert code == 0
    assert json_lines(out)[0]["value"] == pytest.approx(
        cx.evaluate(cf, state), abs=1e-12
    )


def test_eval_reads_stdin(saved_cost, capsys, monkeypatch):
    path, _ = saved_cost
    monkeypatch.setattr("sys.stdin", io.StringIO("1, -1, 1, 1, -1, 1, -1, -1, 1, 1"))
    code, out, _ = run_cli(capsys, "eval", "--cost", path)
    assert code == 0
    assert "value" in json_lines(out)[0]


@pytest.mark.parametrize(
    "state",
    [
        "1 -1",
        "1 2 1 1 1 1 1 1 1 1",
        "a b c",
        "1 " * 11,
        "255 -1 1 1 1 1 1 1 1 1",
        "257 -1 1 1 1 1 1 1 1 1",
        "1.5 -1 1 1 1 1 1 1 1 1",
    ],
)
def test_eval_rejects_bad_states(saved_cost, capsys, state):
    path, _ = saved_cost
    code, _, err = run_cli(capsys, "eval", "--cost", path, "--state", state)
    assert code == 2
    assert "error:" in err


def test_eval_missing_file_is_config_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "eval", "--cost", str(tmp_path / "nope.npz"),
                           "--state", "1 -1")
    assert code == 2


# ---------------------------------------------------------------------------
# search


def test_search_random_matches_library(saved_cost, capsys):
    path, _ = saved_cost
    cf = cx.load_cost_function(path)
    code, out, _ = run_cli(capsys, "search", "random", "--cost", path,
                           "--samples", "2000", "--seed", "9")
    assert code == 0
    payload = json_lines(out)[0]
    expected = cx.random_search(cf, 2000, stream(9, 0))
    assert payload["algorithm"] == "random"
    assert payload["best_value"] == pytest.approx(expected.best_value, abs=1e-12)
    assert payload["evaluations"] == 2000
    assert payload["best_state"] == [int(v) for v in expected.best_state]


def test_search_descent_on_sampled_instance(capsys):
    code, out, _ = run_cli(capsys, "search", "descent", "--n", "12", "--k", "2",
                           "--instance-seed", "3", "--restarts", "50")
    assert code == 0
    payload = json_lines(out)[0]
    assert payload["evaluations"] == 50
    assert set(payload["best_state"]) <= {-1, 1}
    assert "delta_evaluations" in payload


def test_search_crossover_and_mean_field(capsys):
    common = ["--n", "12", "--k", "2", "--pool", "40", "--offspring-pool", "30",
              "--repeats", "3"]
    code, out, _ = run_cli(capsys, "search", "crossover", *common)
    assert code == 0
    payload = json_lines(out)[0]
    assert payload["evaluations"] == 3 * (2 * 40 + 30)
    assert "mean_parent_distance" in payload

    code, out, _ = run_cli(capsys, "search", "mean_field", *common,
                           "--n-parents", "4")
    assert code == 0
    payload = json_lines(out)[0]
    assert payload["evaluations"] == 3 * (4 * 40 + 30)
    assert "mean_mixture_mean" in payload


def test_search_requires_an_instance(capsys):
    code, _, err = run_cli(capsys, "search", "random")
    assert code == 2
    assert "provide --cost" in err


def test_search_unknown_algorithm_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "search", "annealing", "--n", "8", "--k", "2")
    assert code == 2


# ---------------------------------------------------------------------------
# theory


def test_theory_matches_library_values(capsys):
    code, out, _ = run_cli(capsys, "theory", "--n", "30", "--k", "2",
                           "--m", "1000", "--target", "-3.0",
                           "--mixture-mean", "-0.5")
    assert code == 0
    by_name = {line["predictor"]: line for line in json_lines(out)}

    assert by_name["global_min_estimate"]["value"] == pytest.approx(
        evt.global_min_estimate(30)
    )
    base = evt.GaussianSpec(0.0, 1.0)
    for form in ("exact", "approximate"):
        spec = evt.min_distribution(base, 1000, form)
        line = by_name[f"min_distribution_{form}"]
        assert line["mean"] == pytest.approx(spec.mean)
        assert line["variance"] == pytest.approx(spec.variance)
    assert by_name["required_iterations"]["value"] == pytest.approx(
        evt.required_iterations(-3.0, base)
    )

    params = evt.theory_params(30, cx.uniform_order_variance(30, 2))
    line = by_name["theory_params"]
    assert line["schema_strength"] == pytest.approx(params.schema_strength)
    assert line["gain"] == pytest.approx(params.gain)
    assert line["cost_base"] == pytest.approx(params.cost_base)
    assert line["n_differing"] == params.n_differing
    assert line["predicted_total_cost"] == pytest.approx(
        params.predicted_total_cost(30)
    )

    for name, fn in (
        ("offspring_distribution", evt.offspring_distribution),
        ("offspring_min_distribution", evt.offspring_min_distribution),
    ):
        spec = fn(params, 1000)
        assert by_name[name]["mean"] == pytest.approx(spec.mean)
        assert by_name[name]["variance"] == pytest.approx(spec.variance)

    mix = evt.mixture_prediction(-0.5, 1000)
    line = by_name["mixture_prediction"]
    assert line["min_estimate"] == pytest.approx(mix.min_estimate)
    assert line["offspring_variance"] == pytest.approx(mix.offspring_variance)


def test_theory_off_domain_exits_three(capsys):
    code, _, err = run_cli(capsys, "theory", "--n", "30", "--m", "2")
    assert code == 3
    assert "error:" in err


# ---------------------------------------------------------------------------
# experiments / plots


def write_mini_config(tmp_path):
    path = tmp_path / "mini.cfg"
    path.write_text(
        "n_dims_grid = 6 8\n"
        "n_instances = 2\n"
        "random_samples = 500\n"
        "pool = 30\n"
        "offspring_pool = 40\n"
        "repeats = 2\n"
        "gd_restarts = 10\n"
        "offspring_samples = 50\n"
        "master_seed = 42\n"
    )
    return str(path)


def test_fig2_runs_and_plots(tmp_path, capsys):
    config = write_mini_config(tmp_path)
    code, out, _ = run_cli(capsys, "fig2", "--config", config,
                           "--out", str(tmp_path / "run"))
    assert code == 0
    payload = json_lines(out)[0]
    assert payload["rows"] == 16
    table = payload["path"]

    svg = str(tmp_path / "fig2.svg")
    code, out, _ = run_cli(capsys, "plot", "--table", table, "--kind", "fig2",
                           "--out", svg)
    assert code == 0
    assert open(svg).read().startswith("<svg ")


def test_fig2_threads_and_seed_override(tmp_path, capsys):
    config = write_mini_config(tmp_path)
    code, out1, _ = run_cli(capsys, "fig2", "--config", config,
                            "--out", str(tmp_path / "a"))
    assert code == 0
    code, out2, _ = run_cli(capsys, "fig2", "--config", config, "--threads", "2",
                            "--out", str(tmp_path / "b"))
    assert code == 0
    path1 = json_lines(out1)[0]["path"]
    path2 = json_lines(out2)[0]["path"]
    assert open(path1, "rb").read() == open(path2, "rb").read()

    code, out3, _ = run_cli(capsys, "fig2", "--config", config, "--seed", "43",
                            "--out", str(tmp_path / "c"))
    assert code == 0
    path3 = json_lines(out3)[0]["path"]
    assert open(path1, "rb").read() != open(path3, "rb").read()


def test_fig3_with_config(tmp_path, capsys):
    config = write_mini_config(tmp_path)
    code, out, _ = run_cli(capsys, "fig3", "--config", config,
                           "--out", str(tmp_path / "run"))
    assert code == 0
    payload = json_lines(out)[0]
    assert payload["rows"] == 5 * 2 * 2
    assert payload["path"].endswith("fig3_k2.csv")


def test_bad_config_key_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("sample_count = 5\n")
    code, _, err = run_cli(capsys, "fig2", "--config", str(bad),
                           "--out", str(tmp_path))
    assert code == 2
    assert "unknown key" in err


def test_plot_missing_table_exits_two(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "plot", "--table", str(tmp_path / "no.csv"),
                         "--kind", "fig2", "--out", str(tmp_path / "x.svg"))
    assert code == 2


def test_usage_errors_exit_two(capsys):
    assert run_cli(capsys, "gen", "--n", "10")[0] == 2
    assert run_cli(capsys)[0] == 2
    assert run_cli(capsys, "frobnicate")[0] == 2
