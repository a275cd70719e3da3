import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crossearch as cx
from crossearch import search
from crossearch.search import RunningMoments
from crossearch.seeding import stream

from conftest import zero_cost_function


# ---------------------------------------------------------------------------
# streaming moments


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2, max_size=60
    )
)
def test_running_moments_match_numpy(values):
    arr = np.array(values)
    one_by_one = RunningMoments()
    for v in values:
        one_by_one.push(v)
    blocked = RunningMoments()
    blocked.push_block(arr[: len(values) // 2])
    blocked.push_block(arr[len(values) // 2 :])
    for stat in (one_by_one, blocked):
        assert stat.count == len(values)
        assert stat.mean == pytest.approx(arr.mean(), rel=1e-9, abs=1e-9)
        assert stat.variance == pytest.approx(arr.var(ddof=1), rel=1e-7, abs=1e-7)


def test_running_moments_degenerate():
    stat = RunningMoments()
    stat.push(3.0)
    assert stat.count == 1 and stat.mean == 3.0
    assert np.isnan(stat.variance)


# ---------------------------------------------------------------------------
# random search


def test_random_search_zero_function():
    result = cx.random_search(zero_cost_function(10, 2), 50, stream(0, 0))
    assert result.best_value == 0.0
    assert result.evaluations == 50
    assert result.stage_trace[-1][0] == "sample_min"


def test_random_search_exhausts_small_space():
    # with 2^20 draws over 2^12 states, missing the minimum is impossible
    cf = cx.sample_cost_function(12, 2, seed=77)
    _, exact = cx.exhaustive_min(cf)
    result = cx.random_search(cf, 2**20, stream(5, 0))
    assert result.best_value == pytest.approx(exact, abs=1e-12)


def test_random_search_determinism_and_consistency():
    cf = cx.sample_cost_function(16, 3, seed=4)
    a = cx.random_search(cf, 3000, stream(9, 0))
    b = cx.random_search(cf, 3000, stream(9, 0))
    assert a.best_value == b.best_value
    assert np.array_equal(a.best_state, b.best_state)
    assert cx.evaluate(cf, a.best_state) == pytest.approx(a.best_value, abs=1e-9)


# ---------------------------------------------------------------------------
# gradient descent


def test_gradient_descent_zero_function_stays_put():
    cf = zero_cost_function(8, 2)
    x0 = cx.random_states(8, 1, np.random.default_rng(1))[0]
    result = cx.gradient_descent(cf, x0)
    assert np.array_equal(result.best_state, x0)
    assert result.best_value == 0.0
    assert result.evaluations == 1


def test_gradient_descent_separable_case():
    cf = cx.sample_cost_function(12, 1, seed=8)
    linear = cf.order_block(1)
    target = (-np.sign(linear)).astype(np.int8)
    x0 = cx.random_states(12, 1, np.random.default_rng(2))[0]
    result = cx.gradient_descent(cf, x0)
    assert np.array_equal(result.best_state, target)
    assert result.best_value == pytest.approx(-np.abs(linear).sum(), abs=1e-12)
    flips = [t for t in result.stage_trace if t[0] == "flip"]
    assert len(flips) <= 12


def test_gradient_descent_trace_and_termination():
    cf = cx.sample_cost_function(14, 3, seed=6)
    x0 = cx.random_states(14, 1, np.random.default_rng(3))[0]
    result = cx.gradient_descent(cf, x0)
    values = [v for _, v in result.stage_trace]
    assert all(b < a for a, b in zip(values, values[1:]))
    # the end point admits no improving single flip
    deltas = [cx.flip_delta(cf, result.best_state, i) for i in range(14)]
    assert min(deltas) >= -1e-12
    flips = sum(1 for t in result.stage_trace if t[0] == "flip")
    assert result.extras["delta_evaluations"] == (flips + 1) * 14
    assert result.evaluations == 1


def test_gradient_descent_restarts_find_small_minima():
    found = 0
    for k in range(10):
        cf = cx.sample_cost_function(14, 2, seed=k)
        _, exact = cx.exhaustive_min(cf)
        run = cx.gradient_descent_restarts(cf, 1000, stream(1000 + k, 0))
        assert run.evaluations == 1000
        found += abs(run.best_value - exact) < 1e-9
    assert found >= 9


# ---------------------------------------------------------------------------
# crossover schemes


def test_scheme_identical_parents():
    x = cx.random_states(10, 1, np.random.default_rng(4))[0]
    scheme = cx.make_crossover_scheme([x, x])
    assert set(np.unique(scheme.selection_probability)) <= {0.0, 1.0}
    assert scheme.n_differing == 0
    assert scheme.schema_mask.all()


def test_scheme_opposite_parents():
    x = cx.random_states(10, 1, np.random.default_rng(5))[0]
    scheme = cx.make_crossover_scheme([x, -x])
    assert np.all(scheme.selection_probability == 0.5)
    assert scheme.n_differing == 10
    assert not scheme.schema_mask.any()


def test_scheme_four_parent_vote_table():
    parents = np.array(
        [
            [1, 1, 1, 1, -1],
            [1, 1, 1, -1, -1],
            [1, 1, -1, -1, -1],
            [1, -1, -1, -1, -1],
        ],
        dtype=np.int8,
    )
    scheme = cx.make_crossover_scheme(parents)
    assert np.allclose(scheme.selection_probability, [1.0, 0.75, 0.5, 0.25, 0.0])
    assert scheme.n_parents == 4


def test_scheme_validation():
    x = cx.random_states(6, 1, np.random.default_rng(6))[0]
    with pytest.raises(ValueError):
        cx.make_crossover_scheme([x])
    with pytest.raises(ValueError):
        cx.make_crossover_scheme([x, x[:5]])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_scheme_invariants(data):
    n = data.draw(st.integers(min_value=2, max_value=16), label="n")
    count = data.draw(st.integers(min_value=2, max_value=6), label="parents")
    bits = data.draw(
        st.lists(
            st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n),
            min_size=count,
            max_size=count,
        ),
        label="rows",
    )
    parents = np.array(bits, dtype=np.int8)
    scheme = cx.make_crossover_scheme(parents)
    votes = parents.sum(axis=0)
    assert np.allclose(scheme.selection_probability, votes / (2 * count) + 0.5)
    assert np.array_equal(scheme.schema_mask, np.abs(votes) == count)
    if count == 2:
        assert scheme.n_differing == int(
            np.sum((parents[0] - parents[1]) ** 2) // 4
        )


# ---------------------------------------------------------------------------
# offspring sampling


def test_offspring_deterministic_when_parents_agree():
    x = cx.random_states(12, 1, np.random.default_rng(7))[0]
    scheme = cx.make_crossover_scheme([x, x])
    child = cx.sample_offspring(scheme, stream(1, 0))
    assert np.array_equal(child, x)


def test_offspring_are_int8_signs():
    # drawn straight as int8, with the values of the documented draw order
    scheme = cx.make_crossover_scheme(cx.random_states(12, 4, np.random.default_rng(11)))
    block = search._offspring_block(scheme, 200, stream(4, 0))
    draws = stream(4, 0).random((200, 12))
    assert block.dtype == np.int8
    assert np.array_equal(block, np.where(draws < scheme.selection_probability, 1, -1))


def test_offspring_preserve_schema_positions():
    parents = cx.random_states(12, 2, np.random.default_rng(8))
    scheme = cx.make_crossover_scheme(parents)
    rng = stream(2, 0)
    mask = scheme.schema_mask
    for _ in range(1000):
        child = cx.sample_offspring(scheme, rng)
        assert np.array_equal(child[mask], parents[0][mask])


def test_offspring_frequencies_near_half_on_differing_positions():
    parents = cx.random_states(12, 2, np.random.default_rng(9))
    scheme = cx.make_crossover_scheme(parents)
    rng = stream(21, 0)
    samples = np.stack([cx.sample_offspring(scheme, rng) for _ in range(10**5)])
    freq = (samples[:, ~scheme.schema_mask] == 1).mean(axis=0)
    assert np.all(freq >= 0.48) and np.all(freq <= 0.52)


def test_offspring_per_position_variance():
    parents = cx.random_states(10, 4, np.random.default_rng(10))
    scheme = cx.make_crossover_scheme(parents)
    rng = stream(31, 0)
    samples = np.stack([cx.sample_offspring(scheme, rng) for _ in range(20000)])
    rho = scheme.selection_probability
    predicted = 4 * rho * (1 - rho)
    assert np.allclose(samples.var(axis=0), predicted, atol=0.05)
    assert predicted.max() <= 1.0  # maximized only by an even split


# ---------------------------------------------------------------------------
# selection + crossover protocols


def test_selection_crossover_zero_function_and_accounting():
    result = cx.selection_crossover(zero_cost_function(10, 2), 20, 30, 5, stream(3, 0))
    assert result.best_value == 0.0
    assert result.evaluations == 5 * (2 * 20 + 30)
    assert len(result.stage_trace) == 5
    assert 0.0 <= result.extras["mean_parent_distance"] <= 10


def test_selection_crossover_determinism():
    cf = cx.sample_cost_function(16, 2, seed=12)
    a = cx.selection_crossover(cf, 50, 50, 8, stream(4, 0))
    b = cx.selection_crossover(cf, 50, 50, 8, stream(4, 0))
    assert a.best_value == b.best_value
    assert np.array_equal(a.best_state, b.best_state)
    assert cx.evaluate(cf, a.best_state) == pytest.approx(a.best_value, abs=1e-9)


def test_mean_field_search_needs_three_parents():
    cf = cx.sample_cost_function(10, 2, seed=1)
    with pytest.raises(ValueError, match="selection_crossover"):
        cx.mean_field_search(cf, 2, 10, 10, 2, stream(0, 0))


def test_mean_field_search_accounting():
    cf = cx.sample_cost_function(12, 2, seed=2)
    result = cx.mean_field_search(cf, 4, 25, 40, 3, stream(6, 0))
    assert result.evaluations == 3 * (4 * 25 + 40)
    assert -cf.n_dims <= result.extras["mean_mixture_mean"] <= cf.n_dims
    assert cx.evaluate(cf, result.best_state) == pytest.approx(
        result.best_value, abs=1e-9
    )


def test_mean_field_offspring_mean_matches_extension():
    cf = cx.sample_cost_function(20, 2, seed=5)
    rng = stream(11, 0)
    parents = cx.select_parents(cf, 500, 4, rng)
    scheme = cx.make_crossover_scheme(parents)
    mean, variance = cx.offspring_statistics(cf, scheme, 4000, rng)
    mixture = cx.multilinear_extension(cf, 2.0 * scheme.selection_probability - 1.0)
    assert abs(mean - mixture) <= 3 * np.sqrt(variance / 4000)


# ---------------------------------------------------------------------------
# offspring statistics


def test_offspring_statistics_zero_function():
    scheme = cx.make_crossover_scheme(cx.random_states(8, 2, np.random.default_rng(12)))
    mean, variance = cx.offspring_statistics(
        zero_cost_function(8, 2), scheme, 100, stream(8, 0)
    )
    assert mean == 0.0 and variance == 0.0


def test_offspring_statistics_requires_two_samples():
    scheme = cx.make_crossover_scheme(cx.random_states(8, 2, np.random.default_rng(13)))
    cf = cx.sample_cost_function(8, 2, seed=3)
    with pytest.raises(ValueError):
        cx.offspring_statistics(cf, scheme, 1, stream(9, 0))


def test_offspring_statistics_fully_free_scheme_has_unit_variance():
    cf = cx.sample_cost_function(20, 2, seed=0)
    x = cx.random_states(20, 1, np.random.default_rng(50))[0]
    scheme = cx.make_crossover_scheme([x, -x])
    _, variance = cx.offspring_statistics(cf, scheme, 20000, stream(7, 0))
    assert variance == pytest.approx(1.0, abs=0.15)


def test_select_parents_are_pool_minimizers():
    cf = cx.sample_cost_function(10, 2, seed=9)
    parents = cx.select_parents(cf, 40, 2, stream(14, 0))
    assert len(parents) == 2 and all(p.shape == (10,) for p in parents)
    values = [cx.evaluate(cf, p) for p in parents]
    # each parent must at least beat a fresh uniform draw on average
    assert np.mean(values) < 0.0
