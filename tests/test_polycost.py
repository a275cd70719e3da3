import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crossearch as cx
from crossearch import polycost
from crossearch.polycost import ORDER_LIMIT

from conftest import enumerate_all, naive_min, naive_value, zero_cost_function


# ---------------------------------------------------------------------------
# layout and sampling


def test_coefficient_counts():
    assert cx.coefficient_count(30, 2) == 465
    assert cx.coefficient_count(30, 4) == 31930
    assert cx.coefficient_count(14, 4) == 1470
    assert cx.coefficient_count(5, 5) == 31


def test_uniform_order_variance_normalization():
    for n, k in ((10, 1), (20, 2), (30, 4)):
        var = cx.uniform_order_variance(n, k)
        assert var.shape == (n,)
        assert np.all(var[k:] == 0.0)
        # normalization: binomial-weighted variances sum to one
        total = sum(var[a - 1] * math.comb(n, a) for a in range(1, n + 1))
        assert total == pytest.approx(1.0, abs=1e-12)
    assert cx.uniform_order_variance(30, 2)[0] == pytest.approx(1 / 465)


def test_sample_cost_function_shape_and_determinism():
    cf = cx.sample_cost_function(12, 3, seed=5)
    assert cf.n_dims == 12 and cf.max_order == 3 and cf.seed == 5
    assert cf.coefficients.shape == (cx.coefficient_count(12, 3),)
    again = cx.sample_cost_function(12, 3, seed=5)
    assert np.array_equal(cf.coefficients, again.coefficients)
    other = cx.sample_cost_function(12, 3, seed=6)
    assert not np.array_equal(cf.coefficients, other.coefficients)


def test_sample_limits():
    with pytest.raises(ValueError):
        cx.sample_cost_function(31, 2, seed=0)
    with pytest.raises(ValueError):
        cx.sample_cost_function(20, ORDER_LIMIT + 1, seed=0)
    # both caps are adjustable for small studies
    cf = cx.sample_cost_function(8, 6, seed=0, order_limit=8)
    assert cf.max_order == 6


def test_cost_function_validation():
    variance = cx.uniform_order_variance(6, 2)
    count = cx.coefficient_count(6, 2)
    with pytest.raises(ValueError):
        cx.CostFunction(6, 2, variance * 2.0, np.zeros(count))  # not normalized
    with pytest.raises(ValueError):
        cx.CostFunction(6, 2, variance, np.zeros(count - 1))  # wrong length
    bad = variance.copy()
    bad[4] = bad[0]  # nonzero beyond max_order
    with pytest.raises(ValueError):
        cx.CostFunction(6, 2, bad, np.zeros(count))
    with pytest.raises(ValueError):
        cx.CostFunction(6, 0, variance, np.zeros(count))


def test_cost_function_is_read_only():
    cf = cx.sample_cost_function(6, 2, seed=1)
    with pytest.raises(ValueError):
        cf.coefficients[0] = 1.0


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_two_dims_by_hand():
    variance = cx.uniform_order_variance(2, 2)
    cf = cx.CostFunction(2, 2, variance, np.array([0.5, -1.5, 2.0]))
    expected = {
        (1, 1): 0.5 - 1.5 + 2.0,
        (-1, 1): -0.5 - 1.5 - 2.0,
        (1, -1): 0.5 + 1.5 - 2.0,
        (-1, -1): -0.5 + 1.5 + 2.0,
    }
    for state, value in expected.items():
        assert cx.evaluate(cf, np.array(state, dtype=np.int8)) == pytest.approx(value)


def test_evaluate_zero_function():
    cf = zero_cost_function(9, 3)
    x = cx.random_states(9, 1, np.random.default_rng(0))[0]
    assert cx.evaluate(cf, x) == 0.0


@pytest.mark.parametrize("n_dims,max_order", [(6, 1), (8, 2), (9, 3), (10, 4)])
def test_evaluate_matches_naive_oracle(n_dims, max_order):
    cf = cx.sample_cost_function(n_dims, max_order, seed=13)
    rng = np.random.default_rng(7)
    for x in cx.random_states(n_dims, 12, rng):
        assert cx.evaluate(cf, x) == pytest.approx(naive_value(cf, x), abs=1e-10)


@pytest.mark.parametrize(
    "n_dims,max_order",
    [(6, 1), (10, 2), (11, 3), (12, 4), (9, 6),
     (4, 4), (5, 4), (20, 3), (20, 4), (30, 3), (30, 4)],
)
def test_evaluate_batch_matches_single(n_dims, max_order):
    cf = cx.sample_cost_function(n_dims, max_order, seed=21, order_limit=8)
    states = cx.random_states(n_dims, 64, np.random.default_rng(3))
    batch = cx.evaluate_batch(cf, states)
    single = np.array([cx.evaluate(cf, x) for x in states])
    np.testing.assert_allclose(batch, single, rtol=0, atol=1e-12)


def test_evaluate_batch_blocking_is_invisible():
    # one call crosses two internal block boundaries; calls of 7 rows stay
    # within one block each
    cf = cx.sample_cost_function(10, 3, seed=2)
    block = polycost._eval_arrays(cf)["block_rows"]
    states = cx.random_states(10, 2 * block + 5, np.random.default_rng(4))
    np.testing.assert_allclose(
        np.concatenate(
            [cx.evaluate_batch(cf, states[lo : lo + 7]) for lo in range(0, len(states), 7)]
        ),
        cx.evaluate_batch(cf, states),
        rtol=0,
        atol=1e-12,
    )


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_evaluate_batch_exact_across_blocks(data):
    # orders 1..2 take the dense kernels, 3..4 the staircase (up to the
    # default dimension cap), order 5 the generic chain
    k = data.draw(st.integers(min_value=1, max_value=5), label="k")
    top = polycost.DIM_LIMIT if k in (3, 4) else 14
    n = data.draw(st.integers(min_value=max(k, 3), max_value=top), label="n")
    seed = data.draw(st.integers(min_value=0, max_value=1000), label="seed")
    cf = cx.sample_cost_function(n, k, seed=seed, order_limit=5)
    block = polycost._eval_arrays(cf)["block_rows"]
    count = data.draw(st.integers(min_value=block + 1, max_value=2 * block + 3))
    states = cx.random_states(n, count, np.random.default_rng(seed))
    # evaluate each distinct row once; small n repeats rows many times over
    distinct, where = np.unique(states, axis=0, return_inverse=True)
    single = np.array([cx.evaluate(cf, x) for x in distinct])[where.ravel()]
    np.testing.assert_allclose(
        cx.evaluate_batch(cf, states), single, rtol=0, atol=1e-12
    )


@pytest.mark.parametrize("n_dims", [20, 30])
def test_staircase_skips_the_zero_blocks(n_dims):
    # every order-3/4 coefficient sits in exactly one product, and the
    # products multiply few zeros besides them
    cf = cx.sample_cost_function(n_dims, 4, seed=0)
    coefs = [coef for *_, coef in polycost._eval_arrays(cf)["stair"]["groups"]]
    terms = math.comb(n_dims, 3) + math.comb(n_dims, 4)
    assert sum(np.count_nonzero(c) for c in coefs) == terms
    assert sum(c.size for c in coefs) <= 1.5 * terms


def test_evaluate_batch_rejects_values_that_wrap_to_signs():
    cf = cx.sample_cost_function(3, 2, seed=0)
    assert cx.evaluate_batch(cf, np.array([[1, -1, 1], [-1, -1, 1]])).shape == (2,)
    for bad in (255, 257, -129, 1.5):
        with pytest.raises(ValueError):
            cx.evaluate_batch(cf, np.array([[1, -1, 1], [bad, -1, 1]]))


def test_validate_state_errors():
    with pytest.raises(ValueError):
        cx.validate_state([1, -1, 0], 3)
    with pytest.raises(ValueError):
        cx.validate_state([1, -1], 3)
    with pytest.raises(ValueError):
        cx.validate_state([[1, -1]], 2)
    # values that an int8 cast would turn into +-1 are rejected too
    for bad in ([255, -1, 1], [257, -1, 1], [1.5, -1, 1], [1, -1, -255]):
        with pytest.raises(ValueError):
            cx.validate_state(bad, 3)
    with pytest.raises(ValueError):
        cx.validate_state(np.array([255, 1, 1], dtype=np.uint8), 3)
    out = cx.validate_state([1, -1, 1], 3)
    assert out.dtype == np.int8


def test_random_states_are_signs():
    states = cx.random_states(15, 200, np.random.default_rng(11))
    assert states.shape == (200, 15) and states.dtype == np.int8
    assert set(np.unique(states)) == {-1, 1}
    # one int8 bit draw per entry, so seeded streams stay reproducible
    bits = np.random.default_rng(11).integers(0, 2, size=(200, 15), dtype=np.int8)
    assert np.array_equal(states, 2 * bits.astype(np.int64) - 1)


# ---------------------------------------------------------------------------
# flip deltas and the multilinear extension


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_flip_delta_matches_evaluate(data):
    n = data.draw(st.integers(min_value=2, max_value=10), label="n")
    k = data.draw(st.integers(min_value=1, max_value=min(n, 4)), label="k")
    seed = data.draw(st.integers(min_value=0, max_value=1000), label="seed")
    i = data.draw(st.integers(min_value=0, max_value=n - 1), label="i")
    cf = cx.sample_cost_function(n, k, seed=seed)
    x = cx.random_states(n, 1, np.random.default_rng(seed + 1))[0]
    flipped = x.copy()
    flipped[i] = -flipped[i]
    assert cx.flip_delta(cf, x, i) == pytest.approx(
        cx.evaluate(cf, flipped) - cx.evaluate(cf, x), abs=1e-9
    )


def test_multilinear_extension_matches_evaluate_at_corners():
    cf = cx.sample_cost_function(9, 3, seed=17)
    for x in cx.random_states(9, 8, np.random.default_rng(1)):
        assert cx.multilinear_extension(cf, x.astype(float)) == pytest.approx(
            cx.evaluate(cf, x), abs=1e-10
        )


def test_multilinear_extension_center_and_domain():
    cf = cx.sample_cost_function(7, 2, seed=3)
    assert cx.multilinear_extension(cf, np.zeros(7)) == 0.0
    with pytest.raises(ValueError):
        cx.multilinear_extension(cf, np.full(7, 1.5))


def test_multilinear_extension_is_affine_per_coordinate():
    cf = cx.sample_cost_function(8, 3, seed=23)
    rng = np.random.default_rng(5)
    z = rng.uniform(-1, 1, size=8)
    lo, mid, hi = z.copy(), z.copy(), z.copy()
    lo[2], mid[2], hi[2] = -0.6, 0.1, 0.8
    f = lambda v: cx.multilinear_extension(cf, v)
    expected = f(lo) + (f(hi) - f(lo)) * (0.1 - (-0.6)) / (0.8 - (-0.6))
    assert f(mid) == pytest.approx(expected, abs=1e-9)


# ---------------------------------------------------------------------------
# exhaustive enumeration


@pytest.mark.parametrize(
    "n_dims,max_order,seed",
    [
        (4, 2, 0), (6, 3, 1), (8, 4, 2), (10, 2, 3),
        (1, 1, 4), (3, 3, 5), (5, 4, 6), (7, 2, 7), (9, 3, 8),
    ],
)
def test_exhaustive_min_matches_full_enumeration(n_dims, max_order, seed):
    cf = cx.sample_cost_function(n_dims, max_order, seed=seed)
    state, value = cx.exhaustive_min(cf)
    oracle_state, oracle_value = naive_min(cf)
    assert value == pytest.approx(oracle_value, abs=1e-9)
    assert np.array_equal(state, oracle_state)
    assert cx.evaluate(cf, state) == pytest.approx(value, abs=1e-12)


def test_exhaustive_min_zero_function_first_seen_tie_break():
    cf = zero_cost_function(6, 2)
    state, value = cx.exhaustive_min(cf)
    assert value == 0.0
    assert np.array_equal(state, np.ones(6, dtype=np.int8))


@settings(max_examples=40, deadline=None)
@given(
    n_dims=st.integers(1, 12),
    order=st.integers(1, ORDER_LIMIT),
    seed=st.integers(0, 2**31 - 1),
)
def test_exhaustive_min_equals_oracle(n_dims, order, seed):
    cf = cx.sample_cost_function(n_dims, min(order, n_dims), seed=seed)
    state, value = cx.exhaustive_min(cf)
    oracle_state, oracle_value = naive_min(cf)
    assert np.array_equal(state, oracle_state)
    assert value == pytest.approx(oracle_value, rel=0, abs=1e-12)


@pytest.mark.parametrize("n_dims,max_order,var", [(6, 2, 5), (18, 1, 0)])
def test_exhaustive_min_ties_keep_lowest_code(n_dims, max_order, var):
    # F = x_var: every state with x_var = -1 ties, and the lowest code sets only
    # that bit; at N=18 the tied states span several blocks of high halves
    coefficients = np.zeros(cx.coefficient_count(n_dims, max_order))
    coefficients[var] = 1.0
    variance = cx.uniform_order_variance(n_dims, max_order)
    cf = cx.CostFunction(n_dims, max_order, variance, coefficients)
    state, value = cx.exhaustive_min(cf)
    expected = np.ones(n_dims, dtype=np.int8)
    expected[var] = -1
    assert value == -1.0
    assert np.array_equal(state, expected)
    assert np.array_equal(state, naive_min(cf)[0])


def test_exhaustive_min_beyond_twenty_dims():
    cf = cx.sample_cost_function(22, 2, seed=0)
    state, value = cx.exhaustive_min(cf)
    assert value == cx.evaluate(cf, state)
    sampled = cx.evaluate_batch(cf, cx.random_states(22, 4096, np.random.default_rng(0)))
    assert value <= sampled.min()


def test_exhaustive_min_respects_dimension_cap():
    n_dims = polycost.EXHAUSTIVE_LIMIT + 1
    cf = cx.sample_cost_function(n_dims, 2, seed=0)
    with pytest.raises(ValueError):
        cx.exhaustive_min(cf)
    # the cap is explicit and adjustable
    cf_small = cx.sample_cost_function(8, 2, seed=0)
    cx.exhaustive_min(cf_small, dim_limit=8)


# ---------------------------------------------------------------------------
# serialization


def test_save_load_round_trip(tmp_path):
    cf = cx.sample_cost_function(14, 4, seed=99)
    path = tmp_path / "instance.npz"
    cx.save_cost_function(cf, path)
    back = cx.load_cost_function(path)
    assert back.n_dims == cf.n_dims and back.max_order == cf.max_order
    assert back.seed == cf.seed
    assert np.array_equal(back.coefficients, cf.coefficients)
    assert np.array_equal(back.order_variance, cf.order_variance)
    x = cx.random_states(14, 1, np.random.default_rng(0))[0]
    assert cx.evaluate(back, x) == cx.evaluate(cf, x)


def test_save_load_without_seed(tmp_path):
    cf = zero_cost_function(5, 2)
    path = tmp_path / "zero.npz"
    cx.save_cost_function(cf, path)
    assert cx.load_cost_function(path).seed is None


def test_load_rejects_foreign_files(tmp_path):
    path = tmp_path / "other.npz"
    np.savez(path, a=np.arange(3))
    with pytest.raises(ValueError):
        cx.load_cost_function(path)
