"""Random multilinear cost functions on the hypercube {-1, +1}^N.

A cost function is

    F(x) = sum_{alpha=1..K} sum_{i1<...<i_alpha} a_{i1...i_alpha} x_{i1}...x_{i_alpha}

with independent Gaussian coefficients; every coefficient of interaction order
alpha has variance ``order_variance[alpha-1]``, normalized so the variance of
F over uniform states is sum_alpha C(N, alpha) * sigma_alpha^2 = 1.

Coefficients are stored densely in canonical order: ascending interaction
order, and colexicographic within an order.  The colexicographic rank of a
0-based index tuple (i1 < ... < i_alpha) is C(i1,1) + C(i2,2) + ... +
C(i_alpha, alpha), which makes rank <-> tuple conversion O(alpha) and lets the
order-(alpha) product table extend the order-(alpha-1) table by one column.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

import numpy as np

__all__ = [
    "CostFunction",
    "uniform_order_variance",
    "sample_cost_function",
    "random_states",
    "validate_state",
    "coefficient_count",
    "evaluate",
    "evaluate_batch",
    "multilinear_extension",
    "flip_delta",
    "exhaustive_min",
    "save_cost_function",
    "load_cost_function",
]

#: Default build caps.  Dense storage of all C(N, alpha) coefficients is only
#: sensible at desk scale; pass explicit limits to go beyond.
DIM_LIMIT = 30
ORDER_LIMIT = 4
EXHAUSTIVE_LIMIT = 20

FORMAT_NAME = "crossearch-cost-function"
FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# index layout


class _Layout:
    """Index tables shared by every cost function of a given (N, K)."""

    def __init__(self, n_dims: int, max_order: int):
        self.n_dims = n_dims
        self.max_order = max_order
        # tuples[a-1]: (C(N,a), a) int32 array of index tuples in colex order.
        # prefix[a-1]/last[a-1]: the colex identity  tuple = tuples[a-2][prefix] + (last,).
        tuples = [np.arange(n_dims, dtype=np.int32)[:, None]]
        prefix: list[np.ndarray | None] = [None]
        last: list[np.ndarray | None] = [None]
        for a in range(2, max_order + 1):
            prev = tuples[-1]
            rows, pref, lst = [], [], []
            for top in range(a - 1, n_dims):
                c = comb(top, a - 1)  # colex: exactly the first c rows lie below `top`
                rows.append(np.hstack([prev[:c], np.full((c, 1), top, dtype=np.int32)]))
                pref.append(np.arange(c, dtype=np.int64))
                lst.append(np.full(c, top, dtype=np.int64))
            tuples.append(np.vstack(rows))
            prefix.append(np.concatenate(pref))
            last.append(np.concatenate(lst))
        self.tuples = tuples
        self.prefix = prefix
        self.last = last
        self.counts = [t.shape[0] for t in tuples]
        self.offsets = np.concatenate([[0], np.cumsum(self.counts)])
        self.total = int(self.offsets[-1])
        # per-variable tables: local rows per order, and global flat ranks
        self.bit_rows = [
            [np.nonzero((t == i).any(axis=1))[0] for t in tuples] for i in range(n_dims)
        ]
        self.bit_ranks = [
            np.concatenate(
                [rows + self.offsets[a] for a, rows in enumerate(self.bit_rows[i])]
            )
            for i in range(n_dims)
        ]


@lru_cache(maxsize=64)
def _layout(n_dims: int, max_order: int) -> _Layout:
    return _Layout(n_dims, max_order)


def coefficient_count(n_dims: int, max_order: int) -> int:
    """Number of coefficients of a dense (N, K) cost function."""
    return sum(comb(n_dims, a) for a in range(1, max_order + 1))


# ---------------------------------------------------------------------------
# the cost function itself


@dataclass(frozen=True, eq=False)
class CostFunction:
    """Immutable multilinear cost function with dense canonical coefficients."""

    n_dims: int
    max_order: int
    order_variance: np.ndarray
    coefficients: np.ndarray
    seed: int | None = None
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not 1 <= self.max_order <= self.n_dims:
            raise ValueError(
                f"need 1 <= max_order <= n_dims, got K={self.max_order}, N={self.n_dims}"
            )
        var = np.ascontiguousarray(np.asarray(self.order_variance, dtype=np.float64))
        if var.shape != (self.n_dims,):
            raise ValueError(
                f"order_variance must have length n_dims={self.n_dims}, got {var.shape}"
            )
        if (var < 0).any():
            raise ValueError("order_variance entries must be non-negative")
        if var[self.max_order :].any():
            raise ValueError("order_variance must vanish beyond max_order")
        norm = sum(comb(self.n_dims, a) * var[a - 1] for a in range(1, self.n_dims + 1))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"order variances must normalize to 1, got {norm!r}")
        coef = np.ascontiguousarray(np.asarray(self.coefficients, dtype=np.float64))
        total = coefficient_count(self.n_dims, self.max_order)
        if coef.shape != (total,):
            raise ValueError(f"expected {total} coefficients, got {coef.shape}")
        var.flags.writeable = False
        coef.flags.writeable = False
        object.__setattr__(self, "order_variance", var)
        object.__setattr__(self, "coefficients", coef)

    @property
    def layout(self) -> _Layout:
        return _layout(self.n_dims, self.max_order)

    def order_block(self, order: int) -> np.ndarray:
        """Coefficients of one interaction order, in colex order."""
        off = self.layout.offsets
        return self.coefficients[off[order - 1] : off[order]]


def uniform_order_variance(n_dims: int, max_order: int) -> np.ndarray:
    """Equal per-coefficient variance across all orders <= max_order."""
    var = np.zeros(n_dims)
    var[:max_order] = 1.0 / coefficient_count(n_dims, max_order)
    return var


def sample_cost_function(
    n_dims: int,
    max_order: int,
    seed: int,
    order_variance: np.ndarray | None = None,
    *,
    dim_limit: int = DIM_LIMIT,
    order_limit: int = ORDER_LIMIT,
) -> CostFunction:
    """Draw a random cost function with independent Gaussian coefficients.

    The default ``order_variance`` spreads variance uniformly over every
    coefficient up to ``max_order``.  Limits guard the dense representation;
    pass larger values explicitly to override.
    """
    if n_dims > dim_limit:
        raise ValueError(f"n_dims={n_dims} exceeds dim_limit={dim_limit}")
    if max_order > order_limit:
        raise ValueError(f"max_order={max_order} exceeds order_limit={order_limit}")
    if order_variance is None:
        order_variance = uniform_order_variance(n_dims, max_order)
    var = np.asarray(order_variance, dtype=np.float64)
    from .seeding import stream

    rng = stream(seed)
    draws = rng.standard_normal(coefficient_count(n_dims, max_order))
    scale = np.concatenate(
        [np.full(comb(n_dims, a), np.sqrt(var[a - 1])) for a in range(1, max_order + 1)]
    )
    return CostFunction(n_dims, max_order, var, draws * scale, seed=int(seed))


# ---------------------------------------------------------------------------
# states


def random_states(n_dims: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform i.i.d. states, one per row, as int8 in {-1, +1}."""
    return (2 * rng.integers(0, 2, size=(count, n_dims), dtype=np.int8) - 1).astype(
        np.int8
    )


def _as_signs(arr: np.ndarray) -> np.ndarray:
    # test the values before the cast: int8(255) would otherwise pass as -1
    if not (np.abs(arr) == 1).all():
        raise ValueError("state entries must be -1 or +1")
    return arr.astype(np.int8, copy=False)


def validate_state(x: np.ndarray, n_dims: int) -> np.ndarray:
    """Coerce to a 1-D int8 state vector, rejecting anything not in {-1,+1}^N."""
    arr = np.asarray(x)
    if arr.shape != (n_dims,):
        raise ValueError(f"state must have shape ({n_dims},), got {arr.shape}")
    return _as_signs(arr)


def _validate_batch(states: np.ndarray, n_dims: int) -> np.ndarray:
    arr = np.asarray(states)
    if arr.ndim != 2 or arr.shape[1] != n_dims:
        raise ValueError(f"state batch must be (rows, {n_dims}), got {arr.shape}")
    return _as_signs(arr)


# ---------------------------------------------------------------------------
# evaluation


def evaluate(cf: CostFunction, x: np.ndarray) -> float:
    """Exact float64 value of F(x) for a single state."""
    x = validate_state(x, cf.n_dims)
    total = 0.0
    for a, tup in enumerate(cf.layout.tuples, start=1):
        total += float(x[tup].prod(axis=1) @ cf.order_block(a))
    return total


def multilinear_extension(cf: CostFunction, z: np.ndarray) -> float:
    """F extended off the hypercube: same polynomial evaluated at z in [-1,1]^N.

    At a vertex this equals :func:`evaluate`; at the coordinatewise mean of a
    product distribution over states it equals the expected cost under it.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (cf.n_dims,):
        raise ValueError(f"point must have shape ({cf.n_dims},), got {z.shape}")
    if (np.abs(z) > 1.0 + 1e-12).any():
        raise ValueError("extension point must lie in [-1, 1]^N")
    total = 0.0
    for a, tup in enumerate(cf.layout.tuples, start=1):
        total += float(z[tup].prod(axis=1) @ cf.order_block(a))
    return total


def _pair_rank(j: np.ndarray, k: np.ndarray) -> np.ndarray:
    # colex rank of the pair (j < k): C(k,2) + C(j,1)
    return (k.astype(np.int64) * (k.astype(np.int64) - 1)) // 2 + j


#: Rows per block of :func:`evaluate_batch`: about 2^17 float64 entries (1 MB)
#: in its widest temporary, so each block's working set stays in cache.
_BLOCK_ELEMENTS = 1 << 17


def _eval_arrays(cf: CostFunction) -> dict:
    """Per-instance matrices behind the batched evaluator (built lazily)."""
    cached = cf._cache.get("eval")
    if cached is not None:
        return cached
    lay = cf.layout
    n, k = cf.n_dims, cf.max_order
    arrays: dict = {"a1": cf.order_block(1)}
    widest = n
    if k >= 2:
        t2 = lay.tuples[1]
        upper = np.zeros((n, n))
        upper[t2[:, 0], t2[:, 1]] = cf.order_block(2)
        arrays["order2"] = upper
    if k >= 3:
        arrays["i2a"] = t2[:, 0].astype(np.intp)
        arrays["i2b"] = t2[:, 1].astype(np.intp)
        widest = lay.counts[1]
    if 3 <= k <= 4:
        t3 = lay.tuples[2]
        a3 = np.zeros((n, lay.counts[1]))
        a3[t3[:, 0], _pair_rank(t3[:, 1], t3[:, 2])] = cf.order_block(3)
        arrays["order3"] = a3
    if k == 4:
        t4 = lay.tuples[3]
        a4 = np.zeros((lay.counts[1], lay.counts[1]))
        a4[_pair_rank(t4[:, 0], t4[:, 1]), _pair_rank(t4[:, 2], t4[:, 3])] = (
            cf.order_block(4)
        )
        arrays["order4"] = a4
    if k >= 5:  # generic chain: extend product tables one order at a time
        arrays["chain"] = [
            (lay.prefix[a - 1], lay.last[a - 1], cf.order_block(a))
            for a in range(3, k + 1)
        ]
        widest = max(lay.counts[1:])
    arrays["block_rows"] = max(1, _BLOCK_ELEMENTS // widest)
    cf._cache["eval"] = arrays
    return arrays


def evaluate_batch(
    cf: CostFunction, states: np.ndarray, *, block_rows: int | None = None
) -> np.ndarray:
    """F over a batch of states (one per row), vectorized and exact in float64.

    Order two is the quadratic form x^T U x with U the strictly upper
    triangular order-2 coefficients.  Orders three and four contract the pair
    products P against precomputed matrices, rowsum((x A3 + P A4) * P), and
    higher orders extend P one order at a time.  Rows are processed in blocks
    sized so the widest temporary holds about 2^17 entries; ``block_rows``
    overrides that choice.
    """
    states = _validate_batch(states, cf.n_dims)
    ev = _eval_arrays(cf)
    if block_rows is None:
        block_rows = ev["block_rows"]
    out = np.empty(states.shape[0], dtype=np.float64)
    for lo in range(0, states.shape[0], block_rows):
        x = states[lo : lo + block_rows].astype(np.float64)
        acc = x @ ev["a1"]
        if "order2" in ev:
            quad = x @ ev["order2"]
            quad *= x
            acc += quad.sum(axis=1)
        if "i2a" in ev:
            pairs = x[:, ev["i2a"]] * x[:, ev["i2b"]]
        if "order3" in ev:
            part = x @ ev["order3"]
            if "order4" in ev:
                part += pairs @ ev["order4"]
            part *= pairs
            acc += part.sum(axis=1)
        if "chain" in ev:
            table = pairs
            for prefix, last, coef in ev["chain"]:
                table = table[:, prefix] * x[:, last]
                acc += table @ coef
        out[lo : lo + block_rows] = acc
    return out


# ---------------------------------------------------------------------------
# single-bit structure


def flip_delta(cf: CostFunction, x: np.ndarray, i: int) -> float:
    """Cost change from flipping coordinate i: F(x with x_i negated) - F(x).

    Only the terms containing i change sign, so the delta is -2 times their
    current sum.
    """
    x = validate_state(x, cf.n_dims)
    if not 0 <= i < cf.n_dims:
        raise ValueError(f"coordinate {i} out of range for N={cf.n_dims}")
    lay = cf.layout
    acc = 0.0
    for a, rows in enumerate(lay.bit_rows[i], start=1):
        if rows.size:
            tup = lay.tuples[a - 1][rows]
            acc += float(x[tup].prod(axis=1) @ cf.order_block(a)[rows])
    return -2.0 * acc


def _term_signs(cf: CostFunction, x: np.ndarray) -> np.ndarray:
    """Product of state entries over every index tuple, flat canonical order."""
    return np.concatenate(
        [x[tup].prod(axis=1).astype(np.float64) for tup in cf.layout.tuples]
    )


def exhaustive_min(
    cf: CostFunction, *, dim_limit: int = EXHAUSTIVE_LIMIT
) -> tuple[np.ndarray, float]:
    """Exact global minimum by visiting all 2^N states.

    Walks the reflected Gray code so each step flips one bit and updates the
    cost by the corresponding single-bit delta; ties keep the state seen first
    in traversal order.
    """
    n = cf.n_dims
    if n > dim_limit:
        raise ValueError(f"exhaustive search limited to N <= {dim_limit}, got {n}")
    lay = cf.layout
    signs = np.ones(lay.total, dtype=np.float64)  # start at the all-ones state
    ranks = lay.bit_ranks
    coef_by_bit = [cf.coefficients[r] for r in ranks]
    value = float(cf.coefficients.sum())
    best_value, best_mask = value, 0
    for step in range(1, 1 << n):
        bit = (step & -step).bit_length() - 1
        idx = ranks[bit]
        value -= 2.0 * float(coef_by_bit[bit] @ signs[idx])
        signs[idx] = -signs[idx]
        if value < best_value:
            best_value, best_mask = value, step ^ (step >> 1)
    bits = (best_mask >> np.arange(n)) & 1
    state = (1 - 2 * bits).astype(np.int8)
    return state, evaluate(cf, state)


# ---------------------------------------------------------------------------
# serialization


def save_cost_function(cf: CostFunction, path) -> None:
    """Write a self-describing file that round-trips coefficients exactly."""
    with open(path, "wb") as fh:
        np.savez(
            fh,
            format_name=FORMAT_NAME,
            format_version=FORMAT_VERSION,
            n_dims=cf.n_dims,
            max_order=cf.max_order,
            seed=-1 if cf.seed is None else cf.seed,
            order_variance=cf.order_variance,
            coefficients=cf.coefficients,
        )


def load_cost_function(path) -> CostFunction:
    with np.load(path) as data:
        if "format_name" not in data.files or str(data["format_name"]) != FORMAT_NAME:
            raise ValueError(f"{path}: not a {FORMAT_NAME} file")
        if int(data["format_version"]) != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported format version")
        seed = int(data["seed"])
        return CostFunction(
            n_dims=int(data["n_dims"]),
            max_order=int(data["max_order"]),
            order_variance=data["order_variance"],
            coefficients=data["coefficients"],
            seed=None if seed < 0 else seed,
        )
