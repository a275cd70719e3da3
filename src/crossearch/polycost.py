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
EXHAUSTIVE_LIMIT = 24

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
    states = rng.integers(0, 2, size=(count, n_dims), dtype=np.int8)
    states *= 2
    states -= 1
    return states


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


#: Rows per block of :func:`evaluate_batch`: about 2^17 float64 entries (1 MB)
#: in its widest temporary, so each block's working set stays in cache.
_BLOCK_ELEMENTS = 1 << 17

#: Modeled cost of one product of the order-3/4 staircase, in multiply-adds per
#: state.  Small products run far below the BLAS peak, so a product is worth
#: merging with its neighbour until the zeros it then multiplies cost more.
_PRODUCT_COST = 512


def _staircase_edges(n_dims: int, start: np.ndarray) -> list[int]:
    """Group edges over the top index j of the low pairs (see evaluate_batch).

    A group of tops [j0, j1) costs its C(j1,2) - C(j0,2) output rows times
    its input suffix, plus ``_PRODUCT_COST``; the edges minimize the total.
    """
    top = n_dims - 1  # tops 1 .. n-2 have inputs
    best = np.zeros(top + 1)
    follow = np.full(top + 1, top)
    for j0 in range(top - 1, 0, -1):
        suffix = start[-1] - start[j0 + 1]
        costs = [
            suffix * (comb(j1, 2) - comb(j0, 2)) + _PRODUCT_COST + best[j1]
            for j1 in range(j0 + 1, top + 1)
        ]
        follow[j0] = j0 + 1 + int(np.argmin(costs))
        best[j0] = min(costs)
    edges = [1]
    while edges[-1] < top:
        edges.append(int(follow[edges[-1]]))
    return edges


def _staircase(cf: CostFunction) -> dict:
    """The order-3/4 coefficients as one product per group of low pairs."""
    n, quartic = cf.n_dims, cf.max_order == 4
    # inputs z: x_m at order 3; at order 4 the pairs x_m x_l (l > m) and then
    # x_m itself, as x_m times a constant 1.  Ordered by lowest index m, so
    # start[m] begins the suffix m, m+1, ...; m >= 2, as every top is >= 1.
    lengths = n - np.arange(n) if quartic else np.ones(n, dtype=np.int64)
    lengths[:2] = 0
    start = np.concatenate([[0], np.cumsum(lengths)])
    # outputs: the low pairs (i, j) with j <= n - 2, in colex order
    i, j, k = cf.layout.tuples[2].astype(np.int64).T
    inputs = start[k] + (n - 1 - k if quartic else 0)
    table = np.zeros((comb(n - 1, 2), int(start[-1])))
    table[j * (j - 1) // 2 + i, inputs] = cf.order_block(3)
    if quartic:
        i, j, k, l = cf.layout.tuples[3].astype(np.int64).T
        table[j * (j - 1) // 2 + i, start[k] + l - k - 1] = cf.order_block(4)
    edges = _staircase_edges(n, start)
    groups = []
    for j0, j1 in zip(edges[:-1], edges[1:]):
        r0, r1, s = comb(j0, 2), comb(j1, 2), int(start[j0 + 1])
        groups.append((r0, r1, s, np.ascontiguousarray(table[r0:r1, s:])))
    return {"groups": groups, "start": start, "quartic": quartic, "shape": table.shape}


def _staircase_block(stair: dict, x: np.ndarray) -> np.ndarray:
    """Order-3/4 part of F on the rows of x (float64, one state per row).

    Works on transposed tables, one row per variable or pair, so every slice
    below is contiguous.
    """
    rows, n = x.shape
    ext = np.empty((n + 1, rows))
    ext[:n] = x.T
    ext[n] = 1.0
    start = stair["start"]
    if stair["quartic"]:
        z = np.empty((int(start[-1]), rows))
        for m in range(2, n):
            np.multiply(ext[m + 1 :], ext[m], out=z[start[m] : start[m + 1]])
    else:
        z = ext[2:n]
    part = np.empty((stair["shape"][0], rows))
    for r0, r1, s, coef in stair["groups"]:
        np.matmul(coef, z[s:], out=part[r0:r1])
    # sum over (i, j) of x_i x_j part_ij, one top j at a time
    total = np.zeros(rows)
    for j in range(1, n - 1):
        low = part[j * (j - 1) // 2 : j * (j + 1) // 2]
        total += ext[j] * np.einsum("ij,ij->j", low, ext[:j])
    return total


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
    if 3 <= k <= 4:
        arrays["stair"] = _staircase(cf)
        widest = max(n + 1, *arrays["stair"]["shape"])
    if k >= 5:  # generic chain: extend product tables one order at a time
        arrays["i2a"] = lay.tuples[1][:, 0].astype(np.intp)
        arrays["i2b"] = lay.tuples[1][:, 1].astype(np.intp)
        arrays["chain"] = [
            (lay.prefix[a - 1], lay.last[a - 1], cf.order_block(a))
            for a in range(3, k + 1)
        ]
        widest = max(lay.counts[1:])
    arrays["block_rows"] = max(1, _BLOCK_ELEMENTS // widest)
    cf._cache["eval"] = arrays
    return arrays


def evaluate_batch(cf: CostFunction, states: np.ndarray) -> np.ndarray:
    """F over a batch of states (one per row), vectorized and exact in float64.

    Order two is the quadratic form x^T U x with U the strictly upper
    triangular order-2 coefficients.  Orders three and four are a staircase
    of products: every term (i<j<k) or (i<j<k<l) is a low pair x_i x_j times
    an input with lowest index k > j, either x_k or the pair x_k x_l.  With
    the inputs ordered by lowest index, the inputs of the low pairs of one
    top index j form a suffix, so each group of consecutive tops takes one
    product of that suffix with its coefficients and skips the blocks of a
    dense pair-by-pair table that are zero.  The group edges minimize a model
    of multiply-adds plus a fixed cost per product.  Higher orders extend the
    pair products one order at a time.  Rows are processed in blocks sized so
    the widest temporary holds about 2^17 entries.
    """
    return _evaluate_rows(cf, _validate_batch(states, cf.n_dims))


def _evaluate_rows(cf: CostFunction, states: np.ndarray) -> np.ndarray:
    """:func:`evaluate_batch` on rows already known to be int8 signs."""
    ev = _eval_arrays(cf)
    block_rows = ev["block_rows"]
    out = np.empty(states.shape[0], dtype=np.float64)
    for lo in range(0, states.shape[0], block_rows):
        x = states[lo : lo + block_rows].astype(np.float64)
        acc = x @ ev["a1"]
        if "order2" in ev:
            quad = x @ ev["order2"]
            quad *= x
            acc += quad.sum(axis=1)
        if "stair" in ev:
            acc += _staircase_block(ev["stair"], x)
        if "chain" in ev:
            table = x[:, ev["i2a"]] * x[:, ev["i2b"]]
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


def _tuple_masks(lay: _Layout) -> np.ndarray:
    """Bit mask of every index tuple of a layout, flat canonical order."""
    return np.concatenate([(1 << t.astype(np.int64)).sum(axis=1) for t in lay.tuples])


def _monomial_masks(width: int, max_order: int) -> tuple[np.ndarray, np.ndarray]:
    """Bit masks of every subset of at most ``max_order`` of ``width`` bits.

    The empty subset comes first, the rest in canonical order; ``column[mask]``
    is the position of the subset with that mask.
    """
    masks = np.concatenate([[0], _tuple_masks(_layout(width, min(max_order, width)))])
    column = np.empty(1 << width, dtype=np.intp)
    column[masks] = np.arange(masks.size)
    return masks, column


def exhaustive_min(
    cf: CostFunction, *, dim_limit: int = EXHAUSTIVE_LIMIT
) -> tuple[np.ndarray, float]:
    """Exact global minimum over all 2^N states.

    Splits the variables into the low h = N // 2 bits and the high N - h bits.
    Each term is a monomial of its low bits times a monomial of its high bits,
    so F = Phi_hi M^T Phi_lo^T, where Phi_lo and Phi_hi hold every monomial
    of degree <= K (the constant one included) at every half-state and M holds
    each coefficient at (its low part, its high part).  G = Phi_lo M is formed
    once; each block of high halves then takes one product Phi_hi[block] G^T,
    sized to hold about 2^17 values.  A state's position in a block is its
    integer code (bit i set means x_i = -1), so ties keep the state with the
    lowest code.
    """
    n = cf.n_dims
    if n > dim_limit:
        raise ValueError(f"exhaustive search limited to N <= {dim_limit}, got {n}")
    low = n // 2
    masks_lo, column_lo = _monomial_masks(low, cf.max_order)
    masks_hi, column_hi = _monomial_masks(n - low, cf.max_order)
    masks = _tuple_masks(cf.layout)
    mixed = np.zeros((masks_lo.size, masks_hi.size))
    mixed[column_lo[masks & ((1 << low) - 1)], column_hi[masks >> low]] = cf.coefficients
    hi_count = 1 << (n - low)
    # parity[v] = (-1)^popcount(v): the value at code c of the monomial with
    # mask m is parity[c & m]; sized for the high half, the wider one
    parity = np.ones(hi_count)
    for b in range(n - low):
        parity[1 << b : 2 << b] = -parity[: 1 << b]
    lo_codes = np.arange(1 << low, dtype=np.int64)
    partial_t = (parity[lo_codes[:, None] & masks_lo] @ mixed).T
    # powers of two, so the blocks tile the high codes exactly
    rows = min(hi_count, max(1, _BLOCK_ELEMENTS >> low))
    best_value, best_code = np.inf, 0
    for start in range(0, hi_count, rows):
        hi_codes = np.arange(start, start + rows, dtype=np.int64)
        values = parity[hi_codes[:, None] & masks_hi] @ partial_t
        i = int(np.argmin(values))
        if values.flat[i] < best_value:
            best_value, best_code = values.flat[i], (start << low) + i
    bits = (best_code >> np.arange(n)) & 1
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
