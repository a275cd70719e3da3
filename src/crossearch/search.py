"""Search algorithms over {-1,+1}^N cost functions.

All searchers return a :class:`SearchResult` whose ``best_value`` is the exact
float64 evaluation of ``best_state`` and whose ``evaluations`` counts every
full cost evaluation performed.  Single-bit delta computations of the descent
are tallied separately in ``extras["delta_evaluations"]`` (N per sweep).

Randomness is consumed in a fixed documented order (pools, then offspring,
repeat by repeat), drawn in fixed-size blocks, so a given generator stream
reproduces a run bit-for-bit.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .polycost import (
    CostFunction,
    evaluate,
    multilinear_extension,
    random_states,
    validate_state,
    _evaluate_rows,
    _term_signs,
)

__all__ = [
    "SearchResult",
    "RunningMoments",
    "CrossoverScheme",
    "random_search",
    "gradient_descent",
    "gradient_descent_restarts",
    "make_crossover_scheme",
    "sample_offspring",
    "select_parents",
    "selection_crossover",
    "mean_field_search",
    "offspring_statistics",
]


@dataclass(eq=False)
class SearchResult:
    """Outcome of one search run."""

    best_state: np.ndarray
    best_value: float
    evaluations: int
    stage_trace: list[tuple[str, float]] = field(default_factory=list)
    extras: dict[str, float] = field(default_factory=dict)


class RunningMoments:
    """Numerically stable streaming mean/variance (Welford, with block merge)."""

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    def push(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)

    def push_block(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size == 0:
            return
        mean = float(values.mean())
        m2 = float(((values - mean) ** 2).sum())
        self._merge(values.size, mean, m2)

    def _merge(self, count: int, mean: float, m2: float) -> None:
        if self.count == 0:
            self.count, self.mean, self._m2 = count, mean, m2
            return
        total = self.count + count
        delta = mean - self.mean
        self.mean += delta * count / total
        self._m2 += m2 + delta * delta * self.count * count / total
        self.count = total

    @property
    def variance(self) -> float:
        """Unbiased sample variance; NaN until two values have been seen."""
        if self.count < 2:
            return float("nan")
        return self._m2 / (self.count - 1)

    @property
    def std(self) -> float:
        return float(np.sqrt(self.variance))


#: States drawn and evaluated per block by the streaming samplers.  Part of
#: the documented draw order: changing it changes the random streams.
_SAMPLE_BLOCK = 65536


# ---------------------------------------------------------------------------
# blind sampling


def random_search(
    cf: CostFunction, n_samples: int, rng: np.random.Generator
) -> SearchResult:
    """Best of ``n_samples`` uniform i.i.d. states (ties keep the earliest)."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    best_value = np.inf
    best_state: np.ndarray | None = None
    done = 0
    while done < n_samples:
        count = min(_SAMPLE_BLOCK, n_samples - done)
        states = random_states(cf.n_dims, count, rng)
        values = _evaluate_rows(cf, states)
        j = int(np.argmin(values))
        if values[j] < best_value:
            best_value = float(values[j])
            best_state = states[j].copy()
        done += count
    value = evaluate(cf, best_state)
    return SearchResult(best_state, value, n_samples, [("sample_min", value)])


# ---------------------------------------------------------------------------
# steepest single-bit descent


def _descent_arrays(cf: CostFunction):
    cached = cf._cache.get("descent")
    if cached is None:
        lay = cf.layout
        flat = np.concatenate(lay.bit_ranks)
        lengths = [r.size for r in lay.bit_ranks]
        cuts = np.concatenate([[0], np.cumsum(lengths)[:-1]]).astype(np.intp)
        cached = (cf.coefficients[flat], flat, cuts)
        cf._cache["descent"] = cached
    return cached


def gradient_descent(cf: CostFunction, x0: np.ndarray) -> SearchResult:
    """Steepest single-bit descent from ``x0`` to a local minimum.

    Each sweep computes all N single-bit deltas and flips the most negative
    one (lowest index on ties), stopping when none is negative.  Deterministic
    given the start state.
    """
    x = validate_state(x0, cf.n_dims).copy()
    signs = _term_signs(cf, x)
    value = float(cf.coefficients @ signs)
    coef_flat, flat, cuts = _descent_arrays(cf)
    bit_ranks = cf.layout.bit_ranks
    trace = [("start", value)]
    sweeps = 0
    while True:
        deltas = -2.0 * np.add.reduceat(coef_flat * signs[flat], cuts)
        sweeps += 1
        j = int(np.argmin(deltas))
        if deltas[j] >= 0.0:
            break
        x[j] = -x[j]
        signs[bit_ranks[j]] *= -1.0
        value += float(deltas[j])
        trace.append(("flip", value))
    value = evaluate(cf, x)
    return SearchResult(
        x, value, 1, trace, extras={"delta_evaluations": float(sweeps * cf.n_dims)}
    )


def gradient_descent_restarts(
    cf: CostFunction, n_restarts: int, rng: np.random.Generator
) -> SearchResult:
    """Best local minimum over descents from ``n_restarts`` uniform starts."""
    if n_restarts < 1:
        raise ValueError(f"n_restarts must be >= 1, got {n_restarts}")
    best: SearchResult | None = None
    delta_total = 0.0
    trace = []
    for _ in range(n_restarts):
        x0 = random_states(cf.n_dims, 1, rng)[0]
        run = gradient_descent(cf, x0)
        delta_total += run.extras["delta_evaluations"]
        if best is None or run.best_value < best.best_value:
            best = run
        trace.append(("restart", best.best_value))
    return SearchResult(
        best.best_state,
        best.best_value,
        n_restarts,
        trace,
        extras={"delta_evaluations": delta_total},
    )


# ---------------------------------------------------------------------------
# crossover


@dataclass(frozen=True, eq=False)
class CrossoverScheme:
    """Per-position offspring law induced by a set of parent states.

    ``selection_probability[i]`` is P(offspring_i = +1), the fraction of
    parents voting +1; positions where all parents agree (probability 0 or 1)
    form the schema and are inherited unchanged.
    """

    n_dims: int
    n_parents: int
    selection_probability: np.ndarray
    schema_mask: np.ndarray
    n_differing: int


def make_crossover_scheme(parents) -> CrossoverScheme:
    """Build the offspring law from two or more parent states."""
    arrays = [np.asarray(p) for p in parents]
    if len(arrays) < 2:
        raise ValueError(f"need at least two parents, got {len(arrays)}")
    if any(a.ndim != 1 or a.shape != arrays[0].shape for a in arrays):
        raise ValueError("parents must all be state vectors of one length")
    n_dims = arrays[0].shape[0]
    rows = np.vstack([validate_state(a, n_dims) for a in arrays])
    n_parents = rows.shape[0]
    votes = rows.sum(axis=0, dtype=np.int64)
    probability = votes / (2.0 * n_parents) + 0.5
    schema = np.abs(votes) == n_parents
    return CrossoverScheme(
        n_dims=n_dims,
        n_parents=n_parents,
        selection_probability=probability,
        schema_mask=schema,
        n_differing=int(n_dims - schema.sum()),
    )


def _offspring_block(
    scheme: CrossoverScheme, count: int, rng: np.random.Generator
) -> np.ndarray:
    draws = rng.random((count, scheme.n_dims))
    return np.where(draws < scheme.selection_probability, np.int8(1), np.int8(-1))


def sample_offspring(scheme: CrossoverScheme, rng: np.random.Generator) -> np.ndarray:
    """One offspring state: each position +1 with its selection probability."""
    return _offspring_block(scheme, 1, rng)[0]


def _pool_minimum(
    cf: CostFunction, pool: int, rng: np.random.Generator
) -> tuple[np.ndarray, float]:
    states = random_states(cf.n_dims, pool, rng)
    values = _evaluate_rows(cf, states)
    j = int(np.argmin(values))
    return states[j].copy(), float(values[j])


def select_parents(
    cf: CostFunction, pool: int, n_parents: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Minimizers of ``n_parents`` independent uniform pools of size ``pool``."""
    return [_pool_minimum(cf, pool, rng)[0] for _ in range(n_parents)]


def selection_crossover(
    cf: CostFunction,
    pool: int,
    offspring_pool: int,
    repeats: int,
    rng: np.random.Generator,
) -> SearchResult:
    """Two-parent selection and crossover, best offspring over all repeats.

    Each repeat selects the minimizers of two fresh uniform pools as parents,
    samples ``offspring_pool`` offspring from their crossover law, and keeps
    the best offspring seen so far (parents themselves never become the
    answer).
    """
    if min(pool, offspring_pool, repeats) < 1:
        raise ValueError("pool, offspring_pool and repeats must all be >= 1")
    best_value = np.inf
    best_state: np.ndarray | None = None
    evaluations = 0
    distance_sum = 0
    trace = []
    for _ in range(repeats):
        parents = [_pool_minimum(cf, pool, rng)[0] for _ in range(2)]
        evaluations += 2 * pool
        scheme = make_crossover_scheme(parents)
        distance_sum += scheme.n_differing
        offspring = _offspring_block(scheme, offspring_pool, rng)
        values = _evaluate_rows(cf, offspring)
        evaluations += offspring_pool
        j = int(np.argmin(values))
        if values[j] < best_value:
            best_value = float(values[j])
            best_state = offspring[j].copy()
        trace.append(("repeat", best_value))
    value = evaluate(cf, best_state)
    return SearchResult(
        best_state,
        value,
        evaluations,
        trace,
        extras={"mean_parent_distance": distance_sum / repeats},
    )


def mean_field_search(
    cf: CostFunction,
    n_parents: int,
    pool: int,
    offspring_pool: int,
    repeats: int,
    rng: np.random.Generator,
) -> SearchResult:
    """Many-parent mixing: offspring drawn independently per position.

    Like :func:`selection_crossover` but with ``n_parents >= 3`` pool
    minimizers voting per position, which breaks the correlation structure two
    aligned parents preserve.  Use :func:`selection_crossover` for two parents.
    """
    if n_parents < 3:
        raise ValueError(
            f"mean-field mixing needs n_parents >= 3 (got {n_parents}); "
            "use selection_crossover for two parents"
        )
    if min(pool, offspring_pool, repeats) < 1:
        raise ValueError("pool, offspring_pool and repeats must all be >= 1")
    best_value = np.inf
    best_state: np.ndarray | None = None
    evaluations = 0
    distance_sum = 0
    mixture_sum = 0.0
    trace = []
    for _ in range(repeats):
        parents = [_pool_minimum(cf, pool, rng)[0] for _ in range(n_parents)]
        evaluations += n_parents * pool
        scheme = make_crossover_scheme(parents)
        distance_sum += scheme.n_differing
        mixture_sum += multilinear_extension(
            cf, 2.0 * scheme.selection_probability - 1.0
        )
        offspring = _offspring_block(scheme, offspring_pool, rng)
        values = _evaluate_rows(cf, offspring)
        evaluations += offspring_pool
        j = int(np.argmin(values))
        if values[j] < best_value:
            best_value = float(values[j])
            best_state = offspring[j].copy()
        trace.append(("repeat", best_value))
    value = evaluate(cf, best_state)
    return SearchResult(
        best_state,
        value,
        evaluations,
        trace,
        extras={
            "mean_parent_distance": distance_sum / repeats,
            "mean_mixture_mean": mixture_sum / repeats,
        },
    )


def offspring_statistics(
    cf: CostFunction,
    scheme: CrossoverScheme,
    n_samples: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Streaming sample mean and (unbiased) variance of offspring costs."""
    if n_samples < 2:
        raise ValueError(f"need n_samples >= 2 for a variance, got {n_samples}")
    moments = RunningMoments()
    done = 0
    while done < n_samples:
        count = min(_SAMPLE_BLOCK, n_samples - done)
        offspring = _offspring_block(scheme, count, rng)
        moments.push_block(_evaluate_rows(cf, offspring))
        done += count
    return moments.mean, moments.variance
