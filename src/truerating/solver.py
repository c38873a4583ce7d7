"""Damped fixed-point solver for per-user bias and per-item true ratings.

Model: user i's bias is the mean amount by which their raw ratings exceed
the items' true ratings, and an item's true rating is the mean of its
incoming ratings after each is corrected by a damped share of its author's
bias (corrections are clipped back into [0, 1]):

    rating_j = mean_{i rated j} clip(w_ij - alpha_i * bias_i)
    bias_i   = mean_{j rated by i} (w_ij - rating_j)

One iteration refreshes every rating from the previous biases, then every
bias from those fresh ratings. With all damping factors alpha_i <= alpha < 1
the composite update is an alpha-contraction in the max norm, so iterates
converge to the unique fixed point from any starting bias, and successive
bias deltas shrink at least geometrically in alpha.

Each sweep runs one code path: the nodes are split into contiguous chunks
at node boundaries, each chunk sums its own edge slice with `np.bincount`,
and the chunks are mapped over a thread pool. A serial solve is the
one-chunk plan mapped without a pool.

Determinism: every per-node mean accumulates its terms in ascending
neighbor order (the graph's canonical slice order), and a node's terms
never span two chunks, so results are bit-identical across thread counts
and repeated runs.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .graph import RatingGraph

__all__ = [
    "debias_weight",
    "iterations_needed",
    "SolverConfig",
    "IterationStats",
    "SolverResult",
    "iterate_once",
    "solve",
]


def debias_weight(weight, alpha, bias):
    """Correct a raw weight by a damped bias share, clipped into [0, 1].

    Works elementwise on arrays as well as on scalars.
    """
    return np.clip(weight - alpha * bias, 0.0, 1.0)


def iterations_needed(alpha: float, epsilon: float) -> int:
    """Iterations guaranteeing the bias-delta bound 2*alpha**t < epsilon.

    Computed as ceil(log(2/epsilon) / log(1/alpha)), floored at zero (an
    epsilon of 2 or more is satisfied before the first iteration).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if epsilon >= 2.0:
        return 0
    return max(0, math.ceil(math.log(2.0 / epsilon) / math.log(1.0 / alpha)))


@dataclass(frozen=True)
class SolverConfig:
    """Solve parameters.

    `alpha` is the global damping factor; `alpha_overrides` maps dense user
    indices to per-user factors, each in [0, alpha] (zero turns a user's
    correction off). `max_iterations` defaults to `iterations_needed(alpha,
    epsilon)` and may be zero, in which case the solver returns its starting
    state untouched.
    """

    alpha: float = 0.99
    epsilon: float = 1e-6
    max_iterations: int | None = None
    alpha_overrides: Mapping[int, float] | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_iterations is None:
            object.__setattr__(
                self, "max_iterations", iterations_needed(self.alpha, self.epsilon)
            )
        if self.max_iterations < 0:
            raise ValueError(
                f"max_iterations must be >= 0, got {self.max_iterations}"
            )
        if self.alpha_overrides is not None:
            for user, value in self.alpha_overrides.items():
                if not 0.0 <= value <= self.alpha:
                    raise ValueError(
                        f"alpha override {value} for user {user} outside "
                        f"[0, {self.alpha}]"
                    )


@dataclass(frozen=True)
class IterationStats:
    """Per-iteration deltas; the L1 bias delta drives the stopping rule."""

    iteration: int
    l1_bias_delta: float
    linf_bias_delta: float
    l1_rating_delta: float


@dataclass
class SolverResult:
    """Final state of a solve.

    `rating[j]` pairs with `bias[i]` through the update equations of the
    last completed iteration. `clamped` reports whether any debiased weight
    ever left [0, 1] and had to be clipped; clamp-free runs are exactly the
    ones the linear oracle (`solve_linear`) can reproduce.
    """

    bias: np.ndarray
    rating: np.ndarray
    converged: bool
    iterations: int
    clamped: bool
    trace: list[IterationStats] = field(default_factory=list)


def _per_user_alpha(
    graph: RatingGraph, alpha: float, overrides: Mapping[int, float] | None
) -> np.ndarray:
    alphas = np.full(graph.num_users, alpha, dtype=np.float64)
    if overrides:
        for user, value in overrides.items():
            if not 0 <= user < graph.num_users:
                raise ValueError(f"alpha override for unknown user index {user}")
            alphas[user] = value
    return alphas


def _chunks(count: int, parts: int) -> list[tuple[int, int]]:
    bounds = np.unique(np.linspace(0, count, parts + 1).round().astype(np.int64))
    return [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def _plan(ptr: np.ndarray, parts: int) -> list[tuple]:
    """Split CSR nodes into `parts` chunks ``(lo, hi, e0, e1, local)``.

    Nodes lo..hi-1 own edges e0..e1-1; `local` gives each of those edges
    its node's index relative to lo, the segment key for `np.bincount`.
    """
    degrees = np.diff(ptr)
    return [
        (lo, hi, int(ptr[lo]), int(ptr[hi]),
         np.repeat(np.arange(hi - lo), degrees[lo:hi]))
        for lo, hi in _chunks(len(degrees), parts)
    ]


class _Sweeps:
    """Precomputed gather arrays and chunk plans for one solve."""

    def __init__(
        self,
        graph: RatingGraph,
        alpha_user: np.ndarray,
        threads: int,
        pool: ThreadPoolExecutor | None,
    ) -> None:
        self.graph = graph
        self.map = map if pool is None else pool.map
        # Damping factor of each edge's author, in item-major edge order.
        self.alpha_edge = alpha_user[graph.by_item_user]
        self.item_deg = np.maximum(graph.item_degrees, 1).astype(np.float64)
        self.user_deg = np.maximum(graph.user_degrees, 1).astype(np.float64)
        self.item_plan = _plan(graph.item_ptr, threads)
        self.user_plan = _plan(graph.user_ptr, threads)

    def _rating_chunk(self, bias, lo, hi, e0, e1, local):
        g = self.graph
        adjusted = g.by_item_weight[e0:e1] - self.alpha_edge[e0:e1] * bias[
            g.by_item_user[e0:e1]
        ]
        clamped = bool((adjusted < 0.0).any() or (adjusted > 1.0).any())
        np.clip(adjusted, 0.0, 1.0, out=adjusted)
        sums = np.bincount(local, weights=adjusted, minlength=hi - lo)
        return sums, clamped

    def rating_step(self, bias: np.ndarray) -> tuple[np.ndarray, bool]:
        """rating_j = mean over j's raters of clip(w - alpha_i * bias_i)."""
        chunks = self.map(lambda spec: self._rating_chunk(bias, *spec),
                          self.item_plan)
        rating = np.empty(self.graph.num_items, dtype=np.float64)
        clamped = False
        for (lo, hi, *_), (sums, chunk_clamped) in zip(self.item_plan, chunks):
            rating[lo:hi] = sums / self.item_deg[lo:hi]
            clamped |= chunk_clamped
        return rating, clamped

    def _bias_chunk(self, rating, lo, hi, e0, e1, local):
        g = self.graph
        deviation = g.edge_weight[e0:e1] - rating[g.edge_item[e0:e1]]
        return np.bincount(local, weights=deviation, minlength=hi - lo)

    def bias_step(self, rating: np.ndarray) -> np.ndarray:
        """bias_i = mean over i's raw ratings of (w - rating_j)."""
        chunks = self.map(lambda spec: self._bias_chunk(rating, *spec),
                          self.user_plan)
        bias = np.empty(self.graph.num_users, dtype=np.float64)
        for (lo, hi, *_), sums in zip(self.user_plan, chunks):
            bias[lo:hi] = sums / self.user_deg[lo:hi]
        return bias


def _l1(delta: np.ndarray) -> float:
    return float(np.sum(np.abs(delta))) if delta.size else 0.0


def _linf(delta: np.ndarray) -> float:
    return float(np.max(np.abs(delta))) if delta.size else 0.0


def _seed(graph: RatingGraph, initial_bias) -> np.ndarray:
    if initial_bias is None:
        return np.zeros(graph.num_users, dtype=np.float64)
    bias = np.array(initial_bias, dtype=np.float64, copy=True)
    if bias.shape != (graph.num_users,):
        raise ValueError(
            f"initial bias must have shape ({graph.num_users},), "
            f"got {bias.shape}"
        )
    if bias.size and (not np.isfinite(bias).all()
                      or bias.min() < -1.0 or bias.max() > 1.0):
        raise ValueError("initial bias values must lie in [-1, 1]")
    return bias


def iterate_once(
    graph: RatingGraph,
    bias: np.ndarray,
    config: SolverConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """One synchronous update; returns (new rating, new bias).

    Every rating is computed from the incoming bias vector before any bias
    is refreshed, so the result is independent of edge traversal order.
    """
    bias = _seed(graph, bias)
    alpha_user = _per_user_alpha(graph, config.alpha, config.alpha_overrides)
    sweeps = _Sweeps(graph, alpha_user, 1, None)
    rating, _ = sweeps.rating_step(bias)
    return rating, sweeps.bias_step(rating)


def solve(
    graph: RatingGraph,
    config: SolverConfig | None = None,
    *,
    initial_bias=None,
    threads: int = 1,
) -> SolverResult:
    """Iterate to the bias/rating fixed point.

    Starts from `initial_bias` (zeros by default) with ratings at the plain
    per-item means, and stops once the L1 norm of the bias change drops
    below `config.epsilon` or `config.max_iterations` is reached. `threads`
    splits each sweep across a thread pool without changing any result bit.
    """
    if config is None:
        config = SolverConfig()
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    bias = _seed(graph, initial_bias)
    alpha_user = _per_user_alpha(graph, config.alpha, config.alpha_overrides)
    if threads > 1 and graph.num_edges:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return _run(graph, config, bias, alpha_user, threads, pool)
    return _run(graph, config, bias, alpha_user, 1, None)


def _run(
    graph: RatingGraph,
    config: SolverConfig,
    bias: np.ndarray,
    alpha_user: np.ndarray,
    threads: int,
    pool: ThreadPoolExecutor | None,
) -> SolverResult:
    sweeps = _Sweeps(graph, alpha_user, threads, pool)
    rating = graph.item_means()
    trace: list[IterationStats] = []
    converged = False
    clamped = False
    iterations = 0
    for step in range(1, config.max_iterations + 1):
        new_rating, step_clamped = sweeps.rating_step(bias)
        new_bias = sweeps.bias_step(new_rating)
        clamped |= step_clamped
        bias_delta = new_bias - bias
        stats = IterationStats(
            iteration=step,
            l1_bias_delta=_l1(bias_delta),
            linf_bias_delta=_linf(bias_delta),
            l1_rating_delta=_l1(new_rating - rating),
        )
        trace.append(stats)
        bias, rating = new_bias, new_rating
        iterations = step
        if stats.l1_bias_delta < config.epsilon:
            converged = True
            break
    return SolverResult(
        bias=bias,
        rating=rating,
        converged=converged,
        iterations=iterations,
        clamped=clamped,
        trace=trace,
    )
