"""Plain fixed-point iteration: the solve loop that safeguarded Anderson
mixing replaced.

Each iteration is one serial sweep ``bias <- T(bias) = B(R(bias))`` over
the graph's edge arrays, summed with `np.bincount`. The rating half sums
an item-major copy of the edges built here, a summation path of its own
that adds each item's terms in the same ascending user order as the
package's one pass over the canonical edges. It stops once the L1
norm of the bias change drops below epsilon or the iteration cap is
reached, and returns the last sweep's ratings and biases, with whether
that sweep's ratings clipped a weight. Its first two iterations are the
package's first two bit for bit; tests compare the accelerated solve
against it beyond that.
"""

from __future__ import annotations

import numpy as np

from truerating import IterationStats, RatingGraph, SolverConfig, SolverResult

__all__ = ["solve"]


def _l1(delta: np.ndarray) -> float:
    return float(np.sum(np.abs(delta))) if delta.size else 0.0


def _linf(delta: np.ndarray) -> float:
    return float(np.max(np.abs(delta))) if delta.size else 0.0


def solve(
    graph: RatingGraph, config: SolverConfig, *, initial_bias=None
) -> SolverResult:
    """Iterate T from `initial_bias` (zeros by default) to L1 delta epsilon."""
    n_users, n_items = graph.num_users, graph.num_items
    alpha_user = np.full(n_users, config.alpha, dtype=np.float64)
    for user, value in (config.alpha_overrides or {}).items():
        alpha_user[user] = value
    by_item = np.lexsort((graph.edge_user, graph.edge_item))
    by_item_user = graph.edge_user[by_item]
    by_item_weight = graph.edge_weight[by_item]
    alpha_edge = alpha_user[by_item_user]
    item_of_edge = np.repeat(np.arange(n_items), graph.item_degrees)
    item_deg = np.maximum(graph.item_degrees, 1).astype(np.float64)
    user_deg = np.maximum(graph.user_degrees, 1).astype(np.float64)

    bias = (np.zeros(n_users) if initial_bias is None
            else np.array(initial_bias, dtype=np.float64))
    rating = graph.item_means()
    trace: list[IterationStats] = []
    converged = False
    clamped = False
    for step in range(1, config.max_iterations + 1):
        adjusted = by_item_weight - alpha_edge * bias[by_item_user]
        clamped = bool((adjusted < 0.0).any() or (adjusted > 1.0).any())
        np.clip(adjusted, 0.0, 1.0, out=adjusted)
        new_rating = np.bincount(
            item_of_edge, weights=adjusted, minlength=n_items
        ) / item_deg
        deviation = graph.edge_weight - new_rating[graph.edge_item]
        new_bias = np.bincount(
            graph.edge_user, weights=deviation, minlength=n_users
        ) / user_deg
        stats = IterationStats(
            iteration=step,
            l1_bias_delta=_l1(new_bias - bias),
            linf_bias_delta=_linf(new_bias - bias),
            l1_rating_delta=_l1(new_rating - rating),
        )
        trace.append(stats)
        bias, rating = new_bias, new_rating
        if stats.l1_bias_delta < config.epsilon:
            converged = True
            break
    return SolverResult(
        bias=bias,
        rating=rating,
        converged=converged,
        iterations=len(trace),
        sweeps=len(trace),
        clamped=clamped,
        trace=trace,
    )
