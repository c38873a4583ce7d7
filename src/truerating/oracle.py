"""Matrix-free linear reference solution for clamp-free instances.

When no debiased weight ever leaves [0, 1], the fixed point of the
iterative solver satisfies a linear system. With user-degree and
item-degree matrices Du, Do, weight matrix W, and 0/1 connection matrix C:

    bias   = Du^-1 (W 1 - C rating)
    rating = Do^-1 (W^T 1 - alpha C^T bias)

Substituting gives (I - alpha A) bias = m with A = Du^-1 C Do^-1 C^T and
m the per-user mean deviation from the plain item means. Under
y = Du^1/2 bias it becomes (I - alpha S) y = Du^1/2 m, where
S = Du^-1/2 C Do^-1 C^T Du^-1/2 is symmetric with eigenvalues in [0, 1]:
the system is positive definite with condition number at most
1/(1 - alpha). Conjugate gradients (Hestenes & Stiefel 1952) solve it in two
``bincount`` passes over the edges per step, at any size the solver runs
at. It cross-checks the solver and shares no code with it.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import RatingGraph

__all__ = ["solve_linear", "residual_linf"]

#: Conjugate gradients stop once the symmetric system's residual is this
#: small relative to its right-hand side.
RELATIVE_RESIDUAL = 1e-15


def _step_cap(alpha: float, num_users: int) -> int:
    """Twice the steps CG needs in exact arithmetic, plus 10 for rounding:
    at most `num_users`, and at most the t at which the residual bound
    2 sqrt(k) ((sqrt(k) - 1) / (sqrt(k) + 1))**t for condition number
    k = 1/(1 - alpha) drops below `RELATIVE_RESIDUAL`."""
    root = math.sqrt(1.0 / (1.0 - alpha))
    rate = math.log1p(2.0 / (root - 1.0)) if root > 1.0 else math.inf
    bound = math.ceil(math.log(2.0 * root / RELATIVE_RESIDUAL) / rate)
    return 2 * min(num_users, bound) + 10


def _user_mean(graph: RatingGraph, values: np.ndarray) -> np.ndarray:
    sums = np.bincount(graph.edge_user, weights=values, minlength=graph.num_users)
    return sums / graph.user_degrees


def _item_mean(graph: RatingGraph, values: np.ndarray) -> np.ndarray:
    sums = np.bincount(graph.edge_item, weights=values, minlength=graph.num_items)
    return sums / graph.item_degrees


def solve_linear(graph: RatingGraph, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Solve the clamp-free fixed-point equations by conjugate gradients.

    Returns (bias, rating). Only meaningful when the true fixed point is
    clamp-free; callers confirm that via the iterative solver's clamp flag.
    Raises ValueError for alpha outside (0, 1), an empty graph, or a solve
    that misses `RELATIVE_RESIDUAL` within its step cap.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if graph.num_users == 0 or graph.num_items == 0:
        raise ValueError("empty graph has no linear system")
    u, v, w = graph.edge_user, graph.edge_item, graph.edge_weight
    root_du = np.sqrt(graph.user_degrees)

    def matvec(y: np.ndarray) -> np.ndarray:
        item = _item_mean(graph, (y / root_du)[u])
        return y - alpha * root_du * _user_mean(graph, item[v])

    y = np.zeros(graph.num_users)
    resid = root_du * _user_mean(graph, w - _item_mean(graph, w)[v])
    direction = resid.copy()
    norm2 = float(resid @ resid)
    stop2 = RELATIVE_RESIDUAL**2 * norm2
    cap = _step_cap(alpha, graph.num_users)
    for _ in range(cap):
        if norm2 <= stop2:
            break
        image = matvec(direction)
        step = norm2 / float(direction @ image)
        y += step * direction
        resid -= step * image
        prev2, norm2 = norm2, float(resid @ resid)
        direction = resid + (norm2 / prev2) * direction
    if norm2 > stop2:
        raise ValueError(f"conjugate gradients did not converge within {cap} steps")
    bias = y / root_du
    return bias, _item_mean(graph, w - alpha * bias[u])


def residual_linf(
    graph: RatingGraph, alpha: float, bias: np.ndarray, rating: np.ndarray
) -> float:
    """Max-norm residual of both fixed-point equations at (bias, rating)."""
    u, v, w = graph.edge_user, graph.edge_item, graph.edge_weight
    bias_eq = bias - _user_mean(graph, w - rating[v])
    rating_eq = rating - _item_mean(graph, w - alpha * bias[u])
    return float(max(np.abs(bias_eq).max(initial=0.0), np.abs(rating_eq).max(initial=0.0)))
