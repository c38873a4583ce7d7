"""Dense reference oracle: the `build_dense`/`DenseSystem`/`solve_linear`
that the matrix-free conjugate-gradient oracle replaced.

It materializes the users x items weight and connection matrices and
solves the clamp-free system

    (I - alpha A) bias = m,    A = Du^-1 C Do^-1 C^T,

with `np.linalg.solve`, where m is the per-user mean deviation from the
plain item means; ratings follow as Do^-1 (W^T 1 - alpha C^T bias). The
cell cap keeps tests from allocating more than a few megabytes. Tests
compare `truerating.oracle` against it on small graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from truerating import RatingGraph

__all__ = [
    "DENSE_CELL_LIMIT",
    "DenseSystem",
    "build_dense",
    "solve_linear",
    "residual_linf",
]

#: Maximum users * items a dense system may occupy.
DENSE_CELL_LIMIT = 1_000_000


@dataclass(frozen=True)
class DenseSystem:
    """Dense matrices of one instance plus the damping factor."""

    weights: np.ndarray
    connections: np.ndarray
    user_degrees: np.ndarray
    item_degrees: np.ndarray
    alpha: float

    def __post_init__(self) -> None:
        if self.weights.shape != self.connections.shape:
            raise ValueError("weights and connections must have equal shape")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")

    @property
    def num_users(self) -> int:
        return self.weights.shape[0]

    @property
    def num_items(self) -> int:
        return self.weights.shape[1]


def build_dense(graph: RatingGraph, alpha: float) -> DenseSystem:
    """Materialize a graph as dense matrices; refuses oversized instances."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if graph.num_users == 0 or graph.num_items == 0:
        raise ValueError("empty graph has no dense system")
    cells = graph.num_users * graph.num_items
    if cells > DENSE_CELL_LIMIT:
        raise ValueError(
            f"dense system would need {cells} cells, "
            f"limit is {DENSE_CELL_LIMIT}"
        )
    weights = np.zeros((graph.num_users, graph.num_items), dtype=np.float64)
    connections = np.zeros_like(weights)
    weights[graph.edge_user, graph.edge_item] = graph.edge_weight
    connections[graph.edge_user, graph.edge_item] = 1.0
    return DenseSystem(
        weights=weights,
        connections=connections,
        user_degrees=graph.user_degrees.astype(np.float64),
        item_degrees=graph.item_degrees.astype(np.float64),
        alpha=alpha,
    )


def solve_linear(system: DenseSystem) -> tuple[np.ndarray, np.ndarray]:
    """Solve the clamp-free fixed-point equations exactly.

    Returns (bias, rating). Only meaningful when the true fixed point is
    clamp-free; callers confirm that via the iterative solver's clamp flag.
    """
    weights, conn = system.weights, system.connections
    du = system.user_degrees
    do = system.item_degrees
    if system.num_users == 0:
        return np.zeros(0), np.zeros(0)

    item_sum = weights.sum(axis=0)
    mean_dev = (weights.sum(axis=1) - conn @ (item_sum / do)) / du
    mix = (conn / du[:, None]) @ (conn.T / do[:, None])
    coeff = np.eye(system.num_users) - system.alpha * mix
    try:
        bias = np.linalg.solve(coeff, mean_dev)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular system: {exc}") from None
    rating = (item_sum - system.alpha * (conn.T @ bias)) / do
    return bias, rating


def residual_linf(
    system: DenseSystem, bias: np.ndarray, rating: np.ndarray
) -> float:
    """Max-norm residual of both fixed-point equations at (bias, rating)."""
    weights, conn = system.weights, system.connections
    bias_eq = bias - (weights.sum(axis=1) - conn @ rating) / system.user_degrees
    rating_eq = rating - (
        weights.sum(axis=0) - system.alpha * (conn.T @ bias)
    ) / system.item_degrees
    parts = [np.abs(bias_eq), np.abs(rating_eq)]
    return float(max((p.max() for p in parts if p.size), default=0.0))
