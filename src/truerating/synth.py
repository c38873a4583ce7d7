"""Synthetic rating graphs with known per-user bias and item quality.

Each instance plants a true quality per item and a true bias per user,
then reveals a Bernoulli-sampled subset of the complete bipartite graph
with observed weight

    w = clip(quality_item + bias_user + noise, 0, 1).

With zero noise and ranges that keep quality + bias inside [0, 1], the
observed weights are exact and the instance is clamp-free by
construction, which makes these graphs suitable ground truth for both
the iterative solver and the linear oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import RatingGraph

__all__ = ["PlantedInstance", "generate_planted"]

MAX_RETRIES = 100


@dataclass(frozen=True)
class PlantedInstance:
    """A generated graph together with the values used to build it."""

    graph: RatingGraph
    true_bias: np.ndarray
    true_rating: np.ndarray


def generate_planted(
    num_users: int,
    num_items: int,
    density: float,
    *,
    bias_range: tuple[float, float] = (-0.25, 0.25),
    quality_range: tuple[float, float] = (0.25, 0.75),
    noise_sigma: float = 0.0,
    seed: int | None = None,
) -> PlantedInstance:
    """Generate a planted instance.

    Biases are uniform on `bias_range` (within [-1, 1]), item qualities
    uniform on `quality_range` (within [0, 1]), and each user-item pair is
    observed independently with probability `density`. The adjacency is
    resampled up to `MAX_RETRIES` times until no user or item is isolated.
    Noise is Gaussian with standard deviation `noise_sigma`; with zero
    noise the ranges must satisfy quality + bias in [0, 1] so the planted
    weights survive unclipped. Draw order is fixed (bias, quality,
    adjacency, noise), so a seed fully determines the instance.
    """
    if num_users < 1 or num_items < 1:
        raise ValueError("need at least one user and one item")
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must be in (0, 1], got {density}")
    b_lo, b_hi = bias_range
    q_lo, q_hi = quality_range
    if not -1.0 <= b_lo <= b_hi <= 1.0:
        raise ValueError(f"bias range must be ordered within [-1, 1], got {bias_range}")
    if not 0.0 <= q_lo <= q_hi <= 1.0:
        raise ValueError(
            f"quality range must be ordered within [0, 1], got {quality_range}"
        )
    if not 0.0 <= noise_sigma < math.inf:
        raise ValueError(f"noise sigma must be finite and >= 0, got {noise_sigma}")
    if noise_sigma == 0.0 and (q_hi + b_hi > 1.0 or q_lo + b_lo < 0.0):
        raise ValueError(
            "infeasible ranges: with zero noise, quality + bias must stay "
            f"inside [0, 1]; got quality {quality_range} and bias {bias_range}"
        )

    rng = np.random.default_rng(seed)
    bias = rng.uniform(b_lo, b_hi, size=num_users)
    quality = rng.uniform(q_lo, q_hi, size=num_items)

    for _ in range(MAX_RETRIES):
        mask = rng.random((num_users, num_items)) < density
        if mask.any(axis=1).all() and mask.any(axis=0).all():
            break
    else:
        raise ValueError(
            f"could not sample an adjacency without isolated nodes in "
            f"{MAX_RETRIES} attempts (density {density} too sparse)"
        )

    edge_user, edge_item = np.nonzero(mask)
    weight = quality[edge_item] + bias[edge_user]
    if noise_sigma > 0.0:
        weight = weight + rng.normal(0.0, noise_sigma, size=weight.size)
        np.clip(weight, 0.0, 1.0, out=weight)

    graph = RatingGraph(
        [str(i) for i in range(num_users)],
        [str(j) for j in range(num_items)],
        edge_user.astype(np.int64),
        edge_item.astype(np.int64),
        weight,
    )
    return PlantedInstance(graph=graph, true_bias=bias, true_rating=quality)
