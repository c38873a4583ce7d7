from dataclasses import replace

import numpy as np
import pytest

from truerating import RatingGraph, SolverConfig, build_report, solve


def make_random_graph(seed: int, max_users: int = 10, max_items: int = 10) -> RatingGraph:
    """Random bipartite graph with arbitrary uniform weights.

    Unlike the planted generator this places no structure on the weights,
    so it exercises the solver on fully generic inputs. Rows and columns
    that came out empty get one patched-in edge; RatingGraph forbids
    isolated nodes.
    """
    rng = np.random.default_rng(seed)
    nu = int(rng.integers(1, max_users + 1))
    ni = int(rng.integers(1, max_items + 1))
    mask = rng.random((nu, ni)) < rng.uniform(0.2, 0.9)
    for i in range(nu):
        if not mask[i].any():
            mask[i, rng.integers(ni)] = True
    for j in range(ni):
        if not mask[:, j].any():
            mask[rng.integers(nu), j] = True
    u, v = np.nonzero(mask)
    return RatingGraph(
        [f"u{i}" for i in range(nu)],
        [f"m{j}" for j in range(ni)],
        u,
        v,
        rng.random(u.size),
    )


def one_sweep(graph: RatingGraph, bias, config: SolverConfig):
    """R(b) and T(b), the ratings and biases of one sweep from `bias`."""
    result = solve(graph, replace(config, max_iterations=1), initial_bias=bias)
    return result.rating, result.bias


def debiased(weights, alpha: float, bias) -> np.ndarray:
    """Each weight corrected by `alpha` times its rater's bias and clipped
    into [0, 1]: the ratings of one sweep on a graph where user k alone
    rates item k."""
    n = len(weights)
    keys = [str(k) for k in range(n)]
    graph = RatingGraph(keys, keys, np.arange(n), np.arange(n), weights)
    rating, _ = one_sweep(graph, bias, SolverConfig(alpha=alpha))
    return rating


def report_over(predicted: dict, truth: dict):
    """`build_report` of `predicted`'s scores against `truth`, on a
    one-user graph whose items are `predicted`'s ids in key order."""
    n = len(predicted)
    graph = RatingGraph(
        ["u"] if n else [],
        list(predicted),
        np.zeros(n, dtype=np.int64),
        np.arange(n),
        np.full(n, 0.5),
    )
    return build_report(graph, list(predicted.values()), truth, label="scores")


@pytest.fixture
def two_user_graph() -> RatingGraph:
    # Hand-solvable: fixed point is bias (0.5, -0.5), rating 0.5 for any
    # alpha < 1, reached exactly after one iteration from a zero seed.
    return RatingGraph.from_edges([("u1", "m1", 1.0), ("u2", "m1", 0.0)])


@pytest.fixture
def clamping_graph() -> RatingGraph:
    # u1 over-rates a and b but rates c low; u1's positive bias pushes the
    # debiased weight of (u1, c) below zero at alpha near 1, so the clamp
    # fires and the linear oracle stops being applicable.
    return RatingGraph.from_edges(
        [
            ("u1", "a", 1.0),
            ("u1", "b", 1.0),
            ("u1", "c", 0.1),
            ("u2", "a", 0.2),
            ("u2", "b", 0.2),
            ("u2", "c", 0.1),
        ]
    )
