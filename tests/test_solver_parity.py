"""The accelerated solve against the plain loop kept in
`reference_solver`.

Both stop once an iterate's L1 residual is below epsilon, which puts each
within alpha * epsilon / (1 - alpha) of the fixed point in the max norm,
so their results may differ by at most 2 * epsilon / (1 - alpha).
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import make_random_graph, one_sweep

import reference_solver as reference
import truerating
from truerating import RatingGraph, SolverConfig, solve
from truerating.solver import _advance, _History, _Iterate, _Sweeps


def path_graph(num_users: int, seed: int, noisy: bool = False) -> RatingGraph:
    """User i rates items i and i+1: the slowest-mixing connected shape.

    With `noisy`, weights are uniform in [0.2, 0.8] instead of quality plus
    bias plus noise. The Anderson model then mispredicts often, so some
    candidates are screened out and others are evaluated and refused."""
    rng = np.random.default_rng(seed)
    users = np.repeat(np.arange(num_users), 2)
    items = users + np.tile([0, 1], num_users)
    if noisy:
        weights = rng.uniform(0.2, 0.8, users.size)
    else:
        quality = rng.uniform(0.3, 0.7, num_users + 1)
        bias = rng.uniform(-0.2, 0.2, num_users)
        noise = rng.normal(0.0, 0.05, users.size)
        weights = np.clip(quality[items] + bias[users] + noise, 0.0, 1.0)
    return RatingGraph(
        [f"u{i}" for i in range(num_users)],
        [f"m{j}" for j in range(num_users + 1)],
        users,
        items,
        weights,
    )


def assert_within(accelerated, plain, config):
    bound = 2.0 * config.epsilon / (1.0 - config.alpha)
    assert np.max(np.abs(accelerated.bias - plain.bias), initial=0.0) <= bound
    assert np.max(np.abs(accelerated.rating - plain.rating), initial=0.0) <= bound


def assert_contracts(result, alpha):
    deltas = [s.linf_bias_delta for s in result.trace]
    for before, after in zip(deltas, deltas[1:]):
        assert after <= alpha * before


@pytest.fixture(scope="module")
def slow_path():
    graph = path_graph(2000, seed=0)
    config = SolverConfig(alpha=0.99, epsilon=1e-6, max_iterations=5000)
    return graph, config, solve(graph, config), reference.solve(graph, config)


@pytest.fixture(scope="module")
def noisy_path():
    graph = path_graph(2000, seed=0, noisy=True)
    config = SolverConfig(alpha=0.99, epsilon=1e-6, max_iterations=5000)
    return graph, config, solve(graph, config), reference.solve(graph, config)


@pytest.fixture(scope="module")
def refusing_path():
    """A noisy path whose solve evaluates and refuses candidates: 410
    accepted iterates, 601 sweeps."""
    graph = path_graph(2000, seed=7, noisy=True)
    config = SolverConfig(alpha=0.99, epsilon=1e-6, max_iterations=5000)
    return graph, config, solve(graph, config)


class TestAgainstPlainLoop:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("alpha", [0.5, 0.9, 0.99])
    def test_random_graphs_within_bound(self, seed, alpha):
        graph = make_random_graph(seed, max_users=30, max_items=30)
        config = SolverConfig(alpha=alpha, epsilon=1e-9, max_iterations=20000)
        accelerated = solve(graph, config)
        plain = reference.solve(graph, config)
        assert accelerated.converged and plain.converged
        assert_within(accelerated, plain, config)

    @pytest.mark.parametrize("seed", range(6))
    def test_overrides_within_bound(self, seed):
        graph = make_random_graph(seed, max_users=30, max_items=30)
        rng = np.random.default_rng(seed)
        overrides = {
            user: float(rng.uniform(0.0, 0.95))
            for user in range(0, graph.num_users, 2)
        }
        config = SolverConfig(
            alpha=0.95, epsilon=1e-9, max_iterations=20000,
            alpha_overrides=overrides,
        )
        accelerated = solve(graph, config)
        plain = reference.solve(graph, config)
        assert accelerated.converged and plain.converged
        assert_within(accelerated, plain, config)

    @pytest.mark.parametrize("seed", range(6))
    def test_first_two_iterates_are_plain(self, seed):
        graph = make_random_graph(seed, max_users=30, max_items=30)
        config = SolverConfig(alpha=0.9, epsilon=1e-300, max_iterations=2)
        accelerated = solve(graph, config)
        plain = reference.solve(graph, config)
        assert np.array_equal(accelerated.bias, plain.bias)
        assert np.array_equal(accelerated.rating, plain.rating)
        assert accelerated.trace == plain.trace
        assert accelerated.sweeps == plain.sweeps == 2
        assert accelerated.clamped == plain.clamped

    def test_slow_path_within_bound(self, slow_path):
        _, config, accelerated, plain = slow_path
        assert accelerated.converged and plain.converged
        assert_within(accelerated, plain, config)

    def test_slow_path_needs_a_quarter_of_the_iterations(self, slow_path):
        _, _, accelerated, plain = slow_path
        assert 4 * accelerated.iterations <= plain.iterations

    def test_every_accepted_iterate_contracts(self, slow_path):
        _, config, accelerated, _ = slow_path
        assert_contracts(accelerated, config.alpha)

    def test_sweeps_count_rejected_candidates(self, refusing_path):
        _, _, accelerated = refusing_path
        assert len(accelerated.trace) == accelerated.iterations
        assert accelerated.iterations < accelerated.sweeps < 2 * accelerated.iterations


class TestScreen:
    # One row dg = [1, 10] against the residual g = [1, 0]: the
    # least-squares fit predicts a residual of max norm 0.990 (to three
    # places), so the candidate fails the safeguard's test at alpha 0.9
    # and passes it at alpha 0.995.
    @staticmethod
    def toy(two_user_graph):
        history = _History(2)
        zero = np.zeros(2)
        pushed = _Iterate(zero, np.array([0.25, -0.25]), np.array([1.0, 10.0]),
                          11.0, 10.0, False)
        history.push(pushed, _Iterate(zero, zero, zero, 0.0, 0.0, False))
        image = np.array([0.5, -0.5])
        current = _Iterate(np.zeros(1), image, np.array([1.0, 0.0]), 1.0, 1.0, False)
        return _Sweeps(two_user_graph, SolverConfig(alpha=0.9)), history, current

    def test_candidate_returned_only_when_prediction_passes(self, two_user_graph):
        _, history, current = self.toy(two_user_graph)
        assert history.candidate(current, 0.9) is None
        assert history.candidate(current, 0.995) is not None

    def test_screened_candidate_costs_no_sweep(self, two_user_graph):
        sweeps, history, current = self.toy(two_user_graph)
        dg, df = history.dg[0].copy(), history.df[0].copy()
        plain = _Sweeps(two_user_graph, SolverConfig(alpha=0.9)).evaluate(current.image)
        accepted = _advance(sweeps, history, current, 0.9)
        assert sweeps.count == 1
        assert np.array_equal(accepted.image, plain.image)
        assert np.array_equal(accepted.residual, plain.residual)
        # The plain step is pushed onto the rows the history kept.
        assert history.size == 2
        assert np.array_equal(history.dg[0], dg)
        assert np.array_equal(history.df[0], df)

    def test_noisy_path_contracts_within_bound(self, noisy_path):
        _, config, accelerated, plain = noisy_path
        assert accelerated.converged and plain.converged
        assert_contracts(accelerated, config.alpha)
        assert_within(accelerated, plain, config)


# A 20k-user path with weights uniform in [0.2, 0.8], 250 iterates at
# alpha = 0.99: long enough vectors for OpenBLAS to split a product
# between threads, and enough iterates that candidates are accepted,
# screened out and, from iterate 216 on, evaluated and refused. Prints the
# counts and the result's bytes as hex digests.
_THREADED_SOLVE = """
import hashlib
import numpy as np
from truerating import RatingGraph, SolverConfig, solve

n = 20_000
users = np.repeat(np.arange(n), 2)
items = users + np.tile([0, 1], n)
weights = np.random.default_rng(7).uniform(0.2, 0.8, users.size)
graph = RatingGraph([f"u{i}" for i in range(n)],
                    [f"m{j}" for j in range(n + 1)], users, items, weights)
result = solve(graph, SolverConfig(alpha=0.99, max_iterations=250))
print(result.iterations, result.sweeps,
      hashlib.sha256(result.bias.tobytes()).hexdigest(),
      hashlib.sha256(result.rating.tobytes()).hexdigest())
"""


def _solve_with_blas_threads(threads: int) -> list[str]:
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(threads)
    src = str(Path(truerating.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", _THREADED_SOLVE],
        env=env, capture_output=True, text=True, check=True,
    )
    return done.stdout.split()


class TestDeterminism:
    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 2,
        reason="a BLAS library may cap its threads at the CPU count",
    )
    def test_bit_identical_at_any_blas_thread_count(self):
        serial = _solve_with_blas_threads(1)
        iterations, sweeps = int(serial[0]), int(serial[1])
        assert iterations < sweeps < 2 * iterations  # accepted and refused
        assert _solve_with_blas_threads(2) == serial

    def test_bit_identical_across_threads_with_rejections(self, refusing_path):
        graph, config, serial = refusing_path
        assert serial.sweeps > serial.iterations  # an evaluated candidate was refused
        for threads in (2, 3):
            parallel = solve(graph, config, threads=threads)
            assert np.array_equal(serial.bias, parallel.bias)
            assert np.array_equal(serial.rating, parallel.rating)
            assert serial.trace == parallel.trace
            assert serial.sweeps == parallel.sweeps
            assert serial.clamped == parallel.clamped

    def test_reruns_bit_identical(self, slow_path):
        graph, config, first, _ = slow_path
        again = solve(graph, config)
        assert np.array_equal(first.bias, again.bias)
        assert np.array_equal(first.rating, again.rating)


class TestDegenerateHistory:
    @pytest.mark.parametrize("seed", [1, 4, 8])
    def test_all_zero_overrides_at_tiny_epsilon(self, seed):
        # Every damping factor zero makes T constant: the residual
        # differences carry no direction for the Anderson step.
        graph = make_random_graph(seed, max_users=25, max_items=25)
        config = SolverConfig(
            alpha=0.5,
            epsilon=1e-300,
            max_iterations=50,
            alpha_overrides={i: 0.0 for i in range(graph.num_users)},
        )
        start = np.random.default_rng(seed).uniform(-1, 1, graph.num_users)
        result = solve(graph, config, initial_bias=start)
        assert np.isfinite(result.bias).all()
        assert np.isfinite(result.rating).all()
        assert np.array_equal(result.rating, graph.item_means())
        _, plain_bias = one_sweep(graph, np.zeros(graph.num_users), config)
        assert np.array_equal(result.bias, plain_bias)

    def test_zero_differences_fall_back_to_plain_step(self):
        graph = make_random_graph(3)
        sweeps = _Sweeps(graph, SolverConfig(alpha=0.9))
        point = sweeps.evaluate(np.zeros(graph.num_users))
        history = _History(graph.num_users)
        assert history.candidate(point, 0.9) is None
        history.push(point, point)  # a singular, all-zero Gram matrix
        assert history.candidate(point, 0.9) is None

    def test_non_finite_weights_fall_back_to_plain_steps(self, monkeypatch):
        # Least-squares weights that come out NaN are refused like a
        # singular system: every accepted iterate is then a plain step, the
        # same sweep as the plain loop's, bit for bit.
        monkeypatch.setattr(
            np.linalg, "solve", lambda a, b: np.full(len(b), np.nan)
        )
        graph = path_graph(200, seed=3)
        config = SolverConfig(alpha=0.5, epsilon=1e-9, max_iterations=500)
        result = solve(graph, config)
        plain = reference.solve(graph, config)
        assert result.converged and plain.converged
        assert result.sweeps == result.iterations == plain.iterations
        assert result.trace == plain.trace
        assert_within(result, plain, config)

    def test_single_user_map_reaches_exact_fixed_point(self):
        # One user makes T a scalar map; later history rows are collinear.
        graph = RatingGraph.from_edges(
            [("u", "a", 0.3), ("u", "b", 0.5), ("u", "c", 0.7)]
        )
        config = SolverConfig(alpha=0.5, epsilon=1e-300, max_iterations=40)
        result = solve(graph, config, initial_bias=[0.5])
        assert result.converged
        np.testing.assert_allclose(result.bias, [0.0], atol=1e-15)
        np.testing.assert_allclose(result.rating, [0.3, 0.5, 0.7], atol=1e-15)


class TestSweepPlans:
    @pytest.mark.parametrize("seed", range(5))
    def test_edge_user_is_the_user_segment_key(self, seed):
        graph = make_random_graph(seed)
        expected = np.repeat(np.arange(graph.num_users), graph.user_degrees)
        assert np.array_equal(graph.edge_user, expected)

    def test_uniform_alpha_needs_no_per_edge_array(self):
        # One factor per user, with or without overrides; the rating sweep
        # gathers alpha_i * bias_i onto the edges.
        graph = make_random_graph(2)
        assert graph.num_edges != graph.num_users
        alpha = _Sweeps(graph, SolverConfig(alpha=0.5)).alpha
        assert alpha.shape == (graph.num_users,) and (alpha == 0.5).all()
        with_override = SolverConfig(alpha=0.5, alpha_overrides={0: 0.25})
        alpha = _Sweeps(graph, with_override).alpha
        assert alpha.shape == (graph.num_users,)
        assert alpha[0] == 0.25 and (alpha[1:] == 0.5).all()


def _shuffled(graph: RatingGraph, seed: int) -> RatingGraph:
    """The same graph, built from its edges in a random order."""
    order = np.random.default_rng(seed).permutation(graph.num_edges)
    return RatingGraph(graph.user_ids, graph.item_ids, graph.edge_user[order],
                       graph.edge_item[order], graph.edge_weight[order])


def _left_to_right_means(
    graph: RatingGraph, term, per_user: bool = False
) -> list[float]:
    """Each item's mean of ``term(user, weight)`` over its raters, added
    one by one in ascending user index, in plain Python floats. With
    `per_user`, each user's mean of ``term(item, weight)`` over the items
    they rated, added in ascending item index."""
    keys, others = graph.edge_item.tolist(), graph.edge_user.tolist()
    size = graph.num_items
    if per_user:
        keys, others, size = others, keys, graph.num_users
    groups = [[] for _ in range(size)]
    for key, other, w in zip(keys, others, graph.edge_weight.tolist()):
        groups[key].append((other, w))
    means = []
    for edges in groups:
        total = 0.0
        for other, w in sorted(edges):
            total += term(other, w)
        means.append(total / len(edges))
    return means


class TestSummationOrder:
    @pytest.mark.parametrize("seed", range(8))
    def test_item_means_add_raters_in_ascending_user_order(self, seed):
        graph = _shuffled(make_random_graph(seed, 30, 12), seed)
        expected = _left_to_right_means(graph, lambda u, w: w)
        assert graph.item_means().tolist() == expected

    @pytest.mark.parametrize("seed", range(8))
    def test_rating_adds_raters_in_ascending_user_order(self, seed):
        graph = _shuffled(make_random_graph(seed, 30, 12), seed)
        rng = np.random.default_rng(seed)
        bias = rng.uniform(-1.0, 1.0, graph.num_users).tolist()
        # Odd seeds override user 0's factor, so both alpha paths run.
        overrides = {0: 0.3} if seed % 2 else None
        alpha = [0.9] * graph.num_users
        alpha[0] = 0.3 if overrides else 0.9
        config = SolverConfig(alpha=0.9, alpha_overrides=overrides)

        def term(u, w):
            return min(max(w - alpha[u] * bias[u], 0.0), 1.0)

        rating, _ = one_sweep(graph, np.array(bias), config)
        assert rating.tolist() == _left_to_right_means(graph, term)

    @pytest.mark.parametrize("seed", range(8))
    def test_bias_adds_items_in_ascending_item_order(self, seed):
        graph = _shuffled(make_random_graph(seed, 30, 12), seed)
        start = np.random.default_rng(seed).uniform(-1.0, 1.0, graph.num_users)
        rating, bias = one_sweep(graph, start, SolverConfig(alpha=0.9))
        rating = rating.tolist()
        expected = _left_to_right_means(
            graph, lambda v, w: w - rating[v], per_user=True
        )
        assert bias.tolist() == expected
