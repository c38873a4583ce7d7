from dataclasses import replace

import numpy as np
import pytest
from conftest import make_random_graph

import reference_oracle as reference
from truerating import (
    RatingGraph,
    SolverConfig,
    generate_planted,
    solve,
    solve_linear,
)
from truerating.oracle import residual_linf


class TestBuildDense:
    def test_two_user_transcription(self, two_user_graph):
        system = reference.build_dense(two_user_graph, 0.5)
        np.testing.assert_array_equal(system.weights, [[1.0], [0.0]])
        np.testing.assert_array_equal(system.connections, [[1.0], [1.0]])
        np.testing.assert_array_equal(system.user_degrees, [1.0, 1.0])
        np.testing.assert_array_equal(system.item_degrees, [2.0])

    def test_complete_three_by_three(self):
        inst = generate_planted(3, 3, 1.0, seed=1)
        system = reference.build_dense(inst.graph, 0.5)
        np.testing.assert_array_equal(system.connections, np.ones((3, 3)))
        np.testing.assert_array_equal(system.user_degrees, [3.0, 3.0, 3.0])
        np.testing.assert_array_equal(system.item_degrees, [3.0, 3.0, 3.0])

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="empty graph"):
            reference.build_dense(RatingGraph.from_edges([]), 0.5)

    def test_alpha_validated(self, two_user_graph):
        with pytest.raises(ValueError):
            reference.build_dense(two_user_graph, 1.0)


class TestSolveLinear:
    def test_two_user_hand_solution(self, two_user_graph):
        bias, rating = solve_linear(two_user_graph, 0.5)
        np.testing.assert_allclose(bias, [0.5, -0.5], atol=1e-14)
        np.testing.assert_allclose(rating, [0.5], atol=1e-14)

    def test_vanishing_alpha_limit(self):
        # As the damping factor approaches zero the equations decouple:
        # ratings become the plain item means and biases the mean
        # deviations from them.
        g = make_random_graph(6, max_users=12, max_items=12)
        bias, rating = solve_linear(g, 1e-12)
        means = g.item_means()
        np.testing.assert_allclose(rating, means, atol=1e-10)
        expected_bias = [
            np.mean(
                [w - means[j] for u, j, w in zip(g.edge_user, g.edge_item, g.edge_weight) if u == i]
            )
            for i in range(g.num_users)
        ]
        np.testing.assert_allclose(bias, expected_bias, atol=1e-10)

    def test_residual_tiny(self):
        for seed in range(8):
            g = make_random_graph(seed, max_users=20, max_items=20)
            bias, rating = solve_linear(g, 0.9)
            assert residual_linf(g, 0.9, bias, rating) <= 1e-10

    def test_mixing_matrix_spectral_radius_below_one(self):
        # Power iteration on the degree-normalized co-rating matrix; its
        # spectral radius stays at most 1, so 1/alpha always exceeds it and
        # the system matrix is invertible.
        for seed in (3, 11):
            g = make_random_graph(seed, max_users=25, max_items=25)
            system = reference.build_dense(g, 0.99)
            mix = (system.connections / system.user_degrees[:, None]) @ (
                system.connections.T / system.item_degrees[:, None]
            )
            rng = np.random.default_rng(seed)
            vec = rng.random(g.num_users)
            for _ in range(200):
                nxt = mix @ vec
                norm = np.linalg.norm(nxt)
                assert norm > 0
                vec = nxt / norm
            estimate = float(vec @ (mix @ vec)) / float(vec @ vec)
            assert estimate <= 1.0 + 1e-9
            assert estimate < 1.0 / 0.99

    def test_row_sums_of_mixing_matrix_are_one(self):
        g = make_random_graph(4, max_users=15, max_items=15)
        system = reference.build_dense(g, 0.5)
        mix = (system.connections / system.user_degrees[:, None]) @ (
            system.connections.T / system.item_degrees[:, None]
        )
        np.testing.assert_allclose(mix.sum(axis=1), np.ones(g.num_users), atol=1e-12)

    def test_alpha_validation_on_system(self):
        with pytest.raises(ValueError):
            reference.DenseSystem(
                weights=np.ones((1, 1)),
                connections=np.ones((1, 1)),
                user_degrees=np.ones(1),
                item_degrees=np.ones(1),
                alpha=1.0,
            )


class TestConjugateGradients:
    @pytest.mark.parametrize("alpha", [1e-12, 0.3, 0.9, 0.99])
    def test_matches_dense_reference(self, alpha):
        for seed in range(300):
            g = make_random_graph(seed, max_users=30, max_items=30)
            bias, rating = solve_linear(g, alpha)
            dense_bias, dense_rating = reference.solve_linear(
                reference.build_dense(g, alpha)
            )
            assert np.max(np.abs(bias - dense_bias)) <= 1e-12, seed
            assert np.max(np.abs(rating - dense_rating)) <= 1e-12, seed

    def test_residual_matches_dense_reference(self):
        # At arbitrary points, not only at the solution.
        rng = np.random.default_rng(5)
        for seed in range(20):
            g = make_random_graph(seed, max_users=20, max_items=20)
            bias = rng.uniform(-1, 1, g.num_users)
            rating = rng.uniform(0, 1, g.num_items)
            dense = reference.residual_linf(
                reference.build_dense(g, 0.7), bias, rating
            )
            assert residual_linf(g, 0.7, bias, rating) == pytest.approx(
                dense, abs=1e-14
            )

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, float("nan")])
    def test_alpha_validated(self, two_user_graph, alpha):
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
            solve_linear(two_user_graph, alpha)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="empty graph"):
            solve_linear(RatingGraph.from_edges([]), 0.5)

    def test_step_cap_raises(self, monkeypatch):
        g = make_random_graph(3, max_users=20, max_items=20)
        monkeypatch.setattr("truerating.oracle._step_cap", lambda alpha, users: 1)
        with pytest.raises(ValueError, match="did not converge within 1 steps"):
            solve_linear(g, 0.9)


class TestOracleAgainstIterativeSolve:
    def test_agreement_on_clamp_free_instances(self):
        rng = np.random.default_rng(9)
        for _ in range(6):
            inst = generate_planted(
                int(rng.integers(5, 15)),
                int(rng.integers(5, 15)),
                1.0,
                bias_range=(-0.15, 0.15),
                quality_range=(0.25, 0.75),
                seed=int(rng.integers(0, 2**31)),
            )
            alpha = float(rng.choice([0.3, 0.6, 0.9]))
            result = solve(inst.graph, SolverConfig(alpha=alpha, epsilon=1e-13))
            assert not result.clamped
            bias, rating = solve_linear(inst.graph, alpha)
            np.testing.assert_allclose(result.bias, bias, atol=1e-8)
            np.testing.assert_allclose(result.rating, rating, atol=1e-8)

    def test_agreement_when_only_earlier_iterates_clamp(self):
        # Noise makes an early iterate clip a weight, but not the answer,
        # which therefore solves the linear system: `clamped` describes
        # the returned iterate, not the path to it.
        graph = generate_planted(60, 40, 0.3, noise_sigma=0.1, seed=17).graph
        config = SolverConfig(alpha=0.99, epsilon=1e-12)
        result = solve(graph, config)
        assert result.converged and not result.clamped
        assert any(solve(graph, replace(config, max_iterations=k)).clamped
                   for k in range(1, result.iterations))
        bias, rating = solve_linear(graph, 0.99)
        np.testing.assert_allclose(result.bias, bias, atol=1e-8)
        np.testing.assert_allclose(result.rating, rating, atol=1e-8)

    def test_oracle_wrong_when_clamping(self, clamping_graph):
        # With clamping active the linear model no longer describes the
        # fixed point; the solutions must visibly disagree.
        result = solve(clamping_graph, SolverConfig(alpha=0.99, epsilon=1e-12))
        assert result.clamped
        bias, _ = solve_linear(clamping_graph, 0.99)
        assert np.max(np.abs(result.bias - bias)) > 1e-3
