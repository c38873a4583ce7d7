import numpy as np
import pytest
from conftest import debiased, make_random_graph, one_sweep

from truerating import (
    RatingGraph,
    SolverConfig,
    generate_planted,
    iterations_needed,
    solve,
)


class TestDebiasWeight:
    """The rating half of a sweep corrects each weight and clips it."""

    def test_interior(self):
        assert debiased([0.6], 0.5, [0.4]) == pytest.approx([0.4])

    def test_upper_clamp(self):
        assert debiased([0.9], 0.5, [-0.3]).tolist() == [1.0]

    def test_lower_clamp(self):
        assert debiased([0.2], 0.5, [0.5]).tolist() == [0.0]

    def test_elementwise(self):
        w = np.array([0.6, 0.9, 0.2])
        b = np.array([0.4, -0.3, 0.5])
        np.testing.assert_allclose(debiased(w, 0.5, b), [0.4, 1.0, 0.0])


class TestIterationsNeeded:
    def test_anchors(self):
        assert iterations_needed(0.5, 1e-6) == 21
        assert iterations_needed(0.5, 2.0) == 0
        assert iterations_needed(0.99, 1e-6) == 1444

    def test_monotone_in_alpha(self):
        counts = [iterations_needed(a, 1e-6) for a in (0.2, 0.5, 0.9, 0.99)]
        assert counts == sorted(counts)

    def test_validation(self):
        with pytest.raises(ValueError):
            iterations_needed(0.0, 1e-6)
        with pytest.raises(ValueError):
            iterations_needed(1.0, 1e-6)
        with pytest.raises(ValueError):
            iterations_needed(0.5, 0.0)


class TestSolverConfig:
    def test_defaults(self):
        config = SolverConfig()
        assert config.alpha == 0.99
        assert config.epsilon == 1e-6
        assert config.max_iterations == iterations_needed(0.99, 1e-6)

    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            SolverConfig(alpha=0.0)
        with pytest.raises(ValueError):
            SolverConfig(alpha=1.0)
        with pytest.raises(ValueError):
            SolverConfig(alpha=1.5)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            SolverConfig(epsilon=0.0)

    def test_zero_max_iterations_allowed(self):
        assert SolverConfig(max_iterations=0).max_iterations == 0
        with pytest.raises(ValueError):
            SolverConfig(max_iterations=-1)

    def test_override_must_not_exceed_alpha(self):
        SolverConfig(alpha=0.5, alpha_overrides={0: 0.0, 1: 0.5})
        with pytest.raises(ValueError, match="override"):
            SolverConfig(alpha=0.5, alpha_overrides={0: 0.6})
        with pytest.raises(ValueError, match="override"):
            SolverConfig(alpha=0.5, alpha_overrides={0: -0.1})


class TestIterateOnce:
    """One sweep: `solve` capped at one accepted iterate."""

    def test_single_edge_fixed_point(self):
        g = RatingGraph.from_edges([("u1", "m1", 0.7)])
        rating, bias = one_sweep(g, np.zeros(1), SolverConfig(alpha=0.3))
        np.testing.assert_allclose(rating, [0.7])
        np.testing.assert_allclose(bias, [0.0])

    def test_two_user_fixed_point(self, two_user_graph):
        rating, bias = one_sweep(
            two_user_graph, np.zeros(2), SolverConfig(alpha=0.5)
        )
        np.testing.assert_allclose(rating, [0.5])
        np.testing.assert_allclose(bias, [0.5, -0.5])
        # Already the fixed point: iterating again must not move.
        rating2, bias2 = one_sweep(two_user_graph, bias, SolverConfig(alpha=0.5))
        np.testing.assert_allclose(rating2, rating)
        np.testing.assert_allclose(bias2, bias)

    def test_all_trusted_users_give_plain_means(self):
        g = make_random_graph(5)
        config = SolverConfig(
            alpha=0.7, alpha_overrides={i: 0.0 for i in range(g.num_users)}
        )
        rating, _ = one_sweep(g, np.zeros(g.num_users), config)
        np.testing.assert_array_equal(rating, g.item_means())

    def test_bias_length_checked(self, two_user_graph):
        with pytest.raises(ValueError, match="shape"):
            one_sweep(two_user_graph, np.zeros(3), SolverConfig())

    def test_bias_range_checked(self, two_user_graph):
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            one_sweep(two_user_graph, np.array([1.5, 0.0]), SolverConfig())


class TestSolve:
    def test_two_user_converges_to_hand_solution(self, two_user_graph):
        result = solve(two_user_graph, SolverConfig(alpha=0.5, epsilon=1e-9))
        assert result.converged
        np.testing.assert_allclose(result.bias, [0.5, -0.5], atol=1e-12)
        np.testing.assert_allclose(result.rating, [0.5], atol=1e-12)
        assert not result.clamped

    def test_trace_shape_and_stopping(self, two_user_graph):
        result = solve(two_user_graph, SolverConfig(alpha=0.5, epsilon=1e-9))
        assert len(result.trace) == result.iterations
        assert result.trace[-1].l1_bias_delta < 1e-9
        for stats in result.trace:
            assert stats.l1_bias_delta >= stats.linf_bias_delta >= 0.0

    def test_default_config(self):
        g = make_random_graph(6, max_users=20, max_items=20)
        default, explicit = solve(g), solve(g, SolverConfig())
        assert np.array_equal(default.bias, explicit.bias)
        assert np.array_equal(default.rating, explicit.rating)
        assert default.trace == explicit.trace
        assert default.sweeps == explicit.sweeps
        assert default.clamped == explicit.clamped

    def test_zero_iterations_returns_start_state(self, two_user_graph):
        result = solve(two_user_graph, SolverConfig(max_iterations=0))
        assert not result.converged
        assert result.iterations == 0
        assert not result.clamped
        assert result.trace == []
        np.testing.assert_array_equal(result.bias, [0.0, 0.0])
        np.testing.assert_array_equal(result.rating, two_user_graph.item_means())

    def test_not_converged_at_tiny_budget(self):
        g = make_random_graph(9, max_users=20, max_items=20)
        result = solve(g, SolverConfig(alpha=0.99, epsilon=1e-12, max_iterations=1))
        assert not result.converged
        assert result.iterations == 1

    def test_range_preservation(self):
        for seed in range(6):
            g = make_random_graph(seed, max_users=15, max_items=15)
            result = solve(g, SolverConfig(alpha=0.9, epsilon=1e-10))
            assert result.bias.min() >= -1.0 and result.bias.max() <= 1.0
            assert result.rating.min() >= 0.0 and result.rating.max() <= 1.0

    def test_seed_choice_does_not_change_limit(self):
        g = make_random_graph(12, max_users=15, max_items=15)
        rng = np.random.default_rng(0)
        config = SolverConfig(alpha=0.8, epsilon=1e-12)
        from_zero = solve(g, config)
        from_random = solve(g, config, initial_bias=rng.uniform(-1, 1, g.num_users))
        np.testing.assert_allclose(from_zero.bias, from_random.bias, atol=1e-9)
        np.testing.assert_allclose(from_zero.rating, from_random.rating, atol=1e-9)

    def test_constant_seed_accepted(self, two_user_graph):
        result = solve(
            two_user_graph,
            SolverConfig(alpha=0.5, epsilon=1e-9),
            initial_bias=np.full(2, 0.25),
        )
        assert result.converged
        np.testing.assert_allclose(result.bias, [0.5, -0.5], atol=1e-8)

    def test_all_zero_overrides_reproduce_means_bit_exactly(self):
        for seed in (1, 4, 8):
            g = make_random_graph(seed, max_users=25, max_items=25)
            config = SolverConfig(
                alpha=0.5,
                epsilon=1e-9,
                alpha_overrides={i: 0.0 for i in range(g.num_users)},
            )
            result = solve(g, config)
            assert np.array_equal(result.rating, g.item_means())
            assert result.converged

    def test_mixed_overrides_respected(self):
        # One fully trusted user among biased ones still shifts the result
        # compared to the uniform-alpha solve.
        inst = generate_planted(10, 8, 1.0, seed=2)
        uniform = solve(inst.graph, SolverConfig(alpha=0.5, epsilon=1e-11))
        trusted = solve(
            inst.graph,
            SolverConfig(alpha=0.5, epsilon=1e-11, alpha_overrides={0: 0.0}),
        )
        assert not np.allclose(uniform.rating, trusted.rating, atol=1e-9)

    def test_override_index_validated(self, two_user_graph):
        with pytest.raises(ValueError, match="unknown user index"):
            solve(two_user_graph, SolverConfig(alpha_overrides={5: 0.1}))

    def test_clamp_flag(self, clamping_graph):
        clamped = solve(clamping_graph, SolverConfig(alpha=0.99, epsilon=1e-10))
        assert clamped.clamped
        clean = solve(
            generate_planted(8, 8, 1.0, seed=0).graph,
            SolverConfig(alpha=0.5, epsilon=1e-10),
        )
        assert not clean.clamped

    def test_edge_input_order_irrelevant(self):
        # Output arrays follow each graph's own id order, so compare by id.
        edges = [("u1", "m1", 0.9), ("u1", "m2", 0.3), ("u2", "m1", 0.2), ("u2", "m2", 0.6)]
        g1 = RatingGraph.from_edges(edges)
        g2 = RatingGraph.from_edges(edges[::-1])
        config = SolverConfig(alpha=0.7, epsilon=1e-11)
        r1, r2 = solve(g1, config), solve(g2, config)
        for uid in ("u1", "u2"):
            assert r1.bias[g1.user_ids.index(uid)] == r2.bias[g2.user_ids.index(uid)]
        for mid in ("m1", "m2"):
            assert r1.rating[g1.item_ids.index(mid)] == r2.rating[g2.item_ids.index(mid)]

    def test_empty_graph(self):
        result = solve(RatingGraph.from_edges([]), SolverConfig(alpha=0.5))
        assert result.converged
        assert result.bias.size == 0 and result.rating.size == 0

    def test_threads_validated(self, two_user_graph):
        with pytest.raises(ValueError, match="threads"):
            solve(two_user_graph, SolverConfig(), threads=0)


class TestParallelism:
    def test_bit_identical_across_thread_counts(self):
        inst = generate_planted(40, 30, 0.5, noise_sigma=0.05, seed=14)
        config = SolverConfig(alpha=0.9, epsilon=1e-12)
        serial = solve(inst.graph, config, threads=1)
        for threads in (2, 4, 7):
            parallel = solve(inst.graph, config, threads=threads)
            assert np.array_equal(serial.bias, parallel.bias)
            assert np.array_equal(serial.rating, parallel.rating)
            assert serial.trace == parallel.trace
            assert serial.converged == parallel.converged

    def test_more_threads_than_nodes(self, two_user_graph):
        config = SolverConfig(alpha=0.5, epsilon=1e-9)
        serial = solve(two_user_graph, config)
        parallel = solve(two_user_graph, config, threads=16)
        assert np.array_equal(serial.bias, parallel.bias)
