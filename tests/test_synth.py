import numpy as np
import pytest

from truerating import SolverConfig, generate_planted, solve


class TestGeneratePlanted:
    def test_same_seed_same_instance(self):
        a = generate_planted(12, 9, 0.6, noise_sigma=0.02, seed=5)
        b = generate_planted(12, 9, 0.6, noise_sigma=0.02, seed=5)
        assert np.array_equal(a.graph.edge_user, b.graph.edge_user)
        assert np.array_equal(a.graph.edge_item, b.graph.edge_item)
        assert np.array_equal(a.graph.edge_weight, b.graph.edge_weight)
        assert np.array_equal(a.true_bias, b.true_bias)
        assert np.array_equal(a.true_rating, b.true_rating)

    def test_different_seed_differs(self):
        a = generate_planted(12, 9, 0.6, seed=5)
        b = generate_planted(12, 9, 0.6, seed=6)
        assert not np.array_equal(a.graph.edge_weight, b.graph.edge_weight)

    def test_noiseless_weights_are_exact_sums(self):
        inst = generate_planted(10, 7, 0.8, seed=3)
        g = inst.graph
        expected = inst.true_rating[g.edge_item] + inst.true_bias[g.edge_user]
        np.testing.assert_array_equal(g.edge_weight, expected)

    def test_noise_clipped_into_unit_interval(self):
        inst = generate_planted(
            30, 30, 1.0, bias_range=(-0.5, 0.5), quality_range=(0.0, 1.0),
            noise_sigma=0.5, seed=8,
        )
        w = inst.graph.edge_weight
        assert w.min() >= 0.0 and w.max() <= 1.0

    def test_density_one_is_complete(self):
        inst = generate_planted(6, 5, 1.0, seed=1)
        assert inst.graph.num_edges == 30

    def test_no_isolated_nodes(self):
        inst = generate_planted(25, 25, 0.15, seed=2)
        assert inst.graph.user_degrees.min() >= 1
        assert inst.graph.item_degrees.min() >= 1

    def test_retry_budget_exhausted(self):
        with pytest.raises(ValueError, match="too sparse"):
            generate_planted(40, 40, 1e-6, seed=0)

    def test_infeasible_noiseless_ranges(self):
        with pytest.raises(ValueError, match="infeasible"):
            generate_planted(
                5, 5, 1.0, bias_range=(-0.5, 0.5), quality_range=(0.2, 0.8)
            )

    def test_range_validation(self):
        with pytest.raises(ValueError, match="bias range"):
            generate_planted(5, 5, 1.0, bias_range=(-2.0, 0.1))
        with pytest.raises(ValueError, match="quality range"):
            generate_planted(5, 5, 1.0, quality_range=(0.5, 0.2))
        with pytest.raises(ValueError, match="density"):
            generate_planted(5, 5, 0.0)
        with pytest.raises(ValueError, match="sigma"):
            generate_planted(5, 5, 1.0, noise_sigma=-0.1)
        with pytest.raises(ValueError, match="at least one"):
            generate_planted(0, 5, 1.0)


class TestPlantedRecovery:
    def test_complete_noiseless_recovery_up_to_shift(self):
        # On a complete noiseless instance the solver pins the planted
        # values only up to the mean planted bias moving between the bias
        # and rating vectors.
        inst = generate_planted(
            14, 11, 1.0, bias_range=(-0.2, 0.2), quality_range=(0.3, 0.7), seed=21
        )
        epsilon = 1e-10
        result = solve(inst.graph, SolverConfig(alpha=0.6, epsilon=epsilon))
        shift = inst.true_bias.mean()
        assert result.converged and not result.clamped
        np.testing.assert_allclose(
            result.bias, inst.true_bias - shift, atol=10 * epsilon
        )
        np.testing.assert_allclose(
            result.rating, inst.true_rating + shift, atol=10 * epsilon
        )

    def test_raw_vectors_differ_unless_shift_vanishes(self):
        inst = generate_planted(
            9, 9, 1.0, bias_range=(0.05, 0.2), quality_range=(0.3, 0.7), seed=4
        )
        result = solve(inst.graph, SolverConfig(alpha=0.5, epsilon=1e-11))
        shift = inst.true_bias.mean()
        assert shift > 0.04
        # Raw comparison fails by about the shift; adjusted comparison holds.
        assert np.max(np.abs(result.bias - inst.true_bias)) > 0.04
        np.testing.assert_allclose(result.bias, inst.true_bias - shift, atol=1e-9)

    def test_noisy_recovery_improves_with_more_items(self):
        # More rated items average the noise out of each user's bias
        # estimate; tested statistically over a seed family.
        wins = 0
        for seed in range(10):
            errors = {}
            for num_items in (20, 200):
                inst = generate_planted(
                    15, num_items, 1.0, bias_range=(-0.2, 0.2),
                    quality_range=(0.3, 0.7), noise_sigma=0.05, seed=seed,
                )
                result = solve(inst.graph, SolverConfig(alpha=0.5, epsilon=1e-11))
                shift = inst.true_bias.mean()
                errors[num_items] = np.max(
                    np.abs(result.bias - (inst.true_bias - shift))
                )
            wins += errors[200] < errors[20]
        assert wins >= 8
