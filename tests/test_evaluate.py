import itertools
import json

import numpy as np
import pytest
from conftest import report_over

from truerating import (
    RatingGraph,
    SolverConfig,
    align_truth,
    build_report,
    degree_bins,
    generate_planted,
    histogram,
    solve,
)


def mse(predicted, truth):
    return report_over(predicted, truth).mse_overall


def rank_error(predicted, truth):
    return report_over(predicted, truth).rank_error_overall


class TestMse:
    def test_identity_is_zero(self):
        scores = {"a": 0.2, "b": 0.9}
        assert mse(scores, scores) == 0.0

    def test_single_pair(self):
        assert mse({"m1": 0.5}, {"m1": 0.7}) == pytest.approx(0.04)

    def test_intersection_only(self):
        predicted = {"a": 0.0, "b": 0.5, "zzz": 1.0}
        truth = {"b": 0.0, "missing": 0.3}
        assert mse(predicted, truth) == pytest.approx(0.25)

    def test_empty_intersection(self):
        with pytest.raises(ValueError, match="shares no items"):
            mse({"a": 0.1}, {"b": 0.2})


class TestRankError:
    def test_identical_order(self):
        assert rank_error({"a": 0.9, "b": 0.5}, {"a": 0.8, "b": 0.1}) == 0.0

    def test_two_items_reversed(self):
        assert rank_error({"a": 0.9, "b": 0.5}, {"a": 0.1, "b": 0.8}) == 1.0

    def test_requires_two_common(self):
        report = report_over({"a": 0.9, "b": 0.5}, {"a": 0.1})
        assert report.rank_error_overall is None
        assert report.rank_error_per_bin == {}

    def test_monotone_transform_invariant(self):
        predicted = {"a": 0.11, "b": 0.72, "c": 0.35, "d": 0.64}
        truth = {"a": 0.5, "b": 0.1, "c": 0.9, "d": 0.2}
        base = rank_error(predicted, truth)
        squashed = {k: v**3 + 2.0 for k, v in predicted.items()}
        assert rank_error(squashed, truth) == base

    def test_matches_brute_force_positions(self):
        # Independent check: compute positions with plain python sorting for
        # every permutation of five distinct scores.
        items = ["m1", "m2", "m3", "m4", "m5"]
        truth_scores = [0.9, 0.7, 0.5, 0.3, 0.1]
        truth = dict(zip(items, truth_scores))

        def brute_positions(scores):
            ordered = sorted(items, key=lambda k: (-scores[k], k))
            return {k: ordered.index(k) + 1 for k in items}

        ref_pos = brute_positions(truth)
        for perm in itertools.permutations(truth_scores):
            predicted = dict(zip(items, perm))
            pred_pos = brute_positions(predicted)
            expected = np.mean([abs(pred_pos[k] - ref_pos[k]) for k in items])
            assert rank_error(predicted, truth) == pytest.approx(expected)

    def test_tie_broken_by_item_id(self):
        # Equal predicted scores rank in id order, deterministically.
        predicted = {"b": 0.5, "a": 0.5}
        truth = {"a": 0.9, "b": 0.1}
        assert rank_error(predicted, truth) == 0.0


class TestBinDeviation:
    def test_trusted_users_give_zero_deviation(self):
        inst = generate_planted(10, 8, 0.7, seed=6)
        g = inst.graph
        config = SolverConfig(
            alpha=0.5, alpha_overrides={i: 0.0 for i in range(g.num_users)}
        )
        report = build_report(g, solve(g, config).rating, label="trusted")
        assert set(report.bindev) == set(report.relbindev)
        assert set(report.bindev.values()) == {0.0}
        assert set(report.relbindev.values()) == {0.0}

    def test_two_user_single_item(self, two_user_graph):
        result = solve(two_user_graph, SolverConfig(alpha=0.5, epsilon=1e-10))
        report = build_report(two_user_graph, result.rating, label="debias")
        assert set(report.bindev) == {2}  # the item has two ratings
        assert report.bindev[2] == pytest.approx(0.0, abs=1e-12)
        assert report.relbindev[2] == pytest.approx(0.0, abs=1e-12)

    def test_misaligned_vector_rejected(self, two_user_graph):
        with pytest.raises(ValueError, match="misaligned"):
            build_report(two_user_graph, np.zeros(3), label="debias")

    def test_bins_without_items_omitted(self):
        g = RatingGraph.from_edges([("u1", "m1", 0.5), ("u2", "m1", 0.6)])
        result = solve(g, SolverConfig(alpha=0.5))
        report = build_report(g, result.rating, label="debias")
        assert set(report.bindev) == set(report.relbindev) == {2}

    def test_sparse_bins_deviate_more_than_popular_ones(self):
        # With noisy raters, items with few ratings keep more bias in their
        # mean, so their corrected ratings move further. Statistical over
        # seeds on instances whose item degrees span several bins.
        wins = 0
        for seed in range(10):
            g = _heterogeneous_degree_graph(seed)
            result = solve(g, SolverConfig(alpha=0.99, epsilon=1e-9))
            table = build_report(g, result.rating, label="debias").bindev
            low = np.mean([table[k] for k in table if k <= 3])
            high = np.mean([table[k] for k in table if k >= 6])
            wins += low > high
        assert wins >= 8


def _heterogeneous_degree_graph(seed: int) -> RatingGraph:
    # Item degrees sweep powers of two so the items land in bins 1 through 8.
    rng = np.random.default_rng(seed)
    num_users, num_items = 300, 40
    bias = rng.uniform(-0.2, 0.2, num_users)
    quality = rng.uniform(0.35, 0.65, num_items)
    users, items, weights = [], [], []
    for j in range(num_items):
        degree = min(2 ** (j % 8), num_users)
        for u in rng.choice(num_users, size=degree, replace=False):
            users.append(u)
            items.append(j)
            weights.append(quality[j] + bias[u] + rng.normal(0, 0.08))
    for u in set(range(num_users)) - set(users):
        users.append(u)
        items.append(0)
        weights.append(quality[0] + bias[u] + rng.normal(0, 0.08))
    return RatingGraph(
        [str(i) for i in range(num_users)],
        [str(j) for j in range(num_items)],
        np.array(users),
        np.array(items),
        np.clip(np.array(weights), 0, 1),
    )


class TestHistogram:
    def test_empty_vector(self):
        counts = histogram([], 0.25, (-1.0, 1.0))
        assert counts.shape == (8,)
        assert counts.sum() == 0

    def test_all_values_at_low_edge(self):
        counts = histogram([0.0, 0.0, 0.0], 0.1, (0.0, 1.0))
        assert counts[0] == 3 and counts.sum() == 3

    def test_two_user_bias_buckets(self, two_user_graph):
        result = solve(two_user_graph, SolverConfig(alpha=0.5, epsilon=1e-10))
        counts = histogram(result.bias, 0.25, (-1.0, 1.0))
        # -0.5 falls in [-0.5, -0.25), 0.5 in [0.5, 0.75).
        assert counts[2] == 1 and counts[6] == 1
        assert counts.sum() == 2

    def test_overflow_clamped_into_end_buckets(self):
        counts = histogram([-5.0, 5.0, 1.0], 0.5, (-1.0, 1.0))
        assert counts[0] == 1
        assert counts[-1] == 2
        assert counts.sum() == 3

    def test_counts_sum_to_population(self):
        rng = np.random.default_rng(2)
        values = rng.normal(0, 2, size=400)
        assert histogram(values, 0.05, (-1.0, 1.0)).sum() == 400

    def test_width_validation(self):
        with pytest.raises(ValueError, match="width"):
            histogram([0.1], 0.0, (0.0, 1.0))
        with pytest.raises(ValueError, match="range"):
            histogram([0.1], 0.1, (1.0, 0.0))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            histogram([0.5, bad], 0.05, (0.0, 1.0))


class TestBuildReport:
    def _instance(self):
        inst = generate_planted(20, 15, 0.8, noise_sigma=0.03, seed=10)
        result = solve(inst.graph, SolverConfig(alpha=0.99, epsilon=1e-9))
        truth = dict(zip(inst.graph.item_ids, inst.true_rating))
        return inst, result, truth

    def test_full_report(self):
        inst, result, truth = self._instance()
        report = build_report(
            inst.graph, result.rating, truth, label="debias(α=0.99)",
            bias=result.bias,
        )
        assert report.method_label == "debias(α=0.99)"
        assert report.mse_overall >= 0.0
        assert report.rank_error_overall >= 0.0
        assert report.common_items == inst.graph.num_items
        assert report.bias_histogram.sum() == inst.graph.num_users
        assert report.rating_histogram.sum() == inst.graph.num_items
        assert set(report.mse_per_bin) == set(report.bindev)
        # Per-bin values average back to the overall figure.
        item_bins = list(report.mse_per_bin)
        assert min(item_bins) >= 1 and max(item_bins) <= 11
        counts = np.bincount(degree_bins(inst.graph.item_degrees))
        weighted = sum(counts[k] * v for k, v in report.mse_per_bin.items())
        assert weighted / report.common_items == pytest.approx(
            report.mse_overall, abs=1e-12
        )

    def test_mean_baseline_has_no_bias_histogram(self):
        inst, _, truth = self._instance()
        report = build_report(
            inst.graph, inst.graph.item_means(), truth, label="mean"
        )
        assert report.bias_histogram is None
        assert report.bindev == {k: 0.0 for k in report.bindev}

    def test_truth_optional(self):
        inst, result, _ = self._instance()
        report = build_report(inst.graph, result.rating, label="debias")
        assert report.mse_overall is None
        assert report.rank_error_overall is None
        assert report.mse_per_bin == {}

    def test_no_overlap_is_an_error(self):
        inst, result, _ = self._instance()
        with pytest.raises(ValueError, match="no items"):
            build_report(
                inst.graph, result.rating, {"ghost": 0.5}, label="debias"
            )

    def test_alignment_reused_across_methods(self):
        inst, result, truth = self._instance()
        aligned = align_truth(inst.graph, {**truth, "ghost": 0.5})
        assert aligned.unmatched == 1
        for rating in (aligned.item_means, result.rating):
            assert build_report(
                inst.graph, rating, aligned, label="m"
            ).to_dict() == build_report(
                inst.graph, rating, truth, label="m"
            ).to_dict()

    def test_alignment_for_another_graph_rejected(self):
        inst, result, truth = self._instance()
        other = generate_planted(20, 15, 0.8, noise_sigma=0.03, seed=10)
        aligned = align_truth(other.graph, truth)
        with pytest.raises(ValueError, match="another graph"):
            build_report(inst.graph, result.rating, aligned, label="debias")

    def test_single_common_item_gives_mse_but_no_rank(self):
        inst, result, truth = self._instance()
        only = {inst.graph.item_ids[0]: truth[inst.graph.item_ids[0]]}
        report = build_report(inst.graph, result.rating, only, label="debias")
        assert report.mse_overall is not None
        assert report.rank_error_overall is None

    def test_zero_rating_items_counted_as_skipped(self, two_user_graph):
        report = build_report(two_user_graph, [0.0], label="degenerate")
        assert report.relbindev_skipped == 1
        assert report.relbindev == {2: 0.0}

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        # A report of NaN or infinite figures would break strict JSON.
        graph = RatingGraph.from_edges([("u1", "m1", 1.0), ("u2", "m2", 0.0)])
        truth = {"m1": 0.5, "m2": 0.25}
        with pytest.raises(ValueError, match="rating vector holds a non-finite"):
            build_report(graph, [bad, 0.5], truth, label="m")
        with pytest.raises(ValueError, match="finite"):
            build_report(graph, [0.5, 0.5], label="m", bias=[0.0, bad])

    def test_json_serializable(self):
        inst, result, truth = self._instance()
        report = build_report(
            inst.graph, result.rating, truth, label="debias(α=0.99)",
            bias=result.bias,
        )
        payload = json.dumps(report.to_dict())
        parsed = json.loads(payload)
        assert parsed["method_label"] == "debias(α=0.99)"
        assert len(parsed["bias_histogram"]) == 40
        assert len(parsed["rating_histogram"]) == 20
