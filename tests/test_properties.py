"""Randomized invariants checked with hypothesis.

Each property restates a guarantee the library leans on elsewhere: the
debias map contracts, degree bins partition the positive integers,
histograms conserve mass, graph views stay consistent, and the solver
contracts iteration over iteration regardless of the starting point.
"""

import json
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from truerating import (
    NUM_BINS,
    RatingGraph,
    degree_bins,
    histogram,
    iterations_needed,
    solve,
    SolverConfig,
    build_report,
)

from truerating.graph import _means

from conftest import debiased, make_random_graph, report_over

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
signed_unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
damping = st.floats(min_value=0.01, max_value=0.99, allow_nan=False)
graph_seeds = st.integers(min_value=0, max_value=10_000)
item_keys = st.sampled_from([f"m{i}" for i in range(8)])


#: Mean terms: ordinary floats, and the signed zeros and subnormals at
#: which two summation kernels could first part.
mean_terms = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310]),
)


class TestMeansProperties:
    @given(
        terms=st.lists(st.tuples(st.integers(0, 7), mean_terms), max_size=40),
        extra=st.integers(0, 3),
        data=st.data(),
    )
    def test_equals_bincount_bit_for_bit(self, terms, extra, data):
        # Keys repeat and come unsorted; `extra` lengthens the result past
        # the largest key, so some entries have no terms.
        keys = np.array([k for k, _ in terms], dtype=np.int64)
        values = np.array([w for _, w in terms], dtype=np.float64)
        length = (int(keys.max()) + 1 if keys.size else 0) + extra
        counts = data.draw(st.lists(st.integers(1, 50), min_size=length,
                                    max_size=length))
        dtype = data.draw(st.sampled_from([np.int64, np.float64]))
        degrees = np.array(counts, dtype=dtype)
        expected = np.bincount(keys, values, length) / degrees
        got = _means(keys, values, degrees)
        assert got.dtype == np.float64
        assert got.tobytes() == expected.tobytes()

    def test_float64_without_terms(self):
        got = _means(np.array([], np.int64), np.array([]), np.array([2, 3]))
        assert got.dtype == np.float64
        assert got.tobytes() == np.zeros(2).tobytes()


class TestDebiasWeightProperties:
    @given(w=unit, alpha=damping, b1=signed_unit, b2=signed_unit)
    def test_contraction_in_bias(self, w, alpha, b1, b2):
        r1, r2 = debiased([w, w], alpha, [b1, b2])
        assert abs(r1 - r2) <= alpha * abs(b1 - b2) + 1e-12

    @given(w=unit, alpha=damping, b=signed_unit)
    def test_output_stays_in_unit_interval(self, w, alpha, b):
        (out,) = debiased([w], alpha, [b])
        assert 0.0 <= out <= 1.0


class TestBinProperties:
    @given(n=st.integers(min_value=1, max_value=10**6))
    def test_bins_partition_positive_integers(self, n):
        k = int(degree_bins([n])[0])
        assert 1 <= k <= NUM_BINS
        if k < NUM_BINS:
            assert 2 ** (k - 1) <= n <= 2**k - 1
        else:
            assert n >= 1024

    @given(n=st.integers(min_value=1, max_value=10**6))
    def test_monotone_in_degree(self, n):
        low, high = degree_bins([n, n + 1])
        assert low <= high

    @given(degrees=st.lists(st.integers(1, 5000), min_size=1, max_size=50))
    def test_vectorized_matches_scalar(self, degrees):
        # Bin k holds the counts of bit length k, the last bin the rest.
        got = degree_bins(np.asarray(degrees))
        assert got.tolist() == [min(d.bit_length(), NUM_BINS) for d in degrees]


class TestHistogramProperties:
    @given(
        values=st.lists(st.floats(-5.0, 5.0, allow_nan=False), max_size=200),
        width=st.sampled_from([0.05, 0.1, 0.25, 0.5]),
    )
    def test_counts_conserve_mass(self, values, width):
        counts = histogram(np.asarray(values, dtype=np.float64), width, (-1.0, 1.0))
        assert int(counts.sum()) == len(values)
        assert (counts >= 0).all()


class TestGraphProperties:
    @given(seed=graph_seeds)
    @settings(max_examples=40, deadline=None)
    def test_degree_sums_match_edge_count(self, seed):
        graph = make_random_graph(seed)
        assert int(graph.user_degrees.sum()) == graph.num_edges
        assert int(graph.item_degrees.sum()) == graph.num_edges

    @given(seed=graph_seeds)
    @settings(max_examples=40, deadline=None)
    def test_edge_listing_round_trips(self, seed):
        graph = make_random_graph(seed)
        rebuilt = RatingGraph.from_edges(list(graph.edges()))
        assert rebuilt.num_users == graph.num_users
        assert rebuilt.num_items == graph.num_items
        assert sorted(rebuilt.edges()) == sorted(graph.edges())


class TestSolverProperties:
    @given(seed=graph_seeds, alpha=st.sampled_from([0.2, 0.5, 0.8, 0.99]))
    @settings(max_examples=30, deadline=None)
    def test_bias_deltas_contract(self, seed, alpha):
        graph = make_random_graph(seed)
        config = SolverConfig(alpha=alpha, epsilon=1e-300, max_iterations=15)
        result = solve(graph, config)
        deltas = [s.linf_bias_delta for s in result.trace]
        for before, after in zip(deltas, deltas[1:]):
            assert after <= alpha * before + 1e-12
        assert np.all(result.rating >= 0.0) and np.all(result.rating <= 1.0)
        assert np.all(np.abs(result.bias) <= 1.0)

    @given(
        seed=graph_seeds,
        alpha=st.sampled_from([0.2, 0.5, 0.9]),
        start=signed_unit,
    )
    @settings(max_examples=25, deadline=None)
    def test_fixed_point_ignores_initialization(self, seed, alpha, start):
        graph = make_random_graph(seed)
        budget = iterations_needed(alpha, 1e-9)
        config = SolverConfig(alpha=alpha, epsilon=1e-300, max_iterations=budget)
        from_zeros = solve(graph, config)
        from_const = solve(
            graph,
            config,
            initial_bias=np.full(graph.num_users, start),
        )
        gap = np.max(np.abs(from_zeros.bias - from_const.bias))
        assert gap <= 1e-8


class TestIterationBoundProperties:
    @given(alpha=damping, epsilon=st.floats(1e-12, 1.0, allow_nan=False))
    def test_budget_actually_suffices(self, alpha, epsilon):
        count = iterations_needed(alpha, epsilon)
        if count >= 1:
            assert 2.0 * alpha**count <= epsilon * (1.0 + 1e-9)

    @given(alpha=damping, epsilon=st.floats(1e-12, 1.0, allow_nan=False))
    def test_tighter_epsilon_needs_no_fewer_iterations(self, alpha, epsilon):
        assert iterations_needed(alpha, epsilon / 2.0) >= iterations_needed(
            alpha, epsilon
        )


class TestMetricProperties:
    @given(
        pred=st.dictionaries(item_keys, unit, min_size=2),
        truth=st.dictionaries(item_keys, unit, min_size=2),
    )
    def test_rank_error_invariant_under_monotone_rescale(self, pred, truth):
        if len(set(pred) & set(truth)) < 2:
            return
        # Scaling by a power of two is exact, so order and ties survive.
        rescaled = {key: 4.0 * value for key, value in pred.items()}
        assert (report_over(rescaled, truth).rank_error_overall
                == report_over(pred, truth).rank_error_overall)

    @given(truth=st.dictionaries(item_keys, unit, min_size=2))
    def test_rank_error_vanishes_on_self(self, truth):
        report = report_over(truth, truth)
        assert report.rank_error_overall == 0.0
        assert math.isfinite(report.mse_overall)

    @given(ratings=st.lists(unit, min_size=1, max_size=8))
    def test_report_is_strict_json(self, ratings):
        # Subnormal ratings included: no figure may overflow to inf.
        graph = RatingGraph(
            ["u"], [f"m{j}" for j in range(len(ratings))],
            np.zeros(len(ratings), dtype=np.int64), np.arange(len(ratings)),
            np.full(len(ratings), 0.5),
        )
        report = build_report(graph, ratings, label="m")
        json.dumps(report.to_dict(), allow_nan=False)

    def test_subnormal_rating_left_out_of_relbindev(self):
        graph = RatingGraph(
            ["u"], ["a", "b"], np.zeros(2, dtype=np.int64), np.arange(2),
            np.full(2, 0.5),
        )
        report = build_report(graph, [5e-324, 0.5], label="m")
        assert report.relbindev == {1: 0.0}
        assert report.relbindev_skipped == 1
