import numpy as np
import pytest

from truerating import (
    NUM_BINS,
    RatingGraph,
    RatingScale,
    degree_bins,
)


class TestRatingScale:
    def test_endpoints_and_midpoint(self):
        scale = RatingScale(1, 5)
        assert scale.normalize(1) == 0.0
        assert scale.normalize(5) == 1.0
        assert scale.normalize(3) == 0.5

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside scale"):
            RatingScale(1, 5).normalize(6)

    def test_rejects_degenerate_scale(self):
        with pytest.raises(ValueError):
            RatingScale(5, 5)
        with pytest.raises(ValueError):
            RatingScale(5, 1)

    def test_order_preserving(self):
        scale = RatingScale(0, 100)
        raws = np.linspace(0, 100, 23)
        normalized = [scale.normalize(r) for r in raws]
        assert all(a < b for a, b in zip(normalized, normalized[1:]))


def bin_of(n: int) -> int:
    return int(degree_bins([n])[0])


class TestBins:
    def test_anchor_values(self):
        assert bin_of(1) == 1
        assert bin_of(7) == 3
        assert bin_of(8) == 4
        assert bin_of(5000) == 11

    def test_boundaries_double(self):
        # Bin k covers [2**(k-1), 2**k - 1]; the last bin is open-ended.
        for k in range(1, NUM_BINS):
            assert bin_of(2 ** (k - 1)) == k
            assert bin_of(2**k - 1) == k
        assert bin_of(1024) == NUM_BINS

    def test_monotone(self):
        values = degree_bins(np.arange(1, 3000))
        assert (np.diff(values) >= 0).all()

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            degree_bins([0])
        with pytest.raises(ValueError):
            degree_bins([5, -3])

    def test_vectorized_matches_scalar(self):
        # Bin k holds the counts of bit length k, the last bin the rest.
        rng = np.random.default_rng(42)
        degrees = rng.integers(1, 5000, size=500)
        expected = [min(int(n).bit_length(), NUM_BINS) for n in degrees]
        np.testing.assert_array_equal(degree_bins(degrees), expected)


class TestRatingGraphConstruction:
    def test_from_edges_first_appearance_order(self):
        g = RatingGraph.from_edges(
            [("b", "y", 0.1), ("a", "x", 0.2), ("b", "x", 0.3)]
        )
        assert g.user_ids == ("b", "a")
        assert g.item_ids == ("y", "x")

    def test_canonical_edge_order(self):
        g = RatingGraph.from_edges(
            [("u2", "m2", 0.4), ("u1", "m2", 0.3), ("u2", "m1", 0.2)]
        )
        triples = list(g.edges())
        assert triples == sorted(
            triples, key=lambda e: (g.user_ids.index(e[0]), g.item_ids.index(e[1]))
        )

    def test_duplicate_strict_raises(self):
        with pytest.raises(
            ValueError, match="duplicate rating for user 'u1' and item 'm1'"
        ):
            RatingGraph.from_edges([("u1", "m1", 0.2), ("u1", "m1", 0.8)])

    def test_weight_out_of_range(self):
        with pytest.raises(ValueError, match="weights"):
            RatingGraph.from_edges([("u1", "m1", 1.5)])
        with pytest.raises(ValueError, match="weights"):
            RatingGraph.from_edges([("u1", "m1", -0.1)])

    def test_isolated_node_rejected(self):
        # A declared user with no edges violates the degree formulas.
        with pytest.raises(ValueError, match="isolated"):
            RatingGraph(["u1", "u2"], ["m1"], np.array([0]), np.array([0]), np.array([0.5]))

    @pytest.mark.parametrize(
        "users, items, u, v, w, message",
        [
            (["u1", "u1"], ["m1"], [0, 1], [0, 0], [0.5, 0.5], "duplicate user ids"),
            (["u1"], ["m1", "m1"], [0, 0], [0, 1], [0.5, 0.5], "duplicate item ids"),
            (["u1"], ["m1"], [0, 0], [0], [0.5], "equally sized"),
            (["u1"], ["m1"], [[0]], [[0]], [[0.5]], "1-d"),
            (["u1"], ["m1"], [1], [0], [0.5], "user index out of range"),
            (["u1"], ["m1"], [-1], [0], [0.5], "user index out of range"),
            (["u1"], ["m1"], [0], [1], [0.5], "item index out of range"),
            (["u1"], ["m1"], [0], [-1], [0.5], "item index out of range"),
            (["u1"], ["m1", "m2"], [0], [0], [0.5], "isolated item"),
        ],
        ids=["user-ids", "item-ids", "sizes", "2-d", "user-high", "user-low",
             "item-high", "item-low", "isolated-item"],
    )
    def test_constructor_refusals(self, users, items, u, v, w, message):
        with pytest.raises(ValueError, match=message):
            RatingGraph(users, items, np.array(u), np.array(v), np.array(w))

    def test_empty_graph(self):
        g = RatingGraph.from_edges([])
        assert g.num_users == 0 and g.num_items == 0 and g.num_edges == 0

    def test_arrays_frozen(self):
        g = RatingGraph.from_edges([("u1", "m1", 0.5)])
        with pytest.raises(ValueError):
            g.edge_weight[0] = 0.9


class TestRatingGraphViews:
    def test_degree_identity(self):
        # Total out-degree, total in-degree, and the edge count agree.
        from conftest import make_random_graph

        for seed in range(10):
            g = make_random_graph(seed)
            assert g.user_degrees.sum() == g.num_edges
            assert g.item_degrees.sum() == g.num_edges

    def test_views_hold_same_edge_multiset(self):
        # The one canonical edge list holds the input's edges whatever
        # their order, and the stored item degrees count them per item.
        from conftest import make_random_graph

        g = make_random_graph(3)
        order = np.random.default_rng(3).permutation(g.num_edges)
        shuffled = RatingGraph(g.user_ids, g.item_ids, g.edge_user[order],
                               g.edge_item[order], g.edge_weight[order])
        forward = set(zip(g.edge_user, g.edge_item, g.edge_weight))
        assert forward == set(zip(shuffled.edge_user, shuffled.edge_item,
                                  shuffled.edge_weight))
        assert np.array_equal(
            g.item_degrees, np.bincount(g.edge_item, minlength=g.num_items)
        )

    def test_slices_cover_neighbors(self):
        g = RatingGraph.from_edges(
            [("u1", "m1", 0.1), ("u1", "m2", 0.2), ("u2", "m2", 0.3)]
        )
        # User u1's edges come first, as many as its degree.
        assert list(g.edge_item[:g.user_degrees[0]]) == [0, 1]
        # Item m2's raters appear in the edge list in ascending user order.
        assert list(g.edge_user[g.edge_item == 1]) == [0, 1]

    def test_item_means(self):
        g = RatingGraph.from_edges(
            [("u1", "m1", 1.0), ("u2", "m1", 0.0), ("u1", "m2", 0.4)]
        )
        np.testing.assert_allclose(g.item_means(), [0.5, 0.4])
