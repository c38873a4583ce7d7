"""The dense-array accuracy metrics against the dict-based reference.

For any input, every `build_report` field must be exactly equal to the
reference's (same bits, no tolerance), or both must raise the same error;
its overall MSE and rank error must also equal the reference's two-map
`mse` and `rank_error`.
"""

import json
from types import MappingProxyType

import numpy as np
import pytest
from conftest import report_over
from hypothesis import given, settings, strategies as st

import reference_evaluate as reference
from truerating import RatingGraph, align_truth, build_report

# Unicode ids, so code-point order matters, NULs among them; ids wider than
# the 8 bytes one sort key word packs; and ids that are prefixes of others,
# with or without a NUL after the prefix. Hypothesis lists come in any
# order, so ascending-id order usually differs from the graph's numbering.
PREFIX_IDS = ["a", "a\x00", "a\x00b", "ab", "\x00", "\x00\x00"]
ids = st.one_of(
    st.text(st.characters(codec="utf-8"), min_size=1, max_size=3),
    st.text(st.characters(codec="utf-8"), min_size=9, max_size=12),
    st.sampled_from(PREFIX_IDS),
)
# A few repeated values make tied scores common; -0.0 ties with 0.0.
scores = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]),
    st.floats(-1.5, 1.5, allow_nan=False, allow_subnormal=False),
)


@st.composite
def graphs(draw):
    """A small graph whose item degrees span bins 1 to 4."""
    user_ids = draw(st.lists(ids, min_size=1, max_size=10, unique=True))
    item_ids = draw(st.lists(ids, min_size=1, max_size=12, unique=True))
    cells = len(user_ids) * len(item_ids)
    mask = np.array(draw(st.lists(st.booleans(), min_size=cells, max_size=cells)))
    mask = mask.reshape(len(user_ids), len(item_ids))
    mask[~mask.any(axis=1), 0] = True
    mask[0, ~mask.any(axis=0)] = True
    u, v = np.nonzero(mask)
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=u.size, max_size=u.size))
    return RatingGraph(user_ids, item_ids, u, v, np.array(weights))


@st.composite
def truths(draw, item_ids):
    """Scores for some of `item_ids` and for ids the graph lacks, in any
    key order."""
    covered = draw(st.lists(st.sampled_from(item_ids), unique=True))
    absent = draw(st.lists(ids.filter(lambda k: k not in item_ids),
                           max_size=3, unique=True))
    keys = draw(st.permutations(covered + absent))
    return {key: draw(scores) for key in keys}


@st.composite
def score_maps(draw):
    """Two score maps over overlapping id sets."""
    pool = draw(st.lists(ids, max_size=10, unique=True))
    if not pool:
        return {}, {}
    pred = {k: draw(scores) for k in draw(st.lists(st.sampled_from(pool), unique=True))}
    truth = draw(truths(pool))
    return pred, truth


def outcome(function, *args, **kwargs):
    """A report as exactly comparable values, or its error."""
    try:
        result = function(*args, **kwargs)
    except ValueError as exc:
        return ("error", type(exc).__name__, str(exc))
    payload = result.to_dict()
    return ("report", payload, json.dumps(payload))


parity = settings(max_examples=300, deadline=None)


class TestMatchesReference:
    @parity
    @given(maps=score_maps())
    def test_mse(self, maps):
        pred, truth = maps
        if not set(pred) & set(truth):
            with pytest.raises(ValueError, match="shares no items"):
                report_over(pred, truth)
            return
        mse = report_over(pred, truth).mse_overall
        assert mse.hex() == reference.mse(pred, truth).hex()

    @parity
    @given(maps=score_maps())
    def test_rank_error(self, maps):
        pred, truth = maps
        common = len(set(pred) & set(truth))
        if not common:
            return  # refused, as `test_mse` checks
        rank = report_over(pred, truth).rank_error_overall
        if common < 2:
            assert rank is None
        else:
            assert rank.hex() == reference.rank_error(pred, truth).hex()

    @parity
    @given(data=st.data())
    def test_build_report(self, data):
        graph = data.draw(graphs())
        rating = data.draw(st.lists(scores, min_size=graph.num_items,
                                    max_size=graph.num_items))
        truth = data.draw(st.one_of(st.none(), truths(graph.item_ids)))
        bias = data.draw(st.one_of(st.none(), st.lists(
            scores, min_size=graph.num_users, max_size=graph.num_users)))
        args = (graph, rating, truth)
        kwargs = dict(label="method", bias=bias)
        assert outcome(build_report, *args, **kwargs) == outcome(
            reference.build_report, *args, **kwargs
        )

    @parity
    @given(data=st.data())
    def test_build_report_aligned(self, data):
        # The same figures from one alignment reused across methods.
        graph = data.draw(graphs())
        truth = data.draw(truths(graph.item_ids))
        try:
            aligned = align_truth(graph, truth)
        except ValueError as exc:
            assert outcome(reference.build_report, graph,
                           [0.0] * graph.num_items, truth, label="m") == (
                "error", type(exc).__name__, str(exc))
            return
        for _ in range(2):
            rating = data.draw(st.lists(scores, min_size=graph.num_items,
                                        max_size=graph.num_items))
            bias = data.draw(st.one_of(st.none(), st.lists(
                scores, min_size=graph.num_users, max_size=graph.num_users)))
            kwargs = dict(label="method", bias=bias)
            assert outcome(build_report, graph, rating, aligned,
                           **kwargs) == outcome(
                reference.build_report, graph, rating, truth, **kwargs
            )

    def test_ties_and_id_order(self):
        # Items numbered against id order, every predicted score tied: ranks
        # fall back to ascending id, not to the graph's numbering.
        graph = RatingGraph(["u"], ["c", "a", "b"], [0, 0, 0], [0, 1, 2],
                            [0.5, 0.5, 0.5])
        truth = {"c": 0.1, "a": 0.9, "b": 0.5, "ghost": 0.3}
        report = build_report(graph, [0.5, 0.5, 0.5], truth, label="tied")
        assert report.rank_error_overall == 0.0
        assert report.to_dict() == reference.build_report(
            graph, [0.5, 0.5, 0.5], truth, label="tied"
        ).to_dict()

    @pytest.mark.parametrize("extra", [
        pytest.param([], id="prefixes"),
        pytest.param(["z" * 40, "\u00fc" * 9], id="wide"),
        # A 2 MiB id makes the graph's id column `bytes` objects.
        pytest.param(["w" * (1 << 21)], id="very-wide"),
    ])
    def test_prefix_and_wide_ids(self, extra):
        item_ids = ["ab", "a\x00b", "a", "a\x00", "\x00", *extra, "b"]
        n = len(item_ids)
        graph = RatingGraph(["u"], item_ids, np.zeros(n, np.int64),
                            np.arange(n), np.full(n, 0.5))
        truth = {key: 0.1 * k for k, key in enumerate(reversed(item_ids))}
        del truth["a"]
        truth.update({"a\x00\x00": 0.2, "ghost": 0.3})
        rating = np.linspace(0.0, 1.0, n)
        aligned = align_truth(graph, MappingProxyType(truth))
        assert [item_ids[j] for j in aligned.common] == sorted(
            set(item_ids) & set(truth)
        )
        assert aligned.truth.tolist() == [
            truth[item_ids[j]] for j in aligned.common
        ]
        for given in (truth, MappingProxyType(truth), aligned):
            assert outcome(build_report, graph, rating, given,
                           label="m") == outcome(
                reference.build_report, graph, rating, truth, label="m"
            )

    def test_squares_round_as_python_pow(self):
        # A difference whose square `x * x` and the C library's `pow` round
        # to neighbouring floats with some libms; the reference squares
        # with Python's `**`.
        pred, truth = {"a": 0.343805606955381}, {"a": 0.0}
        mse = report_over(pred, truth).mse_overall
        assert mse.hex() == reference.mse(pred, truth).hex()
