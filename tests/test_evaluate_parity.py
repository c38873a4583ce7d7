"""The dense-array accuracy metrics against the dict-based reference.

For any input, `mse`, `rank_error` and every `build_report` field must be
exactly equal to the reference's (same bits, no tolerance), or both must
raise the same error.
"""

import json

import numpy as np
from hypothesis import given, settings, strategies as st

import reference_evaluate as reference
from truerating import (
    RatingGraph,
    align_truth,
    build_report,
    mse,
    rank_error,
)

# Unicode ids, so code-point order matters; hypothesis lists come in any
# order, so ascending-id order usually differs from first appearance.
ids = st.text(st.characters(codec="utf-8"), min_size=1, max_size=3)
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
    """A metric's result as exactly comparable values, or its error."""
    try:
        result = function(*args, **kwargs)
    except ValueError as exc:
        return ("error", type(exc).__name__, str(exc))
    if isinstance(result, float):
        return ("value", type(result), result.hex())
    payload = result.to_dict()
    return ("report", payload, json.dumps(payload))


parity = settings(max_examples=300, deadline=None)


class TestMatchesReference:
    @parity
    @given(maps=score_maps())
    def test_mse(self, maps):
        assert outcome(mse, *maps) == outcome(reference.mse, *maps)

    @parity
    @given(maps=score_maps())
    def test_rank_error(self, maps):
        assert outcome(rank_error, *maps) == outcome(reference.rank_error, *maps)

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

    def test_squares_round_as_python_pow(self):
        # A difference whose square `x * x` and the C library's `pow` round
        # to neighbouring floats with some libms; the reference squares
        # with Python's `**`.
        pred, truth = {"a": 0.343805606955381}, {"a": 0.0}
        assert mse(pred, truth).hex() == reference.mse(pred, truth).hex()
