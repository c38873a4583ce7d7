"""Dict-based reference for the metrics: the per-item `mse`, `rank_error`
and `build_report` that the dense-array versions replaced.

Scores live in dicts keyed by external id, items are ranked with a Python
sort on (-score, id), and per-bin means group a dict of per-item errors;
the per-bin deviation loops over bins one mask at a time.
Tests compare the package against it: for any input the two must return
exactly equal figures, or raise the same error.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from truerating import EvalReport, RatingGraph, histogram
from truerating.graph import degree_bins

#: Ratings below this are left out of relbindev, so every ratio is finite.
RELATIVE_FLOOR = 0.5e-9


def _rank(scores: Mapping[str, float], keys: list[str]) -> dict[str, int]:
    # Rank 1 = highest score; ties broken by ascending external id.
    order = sorted(keys, key=lambda k: (-scores[k], k))
    return {key: position for position, key in enumerate(order, start=1)}


def _item_errors(
    pred: Mapping[str, float], ref: Mapping[str, float]
) -> tuple[list[str], dict[str, float], dict[str, float] | None]:
    common = sorted(set(pred) & set(ref))
    squared = {k: (pred[k] - ref[k]) ** 2 for k in common}
    distance = None
    if len(common) >= 2:
        pred_rank = _rank(pred, common)
        ref_rank = _rank(ref, common)
        distance = {k: float(abs(pred_rank[k] - ref_rank[k])) for k in common}
    return common, squared, distance


def mse(predicted, truth) -> float:
    common, squared, _ = _item_errors(predicted, truth)
    if not common:
        raise ValueError("no common items between predicted and truth scores")
    return float(np.mean(list(squared.values())))


def rank_error(predicted, truth) -> float:
    common, _, distance = _item_errors(predicted, truth)
    if distance is None:
        raise ValueError(
            f"need at least 2 common items to compare rankings, "
            f"got {len(common)}"
        )
    return float(np.mean(list(distance.values())))


def rating_map(graph: RatingGraph, rating) -> dict[str, float]:
    rating = np.asarray(rating, dtype=np.float64)
    if rating.shape != (graph.num_items,):
        raise ValueError(
            f"rating vector of length {rating.shape} misaligned with graph "
            f"({graph.num_items} items)"
        )
    return {item_id: float(r) for item_id, r in zip(graph.item_ids, rating)}


def _deviation_by_bin(
    graph: RatingGraph, rating: np.ndarray
) -> dict[int, tuple[float, float]]:
    means = graph.item_means()
    bins = degree_bins(graph.item_degrees)
    deviation = np.abs(rating - means)
    out: dict[int, tuple[float, float]] = {}
    for k in np.unique(bins):
        members = bins == k
        dev = float(deviation[members].mean())
        member_ratings = rating[members]
        kept = member_ratings >= RELATIVE_FLOOR
        if kept.any():
            rel = float(
                (deviation[members][kept] / member_ratings[kept]).mean()
            )
        else:
            rel = 0.0
        out[int(k)] = (dev, rel)
    return out


def _per_bin_mean(values: dict[str, float], bins: dict[str, int]) -> dict[int, float]:
    grouped: dict[int, list[float]] = {}
    for key, value in values.items():
        grouped.setdefault(bins[key], []).append(value)
    return {k: float(np.mean(v)) for k, v in sorted(grouped.items())}


def build_report(
    graph: RatingGraph,
    rating,
    truth=None,
    *,
    label: str,
    bias=None,
    bias_bucket_width: float = 0.05,
    rating_bucket_width: float = 0.05,
) -> EvalReport:
    rating = np.asarray(rating, dtype=np.float64)
    pred_map = rating_map(graph, rating)
    by_bin = _deviation_by_bin(graph, rating)

    mse_overall = None
    rank_overall = None
    mse_bins: dict[int, float] = {}
    rank_bins: dict[int, float] = {}
    common: list[str] = []
    if truth is not None:
        common, squared, distance = _item_errors(pred_map, truth)
        if not common:
            raise ValueError("ground truth shares no items with the graph")
        item_index = {key: j for j, key in enumerate(graph.item_ids)}
        item_bins = degree_bins(graph.item_degrees)
        bins_of = {k: int(item_bins[item_index[k]]) for k in common}
        mse_overall = float(np.mean(list(squared.values())))
        mse_bins = _per_bin_mean(squared, bins_of)
        if distance is not None:
            rank_overall = float(np.mean(list(distance.values())))
            rank_bins = _per_bin_mean(distance, bins_of)

    return EvalReport(
        method_label=label,
        mse_overall=mse_overall,
        rank_error_overall=rank_overall,
        mse_per_bin=mse_bins,
        rank_error_per_bin=rank_bins,
        bindev={k: dev for k, (dev, _) in by_bin.items()},
        relbindev={k: rel for k, (_, rel) in by_bin.items()},
        relbindev_skipped=int(np.count_nonzero(rating < RELATIVE_FLOOR)),
        common_items=len(common),
        bias_histogram=(
            None
            if bias is None
            else histogram(bias, bias_bucket_width, (-1.0, 1.0))
        ),
        rating_histogram=histogram(rating, rating_bucket_width, (0.0, 1.0)),
    )
