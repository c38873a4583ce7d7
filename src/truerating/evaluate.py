"""Quality metrics for solver output.

Covers accuracy against partial ground truth (mean squared error and
footrule rank error over the items both sides score), structural effect
measures (per-bin absolute and relative deviation of true ratings from
plain item means, binned by rating count), and fixed-width histograms of
the bias and rating distributions. Everything here is a pure function of
immutable inputs.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .graph import RatingGraph, degree_bins
from .ingest import GroundTruth
from .solver import SolverResult

__all__ = [
    "mse",
    "rank_error",
    "bin_deviation",
    "histogram",
    "rating_map",
    "EvalReport",
    "build_report",
]


def _as_values(scores: Mapping[str, float] | GroundTruth) -> Mapping[str, float]:
    if isinstance(scores, GroundTruth):
        return scores.values
    return scores


def mse(
    predicted: Mapping[str, float] | GroundTruth,
    truth: Mapping[str, float] | GroundTruth,
) -> float:
    """Mean squared difference over the ids present in both score maps."""
    common, squared, _ = _item_errors(predicted, truth)
    if not common:
        raise ValueError("no common items between predicted and truth scores")
    return float(np.mean(list(squared.values())))


def _rank(scores: Mapping[str, float], keys: list[str]) -> dict[str, int]:
    # Rank 1 = highest score; ties broken by ascending external id.
    order = sorted(keys, key=lambda k: (-scores[k], k))
    return {key: position for position, key in enumerate(order, start=1)}


def rank_error(
    predicted: Mapping[str, float] | GroundTruth,
    truth: Mapping[str, float] | GroundTruth,
) -> float:
    """Mean absolute rank distance (footrule) over the common items.

    Both maps are ranked descending over the intersection only, so the
    result depends on score order alone, never on score magnitude.
    """
    common, _, distance = _item_errors(predicted, truth)
    if distance is None:
        raise ValueError(
            f"need at least 2 common items to compare rankings, "
            f"got {len(common)}"
        )
    return float(np.mean(list(distance.values())))


def _item_errors(
    predicted: Mapping[str, float] | GroundTruth,
    truth: Mapping[str, float] | GroundTruth,
) -> tuple[list[str], dict[str, float], dict[str, float] | None]:
    """Per-item errors over the ids both maps score, in ascending id order.

    Returns the common ids, each one's squared error, and each one's
    footrule rank distance (None with fewer than 2 common ids).
    """
    pred = _as_values(predicted)
    ref = _as_values(truth)
    common = sorted(set(pred) & set(ref))
    squared = {k: (pred[k] - ref[k]) ** 2 for k in common}
    distance = None
    if len(common) >= 2:
        pred_rank = _rank(pred, common)
        ref_rank = _rank(ref, common)
        distance = {k: float(abs(pred_rank[k] - ref_rank[k])) for k in common}
    return common, squared, distance


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
        nonzero = member_ratings != 0.0
        if nonzero.any():
            rel = float(
                (deviation[members][nonzero] / member_ratings[nonzero]).mean()
            )
        else:
            rel = 0.0
        out[int(k)] = (dev, rel)
    return out


def bin_deviation(
    graph: RatingGraph, result: SolverResult
) -> dict[int, tuple[float, float]]:
    """Per-bin (absolute, relative) mean deviation of ratings from means.

    Items are binned by how many ratings they received. The absolute entry
    averages |rating - mean| over the bin; the relative entry averages
    |rating - mean| / rating over the bin's items with nonzero rating
    (zero-rating items are skipped, their count visible via `build_report`).
    Bins with no items are omitted.
    """
    rating = np.asarray(result.rating, dtype=np.float64)
    if rating.shape != (graph.num_items,):
        raise ValueError(
            f"rating vector of length {rating.shape} misaligned with graph "
            f"({graph.num_items} items)"
        )
    return _deviation_by_bin(graph, rating)


def histogram(
    values, bucket_width: float, value_range: tuple[float, float]
) -> np.ndarray:
    """Fixed-width bucket counts over `value_range`.

    Values outside the range are clamped into the end buckets, so the
    counts always sum to the number of values.
    """
    if not bucket_width > 0.0:
        raise ValueError(f"bucket width must be positive, got {bucket_width}")
    lo, hi = value_range
    if not hi > lo:
        raise ValueError(f"empty value range [{lo}, {hi}]")
    num_buckets = max(1, math.ceil((hi - lo) / bucket_width - 1e-9))
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        return np.zeros(num_buckets, dtype=np.int64)
    idx = np.floor((values - lo) / bucket_width).astype(np.int64)
    np.clip(idx, 0, num_buckets - 1, out=idx)
    return np.bincount(idx, minlength=num_buckets).astype(np.int64)


def rating_map(graph: RatingGraph, rating) -> dict[str, float]:
    """Per-item vector -> {external item id: score}."""
    rating = np.asarray(rating, dtype=np.float64)
    if rating.shape != (graph.num_items,):
        raise ValueError(
            f"rating vector of length {rating.shape} misaligned with graph "
            f"({graph.num_items} items)"
        )
    return {item_id: float(r) for item_id, r in zip(graph.item_ids, rating)}


@dataclass(frozen=True)
class EvalReport:
    """One method's metrics; accuracy fields are None without ground truth."""

    method_label: str
    mse_overall: float | None
    rank_error_overall: float | None
    mse_per_bin: dict[int, float]
    rank_error_per_bin: dict[int, float]
    bindev: dict[int, float]
    relbindev: dict[int, float]
    relbindev_skipped: int
    common_items: int
    bias_histogram: np.ndarray | None
    rating_histogram: np.ndarray

    def to_dict(self) -> dict:
        """JSON-ready form (arrays as lists, bins as string keys)."""
        return {
            "method_label": self.method_label,
            "mse_overall": self.mse_overall,
            "rank_error_overall": self.rank_error_overall,
            "mse_per_bin": {str(k): v for k, v in self.mse_per_bin.items()},
            "rank_error_per_bin": {
                str(k): v for k, v in self.rank_error_per_bin.items()
            },
            "bindev": {str(k): v for k, v in self.bindev.items()},
            "relbindev": {str(k): v for k, v in self.relbindev.items()},
            "relbindev_skipped": self.relbindev_skipped,
            "common_items": self.common_items,
            "bias_histogram": (
                None
                if self.bias_histogram is None
                else self.bias_histogram.tolist()
            ),
            "rating_histogram": self.rating_histogram.tolist(),
        }


def _per_bin_mean(values: dict[str, float], bins: dict[str, int]) -> dict[int, float]:
    grouped: dict[int, list[float]] = {}
    for key, value in values.items():
        grouped.setdefault(bins[key], []).append(value)
    return {k: float(np.mean(v)) for k, v in sorted(grouped.items())}


def build_report(
    graph: RatingGraph,
    rating,
    truth: GroundTruth | Mapping[str, float] | None = None,
    *,
    label: str,
    bias=None,
    bias_bucket_width: float = 0.05,
    rating_bucket_width: float = 0.05,
) -> EvalReport:
    """Assemble the full metric set for one method's rating vector.

    `truth` may cover only part of the items; accuracy metrics run on the
    intersection (an empty intersection is an error, a single common item
    yields MSE but no rank error). `bias` is the method's per-user vector,
    absent for the plain-mean baseline.
    """
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
        item_bins = degree_bins(graph.item_degrees)
        bins_of = {k: int(item_bins[graph.item_index[k]]) for k in common}
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
        relbindev_skipped=int(np.count_nonzero(rating == 0.0)),
        common_items=len(common),
        bias_histogram=(
            None
            if bias is None
            else histogram(bias, bias_bucket_width, (-1.0, 1.0))
        ),
        rating_histogram=histogram(rating, rating_bucket_width, (0.0, 1.0)),
    )
