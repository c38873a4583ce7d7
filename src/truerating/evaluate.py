"""Quality metrics for solver output.

Covers accuracy against partial ground truth (mean squared error and
footrule rank error over the items both sides score), structural effect
measures (per-bin absolute and relative deviation of true ratings from
plain item means, binned by rating count), and fixed-width histograms of
the bias and rating distributions. Everything here is a pure function of
immutable inputs.

Accuracy metrics run on dense float64 arrays that hold the common items'
scores in ascending external-id order; ids are read only to find those
items and that order. The order is kept for two reasons: it breaks ranking
ties (equal scores rank by ascending id), and it is the summation order of
every accuracy mean, overall and per bin, so each figure keeps its last
bit however the graph numbered its items.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
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


def _take(scores: Mapping[str, float], keys: Sequence[str]) -> np.ndarray:
    return np.fromiter(map(scores.__getitem__, keys), np.float64, len(keys))


def _aligned(
    predicted: Mapping[str, float] | GroundTruth,
    truth: Mapping[str, float] | GroundTruth,
) -> tuple[np.ndarray, np.ndarray]:
    """Both maps' scores over the ids they share, in ascending id order."""
    pred = _as_values(predicted)
    ref = _as_values(truth)
    common = sorted(set(pred) & set(ref))
    return _take(pred, common), _take(ref, common)


def _ranks(scores: np.ndarray) -> np.ndarray:
    # Position in descending score order; the stable sort breaks ties by
    # array order, which is ascending id.
    return np.argsort(np.argsort(-scores, kind="stable"))


def _errors(
    predicted: np.ndarray, truth: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-item squared error and footrule rank distance (None below 2
    items) of two score arrays over the same items in ascending id order."""
    # `float_power` goes through the C library's `pow`, as Python's `x ** 2`
    # does; `np.square` (x * x) can round the last bit the other way.
    squared = np.float_power(predicted - truth, 2)
    if predicted.size < 2:
        return squared, None
    distance = np.abs(_ranks(predicted) - _ranks(truth)).astype(np.float64)
    return squared, distance


def mse(
    predicted: Mapping[str, float] | GroundTruth,
    truth: Mapping[str, float] | GroundTruth,
) -> float:
    """Mean squared difference over the ids present in both score maps."""
    squared, _ = _errors(*_aligned(predicted, truth))
    if not squared.size:
        raise ValueError("no common items between predicted and truth scores")
    return float(squared.mean())


def rank_error(
    predicted: Mapping[str, float] | GroundTruth,
    truth: Mapping[str, float] | GroundTruth,
) -> float:
    """Mean absolute rank distance (footrule) over the common items.

    Both maps are ranked descending over the intersection only, so the
    result depends on score order alone, never on score magnitude.
    """
    squared, distance = _errors(*_aligned(predicted, truth))
    if distance is None:
        raise ValueError(
            f"need at least 2 common items to compare rankings, "
            f"got {squared.size}"
        )
    return float(distance.mean())


def _item_vector(graph: RatingGraph, rating) -> np.ndarray:
    """`rating` as a float64 array, checked to hold one value per item."""
    rating = np.asarray(rating, dtype=np.float64)
    if rating.shape != (graph.num_items,):
        raise ValueError(
            f"rating vector of length {rating.shape} misaligned with graph "
            f"({graph.num_items} items)"
        )
    return rating


def _per_bin_mean(values: np.ndarray, bins: np.ndarray) -> dict[int, float]:
    return {int(k): float(values[bins == k].mean()) for k in np.unique(bins)}


def _deviation_by_bin(
    graph: RatingGraph, rating: np.ndarray
) -> dict[int, tuple[float, float]]:
    bins = degree_bins(graph.item_degrees)
    deviation = np.abs(rating - graph.item_means())
    nonzero = rating != 0.0
    dev = _per_bin_mean(deviation, bins)
    rel = _per_bin_mean(deviation[nonzero] / rating[nonzero], bins[nonzero])
    return {k: (dev[k], rel.get(k, 0.0)) for k in dev}


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
    return _deviation_by_bin(graph, _item_vector(graph, result.rating))


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
    return dict(zip(graph.item_ids, _item_vector(graph, rating).tolist()))


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
    rating = _item_vector(graph, rating)
    by_bin = _deviation_by_bin(graph, rating)

    mse_overall = None
    rank_overall = None
    mse_bins: dict[int, float] = {}
    rank_bins: dict[int, float] = {}
    common: list[int] = []
    if truth is not None:
        ref = _as_values(truth)
        ids = graph.item_ids
        common = [j for j, key in enumerate(ids) if key in ref]
        if not common:
            raise ValueError("ground truth shares no items with the graph")
        common.sort(key=ids.__getitem__)
        squared, distance = _errors(
            rating[common], _take(ref, [ids[j] for j in common])
        )
        bins = degree_bins(graph.item_degrees)[common]
        mse_overall = float(squared.mean())
        mse_bins = _per_bin_mean(squared, bins)
        if distance is not None:
            rank_overall = float(distance.mean())
            rank_bins = _per_bin_mean(distance, bins)

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
