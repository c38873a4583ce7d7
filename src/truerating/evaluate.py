"""Quality metrics for solver output.

`build_report` computes every metric of one method's per-item rating
vector: accuracy against partial ground truth (mean squared error and
footrule rank error over the items that have a truth value), structural
effect measures (per-bin absolute and relative deviation of true ratings
from plain item means, binned by rating count), and histograms of the bias
and rating distributions with buckets `BUCKET_WIDTH` wide. Everything here
is a pure function of immutable inputs. Rating vectors are aligned with the
graph's `item_ids`; ground truth is a plain mapping of external id to
score, as `ingest_ground_truth` returns.

Accuracy metrics run on dense float64 arrays that hold the common items'
scores in ascending external-id order; ids are read only to find those
items and that order. The order is kept for two reasons: it breaks ranking
ties (equal scores rank by ascending id), and it is the summation order of
every accuracy mean, overall and per bin, so each figure keeps its last
bit however the graph numbered its items.

`align_truth` does the id work once for a graph and its ground truth: the
common items and their order, the truth values and ranks, the degree bins
and the plain item means. `build_report` scores any number of rating
vectors against that alignment. Per-bin means are taken over contiguous
slices of a stable sort by bin, which adds each bin's items in the same
order a boolean mask would select them.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, fields

import numpy as np

from .graph import RatingGraph, degree_bins

__all__ = [
    "histogram",
    "EvalReport",
    "TruthAlignment",
    "align_truth",
    "build_report",
]

#: Width of every bucket in a report's bias and rating histograms.
BUCKET_WIDTH = 0.05


def _take(scores: Mapping[str, float], keys: Sequence[str]) -> np.ndarray:
    return np.fromiter(map(scores.__getitem__, keys), np.float64, len(keys))


def _ranks(scores: np.ndarray) -> np.ndarray:
    # Position in descending score order; the stable sort breaks ties by
    # array order, which is ascending id.
    return np.argsort(np.argsort(-scores, kind="stable"))


def _squared(predicted: np.ndarray, truth: np.ndarray) -> np.ndarray:
    # `float_power` goes through the C library's `pow`, as Python's `x ** 2`
    # does; `np.square` (x * x) can round the last bit the other way.
    return np.float_power(predicted - truth, 2)


def _distance(predicted: np.ndarray, truth_ranks: np.ndarray) -> np.ndarray:
    """Per-item footrule rank distance of scores in ascending id order."""
    return np.abs(_ranks(predicted) - truth_ranks).astype(np.float64)


class _Bins:
    """Items grouped by degree bin: a stable sort by bin, so each bin's
    items stay in array order, and the slice each bin takes in it.

    `means(values)[k]` is ``values[bins == k].mean()``, bit for bit: the
    same elements added in the same order."""

    def __init__(self, bins: np.ndarray) -> None:
        self.order = np.argsort(bins, kind="stable")
        ordered = bins[self.order]
        keys, starts = np.unique(ordered, return_index=True)
        ends = np.append(starts[1:], ordered.size)
        self.spans = [
            (int(k), slice(int(a), int(b)))
            for k, a, b in zip(keys, starts, ends)
        ]

    def means(self, values: np.ndarray) -> dict[int, float]:
        ordered = values[self.order]
        return {k: float(ordered[span].mean()) for k, span in self.spans}


#: Ratings below this are left out of relbindev, so every ratio is
#: finite; a rating below it prints as 0.000000000.
RELATIVE_FLOOR = 0.5e-9


def _deviation_by_bin(
    rating: np.ndarray, means: np.ndarray, bins: _Bins
) -> tuple[dict[int, float], dict[int, float]]:
    """Per bin, the mean of |rating - mean| and, over the bin's items with
    rating at least `RELATIVE_FLOOR`, the mean of |rating - mean| / rating
    (0.0 without any). Bins with no items are omitted."""
    deviation = np.abs(rating - means)[bins.order]
    rating = rating[bins.order]
    absolute, relative = {}, {}
    for k, span in bins.spans:
        dev, rate = deviation[span], rating[span]
        kept = rate >= RELATIVE_FLOOR
        ratio = dev[kept] / rate[kept]
        absolute[k] = float(dev.mean())
        relative[k] = float(ratio.mean()) if ratio.size else 0.0
    return absolute, relative


def histogram(
    values, bucket_width: float, value_range: tuple[float, float]
) -> np.ndarray:
    """Fixed-width bucket counts over `value_range`.

    Values outside the range are clamped into the end buckets, so the
    counts always sum to the number of values. A non-finite value has no
    bucket and raises `ValueError`.
    """
    if not bucket_width > 0.0:
        raise ValueError(f"bucket width must be positive, got {bucket_width}")
    lo, hi = value_range
    if not hi > lo:
        raise ValueError(f"empty value range [{lo}, {hi}]")
    num_buckets = max(1, math.ceil((hi - lo) / bucket_width - 1e-9))
    values = np.asarray(values, dtype=np.float64).ravel()
    if not np.isfinite(values).all():
        raise ValueError("histogram values must be finite")
    if values.size == 0:
        return np.zeros(num_buckets, dtype=np.int64)
    idx = np.floor((values - lo) / bucket_width).astype(np.int64)
    np.clip(idx, 0, num_buckets - 1, out=idx)
    return np.bincount(idx, minlength=num_buckets).astype(np.int64)


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
        """JSON-ready form, keys in field order: the per-bin tables get
        string keys, arrays become lists and None stays None."""
        return {f.name: _jsonable(getattr(self, f.name)) for f in fields(self)}


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): v for k, v in value.items()}
    return value.tolist() if isinstance(value, np.ndarray) else value


@dataclass(frozen=True, eq=False)
class TruthAlignment:
    """Everything `build_report` takes from a graph and its ground truth,
    whatever method's ratings it scores. Made by `align_truth`."""

    graph: RatingGraph
    #: Plain per-item means, the baseline ratings.
    item_means: np.ndarray
    #: Items grouped by degree bin.
    item_bins: _Bins
    #: Indices of the items that have a truth value, in ascending id order.
    common: np.ndarray
    #: Their truth values.
    truth: np.ndarray
    #: Their ranks by descending truth (ties by ascending id); None below
    #: two items.
    truth_ranks: np.ndarray | None
    #: The common items grouped by degree bin.
    common_bins: _Bins
    #: Number of truth ids the graph does not have.
    unmatched: int


def align_truth(
    graph: RatingGraph, truth: Mapping[str, float]
) -> TruthAlignment:
    """Match `truth` to the graph's items once, for any number of
    `build_report` calls on that graph.

    Raises `ValueError` if the truth names none of the graph's items.
    """
    ids = graph.item_ids
    common = [j for j, key in enumerate(ids) if key in truth]
    if not common:
        raise ValueError("ground truth shares no items with the graph")
    common.sort(key=ids.__getitem__)
    values = _take(truth, [ids[j] for j in common])
    bins = degree_bins(graph.item_degrees)
    common = np.array(common, dtype=np.intp)
    return TruthAlignment(
        graph=graph,
        item_means=graph.item_means(),
        item_bins=_Bins(bins),
        common=common,
        truth=values,
        truth_ranks=_ranks(values) if values.size >= 2 else None,
        common_bins=_Bins(bins[common]),
        unmatched=len(truth) - common.size,
    )


def build_report(
    graph: RatingGraph,
    rating,
    truth: TruthAlignment | Mapping[str, float] | None = None,
    *,
    label: str,
    bias=None,
) -> EvalReport:
    """Assemble the full metric set for one method's rating vector.

    `truth` may cover only part of the items; accuracy metrics run on the
    intersection (an empty intersection is an error, a single common item
    yields MSE but no rank error). Pass the `align_truth` result when
    scoring several methods on one graph; a plain mapping is aligned here.
    `bias` is the method's per-user vector, absent for the plain-mean
    baseline. A non-finite rating or bias raises `ValueError` (the bias
    through `histogram`).
    """
    rating = np.asarray(rating, dtype=np.float64)
    if rating.shape != (graph.num_items,):
        raise ValueError(
            f"rating vector of length {rating.shape} misaligned with graph "
            f"({graph.num_items} items)"
        )
    if not np.isfinite(rating).all():
        raise ValueError("rating vector holds a non-finite value")

    mse_overall = None
    rank_overall = None
    mse_bins: dict[int, float] = {}
    rank_bins: dict[int, float] = {}
    common_items = 0
    if truth is None:
        means = graph.item_means()
        item_bins = _Bins(degree_bins(graph.item_degrees))
    else:
        if not isinstance(truth, TruthAlignment):
            aligned = align_truth(graph, truth)
        elif truth.graph is graph:
            aligned = truth
        else:
            raise ValueError("truth alignment was made for another graph")
        means, item_bins = aligned.item_means, aligned.item_bins
        predicted = rating[aligned.common]
        squared = _squared(predicted, aligned.truth)
        mse_overall = float(squared.mean())
        mse_bins = aligned.common_bins.means(squared)
        if aligned.truth_ranks is not None:
            distance = _distance(predicted, aligned.truth_ranks)
            rank_overall = float(distance.mean())
            rank_bins = aligned.common_bins.means(distance)
        common_items = aligned.common.size
    bindev, relbindev = _deviation_by_bin(rating, means, item_bins)

    return EvalReport(
        method_label=label,
        mse_overall=mse_overall,
        rank_error_overall=rank_overall,
        mse_per_bin=mse_bins,
        rank_error_per_bin=rank_bins,
        bindev=bindev,
        relbindev=relbindev,
        relbindev_skipped=int(np.count_nonzero(rating < RELATIVE_FLOOR)),
        common_items=common_items,
        bias_histogram=(
            None
            if bias is None
            else histogram(bias, BUCKET_WIDTH, (-1.0, 1.0))
        ),
        rating_histogram=histogram(rating, BUCKET_WIDTH, (0.0, 1.0)),
    )
