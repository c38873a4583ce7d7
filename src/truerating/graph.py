"""Bipartite user-to-item rating graph over one sorted edge list.

Users rate items at most once and every edge weight lives on [0, 1]. The
graph keeps its edges once, in user-major order: each user's outgoing
ratings are one contiguous slice, ascending by item, and each item's
incoming ratings appear in ascending user order. Graphs are immutable
after construction and safe to share across threads.

Summation order: every per-user and per-item mean in the package, in the
graph, the solver and the oracle, is one `_means` call. It adds each
node's terms into +0.0 with `np.add.at`, in array order, so over the
canonical edge list an item's terms add in ascending user order and a
user's in ascending item order. That is `np.bincount`'s order, so the two
give the same bits.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NUM_BINS",
    "RatingScale",
    "degree_bins",
    "RatingGraph",
]

#: Items are grouped by how many ratings they received: bin k covers
#: [2**(k-1), 2**k - 1] ratings, with the last bin open-ended (>1023).
NUM_BINS = 11

# Upper edge of bins 1..10; anything above the last entry falls in bin 11.
_BIN_UPPER = np.array([1, 3, 7, 15, 31, 63, 127, 255, 511, 1023], dtype=np.int64)


@dataclass(frozen=True)
class RatingScale:
    """Linear map from a raw rating range [min_raw, max_raw] onto [0, 1]."""

    min_raw: float
    max_raw: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.min_raw) and np.isfinite(self.max_raw)):
            raise ValueError("rating scale endpoints must be finite")
        if not self.max_raw > self.min_raw:
            raise ValueError(
                f"rating scale requires max_raw > min_raw, got "
                f"[{self.min_raw}, {self.max_raw}]"
            )

    @property
    def span(self) -> float:
        return self.max_raw - self.min_raw

    def normalize(self, raw: float) -> float:
        """Map a raw rating to [0, 1]; raises if outside the scale."""
        if not self.min_raw <= raw <= self.max_raw:
            raise ValueError(
                f"rating {raw!r} outside scale [{self.min_raw}, {self.max_raw}]"
            )
        return (raw - self.min_raw) / self.span


def degree_bins(degrees: np.ndarray) -> np.ndarray:
    """Bin index 1..11 of each of an array of positive rating counts.

    Bin boundaries double: 1, 2-3, 4-7, ..., 512-1023, >1023, so a count
    n falls in bin floor(log2(n)) + 1, capped at 11.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    if degrees.size and degrees.min() < 1:
        raise ValueError("all rating counts must be >= 1")
    return np.searchsorted(_BIN_UPPER, degrees, side="left") + 1


def _means(keys: np.ndarray, values: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Per-key mean of `values`: each key's terms added into +0.0 in array
    order, then divided by its entry of `degrees`, whose length sets the
    result's. Always float64, also without terms."""
    sums = np.zeros(len(degrees))
    np.add.at(sums, keys, values)
    return np.divide(sums, degrees, out=sums)


def _distinct(ids: Sequence[str], kind: str) -> tuple[str, ...]:
    """`ids` as a tuple of `str`, each made one by `str` unless all are;
    raises `ValueError` if two are equal."""
    ids = tuple(ids)
    if not set(map(type, ids)) <= {str}:
        ids = tuple(str(i) for i in ids)
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate {kind} ids")
    return ids


class RatingGraph:
    """Immutable bipartite rating graph.

    Attributes
    ----------
    user_ids / item_ids : tuple[str, ...]
        Dense index -> external id, in first-appearance order.
    edge_user, edge_item, edge_weight : np.ndarray
        The edge list in canonical (user-major, item-ascending) order, so
        each item's edges also appear in ascending user order.
    user_degrees / item_degrees : np.ndarray
        Number of ratings each user gave / each item received; all
        positive.
    """

    __slots__ = (
        "user_ids",
        "item_ids",
        "edge_user",
        "edge_item",
        "edge_weight",
        "user_degrees",
        "item_degrees",
    )

    def __init__(
        self,
        user_ids: Sequence[str],
        item_ids: Sequence[str],
        edge_user: np.ndarray,
        edge_item: np.ndarray,
        edge_weight: np.ndarray,
    ) -> None:
        self._build(_distinct(user_ids, "user"), _distinct(item_ids, "item"),
                    edge_user, edge_item, edge_weight)

    def _build(
        self,
        user_ids: tuple[str, ...],
        item_ids: tuple[str, ...],
        edge_user: np.ndarray,
        edge_item: np.ndarray,
        edge_weight: np.ndarray,
    ) -> None:
        """`__init__` after its id checks: the ids are distinct `str`s.
        `ingest_ratings` calls it directly, as its ids are distinct by
        construction."""
        u = np.asarray(edge_user, dtype=np.int64)
        v = np.asarray(edge_item, dtype=np.int64)
        w = np.asarray(edge_weight, dtype=np.float64)
        if not (u.shape == v.shape == w.shape) or u.ndim != 1:
            raise ValueError("edge arrays must be 1-d and equally sized")

        n_users, n_items = len(user_ids), len(item_ids)
        if u.size:
            if u.min() < 0 or u.max() >= n_users:
                raise ValueError("edge user index out of range")
            if v.min() < 0 or v.max() >= n_items:
                raise ValueError("edge item index out of range")
        if w.size and (not np.isfinite(w).all() or w.min() < 0.0 or w.max() > 1.0):
            raise ValueError("edge weights must lie in [0, 1]")

        user_deg = np.bincount(u, minlength=n_users)
        item_deg = np.bincount(v, minlength=n_items)
        if n_users and user_deg.min() == 0:
            raise ValueError("isolated user (zero outgoing ratings)")
        if n_items and item_deg.min() == 0:
            raise ValueError("isolated item (zero incoming ratings)")

        # Canonical order: by user, then by item index. It fixes the order
        # of serialization and of every sum for the given indices, but the
        # indices come from the caller: a file's readers number ids by
        # first appearance, so reordering a file's lines can move a sum's
        # rounding. With no isolated ids, num_users and num_items are each
        # at most num_edges, so the key stays below num_edges**2 and fits
        # in int64 for any edge list that fits in memory. Keys are unique
        # unless a pair repeats, and repeats sort next to each other.
        order = np.argsort(u * n_items + v)
        u, v, w = u[order], v[order], w[order]
        if u.size > 1:
            same = (u[1:] == u[:-1]) & (v[1:] == v[:-1])
            if same.any():
                k = int(np.flatnonzero(same)[0])
                raise ValueError(
                    f"duplicate rating for user {user_ids[u[k]]!r} "
                    f"and item {item_ids[v[k]]!r}"
                )

        self.user_ids = user_ids
        self.item_ids = item_ids
        self.edge_user = u
        self.edge_item = v
        self.edge_weight = w
        self.user_degrees = user_deg
        self.item_degrees = item_deg
        for name in (
            "edge_user",
            "edge_item",
            "edge_weight",
            "user_degrees",
            "item_degrees",
        ):
            getattr(self, name).flags.writeable = False

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[str, str, float]]) -> "RatingGraph":
        """Build a graph from (user id, item id, weight) triples.

        Dense indices are assigned in first-appearance order. A repeated
        (user, item) pair is always an error; the ``keep_first`` policy that
        drops repeats applies to rating files (`ingest_ratings`).
        """
        user_index: dict[str, int] = {}
        item_index: dict[str, int] = {}
        us: list[int] = []
        vs: list[int] = []
        ws: list[float] = []
        for user_id, item_id, weight in edges:
            us.append(user_index.setdefault(str(user_id), len(user_index)))
            vs.append(item_index.setdefault(str(item_id), len(item_index)))
            ws.append(float(weight))
        return cls(
            list(user_index),
            list(item_index),
            np.array(us, dtype=np.int64),
            np.array(vs, dtype=np.int64),
            np.array(ws, dtype=np.float64),
        )

    @property
    def num_users(self) -> int:
        return len(self.user_ids)

    @property
    def num_items(self) -> int:
        return len(self.item_ids)

    @property
    def num_edges(self) -> int:
        return int(self.edge_weight.size)

    def edges(self) -> Iterable[tuple[str, str, float]]:
        """Yield (user id, item id, weight) in canonical order."""
        for u, v, w in zip(self.edge_user, self.edge_item, self.edge_weight):
            yield self.user_ids[u], self.item_ids[v], float(w)

    def item_means(self) -> np.ndarray:
        """Plain per-item mean rating, in the module's summation order.

        The solver sums in that order too, so a fully-trusted run (all
        damping factors zero) reproduces these values bit-exactly.
        """
        return _means(self.edge_item, self.edge_weight, self.item_degrees)

    def __repr__(self) -> str:
        return (
            f"RatingGraph(users={self.num_users}, items={self.num_items}, "
            f"edges={self.num_edges})"
        )
