"""Line-by-line reference parser: the per-line `ingest_ratings` and
`ingest_ground_truth` that the columnar parser replaced, and the per-row
`write_ratings_csv` and `write_scores_csv` that the blocked numpy writers
replaced.

Tests compare the package against it: for any file the two must return
bit-identical graphs and truth values, or raise the same `IngestError`
(path, line and message); for any input the writers must write the same
bytes. Both share the package's `_text`, which reads a file's bytes, drops
a BOM, turns every ``\r\n`` or ``\r`` into ``\n`` and checks UTF-8; the
lines are then split and decoded here, one at a time.
"""

from __future__ import annotations

import io
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from truerating import IngestError, RatingGraph, RatingScale
from truerating.ingest import (
    _CANONICAL_FORMAT,
    CANONICAL_HEADER,
    MOVIELENS_FORMAT,
    DelimitedFormat,
    _check_plain_ids,
    _text,
)

_SCORE_ROW = "{},{:.9f}\n"
_RATING_ROW = "{},{},{:.9f}\n"


def _lines(path: str | Path) -> Iterable[tuple[int, str]]:
    """The 1-based number and text of each non-blank line, decoded singly."""
    for lineno, line in enumerate(io.BytesIO(_text(path)), start=1):
        line = line.decode().rstrip("\n")
        if line.strip():
            yield lineno, line


def ingest_ratings(
    path: str | Path,
    *,
    fmt: DelimitedFormat = MOVIELENS_FORMAT,
    scale: RatingScale | None = None,
    duplicate_policy: str = "strict",
) -> RatingGraph:
    edges: list[tuple[str, str, float]] = []
    seen: dict[tuple[str, str], int] = {}
    canonical = False
    first = True
    for lineno, line in _lines(path):
        if first:
            first = False
            if tuple(_CANONICAL_FORMAT.split(line)) == CANONICAL_HEADER:
                canonical = True
                continue
        use_fmt = _CANONICAL_FORMAT if canonical else fmt
        fields = use_fmt.split(line)
        if len(fields) < 3:
            raise IngestError(
                path, lineno, f"expected at least 3 fields, got {len(fields)}"
            )
        user_id, item_id, raw = fields[0], fields[1], fields[2]
        if not user_id or not item_id:
            raise IngestError(path, lineno, "empty user or item id")
        try:
            value = float(raw)
        except ValueError:
            raise IngestError(path, lineno, f"bad rating value {raw!r}") from None
        if not np.isfinite(value):
            raise IngestError(path, lineno, f"non-finite rating value {raw!r}")
        if not canonical and scale is not None:
            try:
                value = scale.normalize(value)
            except ValueError as exc:
                raise IngestError(path, lineno, str(exc)) from None
        if not 0.0 <= value <= 1.0:
            raise IngestError(
                path, lineno, f"normalized weight {value} outside [0, 1]"
            )
        pair = (user_id, item_id)
        if pair in seen:
            if duplicate_policy == "strict":
                raise IngestError(
                    path,
                    lineno,
                    f"duplicate rating for user {user_id!r} and item "
                    f"{item_id!r} (first seen at line {seen[pair]})",
                )
            continue
        seen[pair] = lineno
        edges.append((user_id, item_id, value))
    return RatingGraph.from_edges(edges)


def ingest_ground_truth(
    path: str | Path,
    *,
    scale: RatingScale | None = None,
) -> dict[str, float]:
    values: dict[str, float] = {}
    for index, (lineno, line) in enumerate(_lines(path)):
        fields = _CANONICAL_FORMAT.split(line)
        if len(fields) < 2:
            raise IngestError(
                path, lineno, f"expected at least 2 fields, got {len(fields)}"
            )
        key, raw = fields[0], fields[1]
        try:
            value = float(raw)
        except ValueError:
            if index == 0:
                continue
            raise IngestError(path, lineno, f"bad value {raw!r}") from None
        if not key:
            raise IngestError(path, lineno, "empty id")
        if not np.isfinite(value):
            raise IngestError(path, lineno, f"non-finite value {raw!r}")
        if scale is not None:
            try:
                value = scale.normalize(value)
            except ValueError as exc:
                raise IngestError(path, lineno, str(exc)) from None
        if key in values:
            raise IngestError(path, lineno, f"duplicate id {key!r}")
        values[key] = value
    return values


def write_ratings_csv(graph: RatingGraph, path: str | Path) -> None:
    _check_plain_ids(graph.user_ids + graph.item_ids)
    users = map(graph.user_ids.__getitem__, graph.edge_user.tolist())
    items = map(graph.item_ids.__getitem__, graph.edge_item.tolist())
    weights = graph.edge_weight.tolist()
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(CANONICAL_HEADER) + "\n")
        handle.writelines(map(_RATING_ROW.format, users, items, weights))


def write_scores_csv(
    path: str | Path,
    header: tuple[str, str],
    ids: list[str],
    values: np.ndarray,
) -> None:
    _check_plain_ids(ids)
    scores = np.asarray(values, np.float64).tolist()
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(map(_SCORE_ROW.format, ids, scores))
