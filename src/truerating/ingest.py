"""Reading and writing rating data.

Two on-disk layouts are supported:

* delimited rating logs, one ``user<sep>item<sep>rating`` record per line
  (a trailing timestamp field is tolerated and ignored), with raw ratings
  on an arbitrary scale such as 1..5;
* the canonical CSV this package emits: header ``user_id,item_id,weight``
  and weights already normalized to [0, 1].

`ingest_ratings` sniffs the canonical header so its own output round-trips
without extra flags.

Files are parsed as columns. The text is read once, split into lines, and
the non-blank lines become one numpy ``StringDType`` array; the first
fields are cut out with ``np.strings.partition`` and converted with a single
``astype(np.float64)``, and every check (field count, empty ids, numeric,
finite and in-scale values, weights in [0, 1], duplicates) is a reduction
over whole columns. This path keeps no line numbers. Only when one of its
checks fails is the file read again line by line, and that rescan raises
an `IngestError` carrying the file path and the 1-based line number of the
first bad record.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import RatingGraph, RatingScale

__all__ = [
    "IngestError",
    "DelimitedFormat",
    "MOVIELENS_FORMAT",
    "GroundTruth",
    "ingest_ratings",
    "ingest_ground_truth",
    "write_ratings_csv",
    "write_scores_csv",
]

CANONICAL_HEADER = ("user_id", "item_id", "weight")

#: Decimal places used for every weight/score this package writes.
FLOAT_DIGITS = 9
_SCORE_ROW = f"{{}},{{:.{FLOAT_DIGITS}f}}\n"
_RATING_ROW = f"{{}},{{}},{{:.{FLOAT_DIGITS}f}}\n"

_STRING = np.dtypes.StringDType()


class IngestError(ValueError):
    """Malformed input file; `path` and `line` locate the offending record."""

    def __init__(self, path: str | Path, line: int, message: str) -> None:
        self.path = str(path)
        self.line = line
        super().__init__(f"{self.path}:{line}: {message}")


@dataclass(frozen=True)
class DelimitedFormat:
    """Field layout of a delimited rating log."""

    delimiter: str = "::"

    def __post_init__(self) -> None:
        if not self.delimiter:
            raise ValueError("delimiter must be non-empty")

    def split(self, line: str) -> list[str]:
        return [field.strip() for field in line.split(self.delimiter)]


#: The classic ``user::item::rating::timestamp`` layout.
MOVIELENS_FORMAT = DelimitedFormat("::")

_CANONICAL_FORMAT = DelimitedFormat(",")


def _lines(path: str | Path) -> Iterable[tuple[int, str]]:
    with open(path, encoding="utf-8-sig", newline="") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\r\n")
            if line.strip():
                yield lineno, line


class _Rescan(Exception):
    """A columnar check failed; the line-by-line rescan names the line."""


def _require(ok) -> None:
    if not ok:
        raise _Rescan


def _columns(
    path: str | Path, fmt: DelimitedFormat, count: int, sniff: bool = False
) -> tuple[list[np.ndarray], bool, bool]:
    """The first `count` stripped `fmt` fields of each non-blank line,
    whether the first line is non-blank, and whether the file is canonical
    CSV: with `sniff`, a first non-blank line that is the canonical header
    is dropped and the lines are split on ``,``.

    Lines break on exactly the breaks `_lines` uses: ``\\n``, ``\\r`` and
    ``\\r\\n``; `str.splitlines` would also split on ``\\x0b``,
    ``\\x1c``, ``\\u2028`` and others. The array of whole lines lives
    only in here, and only until the first cut; each cut's separators and
    unstripped field are dropped as soon as they are used, which lowers
    the peak.
    """
    with open(path, encoding="utf-8-sig", newline="") as handle:
        text = handle.read()
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    del text
    first_line_kept = bool(lines[0].strip())
    records = list(filter(str.strip, lines))
    del lines
    canonical = sniff and bool(records) and (
        tuple(_CANONICAL_FORMAT.split(records[0])) == CANONICAL_HEADER
    )
    if canonical:
        fmt = _CANONICAL_FORMAT
        del records[0]
    rest = np.array(records, dtype=_STRING)
    del records
    sep = np.array(fmt.delimiter, dtype=_STRING)
    columns = []
    for k in range(count):
        field, found, rest = np.strings.partition(rest, sep)
        if k < count - 1:
            _require(np.strings.str_len(found).all())
        del found
        columns.append(np.strings.strip(field))
        del field
    return columns, first_line_kept, canonical


def _values(raw: np.ndarray, scale: RatingScale | None) -> np.ndarray:
    """Parse a value column, check it is finite and apply `scale`."""
    value = raw.astype(np.float64)
    _require(np.isfinite(value).all())
    if scale is not None:
        _require(((value >= scale.min_raw) & (value <= scale.max_raw)).all())
        # The float operations of `RatingScale.normalize`, so the bits match.
        value = (value - scale.min_raw) / scale.span
    return value


def _dense_ids(column: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Distinct ids in first-appearance order, and each row's dense index."""
    keys = column.tolist()
    index = dict(zip(dict.fromkeys(keys), range(len(keys))))
    rows = np.fromiter(map(index.__getitem__, keys), np.int64, len(keys))
    return list(index), rows


def _rating_columns(
    path: str | Path,
    fmt: DelimitedFormat,
    scale: RatingScale | None,
    keep_first: bool,
) -> RatingGraph:
    """Columnar `ingest_ratings`; raises `_Rescan` or `ValueError` instead
    of an `IngestError`."""
    (user, item, raw), _, canonical = _columns(path, fmt, 3, sniff=True)
    _require(np.strings.str_len(user).all() and np.strings.str_len(item).all())
    weight = _values(raw, None if canonical else scale)
    # Before `keep_first` drops rows: a dropped row must be valid too.
    _require(((weight >= 0.0) & (weight <= 1.0)).all())
    user_ids, u = _dense_ids(user)
    item_ids, v = _dense_ids(item)
    if keep_first:
        _, first = np.unique(u * len(item_ids) + v, return_index=True)
        first.sort()
        u, v, weight = u[first], v[first], weight[first]
    # Under strict, the constructor's sorted-neighbour check is the one
    # duplicate check; its error sends the file to the rescan.
    return RatingGraph(user_ids, item_ids, u, v, weight)


def _locate_rating_error(
    path: str | Path,
    fmt: DelimitedFormat,
    scale: RatingScale | None,
    strict: bool,
) -> None:
    """Read a rating file line by line; raise at its first bad record."""
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
        if strict:
            pair = (user_id, item_id)
            if pair in seen:
                raise IngestError(
                    path,
                    lineno,
                    f"duplicate rating for user {user_id!r} and item "
                    f"{item_id!r} (first seen at line {seen[pair]})",
                )
            seen[pair] = lineno


def ingest_ratings(
    path: str | Path,
    *,
    fmt: DelimitedFormat = MOVIELENS_FORMAT,
    scale: RatingScale | None = None,
    duplicate_policy: str = "strict",
) -> RatingGraph:
    """Parse a rating file into a `RatingGraph`.

    If the first line is the canonical ``user_id,item_id,weight`` header the
    file is read as canonical CSV (weights already in [0, 1], `fmt` and
    `scale` ignored). Otherwise each line must carry at least three `fmt`
    fields, and `scale` (when given) maps raw ratings onto [0, 1].
    """
    if duplicate_policy not in ("strict", "keep_first"):
        raise ValueError(f"unknown duplicate policy {duplicate_policy!r}")
    try:
        return _rating_columns(path, fmt, scale, duplicate_policy == "keep_first")
    except (_Rescan, ValueError) as exc:
        _locate_rating_error(path, fmt, scale, duplicate_policy == "strict")
        raise IngestError(path, 0, str(exc)) from None


@dataclass(frozen=True)
class GroundTruth:
    """External id -> reference value, e.g. an item's planted true rating."""

    values: Mapping[str, float]

    def __len__(self) -> int:
        return len(self.values)

    def __contains__(self, key: str) -> bool:
        return key in self.values

    def __getitem__(self, key: str) -> float:
        return self.values[key]

    def aligned(self, ids: Iterable[str]) -> np.ndarray:
        """Values in the order of `ids`; NaN where an id has no truth."""
        return np.array(
            [self.values.get(i, float("nan")) for i in ids], dtype=np.float64
        )

    def unmatched(self, known_ids: Iterable[str]) -> list[str]:
        """Truth ids that do not appear in `known_ids`, sorted.

        Scores for unknown items are kept, not dropped; this names them so
        callers can report how much of the truth went unused.
        """
        known = set(known_ids)
        return sorted(key for key in self.values if key not in known)


def _truth_columns(
    path: str | Path, fmt: DelimitedFormat, scale: RatingScale | None
) -> GroundTruth:
    """Columnar `ingest_ground_truth`; raises `_Rescan` or `ValueError`
    instead of an `IngestError`."""
    (key, raw), first_line_kept, _ = _columns(path, fmt, 2)
    if first_line_kept:
        try:
            float(raw[0])
        except ValueError:
            key, raw = key[1:], raw[1:]
    _require(np.strings.str_len(key).all())
    keys = key.tolist()
    values = dict(zip(keys, _values(raw, scale).tolist()))
    _require(len(values) == len(keys))
    return GroundTruth(values)


def _locate_truth_error(
    path: str | Path, fmt: DelimitedFormat, scale: RatingScale | None
) -> None:
    """Read a truth file line by line; raise at its first bad record."""
    seen: set[str] = set()
    for lineno, line in _lines(path):
        fields = fmt.split(line)
        if len(fields) < 2:
            raise IngestError(
                path, lineno, f"expected at least 2 fields, got {len(fields)}"
            )
        key, raw = fields[0], fields[1]
        try:
            value = float(raw)
        except ValueError:
            if lineno == 1:
                continue
            raise IngestError(path, lineno, f"bad value {raw!r}") from None
        if not key:
            raise IngestError(path, lineno, "empty id")
        if not np.isfinite(value):
            raise IngestError(path, lineno, f"non-finite value {raw!r}")
        if scale is not None:
            try:
                scale.normalize(value)
            except ValueError as exc:
                raise IngestError(path, lineno, str(exc)) from None
        if key in seen:
            raise IngestError(path, lineno, f"duplicate id {key!r}")
        seen.add(key)


def ingest_ground_truth(
    path: str | Path,
    *,
    fmt: DelimitedFormat = _CANONICAL_FORMAT,
    scale: RatingScale | None = None,
) -> GroundTruth:
    """Parse ``id<sep>value`` reference scores.

    A first line whose value field is not numeric is treated as a header.
    `scale` (when given) maps raw values onto [0, 1]; duplicated ids are an
    error.
    """
    try:
        return _truth_columns(path, fmt, scale)
    except (_Rescan, ValueError) as exc:
        _locate_truth_error(path, fmt, scale)
        raise IngestError(path, 0, str(exc)) from None


def _require_plain_ids(ids: Sequence[str]) -> None:
    # Ids are written verbatim and read back split on a bare ",", so every
    # id without a "," reads back as itself.
    if "," in "".join(ids):
        bad = next(i for i in ids if "," in i)
        raise ValueError(f"id {bad!r} contains ',' and cannot be written as CSV")


def write_ratings_csv(graph: RatingGraph, path: str | Path) -> None:
    """Write the graph's edges as canonical CSV in canonical edge order."""
    _require_plain_ids(graph.user_ids + graph.item_ids)
    users = map(graph.user_ids.__getitem__, graph.edge_user.tolist())
    items = map(graph.item_ids.__getitem__, graph.edge_item.tolist())
    weights = graph.edge_weight.tolist()
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(CANONICAL_HEADER) + "\n")
        handle.writelines(map(_RATING_ROW.format, users, items, weights))


def write_scores_csv(
    path: str | Path,
    header: tuple[str, str],
    ids: Sequence[str],
    values: np.ndarray,
) -> None:
    """Write ``id,value`` rows (bias or rating scores) with a fixed header."""
    _require_plain_ids(ids)
    scores = np.asarray(values, np.float64).tolist()
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(map(_SCORE_ROW.format, ids, scores))
