"""Reading and writing rating data.

Two on-disk layouts are supported:

* delimited rating logs, one ``user<sep>item<sep>rating`` record per line
  (a trailing timestamp field is tolerated and ignored), with raw ratings
  on an arbitrary scale such as 1..5;
* the canonical CSV this package emits: header ``user_id,item_id,weight``
  and weights already normalized to [0, 1].

`ingest_ratings` sniffs the canonical header so its own output round-trips
without extra flags.

Rating files have two parsers, and both give the same graph for any
file. The byte path reads the file once as bytes. If every byte is
printable ASCII other than the space, a line break or a one-byte
delimiter, as in MovieLens logs and this package's own CSV, nothing needs
stripping or decoding: line breaks and delimiters are found by numpy
scans, each field is gathered into a fixed-width ``S`` column, ids are
numbered with `np.unique`, values are converted with a single
``astype(np.float64)``, and every check (field count, empty ids, finite
and in-scale values, weights in [0, 1], duplicates) is a reduction over
whole columns. The byte path keeps no line numbers. Any other file
(padding whitespace, non-ASCII ids, control bytes), and any file that
fails a check there, is read by the line parser: once, as text, line by
line. It either returns the graph or raises an `IngestError` carrying
the file path and the 1-based line number of the first bad record.

`ingest_ground_truth` reads the ``id,value`` tables (ground truth,
per-user alpha overrides and seed biases) line by line only: they hold
one row per item or user, so their parse is small next to the log's.

The CSV writers format in numpy, a fixed number of rows at a time, and
write each block's bytes at once. Every value is rounded to `FLOAT_DIGITS`
decimals from its scaled float64 product; the few values that product
cannot round with certainty (near a decimal tie, non-finite or very large)
are formatted by Python, so every byte matches ``f"{v:.9f}"``.
"""

from __future__ import annotations

import codecs
import math
from array import array
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .graph import RatingGraph, RatingScale

__all__ = [
    "IngestError",
    "DelimitedFormat",
    "MOVIELENS_FORMAT",
    "ingest_ratings",
    "ingest_ground_truth",
    "write_ratings_csv",
    "write_scores_csv",
]

CANONICAL_HEADER = ("user_id", "item_id", "weight")

#: Decimal places used for every weight/score this package writes.
FLOAT_DIGITS = 9
_NUMBER = f"{{:.{FLOAT_DIGITS}f}}\n"

#: Rows the CSV writers format at a time; it bounds their temporaries.
_BLOCK_ROWS = 8192


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


class _Refused(Exception):
    """The byte path cannot give the file's result; the line parser reads
    the file."""


def _require(ok) -> None:
    if not ok:
        raise _Refused


# The printable ASCII bytes other than the space, 0x21 to 0x7E.
_PRINTABLE_LO, _PRINTABLE_COUNT = 0x21, 0x7E - 0x21 + 1


def _byte_columns(
    data: bytes, fmt: DelimitedFormat
) -> tuple[list[np.ndarray], bool]:
    """The first three `fmt` fields of each non-blank line of a file of
    printable ASCII, as fixed-width `S` columns, and whether the file is
    canonical CSV; raises `_Refused` if the gate refuses the file. A first
    non-blank line that is the canonical header is dropped, and the lines
    are then split on ``,``.

    The gate admits a file whose bytes, after the BOM and ``\\r`` breaks
    are gone, are all printable ASCII other than the space, line breaks,
    or a one-byte delimiter. Such a file has no Unicode and, but for that
    delimiter, no whitespace, so no field needs stripping and every cut is
    a numpy scan. A whitespace delimiter such as a tab is handled where
    `str.strip` would see it: a line of nothing else is blank. The gate
    also refuses overlapping delimiter matches (``:::`` for ``::``), a
    canonical file holding the admitted delimiter byte, and a column whose
    widest field would make it larger than twice the file (or than 1 MiB,
    for a smaller file).
    """
    sep = fmt.delimiter
    _require(sep.isascii() and "\n" not in sep and "\r" not in sep)
    if data.startswith(codecs.BOM_UTF8):
        data = data[len(codecs.BOM_UTF8):]
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    text = np.frombuffer(data, dtype=np.uint8)
    # The gate counts the admitted bytes; uint8 subtraction wraps, so one
    # comparison finds the printable ones.
    breaks = np.flatnonzero(text == ord("\n"))
    admitted = breaks.size + np.count_nonzero(
        text - np.uint8(_PRINTABLE_LO) < _PRINTABLE_COUNT
    )
    extra = None
    if len(sep) == 1 and not 0 <= ord(sep) - _PRINTABLE_LO < _PRINTABLE_COUNT:
        extra = np.flatnonzero(text == ord(sep))
        admitted += extra.size
    _require(admitted == text.size)

    starts = np.concatenate(([0], breaks + 1))
    ends = np.append(breaks, text.size)
    del breaks
    kept = ends > starts
    if extra is not None and sep.isspace():
        spaces = np.searchsorted(extra, ends) - np.searchsorted(extra, starts)
        kept &= spaces < ends - starts
        del spaces
    starts, ends = starts[kept], ends[kept]
    del kept
    canonical = starts.size > 0 and tuple(
        _CANONICAL_FORMAT.split(data[starts[0]:ends[0]].decode("ascii"))
    ) == CANONICAL_HEADER
    if canonical:
        _require(extra is None or not extra.size)
        sep = _CANONICAL_FORMAT.delimiter
        starts, ends = starts[1:], ends[1:]

    # Every match of the delimiter; matches that overlap would need
    # `str.partition`'s leftmost rule, so such files are refused.
    sep = sep.encode("ascii")
    span = max(text.size - len(sep) + 1, 0)
    hit = text[:span] == sep[0]
    for j in range(1, len(sep)):
        hit &= text[j:j + span] == sep[j]
    cuts = np.flatnonzero(hit)
    del hit
    _require(len(sep) == 1 or (np.diff(cuts) >= len(sep)).all())
    # Line i's first delimiter is cuts[first[i]]; a cut at the end of the
    # text bounds the last field of a line with no delimiter after it.
    first = np.searchsorted(cuts, starts)
    _require((np.searchsorted(cuts, ends) - first >= 2).all())
    cuts = np.append(cuts, text.size)

    # A field is no longer than its line, so padding the text by the
    # longest line lets every field's window stay inside it.
    padded = np.zeros(text.size + int((ends - starts).max(initial=0)) + 1, np.uint8)
    padded[:text.size] = text
    limit = max(2 * text.size, 1 << 20)
    del text, data
    columns = []
    for k in range(3):
        stop = cuts[first + k]
        if k == 2:
            stop = np.minimum(stop, ends)
        columns.append(_gather(padded, starts, stop - starts, limit))
        starts = stop + len(sep)
    return columns, canonical


def _gather(
    padded: np.ndarray, starts: np.ndarray, lengths: np.ndarray, limit: int
) -> np.ndarray:
    """The fields at `starts` with `lengths` as one fixed-width `S` column;
    raises `_Refused` if that column would take more than `limit` bytes."""
    width = max(int(lengths.max(initial=0)), 1)
    _require(width * lengths.size <= limit)
    cells = sliding_window_view(padded, width)[starts]
    cells[np.arange(width) >= lengths[:, None]] = 0
    return cells.view(f"S{width}").ravel()


def _dense_ids(column: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Distinct ids of an `S` column in first-appearance order, and each
    row's dense index. Ids of up to 8 bytes are sorted as one zero-padded
    `uint64` each, longer ones as bytes, and only the distinct ids are
    decoded."""
    width = column.dtype.itemsize
    keys = column
    if width <= 8:
        cells = np.zeros((column.size, 8), np.uint8)
        cells[:, :width] = column.view(np.uint8).reshape(-1, width)
        keys = cells.view(np.uint64).ravel()
        del cells
    # `return_index` would force a stable sort, several times slower.
    distinct, inverse = np.unique(keys, return_inverse=True)
    first = np.full(distinct.size, keys.size)
    del distinct, keys
    np.minimum.at(first, inverse, np.arange(inverse.size))
    # Rank the distinct ids by first appearance.
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return column[first[order]].astype(str).tolist(), rank[inverse]


def _byte_ratings(
    path: str | Path,
    fmt: DelimitedFormat,
    scale: RatingScale | None,
    keep_first: bool,
) -> RatingGraph:
    """`ingest_ratings` on the byte path; raises `_Refused` or `ValueError`
    where the line parser must read the file instead."""
    with open(path, "rb") as handle:
        (user, item, raw), canonical = _byte_columns(handle.read(), fmt)
    _require((user != b"").all() and (item != b"").all())
    weight = raw.astype(np.float64)
    # Before `keep_first` drops rows: a dropped row must be valid too. NaN
    # and the infinities fail every one of these comparisons.
    if scale is not None and not canonical:
        _require(((weight >= scale.min_raw) & (weight <= scale.max_raw)).all())
        # The float operations of `RatingScale.normalize`, so the bits match.
        weight = (weight - scale.min_raw) / scale.span
    _require(((weight >= 0.0) & (weight <= 1.0)).all())
    user_ids, u = _dense_ids(user)
    item_ids, v = _dense_ids(item)
    if keep_first:
        first = _first_rows(u, v, len(item_ids))
        u, v, weight = u[first], v[first], weight[first]
    # Under strict, the constructor's sorted-neighbour check is the one
    # duplicate check; its error sends the file to the line parser.
    return RatingGraph(user_ids, item_ids, u, v, weight)


def _first_rows(u: np.ndarray, v: np.ndarray, n_items: int) -> np.ndarray:
    """The rows where each (user, item) pair first appears, ascending."""
    _, first = np.unique(u * n_items + v, return_index=True)
    first.sort()
    return first


def _range_error(value: float, raw: str, scale: RatingScale | None) -> str:
    """Why `_line_ratings` refuses `value`, read from the field `raw`: it
    is not finite, outside `scale`, or, with no scale, outside [0, 1]."""
    if not math.isfinite(value):
        return f"non-finite rating value {raw!r}"
    if scale is None:
        return f"normalized weight {value} outside [0, 1]"
    try:
        scale.normalize(value)
    except ValueError as exc:
        return str(exc)
    raise ValueError(f"{value!r} lies inside {scale}")


def _line_ratings(
    path: str | Path,
    fmt: DelimitedFormat,
    scale: RatingScale | None,
    keep_first: bool,
) -> RatingGraph:
    """`ingest_ratings` line by line, for any file: the graph, or an
    `IngestError` at the first bad line.

    Each record goes into `array` columns, not an object per line: its
    dense user and item index, its raw value and its line number.
    Repeated pairs are found over those columns afterwards, and also
    before a bad line's error is raised, so the first bad line wins.
    """
    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    us, vs, linenos = array("q"), array("q"), array("q")
    values = array("d")
    sep = fmt.delimiter
    lines = _lines(path)
    head = next(lines, None)
    if head is not None:
        if tuple(_CANONICAL_FORMAT.split(head[1])) == CANONICAL_HEADER:
            sep, scale = _CANONICAL_FORMAT.delimiter, None
        else:
            lines = chain([head], lines)
    lo, hi = (0.0, 1.0) if scale is None else (scale.min_raw, scale.max_raw)
    error = None
    try:
        for lineno, line in lines:
            fields = line.split(sep, 3)
            if len(fields) < 3:
                raise IngestError(
                    path, lineno, f"expected at least 3 fields, got {len(fields)}"
                )
            user_id = fields[0].strip()
            item_id = fields[1].strip()
            if not user_id or not item_id:
                raise IngestError(path, lineno, "empty user or item id")
            raw = fields[2].strip()
            try:
                value = float(raw)
            except ValueError:
                raise IngestError(path, lineno, f"bad rating value {raw!r}") from None
            if not lo <= value <= hi:
                raise IngestError(path, lineno, _range_error(value, raw, scale))
            us.append(user_index.setdefault(user_id, len(user_index)))
            vs.append(item_index.setdefault(item_id, len(item_index)))
            values.append(value)
            linenos.append(lineno)
    except IngestError as exc:
        error = exc

    user_ids, item_ids = list(user_index), list(item_index)
    u, v = np.frombuffer(us, np.int64), np.frombuffer(vs, np.int64)
    first = _first_rows(u, v, len(item_ids))
    if not keep_first and first.size < u.size:
        repeated = np.ones(u.size, bool)
        repeated[first] = False
        later = int(np.argmax(repeated))
        earlier = int(np.argmax((u == u[later]) & (v == v[later])))
        raise IngestError(
            path,
            linenos[later],
            f"duplicate rating for user {user_ids[u[later]]!r} and item "
            f"{item_ids[v[later]]!r} (first seen at line {linenos[earlier]})",
        )
    if error is not None:
        raise error
    # The float operations of `RatingScale.normalize`; with no scale they
    # leave every value as it is.
    weight = (np.frombuffer(values) - lo) / (hi - lo)
    if keep_first:
        u, v, weight = u[first], v[first], weight[first]
    return RatingGraph(user_ids, item_ids, u, v, weight)


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
    keep_first = duplicate_policy == "keep_first"
    try:
        return _byte_ratings(path, fmt, scale, keep_first)
    except (_Refused, ValueError):
        pass
    return _line_ratings(path, fmt, scale, keep_first)


def ingest_ground_truth(
    path: str | Path,
    *,
    scale: RatingScale | None = None,
) -> dict[str, float]:
    """Parse ``id,value`` reference scores into ``{id: value}``, in file
    order, line by line: the table, or an `IngestError` at the first bad
    line.

    A first line whose value field is not numeric is treated as a header.
    `scale` (when given) maps raw values onto [0, 1]; duplicated ids are an
    error.
    """
    values: dict[str, float] = {}
    for lineno, line in _lines(path):
        fields = line.split(",", 2)
        if len(fields) < 2:
            raise IngestError(
                path, lineno, f"expected at least 2 fields, got {len(fields)}"
            )
        key, raw = fields[0].strip(), fields[1].strip()
        try:
            value = float(raw)
        except ValueError:
            if lineno == 1:
                continue
            raise IngestError(path, lineno, f"bad value {raw!r}") from None
        if not key:
            raise IngestError(path, lineno, "empty id")
        if not math.isfinite(value):
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


def _unwritable(key: str) -> str | None:
    """Why `key` would not read back as itself from a CSV field, or None."""
    if "," in key:
        return "contains ','"
    if "\n" in key or "\r" in key:
        return "contains a line break"
    if not key:
        return "is empty"
    if key != key.strip():
        return "has whitespace at an end"
    return None


def _check_plain_ids(ids: Sequence[str]) -> None:
    """Raise `ValueError` naming the first id that would not read back as
    itself from a CSV field."""
    # Ids are written verbatim. Readers break lines at "\n" and "\r",
    # split fields on a bare ",", strip each field and refuse an empty id,
    # so an id reads back as itself only if `_unwritable` finds no reason.
    # A block at a time, so that the joined text stays small. Each test is
    # one C-level pass; the strip pass runs only on a block whose text
    # holds whitespace, which `str.split()` finds (it splits on exactly
    # the characters `str.strip()` strips).
    for start in range(0, len(ids), _BLOCK_ROWS):
        block = ids[start:start + _BLOCK_ROWS]
        text = "".join(block)
        if (
            "," in text or "\n" in text or "\r" in text or not all(block)
            or (text.split(None, 1) != [text]
                and list(map(str.strip, block)) != list(block))
        ):
            bad = next(filter(_unwritable, block))
            raise ValueError(
                f"id {bad!r} {_unwritable(bad)} and cannot be written as CSV"
            )


# The fixed-point formatter. Every integer below 2**52 is a float64, so a
# rounded scaled value below it is exact, with at most `_WHOLE_DIGITS`
# digits before the point; the fraction's digits fit a uint32.
_SCALE = 10.0**FLOAT_DIGITS
_EXACT_LIMIT = 2.0**52
_WHOLE_DIGITS = len(str(2**52 // 10**FLOAT_DIGITS))
_WHOLE_LIMITS = [10**k for k in range(1, _WHOLE_DIGITS)]
# One value right-aligned: sign, whole digits, ".", fraction, "\n".
_POINT = 1 + _WHOLE_DIGITS
_NUMBER_WIDTH = _POINT + 1 + FLOAT_DIGITS + 1

_Field = tuple[np.ndarray, np.ndarray]


def _text_field(strings: Sequence[str]) -> _Field:
    """Each string followed by ``,``, as UTF-8 bytes back to back, and the
    byte length of each. The strings hold no ``,`` (`_check_plain_ids`),
    so the commas mark where each one ends."""
    data = np.frombuffer((",".join(strings) + ",").encode(), np.uint8)
    return data, np.diff(np.flatnonzero(data == ord(",")), prepend=-1)


def _put_digits(columns: np.ndarray, value: np.ndarray) -> None:
    """Write the low decimal digits of `value` into the ASCII `columns`,
    units digit last."""
    for col in range(columns.shape[1] - 1, -1, -1):
        quotient = value // 10
        columns[:, col] = value - quotient * 10 + ord("0")
        value = quotient


def _number_fields(values: np.ndarray) -> tuple[_Field, _Field]:
    """Each value as `_NUMBER` formats it: the rows numpy formats and the
    rows Python formats, as two fields each empty where the other is not.

    numpy rounds p = v * 10**FLOAT_DIGITS to the nearest integer n. The
    product is within |p| * 2**-53 of the exact one, so both round to n
    unless p lies that close to a half-integer; those rows, non-finite
    values and |p| >= 2**52 go to Python. The band is doubled to cover the
    rounding of the distance itself.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = values * _SCALE
        nearest = np.rint(scaled)
        fast = (np.abs(scaled) < _EXACT_LIMIT) & (
            np.abs(np.abs(scaled - nearest) - 0.5)
            > np.abs(scaled) * 2.0**-51
        )
    whole, fraction = np.divmod(
        np.where(fast, np.abs(nearest), 0.0).astype(np.uint64),
        10**FLOAT_DIGITS,
    )
    whole = whole.astype(np.uint32)
    digits = 1 + np.searchsorted(_WHOLE_LIMITS, whole, side="right")
    text = np.empty((values.size, _NUMBER_WIDTH), np.uint8)
    _put_digits(text[:, _POINT - digits.max(initial=1):_POINT], whole)
    text[:, _POINT] = ord(".")
    _put_digits(text[:, _POINT + 1:-1], fraction.astype(np.uint32))
    text[:, -1] = ord("\n")
    # The first column each row uses: its leading digit, or the sign
    # before it (np.signbit, so -0.0 and tiny negatives print "-0.0...").
    negative = np.signbit(values) & fast
    first = np.where(fast, _POINT - digits - negative, _NUMBER_WIDTH)
    text[negative, first[negative]] = ord("-")
    used = np.arange(_NUMBER_WIDTH) >= first[:, None]
    numpy_field = (text[used], _NUMBER_WIDTH - first)

    slow = np.flatnonzero(~fast)
    python_lengths = np.zeros(values.size, np.intp)
    strings = list(map(_NUMBER.format, values[slow].tolist()))
    python_lengths[slow] = list(map(len, strings))
    python_field = (np.frombuffer("".join(strings).encode(), np.uint8),
                    python_lengths)
    return numpy_field, python_field


def _rows(fields: Sequence[_Field]) -> np.ndarray:
    """The bytes of rows whose i-th one joins every field's i-th piece,
    in field order."""
    lengths = np.stack([length for _, length in fields], axis=1)
    owner = np.repeat(
        np.tile(np.arange(len(fields), dtype=np.uint8), len(lengths)),
        lengths.ravel(),
    )
    out = np.empty(owner.size, np.uint8)
    for k, (data, _) in enumerate(fields):
        if data.size:
            out[owner == k] = data
    return out


def _write_csv(
    path: str | Path,
    header: Sequence[str],
    count: int,
    block_fields: Callable[[slice], Sequence[_Field]],
) -> None:
    """Write the header, then rows 0..count-1 in blocks of `_BLOCK_ROWS`,
    each block's fields given by `block_fields`."""
    with open(path, "wb") as handle:
        handle.write((",".join(header) + "\n").encode())
        for start in range(0, count, _BLOCK_ROWS):
            block = slice(start, min(start + _BLOCK_ROWS, count))
            handle.write(_rows(block_fields(block)))


def write_ratings_csv(graph: RatingGraph, path: str | Path) -> None:
    """Write the graph's edges as canonical CSV in canonical edge order."""
    _check_plain_ids(graph.user_ids + graph.item_ids)

    def block_fields(rows: slice) -> list[_Field]:
        users = map(graph.user_ids.__getitem__, graph.edge_user[rows].tolist())
        items = map(graph.item_ids.__getitem__, graph.edge_item[rows].tolist())
        return [_text_field(list(users)), _text_field(list(items)),
                *_number_fields(graph.edge_weight[rows])]

    _write_csv(path, CANONICAL_HEADER, graph.num_edges, block_fields)


def write_scores_csv(
    path: str | Path,
    header: tuple[str, str],
    ids: Sequence[str],
    values: np.ndarray,
) -> None:
    """Write ``id,value`` rows (bias or rating scores) with a fixed header.

    Values are written with `FLOAT_DIGITS` decimals, byte for byte as
    Python's ``f"{v:.9f}"`` writes them.
    """
    _check_plain_ids(ids)
    scores = np.asarray(values, np.float64)
    if scores.shape != (len(ids),):
        raise ValueError(f"values of shape {scores.shape} for {len(ids)} ids")

    def block_fields(rows: slice) -> list[_Field]:
        return [_text_field(ids[rows]), *_number_fields(scores[rows])]

    _write_csv(path, header, len(ids), block_fields)
