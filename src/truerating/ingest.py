"""Reading and writing rating data.

Two on-disk layouts are supported:

* delimited rating logs, one ``user<sep>item<sep>rating`` record per line
  (a trailing timestamp field is tolerated and ignored), with raw ratings
  on an arbitrary scale such as 1..5;
* the canonical CSV this package emits: header ``user_id,item_id,weight``
  and weights already normalized to [0, 1].

`ingest_ratings` sniffs the canonical header so its own output round-trips
without extra flags.

Files are parsed as columns, every check (field count, empty ids, numeric,
finite and in-scale values, weights in [0, 1], duplicates) is a reduction
over whole columns, and values are converted with a single
``astype(np.float64)``. The file is read once as bytes. If every byte is
printable ASCII other than the space, a line break or a one-byte
delimiter, as in MovieLens logs and this package's own CSV, nothing needs
stripping or decoding: line breaks and delimiters are found by numpy
scans, each field is gathered into a fixed-width ``S`` column, and ids are
numbered with `np.unique`. Any other file (padding whitespace, non-ASCII
ids, control bytes) is read again as text and cut as numpy ``StringDType``
columns with ``np.strings.partition`` and ``np.strings.strip``. Both paths
give the same graph. Neither keeps line numbers: only when a check fails
is the file read again line by line, and that rescan raises an
`IngestError` carrying the file path and the 1-based line number of the
first bad record.

The CSV writers format in numpy, a fixed number of rows at a time, and
write each block's bytes at once. Every value is rounded to `FLOAT_DIGITS`
decimals from its scaled float64 product; the few values that product
cannot round with certainty (near a decimal tie, non-finite or very large)
are formatted by Python, so every byte matches ``f"{v:.9f}"``.
"""

from __future__ import annotations

import codecs
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
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


# The printable ASCII bytes other than the space, 0x21 to 0x7E.
_PRINTABLE_LO, _PRINTABLE_COUNT = 0x21, 0x7E - 0x21 + 1


def _byte_columns(
    data: bytes, fmt: DelimitedFormat, count: int, sniff: bool
) -> tuple[list[np.ndarray], bool, bool] | None:
    """`_columns` for a file of printable ASCII, with fixed-width `S`
    columns, or None if the gate refuses the file.

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
    if not sep.isascii() or "\n" in sep or "\r" in sep:
        return None
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
    if admitted != text.size:
        return None

    starts = np.concatenate(([0], breaks + 1))
    ends = np.append(breaks, text.size)
    del breaks
    kept = ends > starts
    if extra is not None and sep.isspace():
        spaces = np.searchsorted(extra, ends) - np.searchsorted(extra, starts)
        kept &= spaces < ends - starts
        del spaces
    first_line_kept = bool(kept[0])
    starts, ends = starts[kept], ends[kept]
    del kept
    canonical = sniff and starts.size > 0 and tuple(
        _CANONICAL_FORMAT.split(data[starts[0]:ends[0]].decode("ascii"))
    ) == CANONICAL_HEADER
    if canonical:
        if extra is not None and extra.size:
            return None
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
    if len(sep) > 1 and (np.diff(cuts) < len(sep)).any():
        return None
    # Line i's first delimiter is cuts[first[i]]; a cut at the end of the
    # text bounds the last field of a line with no delimiter after it.
    first = np.searchsorted(cuts, starts)
    _require((np.searchsorted(cuts, ends) - first >= count - 1).all())
    cuts = np.append(cuts, text.size)

    # A field is no longer than its line, so padding the text by the
    # longest line lets every field's window stay inside it.
    padded = np.zeros(text.size + int((ends - starts).max(initial=0)) + 1, np.uint8)
    padded[:text.size] = text
    limit = max(2 * text.size, 1 << 20)
    del text, data
    columns = []
    for k in range(count):
        stop = cuts[first + k]
        if k == count - 1:
            stop = np.minimum(stop, ends)
        column = _gather(padded, starts, stop - starts, limit)
        if column is None:
            return None
        columns.append(column)
        starts = stop + len(sep)
    return columns, first_line_kept, canonical


def _gather(
    padded: np.ndarray, starts: np.ndarray, lengths: np.ndarray, limit: int
) -> np.ndarray | None:
    """The fields at `starts` with `lengths` as one fixed-width `S` column,
    or None if that column would take more than `limit` bytes."""
    width = max(int(lengths.max(initial=0)), 1)
    if width * lengths.size > limit:
        return None
    cells = sliding_window_view(padded, width)[starts]
    cells[np.arange(width) >= lengths[:, None]] = 0
    return cells.view(f"S{width}").ravel()


def _columns(
    path: str | Path, fmt: DelimitedFormat, count: int, sniff: bool = False
) -> tuple[list[np.ndarray], bool, bool]:
    """The first `count` stripped `fmt` fields of each non-blank line,
    whether the first line is non-blank, and whether the file is canonical
    CSV: with `sniff`, a first non-blank line that is the canonical header
    is dropped and the lines are split on ``,``.

    A file `_byte_columns` admits gives `S` columns; any other file is read
    again as text by `_string_columns`.
    """
    with open(path, "rb") as handle:
        parsed = _byte_columns(handle.read(), fmt, count, sniff)
    if parsed is None:
        parsed = _string_columns(path, fmt, count, sniff)
    return parsed


def _string_columns(
    path: str | Path, fmt: DelimitedFormat, count: int, sniff: bool
) -> tuple[list[np.ndarray], bool, bool]:
    """`_columns` with `StringDType` columns, for any file.

    Lines break on exactly the breaks `_lines` uses: ``\\n``, ``\\r`` and
    ``\\r\\n``; `str.splitlines` would also split on ``\\x0b``,
    ``\\x1c``, ``\\u2028`` and others. The array of whole lines lives
    only in here, and only until the first cut; each cut's separators and
    unstripped field are dropped as soon as they are used, which lowers
    the peak. Fields are stripped by `str.strip`: `np.strings.strip` would
    also strip NUL.
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
            _require(_nonempty(found))
        del found
        columns.append(np.array(list(map(str.strip, field.tolist())), _STRING))
        del field
    return columns, first_line_kept, canonical


def _nonempty(column: np.ndarray) -> bool:
    # `np.strings.str_len` does not count NULs at the end of a string.
    return bool((column != column.dtype.type()).all())


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
    if column.dtype.kind == "S":
        return _dense_byte_ids(column)
    keys = column.tolist()
    index = dict(zip(dict.fromkeys(keys), range(len(keys))))
    rows = np.fromiter(map(index.__getitem__, keys), np.int64, len(keys))
    return list(index), rows


def _dense_byte_ids(column: np.ndarray) -> tuple[list[str], np.ndarray]:
    """`_dense_ids` for an `S` column: ids of up to 8 bytes are sorted as
    one zero-padded `uint64` each, longer ones as bytes, and only the
    distinct ids are decoded."""
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


def _rating_columns(
    path: str | Path,
    fmt: DelimitedFormat,
    scale: RatingScale | None,
    keep_first: bool,
) -> RatingGraph:
    """Columnar `ingest_ratings`; raises `_Rescan` or `ValueError` instead
    of an `IngestError`."""
    (user, item, raw), _, canonical = _columns(path, fmt, 3, sniff=True)
    _require(_nonempty(user) and _nonempty(item))
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


def _truth_columns(
    path: str | Path, fmt: DelimitedFormat, scale: RatingScale | None
) -> dict[str, float]:
    """Columnar `ingest_ground_truth`; raises `_Rescan` or `ValueError`
    instead of an `IngestError`."""
    (key, raw), first_line_kept, _ = _columns(path, fmt, 2)
    if first_line_kept:
        try:
            float(raw[0])
        except ValueError:
            key, raw = key[1:], raw[1:]
    _require(_nonempty(key))
    keys = (key.astype(str) if key.dtype.kind == "S" else key).tolist()
    values = dict(zip(keys, _values(raw, scale).tolist()))
    _require(len(values) == len(keys))
    return values


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
) -> dict[str, float]:
    """Parse ``id<sep>value`` reference scores into ``{id: value}``, in
    file order.

    A first line whose value field is not numeric is treated as a header.
    `scale` (when given) maps raw values onto [0, 1]; duplicated ids are an
    error.
    """
    try:
        return _truth_columns(path, fmt, scale)
    except (_Rescan, ValueError) as exc:
        _locate_truth_error(path, fmt, scale)
        raise IngestError(path, 0, str(exc)) from None


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


def _require_plain_ids(ids: Sequence[str]) -> None:
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
    byte length of each. The strings hold no ``,`` (`_require_plain_ids`),
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
    _require_plain_ids(graph.user_ids + graph.item_ids)

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
    _require_plain_ids(ids)
    scores = np.asarray(values, np.float64)
    if scores.shape != (len(ids),):
        raise ValueError(f"values of shape {scores.shape} for {len(ids)} ids")

    def block_fields(rows: slice) -> list[_Field]:
        return [_text_field(ids[rows]), *_number_fields(scores[rows])]

    _write_csv(path, header, len(ids), block_fields)
