"""Reading and writing rating data.

Two on-disk layouts are supported:

* delimited rating logs, one ``user<sep>item<sep>rating`` record per line
  (a trailing timestamp field is tolerated and ignored), with raw ratings
  on an arbitrary scale such as 1..5;
* the canonical CSV this package emits: header ``user_id,item_id,weight``
  and weights already normalized to [0, 1].

`ingest_ratings` sniffs the canonical header so its own output round-trips
without extra flags.

A rating file has one reader, for any UTF-8 file. It reads the file
once as bytes and cuts it a block of about `_BLOCK_BYTES` at a time, each
ended by a line break: in each block, line breaks, delimiters and
whitespace are found by numpy scans, and each field is trimmed and
gathered into a fixed-width ``S`` column of its bytes as they are, or,
if it holds a NUL (which an ``S`` column drops at its end), into a column
of `bytes` objects. A block whose lines all hold
the same number of delimiter matches reshapes them into one row per
line, checked by two whole-column compares; any other block finds each
line's matches by `np.searchsorted` (`_bounds`). The blocks' columns are
joined, then ids are numbered once, values are converted a block of rows
at a time, and every check (field count, empty ids, finite and in-scale
values, weights in [0, 1], duplicates) is a reduction over whole columns.

Ids are numbered in the order Python sorts them, that of their UTF-8
bytes (`_dense_ids`), so the graph, its sums and every output depend on
the set of ratings, not on the order of the lines. `_first_rows` finds
every repeat, of a (user, item) pair or of an `IdTable`'s id, by one
sort: a pair's first row is the line ``keep_first`` keeps and the one a
strict duplicate names, and a table refuses a repeated id.

A column whose fields are all at most 8 bytes wide is gathered as one
little-endian word per field, by one unaligned load each, and is an
``S8`` column of those words. A column of decimal ids, ASCII digits with
no leading ``0`` (but ``"0"``) whose largest is below `_ID_SPAN` times
the row count, is ranked by value, and one sort of its distinct ids puts
those ranks in string order; a leading zero would make ``"007"`` and
``"7"`` one value, so it sends the column to `np.unique`, which ranks
any other ids by their `_sort_keys`. A block of plain decimals, ASCII
digits with at most one ``.``, is converted by digit arithmetic within
the words and one division: an integer below 10**8 by a power of ten of
at most 10**8, both exact doubles, so the correctly rounded quotient is
what `float` gives, bit for bit (`_plain_decimals`). Any other block is
read by ``astype(np.float64)``.

A file with whitespace, or not ASCII, has its lines and fields trimmed of
exactly what `str.strip` removes (`_trim`). Only the distinct ids become
text, and a value block numpy refuses goes to `float` once per distinct
field; conversion stops after the first block that holds a bad value.
Rows are mapped to lines only when a check fails: the `IngestError`
carries the file path and the 1-based line number of the first bad
record, or of the first byte that is not UTF-8.

`ingest_ground_truth` reads the ``id,value`` tables (ground truth,
per-user alpha overrides and seed biases) with the same reader, on two
fields, and keeps them as columns in an `IdTable`: its ids become `str`
only when a caller iterates it or looks an id up. `_match_ids` matches a
table to a graph's ids by one sort of both key columns together, each
id's bytes packed so that the keys sort as Python sorts the ids
(`_sort_keys`).

The CSV writers format in numpy, a fixed number of rows at a time, and
write each block's bytes at once. Every value is rounded to `FLOAT_DIGITS`
decimals from its scaled float64 product and laid out with one whole
digit, which is all the values this package writes need. The few rows
that product cannot round with certainty (near a decimal tie) get their
digits from Python in the same columns, and a block holding a non-finite
value or one of magnitude 9 or more is formatted by Python as a whole, so
every byte matches ``f"{v:.9f}"``.
"""

from __future__ import annotations

import codecs
import math
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from contextlib import suppress
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
    "IdTable",
    "write_ratings_csv",
    "write_scores_csv",
]

CANONICAL_HEADER = ("user_id", "item_id", "weight")

#: Decimal places used for every weight/score this package writes.
FLOAT_DIGITS = 9
_NUMBER = f"{{:.{FLOAT_DIGITS}f}}"

#: Rows the CSV writers format, and value columns are converted, at a
#: time; it bounds their temporaries.
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


#: Bytes of a file that the reader takes at a time, cut after a line
#: break: `_text` decodes, and `_columns` cuts, one such block at a time,
#: so that their temporaries stay small.
_BLOCK_BYTES = 1 << 20


def _blocks(data: bytes) -> Iterator[tuple[int, int]]:
    """The [start, stop) of each block of `data`: `_BLOCK_BYTES`, then on
    to the end of that line."""
    start = 0
    while start < len(data):
        stop = data.find(b"\n", start + _BLOCK_BYTES) + 1 or len(data)
        yield start, stop
        start = stop


def _text(path: str | Path) -> bytes:
    """The bytes of the file at `path` without a BOM, every ``\\r\\n`` or
    ``\\r`` turned into ``\\n``; raises `IngestError` at the line of the
    first byte that is not UTF-8. The check decodes a block at a time, so
    that the text it makes stays small."""
    with open(path, "rb") as handle:
        data = handle.read().removeprefix(codecs.BOM_UTF8)
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not data.isascii():
        for start, stop in _blocks(data):
            try:
                data[start:stop].decode()
            except UnicodeDecodeError as exc:
                line = data.count(b"\n", 0, start + exc.start) + 1
                raise IngestError(path, line, f"not UTF-8: {exc.reason}") from None
    return data


# What `str.strip` removes but the line break, which ends a line before its
# fields are cut; a test checks it against Python's Unicode database. The
# ASCII bytes are `_SPACE`; the UTF-8 of the rest is keyed big-endian by
# length, and `_WIDE_EDGE` marks the bytes that begin (row 0) or end one.
_STRIPPED = (
    "\t\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004"
    "\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)
_SPACE = np.array([b < 0x80 and chr(b) in _STRIPPED for b in range(256)])
_WIDE = [c.encode() for c in _STRIPPED if not c.isascii()]
_WIDE_KEYS = {n: [int.from_bytes(w, "big") for w in _WIDE if len(w) == n] for n in (2, 3)}
_WIDE_EDGE = np.array([[b in {w[k] for w in _WIDE} for b in range(256)] for k in (0, -1)])


def _trim(text: np.ndarray, starts: np.ndarray, stops: np.ndarray, wide: bool) -> None:
    """Move each span [start, stop) of `text` past the characters that
    `str.strip` removes at its ends, in place, by a character a pass on the
    spans that still have one. If `wide`, a span whose edge byte is in
    `_WIDE_EDGE` has the 3 bytes from or before its edge, clipped to
    `text`, matched against `_WIDE_KEYS`; spans never cut a character, so
    only a 2-byte one can be clipped, and its lead begins no 3-byte key."""
    for end, inside, step in ((starts, 0, 1), (stops, -1, -1)):
        at = np.arange(starts.size)
        while at.size:
            at = at[starts[at] < stops[at]]
            edge = text[end[at] + inside]
            if wide:
                high = at[edge >= 0x80]
                high = high[_WIDE_EDGE[inside][text[end[high] + inside]]]
                key = np.zeros(high.size, np.int64)
                for j in (0, 1, 2) if step > 0 else (-3, -2, -1):
                    key = key << 8 | text.take(end[high] + j, mode="clip")
                # No key of 2 bytes begins or ends one of 3.
                two = key >> 8 if step > 0 else key & 0xFFFF
                widths = 3 * np.isin(key, _WIDE_KEYS[3]) + 2 * np.isin(two, _WIDE_KEYS[2])
                high = high[widths > 0]
                end[high] += step * widths[widths > 0]
            at = at[_SPACE[edge]]
            end[at] += step
            if wide:
                at = np.concatenate((at, high))


def _matches(text: np.ndarray, sep: bytes) -> np.ndarray:
    """Where `str.split` cuts `text` on `sep`: the leftmost matches that do
    not overlap. A match holding a line break would join two lines, so a
    `sep` with one never matches."""
    if b"\n" in sep:
        return np.zeros(0, np.int64)
    span = max(text.size - len(sep) + 1, 0)
    hit = text[:span] == sep[0]
    for j in range(1, len(sep)):
        hit &= text[j:j + span] == sep[j]
    cuts = np.flatnonzero(hit)
    del hit
    if (np.diff(cuts) < len(sep)).any():
        # Only a `sep` that begins as it ends (``::`` in ``:::``) gets here.
        kept, after = [], 0
        for cut in cuts.tolist():
            if cut >= after:
                kept.append(cut)
                after = cut + len(sep)
        cuts = np.array(kept, np.int64)
    return cuts


# A field of up to 8 bytes is read as one little-endian word: its first
# byte lowest, then zeros past its end.
_WORD = 8
# The byte 1 in each byte of a word.
_ONES = 0x0101010101010101


def _padded(text: np.ndarray, longest: int) -> np.ndarray:
    """`text` followed by zeros, so that each field's window of its
    `longest` bytes, or its word, stays inside."""
    padded = np.empty(text.size + max(longest, _WORD) + 1, np.uint8)
    padded[:text.size] = text
    padded[text.size:] = 0
    return padded


def _gather(
    padded: np.ndarray, starts: np.ndarray, stops: np.ndarray, limit: int
) -> np.ndarray:
    """The fields at [starts, stops) of `padded` as `bytes` objects if a
    column as wide as the widest would take more than `limit` bytes, else
    as one fixed-width `S` column: one `S8` word each if none is wider
    than 8 bytes, else as wide as the widest."""
    lengths = stops - starts
    width = int(lengths.max(initial=0))
    if width * lengths.size > limit:
        blob = padded.tobytes()
        fields = [blob[a:b] for a, b in zip(starts.tolist(), stops.tolist())]
        return np.array(fields, object)
    if width <= _WORD:
        # One unaligned load per field from a byte-strided view of words;
        # the bytes past the field go out at the top and zeros come back.
        words = np.ndarray((padded.size - _WORD + 1,), "<u8", padded,
                           strides=(1,))[starts]
        past = np.subtract(_WORD, lengths, out=lengths).view(np.uint64)
        past <<= 3
        words <<= past
        words >>= past
        return words.view(f"S{_WORD}")
    cells = sliding_window_view(padded, width)[starts]
    cells[np.arange(width) >= lengths[:, None]] = 0
    return cells.view(f"S{width}").ravel()


def _byte_count(flags: np.ndarray) -> np.ndarray:
    """How many bytes of each word are 1, in words of 0 and 1 bytes."""
    return (flags * _ONES) >> 56


def _digit_values(digits: np.ndarray) -> np.ndarray:
    """The integer that each word's 8 bytes spell as decimal digits, the
    first in its low byte, each byte 0 to 9: pairs, then fours, then
    eights of digits are combined by multiplies within the word."""
    pairs = digits * 10 + (digits >> 8)
    low = 0x000000FF000000FF
    return ((pairs & low) * (100 + (1000000 << 32))
            + ((pairs >> 16) & low) * (1 + (10000 << 32))) >> 32


def _texts(column: np.ndarray) -> list[str]:
    """The text of each field of a gathered column: decoded at once, each
    ended by a line break, unless one holds a line break (only an id made
    in Python can) or they are `bytes` objects."""
    if column.dtype.kind == "S":
        cells = np.full((column.size, column.itemsize + 1), 0x0A, np.uint8)
        cells[:, :-1] = column.view(np.uint8).reshape(column.size, column.itemsize)
        text = cells[cells != 0].tobytes()
        if text.count(b"\n") == column.size:
            text = text.decode("utf-8", "surrogatepass")
            return text.split("\n")[:-1]
    return [field.decode("utf-8", "surrogatepass") for field in column.tolist()]


#: A column of decimal ids is numbered by value if its largest id is
#: below this many times its row count, so the table stays small.
_ID_SPAN = 4


def _decimal_ids(column: np.ndarray) -> np.ndarray | None:
    """The integer that each field of an `S8` column spells, if every
    field is ASCII digits with no leading ``0`` (but ``"0"`` itself), so
    that distinct fields spell distinct integers; else None."""
    raw = column.view(np.uint8)
    present = raw != 0
    digit = raw - 0x30 < 10
    if not (np.array_equal(digit, present) and digit.view("<u8").all()):
        return None
    words = column.view("<u8")
    if (((words & 0xFF) == 0x30) & present[1::_WORD]).any():
        return None
    # The digits moved to the top of the word, zeros below them.
    shift = (_WORD - _byte_count(present.view("<u8"))) * 8
    return _digit_values((words & 0x0F * _ONES) << shift).view(np.int64)


def _first_rows(keys: np.ndarray) -> np.ndarray:
    """For each row of `keys` (int64 pair codes, `uint64` words, `S` keys
    or `bytes` objects), the first row that holds an equal key, found by
    one argsort whether or not a key repeats."""
    order = np.argsort(keys)
    ordered = keys[order]
    starts = np.append(True, ordered[1:] != ordered[:-1])
    if starts.all():
        return np.arange(keys.size)
    # Every row of a run of equal sorted keys gets the run's least row.
    run = np.cumsum(starts) - 1
    least = np.full(run[-1] + 1, keys.size)
    np.minimum.at(least, run, order)
    first = np.empty_like(order)
    first[order] = least[run]
    return first


def _dense_ids(column: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Distinct ids of a gathered column in ascending order, as Python
    sorts them, and each row's dense index, its id's rank: by `np.unique`
    of the `_sort_keys`, or, for decimal ids below `_ID_SPAN` times the row
    count, by value and then one sort of the distinct ids' keys. Only the
    distinct ids are decoded; fields are equal ids where their bytes are."""
    codes = _decimal_ids(column) if column.dtype == f"S{_WORD}" else None
    by_value = codes is not None and codes.max(initial=0) < _ID_SPAN * len(codes)
    if not by_value:
        _, codes = np.unique(_sort_keys(column), return_inverse=True)
    # A row of each code, in code order; of values, only those present.
    rows = np.full(int(codes.max(initial=-1)) + 1, -1)
    rows[codes] = np.arange(codes.size)
    if by_value:
        # The values present, in the order of their ids' text.
        held = np.flatnonzero(rows >= 0)
        held = held[np.argsort(_sort_keys(column[rows[held]]))]
        rank = np.empty(rows.size, np.intp)
        rank[held] = np.arange(held.size)
        rows, codes = rows[held], rank[codes]
    return _texts(column[rows]), codes


# 10**k, exact, for the k by which `_plain_decimals` divides.
_POWERS_OF_TEN = np.array([10**k for k in range(_WORD + 1)], np.float64)


def _plain_decimals(column: np.ndarray) -> np.ndarray | None:
    """Each field of an `S8` column as `float` reads it, if every field is
    a plain decimal: ASCII digits with at most one ``.``, and at least one
    digit; else None.

    The digits, without the point and with zeros after them to fill 8
    bytes, spell an integer m below 10**8 that is 10**k times the
    decimal's value, for some k of at most 8. Both m and 10**k are below
    2**53, so exact doubles, and IEEE division rounds m / 10**k correctly,
    as `float` rounds the decimal: every bit agrees (Clinger, "How to Read
    Floating Point Numbers Accurately", 1990)."""
    raw = column.view(np.uint8)
    present = raw != 0
    point = raw == 0x2E
    digit = raw - 0x30 < 10
    points = point.view("<u8")
    if not (
        np.array_equal(digit | point, present)
        and digit.view("<u8").all()
        and not (points & (points - 1)).any()
    ):
        return None
    # The bytes below the point, or all of them if there is none. The
    # digits after the point move down a byte over it.
    below = points - 1
    digits = column.view("<u8") & 0x0F * _ONES
    merged = (digits & below) | ((digits >> 8) & ~below)
    # k is 8 less the digits before the point, or less all the digits.
    k = _WORD - _byte_count(present.view("<u8") & below)
    return _digit_values(merged).astype(np.float64) / _POWERS_OF_TEN[k]


def _values(column: np.ndarray) -> np.ndarray:
    """Each field of `column` as `float` reads it, or NaN where `float`
    refuses it, up to the first block of `_BLOCK_ROWS` rows that holds a
    NaN; every row after that block is NaN too, as no row there can be the
    first bad one. A block of plain decimals of up to 8 bytes is converted
    from its words; numpy reads any other ASCII as `float` does, and a
    block it refuses goes to `float` once per distinct field."""
    values = np.full(column.size, np.nan)
    words = column.dtype == f"S{_WORD}"
    for start in range(0, column.size, _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        if words:
            plain = _plain_decimals(column[block])
            if plain is not None:
                values[block] = plain
                continue
        with suppress(ValueError):
            values[block] = column[block].astype(np.float64)
            continue
        distinct, inverse = np.unique(column[block], return_inverse=True)
        parsed = np.full(distinct.size, np.nan)
        for k, text in enumerate(_texts(distinct)):
            with suppress(ValueError):
                parsed[k] = float(text)
        values[block] = parsed[inverse]
        if np.isnan(parsed).any():
            break
    return values


def _bounds(
    block: np.ndarray, sep: bytes, starts: np.ndarray, ends: np.ndarray, nfields: int
) -> tuple[list[tuple[np.ndarray, np.ndarray]], int | None]:
    """The [begin, stop) of each of the first `nfields` fields of the
    lines [starts, ends) of `block`, cut where `str.split` cuts on `sep`,
    up to the first line with fewer fields; and that line's field count
    (None if none)."""
    cuts = _matches(block, sep)
    fields = None
    # If every line holds the same k matches, the matches within the
    # lines fill a grid of a row of k per line, in order. Each row's first
    # match at or after its line's start and its last before its line's
    # end put its k matches in its line, so no line holds more or fewer.
    lo, hi = np.searchsorted(cuts, (starts[0], ends[-1]))
    k, rest = divmod(int(hi - lo), starts.size)
    grid = cuts[lo:hi].reshape(-1, k) if not rest and k >= nfields - 1 else None
    if grid is not None and (grid[:, 0] >= starts).all() and (grid[:, -1] < ends).all():
        at = [grid[:, j] if j < k else ends for j in range(nfields)]
    else:
        # Line i's first match is cuts[first[i]]; the end of `block` bounds
        # the last field of a line with no match after it. Rows stop at the
        # first line with fewer than `nfields` fields.
        cuts = np.append(cuts, block.size)
        first = np.searchsorted(cuts, starts)
        count = np.searchsorted(cuts, ends) - first
        short = np.flatnonzero(count < nfields - 1)
        if short.size:
            fields = int(count[short[0]]) + 1
            starts, ends, first = (a[:short[0]] for a in (starts, ends, first))
        at = [cuts[first + j] for j in range(nfields)]
    # All taken before `_trim` moves any in place.
    begins = [starts, *(a + len(sep) for a in at[:-1])]
    stops = [*at[:-1], np.minimum(at[-1], ends)]
    return list(zip(begins, stops)), fields


def _joined(parts: Sequence[np.ndarray], limit: int) -> np.ndarray:
    """The columns `parts` of one field, gathered a block at a time, as
    one, laid out as `_gather` lays out the whole: `S8` words if every
    part is, else an `S` column as wide as the widest field, or `bytes`
    objects if a part is or that column would take more than `limit`
    bytes."""
    rows = sum(part.size for part in parts)
    width = max((part.itemsize for part in parts if part.dtype.kind == "S"),
                default=_WORD)
    if any(part.dtype.kind == "O" for part in parts) or (
        width > _WORD and width * rows > limit
    ):
        return np.concatenate(parts, dtype=object)
    return np.concatenate(parts) if parts else np.zeros(0, f"S{_WORD}")


def _columns(
    path: str | Path, fmt: DelimitedFormat, nfields: int = 3
) -> tuple[list[np.ndarray], np.ndarray, int | None, bool]:
    """The first `nfields` fields of each record of `path`, trimmed as by
    `str.strip`, as columns; which lines are records; the field count
    of the first line with fewer than `nfields`, where the columns stop
    (None if none); and whether a canonical CSV header opens a rating file
    (`nfields` 3), which makes the lines after it records split on ``,``.

    The file is read once, then cut a block of `_BLOCK_BYTES` at a time,
    each ended by a line break, into columns that are joined at the end.
    A block whose lines all hold the same number of delimiters, at least
    `nfields` - 1, is cut by one reshape of its matches (`_bounds`). The
    first short line ends the read at its block; `kept` covers the lines
    up to it."""
    data = _text(path)
    text = np.frombuffer(data, np.uint8)
    limit = max(2 * text.size, 1 << 20)
    wide = not data.isascii()
    canonical, sep = None, b""
    parts: list[list[np.ndarray]] = [[] for _ in range(nfields)]
    kept, fields = [np.zeros(0, bool)], None
    for at, stop in _blocks(data):
        block = text[at:stop]
        # One scan finds the line breaks, the ASCII whitespace and the NULs.
        # Only a block with whitespace, or of a file outside ASCII, is
        # trimmed; a field with a NUL is gathered as a `bytes` object.
        low = np.flatnonzero(block <= 0x20)
        kind = block[low]
        breaks, nuls = low[kind == 0x0A], low[kind == 0]
        trimmed = wide or _SPACE[kind].any()
        del low, kind
        # Every block but the last ends with a line break, and the line
        # after it opens the next block.
        ends = breaks if stop < text.size else np.append(breaks, block.size)
        starts = np.concatenate(([0], ends[:-1] + 1))
        # A line is blank if trimming leaves nothing.
        keep = ends > starts
        if trimmed:
            solid = starts.copy(), ends.copy()
            _trim(block, *solid, wide)
            keep = solid[1] > solid[0]
            del solid
        kept.append(keep)
        if not keep.all():
            starts, ends = starts[keep], ends[keep]
        if canonical is None and starts.size:
            # The file's first line that is not blank may be the header.
            head = data[at + starts[0]:at + ends[0]].decode()
            canonical = nfields == len(CANONICAL_HEADER) and (
                tuple(_CANONICAL_FORMAT.split(head)) == CANONICAL_HEADER
            )
            sep = (_CANONICAL_FORMAT if canonical else fmt).delimiter.encode()
            if canonical:
                keep[np.argmax(keep)] = False
                starts, ends = starts[1:], ends[1:]
        if not starts.size:
            continue
        # A field is no longer than its line.
        padded = _padded(block, int((ends - starts).max()))
        bounds, fields = _bounds(block, sep, starts, ends, nfields)
        for part, (begin, end) in zip(parts, bounds):
            if trimmed:
                _trim(padded, begin, end, wide)
            held = nuls.size and (np.searchsorted(nuls, begin)
                                  < np.searchsorted(nuls, end)).any()
            part.append(_gather(padded, begin, end, 0 if held else limit))
        if fields is not None:
            break
    columns = [_joined(part, limit) for part in parts]
    return columns, np.concatenate(kept), fields, bool(canonical)


def _value_error(raw: str, scale: RatingScale | None, what: str) -> str | None:
    """Why a reader refuses the value field `raw`, a `what`: `float`
    refuses it, or its value is not finite or outside `scale`; None if
    neither."""
    try:
        value = float(raw)
    except ValueError:
        return f"bad {what} {raw!r}"
    if not math.isfinite(value):
        return f"non-finite {what} {raw!r}"
    if scale is not None:
        try:
            scale.normalize(value)
        except ValueError as exc:
            return str(exc)
    return None


def ingest_ratings(
    path: str | Path,
    *,
    fmt: DelimitedFormat = MOVIELENS_FORMAT,
    scale: RatingScale | None = None,
    duplicate_policy: str = "strict",
) -> RatingGraph:
    """Parse a rating file into a `RatingGraph`, or raise an `IngestError`
    at its first bad line.

    If the first non-blank line is the canonical ``user_id,item_id,weight``
    header the file is read as canonical CSV (weights already in [0, 1],
    `fmt` and `scale` ignored). Otherwise each line must carry at least
    three `fmt` fields, and `scale` (when given) maps raw ratings onto
    [0, 1].
    """
    if duplicate_policy not in ("strict", "keep_first"):
        raise ValueError(f"unknown duplicate policy {duplicate_policy!r}")
    (user, item, raw), kept, fields, canonical = _columns(path, fmt)
    scale = None if canonical else scale
    user_ids, u = _dense_ids(user)
    item_ids, v = _dense_ids(item)
    del user, item
    weight = _values(raw)
    lo, hi = (0.0, 1.0) if scale is None else (scale.min_raw, scale.max_raw)
    # Before `keep_first` drops rows: a dropped row must be valid too. NaN,
    # and so a field `float` refuses, fails both comparisons.
    bad = ~((weight >= lo) & (weight <= hi))
    for ids, index in ((user_ids, u), (item_ids, v)):
        if ids and not ids[0]:  # "" sorts first
            bad |= index == 0
    fail = int(np.argmax(bad)) if bad.any() else u.size
    if fail == u.size and fields is None:
        # The float operations of `RatingScale.normalize`, so the bits
        # match; with no scale they leave every value as it is.
        weight = (weight - lo) / (hi - lo)
        if duplicate_policy == "keep_first":
            first = _first_rows(u * len(item_ids) + v) == np.arange(u.size)
            u, v, weight = u[first], v[first], weight[first]
        # The constructor's id checks are skipped: `_dense_ids` decodes
        # distinct keys, and decoding is one-to-one, so the ids are distinct.
        graph = RatingGraph.__new__(RatingGraph)
        try:
            graph._build(tuple(user_ids), tuple(item_ids), u, v, weight)
            return graph
        except ValueError:
            # Under strict, the constructor's sorted-neighbour check is the
            # one duplicate check of a file of valid records.
            pass

    # Rows map to lines only here: the first bad record, or a repeat before it.
    lines = np.flatnonzero(kept) + 1
    if duplicate_policy == "strict":
        first = _first_rows(u[:fail] * len(item_ids) + v[:fail])
        repeat = first < np.arange(fail)
        if repeat.any():
            # The first row whose pair has an earlier first row.
            later = int(np.argmax(repeat))
            raise IngestError(
                path,
                int(lines[later]),
                f"duplicate rating for user {user_ids[u[later]]!r} and item "
                f"{item_ids[v[later]]!r} (first seen at line {int(lines[first[later]])})",
            )
    if fail == u.size:
        message = f"expected at least 3 fields, got {fields}"
    elif not user_ids[u[fail]] or not item_ids[v[fail]]:
        message = "empty user or item id"
    else:
        text = _texts(raw[fail:fail + 1])[0]
        message = _value_error(text, scale, "rating value") or (
            f"normalized weight {float(text)} outside [0, 1]"
        )
    raise IngestError(path, int(lines[fail]), message)


def _id_column(ids: Sequence[str]) -> np.ndarray:
    """`ids` as `_gather` lays out fields: UTF-8, as `bytes` objects if
    any holds a NUL."""
    # Each id ended by a NUL.
    text = np.frombuffer(
        "\x00".join([*ids, ""]).encode("utf-8", "surrogatepass"), np.uint8
    )
    stops = np.flatnonzero(text == 0)
    if stops.size != len(ids):
        return np.array([i.encode("utf-8", "surrogatepass") for i in ids], object)
    starts = np.append(0, stops + 1)[:-1]
    padded = _padded(text, int((stops - starts).max(initial=0)))
    return _gather(padded, starts, stops, max(2 * text.size, 1 << 20))


def _sort_keys(*columns: np.ndarray) -> np.ndarray:
    """The fields of gathered `columns`, one column after another, as keys
    that are equal where the ids are and sort as Python sorts the ids:
    the columns `_joined` as the reader joins its blocks, with `S8` words
    read as big-endian `uint64`. `S` columns hold no NUL, so the zeros
    that pad a field sort before any byte in it, and `bytes` objects
    compare as the ids' UTF-8 does."""
    keys = _joined(columns, max(2 * sum(c.nbytes for c in columns), 1 << 20))
    return keys.view(">u8").astype(np.uint64) if keys.dtype == f"S{_WORD}" else keys


class IdTable(Mapping[str, float]):
    """An ``id,value`` table: a mapping of id to value in file order, held
    as columns, each id once. `ingest_ground_truth` makes one; `IdTable.of`
    turns any mapping into one. Its ids are made `str` only when it is
    first iterated or an id is looked up."""

    __slots__ = ("column", "scores", "lines", "_by_id")

    def __init__(
        self, column: np.ndarray, scores: np.ndarray, lines: np.ndarray | None = None
    ) -> None:
        #: The ids, as `_gather` lays out fields.
        self.column = column
        #: The values, as float64.
        self.scores = scores
        #: The 1-based line of each row in its file, if read from one.
        self.lines = lines
        self._by_id: dict[str, float] | None = None
        repeat = np.flatnonzero(_first_rows(_sort_keys(column)) < np.arange(column.size))
        if repeat.size:
            raise ValueError(f"duplicate id {_texts(column[repeat[:1]])[0]!r}")

    @classmethod
    def of(cls, table: Mapping[str, float]) -> IdTable:
        """`table` if it is an `IdTable`, else its ids and values as one."""
        if isinstance(table, IdTable):
            return table
        ids = list(table)
        # No repeat check: a mapping's keys are distinct `str`, so their UTF-8 is.
        held = cls.__new__(cls)
        held.column, held.lines, held._by_id = _id_column(ids), None, None
        held.scores = np.fromiter(map(table.__getitem__, ids), np.float64, len(ids))
        return held

    def _mapping(self) -> dict[str, float]:
        if self._by_id is None:
            self._by_id = dict(zip(_texts(self.column), self.scores.tolist()))
        return self._by_id

    def __getitem__(self, key: str) -> float:
        return self._mapping()[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._mapping())

    def __len__(self) -> int:
        return self.scores.size

    def __repr__(self) -> str:
        return f"IdTable({self._mapping()!r})"


def _match_ids(ids: Sequence[str], table: IdTable) -> tuple[np.ndarray, np.ndarray]:
    """Match `table` to distinct `ids` by one sort of both key columns
    together: the indices of the ids the table holds, in ascending id
    order, and each one's table row. A table holds each id once, so equal
    keys come in pairs, one from each side, in either order."""
    keys = _sort_keys(_id_column(ids), table.column)
    order = np.argsort(keys)
    ordered = keys[order]
    pair = np.flatnonzero(ordered[1:] == ordered[:-1])
    low, high = order[pair], order[pair + 1]
    return np.minimum(low, high), np.maximum(low, high) - len(ids)


def _numeric(text: str) -> bool:
    """Whether `float` reads `text`."""
    try:
        float(text)
    except ValueError:
        return False
    return True


def ingest_ground_truth(
    path: str | Path,
    *,
    scale: RatingScale | None = None,
) -> IdTable:
    """Parse ``id,value`` reference scores into an `IdTable`, ids in file
    order, or raise an `IngestError` at the first bad line.

    A first non-blank line whose value field is not numeric is treated as
    a header.
    `scale` (when given) maps raw values onto [0, 1]; duplicated ids are an
    error.
    """
    (column, raw), kept, fields, _ = _columns(path, _CANONICAL_FORMAT, 2)
    lines = np.flatnonzero(kept) + 1
    if raw.size and not _numeric(_texts(raw[:1])[0]):
        column, raw, lines = column[1:], raw[1:], lines[1:]
    values = _values(raw)
    bad = ~np.isfinite(values) | (column == b"")
    if scale is not None:
        bad |= (values < scale.min_raw) | (values > scale.max_raw)
    if not bad.any() and fields is None:
        if scale is not None:
            # `RatingScale.normalize`'s float operations, so the bits match.
            values = (values - scale.min_raw) / scale.span
        # The constructor's repeat check is the one of a table of valid rows.
        with suppress(ValueError):
            return IdTable(column, values, lines[:values.size])
    bad |= _first_rows(_sort_keys(column)) < np.arange(column.size)
    fail = int(np.argmax(bad)) if bad.any() else values.size
    if fail == values.size:
        message = f"expected at least 2 fields, got {fields}"
    else:
        key, text = (_texts(c[fail:fail + 1])[0] for c in (column, raw))
        # A bad value, an empty id, a non-finite or out-of-scale value, a repeat.
        message = (
            "empty id" if not key and _numeric(text)
            else _value_error(text, scale, "value") or f"duplicate id {key!r}"
        )
    raise IngestError(path, int(lines[fail]), message)


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


# The fixed-point formatter's layout: sign, one whole digit, ".", the
# fraction and "\n".
_SCALE = 10.0**FLOAT_DIGITS
_NUMBER_WIDTH = 1 + 1 + 1 + FLOAT_DIGITS + 1

_Field = tuple[np.ndarray, np.ndarray]


def _text_field(strings: Iterable[str], end: str = ",") -> _Field:
    """Each string followed by `end`, as UTF-8 bytes back to back, and the
    byte length of each. The strings hold no `end` (ids pass
    `_check_plain_ids`), so it marks where each one ends."""
    data = np.frombuffer((end.join(strings) + end).encode(), np.uint8)
    return data, np.diff(np.flatnonzero(data == ord(end)), prepend=-1)


def _number_field(values: np.ndarray) -> _Field:
    """Each value as `_NUMBER` formats it, followed by ``\\n``.

    numpy rounds p = |v| * 10**FLOAT_DIGITS to the nearest integer n. If
    every n is below 9 * 10**FLOAT_DIGITS, each row is laid out in
    `_NUMBER_WIDTH` columns, starting at the sign for rows with
    `np.signbit` (so -0.0 and tiny negatives print "-0.0..."). The product
    is within p * 2**-53 of the exact one, so both round to n unless p
    lies that close to a half-integer; the band is doubled to cover the
    rounding of the distance itself. Python formats |v| for those rows
    into the same columns: below 9, neither rounding reaches 10. A block
    holding a non-finite value or a larger one is formatted by Python as
    a whole.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.abs(values) * _SCALE
        nearest = np.rint(scaled)
        if not (nearest < 9 * _SCALE).all():
            return _text_field(map(_NUMBER.format, values.tolist()), "\n")
    # n / _SCALE lies at least 1e-9 below the next integer, far beyond its
    # rounding error, so the whole part and the fraction are exact.
    whole = np.floor(nearest / _SCALE)
    fraction = (nearest - whole * _SCALE).astype(np.uint32)
    text = np.empty((values.size, _NUMBER_WIDTH), np.uint8)
    text[:, 0] = ord("-")
    text[:, 1] = whole + ord("0")
    text[:, 2] = ord(".")
    for col in range(_NUMBER_WIDTH - 2, 2, -1):
        quotient = fraction // 10
        text[:, col] = fraction - quotient * 10 + ord("0")
        fraction = quotient
    text[:, -1] = ord("\n")
    tie = np.flatnonzero(
        np.abs(np.abs(scaled - nearest) - 0.5) <= scaled * 2.0**-51
    )
    text[tie, 1:-1] = np.frombuffer(
        "".join(map(_NUMBER.format, np.abs(values[tie]).tolist())).encode(),
        np.uint8,
    ).reshape(-1, _NUMBER_WIDTH - 2)
    # The first column each row uses: the sign, or the digit after it.
    first = 1 - np.signbit(values)
    used = np.arange(_NUMBER_WIDTH) >= first[:, None]
    return text[used], _NUMBER_WIDTH - first


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
        return [_text_field(users), _text_field(items),
                _number_field(graph.edge_weight[rows])]

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
        return [_text_field(ids[rows]), _number_field(scores[rows])]

    _write_csv(path, header, len(ids), block_fields)
