"""Plain-text point files with exact digit round-trips.

Layout: a ``#bases b_1,...,b_s`` header, an optional ``#generator`` comment
carrying provenance, then one point per line with single-space separated
coordinates.  A coordinate is ``0.`` followed by its digits most significant
first, concatenated for bases up to 10 and dash-separated above that
(``0.101`` is 5/8 in base 2).  Digits are ASCII decimal.  Digit strings are
written verbatim from the stored digits, so read(write(ps)) reproduces the
point set bit for bit, trailing zeros included.

Both directions work on digit columns in blocks of rows of about
badic._BLOCK_BYTES of scratch, so their memory beyond the point set stays
bounded whatever N.  The writer renders every character of a block's rows in
one array per column.  The reader parses a block of lines a column at a time,
checking ranges and arity in bulk, keeps each column's flat digits and
counts, and builds each digit column once at the end.  parse_coordinate and
reference.format_coordinate are the per-coordinate reference; the reader also
uses parse_coordinate to word the error for the first bad line.
"""

from __future__ import annotations

from typing import Sequence, TextIO

import numpy as np

from .badic import DigitColumn, DigitVector, _block_rows, check_base
from .sequences import PointSet

__all__ = ["parse_coordinate", "read_point_set", "write_point_set"]

_ZERO = ord("0")


def _decimal(text: str) -> int:
    # int() alone would also take "+1", "1_0" and non-ASCII digits
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def parse_coordinate(text: str, base: int) -> DigitVector:
    if not text.startswith("0."):
        raise ValueError(f"coordinate {text!r} must start with '0.'")
    body = text[2:]
    if not body:
        return DigitVector(base, ())
    parts = body if base <= 10 else body.split("-")
    return DigitVector(base, tuple(map(_decimal, parts)))  # range checked by the constructor


def _column_chars(base: int, digits: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every character some rows of a column could use, and which ones they do use.

    Row n is "0." and then, per digit slot, a dash (bases above 10) and the
    digit's decimal text right-aligned in len(str(b-1)) characters.  The mask
    keeps "0.", the dashes between the first counts[n] digits, and those
    digits without leading zeros.
    """
    n, p = digits.shape
    place = 10 ** np.arange(len(str(base - 1)) - 1, -1, -1)
    d = digits.astype(np.int64)[:, :, None]
    chars = (d // place % 10 + _ZERO).astype(np.uint8)
    stored = np.arange(p) < counts[:, None]
    keep = ((d >= place) | (place == 1)) & stored[:, :, None]
    if base > 10:
        chars = np.concatenate([np.full((n, p, 1), ord("-"), dtype=np.uint8), chars], axis=2)
        dash = stored & (np.arange(p) > 0)
        keep = np.concatenate([dash[:, :, None], keep], axis=2)
    prefix = np.broadcast_to(np.array([_ZERO, ord(".")], dtype=np.uint8), (n, 2))
    chars = np.concatenate([prefix, chars.reshape(n, -1)], axis=1)
    keep = np.concatenate([np.ones((n, 2), dtype=bool), keep.reshape(n, -1)], axis=1)
    return chars, keep


def write_point_set(points: PointSet, fh: TextIO) -> None:
    fh.write("#bases " + ",".join(str(b) for b in points.bases) + "\n")
    if points.provenance:
        fh.write(f"#generator {points.provenance}\n")
    # characters a row could use; each takes about 16 bytes of scratch
    width = sum(
        3 + col.digits.shape[1] * (len(str(col.base - 1)) + (col.base > 10)) for col in points.columns
    )
    step = _block_rows(16 * width)
    for start in range(0, points.n_points, step):
        block = slice(start, start + step)
        chars, keep = [], []
        for i, col in enumerate(points.columns):
            c, k = _column_chars(col.base, col.digits[block], col.counts[block])
            sep = "\n" if i == points.s - 1 else " "
            chars += [c, np.full((len(c), 1), ord(sep), dtype=np.uint8)]
            keep += [k, np.ones((len(c), 1), dtype=bool)]
        text = np.concatenate(chars, axis=1)[np.concatenate(keep, axis=1)]
        fh.write(text.tobytes().decode("ascii"))


def _parse_column(tokens: Sequence[str], base: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All digits of a column in row order, the per-row digit counts, and the rows that fail.

    A row fails exactly when parse_coordinate rejects its token.
    """
    n = len(tokens)
    bad = np.fromiter((not t.startswith("0.") for t in tokens), dtype=bool, count=n)
    bodies = [t[2:] for t in tokens]
    if base <= 10:
        counts = np.fromiter(map(len, bodies), dtype=np.int64, count=n)
        # one byte per character; anything but '0'..'9' wraps to 10 or more
        raw = "".join(bodies).encode("latin-1", "replace")
        flat = np.frombuffer(raw, dtype=np.uint8) - np.uint8(_ZERO)
    else:
        counts = np.fromiter((b.count("-") + 1 if b else 0 for b in bodies), dtype=np.int64, count=n)
        joined = "-".join(filter(None, bodies))
        parts = joined.split("-") if joined else []
        # a part that is not a digit below b reads as b
        flat = np.fromiter(
            (min(int(p), base) if p.isascii() and p.isdigit() else base for p in parts),
            dtype=np.int64,
            count=len(parts),
        )
    out = flat >= base
    if out.any():
        bad[np.repeat(np.arange(n), counts)[out]] = True
    return flat, counts, bad


def _line_error(lineno: int, line: str, bases: tuple[int, ...]) -> Exception:
    """The error for a line the bulk parser rejected, worded by the reference parser."""
    parts = line.split(" ")
    if len(parts) != len(bases):
        return ValueError(f"line {lineno}: {len(parts)} coordinates, expected {len(bases)}")
    try:
        for p, b in zip(parts, bases):
            parse_coordinate(p, b)
    except ValueError as exc:
        return ValueError(f"line {lineno}: {exc}")
    return RuntimeError(f"line {lineno}: bulk and reference parsers disagree on {line!r}")


def _parse_block(rows: Sequence[str], linenos: Sequence[int], bases: tuple[int, ...]) -> list:
    """Each column's flat digits and digit counts for a block of point lines.

    Raises the error for the block's first bad line.
    """
    s = len(bases)
    arity = np.fromiter((row.count(" ") + 1 for row in rows), dtype=np.int64, count=len(rows))
    wrong = np.flatnonzero(arity != s)
    first_bad = int(wrong[0]) if wrong.size else len(rows)
    # every row before first_bad has s tokens, so column i is every s-th token
    tokens = " ".join(rows[:first_bad]).split(" ") if first_bad else []
    parsed = [_parse_column(tokens[i::s], b) for i, b in enumerate(bases)]
    for _, _, bad in parsed:
        if bad.any():
            first_bad = min(first_bad, int(np.argmax(bad)))
    if first_bad < len(rows):
        raise _line_error(linenos[first_bad], rows[first_bad], bases)
    return [(flat, counts) for flat, counts, _ in parsed]


def read_point_set(fh: TextIO) -> PointSet:
    bases: tuple[int, ...] | None = None
    provenance = ""
    rows: list[str] = []
    linenos: list[int] = []
    # per parsed block of rows, each column's (flat digits, counts)
    parts: list[list] = []
    # scratch of the pending rows, about 8 bytes per character with 16
    # characters per coordinate for the strings' own overhead
    size, limit = 0, _block_rows(8)
    # an error on a header line, reported unless a point line before it is bad
    header_error: ValueError | None = None
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith("#bases"):
                try:
                    header = tuple(int(p) for p in line[len("#bases") :].strip().split(","))
                    for b in header:
                        check_base(b)
                except ValueError:
                    header_error = ValueError(f"line {lineno}: malformed #bases header {line!r}")
                    break
                if (rows or parts) and header != bases:
                    header_error = ValueError(f"line {lineno}: #bases header changes the bases")
                    break
                bases = header
            elif line.startswith("#generator"):
                provenance = line[len("#generator") :].strip()
            continue
        if bases is None:
            raise ValueError(f"line {lineno}: points before the #bases header")
        rows.append(line)
        linenos.append(lineno)
        size += len(line) + 16 * len(bases)
        if size >= limit:
            parts.append(_parse_block(rows, linenos, bases))
            rows, linenos, size = [], [], 0
    if rows:
        parts.append(_parse_block(rows, linenos, bases))
    if header_error is not None:
        raise header_error
    if bases is None:
        raise ValueError("missing #bases header")
    if not parts:
        raise ValueError("point file has no points")
    by_column = list(zip(*parts))
    parts.clear()
    columns = []
    for b in bases:
        # popping drops the column's pieces before its digit matrix is built
        flat, counts = map(np.concatenate, zip(*by_column.pop(0)))
        columns.append(DigitColumn.from_flat(b, flat, counts))
    return PointSet(columns, provenance)
