"""Plain-text point files with exact digit round-trips.

Layout: a ``#bases b_1,...,b_s`` header, an optional ``#generator`` comment
carrying provenance, then one point per line with single-space separated
coordinates.  A coordinate is ``0.`` followed by its digits most significant
first, concatenated for bases up to 10 and dash-separated above that
(``0.101`` is 5/8 in base 2).  Digits are ASCII decimal.  Digit strings are
written verbatim from the stored digits, so read(write(ps)) reproduces the
point set bit for bit, trailing zeros included.

Both directions work in blocks of about badic._BLOCK_BYTES of scratch, so
their memory beyond the point set and its text stays bounded whatever N, and
neither runs Python per line or per coordinate.  The writer renders every
character a block's rows could use into one uint8 array, dividing each digit
column in its own dtype by one power of ten at a time, and keeps the used
ones through one mask.  The reader turns a block of whole lines into one
array of character codes.  Line ends, words, blank and comment lines, arity,
the "0." prefixes, digit ranges and counts are all masks over it or positions
of its separators; only the few header lines are read one at a time, in line
order.  It keeps each block of a column as a digit matrix padded to the
block's widest row, with its counts, both in their final dtypes, and at the
end copies the blocks into one matrix per column, freeing each block once it
is copied.  parse_coordinate and reference.format_coordinate
are the per-coordinate reference, and reference.read_point_set the per-line
one; the reader words the error for its first bad line with parse_coordinate.
"""

from __future__ import annotations

from typing import TextIO

import numpy as np

from .badic import DigitColumn, DigitVector, _block_rows, _check_column_base, check_base
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


def _column_chars(
    base: int, digits: np.ndarray, counts: np.ndarray, chars: np.ndarray, keep: np.ndarray
) -> None:
    """Fill chars with every character some rows of a column could use, and keep with the used ones.

    Row n is "0." and then, per digit slot, a dash (bases above 10) and the
    digit's decimal text right-aligned in w = len(str(b-1)) characters.  The
    mask keeps "0.", the dashes between the first counts[n] digits, and those
    digits without leading zeros.  chars and keep are views of n rows by that
    many characters.  The digits are divided in their own dtype by one power
    of ten at a time, so no wider copy is made.
    """
    n, p = digits.shape
    w = len(str(base - 1))
    chars[:, :2] = _ZERO, ord(".")
    keep[:, :2] = True
    slots, kept = (a[:, 2:].reshape(n, p, w + (base > 10)) for a in (chars, keep))
    stored = np.arange(p) < counts[:, None]
    if base > 10:
        slots[:, :, 0] = ord("-")
        kept[:, :, 0] = stored & (np.arange(p) > 0)
    for t in range(w):
        place = digits.dtype.type(10 ** (w - 1 - t))
        d = digits // place
        if t:  # the leading place is a single decimal digit already
            d -= d // 10 * 10
        np.add(d, _ZERO, out=slots[:, :, t - w], casting="unsafe")
        kept[:, :, t - w] = stored if t == w - 1 else stored & (digits >= place)


def write_point_set(points: PointSet, fh: TextIO) -> None:
    fh.write("#bases " + ",".join(str(b) for b in points.bases) + "\n")
    if points.provenance:
        fh.write(f"#generator {points.provenance}\n")
    # characters a row could use, each coordinate followed by a space or the newline
    widths = [
        2 + col.digits.shape[1] * (len(str(col.base - 1)) + (col.base > 10)) for col in points.columns
    ]
    width = sum(widths) + points.s
    step = _block_rows(16 * width)
    for start in range(0, points.n_points, step):
        block = slice(start, start + step)
        n = len(points.columns[0].counts[block])
        chars = np.empty((n, width), dtype=np.uint8)
        keep = np.ones((n, width), dtype=bool)
        end = 0
        for col, w in zip(points.columns, widths):
            cut = slice(end, end + w)
            _column_chars(col.base, col.digits[block], col.counts[block], chars[:, cut], keep[:, cut])
            chars[:, end + w] = ord(" ")
            end += w + 1
        chars[:, -1] = ord("\n")
        fh.write(chars[keep].tobytes().decode("ascii"))


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


_NEWLINE, _SPACE, _DASH, _HASH, _DOT = map(ord, "\n -#.")
# a character outside ASCII reads as _WIDE_SPACE if it is whitespace, else as _WIDE
_WIDE_SPACE, _WIDE = 0x1C, 0x80


def _stripped(codes: np.ndarray) -> np.ndarray:
    """Which codes str.strip() removes: 9-13 and 28-32, the ASCII whitespace (_WIDE_SPACE is 28)."""
    return (codes - np.uint8(9) <= 4) | (codes - np.uint8(28) <= 4)


def _codes(text: str) -> np.ndarray:
    """One byte per character of text, ASCII as itself, so positions in the two agree."""
    if text.isascii():
        return np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    wide = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    codes = np.minimum(wide, _WIDE).astype(np.uint8)
    spaces = [c for c in np.unique(wide[wide > 127]).tolist() if chr(c).isspace()]
    codes[np.isin(wide, spaces)] = _WIDE_SPACE
    return codes


def _blocks(fh: TextIO, size: int):
    """The text of fh in blocks of whole lines, each ending in a newline: about size
    characters, or one line when that is longer."""
    pending: list[str] = []
    while chunk := fh.read(size):
        cut = chunk.rfind("\n") + 1
        if cut:
            yield "".join(pending) + chunk[:cut]
            pending = [chunk[cut:]]
        else:
            pending.append(chunk)
    if tail := "".join(pending):
        yield tail + "\n"


def _digits(codes: np.ndarray, inside: np.ndarray, base: int, body: np.ndarray, end: np.ndarray):
    """One column's flat digits, its digit counts and its bad rows, from the bodies
    codes[body[r]:end[r]] after the "0." of each row r, whose characters inside marks.

    A row is bad exactly when parse_coordinate rejects its body: a character
    that is not an ASCII digit (or dash, above base 10), an empty dash-separated
    part, or a digit of b or more.
    """
    rows = np.zeros(len(body), dtype=bool)

    def mark(positions):  # the rows whose bodies hold these positions
        rows[np.searchsorted(end, positions, side="right")] = True

    if base <= 10:
        flat = codes[inside] - np.uint8(_ZERO)  # anything but '0'..'9' wraps to 10 or more
        if (out := flat >= base).any():
            mark(np.flatnonzero(inside)[out])
        return flat, end - body, rows
    dash = np.flatnonzero(inside & (codes == _DASH))
    if (junk := inside & (codes - np.uint8(_ZERO) >= 10) & (codes != _DASH)).any():
        mark(np.flatnonzero(junk))
    full = end > body
    counts = full + np.bincount(np.searchsorted(end, dash, side="right"), minlength=len(body))
    # every part of every body: they tile the bodies between the dashes
    first = np.sort(np.concatenate([body[full], dash + 1]))
    last = np.sort(np.concatenate([dash, end[full]]))
    length = last - first
    # Horner over each part's last w characters, w those of b - 1; any more must be zeros
    w = len(str(base - 1))
    value = np.zeros(len(first), dtype=np.uint64)
    for t in range(w):
        d = np.where(length > t, codes[np.maximum(last - 1 - t, 0)] - np.uint8(_ZERO), 0)
        value += d * np.uint64(10**t)
    bad = (length == 0) | (value >= base)
    if (long := length > w).any():
        edges = np.column_stack([first[long], last[long] - w]).ravel()
        bad[long] |= np.logical_or.reduceat(codes != _ZERO, edges)[::2]
    mark(first[bad] - 1)
    return value.astype(np.min_scalar_type(base - 1)), counts, rows


def _block_column(flat: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A block's digit matrix, row r its next counts[r] flat digits zero-padded to
    the widest row, and its counts in the smallest dtype that holds that width."""
    width = int(counts.max(initial=0))
    counts = counts.astype(np.min_scalar_type(width))
    digits = np.zeros((len(counts), width), dtype=flat.dtype)
    # a mask from operands of one small dtype: int64 ones took 4 times its size
    digits[np.arange(width, dtype=counts.dtype) < counts[:, None]] = flat
    return digits, counts


def _stack(base: int, runs: list) -> DigitColumn:
    """One column from the digit matrices and counts of its runs of rows, in
    order; the list is emptied as they are copied, so each run is freed on the way."""
    rows = sum(len(counts) for _, counts in runs)
    width = max(digits.shape[1] for digits, _ in runs)
    column = np.zeros((rows, width), dtype=runs[0][0].dtype)
    counts = np.empty(rows, dtype=np.min_scalar_type(width))
    row = 0
    runs.reverse()
    while runs:
        digits, run_counts = runs.pop()
        column[row : row + len(digits), : digits.shape[1]] = digits
        counts[row : row + len(digits)] = run_counts
        row += len(digits)
    return DigitColumn(base, column, counts)


class _Reader:
    """A point file read a block of whole lines at a time.

    Each block is one array of character codes, and every test runs on masks
    and on the positions of its separators: the line ends, and the edges of
    its words (the runs of characters str.split() keeps).  A line's stripped
    text runs from its first word to its last; blank lines have no word and
    comment lines start with '#'.  The few header lines are read one at a time,
    in line order.  A point line is good when it has s words one space apart,
    so that they are its coordinates, and each is "0." and a body of digits.
    """

    def __init__(self) -> None:
        self.bases: tuple[int, ...] | None = None
        self.provenance = ""
        # per block with points, each column's (digit matrix, digit counts)
        self.blocks: list[list] = []
        self.lines = 0  # lines before the current block

    def feed(self, text: str) -> None:
        """Read one block; raise the error of its first bad line."""
        codes = _codes(text)
        ends = np.flatnonzero(codes == _NEWLINE)
        space = _stripped(codes)
        edges = np.flatnonzero(space[1:] != space[:-1]) + 1
        if not space[0]:
            edges = np.concatenate([[0], edges])
        starts, stops = edges[0::2], edges[1::2]  # the block ends in a newline, so every word stops
        line = np.searchsorted(ends, starts)
        first = np.searchsorted(line, np.arange(len(ends)))
        nwords = np.diff(first, append=len(starts))
        lead = np.zeros(len(ends), dtype=np.uint8)
        lead[nwords > 0] = codes[starts[first[nwords > 0]]]

        def line_text(i: int) -> str:  # stripped
            return text[starts[first[i]] : stops[first[i] + nwords[i] - 1]]

        points = np.flatnonzero((nwords > 0) & (lead != _HASH))
        seen = bool(self.blocks)
        error = None
        for h in np.flatnonzero(lead == _HASH).tolist():
            before = points.size > 0 and points[0] < h
            if before and self.bases is None:  # that point line's error comes first
                break
            header, lineno = line_text(h), self.lines + h + 1
            if header.startswith("#bases"):
                try:
                    bases = tuple(int(p) for p in header[len("#bases") :].strip().split(","))
                    for b in bases:
                        check_base(b)
                    if (seen or before) and bases != self.bases:
                        error = ValueError(f"line {lineno}: #bases header changes the bases")
                except ValueError:
                    error = ValueError(f"line {lineno}: malformed #bases header {header!r}")
                if error is not None:
                    points = points[points < h]
                    break
                self.bases = bases
            elif header.startswith("#generator"):
                self.provenance = header[len("#generator") :].strip()
        if points.size:
            if self.bases is None:
                raise ValueError(f"line {self.lines + points[0] + 1}: points before the #bases header")
            bad, columns = self._points(codes, points, line, nwords, starts, stops)
            if bad is not None:
                raise _line_error(self.lines + bad + 1, line_text(bad), self.bases)
            self.blocks.append(columns)
        if error is not None:
            raise error
        self.lines += len(ends)

    def _points(self, codes, points, line, nwords, starts, stops):
        """The first bad point line, or None and each column's digit matrix and counts."""
        for b in self.bases:
            _check_column_base(b)  # no digit column holds a base of 2^63 or more
        s = len(self.bases)
        chosen = np.zeros(len(nwords), dtype=bool)
        chosen[points] = True
        take = chosen[line]
        starts, stops, line = starts[take], stops[take], line[take]
        # bad: a line with other than s words, or two words not one space apart
        bad = chosen & (nwords != s)
        apart = (starts[1:] - stops[:-1] == 1) & (codes[stops[:-1]] == _SPACE)
        bad[line[1:][(line[1:] == line[:-1]) & ~apart]] = True
        first_bad = int(np.argmax(bad)) if bad.any() else len(nwords)
        # the lines before the first bad one have s words each: row r, column i is word r s + i
        good = line < first_bad
        begin, end = starts[good].reshape(-1, s), stops[good].reshape(-1, s)
        rows = points[points < first_bad]
        prefix = (end - begin >= 2) & (codes[begin] == _ZERO) & (codes[begin + 1] == _DOT)
        body = np.where(prefix, begin + 2, end)
        # label[p] = i + 1 for p in a body of column i, else 0: the block cut at
        # every body's edges, and each piece repeated
        edges = np.column_stack([body.ravel(), end.ravel()]).ravel()
        values = np.zeros(len(edges) + 1, dtype=np.min_scalar_type(s))
        values[1::2] = np.tile(np.arange(1, s + 1), len(body))
        label = np.repeat(values, np.diff(edges, prepend=0, append=len(codes)))
        wrong = ~prefix.all(axis=1)
        columns = []
        for i, b in enumerate(self.bases):
            flat, counts, out = _digits(codes, label == i + 1, b, body[:, i], end[:, i])
            wrong |= out
            columns.append(_block_column(flat, counts))
        if wrong.any():  # every row lies before the first line with bad words
            first_bad = int(rows[np.argmax(wrong)])
        if first_bad < len(nwords):  # the block is dropped, so no stored one holds a digit of b or more
            return first_bad, None
        return None, columns

    def result(self) -> PointSet:
        if self.bases is None:
            raise ValueError("missing #bases header")
        if not self.blocks:
            raise ValueError("point file has no points")
        by_column = [list(runs) for runs in zip(*self.blocks)]
        self.blocks.clear()
        columns = [_stack(b, runs) for b, runs in zip(self.bases, by_column)]
        return PointSet(columns, self.provenance)


def read_point_set(fh: TextIO) -> PointSet:
    reader = _Reader()
    # about 16 bytes of scratch per character: its codes and masks, and the positions of its words
    for text in _blocks(fh, _block_rows(16)):
        reader.feed(text)
    return reader.result()
