"""Digital point constructions: van der Corput, Halton, matrix sequences, hybrids.

All generators emit exact digits, so downstream analysis (phases,
discrepancy grids) never touches floats.  Each config builds whole digit
columns for points 0..N-1 at once (`columns`), all by one digit recurrence
(`_digital_digits`; van der Corput and Halton use the identity matrix).  The
one-point generators they are tested against live in `reference`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .badic import DigitColumn, DigitVector, _block_rows, check_base, vb
from .systems import BADIC, WALSH

__all__ = [
    "DigitalConfig",
    "GeneratorMatrix",
    "HaltonConfig",
    "PointSet",
    "VdcConfig",
    "config_from_string",
    "generate_points",
    "hybrid_points",
]


@dataclass(frozen=True)
class GeneratorMatrix:
    """Square matrix over Z_b applied to digit columns; entries stored reduced mod b."""

    base: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        check_base(self.base)
        rows = tuple(tuple(int(e) % self.base for e in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        m = len(rows)
        if m == 0 or any(len(row) != m for row in rows):
            raise ValueError("generator matrix must be square and nonempty")

    @property
    def size(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, base: int, m: int) -> "GeneratorMatrix":
        return cls(base, tuple(tuple(1 if i == j else 0 for j in range(m)) for i in range(m)))

    @classmethod
    def random(cls, base: int, m: int, rng: random.Random) -> "GeneratorMatrix":
        return cls(base, tuple(tuple(rng.randrange(base) for _ in range(m)) for _ in range(m)))


class PointSet:
    """Finite list of s-dimensional points, stored as one digit column per coordinate.

    columns[i] is a DigitColumn: an N x P_i matrix of base-b_i digits (d_0
    first, zero past each point's digit count) plus the per-point counts,
    which keep stored trailing zeros.  Generation, point files, the cell
    histogram of `bounds` and the exact oracle work on these matrices.  `points` is the same set as
    one tuple of DigitVector per point; it is a view built on first access
    and cached, read by the scalar reference code and the benchmark's replay.
    """

    def __init__(self, columns: Sequence[DigitColumn], provenance: str = "") -> None:
        columns = tuple(columns)
        if not columns:
            raise ValueError("a point set needs at least one coordinate")
        if len({len(c) for c in columns}) != 1:
            raise ValueError("digit columns of different lengths")
        self.columns = columns
        self.bases = tuple(c.base for c in columns)
        self.provenance = provenance

    @property
    def s(self) -> int:
        return len(self.bases)

    @property
    def n_points(self) -> int:
        return len(self.columns[0])

    @cached_property
    def points(self) -> tuple[tuple[DigitVector, ...], ...]:
        return tuple(zip(*(c.vectors() for c in self.columns)))

    def __eq__(self, other: object) -> bool:
        """Same bases, provenance and digits; like DigitVector, trailing zeros do not count."""
        if not isinstance(other, PointSet):
            return NotImplemented
        if (self.bases, self.n_points, self.provenance) != (other.bases, other.n_points, other.provenance):
            return False
        for a, b in zip(self.columns, other.columns):
            width = min(a.digits.shape[1], b.digits.shape[1])
            if not np.array_equal(a.digits[:, :width], b.digits[:, :width]):
                return False
            if a.digits[:, width:].any() or b.digits[:, width:].any():
                return False
        return True

    def __repr__(self) -> str:
        return f"PointSet(bases={self.bases}, n_points={self.n_points}, provenance={self.provenance!r})"


@dataclass(frozen=True)
class VdcConfig:
    """One van der Corput coordinate."""

    base: int

    def __post_init__(self) -> None:
        check_base(self.base)

    @property
    def bases(self) -> tuple[int, ...]:
        return (self.base,)

    def columns(self, n_points: int) -> tuple[DigitColumn, ...]:
        return (_radical_inverses(self.base, n_points),)

    def describe(self) -> str:
        return f"vdc:{self.base}"


@dataclass(frozen=True)
class HaltonConfig:
    """One Halton coordinate per listed base."""

    halton_bases: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "halton_bases", tuple(self.halton_bases))
        if not self.halton_bases:
            raise ValueError("need at least one base")
        for b in self.halton_bases:
            check_base(b)

    @property
    def bases(self) -> tuple[int, ...]:
        return tuple(self.halton_bases)

    def columns(self, n_points: int) -> tuple[DigitColumn, ...]:
        return tuple(_radical_inverses(b, n_points) for b in self.halton_bases)

    def describe(self) -> str:
        return "halton:" + ",".join(str(b) for b in self.halton_bases)


@dataclass(frozen=True)
class DigitalConfig:
    """Matrix-generated coordinates sharing one base and precision."""

    base: int
    matrices: tuple[GeneratorMatrix, ...]
    label: str = ""

    def __post_init__(self) -> None:
        check_base(self.base)
        object.__setattr__(self, "matrices", tuple(self.matrices))
        if not self.matrices:
            raise ValueError("need at least one generator matrix")
        for mat in self.matrices:
            if mat.base != self.base:
                raise ValueError(f"matrix base {mat.base} does not match config base {self.base}")
            if mat.size != self.matrices[0].size:
                raise ValueError("generator matrices must share one size")

    @property
    def precision(self) -> int:
        return self.matrices[0].size

    @property
    def bases(self) -> tuple[int, ...]:
        return (self.base,) * len(self.matrices)

    def columns(self, n_points: int) -> tuple[DigitColumn, ...]:
        """All points, every coordinate with its m digits stored."""
        m = self.precision
        if n_points > self.base**m:
            raise ValueError(f"{m + 1} digits do not fit in precision {m}")
        counts = np.full(n_points, m, dtype=np.min_scalar_type(m))
        digits = _digital_digits(self.base, [C.rows for C in self.matrices], n_points)
        return tuple(DigitColumn(self.base, y, counts) for y in digits)

    def describe(self) -> str:
        return self.label or f"digital:{self.base},s={len(self.matrices)},m={self.precision}"


GeneratorConfig = VdcConfig | HaltonConfig | DigitalConfig

# Default digit precision for matrix sequences built from CLI strings.
DEFAULT_PRECISION = 32


def _digit_sums(steps: np.ndarray, base: int, count: int | None = None) -> np.ndarray:
    """Rows k < count (default b^m) of sum_j k_j steps[j], k_j the base-b digits of k, unreduced.

    Row a b^j + r is row r plus a steps[j]; doubling a keeps the scratch to one row.
    The rows take the dtype of steps."""
    total = base ** len(steps) if count is None else count
    rows = np.zeros((total, steps.shape[1]), dtype=steps.dtype)
    for j, shift in enumerate(steps):
        done, end = base**j, min(base ** (j + 1), total)
        while done < end:
            size = min(done, end - done)
            np.add(rows[:size], shift, out=rows[done : done + size])
            shift, done = shift * 2, done + size
    return rows


def _add_runs(lo: np.ndarray, hi: np.ndarray, run: int, first: int, out: np.ndarray) -> None:
    """Rows first, first + 1, ... of the table whose row k is lo[k % run] + hi[k // run], into out.

    Each run of `run` rows that out touches is one slice of lo plus one row of hi."""
    stop = first + len(out)
    for top in range(first // run, -(-stop // run)):
        a, b = max(first, top * run), min(stop, top * run + run)
        np.add(lo[a - top * run : b - top * run], hi[top], out=out[a - first : b - first])


def _digital_digits(base: int, matrices: Sequence, n_points: int) -> list[np.ndarray]:
    """Digits sum_j n_j C[:, j] mod b of the points n < n_points, for each of the m x m matrices C.

    n_j is digit j of n, below width, the digit count of n_points - 1.  Row a b^j + r is row r
    plus a C[:, j] (_digit_sums), run on the lo and hi halves of n's digits (_add_runs):
    each run of b^h points is one slice of the lo rows plus one hi row.  The sums, below width (b-1)
    times the columns' largest entry (1 for the identity), are reduced once per block in the smallest
    unsigned type that holds them and b, or as Python integers past 64 bits, so nothing overflows.
    """
    width, m = vb(n_points - 1, base), len(matrices[0])
    largest = max((int(e) for C in matrices for row in C for e in row[:width]), default=0)
    bound = max(width * (base - 1) * largest, base)
    work = np.min_scalar_type(bound) if bound < 2**64 else object
    # steps[j] is column j of every matrix: what digit j of n adds to each output digit
    steps = np.concatenate([np.array(C, dtype=work)[:, :width] for C in matrices]).T
    h = (width + 1) // 2
    run = base**h
    lo = _digit_sums(steps[:h], base, min(run, n_points))
    hi = _digit_sums(steps[h:], base, -(-n_points // run))
    out = [np.empty((n_points, m), dtype=np.min_scalar_type(base - 1)) for _ in matrices]
    step = _block_rows(np.dtype(work).itemsize * max(steps.shape[1], 1))
    buf = np.empty((min(step, n_points), steps.shape[1]), dtype=work)
    for start in range(0, n_points, step):
        rows = buf[: n_points - start]
        _add_runs(lo, hi, run, start, rows)
        rows %= base
        for i, y in enumerate(out):
            y[start : start + len(rows)] = rows[:, i * m : (i + 1) * m]
    return out


def _radical_inverses(base: int, n_points: int) -> DigitColumn:
    """Van der Corput points n < n_points, the identity's digital sequence, each with vb(n) digits:
    one point has none and b^j - b^(j-1) have j, for j up to the width (the last j up to n_points)."""
    width = vb(n_points - 1, base)
    (digits,) = _digital_digits(base, [np.eye(width, dtype=np.uint8)], n_points)
    sizes = np.diff([0, *(base**j for j in range(width)), n_points])
    counts = np.repeat(np.arange(width + 1, dtype=np.min_scalar_type(width)), sizes)
    return DigitColumn(base, digits, counts)


def generate_points(config: GeneratorConfig, n_points: int) -> PointSet:
    """First n_points points of a configured generator as a PointSet."""
    if n_points < 1:
        raise ValueError(f"need at least one point, got {n_points}")
    return PointSet(config.columns(n_points), config.describe())


def hybrid_points(
    tags: Sequence[str],
    walsh_part: GeneratorConfig | None,
    badic_part: GeneratorConfig | None,
    n_points: int,
) -> PointSet:
    """Interleave two generators along a tag pattern.

    WALSH-tagged coordinates are filled from walsh_part in order, BADIC-tagged
    ones from badic_part, so the bases follow from the parts.  Widths must
    match the tag counts exactly, and an absent part is allowed only when its
    tag does not occur.
    """
    if n_points < 1:
        raise ValueError(f"need at least one point, got {n_points}")
    parts = {WALSH: walsh_part, BADIC: badic_part}
    for tag in tags:
        if tag not in parts:
            raise ValueError(f"unknown tag {tag!r}, expected one of {tuple(parts)}")
    columns = {}
    for tag, part in parts.items():
        got, want = 0 if part is None else len(part.bases), tags.count(tag)
        if got != want:
            raise ValueError(f"{tag} part supplies {got} coordinates, tags need {want}")
        columns[tag] = iter(part.columns(n_points) if part is not None else ())
    prov = "hybrid[{}|{}]".format(
        walsh_part.describe() if walsh_part else "-",
        badic_part.describe() if badic_part else "-",
    )
    return PointSet([next(columns[tag]) for tag in tags], prov)


def config_from_string(text: str) -> GeneratorConfig:
    """Parse a generator description.

    Grammar: ``vdc:B`` | ``halton:B1,B2,...`` |
    ``digital:B[,s=S][,m=M][,seed=K|identity]`` (random matrices from the
    seed, identity matrices otherwise).  Each option may appear once, and
    seed and identity not together.
    """
    name, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(f"generator {text!r} missing ':' arguments")
    if name == "vdc":
        return VdcConfig(_parse_int(rest, text))
    if name == "halton":
        bases = tuple(_parse_int(p, text) for p in rest.split(","))
        return HaltonConfig(bases)
    if name == "digital":
        parts = rest.split(",")
        base = _parse_int(parts[0], text)
        s, m, seed, identity = 1, DEFAULT_PRECISION, None, False
        seen = set()
        for p in parts[1:]:
            key, eq, val = p.partition("=")
            if key in seen:
                raise ValueError(f"digital option {key!r} given twice in {text!r}")
            seen.add(key)
            if key == "identity" and not eq:
                identity = True
            elif key == "s" and eq:
                s = _parse_int(val, text)
            elif key == "m" and eq:
                m = _parse_int(val, text)
            elif key == "seed" and eq:
                seed = _parse_int(val, text)
            else:
                raise ValueError(f"unknown digital option {p!r} in {text!r}")
        if seed is not None and identity:
            raise ValueError(f"digital options seed and identity conflict in {text!r}")
        if seed is None:
            mats = tuple(GeneratorMatrix.identity(base, m) for _ in range(s))
        else:
            rng = random.Random(seed)
            mats = tuple(GeneratorMatrix.random(base, m, rng) for _ in range(s))
        return DigitalConfig(base, mats, label=text)
    raise ValueError(f"unknown generator {name!r} (expected vdc, halton or digital)")


def _parse_int(raw: str, context: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"bad integer {raw!r} in generator {context!r}") from None
