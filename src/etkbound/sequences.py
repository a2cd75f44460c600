"""Digital point constructions: van der Corput, Halton, matrix sequences, hybrids.

All generators emit exact digits, so downstream analysis (phases,
discrepancy grids) never touches floats.  Each config builds whole digit
columns for points 0..N-1 at once (`columns`); its scalar `point(n)` and the
functions van_der_corput, halton and digital_point are the reference those
columns are tested against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .badic import DigitColumn, DigitVector, check_base, int_digits, monna_pseudoinverse
from .systems import BADIC, WALSH

__all__ = [
    "DigitalConfig",
    "GeneratorMatrix",
    "HaltonConfig",
    "PointSet",
    "VdcConfig",
    "config_from_string",
    "digital_point",
    "generate_points",
    "halton",
    "hybrid_points",
    "van_der_corput",
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

    def apply(self, digits: Sequence[int]) -> tuple[int, ...]:
        """Matrix-vector product mod b on a digit column of length size."""
        if len(digits) != self.size:
            raise ValueError(f"expected {self.size} digits, got {len(digits)}")
        return tuple(sum(r * d for r, d in zip(row, digits)) % self.base for row in self.rows)


def van_der_corput(base: int, n: int) -> DigitVector:
    """Point n of the van der Corput sequence: n's digits become fraction digits."""
    check_base(base)
    return DigitVector(base, int_digits(n, base))


def halton(bases: Sequence[int], n: int) -> tuple[DigitVector, ...]:
    """Point n of the Halton sequence: one van der Corput coordinate per base."""
    if not bases:
        raise ValueError("halton needs at least one base")
    return tuple(van_der_corput(b, n) for b in bases)


def digital_point(
    matrices: Sequence[GeneratorMatrix], base: int, n: int, m: int
) -> tuple[DigitVector, ...]:
    """Point n of the digital sequence y_i = C_i digits(n) mod b, no carries.

    All matrices share the base and precision m; n must fit in m digits.
    """
    check_base(base)
    if not matrices:
        raise ValueError("digital_point needs at least one generator matrix")
    for C in matrices:
        if C.base != base:
            raise ValueError(f"matrix base {C.base} does not match {base}")
        if C.size != m:
            raise ValueError(f"matrix size {C.size} does not match precision {m}")
    digits = int_digits(n, base, m)  # raises if n >= b^m
    return tuple(DigitVector(base, C.apply(digits)) for C in matrices)


class PointSet:
    """Finite list of s-dimensional points, stored as one digit column per coordinate.

    columns[i] is a DigitColumn: an N x P_i matrix of base-b_i digits (d_0
    first, zero past each point's digit count) plus the per-point counts,
    which keep stored trailing zeros.  Generation, point files, phase tables
    and the exact oracle work on these matrices.  `points` is the same set as
    one tuple of DigitVector per point; it is a view built on first access
    and cached, read by the scalar reference code.  The constructor
    takes that tuple form, from_columns the matrices.
    """

    def __init__(
        self,
        bases: Sequence[int],
        points: Sequence[Sequence[DigitVector]],
        provenance: str = "",
    ) -> None:
        bases = tuple(bases)
        points = tuple(tuple(p) for p in points)
        for pt in points:
            if len(pt) != len(bases):
                raise ValueError(f"point of dimension {len(pt)} in a {len(bases)}-dim set")
        columns = [
            DigitColumn.from_vectors([pt[i] for pt in points], b) for i, b in enumerate(bases)
        ]
        self._set(columns, provenance)
        self.__dict__["points"] = points

    @classmethod
    def from_columns(cls, columns: Sequence[DigitColumn], provenance: str = "") -> "PointSet":
        ps = cls.__new__(cls)
        ps._set(columns, provenance)
        return ps

    def _set(self, columns: Sequence[DigitColumn], provenance: str) -> None:
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
        if not isinstance(other, PointSet):
            return NotImplemented
        return (self.bases, self.points, self.provenance) == (
            other.bases,
            other.points,
            other.provenance,
        )

    def __repr__(self) -> str:
        return f"PointSet(bases={self.bases}, n_points={self.n_points}, provenance={self.provenance!r})"

    @classmethod
    def from_values(
        cls, bases: Sequence[int], values: Sequence[Sequence], provenance: str = ""
    ) -> "PointSet":
        """Build from exact fractional coordinates via the regular digit expansion."""
        bases = tuple(bases)
        pts = tuple(
            tuple(monna_pseudoinverse(Fraction(v), b) for v, b in zip(row, bases))
            for row in values
        )
        return cls(bases, pts, provenance)

    def values(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(xi.value for xi in pt) for pt in self.points)


@dataclass(frozen=True)
class VdcConfig:
    """One van der Corput coordinate."""

    base: int

    def __post_init__(self) -> None:
        check_base(self.base)

    @property
    def bases(self) -> tuple[int, ...]:
        return (self.base,)

    def point(self, n: int) -> tuple[DigitVector, ...]:
        return (van_der_corput(self.base, n),)

    def columns(self, n_points: int) -> tuple[DigitColumn, ...]:
        return (DigitColumn.from_integers(np.arange(n_points), self.base),)

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

    def point(self, n: int) -> tuple[DigitVector, ...]:
        return halton(self.halton_bases, n)

    def columns(self, n_points: int) -> tuple[DigitColumn, ...]:
        return tuple(DigitColumn.from_integers(np.arange(n_points), b) for b in self.halton_bases)

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

    def point(self, n: int) -> tuple[DigitVector, ...]:
        return digital_point(self.matrices, self.base, n, self.precision)

    def columns(self, n_points: int) -> tuple[DigitColumn, ...]:
        """All points as y_i = C_i digits(n) mod b, one matrix product per coordinate.

        The digits of n come from repeated division, never from powers of b,
        so no intermediate overflows; columns of digits(n) past vb(n_points-1)
        are zero and are left out of the product.
        """
        base, m = self.base, self.precision
        if n_points > base**m:
            raise ValueError(f"{m + 1} digits do not fit in precision {m}")
        digits = DigitColumn.from_integers(np.arange(n_points), base).digits
        width = digits.shape[1]
        # int64 holds every dot product of `width` digit pairs unless b is huge
        work = np.int64 if width * (base - 1) ** 2 < 2**63 else object
        digits = digits.astype(work)
        counts = np.full(n_points, m)
        return tuple(
            DigitColumn(base, digits @ np.array(C.rows, dtype=work)[:, :width].T % base, counts)
            for C in self.matrices
        )

    def describe(self) -> str:
        return self.label or f"digital:{self.base},s={len(self.matrices)},m={self.precision}"


GeneratorConfig = VdcConfig | HaltonConfig | DigitalConfig

# Default digit precision for matrix sequences built from CLI strings.
DEFAULT_PRECISION = 32


def generate_points(config: GeneratorConfig, n_points: int) -> PointSet:
    """First n_points points of a configured generator as a PointSet."""
    if n_points < 1:
        raise ValueError(f"need at least one point, got {n_points}")
    return PointSet.from_columns(config.columns(n_points), provenance=config.describe())


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
    return PointSet.from_columns([next(columns[tag]) for tag in tags], provenance=prov)


def config_from_string(text: str) -> GeneratorConfig:
    """Parse a generator description.

    Grammar: ``vdc:B`` | ``halton:B1,B2,...`` |
    ``digital:B[,s=S][,m=M][,seed=K|identity]`` (random matrices from the
    seed, identity matrices otherwise).
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
        for p in parts[1:]:
            key, eq, val = p.partition("=")
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
        if seed is None and not identity:
            identity = True
        if identity:
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
