"""Scalar references: the paper's definitions evaluated one point or one index at a time.

Generators give one point as a tuple of DigitVector, exponential sums group
the exact phases of every point, and Fourier coefficients sum exact cells.
The column and table paths of the other modules compute the same things in
bulk; these functions are what they are tested against.  Only tests import
this module: no command runs it, and no other module of the package may
import it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, TextIO

from .badic import DigitColumn, DigitVector, check_base, enumerate_delta, int_digits, vb
from .fourier import Elint, _check_spec_matches, _point_values, elint_fourier_coeff, elint_partition
from .pointfile import parse_coordinate
from .sequences import GeneratorConfig, GeneratorMatrix, HaltonConfig, PointSet, VdcConfig
from .systems import (
    BADIC,
    HybridSystemSpec,
    chi_phase,
    phase_counter_sum,
    walsh_phase,
    xi_phase,
)

__all__ = [
    "BadicInterval",
    "anchored_fourier_coeff",
    "config_point",
    "digital_point",
    "exp_sum",
    "format_coordinate",
    "halton",
    "interval_fourier_coeff",
    "monna_pseudoinverse",
    "point_set",
    "point_set_from_values",
    "point_values",
    "read_point_set",
    "reconstruct_indicator",
    "step_representation",
    "van_der_corput",
    "xi_eval",
]

Point = Sequence[DigitVector]


# ---------------------------------------------------------------- digits


def monna_pseudoinverse(x: Fraction | int, base: int) -> DigitVector:
    """Regular (terminating) digit expansion of a b-adic rational x in [0,1).

    Accepts exactly the fractions a/b^m; the result uses the minimal precision
    m.  Anything else (x outside [0,1), or a reduced denominator with a prime
    factor not dividing b) is rejected with ValueError.
    """
    check_base(base)
    x = Fraction(x)
    if not 0 <= x < 1:
        raise ValueError(f"expected x in [0,1), got {x}")
    q = x.denominator
    while (g := math.gcd(q, base)) > 1:
        q //= g
    if q != 1:
        raise ValueError(f"{x} is not a base-{base} rational")
    power, m = 1, 0
    while power % x.denominator:
        power *= base
        m += 1
    scaled = x.numerator * (power // x.denominator)
    lsd = int_digits(scaled, base, m)
    return DigitVector(base, tuple(reversed(lsd)))


def format_coordinate(x: DigitVector) -> str:
    """One coordinate as the point-file writer spells it."""
    if x.base <= 10:
        return "0." + "".join(str(d) for d in x.digits)
    return "0." + "-".join(str(d) for d in x.digits)


# ---------------------------------------------------------------- generators


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


def config_point(config: GeneratorConfig, n: int) -> tuple[DigitVector, ...]:
    """Point n of a configured generator: the scalar twin of config.columns."""
    if isinstance(config, VdcConfig):
        return (van_der_corput(config.base, n),)
    if isinstance(config, HaltonConfig):
        return halton(config.halton_bases, n)
    return digital_point(config.matrices, config.base, n, config.precision)


# ---------------------------------------------------------------- point sets


def point_set(
    bases: Sequence[int], points: Sequence[Sequence[DigitVector]], provenance: str = ""
) -> PointSet:
    """PointSet from one tuple of DigitVector per point, the form of PointSet.points."""
    bases = tuple(bases)
    points = tuple(tuple(p) for p in points)
    for pt in points:
        if len(pt) != len(bases):
            raise ValueError(f"point of dimension {len(pt)} in a {len(bases)}-dim set")
    columns = [DigitColumn.from_vectors([pt[i] for pt in points], b) for i, b in enumerate(bases)]
    return PointSet(columns, provenance)


def point_set_from_values(
    bases: Sequence[int], values: Sequence[Sequence], provenance: str = ""
) -> PointSet:
    """Build from exact fractional coordinates via the regular digit expansion."""
    bases = tuple(bases)
    pts = tuple(
        tuple(monna_pseudoinverse(Fraction(v), b) for v, b in zip(row, bases)) for row in values
    )
    return point_set(bases, pts, provenance)


def read_point_set(fh: TextIO) -> PointSet:
    """A point file read one line at a time: the scalar twin of pointfile.read_point_set.

    Each line is stripped.  Blank lines are skipped, and so are '#' lines other
    than a #bases header, which may change the bases only before the first
    point, and a #generator line, whose text is the provenance.  A point line
    is split at single spaces, and each coordinate goes through
    parse_coordinate.  The first bad line raises, and its error names it.
    """
    bases: tuple[int, ...] | None = None
    provenance = ""
    points = []
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if line.startswith("#bases"):
            try:
                header = tuple(int(p) for p in line[len("#bases") :].strip().split(","))
                for b in header:
                    check_base(b)
            except ValueError:
                raise ValueError(f"line {lineno}: malformed #bases header {line!r}") from None
            if points and header != bases:
                raise ValueError(f"line {lineno}: #bases header changes the bases")
            bases = header
        elif line.startswith("#generator"):
            provenance = line[len("#generator") :].strip()
        elif line and not line.startswith("#"):
            if bases is None:
                raise ValueError(f"line {lineno}: points before the #bases header")
            parts = line.split(" ")
            if len(parts) != len(bases):
                raise ValueError(f"line {lineno}: {len(parts)} coordinates, expected {len(bases)}")
            try:
                points.append(tuple(parse_coordinate(p, b) for p, b in zip(parts, bases)))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
    if bases is None:
        raise ValueError("missing #bases header")
    if not points:
        raise ValueError("point file has no points")
    return point_set(bases, points, provenance)


def point_values(points: PointSet) -> tuple[tuple[Fraction, ...], ...]:
    """Every point's coordinates as exact fractions."""
    return tuple(tuple(xi.value for xi in pt) for pt in points.points)


# ---------------------------------------------------------------- phases and sums


def xi_eval(spec: HybridSystemSpec, k: tuple[int, ...], x: tuple[DigitVector, ...]) -> complex:
    """Value of the hybrid system function: one complex conversion of the exact phase."""
    return xi_phase(spec, k, x).to_complex()


def exp_sum(spec: HybridSystemSpec, k: tuple[int, ...], points: PointSet) -> complex:
    """Exact-phase exponential sum (1/N) sum_n xi_k(x_n) of one index; |value| <= 1.

    Phases are grouped before conversion, so full character sums cancel to an
    exact complex zero; everything else is compensated float summation.  This
    scalar path is the reference etk_bound is tested against.
    """
    if points.bases != spec.bases:
        raise ValueError(f"point set bases {points.bases} do not match system {spec.bases}")
    if points.n_points < 1:
        raise ValueError("empty point set")
    counter = Counter(xi_phase(spec, tuple(k), pt) for pt in points.points)
    return phase_counter_sum(counter) / points.n_points


# ---------------------------------------------------------------- Fourier


def step_representation(k: tuple[int, ...], spec: HybridSystemSpec) -> list[tuple[Elint, complex]]:
    """xi_k as a step function: its value on each elint of resolution vb(k_i).

    For k != 0 the listed values sum to zero (the function integrates to 0).
    """
    if len(k) != spec.s:
        raise ValueError(f"expected {spec.s} index components, got {len(k)}")
    g = tuple(vb(ki, b) for ki, b in zip(k, spec.bases))
    out = []
    for e in elint_partition(spec.bases, g):
        value = xi_phase(spec, tuple(k), e.anchor_digits()).to_complex()
        out.append((e, value))
    return out


@dataclass(frozen=True)
class BadicInterval:
    """Digit box prod_i [a_i b_i^{-g_i}, d_i b_i^{-g_i}) with 0 <= a_i < d_i <= b_i^{g_i}."""

    bases: tuple[int, ...]
    g: tuple[int, ...]
    bounds: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bases", tuple(self.bases))
        object.__setattr__(self, "g", tuple(self.g))
        object.__setattr__(self, "bounds", tuple((a, d) for a, d in self.bounds))
        if not len(self.bases) == len(self.g) == len(self.bounds) or not self.bases:
            raise ValueError("bases, g and bounds must be nonempty and of equal length")
        for b, gi, (a, d) in zip(self.bases, self.g, self.bounds):
            if gi < 0:
                raise ValueError(f"resolution components must be >= 0, got {gi}")
            if not 0 <= a < d <= b**gi:
                raise ValueError(f"bounds ({a},{d}) invalid for base {b}, resolution {gi}")

    @property
    def s(self) -> int:
        return len(self.bases)

    @property
    def measure(self) -> Fraction:
        m = Fraction(1)
        for b, gi, (a, d) in zip(self.bases, self.g, self.bounds):
            m *= Fraction(d - a, b**gi)
        return m

    def contains(self, x: Sequence) -> bool:
        values = _point_values(x)
        if len(values) != self.s:
            raise ValueError(f"expected {self.s} coordinates, got {len(values)}")
        for val, b, gi, (a, d) in zip(values, self.bases, self.g, self.bounds):
            scale = Fraction(1, b**gi)
            if not a * scale <= val < d * scale:
                return False
        return True


def _cell_value(j: int, k: int, base: int, v: int, tag: str) -> complex:
    """conj(xi_k) on the cell [j b^-v, (j+1) b^-v).

    The fraction digits of j b^-v are j's digits most significant first.
    """
    x = DigitVector(base, tuple(reversed(int_digits(j, base, v))))
    phase = walsh_phase(k, x, base) if tag != BADIC else chi_phase(k, x, base)
    return phase.conjugate().to_complex()


def anchored_fourier_coeff(beta: Fraction, k: int, base: int, tag: str) -> complex:
    """Coefficient of 1_[0,beta) against the scalar system function of index k.

    Exact summation over the cells of resolution vb(k) intersected with
    [0,beta): full cells contribute value * b^-v, the one cut cell its exact
    leftover length.  beta may be any rational in [0,1].
    """
    beta = Fraction(beta)
    if not 0 <= beta <= 1:
        raise ValueError(f"expected beta in [0,1], got {beta}")
    if k < 0:
        raise ValueError(f"expected a nonnegative index, got {k}")
    if k == 0:
        return complex(float(beta))
    v = vb(k, base)
    cells = base**v
    width = Fraction(1, cells)
    full = int(beta * cells)  # floor: number of complete cells below beta
    total = 0j
    for j in range(full):
        total += _cell_value(j, k, base, v, tag) * float(width)
    rest = beta - full * width
    if rest > 0:
        total += _cell_value(full, k, base, v, tag) * float(rest)
    return total


def interval_fourier_coeff(I: BadicInterval, k: tuple[int, ...], spec: HybridSystemSpec) -> complex:
    """Coefficient of the box indicator: product of per-coordinate coefficients.

    Each factor with k_i >= 1 is the difference of two anchored coefficients
    [0, d b^-g) minus [0, a b^-g); k outside the box's index domain gives 0.
    """
    _check_spec_matches(spec, I.bases)
    if len(k) != I.s:
        raise ValueError(f"expected {I.s} index components, got {len(k)}")
    for ki, b, gi in zip(k, I.bases, I.g):
        if ki < 0:
            raise ValueError(f"expected a nonnegative index, got {ki}")
        if ki >= b**gi:
            return 0j
    total = complex(1.0)
    for ki, b, gi, (a, d), (_, tag) in zip(k, I.bases, I.g, I.bounds, spec.coordinates):
        scale = Fraction(1, b**gi)
        if ki == 0:
            total *= float((d - a) * scale)
        else:
            total *= anchored_fourier_coeff(d * scale, ki, b, tag) - anchored_fourier_coeff(
                a * scale, ki, b, tag
            )
    return total


def reconstruct_indicator(e: Elint, spec: HybridSystemSpec, x: Point) -> float:
    """Pointwise sum of coeff(e,k) xi_k(x) over the full index box of resolution g.

    The truncated series is exact for elint indicators, so the return value is
    0 or 1 up to float summation noise.
    """
    _check_spec_matches(spec, e.bases)
    total = 0j
    for k in enumerate_delta(e.bases, e.g):
        coeff = elint_fourier_coeff(e, k, spec)
        total += coeff * xi_phase(spec, k, tuple(x)).to_complex()
    return total.real
