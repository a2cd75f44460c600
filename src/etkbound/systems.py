"""Hybrid Walsh / b-adic function systems with exact rational phases.

Every system function here has modulus-one values e(phi) for an exact
rational phase phi, so evaluation is split in two: phase computation as an
integer numerator over b^v in lowest terms (always exact, no Fraction
objects) and a single conversion to complex at the end, so a sum that
groups the exact phases first (the references') can cancel exactly on a
full character sum instead of accumulating float noise.  The scalar
phases are the reference for the table kernel over resolution-g cell
indices, whose phases over b^g are linear in the index digits, so it builds
no matrix of index digits: PhaseTable reads any row or block of rows from
two half tables built once, and phase_numerators is its one whole block.
Every command reads phases from that kernel alone; the scalar phases stay
here for the point-by-point references and for perfbench, which times
xi_phase.  The kernel's digit recurrence (_digit_sums, _add_runs) also
generates the points of every construction: van der Corput, Halton and
digital nets.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .badic import DigitVector, check_base

__all__ = [
    "BADIC",
    "WALSH",
    "HybridSystemSpec",
    "PhaseFraction",
    "PhaseTable",
    "chi_phase",
    "phase_numerators",
    "walsh_phase",
    "xi_phase",
]

WALSH = "walsh"
BADIC = "badic"
_TAGS = (WALSH, BADIC)

# e(a/4) for a = 0..3; quarter phases are the only ones whose cos/sin are
# exact floats, so they get snapped instead of rounded.
_QUARTER = {0: 1 + 0j, 1: 1j, 2: -1 + 0j, 3: -1j}


@dataclass(frozen=True)
class PhaseFraction:
    """Exact phase a/M reduced mod 1: 0 <= numerator < modulus, lowest terms."""

    numerator: int
    modulus: int

    def __post_init__(self) -> None:
        modulus = operator.index(self.modulus)
        if modulus < 1:
            raise ValueError(f"modulus must be positive, got {modulus}")
        numerator = operator.index(self.numerator) % modulus
        common = math.gcd(numerator, modulus)
        object.__setattr__(self, "numerator", numerator // common)
        object.__setattr__(self, "modulus", modulus // common)

    def conjugate(self) -> "PhaseFraction":
        return PhaseFraction(-self.numerator, self.modulus)

    def to_complex(self) -> complex:
        """e(a/M) = exp(2 pi i a/M)."""
        if self.modulus in (1, 2, 4):
            return _QUARTER[self.numerator * (4 // self.modulus)]
        t = 2.0 * math.pi * self.numerator / self.modulus
        return complex(math.cos(t), math.sin(t))


@dataclass(frozen=True)
class HybridSystemSpec:
    """Per-coordinate (base, tag) choices; tags may interleave arbitrarily."""

    coordinates: tuple[tuple[int, str], ...]

    def __post_init__(self) -> None:
        coords = tuple((b, t) for b, t in self.coordinates)
        object.__setattr__(self, "coordinates", coords)
        if not coords:
            raise ValueError("a system needs at least one coordinate")
        for b, tag in coords:
            check_base(b)
            if tag not in _TAGS:
                raise ValueError(f"unknown tag {tag!r}, expected one of {_TAGS}")

    @classmethod
    def single(cls, base: int, tag: str) -> "HybridSystemSpec":
        return cls(((base, tag),))

    @classmethod
    def from_tags(cls, bases: Iterable[int], tags: Iterable[str]) -> "HybridSystemSpec":
        bases = tuple(bases)
        tags = tuple(tags)
        if len(bases) != len(tags):
            raise ValueError(f"{len(bases)} bases vs {len(tags)} tags")
        return cls(tuple(zip(bases, tags)))

    @property
    def s(self) -> int:
        return len(self.coordinates)

    @functools.cached_property
    def bases(self) -> tuple[int, ...]:
        return tuple(b for b, _ in self.coordinates)

    @functools.cached_property
    def tags(self) -> tuple[str, ...]:
        return tuple(t for _, t in self.coordinates)


def _check_coordinate(k: int, x: DigitVector, base: int) -> None:
    check_base(base)
    if k < 0:
        raise ValueError(f"expected a nonnegative index, got {k}")
    if x.base != base:
        raise ValueError(f"base mismatch: digit vector is base {x.base}, system is base {base}")


def walsh_phase(k: int, x: DigitVector, base: int) -> PhaseFraction:
    """Phase of the k-th Walsh function at x: (sum_j k_j x_j)/b mod 1.

    Only digits j < vb(k) contribute, so the modulus divides b.
    """
    _check_coordinate(k, x, base)
    total = 0
    j = 0
    while k:
        k, kj = divmod(k, base)
        total += kj * x.digit(j)
        j += 1
    return PhaseFraction(total % base, base)


def chi_phase(k: int, z: DigitVector, base: int) -> PhaseFraction:
    """Phase of the k-th additive character at the b-adic integer z.

    phi_b(k) * (z_0 + z_1 b + ...) mod 1, reading only the first v = vb(k)
    digits: rev_v(k) z_v / b^v, with rev_v(k) = b^v phi_b(k) the digit
    reversal of k and z_v the integer of z's first v digits.  The b-adic
    system is the character system pulled back through the regular digit
    expansion, so this is also the phase of the k-th b-adic function at the
    point whose digit vector is z.
    """
    _check_coordinate(k, z, base)
    rev = v = 0
    while k:
        k, kj = divmod(k, base)
        rev = rev * base + kj
        v += 1
    return PhaseFraction(rev * z.as_integer(v), base**v)


def xi_phase(
    spec: HybridSystemSpec, k: tuple[int, ...], x: tuple[DigitVector, ...]
) -> PhaseFraction:
    """Total phase of the hybrid function: exact sum of per-coordinate phases.

    The numerators are added over the running lcm of their moduli.
    """
    if len(k) != spec.s or len(x) != spec.s:
        raise ValueError(f"expected {spec.s} coordinates, got k of {len(k)} and x of {len(x)}")
    total, modulus = 0, 1
    for ki, xi, (base, tag) in zip(k, x, spec.coordinates):
        phase = walsh_phase(ki, xi, base) if tag == WALSH else chi_phase(ki, xi, base)
        common = math.lcm(modulus, phase.modulus)
        total = total * (common // modulus) + phase.numerator * (common // phase.modulus)
        modulus = common
    return PhaseFraction(total, modulus)


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


class PhaseTable:
    """The integer phase table over modulus b^g of N cells, read by rows from two half tables.

    `cells` holds N nonnegative integers c = sum_j d_j b^j, of which only
    the digits d_0 .. d_(g-1) are read, so c and c mod b^g give the same
    column.  For a point with digits d_0, d_1, ... it is the point's
    resolution-g cell, on which every index below b^g is constant.  Row k of
    the table, of N entries, holds b^g times the phase of index k
    (walsh_phase or chi_phase, by tag) in every cell.  Integer arithmetic
    only, so the table carries no rounding.

    Row k is sum_j k_j step_j mod b^g, step_j = d_j b^(g-1) (Walsh) or z_(j+1) b^(g-1-j)
    (b-adic, z_v = c mod b^v the integer of the first v digits); the sums, below g b^(g+1),
    are reduced as they are read.  k splits as lo + b^h hi at half its digits,
    and the tables of the lo and the hi rows are built once: row k is
    lo[k % b^h] + hi[k // b^h], and a block of rows is its runs of b^h rows,
    one slice of the first plus one row of the second, as DigitalConfig.columns
    builds points.  At g = 1 the whole table is the lo table, reduced once,
    and rows are views of it.
    """

    def __init__(self, cells: np.ndarray, base: int, tag: str, g: int) -> None:
        check_base(base)
        if tag not in _TAGS:
            raise ValueError(f"unknown tag {tag!r}, expected one of {_TAGS}")
        self.modulus = base**g
        powers = base ** np.arange(g, dtype=np.int64)[:, None]
        steps = cells % (base * powers)
        if tag == WALSH:
            steps -= steps % powers
        steps *= powers[::-1]
        h = (g + 1) // 2
        self.run = base**h
        self.lo = _digit_sums(steps[:h], base)
        self.hi = _digit_sums(steps[h:], base) if h < g else None
        if self.hi is None:
            self.lo %= self.modulus

    def rows(self, start: int, stop: int) -> np.ndarray:
        """Rows start .. stop - 1, shape (stop - start, N), reduced in place."""
        if not 0 <= start <= stop <= self.modulus:
            raise ValueError(f"rows {start}..{stop} are not within the index box [0, {self.modulus}]")
        if self.hi is None:
            return self.lo[start:stop]
        out = np.empty((stop - start, self.lo.shape[1]), dtype=np.int64)
        _add_runs(self.lo, self.hi, self.run, start, out)
        out %= self.modulus
        return out


def phase_numerators(cells: np.ndarray, base: int, tag: str, g: int) -> np.ndarray:
    """The whole PhaseTable, shape (b^g, N)."""
    return PhaseTable(cells, base, tag, g).rows(0, base**g)


@functools.lru_cache(maxsize=256)
def _prime_steps(modulus: int) -> tuple[int, ...]:
    """M/p for each prime p dividing M: the steps of the rotations of prime order."""
    primes, m = [], modulus
    for p in range(2, math.isqrt(m) + 1):
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
    return tuple(modulus // p for p in primes + ([m] if m > 1 else []))
