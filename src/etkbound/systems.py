"""Hybrid Walsh / b-adic function systems with exact rational phases.

Every system function here has modulus-one values e(phi) for an exact
rational phase phi, so evaluation is split in two: phase computation as an
integer numerator over b^v in lowest terms (always exact, no Fraction
objects) and a single conversion to complex at the end, so a sum that
groups the exact phases first (the references') can cancel exactly on a
full character sum instead of accumulating float noise.  The scalar
phases are the reference for phase_rows, the table over resolution-g cell
indices, whose phases over b^g are linear in the index digits: any block of
its rows is one integer product of those rows' digits with per-cell steps.
Only verify reads phase tables; the scalar phases stay here for the
point-by-point references and for perfbench, which times xi_phase.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .badic import DigitVector, _block_rows, check_base

__all__ = [
    "BADIC",
    "WALSH",
    "HybridSystemSpec",
    "PhaseFraction",
    "chi_phase",
    "phase_rows",
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


def phase_rows(cells: np.ndarray, base: int, tag: str, g: int, start: int, stop: int) -> np.ndarray:
    """Rows start .. stop - 1, shape (stop - start, N), of the integer phase table over b^g of N cells.

    `cells` holds N nonnegative integers c = sum_j d_j b^j, the points' resolution-g cells, on
    which every index below b^g is constant; only d_0 .. d_(g-1) are read, so c and c mod b^g
    give the same column.  Row k holds b^g times the phase of index k (walsh_phase or chi_phase,
    by tag) in every cell, in integers, so the table carries no rounding.

    Row k is sum_j k_j step_j mod b^g, step_j = d_j b^(g-1) (Walsh) or z_(j+1) b^(g-1-j)
    (b-adic, z_v = c mod b^v): per block of about badic._BLOCK_BYTES of index digits, one int64
    product of those digits with the steps, which numpy forms without BLAS, so exactly.
    """
    check_base(base)
    if tag not in _TAGS:
        raise ValueError(f"unknown tag {tag!r}, expected one of {_TAGS}")
    modulus = base**g
    if not 0 <= start <= stop <= modulus:
        raise ValueError(f"rows {start}..{stop} are not within the index box [0, {modulus}]")
    powers = base ** np.arange(g, dtype=np.int64)
    steps = cells % (base * powers[:, None])
    if tag == WALSH:
        steps -= steps % powers[:, None]
    steps *= powers[::-1, None]
    out = np.empty((stop - start, len(cells)), dtype=np.int64)
    size = _block_rows(8 * g)
    buf = np.empty((min(size, stop - start), g), dtype=np.int64)
    for first in range(start, stop, size):
        digits = buf[: stop - first]
        np.floor_divide(np.arange(first, first + len(digits))[:, None], powers, out=digits)
        digits %= base
        np.matmul(digits, steps, out=out[first - start : first - start + len(digits)])
    out %= modulus
    return out


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
