"""Fourier analysis of elementary intervals against the hybrid system.

Elints (anchored digit boxes prod_i [phi(c_i), phi(c_i) + b_i^{-g_i})) are
the sets the system functions are constant on, which makes every coefficient
here a finite exact-phase sum: the only floats are the final measures and
complex conversions.  The verify suites run what is here; the coefficients of
anchored intervals and digit boxes, step representations and the pointwise
indicator reconstruction are scalar references in `reference`.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .badic import DigitVector, delta_size, enumerate_delta, monna, radical_inverse, vb
from .systems import HybridSystemSpec, PhaseFraction, phase_counter_sum, xi_phase

__all__ = [
    "Elint",
    "elint_contains",
    "elint_fourier_coeff",
    "elint_partition",
    "fc_upper_bound",
    "partition_inner_product",
]


def _point_values(x: Sequence) -> tuple[Fraction, ...]:
    out = []
    for xi in x:
        out.append(monna(xi) if isinstance(xi, DigitVector) else Fraction(xi))
    return tuple(out)


@dataclass(frozen=True)
class Elint:
    """Elementary interval prod_i [phi_{b_i}(c_i), phi_{b_i}(c_i) + b_i^{-g_i})."""

    bases: tuple[int, ...]
    g: tuple[int, ...]
    c: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bases", tuple(self.bases))
        object.__setattr__(self, "g", tuple(self.g))
        object.__setattr__(self, "c", tuple(self.c))
        if not len(self.bases) == len(self.g) == len(self.c) or not self.bases:
            raise ValueError("bases, g and c must be nonempty and of equal length")
        for b, gi, ci in zip(self.bases, self.g, self.c):
            if gi < 0:
                raise ValueError(f"resolution components must be >= 0, got {gi}")
            if not 0 <= ci < b**gi:
                raise ValueError(f"anchor {ci} out of range for base {b}, resolution {gi}")

    @property
    def s(self) -> int:
        return len(self.bases)

    @property
    def lower(self) -> tuple[Fraction, ...]:
        return tuple(radical_inverse(ci, b) for ci, b in zip(self.c, self.bases))

    @property
    def widths(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(1, b**gi) for b, gi in zip(self.bases, self.g))

    @property
    def measure(self) -> Fraction:
        m = Fraction(1)
        for w in self.widths:
            m *= w
        return m

    def anchor_digits(self) -> tuple[DigitVector, ...]:
        """The lower corner as digit vectors (c_i's digits are phi(c_i)'s digits)."""
        return self._anchor

    @functools.cached_property
    def _anchor(self) -> tuple[DigitVector, ...]:
        return tuple(
            DigitVector.from_int(ci, b, gi) for ci, b, gi in zip(self.c, self.bases, self.g)
        )


def elint_contains(e: Elint, x: Sequence) -> bool:
    """Exact membership test; coordinates may be DigitVectors or Fractions."""
    values = _point_values(x)
    if len(values) != e.s:
        raise ValueError(f"expected {e.s} coordinates, got {len(values)}")
    for val, lo, w in zip(values, e.lower, e.widths):
        if not lo <= val < lo + w:
            return False
    return True


def elint_partition(bases: tuple[int, ...], g: tuple[int, ...]):
    """Stream the elints of resolution g; they tile the unit cube exactly once."""
    bases = tuple(bases)
    g = tuple(g)
    for c in enumerate_delta(bases, g):
        yield Elint(bases, g, c)


def _check_spec_matches(spec: HybridSystemSpec, bases: tuple[int, ...]) -> None:
    if spec.bases != tuple(bases):
        raise ValueError(f"system bases {spec.bases} do not match interval bases {tuple(bases)}")


def elint_fourier_coeff(e: Elint, k: tuple[int, ...], spec: HybridSystemSpec) -> complex:
    """Coefficient of the elint indicator against xi_k.

    Zero whenever some k_i has more than g_i digits; otherwise the function is
    constant on e and the coefficient is measure * conj(xi_k(lower corner)).
    """
    _check_spec_matches(spec, e.bases)
    if len(k) != e.s:
        raise ValueError(f"expected {e.s} index components, got {len(k)}")
    for ki, b, gi in zip(k, e.bases, e.g):
        if ki < 0:
            raise ValueError(f"expected a nonnegative index, got {ki}")
        if ki >= b**gi:
            return 0j
    phase = xi_phase(spec, tuple(k), e.anchor_digits())
    # int / int rounds correctly, so this is float(e.measure)
    measure = 1 / math.prod(b**gi for b, gi in zip(e.bases, e.g))
    return measure * phase.conjugate().to_complex()


def fc_upper_bound(k: int, base: int) -> float:
    """Bound |coeff of 1_[0,beta) at k| <= 1/(b^g sin(pi k_lead / b)), k >= 1."""
    if k < 1:
        raise ValueError(f"expected k >= 1, got {k}")
    g = vb(k, base)
    lead = k // base ** (g - 1)
    return 1.0 / (base**g * math.sin(math.pi * lead / base))


def partition_inner_product(
    spec: HybridSystemSpec,
    g: tuple[int, ...],
    k: tuple[int, ...],
    l: tuple[int, ...],
) -> complex:
    """Inner product of xi_k and conj(xi_l) as the exact sum over the resolution-g tiling.

    Both functions are constant on each cell, so the integral is a phase
    multiset sum scaled by the common cell measure; for k = l it is exactly 1
    and for k != l exactly 0 up to the final float conversion.
    """
    g = tuple(g)
    size = delta_size(spec.bases, g)
    for name, idx in (("k", tuple(k)), ("l", tuple(l))):
        if len(idx) != spec.s:
            raise ValueError(f"expected {spec.s} components in {name}, got {len(idx)}")
        for ki, b, gi in zip(idx, spec.bases, g):
            if not 0 <= ki < b**gi:
                raise ValueError(f"index {ki} outside the resolution-{gi} domain of base {b}")
    phases = []
    for e in elint_partition(spec.bases, g):
        anchor = e.anchor_digits()
        p, q = xi_phase(spec, tuple(k), anchor), xi_phase(spec, tuple(l), anchor)
        common = math.lcm(p.modulus, q.modulus)
        diff = p.numerator * (common // p.modulus) - q.numerator * (common // q.modulus)
        phases.append(PhaseFraction(diff, common))
    return phase_counter_sum(Counter(phases)) / size
