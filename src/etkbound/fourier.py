"""Fourier analysis of elementary intervals against the hybrid system.

Elints (anchored digit boxes prod_i [phi(c_i), phi(c_i) + b_i^{-g_i})) are
the sets the system functions are constant on, which makes every coefficient
here a finite exact-phase sum: the only floats are the final measures and
complex conversions.  No command runs it: verify reads the same coefficients
off the phase tables, and tests hold them to elint_fourier_coeff.  It stays out
of `reference`, which builds on it, as perfbench's fourier.coeff_us times it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .badic import DigitVector, enumerate_delta
from .systems import HybridSystemSpec, xi_phase

__all__ = ["Elint", "elint_fourier_coeff", "elint_partition"]


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

    def anchor_digits(self) -> tuple[DigitVector, ...]:
        """The lower corner as digit vectors (c_i's digits are phi(c_i)'s digits)."""
        return self._anchor

    @functools.cached_property
    def _anchor(self) -> tuple[DigitVector, ...]:
        return tuple(
            DigitVector.from_int(ci, b, gi) for ci, b, gi in zip(self.c, self.bases, self.g)
        )


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
    # 1 / int rounds correctly: the volume prod b^(-g) of the interval, rounded once
    measure = 1 / math.prod(b**gi for b, gi in zip(e.bases, e.g))
    return measure * phase.conjugate().to_complex()
