"""Weighted inequality machinery: weights, epsilon terms, exponential sums, bounds.

The headline entry point is etk_bound: discrepancy of a point set is at most
epsilon(g) plus the weighted sum of exponential-sum moduli over the punctured
index box.  Sums are streamed in index order and reduced by one exactly
rounded sum, so results are bit-reproducible; per-coordinate phase tables are
exact integers, and sums whose phases form a full coset are snapped to an
exact zero instead of float noise.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .badic import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    check_base,
    delta_size,
    vb,
)
from .sequences import PointSet
from .systems import (
    HybridSystemSpec,
    is_full_coset,
    phase_counter_sum,
    phase_numerators,
    xi_phase,
)

__all__ = [
    "EXTREME",
    "STAR",
    "BoundReport",
    "ExpSumValue",
    "cb_constant",
    "corollary_bound",
    "epsilon_fraction",
    "epsilon_term",
    "etk_bound",
    "exp_sum",
    "rho",
    "rho_star",
    "rho_vec",
    "weight_sum",
]

EXTREME = "extreme"
STAR = "star"
_VARIANTS = (EXTREME, STAR)

# |S| below this is either exact cancellation or needs no weight anyway; the
# integer coset test decides which and snaps true zeros to 0.0.
_ZERO_SNAP = 1e-12


def _check_variant(variant: str) -> None:
    if variant not in _VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {_VARIANTS}")


def rho(k: int, base: int) -> float:
    """Weight of index k: 1 at k=0, else 2/(b^t sin(pi k_lead / b)) with t = vb(k)."""
    check_base(base)
    if k < 0:
        raise ValueError(f"expected a nonnegative index, got {k}")
    if k == 0:
        return 1.0
    t = vb(k, base)
    lead = k // base ** (t - 1)
    return 2.0 / (base**t * math.sin(math.pi * lead / base))


def rho_star(k: int, base: int) -> float:
    """Anchored-box weight: 1 at k=0, else rho(k)/2."""
    r = rho(k, base)
    return r if k == 0 else r / 2.0


def rho_vec(k: tuple[int, ...], bases: tuple[int, ...], star: bool = False) -> float:
    """Product weight over coordinates."""
    if len(k) != len(bases) or not bases:
        raise ValueError(f"index length {len(k)} does not match {len(bases)} bases")
    f = rho_star if star else rho
    out = 1.0
    for ki, b in zip(k, bases):
        out *= f(ki, b)
    return out


def epsilon_fraction(bases: tuple[int, ...], g: tuple[int, ...], star: bool = False) -> Fraction:
    """Exact truncation term: 1 - prod_i (1 - c b_i^{-g_i}), c = 1 (star) or 2."""
    bases = tuple(bases)
    g = tuple(g)
    if len(bases) != len(g) or not bases:
        raise ValueError(f"bases and g must be nonempty and match: {bases} vs {g}")
    for b in bases:
        check_base(b)
    for gi in g:
        if gi < 1:
            raise ValueError("resolution components must be >= 1")
    c = 1 if star else 2
    prod = Fraction(1)
    for b, gi in zip(bases, g):
        prod *= 1 - Fraction(c, b**gi)
    eps = 1 - prod
    # sanity anchor: the truncation term never exceeds c * s * max_i b_i^{-g_i}
    cap = c * len(bases) * max(Fraction(1, b**gi) for b, gi in zip(bases, g))
    if eps > cap:
        raise RuntimeError(f"epsilon {eps} exceeds its cap {cap}")
    return eps


def epsilon_term(bases: tuple[int, ...], g: tuple[int, ...], star: bool = False) -> float:
    return float(epsilon_fraction(bases, g, star))


def cb_constant(base: int) -> float:
    """C(b) = (1/b) sum_{a=1}^{b-1} 1/sin(pi a/b); bounded by (2/pi) ln b + 2/5."""
    check_base(base)
    return math.fsum(1.0 / math.sin(math.pi * a / base) for a in range(1, base)) / base


def weight_sum(bases: tuple[int, ...], g: tuple[int, ...], star: bool = False) -> float:
    """Closed form of the weight total over the full index box.

    sum over Delta_b(g) of the product weight equals prod_i (1 + c g_i C(b_i))
    with c = 1 for the anchored weights and 2 otherwise.
    """
    bases = tuple(bases)
    g = tuple(g)
    if len(bases) != len(g) or not bases:
        raise ValueError(f"bases and g must be nonempty and match: {bases} vs {g}")
    c = 1.0 if star else 2.0
    out = 1.0
    for b, gi in zip(bases, g):
        if gi < 0:
            raise ValueError(f"resolution components must be >= 0, got {gi}")
        out *= 1.0 + c * gi * cb_constant(b)
    return out


def corollary_bound(
    max_abs_sum: float, bases: tuple[int, ...], g: tuple[int, ...], variant: str = EXTREME
) -> float:
    """Closed-form bound: epsilon + B prod_i (c g_i ln b_i + 1), c = 2.43 or 1.22.

    B is any uniform upper bound on the exponential-sum moduli; with
    B = max |S_N| this dominates the streamed bound for the same data.
    """
    _check_variant(variant)
    if max_abs_sum < 0:
        raise ValueError(f"expected a nonnegative sum bound, got {max_abs_sum}")
    star = variant == STAR
    c = 1.22 if star else 2.43
    eps = epsilon_term(bases, g, star)
    out = 1.0
    for b, gi in zip(bases, g):
        out *= c * gi * math.log(b) + 1.0
    return eps + max_abs_sum * out


@dataclass(frozen=True)
class ExpSumValue:
    """Normalized exponential sum (1/N) sum_n xi_k(x_n); |value| <= 1."""

    value: complex
    n_points: int


def exp_sum(spec: HybridSystemSpec, k: tuple[int, ...], points: PointSet) -> ExpSumValue:
    """Exact-phase exponential sum of xi_k over a point set.

    Phases are grouped before conversion, so full character sums cancel to an
    exact complex zero; everything else is compensated float summation.
    """
    if points.bases != spec.bases:
        raise ValueError(f"point set bases {points.bases} do not match system {spec.bases}")
    n = points.n_points
    if n < 1:
        raise ValueError("empty point set")
    counter = Counter(xi_phase(spec, tuple(k), pt) for pt in points.points)
    return ExpSumValue(value=phase_counter_sum(counter) / n, n_points=n)


@dataclass(frozen=True)
class BoundReport:
    """Result of one bound evaluation: total = epsilon + weighted_sum."""

    variant: str
    epsilon: float
    weighted_sum: float
    total: float
    max_abs_sum: float
    per_index: tuple[tuple[tuple[int, ...], float, float], ...] | None = None


def etk_bound(
    spec: HybridSystemSpec,
    g: tuple[int, ...],
    points: PointSet,
    variant: str = EXTREME,
    *,
    per_index: bool = False,
    budget: int | None = DEFAULT_BUDGET,
) -> BoundReport:
    """Stream the weighted inequality over the punctured index box.

    The index stream runs in mixed-radix lexicographic order (coordinate 1
    slowest) and is never materialized; the weighted terms of each prefix row
    feed one exactly rounded sum, so the result is bit-reproducible and does
    not depend on per_index.  Memory is one row of b_s^{g_s} terms plus
    per-coordinate tables of b_i^{g_i} x N entries.  The budget caps both
    the index box |Delta| and the table entries N * sum_i b_i^{g_i}, and
    either check fails before anything is allocated.
    """
    _check_variant(variant)
    g = tuple(g)
    if len(g) != spec.s:
        raise ValueError(f"expected {spec.s} resolution components, got {len(g)}")
    for gi in g:
        if gi < 1:
            raise ValueError("resolution components must be >= 1")
    if points.bases != spec.bases:
        raise ValueError(f"point set bases {points.bases} do not match system {spec.bases}")
    n = points.n_points
    if n < 1:
        raise ValueError("empty point set")
    star = variant == STAR
    size = delta_size(spec.bases, g)
    if budget is not None and size > budget:
        raise BudgetExceededError(f"index domain size {size} exceeds budget {budget}")
    moduli = [b**gi for b, gi in zip(spec.bases, g)]
    cells = n * sum(moduli)
    if budget is not None and cells > budget:
        raise BudgetExceededError(f"phase tables of {cells} entries exceed budget {budget}")
    eps = epsilon_term(spec.bases, g, star)

    numerators = [
        phase_numerators(col.digits, b, tag, gi)
        for col, (b, tag), gi in zip(points.columns, spec.coordinates, g)
    ]
    values = [np.exp(2j * np.pi * num / m) for num, m in zip(numerators, moduli)]
    weights = [
        np.array([(rho_star if star else rho)(k, b) for k in range(m)])
        for b, m in zip(spec.bases, moduli)
    ]
    common = math.lcm(*moduli)
    scaled = [num * (common // m) for num, m in zip(numerators, moduli)]

    rows: list[tuple[tuple[int, ...], float, float]] = []
    max_abs = 0.0
    last = spec.s - 1

    def terms():
        nonlocal max_abs
        for prefix in itertools.product(*(range(m) for m in moduli[:-1])):
            base_row = np.ones(n, dtype=np.complex128)
            prefix_w = 1.0
            for i, p in enumerate(prefix):
                base_row *= values[i][p]
                prefix_w *= weights[i][p]
            s_vec = values[last] @ base_row / n
            abs_vec = np.abs(s_vec)
            near = np.nonzero(abs_vec < _ZERO_SNAP)[0]
            if near.size:
                pref_res = np.zeros(n, dtype=np.int64)
                for i, p in enumerate(prefix):
                    pref_res += scaled[i][p]
                for j in near:
                    if is_full_coset((pref_res + scaled[last][j]) % common, common):
                        abs_vec[j] = 0.0
            start = 1 if all(p == 0 for p in prefix) else 0  # puncture the zero vector
            # the last modulus is at least 2, so every row keeps a term
            max_abs = max(max_abs, float(abs_vec[start:].max()))
            if per_index:
                rows.extend(
                    (prefix + (j,), float(prefix_w * weights[last][j]), float(abs_vec[j]))
                    for j in range(start, len(abs_vec))
                )
            yield from (prefix_w * weights[last] * abs_vec)[start:].tolist()

    weighted = math.fsum(terms())
    return BoundReport(
        variant=variant,
        epsilon=eps,
        weighted_sum=weighted,
        total=eps + weighted,
        max_abs_sum=max_abs,
        per_index=tuple(rows) if per_index else None,
    )
