"""Weighted inequality machinery: weights, epsilon terms, exponential sums, bounds.

The headline entry point is etk_bound: discrepancy of a point set is at most
epsilon(g) plus the weighted sum of exponential-sum moduli over the punctured
index box.  The sums contract the joint histogram of the points' cells with
one exact integer phase table per coordinate and feed one exactly rounded
sum, so results are bit-reproducible; sums whose phases are balanced snap to
an exact zero instead of float noise.
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
    DigitColumn,
    _check_budget,
    check_base,
    vb,
)
from .sequences import PointSet
from .systems import (
    HybridSystemSpec,
    is_balanced,
    phase_counter_sum,
    phase_numerators,
    xi_phase,
)

__all__ = [
    "EXTREME",
    "STAR",
    "BoundReport",
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
    B = max |S_N| this dominates the bound for the same data.
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
    """Evaluate the weighted inequality over the punctured index box.

    Every xi_k in the box is constant on the resolution-g cells, so the sums
    are the joint histogram of the occupied cells contracted, axis by axis,
    with one phase table of b_i^{g_i} indices by U_i <= min(N, b_i^{g_i})
    cells: memory is O(|Delta| + sum_i b_i^{g_i} U_i), with no table over the
    N points.  Sums below _ZERO_SNAP whose exact integer phases are balanced
    snap to 0.0.  The weighted terms feed one exactly rounded sum, so the
    result is bit-reproducible and does not depend on per_index, whose rows
    run in mixed-radix lexicographic order (coordinate 1 slowest).  The
    budget caps |Delta| before anything is allocated, and the table entries
    sum_i b_i^{g_i} U_i after the cells are counted and before any table is
    built.
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
    _check_budget(spec.bases, g, budget, "index domain size")
    moduli = [b**gi for b, gi in zip(spec.bases, g)]
    eps = epsilon_term(spec.bases, g, star)

    cells, ranks = [], []
    for col, b, gi in zip(points.columns, spec.bases, g):
        width = min(gi, col.digits.shape[1])
        index = col.digits[:, :width].astype(np.int64) @ b ** np.arange(width, dtype=np.int64)
        cells_i, rank = np.unique(index, return_inverse=True)
        cells.append(cells_i)
        ranks.append(rank)
    occupied = [len(c) for c in cells]
    entries = sum(m * u for m, u in zip(moduli, occupied))
    if budget is not None and entries > budget:
        raise BudgetExceededError(f"phase tables of {entries} entries exceed budget {budget}")
    tables = [
        phase_numerators(DigitColumn.from_integers(c, b).digits, b, tag, gi)
        for c, (b, tag), gi in zip(cells, spec.coordinates, g)
    ]
    hist = np.bincount(np.ravel_multi_index(ranks, occupied), minlength=math.prod(occupied))
    sums = hist.reshape(occupied)
    # each step contracts cell axis 0 and appends index axis i, so the axes end in order
    for num, m in zip(tables, moduli):
        sums = np.tensordot(sums, np.exp(2j * np.pi * np.arange(m) / m)[num], axes=(0, 1))
    abs_sums = np.abs(sums / n)

    # re-test near-zero sums on exact integer phases, one residue per point (its cell's),
    # in the smallest signed type that holds a sum of s residues and the modulus itself
    common = math.lcm(*moduli)
    small = np.min_scalar_type(-1 - max(spec.s * (common - 1), common))
    scaled = [(num * (common // m)).astype(small) for num, m in zip(tables, moduli)]
    for k in zip(*np.nonzero(abs_sums < _ZERO_SNAP)):
        residues = sum(t[ki][rank] for t, ki, rank in zip(scaled, k, ranks))
        if is_balanced(residues, common):
            abs_sums[k] = 0.0
    abs_sums[(0,) * spec.s] = 0.0  # puncture the zero vector, whose sum is 1

    weight = rho_star if star else rho
    axis_weights = [np.array([weight(k, b) for k in range(m)]) for b, m in zip(spec.bases, moduli)]
    weights = math.prod(np.ix_(*axis_weights))
    terms = (weights * abs_sums).reshape(-1, moduli[-1])
    weighted = math.fsum(itertools.chain.from_iterable(row.tolist() for row in terms))
    rows = None
    if per_index:
        box = itertools.islice(itertools.product(*map(range, moduli)), 1, None)
        rows = tuple(zip(box, weights.ravel()[1:].tolist(), abs_sums.ravel()[1:].tolist()))
    return BoundReport(
        variant=variant,
        epsilon=eps,
        weighted_sum=weighted,
        total=eps + weighted,
        max_abs_sum=float(abs_sums.max()),
        per_index=rows,
    )
