"""Exact brute-force discrepancy of finite point sets.

The supremum over boxes is attained, or approached one-sidedly, at corners of
the critical grid built from the point coordinates, so both discrepancy
variants reduce to finite enumerations.  One engine runs both: it ranks the
points on every axis's grid straight from the digit columns, counts each box
exactly, screens the deviations in float64 block by block and re-evaluates
every near-maximal candidate in integer arithmetic, so the reported value is
exact.  Each variant refuses point sets past its fixed cap per dimension
(_VARIANTS).  The oracle reads only the points; verify.domination_sweep
compares its value with the bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

import numpy as np

from .badic import _block_rows
from .bounds import EXTREME, STAR
from .sequences import PointSet

__all__ = [
    "DOMINATION_SLACK",
    "BoxWitness",
    "CapExceededError",
    "DiscrepancyResult",
    "extreme_discrepancy_exact",
    "star_discrepancy_exact",
]

# Float maxima are trusted only up to this slack; everything within it is
# re-checked exactly.  The same slack defines domination failure in
# verify.domination_sweep.
DOMINATION_SLACK = 1e-9


class CapExceededError(RuntimeError):
    """The point set is too large for exact enumeration at this dimension."""


@dataclass(frozen=True)
class BoxWitness:
    """Corner description of a maximizing box; closure tells inner evaluation
    ("inner", supremum attained) from one-sided limit ("outer")."""

    lower: tuple[Fraction, ...]
    upper: tuple[Fraction, ...]
    closure: str


@dataclass(frozen=True)
class DiscrepancyResult:
    """candidates counts the boxes re-valued exactly, ties the exact maximizers among them."""

    variant: str
    value: float
    exact: Fraction
    witness: BoxWitness
    attained: bool
    candidates: int
    ties: int


def _check_cap(points: PointSet, caps: dict[int, int], variant: str) -> None:
    s, n = points.s, points.n_points
    if n < 1:
        raise ValueError("empty point set")
    if s not in caps:
        raise CapExceededError(f"{variant} oracle supports s <= {max(caps)}, got s = {s}")
    if n > caps[s]:
        raise CapExceededError(f"{n} points exceed the s={s} {variant} oracle cap of {caps[s]}")


# A closure is the pair of comparisons (lo ? rank, rank ? hi) on grid indices.
_HALF_OPEN = (np.less_equal, np.less)
_CLOSED = (np.less_equal, np.less_equal)
_OPEN = (np.less, np.less)


def _star_boxes(size: int) -> tuple[np.ndarray, np.ndarray]:
    return np.zeros(size, dtype=np.int64), np.arange(size)


def _extreme_boxes(size: int) -> tuple[np.ndarray, np.ndarray]:
    # thin boxes lo == hi come after every proper pair, so that within a
    # closure a tied proper box stays the witness
    lo, hi = np.triu_indices(size, 1)
    return np.r_[lo, np.arange(size)], np.r_[hi, np.arange(size)]


# variant -> (point caps per dimension, per-axis boxes on a grid of a given
# size, closures in witness order)
_VARIANTS = {
    STAR: ({1: 256, 2: 256, 3: 64}, _star_boxes, (_HALF_OPEN, _CLOSED)),
    EXTREME: ({1: 64, 2: 64}, _extreme_boxes, (_CLOSED, _OPEN)),
}


def star_discrepancy_exact(points: PointSet) -> DiscrepancyResult:
    """Exact star discrepancy: anchored boxes [0, v).

    Per corner of the critical grid both the box [0,v) itself and the
    boundary-inclusive [0,v] (the limit from just above v) are evaluated.
    """
    return _discrepancy_exact(points, STAR)


def extreme_discrepancy_exact(points: PointSet) -> DiscrepancyResult:
    """Exact extreme discrepancy: arbitrary boxes [u, v).

    Grid-pair enumeration with, per box, the all-closed [u,v] and all-open
    (u,v) counts: |count/N - vol| is convex in the count and any mixed
    per-axis boundary choice lies between those two, so the pair of extremes
    dominates every boundary variant; both are one-sided limits of real boxes.
    Pairs include u = v, where [u,u] is the limit of ever thinner boxes.
    """
    return _discrepancy_exact(points, EXTREME)


def _discrepancy_exact(points: PointSet, variant: str) -> DiscrepancyResult:
    """Enumerate the critical grid {0} + point values + {1} of every axis.

    Counts are exact integers (sums of 0/1 products, exact in float64); the
    float deviation screens candidates, which are then valued in integers:
    grid values are numerators over D_i = b_i^{P_i}, so with D = prod D_i a
    box's deviation is |count D - N prod(hi - lo)| / (N D).  The witness is
    the first exact maximizer, in (closure, index) order, that a half-open
    box attains, else the first exact maximizer.
    """
    caps, boxes, closures = _VARIANTS[variant]
    _check_cap(points, caps, variant)
    n = points.n_points
    grids, ranks, axes, widths = [], [], [], []
    for col in points.columns:
        nums, r = col.value_ranks()
        scale = col.base ** col.digits.shape[1]
        shift = int(nums[0] != 0)
        grid = [0] * shift + nums + [scale]
        lo, hi = boxes(len(grid))
        at = np.array([x / scale for x in grid])
        grids.append(grid)
        ranks.append(r + shift)
        axes.append((lo, hi))
        widths.append(at[hi] - at[lo])
    found = []
    for closure in closures:
        box_lo, box_hi = _screen(ranks, axes, widths, closure)
        found.append((box_lo, box_hi, _box_counts(ranks, box_lo, box_hi, closure)))
    box_lo, box_hi, counts = (np.concatenate(parts) for parts in zip(*found))
    scale = prod(grid[-1] for grid in grids)
    top, tops = -1, []
    step = _block_rows(64 * (2 * len(grids) + 2))  # a candidate's Python ints and lists
    for start in range(0, len(counts), step):
        block = slice(start, start + step)
        devs = [
            abs(c * scale - n * prod(grid[b] - grid[a] for grid, a, b in zip(grids, row_lo, row_hi)))
            for c, row_lo, row_hi in zip(
                counts[block].tolist(), box_lo[block].tolist(), box_hi[block].tolist()
            )
        ]
        high = max(devs)
        if high > top:
            top, tops = high, []
        if high == top:
            tops.append(start + np.flatnonzero([d == top for d in devs]))
    tops = np.concatenate(tops)
    hits = tops[_box_counts(ranks, box_lo[tops], box_hi[tops], _HALF_OPEN) == counts[tops]]
    attained = hits.size > 0
    k = hits[0] if attained else tops[0]
    witness = BoxWitness(
        lower=tuple(Fraction(grid[a], grid[-1]) for grid, a in zip(grids, box_lo[k])),
        upper=tuple(Fraction(grid[b], grid[-1]) for grid, b in zip(grids, box_hi[k])),
        closure="inner" if attained else "outer",
    )
    exact = Fraction(top, n * scale)
    return DiscrepancyResult(variant, float(exact), exact, witness, attained, len(counts), tops.size)


def _screen(ranks: list[np.ndarray], axes, widths: list[np.ndarray], closure) -> tuple[np.ndarray, ...]:
    """Per-axis grid indices (boxes x axes) of the boxes whose float deviation
    |count/N - vol| in this closure lies within the slack of the largest.

    The first axis's boxes go in blocks of about badic._BLOCK_BYTES of counts,
    volumes and joint membership rows, keeping the entries near the running
    maximum; the other axes' membership rows are built once.  Candidates come
    out in row-major order, as from one whole count tensor.
    """
    n = len(ranks[0])
    shape = [len(lo) for lo, _ in axes]
    inner = prod(shape[1:])
    step = _block_rows(8 * (prod(shape[1:-1]) * n + 2 * inner))
    rest = [_members(r, lo, hi, closure) for r, (lo, hi) in zip(ranks[1:], axes[1:])]
    if rest:  # every block multiplies by the last axis's rows as floats
        rest[-1] = rest[-1].astype(np.float64)
    (lo0, hi0), top = axes[0], -np.inf
    flat, near = [], []
    for start in range(0, shape[0], step):
        block = slice(start, start + step)
        dev = _joint_counts([_members(ranks[0], lo0[block], hi0[block], closure), *rest])
        dev /= n
        vols = np.ones(())
        for w in (widths[0][block], *widths[1:]):
            vols = np.multiply.outer(vols, w)
        dev -= vols
        np.abs(dev, out=dev)
        top = max(top, dev.max())
        keep = np.flatnonzero(dev >= top - DOMINATION_SLACK)
        flat.append(keep + start * inner)
        near.append(dev.reshape(-1)[keep])
    flat, near = np.concatenate(flat), np.concatenate(near)
    idx = np.unravel_index(flat[near >= top - DOMINATION_SLACK], shape)
    box_lo = np.stack([lo[j] for (lo, _), j in zip(axes, idx)], axis=1)
    box_hi = np.stack([hi[j] for (_, hi), j in zip(axes, idx)], axis=1)
    return box_lo, box_hi


def _members(ranks: np.ndarray, lo: np.ndarray, hi: np.ndarray, closure) -> np.ndarray:
    """Boolean membership matrix (boxes x N) of the points' grid ranks in one closure."""
    lower, upper = closure
    return lower(lo[:, None], ranks[None, :]) & upper(ranks[None, :], hi[:, None])


def _box_counts(ranks: list[np.ndarray], box_lo: np.ndarray, box_hi: np.ndarray, closure):
    """Points in each listed box; row k of box_lo/box_hi holds box k's per-axis grid indices.

    Boxes are counted in chunks of about badic._BLOCK_BYTES of membership flags.
    """
    step = _block_rows(len(ranks) * len(ranks[0]))
    return np.concatenate([
        np.logical_and.reduce([
            _members(r, box_lo[k : k + step, i], box_hi[k : k + step, i], closure)
            for i, r in enumerate(ranks)
        ]).sum(axis=1)
        for k in range(0, len(box_lo), step)
    ])


def _joint_counts(members: list[np.ndarray]) -> np.ndarray:
    """Count tensor over every combination of per-axis boxes; the last axis's
    membership rows may come as float64 already."""
    n = members[0].shape[1]
    joint = np.ones((1, n), dtype=bool)
    for m in members[:-1]:
        joint = (joint[:, None, :] & m[None, :, :]).reshape(-1, n)
    counts = joint.astype(np.float64) @ members[-1].T.astype(np.float64, copy=False)
    return counts.reshape([len(m) for m in members])
