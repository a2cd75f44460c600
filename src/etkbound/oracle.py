"""Exact brute-force discrepancy of finite point sets.

The supremum over boxes is attained, or approached one-sidedly, at corners of
the critical grid built from the point coordinates, so both discrepancy
variants reduce to finite enumerations.  One engine runs both: it ranks the
points on every axis's grid straight from the digit columns, reads each box's
count at its corners in one cumulative table of the ranks, screens the
deviations in float64 block by block and re-evaluates every near-maximal
candidate in integer arithmetic, so the reported value is exact.  Each variant
refuses point sets past its fixed cap per dimension (_VARIANTS).  The oracle
reads only the points; verify.domination_sweep compares its value with the bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import repeat
from math import prod

import numpy as np

from .badic import EXTREME, STAR, CapExceededError, _block_rows
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


# A closure (dl, du) reads boxes with grid indices lo <= hi on each axis as the points of
# rank lo + dl <= rank < max(hi + du, lo + dl) (_ends): the clamp keeps an open thin box empty.
_HALF_OPEN, _CLOSED, _OPEN = (0, 0), (0, 1), (1, 0)


def _ends(grid, closure: tuple[int, int]) -> list[tuple[np.ndarray, np.ndarray]]:
    return [(lo + closure[0], np.maximum(hi + closure[1], lo + closure[0])) for lo, hi in grid]


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
    STAR: ({1: 4096, 2: 4096, 3: 64}, _star_boxes, (_HALF_OPEN, _CLOSED)),
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
    (u,v) counts, read from the cumulative rank table at the box's corners:
    |count/N - vol| is convex in the count and any mixed per-axis boundary
    choice lies between those two, so the pair of extremes dominates every
    boundary variant; both are one-sided limits of real boxes.  Pairs include
    u = v, where [u,u] is the limit of ever thinner boxes.
    """
    return _discrepancy_exact(points, EXTREME)


def _discrepancy_exact(points: PointSet, variant: str) -> DiscrepancyResult:
    """Enumerate the critical grid {0} + point values + {1} of every axis.

    Counts are exact integers read from the cumulative rank table (_tables);
    the float deviation screens candidates (_screen), which are then valued
    in integers (_revalue).
    """
    caps, boxes, closures = _VARIANTS[variant]
    s, n, cols = points.s, points.n_points, []
    if n < 1:
        raise ValueError("empty point set")
    if s not in caps:
        raise CapExceededError(f"{variant} oracle supports s <= {max(caps)}, got s = {s}")
    if n > caps[s]:
        raise CapExceededError(f"{n} points exceed the s={s} {variant} oracle cap of {caps[s]}")
    for col in points.columns:
        nums, r = col.value_ranks()
        scale = col.base ** col.digits.shape[1]
        shift = int(nums[0] != 0)
        grid = [0] * shift + nums + [scale]
        lo, hi = boxes(len(grid))
        at = np.array([x / scale for x in grid])
        cols.append((grid, r + shift, (lo, hi), at[hi] - at[lo]))
    grids, ranks, axes, widths = zip(*cols)
    found = _screen(ranks, [len(grid) for grid in grids], axes, widths, closures, variant == STAR)
    return _revalue(variant, n, grids, *found)


def _revalue(variant: str, n: int, grids, box_lo, box_hi, counts, half_open) -> DiscrepancyResult:
    """Value the screened boxes in integers: grid values are numerators over D_i = b_i^{P_i},
    so with D = prod D_i a box's deviation is |count D - N prod(hi - lo)| / (N D).  The witness
    is the first exact maximizer, in (closure, index) order, that a half-open box attains, else
    the first exact maximizer."""
    scale = prod(grid[-1] for grid in grids)
    top, tops = -1, []
    step = _block_rows(64 * (2 * len(grids) + 2))  # a candidate's Python ints and lists
    for start in range(0, len(counts), step):
        block = slice(start, start + step)
        listed = zip(counts[block].tolist(), box_lo[block].tolist(), box_hi[block].tolist())
        devs = [abs(c * scale - n * prod(g[b] - g[a] for g, a, b in zip(grids, lo, hi))) for c, lo, hi in listed]
        high = max(devs)
        if high > top:
            top, tops = high, []
        if high == top:
            tops.append(start + np.flatnonzero([d == top for d in devs]))
    tops = np.concatenate(tops)
    hits = tops[half_open[tops] == counts[tops]]
    attained = hits.size > 0
    k = hits[0] if attained else tops[0]
    witness = BoxWitness(
        lower=tuple(Fraction(grid[a], grid[-1]) for grid, a in zip(grids, box_lo[k])),
        upper=tuple(Fraction(grid[b], grid[-1]) for grid, b in zip(grids, box_hi[k])),
        closure="inner" if attained else "outer",
    )
    exact = Fraction(top, n * scale)
    return DiscrepancyResult(variant, float(exact), exact, witness, attained, len(counts), tops.size)


def _tables(ranks: list[np.ndarray], sizes: list[int], step: int):
    """Blocks (start, C[start : start + step + 1], float copy) of the cumulative rank table: C[a]
    counts the points of rank below a_i on every axis (0 <= a_i <= U_i on U_i grid points).
    Row a + 1 is row a plus, for each point of rank a on axis 0, ones above its other ranks."""
    ranks = np.stack(ranks)[:, np.argsort(ranks[0], kind="stable")]
    cuts = np.searchsorted(ranks[0], range(sizes[0] + 1))
    rows = np.zeros((1, *(u + 1 for u in sizes[1:])), dtype=np.int64)
    for start in range(0, sizes[0], step):
        rows = np.concatenate([rows[-1:], np.empty((min(step, sizes[0] - start), *rows.shape[1:]), np.int64)])
        for a in range(start, start + len(rows) - 1):
            rows[a + 1 - start] = rows[a - start]
            for p in range(cuts[a], cuts[a + 1]):
                rows[(a + 1 - start, *(slice(r + 1, None) for r in ranks[1:, p]))] += 1
        yield start, rows, rows.astype(float)  # the float copy is exact: counts stay far below 2^53


def _screen(ranks: list[np.ndarray], sizes: list[int], axes, widths: list[np.ndarray], closures, carried: bool):
    """Grid indices (boxes x axes), counts and half-open counts of the boxes
    whose float deviation |count/N - vol| lies within the slack of their
    closure's largest, in (closure, row-major) order.  The first axis's boxes
    go in blocks of about badic._BLOCK_BYTES of table rows, counts, volumes
    and masks.  Star (carried) builds the table's rows block by block, so a
    block's upper ends shift by its first row (its lower ends are 0, never
    read); extreme holds the whole table, at most 67^2 entries at its cap."""
    n, shape, across = len(ranks[0]), [len(lo) for lo, _ in axes], prod(len(lo) for lo, _ in axes[1:])
    step = _block_rows(25 * across + 32 * prod(u + 1 for u in sizes[1:]))  # 3 floats, a flag; 4 table rows
    scratch = np.empty((3, min(step, shape[0]), *shape[1:]))  # counts, lower ends' entries, volumes
    tables = _tables(ranks, sizes, step) if carried else repeat(next(_tables(ranks, sizes, sizes[0])))
    tops, found = [-np.inf] * len(closures), [[np.empty(0, dtype=np.int64)] * 4 for _ in closures]
    for start, (base, rows, screen) in zip(range(0, shape[0], step), tables):
        block = slice(start, start + step)
        grid = [(axes[0][0][block], axes[0][1][block] - base), *axes[1:]]
        *out, vols = scratch[:, : len(grid[0][0])]
        factors = [widths[0][block], *widths[1:]]
        np.multiply.outer(reduce(np.multiply.outer, factors[:-1], np.ones(())), factors[-1], out=vols)
        for c, closure in enumerate(closures):
            ends = _ends(grid, closure)
            dev = _counts(screen, ends, out)
            np.abs(np.subtract(np.divide(dev, n, out=dev), vols, out=dev), out=dev)
            tops[c] = max(tops[c], dev.max())
            keep = np.flatnonzero(dev >= tops[c] - DOMINATION_SLACK)
            if keep.size:  # else the running maximum stands, and so do the boxes kept
                j = np.unravel_index(keep, vols.shape)
                counts = [_corner_counts(rows, [(lo[i], up[i]) for (lo, up), i in zip(e, j)]) for e in (ends, grid)]
                new = (dev.reshape(-1)[keep], keep + start * across, *counts)
                kept = [np.concatenate(a) for a in zip(found[c], new)]
                found[c] = [a[kept[0] >= tops[c] - DOMINATION_SLACK] for a in kept]
    flat, *counts = (np.concatenate(a) for a in zip(*(kept[1:] for kept in found)))
    idx = np.unravel_index(flat, shape)
    return [np.stack([b[j] for b, j in zip(bs, idx)], axis=1) for bs in zip(*axes)] + counts


def _counts(rows: np.ndarray, ends, out) -> np.ndarray:
    """Points in every combination of the per-axis rank intervals: the table at
    the upper ends less the table at the lower ones, one axis at a time (inclusion-
    exclusion over 2^s corners).  The last axis's entries go to out, two arrays."""
    for axis, (low, up) in enumerate(ends):
        into = out if axis == len(ends) - 1 else (None, None)
        counts = rows.take(up, axis=axis, mode="clip", out=into[0])  # ends are in range: clip skips checks
        if low.any():  # the table is 0 at rank 0
            counts -= rows.take(low, axis=axis, mode="clip", out=into[1])
        rows = counts
    return rows


def _corner_counts(rows: np.ndarray, ends) -> np.ndarray:
    """Points in each listed box (entry k of every axis's interval), by inclusion-exclusion."""
    terms = [(1, ())]
    for low, up in ends:
        lower = [(-sign, at + (low,)) for sign, at in terms] if low.any() else []
        terms = [(sign, at + (up,)) for sign, at in terms] + lower
    return sum(sign * rows[at] for sign, at in terms)
