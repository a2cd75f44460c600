"""Weighted inequality machinery: weights, epsilon terms, exponential sums, bounds.

The headline entry point is etk_bound: discrepancy of a point set is at most
epsilon(g) plus the weighted sum of exponential-sum moduli over the punctured
index box.  cell_histogram counts the points' cells from their digit
columns in blocks of rows, and nothing after it reads the points: the sums
contract that histogram with one exact integer phase table per coordinate,
the first coordinate's streamed in blocks of index rows, and feed one
exactly rounded sum, so results are bit-reproducible; sums whose phases are
balanced on the occupied cells snap to an exact zero instead of float noise.
The one-index sum they are tested against is reference.exp_sum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .badic import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    DigitColumn,
    _block_rows,
    _check_budget,
    check_base,
    vb,
)
from .sequences import PointSet
from .systems import HybridSystemSpec, is_balanced, phase_numerators, phase_row_blocks

__all__ = [
    "EXTREME",
    "STAR",
    "BoundReport",
    "cb_constant",
    "cell_histogram",
    "corollary_bound",
    "epsilon_fraction",
    "epsilon_term",
    "etk_bound",
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


def _cell_index(column: DigitColumn, g: int, rows: slice) -> np.ndarray:
    """Resolution-g cell of each row in rows: sum_{j<g} d_j b^j, by Horner in place."""
    digits = column.digits[rows]
    index = np.zeros(len(digits), dtype=np.int64)
    for j in reversed(range(min(g, digits.shape[1]))):
        index *= column.base
        index += digits[:, j]
    return index


def cell_histogram(
    columns: Sequence[DigitColumn], g: tuple[int, ...]
) -> tuple[list[np.ndarray], np.ndarray]:
    """Each axis's occupied resolution-g cells, and the joint histogram over them.

    Point n lies in cell sum_{j<g_i} d_j b_i^j of axis i, d_j its digits in
    that column (digits from g_i on are dropped, missing ones read as 0).
    cells[i] holds axis i's U_i occupied cells in increasing order, and
    hist[r_1, ..., r_s] counts the points in cells (cells[0][r_1], ...), so
    hist is an int64 array of shape (U_1, ..., U_s) summing to N.  Both
    passes run over blocks of rows: the first marks the cells each axis meets
    in a boolean of b_i^g_i entries, the second ranks each block's cells
    among them and adds its bincount.  No array is N wide.
    """
    n = len(columns[0])
    step = _block_rows(24)  # per row: a cell index, its rank and the joint rank, all int64
    seen = [np.zeros(col.base**gi, dtype=bool) for col, gi in zip(columns, g)]
    for start in range(0, n, step):
        for col, gi, mark in zip(columns, g, seen):
            mark[_cell_index(col, gi, slice(start, start + step))] = True
    cells = [np.flatnonzero(mark) for mark in seen]
    del seen
    shape = tuple(len(c) for c in cells)
    hist = np.zeros(math.prod(shape), dtype=np.int64)
    for start in range(0, n, step):
        joint = 0
        for col, gi, cells_i in zip(columns, g, cells):
            index = _cell_index(col, gi, slice(start, start + step))
            joint = joint * len(cells_i) + np.searchsorted(cells_i, index)
        hist += np.bincount(joint, minlength=hist.size)
    return cells, hist.reshape(shape)


@dataclass(frozen=True)
class BoundReport:
    """Result of one bound evaluation: total = epsilon + weighted_sum."""

    variant: str
    epsilon: float
    weighted_sum: float
    total: float
    max_abs_sum: float
    per_index: tuple[tuple[tuple[int, ...], float, float], ...] | None = None


def _row_blocks(total: int, row_bytes: int) -> list[range]:
    """Axis 0's index rows 0 .. total - 1 in blocks of about _BLOCK_BYTES of row_bytes rows each.

    NumPy multiplies a one-row block as a vector, whose rounding differs from
    the matrix product of the whole table, so every block has at least 2 rows
    and a lone trailing row joins the block before it (total is b^g >= 2).
    """
    step = max(2, _block_rows(row_bytes))
    starts = list(range(0, total, step))
    if total - starts[-1] == 1:
        starts.pop()
    return [range(a, b) for a, b in zip(starts, starts[1:] + [total])]


def _contract(
    spec: HybridSystemSpec, g: tuple[int, ...], cells: list[np.ndarray], hist: np.ndarray, n: int
) -> tuple[np.ndarray, list[range]]:
    """|S_N(k)| over the index box, and the blocks of axis 0's rows it was built in.

    hist is the complex histogram.  Axes 1 .. s-1 are looked up whole, as
    complex b_i^g_i by U_i tables; axis 0's phase rows come in blocks, each
    contracted with hist, then with the later axes, and dropped.
    """
    moduli = [b**gi for b, gi in zip(spec.bases, g)]
    units = [np.exp(2j * np.pi * np.arange(m) / m) for m in moduli]
    later = [
        unit[phase_numerators(c, b, tag, gi)]
        for unit, c, (b, tag), gi in zip(units[1:], cells[1:], spec.coordinates[1:], g[1:])
    ]
    # per row of axis 0: its int64 phases and their complex lookup, then one row of each product
    sizes = [len(c) for c in cells[1:]]
    products = [math.prod(moduli[1 : i + 1]) * math.prod(sizes[i:]) for i in range(len(sizes) + 1)]
    spans = _row_blocks(moduli[0], 24 * len(cells[0]) + 16 * sum(products))
    abs_sums = np.empty(moduli)
    tables = phase_row_blocks(cells[0], *spec.coordinates[0], g[0], spans)
    for rows in spans:
        # each step contracts cell axis 0 and appends index axis i, so the axes end in order
        sums = np.tensordot(hist, units[0][next(tables)], axes=(0, 1))
        for lookup in later:
            sums = np.tensordot(sums, lookup, axes=(0, 1))
        sums /= n
        np.abs(sums, out=abs_sums[rows.start : rows.stop])
    return abs_sums, spans


def _snap_exact_zeros(
    abs_sums: np.ndarray,
    spec: HybridSystemSpec,
    g: tuple[int, ...],
    cells: list[np.ndarray],
    hist: np.ndarray,
    spans: list[range],
) -> None:
    """Set to 0.0 each sum below _ZERO_SNAP whose exact integer phases are balanced.

    Row 0 of every table is 0, so k's phases depend only on the axes of its
    support (those with k_i != 0): one residue per occupied cell of the
    histogram summed onto them, counted by its points, in the smallest signed
    type that holds a sum of s residues and the modulus itself.  Each
    support's occupied cells are found once.  The histogram is complex, and
    its real parts are the exact counts.  The later axes' integer tables are
    built only here, and axis 0's rows again in the blocks that hold a
    near-zero k.
    """
    near = np.argwhere(abs_sums < _ZERO_SNAP)
    if not len(near):
        return
    moduli = [b**gi for b, gi in zip(spec.bases, g)]
    common = math.lcm(*moduli)
    small = np.min_scalar_type(-1 - max(len(moduli) * (common - 1), common))
    later = [
        phase_numerators(c, b, tag, gi) for c, (b, tag), gi in zip(cells[1:], spec.coordinates[1:], g[1:])
    ]
    # k runs in lexicographic order, so each block's near-zero ks are one run of near
    edges = np.searchsorted(near[:, 0], [(rows.start, rows.stop) for rows in spans]).tolist()
    hits = [(rows, lo, hi) for rows, (lo, hi) in zip(spans, edges) if lo < hi]
    firsts = phase_row_blocks(cells[0], *spec.coordinates[0], g[0], [rows for rows, _, _ in hits])
    occupied = {}
    for (rows, lo, hi), first in zip(hits, firsts):
        for k in near[lo:hi].tolist():
            support = tuple(i for i, ki in enumerate(k) if ki)
            if support not in occupied:
                marginal = hist.real.sum(axis=tuple(i for i, ki in enumerate(k) if not ki))
                ranks = np.nonzero(marginal)
                counts = marginal[ranks]
                # equal counts need no weighting, and deciding that once saves it on every k
                occupied[support] = ranks, None if np.all(counts == counts[0]) else counts
            ranks, counts = occupied[support]
            phases = [first[k[0] - rows.start], *(table[ki] for table, ki in zip(later, k[1:]))]
            residues = sum(
                (phases[i] * (common // moduli[i])).astype(small)[rank] for i, rank in zip(support, ranks)
            )
            if is_balanced(residues, common, counts):
                abs_sums[tuple(k)] = 0.0


def _weighted_sum(
    abs_sums: np.ndarray, bases: tuple[int, ...], g: tuple[int, ...], star: bool
) -> tuple[float, np.ndarray]:
    """The exactly rounded sum of weight times |S| over the box, and the weights."""
    weight = rho_star if star else rho
    axes = []
    for b, gi in zip(bases, g):
        # the weight depends only on vb(k) and k's leading digit: one call per run
        firsts = [0] + [a * b**v for v in range(gi) for a in range(1, b)]
        axes.append(np.repeat([weight(k, b) for k in firsts], np.diff(firsts + [b**gi])))
    weights = math.prod(np.ix_(*axes))
    # the terms in blocks, each about _BLOCK_BYTES as a list of floats
    flat_weights, flat_sums = weights.reshape(-1), abs_sums.reshape(-1)
    step = _block_rows(40)
    blocks = (
        (flat_weights[i : i + step] * flat_sums[i : i + step]).tolist()
        for i in range(0, flat_sums.size, step)
    )
    return math.fsum(itertools.chain.from_iterable(blocks)), weights


def etk_bound(
    spec: HybridSystemSpec,
    g: tuple[int, ...],
    points: PointSet,
    variant: str = EXTREME,
    *,
    per_index: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> BoundReport:
    """Evaluate the weighted inequality over the punctured index box.

    Every xi_k in the box is constant on the resolution-g cells, so after
    cell_histogram nothing reads the points.  The sums are that histogram of
    the occupied cells contracted, axis by axis, with one phase table of
    b_i^{g_i} indices by U_i <= min(N, b_i^{g_i}) cells.  Axis 0's table
    comes in blocks of index rows, about _BLOCK_BYTES of scratch each, that
    are contracted with the histogram and the later axes' whole tables and
    dropped, so memory is O(prod_i U_i + sum_{i>=1} b_i^{g_i} U_i + one block
    + |Delta|), with no array over the N points.  A sum below _ZERO_SNAP is
    re-tested on exact integer phases: one residue per occupied cell of the
    histogram summed onto k's support (the axes with k_i != 0), counted by
    its points, and it snaps to 0.0 when is_balanced finds that multiset
    balanced, as it would the points' own.  The weighted terms feed one
    exactly rounded sum, so the result is bit-reproducible on one BLAS with
    one thread count (how a threaded BLAS splits a product can move its last
    bits) and does not depend on per_index, whose rows run in mixed-radix
    lexicographic order (coordinate 1 slowest).  The budget caps |Delta|
    before anything is allocated, and the table entries sum_i b_i^{g_i} U_i
    after the cells are counted and before any table is built.
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

    cells, hist = cell_histogram(points.columns, g)
    entries = sum(m * len(c) for m, c in zip(moduli, cells))
    if entries > budget:
        raise BudgetExceededError(f"phase tables of {entries} entries exceed budget {budget}")
    hist = hist.astype(np.complex128)
    abs_sums, spans = _contract(spec, g, cells, hist, n)
    _snap_exact_zeros(abs_sums, spec, g, cells, hist, spans)
    abs_sums[(0,) * spec.s] = 0.0  # puncture the zero vector, whose sum is 1
    del hist
    weighted, weights = _weighted_sum(abs_sums, spec.bases, g, star)
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
