"""Weighted inequality machinery: weights, epsilon terms, exponential sums, bounds.

The headline entry point is etk_bound: discrepancy of a point set is at most
epsilon(g) plus the weighted sum of exponential-sum moduli over the punctured
index box.  cell_histogram counts the points' cells from their digit
columns in blocks of rows, and nothing after it reads the points: every sum
comes from one Walsh / b-adic transform of that histogram, digit by digit in
place, with no BLAS product, and they feed one exactly rounded sum, so
results are bit-reproducible; sums on base-2 Walsh axes come out exact, and
the others whose phases are balanced on the occupied cells snap to an exact
zero instead of float noise.  The one-index sum they are tested against is
reference.exp_sum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .badic import (
    DEFAULT_BUDGET,
    EXTREME,
    STAR,
    BudgetExceededError,
    DigitColumn,
    _block_rows,
    _check_budget,
    _check_domain,
    check_base,
    vb,
)
from .sequences import PointSet
from .systems import (
    BADIC,
    WALSH,
    HybridSystemSpec,
    PhaseTable,
    is_balanced,
)

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
    _check_domain(bases, g)
    if min(g) < 1:
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
    _check_domain(bases, g)
    c = 1.0 if star else 2.0
    out = 1.0
    for b, gi in zip(bases, g):
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
    among them and adds one to each joint rank in place (np.add.at), so no
    block allocates a histogram-sized temporary.  No array is N wide.
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
        joint = np.zeros(min(step, n - start), dtype=np.int64)
        for col, gi, cells_i in zip(columns, g, cells):
            index = _cell_index(col, gi, slice(start, start + step))
            joint *= len(cells_i)
            joint += np.searchsorted(cells_i, index)
        np.add.at(hist, joint, 1)
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


def _unit(numerators: np.ndarray, modulus: int) -> np.ndarray:
    """e(r / modulus) for each integer r, as the nearest quarter turn times e of the rest.

    The rest is at most an eighth of a turn and a quarter turn multiplies
    exactly, so quarter phases come out exact and the others within an ulp."""
    quarter = (4 * numerators + modulus // 2) // modulus
    rest = (4 * numerators - quarter * modulus) / (4 * modulus)
    return np.exp(2j * np.pi * rest) * np.array([1, 1j, -1, -1j])[quarter % 4]


def _chunks(view: np.ndarray, column_bytes: int) -> Iterator[np.ndarray]:
    """view, of shape (P, b, M), in blocks of about _BLOCK_BYTES at column_bytes of scratch per (p, m)."""
    rows, _, cols = view.shape
    step = _block_rows(column_bytes)
    if step >= cols:
        per = step // cols
        for p in range(0, rows, per):
            yield view[p : p + per]
    else:
        for p in range(rows):
            for m in range(0, cols, step):
                yield view[p : p + 1, :, m : m + step]


def _butterfly(view: np.ndarray, base: int, occupied: np.ndarray) -> None:
    """view[:, a] becomes the sum over d < b of view[:, d] e(a d / b), for every a < b, in place.

    view has shape (P, b, M), and is 0 at each digit d not in occupied.  In
    base 2 this adds and subtracts.  Otherwise each input at an occupied
    digit is multiplied by its roots e(a d / b) in turn, built once; they
    are exactly 1 at a = 0 and at d = 0, so slice 0 is a plain sum.
    """
    if base == 2:
        for block in _chunks(view, view.itemsize):
            low, high = block[:, 0], block[:, 1]
            diff = low - high
            low += high
            high[...] = diff
        return
    digits = np.flatnonzero(np.bincount(occupied, minlength=base))
    roots = _unit(np.multiply.outer(digits, np.arange(base)) % base, base)[:, :, None]
    for block in _chunks(view, 16 * (len(digits) + base)):
        inputs = block[:, digits, None]
        np.multiply(inputs[:, 0], roots[0], out=block)
        for i in range(1, len(digits)):
            block += inputs[:, i] * roots[i]


def _twiddle(view: np.ndarray, base: int, low: int) -> None:
    """Slice a >= 1 of view, of shape (P, b, low, R), times e(a z / (b low)) at its z < low, in place."""
    a = np.arange(1, base)[:, None]
    step = _block_rows(16 * (base - 1))
    for start in range(0, low, step):
        z = np.arange(start, min(start + step, low))
        view[:, 1:, start : start + step] *= _unit(a * z, base * low)[:, :, None]


def _transform(
    spec: HybridSystemSpec, g: tuple[int, ...], cells: list[np.ndarray], hist: np.ndarray, n: int
) -> np.ndarray:
    """|S_N(k)| over the index box: the histogram's Walsh / b-adic transform, in place in one box.

    The histogram is scattered into a box of shape (b_i^g_i), entry c the
    count of cell c.  Each axis then goes digit by digit, c = sum_j d_j b^j,
    from j = g_i - 1 down to 0: a b-point DFT along digit j turns d_j into
    k_j, and on a b-adic axis slice k_j = a then takes the twiddle
    e(a (c mod b^j) / b^(j+1)), whose lower digits are not yet transformed.
    Walsh phases are sum_j k_j d_j / b and b-adic ones sum_j k_j (c mod
    b^(j+1)) / b^(j+1), so index k lands at position k.  The box is float64
    when every axis is base-2 Walsh and complex otherwise; its slices with
    k_i = 0 see only additions, so a sum whose support is on base-2 Walsh
    axes is an exact integer over N.
    """
    moduli = [b**gi for b, gi in zip(spec.bases, g)]
    real = all(coordinate == (2, WALSH) for coordinate in spec.coordinates)
    box = np.zeros(moduli, dtype=np.float64 if real else np.complex128)
    box[np.ix_(*cells)] = hist
    for i, ((base, tag), gi, occupied) in enumerate(zip(spec.coordinates, g, cells)):
        after = math.prod(moduli[i + 1 :])
        for j in reversed(range(gi)):
            low = base**j
            _butterfly(box.reshape(-1, base, low * after), base, occupied // low % base)
            if tag == BADIC and j:
                _twiddle(box.reshape(-1, base, low, after), base, low)
    abs_sums = np.abs(box, out=box) if real else np.abs(box)
    del box
    abs_sums /= n
    return abs_sums


def _snap_exact_zeros(
    abs_sums: np.ndarray,
    spec: HybridSystemSpec,
    g: tuple[int, ...],
    cells: list[np.ndarray],
    hist: np.ndarray,
) -> None:
    """Set to 0.0 each sum below _ZERO_SNAP whose exact integer phases are balanced.

    A sum whose support (the axes with k_i != 0) lies on base-2 Walsh axes
    only is already exact, 0.0 or at least 1/N, so only the others are
    re-tested.  Row 0 of every table is 0, so k's phases depend only on the
    axes of its support: one residue per occupied cell of the int64
    histogram summed onto them, counted by its points, in the smallest
    signed type that holds a sum of s residues and the modulus itself.  Each
    support's occupied cells are found once.  Every axis is read alike: its
    PhaseTable is built once, so the re-test holds two half tables of
    b_i^ceil(g_i/2) and b_i^floor(g_i/2) rows of U_i int64 entries per axis,
    and each near-zero k reads one row of each axis of its support, unless
    that axis's index is the previous k's, whose residues it keeps.
    """
    near = abs_sums < _ZERO_SNAP
    # the ks with k_i = 0 on every axis that is not base-2 Walsh
    near[tuple(slice(None) if c == (2, WALSH) else 0 for c in spec.coordinates)] = False
    near = np.argwhere(near)
    if not len(near):
        return
    moduli = [b**gi for b, gi in zip(spec.bases, g)]
    common = math.lcm(*moduli)
    small = np.min_scalar_type(-1 - max(len(moduli) * (common - 1), common))
    tables = [PhaseTable(c, b, tag, gi) for c, (b, tag), gi in zip(cells, spec.coordinates, g)]
    # k runs in lexicographic order, so each axis keeps its last residues until its index changes
    lifted = [(0, None)] * len(tables)
    occupied = {}
    for k in near.tolist():
        support = tuple(i for i, ki in enumerate(k) if ki)
        if support not in occupied:
            marginal = hist.sum(axis=tuple(i for i, ki in enumerate(k) if not ki))
            ranks = np.nonzero(marginal)
            counts = marginal[ranks]
            # equal counts need no weighting, and deciding that once saves it on every k
            occupied[support] = ranks, None if np.all(counts == counts[0]) else counts
        ranks, counts = occupied[support]
        for i in support:
            if lifted[i][0] != k[i]:
                lifted[i] = k[i], (tables[i].row(k[i]) * (common // moduli[i])).astype(small)
        residues = sum(lifted[i][1][rank] for i, rank in zip(support, ranks))
        if is_balanced(residues, common, counts):
            abs_sums[tuple(k)] = 0.0


def _weight_axes(bases: tuple[int, ...], g: tuple[int, ...], star: bool) -> list[np.ndarray]:
    """Per axis, the weight factor of each index k_i < b_i^{g_i}."""
    weight = rho_star if star else rho
    axes = []
    for b, gi in zip(bases, g):
        # the weight depends only on vb(k) and k's leading digit: one call per run
        firsts = [0] + [a * b**v for v in range(gi) for a in range(1, b)]
        axes.append(np.repeat([weight(k, b) for k in firsts], np.diff(firsts + [b**gi])))
    return axes


def _weighted_sum(abs_sums: np.ndarray, axes: list[np.ndarray]) -> float:
    """The exactly rounded sum of weight times |S| over the box.

    A weight is the product of its axes' factors, multiplied from axis 0 on,
    as math.prod(np.ix_(*axes)) forms the whole array.  Each block forms only
    its own: single indices on the leading axes, a run of one axis and the
    later axes whole, about _BLOCK_BYTES as weights and a list of floats.
    """
    step = _block_rows(40)
    sizes = abs_sums.shape
    j = len(sizes)  # the axes from j on fit a block whole, and axis j - 1 goes in runs
    while j > 1 and math.prod(sizes[j - 1 :]) <= step:
        j -= 1
    run = step // math.prod(sizes[j:])
    index_sets = [[slice(p, p + 1) for p in range(size)] for size in sizes[: j - 1]]
    index_sets.append([slice(c, c + run) for c in range(0, sizes[j - 1], run)])

    def terms(index):
        weights = math.prod(np.ix_(*(ax[i] for ax, i in zip(axes, index)), *axes[j:]))
        weights *= abs_sums[index]
        return weights.ravel().tolist()

    return math.fsum(itertools.chain.from_iterable(map(terms, itertools.product(*index_sets))))


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
    cell_histogram nothing reads the points.  The sums are the transform of
    that histogram of the occupied cells, scattered into a box of
    prod_i b_i^{g_i} = |Delta| entries and transformed in place, one digit of
    one axis at a time (_transform), in chunks of about _BLOCK_BYTES of
    scratch.  The box is float64 when every axis is base-2 Walsh and complex
    otherwise, and |S| takes 8 bytes per index more, so memory is
    O(prod_i U_i + |Delta|) with U_i <= min(N, b_i^{g_i}) occupied cells per
    axis, at most 24 bytes per index past the histogram, plus one stage's
    roots of unity, at most U_i b_i, and no array over the N points.  A sum
    whose support (the axes with k_i != 0) lies on base-2 Walsh axes is an
    exact integer over N.  Any other sum below _ZERO_SNAP is re-tested on
    exact integer phases: one residue per occupied cell of the histogram
    summed onto k's support, counted by its points, and it snaps to 0.0 when
    is_balanced finds that multiset balanced, as it would the points' own;
    the re-test reads those residues from each axis's two half tables, one
    row per axis at a time, and builds no whole table.  Every step is
    elementwise and the weighted terms feed one exactly rounded sum, so the
    result is bit-reproducible, does not depend on the block size or on any
    BLAS, and does not depend on per_index, whose rows run in mixed-radix
    lexicographic order (coordinate 1 slowest).  The
    budget caps |Delta| before anything is allocated, and the table entries
    sum_i b_i^{g_i} U_i, more than the re-test's half tables hold, after the
    cells are counted and before any table is built.
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
    abs_sums = _transform(spec, g, cells, hist, n)
    _snap_exact_zeros(abs_sums, spec, g, cells, hist)
    abs_sums[(0,) * spec.s] = 0.0  # puncture the zero vector, whose sum is 1
    del hist
    axes = _weight_axes(spec.bases, g, star)
    weighted = _weighted_sum(abs_sums, axes)
    rows = None
    if per_index:
        weights = math.prod(np.ix_(*axes))
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
