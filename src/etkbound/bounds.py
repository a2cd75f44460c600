"""Weighted inequality machinery: weights, epsilon terms, exponential sums, bounds.

The headline entry point is etk_bound: discrepancy of a point set is at most
epsilon(g) plus the weighted sum of exponential-sum moduli over the punctured
index box.  cell_histogram counts the points straight into that box, in one
pass over blocks of rows of their digit columns, and nothing after it reads
the points: every sum comes from one Walsh / b-adic transform of those
counts, digit by digit in place, with no BLAS product, and they feed one
exactly rounded sum, so results are bit-reproducible; sums on base-2 Walsh
axes come out exact, and the other exact zeros, read off the transform's
Galois orbits, are 0.0 too.
The one-index sum they are tested against is reference.exp_sum.
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
from .systems import BADIC, WALSH, HybridSystemSpec, _prime_steps

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

# Bytes per entry that _unit holds, its result included: two int64 and two complex arrays.
_UNIT_BYTES = 48


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


def cell_histogram(
    columns: Sequence[DigitColumn], g: tuple[int, ...]
) -> tuple[list[np.ndarray], np.ndarray]:
    """Each axis's occupied resolution-g cells, and the count of points in every joint cell.

    Point n lies in cell c_i = sum_{j<g_i} d_j b_i^j of axis i, d_j its digits
    in that column (digits from g_i on are dropped, missing ones read as 0).
    cells[i] holds axis i's occupied cells in increasing order, and counts is
    an int64 array of prod_i b_i^g_i entries summing to N, entry c the points
    in joint cell c = (...(c_1 b_2^g_2 + c_2)...) b_s^g_s + c_s: the index
    box's histogram, in the box's order.  One pass over blocks of rows forms
    each row's joint cell in place, by Horner over the digits of every axis in
    turn, marks each axis's cell (the joint cell mod b_i^g_i once axis i is
    in) in a boolean of b_i^g_i entries, and adds one to each joint cell
    (np.add.at), so no block allocates a box-sized temporary.  No array is N
    wide.
    """
    n = len(columns[0])
    step = _block_rows(16)  # per row: the joint cell and one axis's cell, both int64
    seen = [np.zeros(col.base**gi, dtype=bool) for col, gi in zip(columns, g)]
    counts = np.zeros(math.prod(map(len, seen)), dtype=np.int64)
    for start in range(0, n, step):
        joint = np.zeros(min(step, n - start), dtype=np.int64)
        for col, gi, mark in zip(columns, g, seen):
            digits = col.digits[start : start + step]
            width = min(gi, digits.shape[1])
            joint *= col.base ** (gi - width)
            for j in reversed(range(width)):
                joint *= col.base
                joint += digits[:, j]
            mark[joint % len(mark)] = True
        np.add.at(counts, joint, 1)
    return [np.flatnonzero(mark) for mark in seen], counts


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
    rest = 4 * numerators
    quarter = (rest + modulus // 2) // modulus
    rest -= quarter * modulus
    out = 2j * np.pi * (rest / (4 * modulus))
    np.exp(out, out=out)
    quarter %= 4
    out *= np.array([1, 1j, -1, -1j])[quarter]
    return out


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
    digit is multiplied by its roots e(a d / b) in turn, read from one table
    of the b roots e(a / b) as unit[a d mod b]; they are exactly 1 at a = 0
    and at d = 0, so slice 0 is a plain sum.
    """
    if base == 2:
        for block in _chunks(view, view.itemsize):
            low, high = block[:, 0], block[:, 1]
            diff = low - high
            low += high
            high[...] = diff
        return
    digits, a = np.flatnonzero(np.bincount(occupied, minlength=base)), np.arange(base)
    unit = _unit(a, base)
    for block in _chunks(view, 16 * (len(digits) + base)):
        inputs = block[:, digits, None]
        np.multiply(inputs[:, 0], unit[digits[0] * a % base, None], out=block)
        for i in range(1, len(digits)):
            block += inputs[:, i] * unit[digits[i] * a % base, None]


def _twiddle(view: np.ndarray, base: int, low: int) -> None:
    """Slice a >= 1 of view, of shape (P, b, low, R), times e(a z / (b low)) at its z < low, in place."""
    a = np.arange(1, base)[:, None]
    step = _block_rows((8 + _UNIT_BYTES) * (base - 1))  # the numerators, and what _unit holds
    for start in range(0, low, step):
        z = np.arange(start, min(start + step, low))
        view[:, 1:, start : start + step] *= _unit(a * z, base * low)[:, :, None]


def _transform(spec: HybridSystemSpec, g: tuple[int, ...], columns: Sequence[DigitColumn]) -> np.ndarray:
    """N |S_N(k)| over the index box: the Walsh / b-adic transform of the points' cell counts, in place.

    cell_histogram's counts, entry c the points in cell c, become the box of
    shape (b_i^g_i): float64 in place, in blocks, when every axis is base-2
    Walsh, and complex otherwise, the counts dropped once copied.  Each axis
    then goes digit by digit, c = sum_j d_j b^j, from j = g_i - 1 down to 0:
    a b-point DFT along digit j turns d_j into k_j, and on a b-adic axis
    slice k_j = a then takes the twiddle e(a (c mod b^j) / b^(j+1)), whose
    lower digits are not yet transformed.  Walsh phases are sum_j k_j d_j / b
    and b-adic ones sum_j k_j (c mod b^(j+1)) / b^(j+1), so index k lands at
    position k.  The box's slices with k_i = 0 see only additions, so a sum
    whose support is on base-2 Walsh axes is an exact integer.  The exact
    zeros need the error on N |S| below 1/2, so past the bound sum_i g_i
    c_(b_i) u sqrt(|Delta|) ||h||_2 = 1/2 (u = 2^-53, ||h||_2^2 the counts'
    sum of squares, an exact integer summed in blocks) the call is refused.
    """
    cells, counts = cell_histogram(columns, g)
    moduli = [b**gi for b, gi in zip(spec.bases, g)]
    step = _block_rows(8)  # one int64 or float64 copy of a block of counts
    squares = sum(int(np.square(counts[a : a + step]).sum()) for a in range(0, counts.size, step))
    stages = sum(gi * _stage_constant(b) for b, gi in zip(spec.bases, g))
    error = stages * 2.0**-53 * math.sqrt(counts.size * squares)
    if error >= 0.5:
        raise BudgetExceededError(f"transform error bound {error:.3g} on N|S| is not below 1/2")
    real = all(coordinate == (2, WALSH) for coordinate in spec.coordinates)
    if real:
        box = counts.view(np.float64)
        for a in range(0, counts.size, step):
            box[a : a + step] = counts[a : a + step]
    else:
        box = counts.astype(np.complex128)
        del counts
    box = box.reshape(moduli)
    for i, ((base, tag), gi, occupied) in enumerate(zip(spec.coordinates, g, cells)):
        after = math.prod(moduli[i + 1 :])
        for j in reversed(range(gi)):
            low = base**j
            _butterfly(box.reshape(-1, base, low * after), base, occupied // low % base)
            if tag == BADIC and j:
                _twiddle(box.reshape(-1, base, low, after), base, low)
    return np.abs(box, out=box) if real else np.abs(box)


def _stage_constant(base: int) -> float:
    """c_b, in units of u, the relative 2-norm error one digit of a base-b axis adds: a root of _unit
    is within 4u, a complex product adds 2 sqrt(2) u (Higham 2002, Lemma 3.5) and a running sum
    of b terms sqrt(2) (b - 1) u of their moduli, at most sqrt(b) ||x||_2; over b outputs of norm
    sqrt(b) ||x||_2 that is (sqrt(2) (b + 1) + 4) sqrt(b) u, and a twiddle adds 4 + 2 sqrt(2)."""
    return (math.sqrt(2) * (base + 1) + 4) * math.sqrt(base) + 4 + 2 * math.sqrt(2)


def _unit_group(modulus: int) -> list[tuple[int, int]]:
    """(u, r) for each cyclic factor of the units mod L, of generator u and order r: -1 and 5 for
    2^e || L, and for an odd p^e a primitive root mod p^2, so mod p^e; each 1 mod the rest of L."""
    out = []
    for step in _prime_steps(modulus):
        p = q = modulus // step
        while modulus % (q * p) == 0:
            q *= p
        if p == 2:
            factors = [(q - 1, 2)] * (q > 2) + [(5, q // 4)] * (q > 4)
        else:
            root = next(a for a in range(2, p) if all(pow(a, e, p) != 1 for e in _prime_steps(p - 1)))
            factors = [(root + p * (pow(root, p - 1, p * p) == 1), q // p * (p - 1))]
        lift = modulus // q * pow(modulus // q, -1, q)  # 1 mod q and 0 mod the rest
        out += [(((u - 1) * lift + 1) % modulus, r) for u, r in factors]
    return out


def _orbit_zeros(abs_sums: np.ndarray, spec: HybridSystemSpec, g: tuple[int, ...]) -> None:
    """Set to 0.0 each N |S| whose whole Galois orbit reads below 1/2, in place.

    N S(k) is an algebraic integer of Q(zeta_L), L the lcm of the axis moduli
    (b Walsh, b^g b-adic), and zeta_L -> zeta_L^u maps it to N S(u.k), u
    multiplying each digit of a Walsh index and the digit reversal of a
    b-adic one.  A nonzero value has a nonzero integer norm, so a member of
    its orbit has modulus >= 1 (Washington 1997, Ch. 2).  Pass t of the
    pointer doubling over a cyclic factor of the units ANDs each candidate
    (below 1/2, not yet cleared) with its partner under u^(2^t), read in
    place, so a later pass's value ANDs more of the same orbit.  u
    multiplies on the boolean box of Walsh digits and reversed b-adic
    indices; candidates go in blocks, in the smallest type for its size.
    """
    shape, order, fine = [], [], []  # digit axes, their order with b-adic digits reversed, and u's moduli
    for (b, tag), gi in zip(spec.coordinates, g):
        axes = range(len(shape), len(shape) + gi)
        order += reversed(axes) if tag == BADIC else axes
        shape += [b] * gi
        fine += [b] * gi if tag == WALSH else [b**gi]
    modulus = math.lcm(*fine)
    if modulus <= 2:  # every phase is 0 or 1/2, and every sum an exact integer
        return
    zero = np.ascontiguousarray((abs_sums < 0.5).reshape(shape).transpose(order)).ravel()
    strides = [math.prod(fine[f + 1 :]) for f in range(len(fine))]
    step = _block_rows(48)  # per candidate: its index, its partner and a digit, with their scratch
    kind = np.min_scalar_type(zero.size)  # a candidate's flat index
    live = [(np.flatnonzero(zero[a : a + step]) + a).astype(kind) for a in range(0, zero.size, step)]
    for u, r in _unit_group(modulus):
        for _ in range((r - 1).bit_length()):
            moves = [(m, stride, u % m) for m, stride in zip(fine, strides) if u % m != 1]
            for i, block in enumerate(live):
                k = block.astype(np.int64)
                partner = k.copy()
                for m, stride, w in moves:
                    digit = k // stride % m
                    partner += (digit * w % m - digit) * stride
                zero[k] = zero[partner]
                live[i] = block[zero[k]]
            live = [block for block in live if len(block)]
            u = u * u % modulus
    for block in live:  # the survivors, through a view of abs_sums with the b-adic digits reversed
        abs_sums.reshape(shape).transpose(order)[np.unravel_index(block, shape)] = 0.0


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

    Every xi_k in the box is constant on the resolution-g cells, so the
    points enter only through their counts in those cells, which
    cell_histogram adds, in one pass, straight into an int64 box of
    prod_i b_i^{g_i} = |Delta| entries.  The sums are the transform of those
    counts in place, one digit of one axis at a time (_transform), in chunks
    of about _BLOCK_BYTES of scratch.  The box is float64, converted from the
    counts in place, when every axis is base-2 Walsh, and otherwise a complex
    copy of them, after which they are dropped; |S| takes 8 bytes per index
    more, so memory is at most 24 bytes per index, counts included, and no
    array over the N points.  A sum is 0.0 when every member of its Galois
    orbit has N |S| below 1/2 (_orbit_zeros), which needs the transform's
    error below 1/2: a call whose bound sum_i g_i c_(b_i) u sqrt(|Delta|)
    ||h||_2 on it (u = 2^-53, h the cell counts) reaches 1/2 is refused.  Every step is elementwise and the
    weighted terms feed one exactly rounded sum, so the result is
    bit-reproducible, does not depend on the block size or on any BLAS, and
    does not depend on per_index, whose rows run in mixed-radix
    lexicographic order (coordinate 1 slowest).  The budget caps |Delta|
    before anything is allocated.
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

    abs_sums = _transform(spec, g, points.columns)
    _orbit_zeros(abs_sums, spec, g)
    abs_sums /= n
    abs_sums[(0,) * spec.s] = 0.0  # puncture the zero vector, whose sum is 1
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
