"""Weights, truncation terms, exponential sums, and the streamed bound."""

import ast
import functools
import itertools
import math
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from etkbound import badic, bounds
from etkbound.badic import BudgetExceededError, DigitColumn, DigitVector, delta_size, enumerate_delta
from etkbound.bounds import (
    EXTREME,
    STAR,
    cb_constant,
    cell_histogram,
    corollary_bound,
    epsilon_fraction,
    epsilon_term,
    etk_bound,
    rho,
    rho_star,
    rho_vec,
    weight_sum,
)
from etkbound.reference import exp_sum, point_set
from etkbound.sequences import (
    HaltonConfig,
    PointSet,
    VdcConfig,
    config_from_string,
    generate_points,
    hybrid_points,
)
from etkbound.systems import BADIC, WALSH, HybridSystemSpec, phase_rows


def test_rho_values():
    assert rho(0, 2) == 1.0
    assert rho(1, 2) == 1.0  # 2/(2 sin(pi/2))
    assert abs(rho(2, 2) - 0.5) < 1e-15
    assert abs(rho(3, 2) - 0.5) < 1e-15
    # base 3, k=5: level 2, lead digit 1
    assert abs(rho(5, 3) - 2.0 / (9 * math.sin(math.pi / 3))) < 1e-15


def test_rho_star_is_half_except_at_zero():
    assert rho_star(0, 3) == 1.0
    for k in range(1, 30):
        assert rho_star(k, 3) == rho(k, 3) / 2.0


def test_rho_vec_is_product():
    bases = (2, 3)
    for k in enumerate_delta(bases, (2, 2)):
        want = rho(k[0], 2) * rho(k[1], 3)
        assert abs(rho_vec(k, bases) - want) < 1e-15
        assert abs(rho_vec(k, bases, star=True) - rho_star(k[0], 2) * rho_star(k[1], 3)) < 1e-15


def test_epsilon_fraction_exact_values():
    assert epsilon_fraction((2,), (3,)) == Fraction(1, 4)  # 1 - (1 - 2/8)
    assert epsilon_fraction((2,), (3,), star=True) == Fraction(1, 8)
    # two coordinates: 1 - (1 - 2/4)(1 - 2/9)
    assert epsilon_fraction((2, 3), (2, 2)) == 1 - Fraction(1, 2) * Fraction(7, 9)


def test_epsilon_requires_positive_resolution():
    """The one rule epsilon adds to the domain check: weight_sum takes g_i = 0."""
    with pytest.raises(ValueError) as exc:
        epsilon_fraction((2, 3), (1, 0))
    assert str(exc.value) == "resolution components must be >= 1"
    assert weight_sum((2, 3), (1, 0)) == 2.0


@pytest.mark.parametrize(
    "bases, g, message",
    [
        ((2, 3), (1,), "bases and g must be nonempty and match: (2, 3) vs (1,)"),
        ((2, 3), (1, -1), "resolution components must be >= 0, got -1"),
        ((2, 1), (1, 1), "base must be an integer >= 2, got 1"),
    ],
)
def test_weight_sum_and_epsilon_check_bases_and_g_alike(bases, g, message):
    """Both check the domain as delta_size does."""
    for fn in (weight_sum, epsilon_fraction, delta_size):
        with pytest.raises(ValueError) as exc:
            fn(bases, g)
        assert str(exc.value) == message


def test_epsilon_term_is_float_of_fraction():
    assert epsilon_term((3,), (2,), star=True) == float(Fraction(1, 9))


def test_epsilon_truncation_cap_exact():
    """epsilon <= 2 s delta and the star version <= s delta, as fractions."""
    for bases, g in [((2,), (1,)), ((2, 3), (2, 1)), ((2, 3, 5), (3, 2, 1)), ((5, 5), (2, 2))]:
        s = len(bases)
        delta = max(Fraction(1, b**gi) for b, gi in zip(bases, g))
        assert epsilon_fraction(bases, g) <= 2 * s * delta
        assert epsilon_fraction(bases, g, star=True) <= s * delta


def test_cb_constant_values():
    assert cb_constant(2) == 0.5
    # (1/3)(1/sin(pi/3) + 1/sin(2pi/3)) = 4/(3 sqrt 3)
    assert abs(cb_constant(3) - 4.0 / (3 * math.sqrt(3.0))) < 1e-15


def test_weight_sum_matches_explicit_enumeration():
    for bases, g in [((2,), (3,)), ((3,), (2,)), ((2, 3), (2, 2))]:
        for star in (False, True):
            explicit = math.fsum(rho_vec(k, bases, star=star) for k in enumerate_delta(bases, g))
            assert abs(weight_sum(bases, g, star=star) - explicit) < 1e-10


def test_corollary_bound_zero_sums_reduces_to_epsilon():
    assert corollary_bound(0.0, (2,), (3,), STAR) == epsilon_term((2,), (3,), star=True)


def test_corollary_bound_monotone_in_b():
    lo = corollary_bound(0.1, (2, 3), (2, 2), EXTREME)
    hi = corollary_bound(0.2, (2, 3), (2, 2), EXTREME)
    assert lo < hi


def test_exp_sum_zero_index_is_one():
    spec = HybridSystemSpec.single(2, WALSH)
    pts = generate_points(VdcConfig(2), 5)
    assert exp_sum(spec, (0,), pts) == 1 + 0j


def test_exp_sum_full_period_cancels_exactly():
    for base, tag in [(2, WALSH), (2, BADIC), (3, WALSH), (3, BADIC)]:
        spec = HybridSystemSpec.single(base, tag)
        pts = generate_points(VdcConfig(base), base**3)
        for k in range(1, base**3):
            assert exp_sum(spec, (k,), pts) == 0j


def test_exp_sum_matches_direct_mean():
    import cmath

    from etkbound.reference import xi_eval

    spec = HybridSystemSpec(((2, WALSH), (3, BADIC)))
    pts = generate_points(HaltonConfig((2, 3)), 11)
    for k in [(1, 1), (3, 2), (0, 4)]:
        direct = sum(xi_eval(spec, k, x) for x in pts.points) / pts.n_points
        assert abs(exp_sum(spec, k, pts) - direct) < 1e-13


def test_etk_bound_report_structure():
    spec = HybridSystemSpec(((2, WALSH), (3, BADIC)))
    pts = generate_points(HaltonConfig((2, 3)), 10)
    rep = etk_bound(spec, (2, 1), pts, EXTREME, per_index=True)
    assert rep.variant == EXTREME
    assert rep.total == rep.epsilon + rep.weighted_sum
    assert rep.epsilon == epsilon_term((2, 3), (2, 1))
    # per-index table covers the punctured box
    assert len(rep.per_index) == 4 * 3 - 1
    recomputed = math.fsum(w * a for _, w, a in rep.per_index)
    assert abs(recomputed - rep.weighted_sum) < 1e-12
    assert rep.max_abs_sum == max(a for _, _, a in rep.per_index)


def test_etk_bound_star_weights_are_half():
    """With identical sums, the star weighted part is exactly half the extreme one."""
    spec = HybridSystemSpec.single(3, BADIC)
    pts = generate_points(VdcConfig(3), 7)
    ex = etk_bound(spec, (2,), pts, EXTREME)
    st = etk_bound(spec, (2,), pts, STAR)
    assert abs(ex.weighted_sum - 2 * st.weighted_sum) < 1e-12


def test_etk_bound_matches_slow_reference():
    """Streamed numpy evaluation equals the naive per-index sum."""
    spec = HybridSystemSpec(((2, BADIC), (3, WALSH)))
    pts = generate_points(HaltonConfig((2, 3)), 13)
    g = (2, 2)
    rep = etk_bound(spec, g, pts, EXTREME)
    slow = math.fsum(
        rho_vec(k, spec.bases) * abs(exp_sum(spec, k, pts))
        for k in itertools.islice(enumerate_delta(spec.bases, g), 1, None)
    )
    assert abs(rep.weighted_sum - slow) < 1e-12


# b^g = 2^7 and 2^15 are the edges of the int8 and int16 types that hold the exact residues
@pytest.mark.parametrize("tag", [WALSH, BADIC])
def test_etk_bound_full_period_sums_vanish_at_the_int8_residue_edge(tag):
    """N = 2^7 van der Corput points at g = 7: every sum in the punctured box is exactly 0."""
    spec = HybridSystemSpec.single(2, tag)
    rep = etk_bound(spec, (7,), generate_points(VdcConfig(2), 2**7), per_index=True)
    assert len(rep.per_index) == 2**7 - 1
    assert all(abs_sum == 0.0 for _, _, abs_sum in rep.per_index)
    assert rep.weighted_sum == 0.0


@pytest.mark.parametrize("base, g", [(8, 5), (32, 3), (2, 15)])
@pytest.mark.parametrize("tag", [WALSH, BADIC])
def test_etk_bound_exact_zeros_at_the_residue_type_edges(base, g, tag):
    """The points j/b at b^g = 2^15: |S_1| = 0 exactly, and sampled sums match exp_sum."""
    spec = HybridSystemSpec.single(base, tag)
    pts = generate_points(VdcConfig(base), base)
    rep = etk_bound(spec, (g,), pts, per_index=True)
    for k in (1, 2, 3, base, base + 1, 2**14, 2**15 - 1):
        index, _, abs_sum = rep.per_index[k - 1]
        want = exp_sum(spec, index, pts)
        assert index == (k,)
        assert abs(abs_sum - abs(want)) <= 1e-13
        if want == 0j:
            assert abs_sum == 0.0
    assert rep.per_index[0][2] == 0.0


def test_etk_bound_per_index_keeps_the_bound_bit_identical():
    """The per-index table is a by-product; the weighted sum is one exactly rounded sum."""
    cases = [
        (HybridSystemSpec.single(2, WALSH), (4,), generate_points(VdcConfig(2), 11)),
        (HybridSystemSpec(((2, WALSH), (3, BADIC))), (3, 2), generate_points(HaltonConfig((2, 3)), 37)),
    ]
    for spec, g, pts in cases:
        for variant in (EXTREME, STAR):
            a = etk_bound(spec, g, pts, variant)
            b = etk_bound(spec, g, pts, variant, per_index=True)
            assert (a.epsilon, a.weighted_sum, a.total) == (b.epsilon, b.weighted_sum, b.total)
            assert math.fsum(w * x for _, w, x in b.per_index) == b.weighted_sum


def test_etk_bound_validates_input():
    spec = HybridSystemSpec.single(2, WALSH)
    pts = generate_points(VdcConfig(2), 4)
    with pytest.raises(ValueError, match="resolution components must be >= 1"):
        etk_bound(spec, (0,), pts, STAR)
    with pytest.raises(ValueError):
        etk_bound(spec, (2, 2), pts, STAR)
    with pytest.raises(ValueError):
        etk_bound(spec, (2,), pts, "anchored")


def test_etk_bound_refuses_a_transform_whose_error_bound_reaches_one_half(monkeypatch):
    """The exact zeros need the transform's error on N|S| below 1/2: past
    sum_i g_i c_(b_i) u sqrt(|Delta|) ||h||_2 = 1/2 the call is refused, and no
    other path decides them."""
    pts = generate_points(HaltonConfig((2, 3)), 10)
    spec = HybridSystemSpec.from_tags((2, 3), (WALSH, BADIC))
    stages = 3 * bounds._stage_constant(2) + 2 * bounds._stage_constant(3)
    assert stages * 2.0**-53 * math.sqrt(72 * 10) < 1e-11  # 10 points in 10 cells, |Delta| = 72
    at_half = 2.0**52 / (5 * math.sqrt(72 * 10))  # the stage constant that puts the bound at 1/2
    monkeypatch.setattr(bounds, "_stage_constant", lambda base: 0.99 * at_half)
    etk_bound(spec, (3, 2), pts)
    monkeypatch.setattr(bounds, "_stage_constant", lambda base: 1.01 * at_half)
    with pytest.raises(BudgetExceededError, match=r"transform error bound 0\.505 on N\|S\| is not below 1/2"):
        etk_bound(spec, (3, 2), pts)


def test_etk_bound_refuses_a_huge_index_box_by_its_product():
    pts = generate_points(HaltonConfig((2, 3)), 4)
    spec = HybridSystemSpec.from_tags((2, 3), (WALSH, BADIC))
    with pytest.raises(BudgetExceededError) as exc:
        etk_bound(spec, (99999, 2), pts)
    assert str(exc.value) == "index domain size 2^99999*3^2 exceeds budget 16777216"
    with pytest.raises(BudgetExceededError, match="index domain size 2304 exceeds budget 100"):
        etk_bound(spec, (8, 2), pts, budget=100)


@pytest.mark.parametrize("refuse", [
    lambda g: etk_bound(HybridSystemSpec.single(3, BADIC), (g,), generate_points(VdcConfig(3), 4)),
    lambda g: enumerate_delta((3,), (g,)),
], ids=["etk_bound", "enumerate_delta"])
def test_a_huge_index_box_is_refused_without_its_exact_size(refuse):
    """3^(10^8) has 158 million bits: forming it to compare took minutes."""
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=r"domain size 3\^100000000 exceeds budget 16777216$"):
        refuse(10**8)
    assert time.perf_counter() - start < 1
    # near the limit and near 64 bits the size is still exact, and in decimal below 2^64
    with pytest.raises(BudgetExceededError, match=r"domain size 12157665459056928801 exceeds"):
        refuse(40)
    with pytest.raises(BudgetExceededError, match=r"domain size 3\^41 exceeds"):
        refuse(41)
    with pytest.raises(BudgetExceededError, match=r"domain size 43046721 exceeds"):
        refuse(16)


@st.composite
def bound_inputs(draw):
    """A hybrid system, a resolution and a point set with repeats and ragged digit widths.

    |Delta| stays at most 343; points are at most 12, drawn from at most 8
    distinct ones, so most cells are empty.
    """
    s = draw(st.integers(1, 3))
    cap = {1: 343, 2: 49, 3: 7}[s]
    coords, g = [], []
    for _ in range(s):
        base = draw(st.integers(2, 7))
        coords.append((base, draw(st.sampled_from((WALSH, BADIC)))))
        g.append(draw(st.integers(1, max(gi for gi in range(1, 6) if base**gi <= cap))))
    point = st.tuples(
        *(
            st.lists(st.integers(0, b - 1), max_size=gi + 2).map(functools.partial(DigitVector, b))
            for (b, _), gi in zip(coords, g)
        )
    )
    distinct = draw(st.lists(point, min_size=1, max_size=8))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=12))
    points = point_set([b for b, _ in coords], [distinct[i] for i in picks])
    return HybridSystemSpec(tuple(coords)), tuple(g), points


# at k = 2 the phases are 0, 0, 1/2, 1/2, 1/4, 3/4: no full coset, but the sum is exactly 0
@example(
    (
        HybridSystemSpec.single(2, BADIC),
        (2,),
        point_set((2,), [(DigitVector(2, d),) for d in [(0, 0), (0, 0), (0, 1), (0, 1), (1,), (1, 1)]]),
    )
)
@given(bound_inputs())
@settings(max_examples=100, deadline=None)
def test_etk_bound_matches_scalar_exp_sum(case):
    """Every per-index |S| is the scalar reference's, and its exact zeros stay exact."""
    spec, g, points = case
    rep = etk_bound(spec, g, points, per_index=True)
    assert [k for k, _, _ in rep.per_index] == list(itertools.islice(enumerate_delta(spec.bases, g), 1, None))
    for k, _, abs_sum in rep.per_index:
        want = exp_sum(spec, k, points)
        assert abs(abs_sum - abs(want)) <= 1e-13
        if want == 0j:
            assert abs_sum == 0.0


def test_etk_bound_cell_index_needs_no_digit_matrix_copy(peak_mib):
    """2^18 Halton (2,3) points in w,b at g = (8,5) peak below 8 N-wide int64
    arrays (16 MiB); an int64 copy of each digit matrix for a matmul took 18."""
    n = 2**18
    pts = generate_points(HaltonConfig((2, 3)), n)
    spec = HybridSystemSpec.from_tags((2, 3), (WALSH, BADIC))
    assert peak_mib(etk_bound, spec, (8, 5), pts) < 8 * n * 8 / 2**20


def test_etk_bound_allocates_no_array_over_the_points(peak_mib):
    """The same input stays below 4 N-wide int64 arrays (8 MiB): after the cell
    histogram nothing is N wide.  N-wide cell indices and ranks, and a gather
    and sort of one residue per point for every exact-zero re-test, took 14.3."""
    n = 2**18
    pts = generate_points(HaltonConfig((2, 3)), n)
    spec = HybridSystemSpec.from_tags((2, 3), (WALSH, BADIC))
    for variant in (EXTREME, STAR):
        assert peak_mib(etk_bound, spec, (8, 5), pts, variant) < 4 * n * 8 / 2**20


@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.tuples(st.integers(2, 7), st.integers(1, 3)), min_size=1, max_size=3),
    st.integers(1, 40),
)
@settings(max_examples=60, deadline=None)
def test_cell_histogram_matches_unique_and_bincount(seed, axes, n):
    """Random columns with digits past g and rows shorter than g, in blocks of
    the default size and of one row: the cells are np.unique of each axis's cell
    indices, and the counts are the bincount of the joint cells' flat indices
    in the box."""
    rng = np.random.default_rng(seed)
    columns, g = [], tuple(gi for _, gi in axes)
    for base, gi in axes:
        width = int(rng.integers(0, gi + 3))
        counts = rng.integers(0, width + 1, n)
        digits = rng.integers(0, base, (n, width)) * (np.arange(width) < counts[:, None])
        columns.append(DigitColumn(base, digits, counts))
    index = [
        [sum(d * col.base**j for j, d in enumerate(row[:gi])) for row in col.digits.tolist()]
        for col, gi in zip(columns, g)
    ]
    moduli = tuple(col.base**gi for col, gi in zip(columns, g))
    want = np.bincount(np.ravel_multi_index(index, moduli), minlength=math.prod(moduli))
    for size in (badic._BLOCK_BYTES, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(badic, "_BLOCK_BYTES", size)
            cells, counts = cell_histogram(columns, g)
        assert len(cells) == len(g)
        for got, cells_i in zip(cells, index):
            assert got.tolist() == np.unique(cells_i).tolist()
        assert counts.dtype == np.int64 and np.array_equal(counts, want)


def test_cell_histogram_ranks_each_block_in_place(peak_mib):
    """A block's rows hold the joint cell and one axis's cell, 16 bytes each, so
    the block is 1 MiB.  Forming the joint rank as a new array for each axis
    took 2^17 Halton points in three axes to 1.34 MiB, and ranking each
    block's cells in place to 1.07; formed in place by Horner over every
    axis, they peak at 1.00, the block and the cell marks."""
    columns = generate_points(HaltonConfig((2, 3, 5)), 2**17).columns
    assert peak_mib(cell_histogram, columns, (2, 1, 1)) < 1.125


def test_cell_histogram_adds_each_block_without_a_histogram_sized_temporary(peak_mib):
    """bound_dense's shape, 4096 Halton (2,3) points at (8,5): the counts over
    the box take 0.47 MiB and the call peaks at 0.54.  Adding each block's
    bincount, as large as the whole histogram, took 1.02."""
    columns = generate_points(HaltonConfig((2, 3)), 4096).columns
    assert peak_mib(cell_histogram, columns, (8, 5)) < 0.8


def test_etk_bound_counts_into_the_box_it_transforms(peak_mib):
    """The net digital:2,s=2,m=11,seed=5 at (11,11), every axis base-2 Walsh:
    its 2^22 counts become the float box in place, 32 MiB.  Counting into a
    histogram over the 1024 x 1024 occupied cells (8 MiB) and scattering that
    into a box of its own peaked at 42.15 MiB; counting into the box peaks at
    34.15."""
    spec = HybridSystemSpec.from_tags((2, 2), (WALSH, WALSH))
    pts = generate_points(config_from_string("digital:2,s=2,m=11,seed=5"), 2048)
    assert peak_mib(etk_bound, spec, (11, 11), pts) <= 36


def test_etk_bound_weighting_needs_no_more_than_the_contraction():
    """Two base-2 points at g = 20, b-adic: the whole table, its complex lookup
    and the sums took the contraction to 64 MiB, and the weighting added 40 MiB
    on top, in the tables and complex sums kept alive and in a list of one
    2^20-wide row of terms.  A contraction of axis 0's rows in blocks still
    peaked at 32 MiB, in its 2^20 roots of unity.  The transform in place
    needs the complex box (16 MiB) and |S| (8 MiB), and the weighting |S| and
    one block of weights.  The report is pinned bit for bit."""
    spec = HybridSystemSpec.from_tags((2,), (BADIC,))
    pts = generate_points(VdcConfig(2), 2)
    tracemalloc.start()
    try:
        rep = etk_bound(spec, (20,), pts)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak <= 26
    got = (rep.epsilon.hex(), rep.weighted_sum.hex(), rep.total.hex())
    assert got == ("0x1.0000000000000p-19", "0x1.86075bc424283p+3", "0x1.86075fc424283p+3")
    for variant in (EXTREME, STAR):
        a = etk_bound(spec, (12,), pts, variant)
        b = etk_bound(spec, (12,), pts, variant, per_index=True)
        assert (a.epsilon, a.weighted_sum, a.total) == (b.epsilon, b.weighted_sum, b.total)
        assert math.fsum(w * x for _, w, x in b.per_index) == b.weighted_sum


def test_etk_bound_weights_each_block_of_sums_on_its_own(monkeypatch):
    """The net digital:2,s=2,m=11,seed=5 at (10,10): |S| takes 8 MiB.  The
    weighting formed the whole 8 MiB array of weights beside it, which set
    etk_bound's peak at 17.0 MiB (257.1 MiB at (12,12)).  Each block now
    forms only its own weights, so the weighting adds about one block, and
    the transform's box sets the peak.  The weighted sum is pinned bit for
    bit: the weights are multiplied in the same order as before."""
    spec = HybridSystemSpec.from_tags((2, 2), (WALSH, WALSH))
    pts = generate_points(config_from_string("digital:2,s=2,m=11,seed=5"), 2048)
    weighted_sum, seen = bounds._weighted_sum, {}

    def traced(*args):
        seen["before"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        out = weighted_sum(*args)
        seen["added"] = tracemalloc.get_traced_memory()[1] - start
        return out

    monkeypatch.setattr(bounds, "_weighted_sum", traced)
    tracemalloc.start()
    try:
        rep = etk_bound(spec, (10, 10), pts)
        peak = max(seen["before"], tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert seen["added"] < 2 * 2**20
    assert peak < 16 * 2**20
    assert rep.weighted_sum.hex() == "0x1.0800000000000p-5"


@pytest.mark.parametrize("base, g, limit", [(2, 12, 1), (3, 7, 2.5)])
def test_etk_bound_streams_a_full_period_table_in_blocks(base, g, limit, peak_mib):
    """van der Corput's b^g points in Walsh at g: every sum is an exact zero.
    The b^g x b^g int64 table, its complex lookup and the table kept through
    the re-test took 384.2 MiB at 2^12 and 109.6 at 3^7, and axis 0's rows in
    blocks 5.2 and 2.9.  Each zero's row read on its own from the half tables
    of the digit recurrence took 3^7 to 2.26 MiB, which those half tables
    set; in base 2 the sums come out exact, and with no re-test the peak is
    the transform's 2^12 float box and its scratch."""
    pts = generate_points(VdcConfig(base), base**g)
    rep = etk_bound(HybridSystemSpec.single(base, WALSH), (g,), pts, per_index=True)
    assert rep.weighted_sum == 0.0 and all(x == 0.0 for _, _, x in rep.per_index)
    assert peak_mib(etk_bound, HybridSystemSpec.single(base, WALSH), (g,), pts) < limit


def test_etk_bound_orbit_zeros_keep_halton_b_b_bit_for_bit(peak_mib):
    """3^7 Halton points in b,b at g = (1,7): every sum off k = 0 is an exact
    zero.  The integer re-test built axis 1's 2187 x 2187 table whole at 38.5
    MiB, and read it from two half tables at 2.2; the orbit rule reads only the
    transform's box, and the weighted sum keeps its value bit for bit."""
    spec = HybridSystemSpec.from_tags((2, 3), (BADIC, BADIC))
    pts = generate_points(HaltonConfig((2, 3)), 3**7)
    assert etk_bound(spec, (1, 7), pts).weighted_sum.hex() == "0x1.5327a4964d562p-6"
    assert peak_mib(etk_bound, spec, (1, 7), pts) < 1


def _single_axis(base, cells):
    """One coordinate of base b, a point in each of the cells (g = 1)."""
    return PointSet([DigitColumn(base, np.array(cells)[:, None], np.ones(len(cells), dtype=np.uint8))])


@pytest.mark.parametrize("tag", [WALSH, BADIC])
def test_etk_bound_zeros_a_vanishing_sum_whose_modulus_is_not_a_prime_power(tag):
    """Cells {0,0,0,4,6,6,8} mod 12 are a pair plus a triangle: N S(k) is exactly
    0 at the units k = 1, 5, 7 and 11, though no rotation of prime order fixes
    the multiset, and the integer re-test left 5.6e-17 there.  Every other k
    has an orbit member of modulus at least 1."""
    rep = etk_bound(HybridSystemSpec.single(12, tag), (1,), _single_axis(12, [0, 0, 0, 4, 6, 6, 8]), per_index=True)
    zeros = [k for (k,), _, abs_sum in rep.per_index if abs_sum == 0.0]
    assert zeros == [1, 5, 7, 11]


def test_etk_bound_keeps_a_nonzero_sum_below_one_half():
    """Cells {0,3,5,5} mod 7: N|S(5)| = 0.198 is not zero, and its orbit, every
    unit of Z_7, holds a member of modulus at least 1 (its norm is a nonzero
    integer); reading k alone would zero it."""
    points = _single_axis(7, [0, 3, 5, 5])
    spec = HybridSystemSpec.single(7, WALSH)
    rep = etk_bound(spec, (1,), points, per_index=True)
    sums = [abs_sum for _, _, abs_sum in rep.per_index]
    assert abs(4 * sums[4] - 0.19806226419516) < 1e-12
    assert max(sums) * 4 >= 1
    for (k,), _, abs_sum in rep.per_index:
        assert abs(abs_sum - abs(exp_sum(spec, (k,), points))) <= 1e-15 and abs_sum > 0


def test_unit_group_generates_every_unit_once():
    """For every L < 400 the generators' cyclic groups, each of its stated order,
    multiply out to the units mod L, each unit once."""
    for modulus in range(2, 400):
        units = {u for u in range(modulus) if math.gcd(u, modulus) == 1}
        reached = {1}
        for u, r in bounds._unit_group(modulus):
            assert pow(u, r, modulus) == 1 and all(pow(u, j, modulus) != 1 for j in range(1, r))
            reached = {x * pow(u, j, modulus) % modulus for x in reached for j in range(r)}
        assert reached == units and math.prod(r for _, r in bounds._unit_group(modulus)) == len(units)


@functools.lru_cache(maxsize=8)
def _powers_mod_cyclotomic(modulus):
    """Row i holds the coefficients of x^i mod Phi_L, lowest first, for i < L."""
    import sympy

    x = sympy.Symbol("x")
    phi = np.array([int(c) for c in reversed(sympy.Poly(sympy.cyclotomic_poly(modulus, x), x).all_coeffs())])
    rows = np.zeros((modulus, len(phi) - 1), dtype=np.int64)
    row = np.zeros(len(phi) - 1, dtype=np.int64)
    row[0] = 1
    for i in range(modulus):
        rows[i] = row
        row = np.concatenate(([0], row[:-1])) - row[-1] * phi[:-1]  # times x, then minus its top term's Phi_L
    assert np.abs(rows).max() < 2**40
    return rows


@st.composite
def orbit_inputs(draw):
    """s <= 3 axes of bases 2, 3, 4, 5, 6, 10 and 12 and either tag, |Delta| <= 2048,
    and up to 40 points: whole p-gons on one axis (p a prime of its base), which
    cancel, around random cells, and a few random points."""
    coords, g, room = [], [], 2048
    for _ in range(draw(st.integers(1, 3))):
        choices = [b for b in (2, 3, 4, 5, 6, 10, 12) if b <= room]
        if not choices:
            break
        base = draw(st.sampled_from(choices))
        coords.append((base, draw(st.sampled_from((WALSH, BADIC)))))
        g.append(draw(st.integers(1, max(h for h in range(1, 12) if base**h <= room))))
        room //= base ** g[-1]
    moduli = [b**gi for (b, _), gi in zip(coords, g)]
    anchor = st.tuples(*(st.integers(0, m - 1) for m in moduli))
    points = []
    for cell in draw(st.lists(anchor, min_size=1, max_size=4)):
        i = draw(st.integers(0, len(coords) - 1))
        p = draw(st.sampled_from([p for p in (2, 3, 5) if coords[i][0] % p == 0]))
        for j in range(p):
            points.append(tuple(c + j * m // p if axis == i else c for axis, (c, m) in enumerate(zip(cell, moduli))))
    points += draw(st.lists(anchor, max_size=4))
    columns = []
    for axis, ((b, _), gi) in enumerate(zip(coords, g)):
        cells = np.array([point[axis] % moduli[axis] for point in points])
        columns.append(DigitColumn(b, cells[:, None] // b ** np.arange(gi) % b, np.full(len(points), gi)))
    return HybridSystemSpec(tuple(coords)), tuple(g), PointSet(columns)


@given(orbit_inputs())
@settings(max_examples=40, deadline=None)
def test_etk_bound_zeros_are_the_sums_divisible_by_the_cyclotomic_polynomial(case):
    """N S(k) = P_k(zeta_L) for the residue polynomial P_k(x) = sum_n x^(r_k(n)),
    r_k(n) = L times point n's phase mod L, L the lcm of the axis moduli (b on a
    Walsh axis, b^g on a b-adic one), and it is 0 exactly when Phi_L divides
    P_k: |S| is 0.0 at exactly those k."""
    spec, g, points = case
    modulus = math.lcm(*(b if tag == WALSH else b**gi for (b, tag), gi in zip(spec.coordinates, g)))
    residues = np.zeros((1, points.n_points), dtype=np.int64)
    for (base, tag), gi, column in zip(spec.coordinates, g, points.columns):
        cells = column.digits.astype(np.int64) @ base ** np.arange(gi)
        axis = phase_rows(cells, base, tag, gi, 0, base**gi) * modulus // base**gi
        residues = (residues[:, None, :] + axis[None, :, :]).reshape(-1, points.n_points) % modulus
    powers = _powers_mod_cyclotomic(modulus)
    remainders = np.zeros((len(residues), powers.shape[1]), dtype=np.int64)
    for column in residues.T:
        remainders += powers[column]
    divisible = ~remainders.any(axis=1)
    rep = etk_bound(spec, g, points, per_index=True)
    assert [abs_sum == 0.0 for _, _, abs_sum in rep.per_index] == divisible[1:].tolist()


def test_butterfly_reads_its_roots_from_one_table_of_b(peak_mib):
    """van der Corput's 2000 points in base 2000, Walsh at g = 1: every sum off
    k = 0 is an exact zero.  A table of 2000 x 2000 roots, and _unit's scratch
    for it, took the call to 244 MiB; one row of b roots read as unit[a d mod b]
    leaves the box and the histogram."""
    pts = generate_points(VdcConfig(2000), 2000)
    spec = HybridSystemSpec.single(2000, WALSH)
    assert etk_bound(spec, (1,), pts).weighted_sum == 0.0
    assert peak_mib(etk_bound, spec, (1,), pts) < 1


def test_twiddle_blocks_hold_what_unit_holds(peak_mib):
    """_unit holds two int64 and two complex arrays per entry beside its input;
    blocks sized at 16 bytes per entry took a base-3 twiddle over 3^10 positions
    to 3.5 MiB of scratch.  Sized by what _unit holds, it stays near one block."""
    view = np.ones((1, 3, 3**10, 1), dtype=complex)
    want = view.copy()
    want[:, 1:] *= np.exp(2j * np.pi * np.arange(1, 3)[:, None] * np.arange(3**10) / 3**11)[:, :, None]
    assert peak_mib(bounds._twiddle, view, 3, 3**10) < 1.25 * badic._BLOCK_BYTES / 2**20
    assert np.abs(view - want).max() < 1e-14


@st.composite
def blocked_inputs(draw, walsh2=False):
    """s <= 3 axes of bases 2-5 and either tag with b^g_i <= 256, |Delta| at most
    1024 but for a last axis at g = 1, and N <= 300 points of 9 digits: random
    digits, or those of the point's own index (van der Corput in every axis),
    whose sums are mostly exact zeros.  With walsh2, one axis is base-2 Walsh."""
    s = draw(st.integers(1, 3))
    fixed = draw(st.integers(0, s - 1)) if walsh2 else None
    coords, g, room = [], [], 1024
    for i in range(s):
        base = 2 if i == fixed else draw(st.integers(2, 5))
        coords.append((base, WALSH if i == fixed else draw(st.sampled_from((WALSH, BADIC)))))
        g.append(draw(st.integers(1, max((h for h in range(1, 9) if base**h <= min(256, room)), default=1))))
        room //= base ** g[-1]
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counting = draw(st.booleans())
    columns = []
    for base, _ in coords:
        if counting:
            digits = np.arange(n)[:, None] // base ** np.arange(9) % base
        else:
            digits = rng.integers(0, base, (n, 9))
        columns.append(DigitColumn(base, digits, np.full(n, 9)))
    return HybridSystemSpec(tuple(coords)), tuple(g), PointSet(columns)


def _both_reports(spec, g, points):
    return [etk_bound(spec, g, points, variant, per_index=True) for variant in (EXTREME, STAR)]


@given(case=blocked_inputs())
@settings(max_examples=60, deadline=None)
def test_etk_bound_is_the_same_at_every_block_size(case):
    """The transform's chunks of the default size and of one column give the
    same reports, bit for bit: every step of the transform is elementwise, so
    no sum depends on where a chunk ends."""
    got = []
    for size in (badic._BLOCK_BYTES, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(badic, "_BLOCK_BYTES", size)
            got.append(_both_reports(*case))
    assert got[0] == got[1]


@pytest.mark.parametrize("tags, g", [((WALSH, BADIC), (8, 5)), ((BADIC, WALSH), (5, 8))], ids=["w,b", "b,w"])
def test_etk_bound_blocks_keep_bound_denses_reports(tags, g, at_both_block_sizes):
    """bound_dense's shape: `hybrid --walsh digital:2 --badic halton:3`, N = 4096, w,b at (8,5),
    and its axes swapped, so that axis 0 is the b-adic one, of 243 rows.  A
    BLAS contraction of axis 0's rows in blocks rounded a one-row block apart,
    as a vector product; the transform's chunks of one column are bit for bit
    the default's."""
    pts = hybrid_points(tags, config_from_string("digital:2"), config_from_string("halton:3"), 4096)
    spec = HybridSystemSpec.from_tags(tuple(2 if tag == WALSH else 3 for tag in tags), tags)
    reports = at_both_block_sizes(_both_reports, spec, g, pts)
    assert len(reports[0].per_index) == 256 * 243 - 1


@pytest.mark.parametrize("variant", [EXTREME, STAR])
def test_etk_bound_weights_come_from_their_distinct_values(variant, monkeypatch):
    """Bit-equal to one weight call per index, with (b - 1) g + 1 calls to rho."""
    weight = rho_star if variant == STAR else rho
    calls = []

    def counted(k, base):
        calls.append(k)
        return rho(k, base)

    for base in range(2, 8):
        pts = generate_points(VdcConfig(base), 3)
        for g in range(1, 6):
            spec = HybridSystemSpec.single(base, WALSH)
            calls.clear()
            monkeypatch.setattr(bounds, "rho", counted)
            rows = etk_bound(spec, (g,), pts, variant, per_index=True).per_index
            monkeypatch.undo()
            assert len(calls) == (base - 1) * g + 1
            got = np.array([w for _, w, _ in rows])
            want = np.array([weight(k, base) for k in range(1, base**g)])
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_etk_bound_allocates_no_table_over_the_points():
    """N = 4096 in w,b with g = (8,5) stays below 16 MiB, one int64 table of 256 x 4096."""
    pts = generate_points(HaltonConfig((2, 3)), 4096)
    spec = HybridSystemSpec.from_tags((2, 3), (WALSH, BADIC))
    tracemalloc.start()
    try:
        etk_bound(spec, (8, 5), pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@st.composite
def transform_inputs(draw):
    """s <= 3 axes of bases 2-7 and either tag, in any order, with |Delta| <= 1024,
    and N <= 12 points of random digits, two past g on each axis."""
    coords, g, room = [], [], 1024
    for _ in range(draw(st.integers(1, 3))):
        if room < 2:
            break
        base = draw(st.integers(2, min(7, room)))
        coords.append((base, draw(st.sampled_from((WALSH, BADIC)))))
        g.append(draw(st.integers(1, max(h for h in range(1, 11) if base**h <= room))))
        room //= base ** g[-1]
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = [DigitColumn(b, rng.integers(0, b, (n, gi + 2)), np.full(n, gi + 2)) for (b, _), gi in zip(coords, g)]
    return HybridSystemSpec(tuple(coords)), tuple(g), PointSet(columns)


@given(transform_inputs())
@settings(max_examples=40, deadline=None)
def test_etk_bound_transform_matches_scalar_exp_sum_to_an_ulp(case):
    """Every |S| of the transform is the scalar reference's within 1e-15, and its exact zeros are 0.0."""
    spec, g, points = case
    for (k, _, abs_sum), want in zip(
        etk_bound(spec, g, points, per_index=True).per_index,
        (exp_sum(spec, k, points) for k in itertools.islice(enumerate_delta(spec.bases, g), 1, None)),
        strict=True,
    ):
        assert abs(abs_sum - abs(want)) <= 1e-15
        if want == 0j:
            assert abs_sum == 0.0


@given(case=blocked_inputs(walsh2=True))
@settings(max_examples=60, deadline=None)
def test_sums_on_base_2_walsh_axes_are_exact(case):
    """A sum whose support (its axes with k_i != 0) lies on base-2 Walsh axes is
    T / N for the integer T = sum_n (-1)^(sum_i popcount(k_i & c_i(n))), c_i(n)
    the point's cell: |S| is Fraction(|T|, N) correctly rounded, 0.0 exactly
    when T = 0, with no re-test."""
    spec, g, points = case
    n, moduli = points.n_points, [b**gi for b, gi in zip(spec.bases, g)]
    rep = etk_bound(spec, g, points, per_index=True)
    sums = np.array([0.0] + [x for _, _, x in rep.per_index]).reshape(moduli)
    axes = [i for i, coordinate in enumerate(spec.coordinates) if coordinate == (2, WALSH)]
    cells = [points.columns[i].digits[:, : g[i]] @ 2 ** np.arange(g[i]) for i in axes]
    for k in itertools.islice(itertools.product(*(range(moduli[i]) for i in axes)), 1, None):
        parity = sum(np.bitwise_count(ki & c) for ki, c in zip(k, cells)) % 2
        total = n - 2 * int(parity.sum())
        index = [0] * spec.s
        for i, ki in zip(axes, k):
            index[i] = ki
        assert sums[tuple(index)] == float(Fraction(abs(total), n))


_BLAS = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "matvec", "vecmat", "vecdot", "linalg", "fft"}


def _blas_uses(source: str) -> list[str]:
    """Names, attributes and imports of BLAS-backed numpy routines (and of numpy.linalg
    and numpy.fft) in source, and each use of the @ operator."""
    uses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            uses.append("@")
        names = []
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.alias):
            names = node.name.split(".")
        elif isinstance(node, ast.ImportFrom):
            names = (node.module or "").split(".")
        uses += [name for name in names if name in _BLAS]
    return uses


def test_bounds_calls_no_blas_routine():
    """The sums are elementwise transforms, so no report depends on how a BLAS
    build or its thread count splits a product; nor does bounds reach numpy.fft."""
    assert _blas_uses(Path(bounds.__file__).read_text(encoding="utf-8")) == []
    probe = "np.tensordot(a, b)\nx = a @ b\nx @= b\nnp.linalg.norm(a)\nfrom numpy.fft import fft\nimport numpy.fft\n"
    assert sorted(_blas_uses(probe)) == ["@", "@", "fft", "fft", "fft", "linalg", "tensordot"]
