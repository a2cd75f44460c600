"""Weights, truncation terms, exponential sums, and the streamed bound."""

import functools
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from etkbound.badic import BudgetExceededError, DigitVector, enumerate_delta
from etkbound.bounds import (
    EXTREME,
    STAR,
    cb_constant,
    corollary_bound,
    epsilon_fraction,
    epsilon_term,
    etk_bound,
    exp_sum,
    rho,
    rho_star,
    rho_vec,
    weight_sum,
)
from etkbound.sequences import HaltonConfig, PointSet, VdcConfig, generate_points
from etkbound.systems import BADIC, WALSH, HybridSystemSpec


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
    with pytest.raises(ValueError, match="resolution components must be >= 1"):
        epsilon_fraction((2, 3), (1, 0))


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

    from etkbound.systems import xi_eval

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
        for k in enumerate_delta(spec.bases, g, star=True)
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


def test_etk_bound_budget_counts_phase_table_entries(monkeypatch):
    """The budget caps the tables as built, sum_i b_i^g_i U_i, before any table exists."""
    import etkbound.bounds as bounds

    pts = generate_points(HaltonConfig((2, 3)), 10)
    spec = HybridSystemSpec.from_tags((2, 3), (WALSH, BADIC))
    entries = 8 * 8 + 9 * 9  # 145: 10 points fill 8 of 8 and 9 of 9 cells; |Delta| is 72
    etk_bound(spec, (3, 2), pts, budget=entries)
    etk_bound(spec, (3, 2), pts, budget=150)  # N * sum_i b_i^g_i = 170 would refuse this

    def no_tables(*args):
        raise AssertionError("phase table built past the budget")

    monkeypatch.setattr(bounds, "phase_numerators", no_tables)
    with pytest.raises(BudgetExceededError, match="phase tables of 145 entries exceed budget 144"):
        etk_bound(spec, (3, 2), pts, budget=entries - 1)


def test_etk_bound_refuses_a_huge_index_box_by_its_product():
    pts = generate_points(HaltonConfig((2, 3)), 4)
    spec = HybridSystemSpec.from_tags((2, 3), (WALSH, BADIC))
    with pytest.raises(BudgetExceededError) as exc:
        etk_bound(spec, (99999, 2), pts)
    assert str(exc.value) == "index domain size 2^99999*3^2 exceeds budget 16777216"
    with pytest.raises(BudgetExceededError, match="index domain size 2304 exceeds budget 100"):
        etk_bound(spec, (8, 2), pts, budget=100)


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
    points = PointSet([b for b, _ in coords], [distinct[i] for i in picks])
    return HybridSystemSpec(tuple(coords)), tuple(g), points


# at k = 2 the phases are 0, 0, 1/2, 1/2, 1/4, 3/4: no full coset, but the sum is exactly 0
@example(
    (
        HybridSystemSpec.single(2, BADIC),
        (2,),
        PointSet((2,), [(DigitVector(2, d),) for d in [(0, 0), (0, 0), (0, 1), (0, 1), (1,), (1, 1)]]),
    )
)
@given(bound_inputs())
@settings(max_examples=100, deadline=None)
def test_etk_bound_matches_scalar_exp_sum(case):
    """Every per-index |S| is the scalar reference's, and its exact zeros stay exact."""
    spec, g, points = case
    rep = etk_bound(spec, g, points, per_index=True)
    assert [k for k, _, _ in rep.per_index] == list(enumerate_delta(spec.bases, g, star=True))
    for k, _, abs_sum in rep.per_index:
        want = exp_sum(spec, k, points)
        assert abs(abs_sum - abs(want)) <= 1e-13
        if want == 0j:
            assert abs_sum == 0.0


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
