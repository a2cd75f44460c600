"""Exact discrepancy oracle against independent formulas and hand cases."""

import contextlib
import functools
import io
import itertools
import json
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etkbound import oracle
from etkbound.bounds import EXTREME, etk_bound
from etkbound.cli import main
from etkbound.oracle import (
    DOMINATION_SLACK,
    CapExceededError,
    extreme_discrepancy_exact,
    star_discrepancy_exact,
)
from etkbound.pointfile import read_point_set
from etkbound.reference import point_set, point_set_from_values, point_values
from etkbound.sequences import HaltonConfig, VdcConfig, generate_points
from etkbound.systems import BADIC, WALSH, HybridSystemSpec
from etkbound.verify import _draw_trial, domination_sweep


def classic_star_1d(xs):
    """The textbook closed form for one-dimensional star discrepancy.

    D*_N = 1/(2N) + max_i |x_(i) - (2i-1)/(2N)| over the sorted points;
    exact in rational arithmetic, valid with repeated points.
    """
    xs = sorted(xs)
    n = len(xs)
    return Fraction(1, 2 * n) + max(
        abs(x - Fraction(2 * i - 1, 2 * n)) for i, x in enumerate(xs, 1)
    )


def from_fractions(bases, rows):
    return point_set_from_values(tuple(bases), [tuple(r) for r in rows])


def test_star_1d_matches_classic_formula_vdc():
    for base in (2, 3):
        for n in (1, 2, 5, 8, 9, 16):
            pts = generate_points(VdcConfig(base), n)
            want = classic_star_1d([p[0].value for p in pts.points])
            assert star_discrepancy_exact(pts).exact == want


def test_star_1d_matches_classic_formula_random():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 12)
        xs = [Fraction(rng.randrange(64), 64) for _ in range(n)]
        pts = from_fractions((2,), [(x,) for x in xs])
        assert star_discrepancy_exact(pts).exact == classic_star_1d(xs)


# hand-computed singletons and pairs
def test_star_frozen_tiny_sets():
    assert star_discrepancy_exact(from_fractions((2,), [(Fraction(0),)])).exact == 1
    assert star_discrepancy_exact(from_fractions((2,), [(Fraction(1, 2),)])).exact == Fraction(1, 2)
    two = from_fractions((2,), [(Fraction(0),), (Fraction(1, 2),)])
    assert star_discrepancy_exact(two).exact == Fraction(1, 2)


def test_extreme_frozen_tiny_sets():
    assert extreme_discrepancy_exact(from_fractions((2,), [(Fraction(0),)])).exact == 1
    grid8 = from_fractions((2,), [(Fraction(i, 8),) for i in range(8)])
    assert extreme_discrepancy_exact(grid8).exact == Fraction(1, 8)
    assert star_discrepancy_exact(grid8).exact == Fraction(1, 8)


def test_star_2d_frozen_diagonal():
    # (0,0) and (1/2,1/2): as the corner passes (1/2,1/2) from above, both
    # points are captured at volume 1/4, so the supremum is 3/4 (not attained)
    pts = from_fractions((2, 2), [(Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(1, 2))])
    res = star_discrepancy_exact(pts)
    assert res.exact == Fraction(3, 4)
    assert not res.attained


def test_extreme_2d_frozen_grid():
    # 2x2 grid: the open unit box contains one point of four, deviation 3/4;
    # the closed box [0,1/2]^2 holds all four at volume 1/4, also 3/4
    rows = [
        (Fraction(a, 2), Fraction(b, 2)) for a in range(2) for b in range(2)
    ]
    pts = from_fractions((2, 2), rows)
    assert extreme_discrepancy_exact(pts).exact == Fraction(3, 4)
    assert star_discrepancy_exact(pts).exact == Fraction(3, 4)


def test_extreme_dominates_star():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(1, 10)
        rows = [(Fraction(rng.randrange(27), 27), Fraction(rng.randrange(32), 32)) for _ in range(n)]
        pts = from_fractions((3, 2), rows)
        st = star_discrepancy_exact(pts).exact
        ex = extreme_discrepancy_exact(pts).exact
        assert st <= ex


def test_duplicating_points_preserves_discrepancy():
    pts = generate_points(HaltonConfig((2, 3)), 6)
    doubled = point_set(pts.bases, pts.points + pts.points)
    assert star_discrepancy_exact(pts).exact == star_discrepancy_exact(doubled).exact
    assert extreme_discrepancy_exact(pts).exact == extreme_discrepancy_exact(doubled).exact


def test_no_random_box_beats_the_oracle():
    """Any sampled box deviation stays below the reported supremum."""
    rng = random.Random(17)
    pts = generate_points(HaltonConfig((2, 3)), 9)
    vals = point_values(pts)
    n = pts.n_points
    star = star_discrepancy_exact(pts).exact
    extreme = extreme_discrepancy_exact(pts).exact
    for _ in range(300):
        u = [Fraction(rng.randrange(97), 97) for _ in range(2)]
        v = [ui + Fraction(rng.randrange(1, 97 - ui.numerator if ui.numerator < 96 else 2), 97) for ui in u]
        v = [min(vi, Fraction(1)) for vi in v]
        vol = (v[0] - u[0]) * (v[1] - u[1])
        inside = sum(all(a <= x < b for x, a, b in zip(row, u, v)) for row in vals)
        assert abs(Fraction(inside, n) - vol) <= extreme
        anchored = sum(all(x < b for x, b in zip(row, v)) for row in vals)
        anchored_vol = v[0] * v[1]
        assert abs(Fraction(anchored, n) - anchored_vol) <= star


def test_witness_box_reproduces_the_value():
    """An outer witness is the closed box [a, b], an inner one the half-open box [a, b)."""
    halton = generate_points(HaltonConfig((3, 2)), 7)
    # base 2: (7/8, 1/4) and (1/8, 7/8); the witness is [0, 7/8)^2, empty, volume 49/64
    corners = read_point_set(io.StringIO("#bases 2,2\n0.111 0.01\n0.001 0.111\n"))
    closures = []
    for pts in (halton, corners):
        res = extreme_discrepancy_exact(pts)
        lo, hi = res.witness.lower, res.witness.upper
        closures.append(res.witness.closure)
        below = operator.le if res.witness.closure == "outer" else operator.lt
        count = sum(
            all(a <= x and below(x, b) for x, a, b in zip(row, lo, hi)) for row in point_values(pts)
        )
        vol = 1
        for a, b in zip(lo, hi):
            vol *= b - a
        assert abs(Fraction(count, pts.n_points) - vol) == res.exact
    assert closures == ["outer", "inner"]
    assert res.exact == Fraction(49, 64)


def test_star_witness_anchored_at_zero():
    pts = generate_points(VdcConfig(3), 5)
    res = star_discrepancy_exact(pts)
    assert all(a == 0 for a in res.witness.lower)
    assert res.value == float(res.exact)


def test_oracle_caps():
    pts3 = generate_points(HaltonConfig((2, 3, 5)), 10)
    star_discrepancy_exact(pts3)  # s=3 allowed for star
    with pytest.raises(CapExceededError):
        extreme_discrepancy_exact(pts3)
    big = generate_points(VdcConfig(2), 300)
    with pytest.raises(CapExceededError):
        star_discrepancy_exact(big)


def test_domination_check_report():
    spec = HybridSystemSpec(((2, WALSH), (3, BADIC)))
    pts = generate_points(HaltonConfig((2, 3)), 12)
    bound = etk_bound(spec, (2, 1), pts, "extreme")
    exact = extreme_discrepancy_exact(pts)
    assert bound.total - exact.value >= -DOMINATION_SLACK
    assert bound.variant == "extreme"
    assert exact.variant == "extreme"
    # the domination sweep's margin is the bound minus the exact value
    spec, g, points, _ = _draw_trial(random.Random(3), EXTREME)
    margin = etk_bound(spec, g, points, EXTREME).total - extreme_discrepancy_exact(points).value
    assert domination_sweep(EXTREME, trials=1, seed=3).summary == f"seed=3, worst margin {margin:.3e}"


# ---------------------------------------------------------------------------
# The one enumeration engine against an independent brute force


def brute_force(rows, dens, variant):
    """Exact discrepancy by enumerating every box with grid corners and every
    per-axis open/closed end, in integers.

    rows hold integer numerators, coordinate i over dens[i].  Star boxes are
    anchored at a closed 0; extreme boxes take any lo <= hi, thin ones
    included.  Returns the supremum and whether a half-open box reaches it.
    """
    n, scale = len(rows), math.prod(dens)
    axes = []
    for i, den in enumerate(dens):
        grid = sorted({0, den} | {row[i] for row in rows})
        ends = []
        for lo in grid[:1] if variant == "star" else grid:
            for hi in (h for h in grid if h >= lo):
                for lo_closed in (True,) if variant == "star" else (True, False):
                    for hi_closed in (False, True):
                        mask = sum(
                            1 << j
                            for j, row in enumerate(rows)
                            if (lo <= row[i] if lo_closed else lo < row[i])
                            and (row[i] <= hi if hi_closed else row[i] < hi)
                        )
                        ends.append((mask, hi - lo, lo_closed and not hi_closed))
        axes.append(ends)
    best = best_half_open = -1
    for combo in itertools.product(*axes):
        mask = functools.reduce(operator.and_, (m for m, _, _ in combo))
        dev = abs(mask.bit_count() * scale - n * math.prod(w for _, w, _ in combo))
        best = max(best, dev)
        if all(half_open for _, _, half_open in combo):
            best_half_open = max(best_half_open, dev)
    return Fraction(best, n * scale), best_half_open == best


def witness_value(points, result):
    """Deviations of the witness box read with its closure: the half-open box
    when inner, else each one-sided limit the variant enumerates."""
    closures = [("[", ")")] if result.witness.closure == "inner" else (
        [("[", "]")] if result.variant == "star" else [("[", "]"), ("(", ")")]
    )
    vol = math.prod(b - a for a, b in zip(result.witness.lower, result.witness.upper))
    out = set()
    for left, right in closures:
        inside = sum(
            all(
                (a <= x if left == "[" else a < x) and (x <= b if right == "]" else x < b)
                for x, a, b in zip(row, result.witness.lower, result.witness.upper)
            )
            for row in point_values(points)
        )
        out.add(abs(Fraction(inside, points.n_points) - vol))
    return out


@st.composite
def numerator_sets(draw, max_s):
    """Points as integer numerators over b^depth, with repeats and zeros likely."""
    s = draw(st.integers(1, max_s))
    bases = draw(st.lists(st.sampled_from((2, 3, 12, 1000)), min_size=s, max_size=s))
    dens = [b ** draw(st.integers(1, 3)) for b in bases]
    coord = [st.integers(0, d - 1) | st.just(0) for d in dens]
    pool = draw(st.lists(st.tuples(*coord), min_size=1, max_size=8))
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    return bases, dens, rows


@pytest.mark.parametrize("variant, max_s", [("star", 3), ("extreme", 2)])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_engine_matches_brute_force(variant, max_s, data, at_both_block_sizes):
    bases, dens, rows = data.draw(numerator_sets(max_s))
    pts = from_fractions(bases, [[Fraction(x, d) for x, d in zip(row, dens)] for row in rows])
    oracle = star_discrepancy_exact if variant == "star" else extreme_discrepancy_exact
    res = at_both_block_sizes(oracle, pts)
    exact, attained = brute_force(rows, dens, variant)
    assert res.exact == exact
    assert res.attained == attained
    assert (res.witness.closure == "inner") == res.attained
    assert res.exact in witness_value(pts, res)


def near_uniform_sets(count, seed):
    """1-D sets i/n * 2^32 +- 40 over 2^32, where a float32 screen loses the maximizer."""
    rng = random.Random(seed)
    for k in range(count):
        n = (3, 5, 6, 7, 9, 11)[k % 6]
        yield [min(max(i * 2**32 // n + rng.randint(-40, 40), 0), 2**32 - 1) for i in range(n)]


def test_extreme_near_uniform_sets_match_integer_brute_force(at_both_block_sizes):
    for nums in near_uniform_sets(600, seed=4):
        pts = from_fractions((2,), [(Fraction(x, 2**32),) for x in nums])
        rows = [(x,) for x in nums]
        extreme = at_both_block_sizes(extreme_discrepancy_exact, pts)
        assert extreme.exact == brute_force(rows, [2**32], "extreme")[0]
        assert at_both_block_sizes(star_discrepancy_exact, pts).exact == brute_force(rows, [2**32], "star")[0]


def test_cli_extreme_keeps_maximizers_a_float32_screen_drops(tmp_path):
    nums = [40, 613566791, 1227133481, 1840700307, 2454266987, 3067833803, 3681400532]
    pfile = tmp_path / "pts.txt"
    pfile.write_text("#bases 2\n" + "".join(f"0.{x:032b}\n" for x in nums))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["discrepancy", str(pfile), "--variant", "extreme", "--format", "json"]) == 0
    row = json.loads(out.getvalue())["rows"][0]
    assert row["exact"] == "4294967851/30064771072"
    assert row["witness_lower"] == ["5/536870912"]
    assert row["witness_upper"] == ["2454266987/4294967296"]
    assert (row["closure"], row["attained"]) == ("outer", False)


def test_extreme_counts_thin_boxes():
    """A box [u, u + eps) around one point tends to deviation 1 for a lone point."""
    res = extreme_discrepancy_exact(from_fractions((2,), [(Fraction(1, 2),)]))
    assert res.exact == 1
    assert res.witness.lower == res.witness.upper == (Fraction(1, 2),)
    assert not res.attained
    two = from_fractions((2, 2), [(Fraction(1, 2), Fraction(1, 4))])
    assert extreme_discrepancy_exact(two).exact == 1


def gen_points(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["gen", *argv]) == 0
    return read_point_set(io.StringIO(out.getvalue()))


# (exact, witness lower, witness upper, closure, attained) as the two-copy
# oracle reported them: the certify_caps benchmark inputs at seed 101 (the
# digital seed 101002 is perfbench's full_rank_seed(101)) and the README examples.
PINNED = [
    (("vdc", "--base", "2", "--n", "64"), "extreme", ("1/64", ("0",), ("1/64",), "outer", False)),
    (("digital", "--base", "2", "--s", "2", "--m", "8", "--seed=101002", "--n", "64"), "extreme",
     ("9003/32768", ("1/4", "131/256"), ("93/128", "63/64"), "outer", False)),
    (("halton", "--bases", "2,3", "--n", "256"), "star",
     ("389/20736", ("0", "0"), ("105/128", "190/243"), "outer", False)),
    (("hybrid", "--walsh", "vdc:2", "--badic", "halton:3,5", "--n", "64"), "star",
     ("2329/24000", ("0", "0", "0"), ("27/32", "58/81", "106/125"), "outer", False)),
    (("vdc", "--base", "2", "--n", "8"), "star", ("1/8", ("0",), ("0",), "outer", False)),
    (("vdc", "--base", "2", "--n", "8"), "extreme", ("1/8", ("0",), ("1/8",), "outer", False)),
    (("hybrid", "--walsh", "vdc:2", "--badic", "halton:3", "--tags", "w,b", "--n", "12"), "star",
     ("1/4", ("0", "0"), ("9/16", "4/9"), "outer", False)),
    (("hybrid", "--walsh", "vdc:2", "--badic", "halton:3", "--tags", "w,b", "--n", "12"), "extreme",
     ("31/108", ("1/4", "1/27"), ("7/8", "7/9"), "outer", False)),
]


@pytest.mark.parametrize("argv, variant, want", PINNED)
def test_oracle_results_are_pinned(argv, variant, want, at_both_block_sizes):
    pts = gen_points(*argv)
    res = at_both_block_sizes(star_discrepancy_exact if variant == "star" else extreme_discrepancy_exact, pts)
    w = res.witness
    lower, upper = tuple(map(str, w.lower)), tuple(map(str, w.upper))
    assert (str(res.exact), lower, upper, w.closure, res.attained) == want


def test_oracles_read_only_the_digit_columns():
    pts = generate_points(HaltonConfig((2, 3)), 20)
    star_discrepancy_exact(pts)
    extreme_discrepancy_exact(pts)
    assert "points" not in pts.__dict__


def test_oracle_reports_candidates_and_ties(at_both_block_sizes):
    """vdc N=64: every box [i/64, (i+1)/64] and every thin box [i/64, i/64]
    deviates by exactly 1/64 in both closures, so all 4160 candidates tie."""
    res = at_both_block_sizes(extreme_discrepancy_exact, gen_points("vdc", "--base", "2", "--n", "64"))
    assert (res.exact, res.candidates, res.ties) == (Fraction(1, 64), 4160, 4160)
    res = extreme_discrepancy_exact(gen_points(*PINNED[1][0]))
    assert (res.candidates, res.ties) == (2, 1)


def test_extreme_oracle_memory_at_the_cap_is_bounded(peak_mib):
    """The PINNED digital net has 2145 extreme boxes per axis: a whole
    2145 x 2145 float tensor alone would take 35 MiB."""
    pts = gen_points(*PINNED[1][0])
    assert peak_mib(extreme_discrepancy_exact, pts) <= 8


def test_extreme_oracle_memory_past_the_cap_is_bounded(monkeypatch, peak_mib):
    """Halton (2,3), N=128: 8385 boxes per axis, 536 MiB for one whole float tensor."""
    monkeypatch.setitem(oracle._VARIANTS[EXTREME][0], 2, 128)
    pts = generate_points(HaltonConfig((2, 3)), 128)
    assert peak_mib(extreme_discrepancy_exact, pts) <= 32


def test_extreme_oracle_memory_with_many_ties_is_bounded(monkeypatch, peak_mib):
    """vdc N=256: all 65792 candidates tie.  Valued in chunks, they cost their
    box indices and counts, not a Python list of each."""
    monkeypatch.setitem(oracle._VARIANTS[EXTREME][0], 1, 256)
    pts = generate_points(VdcConfig(2), 256)
    assert peak_mib(extreme_discrepancy_exact, pts) <= 11
