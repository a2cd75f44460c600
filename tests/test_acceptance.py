"""Acceptance criteria for the bound pipeline, one test per criterion.

Each test prints one `[criterion N] PASS/FAIL` line with its headline numbers
and elapsed time (visible with -s, or in the report on failure); `pytest -v`
itself shows the per-criterion pass/fail status lines.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from etkbound.bounds import (
    EXTREME,
    STAR,
    cb_constant,
    corollary_bound,
    epsilon_fraction,
    etk_bound,
)
from etkbound.oracle import extreme_discrepancy_exact, star_discrepancy_exact
from etkbound.sequences import VdcConfig, generate_points
from etkbound.systems import HybridSystemSpec
from etkbound.verify import (
    _SUM_TOL,
    _TOL,
    _draw_trial,
    check_fc_bounds,
    check_fourier,
    check_orthonormality,
    check_reconstruction,
    check_weights,
)

EXTREME_SWEEP_SEED = 2024
STAR_SWEEP_SEED = 2025
SWEEP_TRIALS = 100
MARGIN_SLACK = -1e-9


def _announce(num: int, ok: bool, detail: str, t0: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status} {detail} ({time.perf_counter() - t0:.2f}s)")


def full_period_report(base: int, g: int, tag: str):
    """Full-period van der Corput bound and oracle: the exactness end-to-end case."""
    spec = HybridSystemSpec.single(base, tag)
    points = generate_points(VdcConfig(base), base**g)
    rep = etk_bound(spec, (g,), points, STAR, per_index=True)
    disc = star_discrepancy_exact(points)
    return rep, disc


def _sweep(variant: str, seed: int):
    """Per trial: spec, g, label, the bound's report and its margin over the exact value."""
    rng = random.Random(seed)
    oracle = star_discrepancy_exact if variant == STAR else extreme_discrepancy_exact
    out = []
    for _ in range(SWEEP_TRIALS):
        spec, g, points, label = _draw_trial(rng, variant)
        bound = etk_bound(spec, g, points, variant)
        out.append((spec, g, label, bound, bound.total - oracle(points).value))
    return out


@pytest.fixture(scope="module")
def extreme_sweep():
    t0 = time.perf_counter()
    trials = _sweep(EXTREME, EXTREME_SWEEP_SEED)
    return trials, time.perf_counter() - t0


def test_criterion_1_extreme_domination(extreme_sweep):
    """Bound dominates the exact extreme discrepancy on 100 seeded configs."""
    trials, build_seconds = extreme_sweep
    t0 = time.perf_counter() - build_seconds
    margins = [margin for *_, margin in trials]
    bad = [label for _, _, label, _, margin in trials if margin < MARGIN_SLACK]
    ok = not bad
    _announce(1, ok, f"extreme domination, {len(margins)} trials, min margin {min(margins):.3e}", t0)
    assert ok, f"domination violated: {bad}"


def test_criterion_2_star_domination():
    """Bound dominates the exact star discrepancy, dimensions up to three."""
    t0 = time.perf_counter()
    sweep = _sweep(STAR, STAR_SWEEP_SEED)
    margins = [margin for *_, margin in sweep]
    assert any(spec.s == 3 for spec, *_ in sweep)
    bad = [label for _, _, label, _, margin in sweep if margin < MARGIN_SLACK]
    ok = not bad
    _announce(2, ok, f"star domination, {len(margins)} trials, min margin {min(margins):.3e}", t0)
    assert ok, f"domination violated: {bad}"


def test_criterion_3_full_period_exactness():
    """Full-period van der Corput: zero sums, bound equals oracle, ratio one."""
    t0 = time.perf_counter()
    worst_abs = 0.0
    cases = 0
    for base in (2, 3):
        for tag in ("walsh", "badic"):
            for g in range(1, 5):
                rep, disc = full_period_report(base, g, tag)
                for _, _, abs_sum in rep.per_index:
                    worst_abs = max(worst_abs, abs_sum)
                    assert abs_sum <= 1e-14
                want = Fraction(1, base**g)
                assert rep.total == rep.epsilon == float(want)
                assert disc.exact == want
                assert rep.total / disc.value == 1.0
                cases += 1
    _announce(3, True, f"full-period exactness, {cases} cases, max |S_N| = {worst_abs:.1e}", t0)


def test_full_period_report_exactness():
    rep, disc = full_period_report(2, 3, "walsh")
    assert rep.total == disc.value == 0.125
    assert rep.max_abs_sum == 0.0


def test_criterion_4_orthonormality():
    t0 = time.perf_counter()
    res = check_orthonormality()
    assert _TOL == 1e-12
    _announce(4, res.ok, f"orthonormality, {res.checks} pairs within 1e-12", t0)
    assert res.ok, res.failures[:5]


def test_criterion_5_fourier_coefficients():
    t0 = time.perf_counter()
    res = check_fourier()
    _announce(5, res.ok, f"fourier coefficients, {res.checks} comparisons within 1e-12", t0)
    assert res.ok, res.failures[:5]


def test_criterion_6_pointwise_reconstruction():
    t0 = time.perf_counter()
    res = check_reconstruction()
    assert _SUM_TOL == 1e-10
    _announce(6, res.ok, f"pointwise reconstruction, {res.checks} grid probes within 1e-10", t0)
    assert res.ok, res.failures[:5]


def test_criterion_7_fc_estimate():
    t0 = time.perf_counter()
    res = check_fc_bounds(bases=(2, 3, 5), depth=4)
    _announce(7, res.ok, f"fc estimate, {res.checks} coefficients under the cap", t0)
    assert res.ok, res.failures[:5]


def test_criterion_8_weight_identities(extreme_sweep):
    t0 = time.perf_counter()
    res = check_weights()
    assert res.ok, res.failures[:5]
    for b in range(2, 101):
        assert cb_constant(b) < (2.0 / math.pi) * math.log(b) + 0.4
    # closed-form corollary dominates the streamed bound at B = max |S_N|
    worst_gap = math.inf
    for spec, g, label, bound, _ in extreme_sweep[0]:
        closed = corollary_bound(bound.max_abs_sum, spec.bases, g, EXTREME)
        worst_gap = min(worst_gap, closed - bound.total)
        assert closed >= bound.total - 1e-12, label
    _announce(8, True, f"weight identities, min corollary gap {worst_gap:.3e}", t0)


def test_criterion_9_epsilon_truncation_caps(extreme_sweep):
    """epsilon <= 2 s delta and the anchored version <= s delta, exactly."""
    t0 = time.perf_counter()
    trials, _ = extreme_sweep
    for spec, g, label, *_ in trials:
        s = spec.s
        delta = max(Fraction(1, b**gi) for b, gi in zip(spec.bases, g))
        assert epsilon_fraction(spec.bases, g) <= 2 * s * delta, label
        assert epsilon_fraction(spec.bases, g, star=True) <= s * delta, label
    _announce(9, True, f"epsilon truncation caps, {len(trials)} configs exact", t0)
