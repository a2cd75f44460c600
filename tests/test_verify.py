"""The verification suites themselves, at reduced trial counts."""

import numpy as np
import pytest

from etkbound.badic import DigitColumn
from etkbound.bounds import EXTREME, STAR
from etkbound.fourier import elint_partition
from etkbound.verify import (
    SUITES,
    check_fc_bounds,
    check_fourier,
    check_orthonormality,
    check_reconstruction,
    check_weights,
    domination_sweep,
    full_period_report,
    run_suites,
)


def test_orthonormality_suite_clean():
    res = check_orthonormality()
    assert res.ok and res.checks > 1000


def test_fourier_suite_clean():
    assert check_fourier().ok
    assert check_reconstruction().ok


def test_fc_suite_small_depth():
    res = check_fc_bounds(bases=(2, 3), depth=3)
    assert res.ok and res.checks == 2 * (7 * 8 + 26 * 27)


@pytest.mark.parametrize("base", [2, 3, 5])
@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_fc_anchors_are_the_digit_reversed_integers(base, depth):
    """Row a of the fc-bounds anchors is the lower corner of the a-th cell by value."""
    cells = sorted(elint_partition((base,), (depth,)), key=lambda e: e.lower[0])
    want = DigitColumn.from_vectors([e.anchor_digits()[0] for e in cells], base).digits
    got = DigitColumn.from_integers(np.arange(base**depth), base).digits[:, ::-1]
    assert np.array_equal(got, want)


def test_weights_suite_clean():
    res = check_weights()
    assert res.ok


def test_domination_sweep_small():
    for variant in (EXTREME, STAR):
        res = domination_sweep(variant, trials=8, seed=42)
        assert res.ok
        assert res.checks == 3 * 8  # domination + truncation + corollary per trial
        assert "seed=42" in res.summary


def test_domination_sweep_is_deterministic():
    a = domination_sweep(EXTREME, trials=5, seed=9)
    b = domination_sweep(EXTREME, trials=5, seed=9)
    assert a.summary == b.summary


def test_full_period_report_exactness():
    rep, disc = full_period_report(2, 3, "walsh")
    assert rep.total == disc.value == 0.125
    assert rep.max_abs_sum == 0.0


def test_run_suites_dispatch():
    names = {r.name for r in run_suites("all", trials=2, seed=1)}
    assert {"orthonormality", "fourier", "reconstruction", "fc-bounds", "weights"} <= names
    assert any(n.startswith("domination") for n in names)
    with pytest.raises(ValueError):
        run_suites("spectral")
    assert "all" in SUITES
