"""Self-tests of the machine-speed scaling.

Run with: python3 -m pytest perfbench/test_speed.py
"""

import pytest

from speed import REFERENCE_NOMINAL_S, scaled


def test_scaled_at_nominal_speed_is_the_wall_time():
    assert scaled(2.5, REFERENCE_NOMINAL_S, REFERENCE_NOMINAL_S) == pytest.approx(2.5)


def test_scaled_uses_the_mean_of_the_bracketing_passes():
    # the machine ran at half the nominal speed: the loop took twice as long
    slow = 2 * REFERENCE_NOMINAL_S
    assert scaled(4.0, slow, slow) == pytest.approx(2.0)
    assert scaled(3.0, REFERENCE_NOMINAL_S, 2 * REFERENCE_NOMINAL_S) == pytest.approx(2.0)
