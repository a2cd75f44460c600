"""Elint Fourier coefficients, interval coefficients, and the FC estimate."""

import math
from fractions import Fraction

import pytest

from etkbound.badic import DigitVector, enumerate_delta
from etkbound.fourier import (
    Elint,
    elint_contains,
    elint_fourier_coeff,
    elint_partition,
    fc_upper_bound,
    partition_inner_product,
)
from etkbound.reference import (
    BadicInterval,
    anchored_fourier_coeff,
    interval_fourier_coeff,
    reconstruct_indicator,
    step_representation,
)
from etkbound.systems import BADIC, WALSH, HybridSystemSpec


W2 = HybridSystemSpec.single(2, WALSH)
B2 = HybridSystemSpec.single(2, BADIC)


def test_elint_geometry():
    e = Elint((2, 3), (1, 1), (1, 2))
    assert e.lower == (Fraction(1, 2), Fraction(2, 3))
    assert e.widths == (Fraction(1, 2), Fraction(1, 3))
    assert e.measure == Fraction(1, 6)
    assert e.anchor_digits()[0] == DigitVector(2, (1,))


def test_elint_rejects_out_of_range_anchor():
    with pytest.raises(ValueError):
        Elint((2,), (1,), (2,))


def test_elint_partition_tiles_the_cube():
    cells = list(elint_partition((2, 3), (1, 1)))
    assert len(cells) == 6
    assert sum(c.measure for c in cells) == 1
    x = (Fraction(3, 4), Fraction(1, 3))
    assert sum(elint_contains(c, x) for c in cells) == 1


def test_elint_contains_digit_vectors():
    e = Elint((2,), (2,), (2,))  # anchor digits (0,1), box [1/4, 1/2)
    assert elint_contains(e, (DigitVector(2, (0, 1)),))
    assert not elint_contains(e, (DigitVector(2, (1, 1)),))


def test_elint_coeff_frozen_value():
    # base 2 walsh, cell [1/2,1), k=1: (1/2) * conj(-1) = -0.5
    e = Elint((2,), (1,), (1,))
    assert elint_fourier_coeff(e, (1,), W2) == -0.5


def test_elint_coeff_zero_outside_box_exactly():
    e = Elint((2,), (1,), (0,))
    assert elint_fourier_coeff(e, (2,), W2) == 0j
    assert elint_fourier_coeff(e, (5,), B2) == 0j


def test_elint_coeff_at_zero_index_is_measure():
    e = Elint((3,), (2,), (4,))
    assert elint_fourier_coeff(e, (0,), HybridSystemSpec.single(3, BADIC)) == complex(1, 0) / 9
    # 1/3 * 1/25 rounds twice and misses float(1/75) by an ulp
    e = Elint((3, 5), (1, 2), (2, 7))
    spec = HybridSystemSpec(((3, WALSH), (5, BADIC)))
    assert elint_fourier_coeff(e, (0, 0), spec) == float(e.measure)


def test_step_representation_sums_to_zero():
    for spec in (W2, B2, HybridSystemSpec.single(3, WALSH)):
        for k in (1, 2, 3):
            pieces = step_representation((k,), spec)
            total = sum(v * complex(e.measure) for e, v in pieces)
            assert abs(total) < 1e-15


def test_step_representation_zero_component():
    spec = HybridSystemSpec(((2, WALSH), (2, BADIC)))
    pieces = step_representation((0, 1), spec)
    # constant in the first coordinate: one cell along it
    assert len(pieces) == 2


def test_badic_interval_validation():
    BadicInterval((2,), (2,), ((1, 3),))
    with pytest.raises(ValueError):
        BadicInterval((2,), (2,), ((3, 1),))
    with pytest.raises(ValueError):
        BadicInterval((2,), (2,), ((0, 5),))


def test_anchored_coeff_zero_index_is_length():
    assert anchored_fourier_coeff(Fraction(3, 8), 0, 2, WALSH) == complex(0.375)


def test_anchored_coeff_half_interval():
    # [0, 1/2) against w_1: the k=1 walsh function is 1 on the whole interval
    got = anchored_fourier_coeff(Fraction(1, 2), 1, 2, WALSH)
    assert got == 0.5


def test_anchored_coeff_matches_riemann_sum():
    """Fine Riemann sums converge to the closed-form coefficient."""
    base, k, beta = 3, 5, Fraction(7, 13)
    for tag in (WALSH, BADIC):
        spec = HybridSystemSpec.single(base, tag)
        coeff = anchored_fourier_coeff(beta, k, base, tag)
        n = 3**7
        total = 0j
        from etkbound.reference import monna_pseudoinverse
        from etkbound.systems import xi_phase

        for j in range(math.floor(beta * n)):
            x = (monna_pseudoinverse(Fraction(j, n), base),)
            # conj xi_k on the cell [j/n, (j+1)/n), constant there
            total += xi_phase(spec, (k,), x).conjugate().to_complex()
        approx = total / n
        # the last partial cell is shorter than 1/n, so the error is below 1/n
        assert abs(coeff - approx) < 1.0 / n


def test_interval_coeff_is_anchored_difference():
    I = BadicInterval((2,), (3,), ((2, 7),))
    for k in (0, 1, 3, 6):
        got = interval_fourier_coeff(I, (k,), B2)
        want = anchored_fourier_coeff(Fraction(7, 8), k, 2, BADIC) - anchored_fourier_coeff(
            Fraction(2, 8), k, 2, BADIC
        )
        assert abs(got - want) < 1e-15


def test_interval_coeff_product_structure():
    spec = HybridSystemSpec(((2, WALSH), (3, BADIC)))
    I = BadicInterval((2, 3), (2, 1), ((1, 3), (0, 2)))
    got = interval_fourier_coeff(I, (2, 1), spec)
    f1 = anchored_fourier_coeff(Fraction(3, 4), 2, 2, WALSH) - anchored_fourier_coeff(
        Fraction(1, 4), 2, 2, WALSH
    )
    f2 = anchored_fourier_coeff(Fraction(2, 3), 1, 3, BADIC)
    assert abs(got - f1 * f2) < 1e-15


def test_reconstruct_indicator_frozen_point():
    e = Elint((2,), (1,), (1,))  # [1/2, 1)
    x = (DigitVector(2, (1, 1)),)  # 3/4
    assert abs(reconstruct_indicator(e, W2, x) - 1.0) < 1e-12


def test_reconstruct_indicator_mixed_tags_grid():
    spec = HybridSystemSpec(((2, BADIC), (3, WALSH)))
    g = (1, 1)
    for e in elint_partition(spec.bases, g):
        for cell in elint_partition(spec.bases, (2, 2)):
            x = cell.anchor_digits()
            want = 1.0 if elint_contains(e, x) else 0.0
            assert abs(reconstruct_indicator(e, spec, x) - want) < 1e-10


def test_fc_upper_bound_values():
    assert fc_upper_bound(1, 2) == 0.5
    assert abs(fc_upper_bound(2, 2) - 0.25) < 1e-15
    # k=5 in base 3: two digits, lead 1 -> 1/(9 sin(pi/3))
    assert abs(fc_upper_bound(5, 3) - 1.0 / (9 * math.sin(math.pi / 3))) < 1e-15
    with pytest.raises(ValueError):
        fc_upper_bound(0, 2)


def test_fc_bound_dominates_anchored_coeffs():
    base = 3
    for tag in (WALSH, BADIC):
        for k in range(1, 27):
            cap = fc_upper_bound(k, base)
            for a in range(1, 27):
                coeff = anchored_fourier_coeff(Fraction(a, 27), k, base, tag)
                assert abs(coeff) <= cap + 1e-12


def test_partition_inner_product_orthonormality_small():
    spec = HybridSystemSpec(((2, WALSH), (3, BADIC)))
    g = (1, 1)
    ks = list(enumerate_delta(spec.bases, g))
    for k in ks:
        for l in ks:
            ip = partition_inner_product(spec, g, k, l)
            want = 1.0 if k == l else 0.0
            assert abs(ip - want) <= 1e-12


def test_partition_inner_product_requires_in_box_indices():
    with pytest.raises(ValueError):
        partition_inner_product(W2, (1,), (2,), (0,))
