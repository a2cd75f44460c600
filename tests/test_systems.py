"""Exact phases of the Walsh, b-adic, and hybrid function systems."""

import cmath
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from etkbound.badic import (
    DigitVector,
    enumerate_delta,
    int_digits,
    vb,
)
from etkbound.fourier import elint_fourier_coeff, elint_partition
from etkbound.reference import (
    add_with_carry,
    add_without_carry,
    is_balanced,
    phase_counter_sum,
    radical_inverse,
    xi_eval,
)
from etkbound.systems import (
    BADIC,
    WALSH,
    HybridSystemSpec,
    PhaseFraction,
    chi_phase,
    phase_rows,
    walsh_phase,
    xi_phase,
)
from etkbound.verify import _FOURIER_CONFIGS


def test_phase_fraction_normalizes_mod_one():
    assert PhaseFraction(5, 4) == PhaseFraction(1, 4)
    assert PhaseFraction(-1, 4) == PhaseFraction(3, 4)
    assert PhaseFraction(2, 4) == PhaseFraction(1, 2)


def test_phase_fraction_conjugate():
    assert PhaseFraction(1, 3).conjugate() == PhaseFraction(2, 3)
    assert PhaseFraction(0, 1).conjugate() == PhaseFraction(0, 1)


def test_quarter_phases_are_exact_complex():
    assert PhaseFraction(0, 1).to_complex() == 1 + 0j
    assert PhaseFraction(1, 2).to_complex() == -1 + 0j
    assert PhaseFraction(1, 4).to_complex() == 1j
    assert PhaseFraction(3, 4).to_complex() == -1j


def test_generic_phase_matches_cmath():
    for num, den in [(1, 3), (2, 5), (5, 7)]:
        got = PhaseFraction(num, den).to_complex()
        want = cmath.exp(2j * cmath.pi * num / den)
        assert abs(got - want) < 1e-15


def test_walsh_phase_values():
    # b=3, k=2, x = 2/3: phase (2*2)/3 = 1/3 after reduction mod 1
    x = DigitVector(3, (2,))
    assert walsh_phase(2, x, 3) == PhaseFraction(1, 3)
    # k=0 is the constant function
    assert walsh_phase(0, x, 3) == PhaseFraction(0, 1)


def _phase_sum(p, q):
    """The phase of e(p) e(q)."""
    return PhaseFraction(p.numerator * q.modulus + q.numerator * p.modulus, p.modulus * q.modulus)


def test_walsh_phase_is_digitwise():
    """Adding digit vectors without carry multiplies Walsh values."""
    base, k = 3, 7
    for a in range(9):
        for b in range(9):
            u = DigitVector.from_int(a, base, precision=2)
            v = DigitVector.from_int(b, base, precision=2)
            w = add_without_carry(u, v)
            assert walsh_phase(k, w, base) == _phase_sum(walsh_phase(k, u, base), walsh_phase(k, v, base))


def test_chi_phase_character_property():
    """chi_k is a character: additive with carry in the argument."""
    base, k = 2, 3
    for a in range(8):
        for b in range(8):
            u = DigitVector.from_int(a, base, precision=5)
            v = DigitVector.from_int(b, base, precision=5)
            w = add_with_carry(u, v)
            assert chi_phase(k, w, base) == _phase_sum(chi_phase(k, u, base), chi_phase(k, v, base))


def test_chi_phase_value():
    # k=3 in base 2: radical inverse 3/4, z = 1 + 0*2 -> phase 3/4
    z = DigitVector(2, (1, 0))
    assert chi_phase(3, z, 2) == PhaseFraction(3, 4)


def test_gamma_phase_value():
    x = DigitVector(2, (1, 0))
    assert chi_phase(2, x, 2) == PhaseFraction(1, 4)
    assert chi_phase(2, x, 2).to_complex() == 1j


def test_phase_depends_on_vb_digits_only():
    """Index at level t reads exactly t digits of the point."""
    base, k = 2, 3  # vb = 2
    x1 = DigitVector(base, (1, 1, 0, 0))
    x2 = DigitVector(base, (1, 1, 1, 1))
    assert chi_phase(k, x1, base) == chi_phase(k, DigitVector(base, (1, 1)), base)
    assert walsh_phase(k, x1, base) == walsh_phase(k, x2, base)


def test_hybrid_spec_validation():
    with pytest.raises(ValueError):
        HybridSystemSpec(((2, "fourier"),))
    with pytest.raises(ValueError):
        HybridSystemSpec(((1, WALSH),))
    with pytest.raises(ValueError):
        HybridSystemSpec(())


def test_xi_phase_is_product_of_coordinates():
    spec = HybridSystemSpec(((2, WALSH), (2, BADIC)))
    x = (DigitVector(2, (1,)), DigitVector(2, (1,)))
    # walsh: 1*1/2, badic: k=2 at z=1 -> 1/4; total 3/4
    assert xi_phase(spec, (1, 2), x) == PhaseFraction(3, 4)
    assert xi_eval(spec, (1, 2), x) == -1j


def test_xi_phase_index_zero_is_one():
    spec = HybridSystemSpec(((3, BADIC), (2, WALSH)))
    x = (DigitVector(3, (2, 1)), DigitVector(2, (1,)))
    assert xi_eval(spec, (0, 0), x) == 1 + 0j


def test_phase_counter_sum_exact_coset_zero():
    """A full coset of a cyclic phase subgroup sums to exactly zero."""
    phases = [PhaseFraction(j, 5) for j in range(5)]
    total = phase_counter_sum(Counter(phases))
    assert total == 0j
    doubled = phase_counter_sum({p: 2 for p in phases})
    assert doubled == 0j


def test_phase_counter_sum_offset_coset_is_zero():
    phases = [PhaseFraction(1 + 3 * j, 9) for j in range(3)]  # coset of the order-3 subgroup
    assert phase_counter_sum(Counter(phases)) == 0j


def test_phase_counter_sum_generic():
    counts = {PhaseFraction(0, 1): 2, PhaseFraction(1, 3): 1}
    got = phase_counter_sum(counts)
    want = 2 + cmath.exp(2j * cmath.pi / 3)
    assert abs(got - want) < 1e-15


def test_phase_counter_sum_quarter_exact():
    counts = {PhaseFraction(1, 4): 3, PhaseFraction(1, 2): 1}
    assert phase_counter_sum(counts) == -1 + 3j


def test_walsh_full_period_sum_vanishes():
    """Sum over one period of any nonzero Walsh index is exactly zero."""
    base, g = 3, 2
    for k in range(1, base**g):
        phases = [
            walsh_phase(k, DigitVector.from_int(n, base, precision=g), base)
            for n in range(base**g)
        ]
        assert phase_counter_sum(Counter(phases)) == 0j


@st.composite
def digit_columns(draw):
    """A base, a resolution g and a column of digit vectors shorter and longer than g.

    Bases run from 2 to 7 plus 11, and g up to 6 with b^g <= 4096, so the
    kernel meets odd and even g and a base whose digits pass 10.
    """
    base = draw(st.sampled_from((2, 3, 4, 5, 6, 7, 11)))
    g = draw(st.integers(1, max(h for h in range(1, 7) if base**h <= 4096)))
    digits = st.lists(st.integers(0, base - 1), max_size=g + 2)
    column = draw(st.lists(digits.map(lambda d: DigitVector(base, tuple(d))), min_size=1, max_size=5))
    return base, g, column


@given(digit_columns(), st.sampled_from((WALSH, BADIC)))
@settings(deadline=None)
def test_phase_table_kernel_matches_scalar_phases(case, tag):
    base, g, column = case
    modulus = base**g
    table = phase_rows(np.array([x.as_integer(g) for x in column]), base, tag, g, 0, modulus)
    assert table.shape == (modulus, len(column))
    scalar = walsh_phase if tag == WALSH else chi_phase
    assert 0 <= table.min() and table.max() < modulus
    for k in range(modulus):
        for i, x in enumerate(column):
            assert PhaseFraction(int(table[k, i]), modulus) == scalar(k, x, base)


@st.composite
def residue_multisets(draw):
    """Residues mod M: either a (possibly disturbed) repeated full coset, or arbitrary."""
    modulus = draw(st.integers(1, 60))
    if draw(st.booleans()):
        d = draw(st.sampled_from([d for d in range(1, modulus + 1) if modulus % d == 0]))
        r0 = draw(st.integers(0, modulus - 1))
        residues = [(r0 + j * (modulus // d)) % modulus for j in range(d)]
        residues *= draw(st.integers(1, 3))
        residues += draw(st.lists(st.integers(0, modulus - 1), max_size=2))
    else:
        residues = draw(st.lists(st.integers(0, modulus - 1), min_size=1, max_size=12))
    return modulus, draw(st.permutations(residues))


@given(residue_multisets())
@example((4, [0, 0, 2, 2, 1, 3]))  # half-turn pairs of different multiplicities: balanced
@example((12, [0, 0, 6, 6, 0, 4, 8]))  # a pair and a triangle: sums to 0, but not balanced
def test_balance_detector_matches_fraction_rotation(case):
    """True exactly when the phase multiset is invariant under rotation by 1/p, p prime, p | M.

    Such a multiset splits into rotated regular p-gons, so its sum of e(phase)
    is exactly 0.  Every full coset (invariant under rotation by 1/d, d >= 2,
    d the number of distinct phases) is balanced.
    """
    modulus, residues = case
    phases = Counter(Fraction(r, modulus) for r in residues)

    def invariant(d):
        return Counter({(fr + Fraction(1, d)) % 1: n for fr, n in phases.items()}) == phases

    primes = [p for p in range(2, modulus + 1) if modulus % p == 0]
    primes = [p for p in primes if all(p % q for q in range(2, p))]
    want = any(map(invariant, primes))
    assert is_balanced(np.array(residues), modulus) == want
    if len(phases) >= 2 and invariant(len(phases)):
        assert want
    if want:
        assert abs(sum(cmath.exp(2j * cmath.pi * r / modulus) for r in residues)) < 1e-12


@st.composite
def weighted_residues(draw):
    """A modulus in 2..60 and residues (unreduced, repeats allowed) with counts 1..5;
    half the time made invariant by one rotation of prime order, with its counts."""
    modulus = draw(st.integers(2, 60))
    pair = st.tuples(st.integers(0, 2 * modulus), st.integers(1, 5))
    pairs = draw(st.lists(pair, min_size=1, max_size=10))
    if draw(st.booleans()):
        p = draw(st.sampled_from([p for p in range(2, modulus + 1) if modulus % p == 0]))
        pairs = [(r + j * (modulus // p), n) for r, n in pairs for j in range(p)]
    return modulus, draw(st.permutations(pairs))


@given(weighted_residues())
@example((12, [(0, 3), (4, 1), (6, 2), (8, 1)]))  # {0,0,0,4,6,6,8}: sums to 0, not balanced
@example((4, [(0, 2), (2, 2), (1, 1), (3, 1)]))  # half-turn pairs of different counts
@example((6, [(1, 2), (1, 2), (4, 4)]))  # counts of one residue split over two entries
@example((12, [(0, 1), (6, 2)]))  # balanced as a set, not as a multiset
def test_weighted_balance_test_matches_the_expanded_multiset(case):
    modulus, pairs = case
    residues, counts = (np.array(column) for column in zip(*pairs))
    want = is_balanced(np.repeat(residues, counts), modulus)
    assert is_balanced(residues, modulus, counts) == want
    assert is_balanced(residues, modulus, np.full(len(residues), 3)) == is_balanced(residues, modulus)


def test_weighted_balance_test_is_still_incomplete_for_mixed_moduli():
    """{0,0,0,4,6,6,8} mod 12 is a pair plus a triangle: its sum vanishes, but no
    rotation of prime order fixes it, so the test says False, as before."""
    residues, counts = np.array([0, 4, 6, 8]), np.array([3, 1, 2, 1])
    assert abs(sum(n * cmath.exp(2j * cmath.pi * r / 12) for r, n in zip(residues, counts))) < 1e-12
    assert not is_balanced(residues, 12, counts)


@given(digit_columns(), st.sampled_from((WALSH, BADIC)), st.data())
@settings(deadline=None)
def test_phase_table_rows_are_rows_of_the_full_table(at_both_block_sizes, case, tag, data):
    """Each block of rows, in any order and overlapping, is those rows of the whole table,
    with index digits in blocks of badic's size and of one row."""
    base, g, column = case
    cells = np.array([x.as_integer() for x in column])
    full = phase_rows(cells, base, tag, g, 0, base**g)
    assert full.shape == (base**g, len(column))
    bound = st.integers(0, base**g)
    for start in data.draw(st.lists(bound, max_size=4)):
        stop = data.draw(st.integers(start, base**g))
        block = at_both_block_sizes(lambda *args: phase_rows(*args).tolist(), cells, base, tag, g, start, stop)
        assert np.array_equal(np.array(block, dtype=np.int64).reshape(stop - start, len(column)), full[start:stop])


@given(st.sampled_from((2, 3, 4, 5, 6, 7, 11)), st.sampled_from((WALSH, BADIC)), st.data())
@settings(deadline=None)
def test_phase_table_reads_only_the_cells_low_digits(base, tag, data):
    """Cells past b^g give the columns of their residues mod b^g, as _xi_table's refined cells need."""
    g = data.draw(st.integers(1, max(h for h in range(1, 7) if base**h <= 4096)))
    cells = np.array(data.draw(st.lists(st.integers(0, base ** (g + 3) - 1), min_size=1, max_size=8)))
    full = phase_rows(cells, base, tag, g, 0, base**g)
    assert np.array_equal(full, phase_rows(cells % base**g, base, tag, g, 0, base**g))


@pytest.mark.parametrize("base, g, n", [(2, 20, 2), (2, 12, 1024), (3, 7, 2187), (65536, 1, 16)])
@pytest.mark.parametrize("tag", [WALSH, BADIC])
def test_phase_table_scratch_stays_within_a_quarter_of_the_table(base, g, n, tag, peak_mib):
    """The whole table's tracemalloc peak is at most 1.25 tables + 1 MiB: its
    index digits come in blocks of badic._BLOCK_BYTES, where one b^g x g
    matrix of them took two points at g = 20 to 20 tables."""
    table_mib = base**g * n * 8 / 2**20
    assert peak_mib(phase_rows, np.arange(n), base, tag, g, 0, base**g) <= 1.25 * table_mib + 1


@pytest.mark.parametrize("indices", [(9, 9), (-1, 3), (0, 9), (3, 2)])
def test_phase_table_rejects_rows_outside_the_index_box(indices):
    with pytest.raises(ValueError, match="not within the index box"):
        phase_rows(np.arange(4), 2, BADIC, 3, *indices)


@pytest.mark.parametrize("g, k", [(1, -1), (1, 2), (3, -1), (3, 8)])
def test_phase_table_rejects_an_index_outside_the_box(g, k):
    with pytest.raises(ValueError, match="not within the index box"):
        phase_rows(np.arange(4), 2, BADIC, g, k, k + 1)


# The scalar phases in Fraction arithmetic, written from the definitions:
# independent references for the integer numerators of the properties below.


def _walsh_fraction(k, x, base):
    return Fraction(sum(kj * x.digit(j) for j, kj in enumerate(int_digits(k, base))), base) % 1


def _chi_fraction(k, z, base):
    return radical_inverse(k, base) * z.as_integer(vb(k, base)) % 1


def _xi_fraction(spec, k, x):
    total = Fraction(0)
    for ki, xi, (base, tag) in zip(k, x, spec.coordinates):
        total += (_walsh_fraction if tag == WALSH else _chi_fraction)(ki, xi, base)
    return total % 1


def _phase(fr):
    """The PhaseFraction of a Fraction."""
    return PhaseFraction(fr.numerator, fr.denominator)


def _unit(fr):
    """e(fr) as PhaseFraction.to_complex computes it from a reduced Fraction."""
    if fr.denominator in (1, 2, 4):
        return {0: 1 + 0j, 1: 1j, 2: -1 + 0j, 3: -1j}[fr.numerator * (4 // fr.denominator)]
    t = 2.0 * math.pi * fr.numerator / fr.denominator
    return complex(math.cos(t), math.sin(t))


def _bits(z):
    return z.real.hex(), z.imag.hex()


@st.composite
def coordinates(draw, base=None):
    """A base in 2..7, an index up to b^6 and a digit vector shorter or longer than its vb."""
    base = draw(st.integers(2, 7)) if base is None else base
    k = draw(st.integers(0, base**6))
    digits = draw(st.lists(st.integers(0, base - 1), max_size=8))
    return base, k, DigitVector(base, tuple(digits))


@given(st.integers(-(7**7), 7**7), st.integers(1, 7**6))
@example(0, 1)
@example(0, 12)
@example(-3, 4)
@example(-12, 6)
@example(12, 8)
def test_phase_fraction_matches_fraction_mod_one(a, m):
    want = Fraction(a, m) % 1
    phase = PhaseFraction(a, m)
    assert (phase.numerator, phase.modulus) == (want.numerator, want.denominator)
    assert phase == _phase(Fraction(a, m))
    assert hash(phase) == hash(_phase(want))
    conjugate, negated = phase.conjugate(), -want % 1
    assert (conjugate.numerator, conjugate.modulus) == (negated.numerator, negated.denominator)


def test_phase_fraction_rejects_what_fraction_rejects():
    with pytest.raises(TypeError):
        PhaseFraction(1.5, 4)
    with pytest.raises(ValueError):
        PhaseFraction(1, 0)


@given(coordinates())
@example((2, 0, DigitVector(2, ())))
@example((7, 7**6, DigitVector(7, (6,) * 8)))
def test_chi_phase_matches_the_fraction_formula(case):
    base, k, z = case
    assert chi_phase(k, z, base) == _phase(_chi_fraction(k, z, base))
    assert walsh_phase(k, z, base) == _phase(_walsh_fraction(k, z, base))


@given(
    st.lists(coordinates(), min_size=1, max_size=3),
    st.lists(st.sampled_from((WALSH, BADIC)), min_size=3, max_size=3),
)
def test_xi_phase_is_the_fraction_sum_of_its_coordinates(cases, tags):
    spec = HybridSystemSpec(tuple((base, tag) for (base, _, _), tag in zip(cases, tags)))
    k = tuple(ki for _, ki, _ in cases)
    x = tuple(xi for _, _, xi in cases)
    phase = xi_phase(spec, k, x)
    assert phase == _phase(_xi_fraction(spec, k, x))
    assert _bits(xi_eval(spec, k, x)) == _bits(_unit(_xi_fraction(spec, k, x)))


def _counter_sum_fraction(counts):
    """phase_counter_sum as it was written on Fractions."""
    items = [(Fraction(p.numerator, p.modulus), n) for p, n in counts.items() if n]
    modulus = math.lcm(*(fr.denominator for fr, _ in items))
    residues = [fr.numerator * (modulus // fr.denominator) for fr, _ in items]
    if is_balanced(np.repeat(residues, [n for _, n in items]), modulus):
        return 0j
    if all(fr.denominator in (1, 2, 4) for fr, _ in items):
        return complex(sum(n * _unit(fr) for fr, n in items))
    re = math.fsum(n * math.cos(2.0 * math.pi * float(fr)) for fr, n in items)
    im = math.fsum(n * math.sin(2.0 * math.pi * float(fr)) for fr, n in items)
    return complex(re, im)


@given(
    st.dictionaries(
        st.builds(PhaseFraction, st.integers(-50, 50), st.sampled_from((1, 2, 3, 4, 6, 8, 12, 25))),
        st.integers(0, 4),
        min_size=1,
    )
)
def test_phase_counter_sum_matches_the_fraction_formula(counts):
    assert _bits(phase_counter_sum(counts)) == _bits(_counter_sum_fraction(counts))


@pytest.mark.parametrize("spec, g", _FOURIER_CONFIGS)
def test_elint_coefficients_match_the_fraction_formula_bit_for_bit(spec, g):
    """Every (elint, index) pair of the fourier suite: measure * conj(e(phase))."""
    for e in elint_partition(spec.bases, g):
        anchor = e.anchor_digits()
        for k in enumerate_delta(spec.bases, tuple(gi + 1 for gi in g)):
            if any(ki >= b**gi for ki, b, gi in zip(k, spec.bases, g)):
                want = 0j
            else:
                measure = Fraction(1, math.prod(b**gi for b, gi in zip(e.bases, e.g)))
                want = float(measure) * _unit(-_xi_fraction(spec, k, anchor) % 1)
            assert _bits(elint_fourier_coeff(e, k, spec)) == _bits(want)
