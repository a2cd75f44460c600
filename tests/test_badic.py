"""Digit vectors, the Monna map, and index-box enumeration."""

import io
from fractions import Fraction

import numpy as np
import pytest

from etkbound.badic import (
    BudgetExceededError,
    DigitColumn,
    DigitVector,
    delta_size,
    enumerate_delta,
    int_digits,
    monna,
    vb,
)
from etkbound.pointfile import read_point_set, write_point_set
from etkbound.reference import (
    add_with_carry,
    add_without_carry,
    digit_column,
    monna_pseudoinverse,
    radical_inverse,
)
from etkbound.sequences import DigitalConfig, GeneratorMatrix, HaltonConfig, PointSet, VdcConfig


def test_int_digits_least_significant_first():
    assert int_digits(6, 2) == (0, 1, 1)
    assert int_digits(0, 2) == ()
    assert int_digits(5, 3, length=4) == (2, 1, 0, 0)


def test_int_digits_rejects_short_length():
    with pytest.raises(ValueError):
        int_digits(9, 2, length=2)


@pytest.mark.parametrize(
    "k,base,t",
    [(1, 2, 1), (2, 2, 2), (3, 2, 2), (4, 2, 3), (8, 3, 2), (9, 3, 3), (80, 3, 4)],
)
def test_vb_digit_length(k, base, t):
    assert vb(k, base) == t
    assert base ** (t - 1) <= k < base**t


def test_vb_edge_cases():
    assert vb(0, 2) == 0
    with pytest.raises(ValueError):
        vb(-1, 2)


def test_digit_vector_trailing_zeros_do_not_matter():
    a = DigitVector(2, (1, 0, 1))
    b = DigitVector(2, (1, 0, 1, 0, 0))
    assert a == b
    assert hash(a) == hash(b)
    assert a.digit(7) == 0


def test_value_ranks_order_rows_by_value():
    """uint16 digits 255 and 256 differ in their low byte the other way round."""
    digits = [(5, 256), (5,), (), (5, 255, 7), (4, 999), (5, 256, 0), (0, 1)]
    vectors = [DigitVector(1000, d) for d in digits]
    nums, ranks = digit_column(vectors, 1000).value_ranks()
    assert all(type(x) is int for x in nums)
    values = [Fraction(x, 1000**3) for x in nums]  # the widest vector has 3 digits
    assert values == sorted({v.value for v in vectors})
    assert [values[r] for r in ranks] == [v.value for v in vectors]
    # a column of width 0 holds only the value 0, over b^0 = 1
    nums, ranks = digit_column([DigitVector(2, ())] * 2, 2).value_ranks()
    assert (nums, ranks.tolist()) == ([0], [0, 0])


def test_digit_vector_value_and_as_integer():
    z = DigitVector(3, (2, 0, 1))
    # 2/3 + 0/9 + 1/27
    assert monna(z) == Fraction(19, 27)
    assert z.value == Fraction(19, 27)
    assert z.as_integer() == 2 + 0 * 3 + 1 * 9
    assert z.as_integer(2) == 2


def test_digit_vector_rejects_bad_digits():
    with pytest.raises(ValueError):
        DigitVector(2, (0, 2))
    with pytest.raises(ValueError):
        DigitVector(1, (0,))


# pseudoinverse of the terminating expansion, digits checked by hand
@pytest.mark.parametrize(
    "x,base,digits",
    [
        (Fraction(3, 4), 2, (1, 1)),
        (Fraction(2, 9), 3, (0, 2)),
        (Fraction(0), 2, ()),
        (Fraction(5, 8), 2, (1, 0, 1)),
    ],
)
def test_monna_pseudoinverse_digits(x, base, digits):
    z = monna_pseudoinverse(x, base)
    assert z == DigitVector(base, digits)
    assert monna(z) == x


def test_monna_pseudoinverse_round_trip_dense():
    for base in (2, 3, 5):
        for num in range(base**3):
            x = Fraction(num, base**3)
            assert monna(monna_pseudoinverse(x, base)) == x


def test_monna_pseudoinverse_domain():
    with pytest.raises(ValueError):
        monna_pseudoinverse(Fraction(1, 3), 2)  # not dyadic
    with pytest.raises(ValueError):
        monna_pseudoinverse(Fraction(5, 4), 2)


@pytest.mark.parametrize(
    "n,base,expected",
    [(0, 2, Fraction(0)), (1, 2, Fraction(1, 2)), (5, 2, Fraction(5, 8)), (7, 3, Fraction(5, 9))],
)
def test_radical_inverse(n, base, expected):
    assert radical_inverse(n, base) == expected


def test_radical_inverse_matches_monna_of_integer_digits():
    for base in (2, 3, 7):
        for n in range(60):
            assert radical_inverse(n, base) == monna(DigitVector(base, int_digits(n, base)))


def test_add_with_carry_matches_integer_addition():
    """Carry addition on digit vectors is integer addition up to the precision cut."""
    base = 3
    for a in range(40):
        for b in range(40):
            u = DigitVector.from_int(a, base, precision=4)
            v = DigitVector.from_int(b, base, precision=4)
            w = add_with_carry(u, v)
            assert w.as_integer() == (a + b) % base**4


def test_add_with_carry_single_step():
    u = DigitVector(2, (1, 0))
    v = DigitVector(2, (1, 0))
    assert add_with_carry(u, v) == DigitVector(2, (0, 1))


def test_add_without_carry_is_digitwise():
    u = DigitVector(3, (2, 1))
    v = DigitVector(3, (2, 2, 1))
    assert add_without_carry(u, v) == DigitVector(3, (1, 0, 1))


def test_add_base_mismatch_rejected():
    with pytest.raises(ValueError):
        add_with_carry(DigitVector(2, (1,)), DigitVector(3, (1,)))


def test_delta_size_and_enumeration_order():
    bases, g = (2, 3), (2, 1)
    assert delta_size(bases, g) == 12
    ks = list(enumerate_delta(bases, g))
    assert len(ks) == 12
    assert ks[0] == (0, 0)
    assert ks[1] == (0, 1)  # last coordinate fastest
    assert ks[-1] == (3, 2)


def test_enumerate_delta_budget():
    with pytest.raises(BudgetExceededError, match="domain size 33554432 exceeds budget 16777216"):
        enumerate_delta((2,), (25,))
    # a size past 64 bits has too many digits for str(); the refusal writes it as b^g
    with pytest.raises(BudgetExceededError) as exc:
        enumerate_delta((2,), (99999,))
    assert str(exc.value) == "domain size 2^99999 exceeds budget 16777216"
    with pytest.raises(BudgetExceededError) as exc:
        enumerate_delta((2, 3), (40, 30))
    assert str(exc.value) == "domain size 2^40*3^30 exceeds budget 16777216"


def test_column_keeps_a_matrix_already_in_its_dtype(monkeypatch):
    """The constructor casts without copying a matrix already in the smallest dtype."""
    passed = []
    construct = DigitColumn.__post_init__

    def spy(self):
        passed.append(self.digits)
        construct(self)

    monkeypatch.setattr(DigitColumn, "__post_init__", spy)
    (column,) = VdcConfig(3).columns(1000)
    assert column.digits.dtype == np.uint8
    assert np.shares_memory(column.digits, passed[0])
    wide = np.zeros((2, 3), dtype=np.int64)
    assert not np.shares_memory(DigitColumn(3, wide, [3, 3]).digits, wide)


@pytest.mark.parametrize(
    "digits, counts, message",
    [
        ([[1, 2]], [3], r"digit counts must lie in \[0, 2\]"),
        ([[1, 2]], [-1], r"digit counts must lie in \[0, 2\]"),
        ([[1, 2]], [1], "digits past a vector's count must be zero"),
        ([[1, 0], [1, 1]], [2, 1], "digits past a vector's count must be zero"),
        ([[0, 0, 2]], [0], "digits past a vector's count must be zero"),
    ],
)
def test_column_rejects_counts_out_of_range_and_nonzero_padding(digits, counts, message):
    """The first nonzero padding digit may sit right at the count."""
    with pytest.raises(ValueError, match=message):
        DigitColumn(3, np.array(digits), np.array(counts))
    assert DigitColumn(3, np.array([[1, 0], [1, 1]]), np.array([1, 2])).counts.tolist() == [1, 2]


@pytest.mark.parametrize("full", [False, True])
def test_column_checks_its_padding_without_matrix_sized_scratch(full, peak_mib):
    """A 2^16 x 16 base-12 uint8 column: the constructor's checks take at most a
    quarter of the matrix; an N x P padding mask took 1.5 with random row lengths."""
    rng = np.random.default_rng(13)
    counts = np.full(2**16, 16) if full else rng.integers(0, 17, 2**16)
    counts[0] = 16
    digits = rng.integers(0, 12, (2**16, 16)).astype(np.uint8)
    digits[np.arange(16) >= counts[:, None]] = 0
    assert peak_mib(DigitColumn, 12, digits, counts) <= 0.25 * digits.nbytes / 2**20


@pytest.mark.parametrize("base, digit", [(12, 257), (12, -1), (300, 70000), (300, -1)])
def test_column_rejects_a_digit_before_it_could_wrap(base, digit):
    """An int64 matrix is range-checked before its cast: 257 and -1 would fit a
    uint8 matrix as 1 and 255, 70000 a uint16 one as 4464."""
    with pytest.raises(ValueError, match=f"digit {digit} out of range for base {base}"):
        DigitColumn(base, np.array([[1, digit]]), np.array([2]))


def _identity_net(base: int) -> DigitColumn:
    """Points 0 and 1 of the 3-digit identity net: digits 000 and 100, three stored."""
    return DigitalConfig(base, (GeneratorMatrix.identity(base, 3),)).columns(2)[0]


def _written_and_read(column: DigitColumn) -> DigitColumn:
    """A column through gen's writer and bound's reader."""
    buf = io.StringIO()
    write_point_set(PointSet([column]), buf)
    return read_point_set(io.StringIO(buf.getvalue())).columns[0]


def _wide_column(base: int) -> DigitColumn:
    """Rows 1 0 0 ... (300 digits stored) and b - 1 from an int64 matrix, so the
    counts need 16 bits."""
    digits = np.zeros((2, 300), dtype=np.int64)
    digits[:, 0] = 1, base - 1
    return DigitColumn(base, digits, np.array([300, 1]))


# each way a digit column is built, on rows that store trailing zeros, and the counts it
# keeps; None for the radical inverses of 0 .. b, which keep vb(n) digits of point n
_BUILDERS = {
    "constructor": (_wide_column, [300, 1]),
    "VdcConfig.columns": (lambda b: VdcConfig(b).columns(b + 1)[0], None),
    "HaltonConfig.columns": (lambda b: HaltonConfig((2, b)).columns(b + 1)[1], None),
    "DigitalConfig.columns": (_identity_net, [3, 3]),
    "read_point_set": (lambda b: _written_and_read(_identity_net(b)), [3, 3]),
    "reference.digit_column": (lambda b: digit_column([DigitVector(b, (1, 0, 0)), DigitVector(b, ())], b), [3, 0]),
}


@pytest.mark.parametrize("builder", _BUILDERS)
@pytest.mark.parametrize("base", [2, 256, 257, 70000])
def test_every_builder_stores_digits_and_counts_in_their_smallest_dtypes(builder, base):
    """Digits take the smallest dtype that holds b - 1, counts the one that holds
    the matrix's width, and every count value is kept."""
    build, counts = _BUILDERS[builder]
    column = build(base)
    assert column.digits.dtype == np.min_scalar_type(base - 1)
    assert column.counts.dtype == np.min_scalar_type(column.digits.shape[1])
    assert column.counts.tolist() == (counts or [vb(n, base) for n in range(base + 1)])
