"""Exact base-b digit arithmetic.

A digit vector stores finitely many base-b digits d_0, d_1, ... and is read
two ways: as the point sum_j d_j b^(-j-1) of the unit interval, and as the
truncated b-adic integer sum_j d_j b^j.  Both readings use the same digit
order, so the digit-mirroring (Monna) map is the identity on digit vectors
and all arithmetic here stays in integers and Fractions.  A digit column is
many digit vectors of one base as a single integer matrix and the vectors'
digit counts, each in the smallest unsigned dtype that holds it: the form in
which point sets are generated (by one digit recurrence, in `sequences`),
written and read, and from which `bounds.cell_histogram` and the oracle read
them.  Its constructor is the one place that checks and casts them.  The
additions of digit vectors with and without carry, and the radical inverse,
are scalar references in `reference`.

The module also holds what every command may need before it knows which
layers it runs: the budget and block constants, the errors the CLI reports,
and the names its parser offers (the discrepancy variants and the verify
suites).  So building the parser imports no layer a command may not run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import log2, prod

import numpy as np

__all__ = [
    "DEFAULT_BUDGET",
    "EXTREME",
    "STAR",
    "SUITES",
    "BudgetExceededError",
    "CapExceededError",
    "DigitColumn",
    "DigitVector",
    "check_base",
    "delta_size",
    "enumerate_delta",
    "int_digits",
    "monna",
    "vb",
]

# Default cap on the number of index vectors any enumeration may touch.
DEFAULT_BUDGET = 1 << 24

# Scratch bytes one block of rows may take.  Every path whose temporaries
# would grow with N or with a grid (generation, point-file I/O, the fc-bounds
# table, the exact oracle) works in blocks of this size, so its memory stays
# bounded; _block_rows reads it at call time.
_BLOCK_BYTES = 1 << 20


# The discrepancy variants of bounds and oracle, and the suites of verify.
EXTREME = "extreme"
STAR = "star"
SUITES = ("orthonormality", "fourier", "fc-bounds", "weights", "domination", "all")


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured index budget."""


class CapExceededError(RuntimeError):
    """The point set is too large for exact enumeration at this dimension."""


def check_base(base: int) -> None:
    if not isinstance(base, int) or base < 2:
        raise ValueError(f"base must be an integer >= 2, got {base!r}")


def _block_rows(row_bytes: int) -> int:
    """Rows of row_bytes scratch each that one block holds; at least one."""
    return max(1, _BLOCK_BYTES // row_bytes)


def int_digits(n: int, base: int, length: int | None = None) -> tuple[int, ...]:
    """Base-b digits of n, least significant first, optionally zero-padded.

    Raises ValueError if n is negative or does not fit in `length` digits.
    """
    check_base(base)
    if n < 0:
        raise ValueError(f"expected a nonnegative integer, got {n}")
    out = []
    while n:
        n, d = divmod(n, base)
        out.append(d)
    if length is not None:
        if len(out) > length:
            raise ValueError(f"{len(out)} digits do not fit in precision {length}")
        out.extend([0] * (length - len(out)))
    return tuple(out)


def vb(k: int, base: int) -> int:
    """Digit length of k in base b: 0 for k = 0, else 1 + position of the leading digit."""
    check_base(base)
    if k < 0:
        raise ValueError(f"expected a nonnegative index, got {k}")
    v = 0
    while k:
        k //= base
        v += 1
    return v


@dataclass(frozen=True, eq=False)
class DigitVector:
    """Finite vector of base-b digits, d_0 first.

    Equality and hashing ignore trailing zero digits (they do not change the
    represented value under either reading); `precision` is the stored length.
    """

    base: int
    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        check_base(self.base)
        object.__setattr__(self, "digits", tuple(self.digits))
        for d in self.digits:
            if not 0 <= d < self.base:
                raise ValueError(f"digit {d} out of range for base {self.base}")

    @classmethod
    def from_int(cls, n: int, base: int, precision: int | None = None) -> "DigitVector":
        """Digit vector of the b-adic integer n, zero-padded to `precision`."""
        return cls(base, int_digits(n, base, precision))

    @property
    def precision(self) -> int:
        return len(self.digits)

    def digit(self, j: int) -> int:
        """The j-th digit; positions past the stored precision read as 0."""
        return self.digits[j] if 0 <= j < len(self.digits) else 0

    @property
    def value(self) -> Fraction:
        """The point of [0,1) this vector represents (the Monna image)."""
        return monna(self)

    def as_integer(self, up_to: int | None = None) -> int:
        """The integer sum_{j<up_to} d_j b^j (all digits if up_to is None)."""
        digits = self.digits if up_to is None else self.digits[:up_to]
        total = 0
        for j in reversed(range(len(digits))):
            total = total * self.base + digits[j]
        return total

    def _key(self) -> tuple[int, tuple[int, ...]]:
        digits = self.digits
        end = len(digits)
        while end and digits[end - 1] == 0:
            end -= 1
        return (self.base, digits[:end])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DigitVector):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"DigitVector(base={self.base}, digits={self.digits})"


def _check_column_base(base: int) -> None:
    check_base(base)
    if base >= 2**63:
        raise ValueError(f"base {base} is too large for a digit matrix")


@dataclass(frozen=True, eq=False)
class DigitColumn:
    """N base-b digit vectors stored as one N x P integer matrix.

    Row n holds vector n's digits in DigitVector order (d_0, the least
    significant digit of the b-adic integer, first) and is zero past
    counts[n], the vector's stored precision.  The matrix is the vectors
    zero-padded to a common length, and counts keeps the trailing zeros they
    really store.  Digits use the smallest unsigned dtype that holds b - 1,
    so bases must stay below 2^63, and counts the smallest that holds P; an
    array already in its dtype is kept, not copied.  Because d_0 is the
    leading fraction digit, the lexicographic order of the rows is the order
    of the values.
    """

    base: int
    digits: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        _check_column_base(self.base)
        digits = np.asarray(self.digits)
        counts = np.asarray(self.counts)
        if digits.ndim != 2 or counts.shape != digits.shape[:1]:
            raise ValueError(f"digit matrix {digits.shape} does not match counts {counts.shape}")
        # both ranges are checked before the casts, so no digit or count can wrap
        if digits.size and (digits.min() < 0 or digits.max() >= self.base):
            out = (digits < 0) | (digits >= self.base)
            raise ValueError(f"digit {digits[out][0]} out of range for base {self.base}")
        width = digits.shape[1]
        if counts.size and (counts.min() < 0 or counts.max() > width):
            raise ValueError(f"digit counts must lie in [0, {width}]")
        counts = counts.astype(np.min_scalar_type(width), copy=False)
        if any(np.logical_and(digits[:, j], counts <= j).any() for j in range(width)):
            raise ValueError("digits past a vector's count must be zero")
        object.__setattr__(self, "digits", digits.astype(np.min_scalar_type(self.base - 1), copy=False))
        object.__setattr__(self, "counts", counts)

    def __len__(self) -> int:
        return len(self.counts)

    def vectors(self) -> tuple[DigitVector, ...]:
        rows = self.digits.tolist()
        return tuple(DigitVector(self.base, row[:c]) for row, c in zip(rows, self.counts.tolist()))

    def value_ranks(self) -> tuple[list[int], np.ndarray]:
        """Distinct point values in increasing order, and each row's index among them.

        A value is returned as its integer numerator over b^P, P the width of
        the digit matrix.  One sort of the rows ranks the column (row order is
        value order), so only the distinct rows are read as integers.
        """
        rows, ranks = np.unique(self.digits, axis=0, return_inverse=True)
        nums = []
        for row in rows.tolist():
            num = 0
            for d in row:
                num = num * self.base + d
            nums.append(num)
        return nums, ranks.reshape(-1)


def monna(z: DigitVector) -> Fraction:
    """Map digits d_0, d_1, ... to sum_j d_j b^(-j-1); always lands in [0,1)."""
    num = 0
    for d in z.digits:
        num = num * z.base + d
    return Fraction(num, z.base ** len(z.digits))


def _check_domain(bases: tuple[int, ...], g: tuple[int, ...]) -> None:
    if len(bases) != len(g) or not bases:
        raise ValueError(f"bases and g must be nonempty and match: {bases} vs {g}")
    for b in bases:
        check_base(b)
    for gi in g:
        if gi < 0:
            raise ValueError(f"resolution components must be >= 0, got {gi}")


def delta_size(bases: tuple[int, ...], g: tuple[int, ...]) -> int:
    """Number of index vectors in the box domain: prod_i b_i^{g_i}."""
    _check_domain(tuple(bases), tuple(g))
    return prod(b**gi for b, gi in zip(bases, g))


def _check_budget(bases: tuple[int, ...], g: tuple[int, ...], limit: int, noun: str) -> None:
    """Raise BudgetExceededError when delta_size(bases, g) is above limit.

    The message names a size past 64 bits as the product b1^g1*b2^g2: 2^99999
    in decimal has 30103 digits, past Python's int-to-str conversion limit.
    The exact size is formed only when its bit count, sum_i g_i log2 b_i, is
    below 1 + max(64, the limit's bit length): forming 3^(10^8) took minutes.
    """
    _check_domain(tuple(bases), tuple(g))
    size = None
    if sum(gi * log2(b) for b, gi in zip(bases, g)) < max(64, int(limit).bit_length()) + 1:
        size = delta_size(bases, g)
        if size <= limit:
            return
    big = size is None or size >= 1 << 64
    text = "*".join(f"{b}^{gi}" for b, gi in zip(bases, g)) if big else str(size)
    raise BudgetExceededError(f"{noun} {text} exceeds budget {limit}")


def enumerate_delta(bases: tuple[int, ...], g: tuple[int, ...]):
    """Stream the index vectors k with 0 <= k_i < b_i^{g_i}, coordinate 1 slowest.

    Mixed-radix lexicographic order, the zero vector first.  Fails fast
    with BudgetExceededError when the domain size exceeds DEFAULT_BUDGET.
    The stream is a plain generator and can be re-created cheaply by calling
    again.
    """
    bases = tuple(bases)
    g = tuple(g)
    _check_budget(bases, g, DEFAULT_BUDGET, "domain size")
    return itertools.product(*(range(b**gi) for b, gi in zip(bases, g)))
