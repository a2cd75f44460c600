"""Exact base-b digit arithmetic.

A digit vector stores finitely many base-b digits d_0, d_1, ... and is read
two ways: as the point sum_j d_j b^(-j-1) of the unit interval, and as the
truncated b-adic integer sum_j d_j b^j.  Both readings use the same digit
order, so the digit-mirroring (Monna) map is the identity on digit vectors
and all arithmetic here stays in integers and Fractions.  A digit column is
many digit vectors of one base as a single integer matrix, the form in which
point sets are generated, written, read and turned into phase tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod
from typing import Sequence

import numpy as np

__all__ = [
    "DEFAULT_BUDGET",
    "BudgetExceededError",
    "DigitColumn",
    "DigitVector",
    "add_with_carry",
    "add_without_carry",
    "check_base",
    "delta_size",
    "enumerate_delta",
    "int_digits",
    "monna",
    "monna_pseudoinverse",
    "radical_inverse",
    "vb",
]

# Default cap on the number of index vectors any enumeration may touch.
DEFAULT_BUDGET = 1 << 24


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured index budget."""


def check_base(base: int) -> None:
    if not isinstance(base, int) or base < 2:
        raise ValueError(f"base must be an integer >= 2, got {base!r}")


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

    @classmethod
    def zero(cls, base: int, precision: int = 0) -> "DigitVector":
        return cls(base, (0,) * precision)

    @property
    def precision(self) -> int:
        return len(self.digits)

    def digit(self, j: int) -> int:
        """The j-th digit; positions past the stored precision read as 0."""
        return self.digits[j] if 0 <= j < len(self.digits) else 0

    def with_precision(self, m: int) -> "DigitVector":
        """Same value padded (or trimmed, if only zeros are dropped) to m digits."""
        if m < 0:
            raise ValueError("precision must be nonnegative")
        if m >= len(self.digits):
            return DigitVector(self.base, self.digits + (0,) * (m - len(self.digits)))
        if any(self.digits[m:]):
            raise ValueError(f"cannot trim nonzero digits to precision {m}")
        return DigitVector(self.base, self.digits[:m])

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
    so bases must stay below 2^63.  Because d_0 is the leading fraction
    digit, the lexicographic order of the rows is the order of the values.
    """

    base: int
    digits: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        _check_column_base(self.base)
        digits = np.asarray(self.digits)
        counts = np.asarray(self.counts, dtype=np.int64)
        if digits.ndim != 2 or counts.shape != digits.shape[:1]:
            raise ValueError(f"digit matrix {digits.shape} does not match counts {counts.shape}")
        out = (digits < 0) | (digits >= self.base)
        if out.any():
            raise ValueError(f"digit {digits[out][0]} out of range for base {self.base}")
        width = digits.shape[1]
        if np.any((counts < 0) | (counts > width)):
            raise ValueError(f"digit counts must lie in [0, {width}]")
        if np.any(digits[np.arange(width) >= counts[:, None]]):
            raise ValueError("digits past a vector's count must be zero")
        object.__setattr__(self, "digits", digits.astype(np.min_scalar_type(self.base - 1)))
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_flat(cls, base: int, flat: np.ndarray, counts: np.ndarray) -> "DigitColumn":
        """Column from all digits in row order, row n taking the next counts[n] of them."""
        flat = np.asarray(flat)
        counts = np.asarray(counts, dtype=np.int64)
        width = int(counts.max()) if counts.size else 0
        digits = np.zeros((counts.size, width), dtype=flat.dtype)
        digits[np.arange(width) < counts[:, None]] = flat
        return cls(base, digits, counts)

    @classmethod
    def from_vectors(cls, vectors: Sequence[DigitVector], base: int) -> "DigitColumn":
        for v in vectors:
            if v.base != base:
                raise ValueError(f"coordinate base {v.base} does not match {base}")
        counts = np.fromiter((v.precision for v in vectors), dtype=np.int64, count=len(vectors))
        flat = np.fromiter(
            itertools.chain.from_iterable(v.digits for v in vectors),
            dtype=np.int64,
            count=int(counts.sum()),
        )
        return cls.from_flat(base, flat, counts)

    @classmethod
    def from_integers(cls, n: np.ndarray, base: int) -> "DigitColumn":
        """Digits of nonnegative integers by repeated division; counts are vb(n).

        Row i is int_digits(n[i], base), zero-padded to the longest row.
        """
        _check_column_base(base)
        q = np.asarray(n, dtype=np.int64)
        if np.any(q < 0):
            raise ValueError("expected nonnegative integers")
        counts = np.zeros(q.shape, dtype=np.int64)
        cols = []
        while q.any():
            counts += q > 0
            q, d = np.divmod(q, base)
            cols.append(d)
        digits = np.stack(cols, axis=1) if cols else np.zeros((q.size, 0), dtype=np.int64)
        return cls(base, digits, counts)

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


def monna_pseudoinverse(x: Fraction | int, base: int) -> DigitVector:
    """Regular (terminating) digit expansion of a b-adic rational x in [0,1).

    Accepts exactly the fractions a/b^m; the result uses the minimal precision
    m.  Anything else (x outside [0,1), or a reduced denominator with a prime
    factor not dividing b) is rejected with ValueError.
    """
    check_base(base)
    x = Fraction(x)
    if not 0 <= x < 1:
        raise ValueError(f"expected x in [0,1), got {x}")
    q = x.denominator
    while (g := gcd(q, base)) > 1:
        q //= g
    if q != 1:
        raise ValueError(f"{x} is not a base-{base} rational")
    power, m = 1, 0
    while power % x.denominator:
        power *= base
        m += 1
    scaled = x.numerator * (power // x.denominator)
    lsd = int_digits(scaled, base, m)
    return DigitVector(base, tuple(reversed(lsd)))


def radical_inverse(n: int, base: int) -> Fraction:
    """Digit reversal of n into [0,1): the Monna image of the integer n."""
    check_base(base)
    if n < 0:
        raise ValueError(f"expected a nonnegative integer, got {n}")
    num, m = 0, 0
    while n:
        n, d = divmod(n, base)
        num = num * base + d
        m += 1
    return Fraction(num, base**m)


def _check_same_base(u: DigitVector, v: DigitVector) -> None:
    if u.base != v.base:
        raise ValueError(f"base mismatch: {u.base} vs {v.base}")


def add_with_carry(u: DigitVector, v: DigitVector) -> DigitVector:
    """Digitwise sum with carry propagation, truncated to the larger precision.

    The carry out of the last position is dropped, so on m-digit vectors this
    is addition of b-adic integers mod b^m.
    """
    _check_same_base(u, v)
    m = max(u.precision, v.precision)
    base = u.base
    out = []
    carry = 0
    for j in range(m):
        t = u.digit(j) + v.digit(j) + carry
        carry, d = divmod(t, base)
        out.append(d)
    return DigitVector(base, tuple(out))


def add_without_carry(u: DigitVector, v: DigitVector) -> DigitVector:
    """Digitwise sum mod b with no carry (the group operation of Z_b^m)."""
    _check_same_base(u, v)
    m = max(u.precision, v.precision)
    return DigitVector(u.base, tuple((u.digit(j) + v.digit(j)) % u.base for j in range(m)))


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


def _check_budget(bases: tuple[int, ...], g: tuple[int, ...], limit: int | None, noun: str) -> None:
    """Raise BudgetExceededError when delta_size(bases, g) is above limit (None: no limit).

    The message names a size past 64 bits as the product b1^g1*b2^g2: 2^99999
    in decimal has 30103 digits, past Python's int-to-str conversion limit.
    """
    size = delta_size(bases, g)
    if limit is not None and size > limit:
        text = str(size) if size < 1 << 64 else "*".join(f"{b}^{gi}" for b, gi in zip(bases, g))
        raise BudgetExceededError(f"{noun} {text} exceeds budget {limit}")


def enumerate_delta(
    bases: tuple[int, ...],
    g: tuple[int, ...],
    star: bool = False,
):
    """Stream the index vectors k with 0 <= k_i < b_i^{g_i}, coordinate 1 slowest.

    Mixed-radix lexicographic order; `star` drops the zero vector.  Fails fast
    with BudgetExceededError when the domain size exceeds DEFAULT_BUDGET.
    The stream is a plain generator and can be re-created cheaply by calling
    again.
    """
    bases = tuple(bases)
    g = tuple(g)
    _check_budget(bases, g, DEFAULT_BUDGET, "domain size")
    ranges = [range(b**gi) for b, gi in zip(bases, g)]
    it = itertools.product(*ranges)
    if star:
        next(it)  # the all-zero vector comes first in this order
    return it
