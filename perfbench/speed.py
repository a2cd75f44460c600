"""Machine-speed reference: a fixed pure-Python loop timed beside the work.

On a shared host the speed of a core changes as other tenants come and go:
this one flips between a fast and a slow state, about 1.6x apart, that each
last a few seconds to a minute.  A run's wall times then say as much about
the neighbours as about the program.  The benchmark times this loop, which
never touches etkbound, before the set-up, after it and after every timed
iteration.  Each timed stretch is scaled to the speed at which the loop takes
REFERENCE_NOMINAL_S, by the mean of the two passes around it.  A program
change moves a scaled time by the same share as the raw one; a change of
state moves both the program and the loop.  The loop imitates the CLI's hot
paths, so that both slow down by about the same factor.
"""

from __future__ import annotations

import random
import time

# About the median time of reference_s() on a shared 2-vCPU Intel Xeon host, CPython 3.11.
REFERENCE_NOMINAL_S = 0.3
_POINTS = 4096
_DIGITS = 32
_ROWS = 32


class _Point:
    __slots__ = ("digits",)

    def __init__(self, digits: tuple[int, ...]):
        self.digits = digits

    def digit(self, j: int) -> int:
        return self.digits[j] if 0 <= j < len(self.digits) else 0


def _loop() -> int:
    # The instruction mix and working set of the CLI's hot paths: a few MiB of
    # small objects, read through method calls inside generator expressions.
    rng = random.Random(1211)
    points = [_Point(tuple(rng.randrange(2) for _ in range(_DIGITS))) for _ in range(_POINTS)]
    acc = 0
    for k in range(1, _ROWS + 1):
        kd = [(k >> j) & 1 for j in range(k.bit_length())]
        acc += sum(sum(kj * x.digit(j) for j, kj in enumerate(kd)) % 2 for x in points)
    return acc


def reference_s() -> float:
    """Wall seconds of one pass of the reference loop."""
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start


def scaled(wall_s: float, before_s: float, after_s: float) -> float:
    """wall_s at the reference speed, from the passes just before and after it."""
    return wall_s * REFERENCE_NOMINAL_S / ((before_s + after_s) / 2)
