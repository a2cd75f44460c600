"""In-memory spans, self times and metric-name rules for the benchmark.

A span is one timed call at a layer boundary.  Spans are kept in a list while
the benchmark runs and written out once at the end; nothing here touches the
program under test.
"""

from __future__ import annotations

import math
import re
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def valid_name(name: str) -> bool:
    """Metric and workload names: a letter or digit, then letters, digits, _ . -; at most 64."""
    return isinstance(name, str) and NAME_RE.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    return isinstance(unit, str) and UNIT_RE.fullmatch(unit) is not None


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    iteration: str
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects nested spans; the innermost open span is the parent of a new one."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.iteration = ""
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        sp = Span(
            id=len(self.spans),
            name=name,
            start=time.perf_counter(),
            end=math.nan,
            parent=self._open[-1] if self._open else None,
            iteration=self.iteration,
        )
        self.spans.append(sp)
        self._open.append(sp.id)
        try:
            yield sp
        except BaseException as exc:
            sp.error = type(exc).__name__
            raise
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def as_records(self) -> list[dict]:
        return [asdict(sp) for sp in self.spans]


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration of each span minus the part of it covered by its direct children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    return {
        sp.id: sp.duration - covered_length(children.get(sp.id, []), sp.start, sp.end)
        for sp in spans
    }
