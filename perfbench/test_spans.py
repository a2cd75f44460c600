"""Self-tests of the benchmark's span arithmetic and name rules.

Run with: python3 -m pytest perfbench/test_spans.py
"""

import json
import os

import pytest

from spans import Span, Tracer, covered_length, self_times, valid_name, valid_unit


def _spans(*rows):
    return [Span(i, name, a, b, parent, "it") for i, (name, a, b, parent) in enumerate(rows)]


def test_self_time_nested():
    spans = _spans(("root", 0.0, 10.0, None), ("a", 1.0, 4.0, 0), ("a1", 2.0, 3.0, 1))
    assert self_times(spans) == {0: 7.0, 1: 2.0, 2: 1.0}


def test_self_time_back_to_back_children():
    spans = _spans(("root", 0.0, 10.0, None), ("a", 1.0, 3.0, 0), ("b", 3.0, 6.0, 0))
    assert self_times(spans)[0] == 5.0


def test_self_time_overlapping_and_overhanging_children():
    spans = _spans(
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 5.0, 0),
        ("c", 8.0, 12.0, 0),
    )
    assert self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 2.0)


def test_covered_length_ignores_empty_and_outside_intervals():
    assert covered_length([(5.0, 5.0), (20.0, 30.0), (-3.0, -1.0)], 0.0, 10.0) == 0.0
    assert covered_length([], 0.0, 1.0) == 0.0


def test_tracer_links_parents_and_records_errors():
    tracer = Tracer()
    tracer.iteration = "it-1"
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with pytest.raises(ValueError):
            with tracer.span("failing"):
                raise ValueError("boom")
    outer, inner, failing = tracer.spans
    assert (outer.parent, inner.parent, failing.parent) == (None, 0, 0)
    assert failing.error == "ValueError" and inner.error is None
    assert all(sp.iteration == "it-1" and sp.end >= sp.start for sp in tracer.spans)
    own = self_times(tracer.spans)
    assert own[0] <= outer.duration and own[1] == inner.duration


@pytest.mark.parametrize("name", ["answer_s", "cli.import_s", "a-b.c_1", "9x", "x" * 64])
def test_valid_names(name):
    assert valid_name(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "-x", "a b", "a/b", "x" * 65, "é", None])
def test_invalid_names(name):
    assert not valid_name(name)


@pytest.mark.parametrize("unit", ["ms", "s", "1/s", "%", "count", "MiB"])
def test_valid_units(unit):
    assert valid_unit(unit)


@pytest.mark.parametrize("unit", ["", "a b", "x" * 17, "µs"])
def test_invalid_units(unit):
    assert not valid_unit(unit)


def test_declared_metric_names_are_valid():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(valid_name(n) for n in names)
    assert all(valid_unit(m["unit"]) for m in metrics)
