"""In-process replay of a workload through etkbound.cli.main, and the layer metrics.

The traced replay wraps the layer entry points the CLI calls (names in the
cli and verify modules) so that each call leaves a span and a record of its
arguments and result; nothing inside the package is changed.  The untraced
replay makes the same calls without wrappers, and the difference in wall
time is the tracing overhead.  Allocation peaks and exact-zero counts come
from separate passes over the recorded calls, so they do not distort spans.
"""

from __future__ import annotations

import contextlib
import functools
import io
import random
import statistics
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass

import etkbound.cli as cli
import etkbound.verify as verify_mod
from etkbound.badic import DigitVector, delta_size, enumerate_delta
from etkbound.fourier import elint_fourier_coeff, elint_partition
from etkbound.systems import BADIC, WALSH, HybridSystemSpec, xi_phase

from spans import Tracer, self_times

# (module, attribute, span name) of every wrapped layer entry point.
_PATCHES = (
    (cli, "config_from_string", "sequences.config_from_string"),
    (cli, "generate_points", "sequences.generate_points"),
    (cli, "hybrid_points", "sequences.hybrid_points"),
    (cli, "write_point_set", "pointfile.write_point_set"),
    (cli, "read_point_set", "pointfile.read_point_set"),
    (cli, "etk_bound", "bounds.etk_bound"),
    (cli, "extreme_discrepancy_exact", "oracle.extreme_discrepancy_exact"),
    (cli, "star_discrepancy_exact", "oracle.star_discrepancy_exact"),
    (cli, "run_suites", "verify.run_suites"),
    (verify_mod, "check_fourier", "verify.check_fourier"),
    (verify_mod, "check_reconstruction", "verify.check_reconstruction"),
    (verify_mod, "check_fc_bounds", "verify.check_fc_bounds"),
)

GENERATE = ("sequences.config_from_string", "sequences.generate_points", "sequences.hybrid_points")
ORACLES = ("oracle.extreme_discrepancy_exact", "oracle.star_discrepancy_exact")
CHECKS = ("verify.check_fourier", "verify.check_reconstruction", "verify.check_fc_bounds")

# Per-layer times: summed self time of these spans in one replay.
TIME_METRICS = {
    "cli.self_s": ("cli.gen", "cli.bound", "cli.verify"),
    "sequences.generate_s": GENERATE,
    "pointfile.write_s": ("pointfile.write_point_set",),
    "pointfile.read_s": ("pointfile.read_point_set",),
    "bounds.etk_bound_s": ("bounds.etk_bound",),
    "oracle.extreme_s": ("oracle.extreme_discrepancy_exact",),
    "oracle.star_s": ("oracle.star_discrepancy_exact",),
    "verify.fourier_s": ("verify.check_fourier",),
    "verify.reconstruction_s": ("verify.check_reconstruction",),
    "verify.fc_bounds_s": ("verify.check_fc_bounds",),
}


@dataclass
class Call:
    span: int
    name: str
    fn: object
    args: tuple
    kwargs: dict
    result: object


@dataclass
class StepRun:
    exit_code: int
    stdout: str
    wall: float


@contextlib.contextmanager
def instrumented(tracer: Tracer, calls: list[Call]):
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in _PATCHES]
    for (mod, attr, name), (_, _, fn) in zip(_PATCHES, saved):
        setattr(mod, attr, _wrap(fn, name, tracer, calls))
    try:
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def _wrap(fn, name: str, tracer: Tracer, calls: list[Call]):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as sp:
            result = fn(*args, **kwargs)
        calls.append(Call(sp.id, name, fn, args, kwargs, result))
        return result

    return wrapper


def _main(argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash of the program is a failed operation, not a benchmark crash
        traceback.print_exc(file=sys.stderr)
        return 70


def replay(steps, workdir: str, tracer: Tracer | None = None) -> list[StepRun]:
    """Run each step through cli.main in this process, under a cli.<command> span if traced."""
    runs = []
    for step in steps:
        buf = io.StringIO()
        span = tracer.span("cli." + step.command) if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf), span:
            code = _main(step.argv(workdir))
        runs.append(StepRun(code, buf.getvalue(), time.perf_counter() - start))
    return runs


def traced_replay(steps, workdir: str, tracer: Tracer, iteration: str):
    calls: list[Call] = []
    tracer.iteration = iteration
    with instrumented(tracer, calls):
        runs = replay(steps, workdir, tracer)
    return runs, calls


# ---------------------------------------------------------------- passes


def peak_alloc_mb(calls: list[Call], errors: list[str]) -> float:
    """Largest tracemalloc peak over re-runs of the recorded calls, in MiB."""
    peak = 0
    for c in calls:
        tracemalloc.start()
        try:
            result = c.fn(*c.args, **c.kwargs)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        if result != c.result:
            errors.append(f"{c.name} gave a different result on re-run")
    return peak / 2**20


def exact_zero_terms(calls: list[Call], errors: list[str]) -> int:
    """Per-index rows with |S_N(k)| exactly 0.0 over the recorded etk_bound calls."""
    zeros = 0
    for c in calls:
        rep = c.fn(*c.args, **{**c.kwargs, "per_index": True})
        zeros += sum(1 for _, _, abs_sum in rep.per_index if abs_sum == 0.0)
        want = c.result
        if (rep.epsilon, rep.weighted_sum, rep.total) != (want.epsilon, want.weighted_sum, want.total):
            errors.append("etk_bound with per_index=True changed the bound")
    return zeros


def oracle_grid_boxes(c: Call) -> int:
    """Critical boxes the oracle enumerates: star prod G_i, extreme prod G_i(G_i-1)/2."""
    points = c.args[0]
    star = c.name == "oracle.star_discrepancy_exact"
    boxes = 1
    for i in range(points.s):
        values = {pt[i].value for pt in points.points}
        grid = len(values | {1}) if star else len(values | {0, 1})
        boxes *= grid if star else grid * (grid - 1) // 2
    return boxes


# ---------------------------------------------------------------- micro-samples


def _per_call_us(fn, items, repeats: int = 3) -> float:
    """Median over repeats of the mean microseconds per fn(*item)."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for item in items:
            fn(*item)
        times.append(time.perf_counter() - start)
    return statistics.median(times) / len(items) * 1e6


def digit_vector_us(point_sets) -> float:
    items = [(x.base, x.digits) for ps in point_sets for pt in ps.points for x in pt]
    return _per_call_us(DigitVector, items, repeats=1)


_XI_SPEC = HybridSystemSpec.from_tags((2, 3), (WALSH, BADIC))


def xi_phase_us(n: int = 2000, seed: int = 1211) -> float:
    """xi_phase over a fixed seeded sample of (k, point) pairs in the g=(8,5) box."""
    rng = random.Random(seed)
    items = [
        (
            _XI_SPEC,
            (rng.randrange(2**8), rng.randrange(3**5)),
            (
                DigitVector(2, tuple(rng.randrange(2) for _ in range(16))),
                DigitVector(3, tuple(rng.randrange(3) for _ in range(10))),
            ),
        )
        for _ in range(n)
    ]
    return _per_call_us(xi_phase, items)


# Two of the fourier suite's (spec, g) configurations; every elint against
# every index of the refined box, as check_fourier enumerates them.
_COEFF_CONFIGS = (
    (HybridSystemSpec.from_tags((2, 3), (WALSH, BADIC)), (2, 1)),
    (HybridSystemSpec.from_tags((2, 2), (BADIC, WALSH)), (2, 2)),
)


def coeff_us() -> float:
    items = []
    for spec, g in _COEFF_CONFIGS:
        g_fine = tuple(gi + 1 for gi in g)
        for e in elint_partition(spec.bases, g):
            items.extend((e, k, spec) for k in enumerate_delta(spec.bases, g_fine))
    return _per_call_us(elint_fourier_coeff, items)


# ---------------------------------------------------------------- layer metrics


def layer_times(tracer: Tracer, replays: list[str], probe: str) -> dict[str, tuple[float, str]]:
    """Each time metric from the workload's replays (median), else from the probe."""
    own = self_times(tracer.spans)
    totals: dict[tuple[str, str], float] = {}
    for sp in tracer.spans:
        key = (sp.iteration, sp.name)
        totals[key] = totals.get(key, 0.0) + own[sp.id]

    def total(names, iteration):
        found = [totals[(iteration, n)] for n in names if (iteration, n) in totals]
        return sum(found) if found else None

    out = {}
    for metric, names in TIME_METRICS.items():
        if total(names, replays[0]) is not None:
            out[metric] = (statistics.median(total(names, it) for it in replays), "workload")
        elif total(names, probe) is not None:
            out[metric] = (total(names, probe), "probe")
    return out


def input_properties(calls: list[Call]) -> list[dict]:
    """Per recorded call, the input sizes the layers' work depends on."""
    out = []
    for c in calls:
        if c.name in ("sequences.generate_points", "sequences.hybrid_points", "pointfile.read_point_set"):
            out.append({"call": c.name, "n": c.result.n_points, "s": c.result.s})
        elif c.name == "pointfile.write_point_set":
            out.append({"call": c.name, "bytes": len(c.args[1].getvalue())})
        elif c.name == "bounds.etk_bound":
            spec, g = c.args[0], tuple(c.args[1])
            out.append({"call": c.name, "bases": spec.bases, "g": g, "variant": c.args[3],
                        "delta_size": delta_size(spec.bases, g)})
        elif c.name in ORACLES:
            out.append({"call": c.name, "n": c.args[0].n_points, "grid_boxes": oracle_grid_boxes(c),
                        "attained": c.result.attained})
    return out


def layer_counts(
    calls: list[Call], probe_calls: list[Call], errors: list[str]
) -> dict[str, tuple[float, str]]:
    """Counts, allocation peaks and per-call micro timings of one replay's recorded calls."""

    def pick(names):
        own = [c for c in calls if c.name in names]
        return (own, "workload") if own else ([c for c in probe_calls if c.name in names], "probe")

    out = {}
    gens, src = pick(GENERATE)
    sets = [c.result for c in gens if c.name != "sequences.config_from_string"]
    out["sequences.coords"] = (sum(ps.n_points * ps.s for ps in sets), src)
    out["badic.digit_vector_us"] = (digit_vector_us(sets), src)
    writes, src = pick(("pointfile.write_point_set",))
    out["pointfile.bytes"] = (sum(len(c.args[1].getvalue()) for c in writes), src)

    bounds, src = pick(("bounds.etk_bound",))
    out["badic.delta_size"] = (sum(delta_size(c.args[0].bases, tuple(c.args[1])) for c in bounds), src)
    out["bounds.exact_zero_terms"] = (exact_zero_terms(bounds, errors), src)
    out["bounds.peak_alloc_mb"] = (peak_alloc_mb(bounds, errors), src)

    oracles, src = pick(ORACLES)
    out["oracle.grid_boxes"] = (sum(oracle_grid_boxes(c) for c in oracles), src)
    out["oracle.attained"] = (sum(int(c.result.attained) for c in oracles), src)
    out["oracle.peak_alloc_mb"] = (peak_alloc_mb(oracles, errors), src)

    checks, src = pick(CHECKS)
    out["verify.checks"] = (sum(c.result.checks for c in checks), src)
    return out
