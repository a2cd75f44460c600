"""Per-layer timings of the verify suites, the phase tables and the point layers, each in a fresh interpreter.

Usage, from the root of a checkout:

    python3 bench/layers.py --out BENCH_16.json
    python3 bench/layers.py --parent ../other-checkout --out BENCH_16.json

Each sample of each tree runs in new child processes, so every suite timing
is cold (first call after import), as in the CLI.  For `verify fourier` and
`verify fc-bounds` it records:

- wall_s: the whole `python -m etkbound verify SUITE` subprocess;
- import_s and suite_s: importing etkbound.cli, then one cli.main call;
- peak_rss_mb: ru_maxrss of that child after the call;
- peak_alloc_mb: the tracemalloc peak of the call, in another child;
- layers_s: cumulative time inside each of the suite's LAYERS, the first
  of its named functions that the tree has (wrapped, in a third child; a
  generator's time is that of its steps), with the rest of the call as
  "other";
- stdout_sha256: so two trees can be checked for identical output.

It also records perfbench's micro-samples systems.xi_phase_us and
fourier.coeff_us (perfbench/replay.py, imported, not changed).

The tables section times systems.phase_numerators on TABLE_CASES, both tags,
and bounds.etk_bound on BOUND_CASES.  Each case records s, the best time of
three calls (one call for the STRESS rows; inputs are built before them), and
peak_alloc_mb, the tracemalloc peak of one more call; the phase cases also
record table_mb, the size of the table returned.  The etk_bound cases of a
tree that has the STAGES functions also record, from one more call, the
seconds spent in each stage (histogram_s, transform_s, retest_s,
weighting_s) and the rest of the call (other_s); a tree from before the
transform times its contraction as transform_s.

The points section times generation (hybrid_points or generate_points, as
`gen` calls them), write_point_set into a StringIO (as `gen` writes) and
read_point_set from a file (as `bound` reads) on POINT_CASES, one child per
case.  Each row records cold_s, the first call in that child, s, the best of
three more, and peak_alloc_mb, the tracemalloc peak of a fifth.

The startup section runs each command shape of the four perfbench workloads
(STARTUP_SHAPES) as `python -m etkbound`, as perfbench's children run:
from a fresh copy of the tree's sources, with no `__pycache__` and
PYTHONDONTWRITEBYTECODE=1, so every etkbound module is compiled.  Each shape
records wall_s and peak_rss_mb (os.wait4) of one child, and from a second
child under `-X importtime` import_s, the cumulative seconds of the etkbound
imports that no other etkbound import encloses (numpy's included, which
they import first), numpy_import_s, numpy's share of it, and modules, the
etkbound modules the command loaded.

Each tree gets PAIRS samples; with --parent, the two trees alternate which
goes first in each pair.  The hot layer of a suite is the largest of
import_s and its layers_s by median.  For the tables and points sections the
summary gives each case's medians, and the quartiles of its times, over the
samples.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
SUITES = ("fourier", "fc-bounds")
PAIRS = 5
# the layers that the suites spend their time in, each timed as the first
# function of etkbound.verify named that a tree has (a dotted name is a
# method): before PhaseTable, fc-bounds read its rows from phase_row_blocks
LAYERS = {
    "fourier": {"_xi_table": ("_xi_table",), "elint_fourier_coeff": ("elint_fourier_coeff",)},
    "fc-bounds": {"phase_rows": ("PhaseTable.rows", "phase_row_blocks"), "phase_numerators": ("phase_numerators",)},
}
# (b, g, N): a full phase table of N points, in the cells 0..N-1 mod b^g.
# Full-period inputs, two points at a deep g, and large bases with few points.
TABLE_CASES = (
    (2, 12, 4096), (5, 5, 3125), (2, 20, 2), (1000, 2, 16),
    (65536, 1, 16), (2, 12, 1024), (3, 7, 2187),
)
# etk_bound inputs: bound_dense's points at perfbench's first seed, 2^20
# Halton points (their cell-index step was the whole allocation peak), two
# points whose tables are 2^20 rows deep (b-adic: in Walsh, half of those 2^20
# sums are exact zeros), full-period inputs whose every sum is an exact zero
# that is re-tested, 3^7 Halton points whose base-3 axis alone has a
# 2187-row table (the re-test built it whole before PhaseTable), and the
# STRESS rows: the same at 2^20 van der Corput points, and a digital net
# whose sums are nearly all exact zeros.  A stress
# row is timed by one call, not the best of three: one call of vdc 2^20 at
# g = 12 took 32 s before the cell histogram.
BOUND_CASES = (
    "bound_dense w,b (8,5)", "halton 2^20 w,b (8,5)", "vdc 2 points b (20)",
    "vdc 2^12 w (12)", "vdc 3^7 w (7)", "vdc 5^5 w (5)", "halton 5184 w,b (6,4)", "halton 2187 b,b (1,7)",
    "vdc 2^20 b (10)", "vdc 2^20 b (12)", "net digital:2,s=2,m=11,seed=5 w,w (8,8)",
)
STRESS = BOUND_CASES[-3:]
# the stages of etk_bound, each timed as the first bounds function named that
# a tree has: before the transform, a BLAS contraction (_contract) ran that stage
STAGES = {
    "histogram": ("cell_histogram",),
    "transform": ("_transform", "_contract"),
    "retest": ("_snap_exact_zeros",),
    "weighting": ("_weighted_sum",),
}
# generation and point-file inputs: stream_wide's points at perfbench's first
# seed, and the 2^20 Halton points of BOUND_CASES
POINT_CASES = ("stream_wide", "halton 2^20")
POINT_LAYERS = ("generate", "write", "read")
# one CLI call of each command shape of the perfbench workloads, at its first
# seed, run in this order in one work directory
STARTUP_SHAPES = (
    ("bound_dense gen", "gen hybrid --walsh digital:2,seed=101 --badic halton:3 --n 4096 --out bd.pts"),
    ("bound_dense bound", "bound bd.pts --tags w,b --g 8,5 --variant extreme --format json --out bd.json"),
    ("certify_caps gen", "gen digital --base 2 --s 2 --m 8 --seed=101000 --n 64 --out dig.pts"),
    ("certify_caps bound --oracle",
     "bound dig.pts --tags w,w --g 2,2 --variant extreme --oracle --format json --out dig.json"),
    ("stream_wide gen",
     "gen hybrid --walsh digital:2,m=16,seed=101 --badic halton:3,5 --n 32768 --out sw.pts"),
    ("stream_wide bound", "bound sw.pts --tags w,b,b --g 2,1,1 --variant both --format json --out sw.json"),
    ("verify_fourier verify fourier", "verify fourier"),
    ("verify_fourier verify fc-bounds", "verify fc-bounds"),
)


# ---------------------------------------------------------------- child side


def _run_suite(suite: str) -> str:
    import contextlib
    import io

    import etkbound.cli as cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", suite])
    if code != 0:
        raise SystemExit(f"verify {suite} exited with {code}")
    return out.getvalue()


def _child_time(suite: str) -> dict:
    import resource

    start = time.perf_counter()
    import etkbound.cli  # noqa: F401

    imported = time.perf_counter()
    text = _run_suite(suite)
    done = time.perf_counter()
    return {
        "import_s": imported - start,
        "suite_s": done - imported,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "stdout_sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def _child_alloc(suite: str) -> dict:
    import tracemalloc

    import etkbound.cli  # noqa: F401

    tracemalloc.start()
    _run_suite(suite)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"peak_alloc_mb": peak / 2**20}


def _timed(spent: dict, name: str, fn):
    """fn, adding the seconds of each call to spent[name]; of a generator, each step."""
    if inspect.isgeneratorfunction(fn):

        def stepped(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                start = time.perf_counter()
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    spent[name] += time.perf_counter() - start
                yield item

        return stepped

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[name] += time.perf_counter() - start

    return wrapper


def _resolve(module, name: str):
    """(owner, attribute) of a dotted name under module, or None where the tree lacks it."""
    *path, attribute = name.split(".")
    owner = module
    for part in path:
        owner = getattr(owner, part, None)
    return (owner, attribute) if hasattr(owner, attribute) else None


def _child_layers(suite: str) -> dict:
    import etkbound.verify as verify

    spent = {}
    for layer, names in LAYERS[suite].items():
        found = next(filter(None, (_resolve(verify, name) for name in names)), None)
        if found:
            owner, attribute = found
            spent[layer] = 0.0
            setattr(owner, attribute, _timed(spent, layer, getattr(owner, attribute)))
    start = time.perf_counter()
    _run_suite(suite)
    total = time.perf_counter() - start
    return {"layers_s": {**spent, "other": total - sum(spent.values())}}


def _measure(fn, *args, repeat: int = 3) -> dict:
    import tracemalloc

    seconds = math.inf
    for _ in range(repeat):
        start = time.perf_counter()
        fn(*args)
        seconds = min(seconds, time.perf_counter() - start)
    tracemalloc.start()
    fn(*args)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"s": seconds, "peak_alloc_mb": peak / 2**20}


def _child_tables() -> dict:
    import numpy as np
    from etkbound.systems import phase_numerators

    out = {}
    for base, g, n in TABLE_CASES:
        cells = np.arange(n) % base**g
        for tag in ("walsh", "badic"):
            row = _measure(phase_numerators, cells, base, tag, g)
            row["table_mb"] = base**g * n * 8 / 2**20
            out[f"phase_numerators {base},{g},{n} {tag}"] = row
    return out


def _stages(fn, *args) -> dict:
    """Seconds of one more etk_bound call spent in each of STAGES, the rest as other_s.

    Empty on a tree whose bounds module has no function named for one of the stages."""
    import etkbound.bounds as bounds

    found = {stage: next((n for n in names if hasattr(bounds, n)), None) for stage, names in STAGES.items()}
    if None in found.values():
        return {}
    spent = dict.fromkeys(STAGES, 0.0)
    saved = {name: getattr(bounds, name) for name in found.values()}
    for stage, name in found.items():
        setattr(bounds, name, _timed(spent, stage, saved[name]))
    try:
        start = time.perf_counter()
        fn(*args)
        total = time.perf_counter() - start
    finally:
        for name, original in saved.items():
            setattr(bounds, name, original)
    return {**{f"{stage}_s": t for stage, t in spent.items()}, "other_s": total - sum(spent.values())}


def _child_bounds() -> dict:
    from etkbound.bounds import etk_bound
    from etkbound.sequences import (
        HaltonConfig,
        VdcConfig,
        config_from_string,
        generate_points,
        hybrid_points,
    )
    from etkbound.systems import BADIC, WALSH, HybridSystemSpec

    mixed = HybridSystemSpec.from_tags((2, 3), (WALSH, BADIC))
    walsh, badic = config_from_string("digital:2,seed=101"), config_from_string("halton:3")
    vdc = generate_points(VdcConfig(2), 2**20)
    net = generate_points(config_from_string("digital:2,s=2,m=11,seed=5"), 2048)
    one = HybridSystemSpec.single
    inputs = (
        (mixed, (8, 5), hybrid_points((WALSH, BADIC), walsh, badic, 4096)),
        (mixed, (8, 5), generate_points(HaltonConfig((2, 3)), 2**20)),
        (one(2, BADIC), (20,), generate_points(VdcConfig(2), 2)),
        (one(2, WALSH), (12,), generate_points(VdcConfig(2), 2**12)),
        (one(3, WALSH), (7,), generate_points(VdcConfig(3), 3**7)),
        (one(5, WALSH), (5,), generate_points(VdcConfig(5), 5**5)),
        (mixed, (6, 4), generate_points(HaltonConfig((2, 3)), 5184)),
        (HybridSystemSpec.from_tags((2, 3), (BADIC, BADIC)), (1, 7), generate_points(HaltonConfig((2, 3)), 3**7)),
        (one(2, BADIC), (10,), vdc),
        (one(2, BADIC), (12,), vdc),
        (HybridSystemSpec.from_tags((2, 2), (WALSH, WALSH)), (8, 8), net),
    )
    out = {}
    for name, args in zip(BOUND_CASES, inputs):
        row = _measure(etk_bound, *args, repeat=1 if name in STRESS else 3)
        out[name] = {**row, **_stages(etk_bound, *args)}
    return out


def _cold_warm(fn):
    """fn's result and its timings: cold_s, this first call, and _measure's."""
    start = time.perf_counter()
    result = fn()
    cold = time.perf_counter() - start
    return result, {"cold_s": cold, **_measure(fn)}


def _child_points(case: str, n: int | None = None) -> dict:
    """The generation, write and read layers on one POINT_CASES input (n points, if given)."""
    import io
    import tempfile

    from etkbound.pointfile import read_point_set, write_point_set
    from etkbound.sequences import HaltonConfig, config_from_string, generate_points, hybrid_points
    from etkbound.systems import BADIC, WALSH

    if case == "stream_wide":
        walsh, badic = config_from_string("digital:2,m=16,seed=101"), config_from_string("halton:3,5")
        points, generate = _cold_warm(lambda: hybrid_points((WALSH, BADIC, BADIC), walsh, badic, n or 32768))
    else:
        points, generate = _cold_warm(lambda: generate_points(HaltonConfig((2, 3)), n or 2**20))

    def write():
        buf = io.StringIO()
        write_point_set(points, buf)
        return buf

    buf, written = _cold_warm(write)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "points.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(buf.getvalue())
        del buf

        def read():
            with open(path, encoding="utf-8") as fh:
                return read_point_set(fh)

        back, read_row = _cold_warm(read)
    if back != points:
        raise SystemExit(f"{case}: the point file does not read back as the points written")
    rows = (generate, written, read_row)
    return {f"{case} {layer}": row for layer, row in zip(POINT_LAYERS, rows)}


def _child_micro() -> dict:
    import replay

    return {"systems.xi_phase_us": replay.xi_phase_us(), "fourier.coeff_us": replay.coeff_us()}


def _child(args: list[str]) -> None:
    kind, *rest = args
    children = {
        "micro": _child_micro, "tables": _child_tables, "bounds": _child_bounds, "points": _child_points,
        "time": _child_time, "alloc": _child_alloc, "layers": _child_layers,
    }
    print(json.dumps(children[kind](*rest)))


# ---------------------------------------------------------------- parent side


def _env(tree: str) -> dict:
    path = os.pathsep.join([os.path.join(tree, "src"), PERFBENCH])
    return {**os.environ, "PYTHONPATH": path}


def _spawn(tree: str, *args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", *args],
        env=_env(tree), capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _wall(tree: str, suite: str) -> float:
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "etkbound", "verify", suite],
        env=_env(tree), stdout=subprocess.DEVNULL, check=True,
    )
    return time.perf_counter() - start


def _import_seconds(log: str) -> dict:
    """import_s, numpy_import_s and modules from the stderr of `python -X importtime`."""
    entries = []  # (depth, name, cumulative seconds), each module after the ones it imports
    for line in log.splitlines():
        if line.startswith("import time:") and not line.endswith("imported package"):
            _, cumulative, name = line.split("|")
            entries.append(((len(name) - len(name.lstrip()) - 1) // 2, name.strip(), cumulative.strip()))
    out = {"import_s": 0.0, "numpy_import_s": 0.0, "modules": []}
    enclosing: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(entries):
        while enclosing and enclosing[-1][0] >= depth:
            enclosing.pop()
        ours = name.split(".")[0] == "etkbound"
        if ours and not any(outer.split(".")[0] == "etkbound" for _, outer in enclosing):
            out["import_s"] += int(cumulative) / 1e6
        if ours:
            out["modules"].append(name)
        if name == "numpy":
            out["numpy_import_s"] = int(cumulative) / 1e6
        enclosing.append((depth, name))
    out["modules"].sort()
    return out


def _startup_row(src: str, workdir: str, command: str) -> dict:
    """One command as `python -m etkbound`, with the package read from src and nothing cached."""
    argv = [sys.executable, "-m", "etkbound", *command.split()]
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=workdir, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"{command} exited with {os.waitstatus_to_exitcode(status)}")
    traced = subprocess.run(
        [sys.executable, "-X", "importtime", *argv[1:]],
        cwd=workdir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, check=True,
    )
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024, **_import_seconds(traced.stderr)}


def _startup(tree: str) -> dict:
    """Every STARTUP_SHAPES call on a fresh copy of the tree's sources."""
    import shutil
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        src, workdir = os.path.join(tmp, "src"), os.path.join(tmp, "work")
        shutil.copytree(os.path.join(tree, "src", "etkbound"), os.path.join(src, "etkbound"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        os.makedirs(workdir)
        return {name: _startup_row(src, workdir, command) for name, command in STARTUP_SHAPES}


def sample(tree: str) -> dict:
    """One sample of every measurement on one tree."""
    out = {"micro": _spawn(tree, "micro"), "startup": _startup(tree)}
    out["tables"] = {**_spawn(tree, "tables"), **_spawn(tree, "bounds")}
    out["points"] = {k: v for case in POINT_CASES for k, v in _spawn(tree, "points", case).items()}
    for suite in SUITES:
        out[suite] = {
            "wall_s": _wall(tree, suite),
            **_spawn(tree, "time", suite),
            **_spawn(tree, "alloc", suite),
            **_spawn(tree, "layers", suite),
        }
    return out


def summarize(samples: list[dict]) -> dict:
    """Median of each number over the samples; the suites' hot layers."""
    median = statistics.median
    out = {"micro": {k: median(s["micro"][k] for s in samples) for k in samples[0]["micro"]}}
    for section in ("tables", "points", "startup"):
        out[section] = {}
        for case in samples[0][section]:
            rows = [s[section][case] for s in samples]
            row = {k: median(r[k] for r in rows) for k in rows[0] if k != "modules"}
            if "modules" in rows[0]:
                row["modules"] = sorted({tuple(r["modules"]) for r in rows})
            for k in ("s", "cold_s", "wall_s"):
                if k in row:
                    q1, _, q3 = statistics.quantiles([r[k] for r in rows], n=4)
                    row[f"{k}_quartiles"] = [q1, q3]
            out[section][case] = row
    for suite in SUITES:
        runs = [s[suite] for s in samples]
        row = {
            k: median(r[k] for r in runs)
            for k in ("wall_s", "import_s", "suite_s", "peak_rss_mb", "peak_alloc_mb")
        }
        row["layers_s"] = {k: median(r["layers_s"][k] for r in runs) for k in runs[0]["layers_s"]}
        times = {"cli.import_s": row["import_s"]}
        times.update({k if k == "other" else f"verify.{k}": v for k, v in row["layers_s"].items()})
        row["hot_layer"] = max(times, key=times.get)
        row["stdout_sha256"] = sorted({r["stdout_sha256"] for r in runs})
        out[suite] = row
    return out


def _git(tree: str) -> dict:
    def run(*args):
        proc = subprocess.run(["git", "-C", tree, *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    status = run("status", "--porcelain", "--", "src")
    return {"commit": run("rev-parse", "HEAD"), "src_modified": bool(status)}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        _child(argv[1:])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="another checkout to measure against this one")
    parser.add_argument("--out", help="write the record here as JSON")
    args = parser.parse_args(argv)
    trees = {"change": ROOT}
    if args.parent:
        trees = {"parent": os.path.abspath(args.parent), "change": ROOT}
    samples = {name: [] for name in trees}
    for i in range(PAIRS):
        order = list(trees) if i % 2 == 0 else list(reversed(trees))
        for name in order:
            samples[name].append(sample(trees[name]))
            print(f"pair {i + 1}/{PAIRS} {name} done", file=sys.stderr)
    import numpy

    record = {
        "bench": "bench/layers.py",
        "pairs": PAIRS,
        "machine": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
        },
        "trees": {
            name: {**_git(trees[name]), "median": summarize(s), "samples": s}
            for name, s in samples.items()
        },
    }
    text = json.dumps(record, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    for name, tree in record["trees"].items():
        print(name, json.dumps({s: tree["median"][s] for s in ("micro", "startup", "tables", "points", *SUITES)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
