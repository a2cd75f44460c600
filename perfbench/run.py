"""Benchmark of the etkbound CLI: closed loop, one subprocess at a time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload bound_dense --seed 1 --seconds 18 --trace 0

With --trace 0 the workload's CLI calls run back to back as subprocesses for
--seconds and the end-to-end metrics are reported.  With --trace 1 the same
calls are replayed in-process, traced and untraced, and the per-layer metrics
are reported.  Every output is checked (checks.py) on every iteration.  The
last line of stdout is one JSON object; a full record of the run, spans
included, goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from speed import reference_s, scaled

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
# A hung child is killed so that the whole run ends within this many seconds.
RUN_LIMIT_S = 170.0
STARTED = time.monotonic()
IMPORT_SAMPLES = 5
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class SetupError(Exception):
    """The checkout cannot be benchmarked; reported without a result line."""


# ---------------------------------------------------------------- environment


def load_spec() -> dict:
    from spans import valid_name, valid_unit
    from workloads import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        raise SetupError(f"BENCHMARK.json workloads {names} differ from {sorted(WORKLOADS)}")
    seen = set(names)
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not valid_name(m["name"]) or not valid_unit(m["unit"]) or m["name"] in seen:
            raise SetupError(f"bad or repeated metric {m}")
        seen.add(m["name"])
    return spec


def git_commit() -> str | None:
    """HEAD of the checkout read from .git, or None when it is not a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package sources, which names the code even without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "etkbound")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def env_stamp() -> dict:
    import numpy

    return {
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
        "loadavg_start": list(os.getloadavg()),
    }


# ---------------------------------------------------------------- CLI calls


@dataclass
class CallRecord:
    command: str
    wall_s: float
    peak_rss_mb: float
    exit_code: int


@dataclass
class Iteration:
    answer_s: float
    calls: list[CallRecord]

    def seconds(self, command: str) -> float:
        return sum(c.wall_s for c in self.calls if c.command == command)


class Launcher:
    """The small helper process (launcher.py) that forks and times every child."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True)

    def run(self, argv: list[str], stdout_path: str, stderr_path: str) -> tuple[float, float, int]:
        """(wall seconds, the child's own peak RSS in MiB, exit code)."""
        timeout = max(1.0, STARTED + RUN_LIMIT_S - time.monotonic())
        request = {"argv": argv, "stdout": stdout_path, "stderr": stderr_path, "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process exited")
        reply = json.loads(line)
        return reply["wall_s"], reply["peak_rss_mb"], reply["exit_code"]

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def cli_iteration(steps, workdir: str, launcher: Launcher) -> Iteration:
    calls = []
    start = time.perf_counter()
    for i, step in enumerate(steps):
        argv = [sys.executable, "-m", "etkbound", *step.argv(workdir)]
        wall, rss, code = launcher.run(argv, _log(workdir, i, "out"), _log(workdir, i, "err"))
        calls.append(CallRecord(step.command, wall, rss, code))
    return Iteration(time.perf_counter() - start, calls)


def _log(workdir: str, i: int, kind: str) -> str:
    return os.path.join(workdir, f"step{i}.{kind}")


def _read(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ETKBOUND_BUDGET", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_results(it: Iteration, workdir: str) -> list[tuple[int, str, str]]:
    return [(c.exit_code, _read(_log(workdir, i, "out")), _read(_log(workdir, i, "err")))
            for i, c in enumerate(it.calls)]


def replay_results(runs) -> list[tuple[int, str, str]]:
    return [(r.exit_code, r.stdout, "") for r in runs]


# ---------------------------------------------------------------- statistics


def summary(values) -> dict:
    values = list(values)
    out = {"median": statistics.median(values), "n": len(values), "min": min(values),
           "max": max(values)}
    if len(values) >= 2:
        q = statistics.quantiles(values, n=4)
        out["q1"], out["q3"] = q[0], q[2]
    return out


def timed_loop(seconds: float, body) -> None:
    """Call body(k) while the next call is predicted to end within `seconds`; at least once."""
    durations: list[float] = []
    start = time.perf_counter()
    while not durations or (time.perf_counter() - start) + statistics.median(durations) <= seconds:
        t = time.perf_counter()
        body(len(durations))
        durations.append(time.perf_counter() - t)


# ---------------------------------------------------------------- modes


@dataclass
class Context:
    steps: list
    seconds: float
    launcher: Launcher
    dirs: dict
    gate: object  # checks.Gate
    tracer: object  # spans.Tracer holding the warm-up replay
    warmup_calls: list
    record: dict
    refs: list  # reference loop times (speed.py) of this run so far
    setup_wall_s: float


def run_untraced(ctx: Context) -> dict:
    """End-to-end metrics from timed subprocess iterations."""
    iterations: list[Iteration] = []

    def body(k):
        it = cli_iteration(ctx.steps, ctx.dirs["cli"], ctx.launcher)
        ctx.refs.append(reference_s())
        ctx.gate.check_steps(cli_results(it, ctx.dirs["cli"]), ctx.dirs["cli"], f"iteration {k + 1}")
        iterations.append(it)

    timed_loop(ctx.seconds, body)
    ctx.record["iterations"] = [_iteration_record(it, ctx.steps) for it in iterations]
    ctx.record["reference_s"] = ctx.refs
    # the output files in the work directory are the last iteration's
    ctx.record["runtime_ms"] = runtime_ms_beside_wall(ctx, iterations[-1])

    # ctx.refs[0] and [1] bracket the set-up, [k + 1] and [k + 2] iteration k
    def at_reference_speed(wall):
        return summary(scaled(wall(it), ctx.refs[k + 1], ctx.refs[k + 2])
                       for k, it in enumerate(iterations))

    metrics = {
        "answer_s": at_reference_speed(lambda it: it.answer_s),
        "setup_s": summary([scaled(ctx.setup_wall_s, ctx.refs[0], ctx.refs[1])]),
        "answer_wall_s": summary(it.answer_s for it in iterations),
        "peak_rss_mb": summary(max(c.peak_rss_mb for c in it.calls) for it in iterations),
    }
    for command in ("gen", "bound"):
        if any(st.command == command for st in ctx.steps):
            metrics[f"{command}_s"] = at_reference_speed(lambda it, c=command: it.seconds(c))
    return metrics


def runtime_ms_beside_wall(ctx: Context, it: Iteration) -> list[dict]:
    """The CLI's own runtime_ms of each bound row next to the outside wall time of its call."""
    from checks import check_output

    out = []
    for i, (step, call) in enumerate(zip(ctx.steps, it.calls)):
        if step.command == "bound":
            facts = check_output(step, ctx.dirs["cli"], 0, "").facts
            out.append({"step": i, "wall_s": call.wall_s, "runtime_ms": facts.get("runtime_ms")})
    return out


def run_traced(ctx: Context) -> dict:
    """Per-layer metrics from traced and untraced in-process replays."""
    import replay as rp
    from checks import Gate, check_against_calls
    from workloads import PROBE_STEPS

    steps, dirs, gate, tracer = ctx.steps, ctx.dirs, ctx.gate, ctx.tracer
    # one CLI iteration: its call times are the denominators of the hot-layer shares
    cli_it = cli_iteration(steps, dirs["cli"], ctx.launcher)
    gate.check_steps(cli_results(cli_it, dirs["cli"]), dirs["cli"], "cli")

    traced_walls, untraced_walls, labels = [], [], []

    def untraced_pass(label):
        runs = rp.replay(steps, dirs["replay"])
        gate.check_steps(replay_results(runs), dirs["replay"], f"untraced {label}")
        untraced_walls.append(sum(r.wall for r in runs))

    def body(k):
        # traced and untraced replays alternate which goes first
        label = f"replay-{k + 1}"
        if k % 2:
            untraced_pass(label)
        runs, calls = rp.traced_replay(steps, dirs["replay"], tracer, label)
        extra = check_against_calls(gate, tracer, calls, label)
        gate.check_steps(replay_results(runs), dirs["replay"], label, extra)
        # the recorded calls keep the point sets alive; the untraced replay frees
        # them inside its steps, so the traced wall time includes their release
        start = time.perf_counter()
        del calls
        traced_walls.append(sum(r.wall for r in runs) + time.perf_counter() - start)
        labels.append(label)
        if not k % 2:
            untraced_pass(label)

    # half the budget for replays; the re-run passes below take about as long
    timed_loop(ctx.seconds / 2, body)

    # fixed probe for the layers this workload never calls
    tracer.iteration = "probe"
    probe_calls: list = []
    with rp.instrumented(tracer, probe_calls):
        probe_runs = rp.replay(PROBE_STEPS, dirs["probe"], tracer)
        rp.verify_mod.check_fc_bounds(bases=(2,), depth=3)
    probe_gate = Gate(PROBE_STEPS)
    probe_gate.check_steps(replay_results(probe_runs), dirs["probe"], "probe")
    gate.merge(probe_gate)

    pass_errors: list[str] = []
    values = rp.layer_times(tracer, labels, "probe")
    values.update(rp.layer_counts(ctx.warmup_calls, probe_calls, pass_errors))
    gate.record("re-run passes", pass_errors)
    imports = []
    for i in range(IMPORT_SAMPLES):
        argv = [sys.executable, "-c", "import etkbound.cli"]
        wall, _, code = ctx.launcher.run(argv, _log(dirs["cli"], i, "imp.out"),
                                         _log(dirs["cli"], i, "imp.err"))
        gate.record(f"import {i}", [] if code == 0 else [f"import exited {code}"])
        imports.append(wall)
    values["cli.import_s"] = (statistics.median(imports), "workload")
    values["systems.xi_phase_us"] = (rp.xi_phase_us(), "fixed sample")
    values["fourier.coeff_us"] = (rp.coeff_us(), "fixed sample")
    values["trace.overhead_s"] = (
        statistics.median(traced_walls) - statistics.median(untraced_walls), "workload")

    ctx.record["cli_iteration"] = _iteration_record(cli_it, steps)
    ctx.record["runtime_ms"] = runtime_ms_beside_wall(ctx, cli_it)
    ctx.record["inputs"] = rp.input_properties(ctx.warmup_calls)
    ctx.record["replays"] = {"traced_s": traced_walls, "untraced_s": untraced_walls}
    ctx.record["layer_source"] = {k: src for k, (_, src) in values.items()}
    ctx.record["hot_layer"] = hot_layer_shares(values, cli_it, len(steps))
    return {k: v for k, (v, _) in values.items()}


def hot_layer_shares(values: dict, it: Iteration, calls: int) -> dict:
    """Shares of one CLI iteration that the named layers account for."""

    def own(name):
        v, src = values[name] if name in values else (0.0, "probe")
        return v if src == "workload" else 0.0

    out = {}
    bound_s = it.seconds("bound")
    if bound_s:
        out["bounds.etk_bound_s/bound_s"] = own("bounds.etk_bound_s") / bound_s
    out["(oracle+import*calls)/answer_s"] = (
        own("oracle.extreme_s") + own("oracle.star_s") + values["cli.import_s"][0] * calls
    ) / it.answer_s
    out["(generate+pointfile)/answer_s"] = (
        own("sequences.generate_s") + own("pointfile.write_s") + own("pointfile.read_s")
    ) / it.answer_s
    return out


def _iteration_record(it: Iteration, steps) -> dict:
    return {
        "answer_s": it.answer_s,
        "calls": [dict(vars(c), argv=s.argv("@")) for c, s in zip(it.calls, steps)],
    }


# ---------------------------------------------------------------- main


def prepare(wl_name: str, seed: int) -> tuple[dict, list, dict]:
    """Inputs not under test: the spec, the steps (with their seeds) and clean work directories."""
    from workloads import WORKLOADS

    spec = load_spec()
    steps = WORKLOADS[wl_name](seed)
    base = os.path.join(OUT_DIR, "work", wl_name)
    shutil.rmtree(base, ignore_errors=True)
    dirs = {k: os.path.join(base, k) for k in ("cli", "replay", "probe", "seed")}
    for d in dirs.values():
        os.makedirs(d)
    return spec, steps, dirs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(SRC, "etkbound", "cli.py")):
        raise SetupError(f"no etkbound sources under {SRC}")
    with Launcher(child_env()) as launcher:
        return _run(args, launcher)


def _run(args, launcher: Launcher) -> int:
    sys.path.insert(0, SRC)
    os.environ.pop("ETKBOUND_BUDGET", None)
    import etkbound

    if not os.path.abspath(etkbound.__file__).startswith(SRC + os.sep):
        raise SetupError(f"etkbound imported from {etkbound.__file__}, not from {SRC}")
    from checks import Gate, check_against_calls, seed_check
    from replay import traced_replay
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SetupError(f"unknown workload {args.workload!r}, expected one of {sorted(WORKLOADS)}")

    record: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "env": env_stamp()}
    refs = [reference_s()]
    prep = []
    for _ in range(3):
        t = time.perf_counter()
        spec, steps, dirs = prepare(args.workload, args.seed)
        prep.append(time.perf_counter() - t)
    gate = Gate(steps)

    # warm-up: one traced in-process replay, whose outputs and recorded
    # etk_bound/oracle/suite results are the reference for every later check
    tracer = Tracer()
    t = time.perf_counter()
    runs, calls = traced_replay(steps, dirs["replay"], tracer, "warm-up")
    warmup_s = time.perf_counter() - t
    outs = [gate.check_step(i, r.exit_code, r.stdout, dirs["replay"]) for i, r in enumerate(runs)]
    extra = check_against_calls(gate, tracer, calls, "warm-up")
    for i, out in enumerate(outs):
        gate.record(f"warm-up step {i}", out.errors + extra[i])
    setup_wall_s = statistics.median(prep) + warmup_s

    record["steps"] = [s.argv("@") for s in steps]
    record["generated_sha256"] = [o.facts["sha256"] for o in gate.reference if o and "sha256" in o.facts]
    record["seed_check"] = seed_check(gate, WORKLOADS[args.workload], args.seed, dirs["seed"])
    refs.append(reference_s())
    ctx = Context(steps, args.seconds, launcher, dirs, gate, tracer, calls, record, refs,
                  setup_wall_s)
    if args.trace:
        values = run_traced(ctx)
        declared = spec["per_layer"]
    else:
        values = run_untraced(ctx)
        declared = spec["end_to_end"]
        record["setup"] = {"prep_s": prep, "warmup_s": warmup_s, "wall_s": setup_wall_s}
    record["spans"] = tracer.as_records()
    record["env"]["loadavg_end"] = list(os.getloadavg())
    record["fail_rate"] = {"failed": gate.failed, "attempted": gate.attempted,
                           "ratio": gate.failed / gate.attempted}
    record["failures"] = gate.failures
    record["metrics"] = values
    metrics = {}
    for m in declared:
        v = values[m["name"]]
        metrics[m["name"]] = {"value": v["median"] if isinstance(v, dict) else v, "unit": m["unit"]}

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    print_report(record, values, spec, args.trace, path)
    correct = gate.failed == 0
    print(json.dumps({"correct": correct, "attempted": gate.attempted, "failed": gate.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def print_report(record: dict, values: dict, spec: dict, trace: int, path: str) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"perfbench workload={record['workload']} seed={record['seed']} trace={trace}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    for name, v in values.items():
        unit = units.get(name, "s" if name.endswith("_s") else "")
        if isinstance(v, dict):
            spread = f" q1={v['q1']:.6g} q3={v['q3']:.6g}" if "q1" in v else ""
            print(f"{name:28s} {v['median']:.6g} {unit} median of n={v['n']}{spread}")
        else:
            src = record.get("layer_source", {}).get(name, "")
            print(f"{name:28s} {v:.6g} {unit} ({src})")
    for name, share in record.get("hot_layer", {}).items():
        print(f"hot layer {name} = {share:.3f}")
    fr = record["fail_rate"]
    print(f"fail_rate {fr['ratio']:.6g} ({fr['failed']}/{fr['attempted']})")
    for line in record["failures"][:20]:
        print(f"FAIL {line}")
    print(f"record {os.path.relpath(path, ROOT)}")


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
