"""Command-line front end: gen, bound, discrepancy, verify.

Exit codes: 0 success, 1 usage or input error, 2 verification failure.  Only
bound takes a budget, on its index box and phase-table entries: --budget,
else the ETKBOUND_BUDGET environment variable, else 2^24; a value below 1 is
a usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time

from .badic import DEFAULT_BUDGET, BudgetExceededError, _block_rows
from .bounds import EXTREME, STAR, etk_bound
from .oracle import (
    CapExceededError,
    DiscrepancyResult,
    extreme_discrepancy_exact,
    star_discrepancy_exact,
)
from .pointfile import read_point_set, write_point_set
from .sequences import (
    HaltonConfig,
    PointSet,
    VdcConfig,
    config_from_string,
    generate_points,
    hybrid_points,
)
from .systems import BADIC, WALSH, HybridSystemSpec
from .verify import SUITES, run_suites

__all__ = ["main"]

BUDGET_ENV = "ETKBOUND_BUDGET"

_TAG_LETTERS = {"w": WALSH, "b": BADIC}


class UsageError(Exception):
    """Bad flags or bad input data; reported on stderr with exit status 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_ints(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"{flag} expects comma-separated integers, got {text!r}")


def _parse_tags(text: str, s: int) -> tuple[str, ...]:
    tags = []
    for part in text.split(","):
        part = part.strip().lower()
        if part in _TAG_LETTERS:
            tags.append(_TAG_LETTERS[part])
        elif part in (WALSH, BADIC):
            tags.append(part)
        else:
            raise UsageError(f"unknown tag {part!r}, expected w/walsh or b/badic")
    if len(tags) != s:
        raise UsageError(f"expected {s} tags, got {len(tags)}")
    return tuple(tags)


def _budget(args) -> int:
    if args.budget is not None:
        value, source = args.budget, "--budget"
    else:
        raw = os.environ.get(BUDGET_ENV)
        if raw is None:
            return DEFAULT_BUDGET
        try:
            value, source = int(raw), BUDGET_ENV
        except ValueError:
            raise UsageError(f"{BUDGET_ENV} must be an integer, got {raw!r}")
    if value < 1:
        raise UsageError(f"{source} must be positive, got {value}")
    return value


def _open_points(path: str) -> PointSet:
    try:
        if path == "-":
            return read_point_set(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return read_point_set(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}")


def _write_slices(text: str, fh) -> None:
    # a slice and its encoding take at most 8 bytes a character; the whole text is never encoded
    step = _block_rows(8)
    for start in range(0, len(text), step):
        fh.write(text[start : start + step])


def _write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        _write_slices(text, sys.stdout)
        if text and not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            _write_slices(text, fh)
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc}")


def cmd_gen(args) -> int:
    if args.kind == "vdc":
        config = VdcConfig(args.base)
        points = generate_points(config, args.n)
    elif args.kind == "halton":
        config = HaltonConfig(_parse_ints(args.bases, "--bases"))
        points = generate_points(config, args.n)
    elif args.kind == "digital":
        label = "identity" if args.identity else f"seed={args.seed}"
        config = config_from_string(f"digital:{args.base},s={args.s},m={args.m},{label}")
        points = generate_points(config, args.n)
    else:  # hybrid
        walsh_part = config_from_string(args.walsh) if args.walsh else None
        badic_part = config_from_string(args.badic) if args.badic else None
        if walsh_part is None and badic_part is None:
            raise UsageError("hybrid needs at least one of --walsh/--badic")
        widths = [len(part.bases) if part else 0 for part in (walsh_part, badic_part)]
        if args.tags:
            tags = _parse_tags(args.tags, sum(widths))
        else:
            tags = (WALSH,) * widths[0] + (BADIC,) * widths[1]
        points = hybrid_points(tags, walsh_part, badic_part, args.n)
    buf = io.StringIO()
    write_point_set(points, buf)
    # the columns and the buffer go before the text is written, so only the text is held then
    del points
    text = buf.getvalue()
    del buf
    _write_output(text, args.out)
    return 0


def _variants(choice: str) -> list[str]:
    return [EXTREME, STAR] if choice == "both" else [choice]


def _oracle(points: PointSet, variant: str) -> DiscrepancyResult:
    if variant == STAR:
        return star_discrepancy_exact(points)
    return extreme_discrepancy_exact(points)


# CSV columns per report; list fields join with their separator, runtime_ms
# prints to the microsecond and every other cell is csv's own str()
_CSV_COLUMNS = {
    "bound": (
        "variant", "n", "g", "epsilon", "weighted_sum", "bound_total",
        "exact_discrepancy", "margin", "runtime_ms",
    ),
    "discrepancy": (
        "variant", "n", "value", "exact", "witness_lower", "witness_upper",
        "closure", "attained", "runtime_ms",
    ),
}
_CSV_JOIN = {"g": ",", "witness_lower": ";", "witness_upper": ";"}


def _report(args, command: str, points: PointSet, rows: list[dict], **header) -> None:
    """Write one report as a JSON document, or as CSV derived from the same rows.

    The CSV has one line per row over the command's columns (n is the point
    count), then each row's per-k table as `#` comment lines.
    """
    doc = {
        "schema": 1,
        "command": command,
        "n_points": points.n_points,
        "bases": list(points.bases),
        **header,
        "rows": rows,
    }
    if args.format == "json":
        _write_output(json.dumps(doc, indent=2), args.out)
        return
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    columns = _CSV_COLUMNS[command]
    writer.writerow(columns)
    for row in rows:
        cells = {"n": points.n_points, **row, "runtime_ms": f"{row['runtime_ms']:.3f}"}
        writer.writerow(
            _CSV_JOIN[c].join(map(str, cells[c])) if c in _CSV_JOIN else cells[c] for c in columns
        )
    for row in rows:
        if "per_k" not in row:
            continue
        buf.write(f"# per-k variant={row['variant']} g={','.join(map(str, row['g']))}\n")
        for e in row["per_k"]:
            k = ",".join(map(str, e["k"]))
            buf.write(f"# k={k} weight={e['weight']!r} abs_sum={e['abs_sum']!r}\n")
    _write_output(buf.getvalue(), args.out)


def _bound_rows(args, points: PointSet, spec: HybridSystemSpec, budget: int) -> list[dict]:
    g_list = []
    for raw in args.g:
        g = _parse_ints(raw, "--g")
        if len(g) == 1 and spec.s > 1:
            g = g * spec.s
        if len(g) != spec.s:
            raise UsageError(f"--g {raw} has {len(g)} components, expected {spec.s}")
        g_list.append(g)
    oracle_cache: dict[str, DiscrepancyResult] = {}
    rows = []
    for g in g_list:
        for variant in _variants(args.variant):
            start = time.perf_counter()
            rep = etk_bound(spec, g, points, variant, per_index=args.per_k, budget=budget)
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            exact = margin = None
            if args.oracle:
                if variant not in oracle_cache:
                    oracle_cache[variant] = _oracle(points, variant)
                exact = oracle_cache[variant].value
                margin = rep.total - exact
            row = {
                "variant": variant,
                "n": points.n_points,
                "g": list(g),
                "epsilon": rep.epsilon,
                "weighted_sum": rep.weighted_sum,
                "bound_total": rep.total,
                "exact_discrepancy": exact,
                "margin": margin,
                "runtime_ms": elapsed_ms,
            }
            if args.per_k:
                row["per_k"] = [
                    {"k": list(k), "weight": w, "abs_sum": a} for k, w, a in rep.per_index
                ]
            rows.append(row)
    return rows


def cmd_bound(args) -> int:
    points = _open_points(args.file)
    if args.tags:
        tags = _parse_tags(args.tags, points.s)
    else:
        tags = (WALSH,) * points.s
    spec = HybridSystemSpec.from_tags(points.bases, tags)
    rows = _bound_rows(args, points, spec, _budget(args))
    _report(args, "bound", points, rows, tags=list(spec.tags))
    return 0


def cmd_discrepancy(args) -> int:
    points = _open_points(args.file)
    rows = []
    for variant in _variants(args.variant):
        start = time.perf_counter()
        result = _oracle(points, variant)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        rows.append(
            {
                "variant": variant,
                "value": result.value,
                "exact": str(result.exact),
                "witness_lower": [str(x) for x in result.witness.lower],
                "witness_upper": [str(x) for x in result.witness.upper],
                "closure": result.witness.closure,
                "attained": result.attained,
                "runtime_ms": elapsed_ms,
            }
        )
    _report(args, "discrepancy", points, rows)
    return 0


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise UsageError(f"--trials must be at least 1, got {args.trials}")
    results = run_suites(args.suite, trials=args.trials, seed=args.seed)
    failed = False
    for result in results:
        status = "ok" if result.ok else "FAIL"
        extra = f" ({result.summary})" if result.summary else ""
        print(f"{result.name}: {result.checks} checks, {len(result.failures)} failures {status}{extra}")
        for line in result.failures[:20]:
            print(f"  {line}")
        if len(result.failures) > 20:
            print(f"  ... {len(result.failures) - 20} more")
        failed = failed or not result.ok
    total = sum(r.checks for r in results)
    if failed:
        print(f"verification FAILED ({total} checks)")
        return 2
    print(f"all suites passed ({total} checks)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="etkbound", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("gen", help="generate a point set and write it as a point file")
    gen_sub = gen.add_subparsers(dest="kind", required=True, parser_class=_Parser)
    gen_vdc = gen_sub.add_parser("vdc", help="van der Corput sequence")
    gen_vdc.add_argument("--base", type=int, required=True)
    gen_halton = gen_sub.add_parser("halton", help="Halton sequence")
    gen_halton.add_argument("--bases", required=True, help="comma-separated bases, e.g. 2,3")
    gen_digital = gen_sub.add_parser("digital", help="digital net from generator matrices")
    gen_digital.add_argument("--base", type=int, required=True)
    gen_digital.add_argument("--s", type=int, default=1, help="dimension (default 1)")
    gen_digital.add_argument("--m", type=int, default=8, help="matrix size / digit precision")
    group = gen_digital.add_mutually_exclusive_group()
    group.add_argument("--seed", type=int, default=0, help="seed for random matrices")
    group.add_argument("--identity", action="store_true", help="use identity matrices")
    gen_hybrid = gen_sub.add_parser("hybrid", help="hybrid of two generator configs")
    gen_hybrid.add_argument("--walsh", help="generator config, e.g. vdc:2 or digital:2,s=2,seed=1")
    gen_hybrid.add_argument("--badic", help="generator config, e.g. halton:3,5")
    gen_hybrid.add_argument("--tags", help="coordinate tag order, e.g. w,b,b")
    for p in (gen_vdc, gen_halton, gen_digital, gen_hybrid):
        p.add_argument("--n", type=int, required=True, help="number of points")
        p.add_argument("--out", help="output path (default stdout)")
        p.set_defaults(func=cmd_gen)

    bound = sub.add_parser("bound", help="weighted discrepancy bound for a point file")
    bound.add_argument("file", help="point file path, or - for stdin")
    bound.add_argument("--tags", help="per-coordinate tags, e.g. w,w,b (default all walsh)")
    bound.add_argument(
        "--g", action="append", required=True,
        help="resolution vector, e.g. 2,3; repeat for multiple rows",
    )
    bound.add_argument("--variant", choices=(EXTREME, STAR, "both"), default="both")
    bound.add_argument("--oracle", action="store_true", help="also run the exact oracle")
    bound.add_argument("--per-k", action="store_true", help="include the per-index table")
    bound.add_argument("--format", choices=("csv", "json"), default="csv")
    bound.add_argument("--budget", type=int, help="cap on the index box and phase-table entries")
    bound.add_argument("--out", help="output path (default stdout)")
    bound.set_defaults(func=cmd_bound)

    disc = sub.add_parser("discrepancy", help="exact discrepancy of a point file")
    disc.add_argument("file", help="point file path, or - for stdin")
    disc.add_argument("--variant", choices=(EXTREME, STAR, "both"), default="both")
    disc.add_argument("--format", choices=("csv", "json"), default="csv")
    disc.add_argument("--out", help="output path (default stdout)")
    disc.set_defaults(func=cmd_discrepancy)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=SUITES)
    verify.add_argument("--trials", type=int, default=100, help="domination sweep size, >= 1")
    verify.add_argument("--seed", type=int, default=1, help="sweep seed")
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError, BudgetExceededError, CapExceededError) as exc:
        print(f"etkbound: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
