"""The benchmark's workloads: fixed sequences of etkbound CLI calls.

A workload is a function of the seed (and, for the seed check, of a cap on
the point count) that returns its steps.  File arguments written as
``@name`` are resolved inside the run's work directory, so the same steps
run as subprocesses and in-process.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Step:
    """One CLI call and what its output must look like."""

    command: str  # gen | bound | verify
    args: tuple[str, ...]
    out: str | None = None  # file written through --out; None means stdout
    seeded: bool = False  # the generated file depends on the workload seed
    g: tuple[int, ...] = ()
    variants: tuple[str, ...] = ()
    oracle: bool = False
    exact: Fraction | None = None  # known exact discrepancy of the input

    def argv(self, workdir: str) -> list[str]:
        resolved = [os.path.join(workdir, a[1:]) if a.startswith("@") else a for a in self.args]
        return [self.command, *resolved]


def _n(n: int, cap: int | None) -> str:
    return str(n if cap is None else min(n, cap))


def gen(out: str, *args: str, seeded: bool = False) -> Step:
    return Step("gen", (*args, "--out", "@" + out), out=out, seeded=seeded)


def bound(
    src: str, out: str, tags: str, g: str, variant: str, oracle: bool = False, exact=None
) -> Step:
    flags = ("--oracle",) if oracle else ()
    args = ("@" + src, "--tags", tags, "--g", g, "--variant", variant, *flags,
            "--format", "json", "--out", "@" + out)
    variants = ("extreme", "star") if variant == "both" else (variant,)
    g_vec = tuple(int(x) for x in g.split(","))
    return Step("bound", args, out=out, g=g_vec, variants=variants, oracle=oracle, exact=exact)


def verify(suite: str) -> Step:
    return Step("verify", (suite,))


def bound_dense(seed: int, cap: int | None = None) -> list[Step]:
    return [
        gen("bd.pts", "hybrid", "--walsh", f"digital:2,seed={seed}", "--badic", "halton:3",
            "--n", _n(4096, cap), seeded=True),
        bound("bd.pts", "bd.json", "w,b", "8,5", "extreme"),
    ]


def full_rank_seed(seed: int, points: int = 64) -> int:
    """First seed from 1000*seed on whose `gen digital --s 2 --m 8` net has distinct coordinates.

    Singular random generator matrices repeat coordinate values, which shrinks
    the oracle's grid and its memory by up to 5x; skipping them keeps the work
    of certify_caps the same for every seed.  Distinct seeds map to distinct
    results, so the seed still changes the input.
    """
    import contextlib
    import io

    from etkbound.cli import main

    for candidate in range(1000 * seed, 1000 * seed + 1000):
        buf = io.StringIO()
        argv = ["gen", "digital", "--base", "2", "--s", "2", "--m", "8",
                f"--seed={candidate}", "--n", str(points)]
        with contextlib.redirect_stdout(buf):
            main(argv)
        rows = [line.split() for line in buf.getvalue().splitlines() if not line.startswith("#")]
        if all(len({row[i] for row in rows}) == points for i in range(2)):
            return candidate
    raise RuntimeError(f"no full-rank digital net near seed {seed}")


def certify_caps(seed: int, cap: int | None = None) -> list[Step]:
    return [
        gen("vdc.pts", "vdc", "--base", "2", "--n", "64"),
        bound("vdc.pts", "vdc.json", "w", "1", "extreme", oracle=True, exact=Fraction(1, 64)),
        gen("dig.pts", "digital", "--base", "2", "--s", "2", "--m", "8", f"--seed={full_rank_seed(seed)}",
            "--n", _n(64, cap), seeded=True),
        bound("dig.pts", "dig.json", "w,w", "2,2", "extreme", oracle=True),
        gen("hal.pts", "halton", "--bases", "2,3", "--n", "256"),
        bound("hal.pts", "hal.json", "w,b", "3,2", "star", oracle=True),
        gen("hyb.pts", "hybrid", "--walsh", "vdc:2", "--badic", "halton:3,5", "--n", "64"),
        bound("hyb.pts", "hyb.json", "w,b,b", "2,1,1", "star", oracle=True),
    ]


def stream_wide(seed: int, cap: int | None = None) -> list[Step]:
    return [
        gen("sw.pts", "hybrid", "--walsh", f"digital:2,m=16,seed={seed}", "--badic", "halton:3,5",
            "--n", _n(32768, cap), seeded=True),
        bound("sw.pts", "sw.json", "w,b,b", "2,1,1", "both"),
    ]


def verify_fourier(seed: int, cap: int | None = None) -> list[Step]:
    """Seed-independent: the suites are fixed, so the seed is ignored."""
    return [verify("fourier"), verify("fc-bounds")]


WORKLOADS = {
    "bound_dense": bound_dense,
    "certify_caps": certify_caps,
    "stream_wide": stream_wide,
    "verify_fourier": verify_fourier,
}

# Fixed small input that measures a layer on a workload that never calls it.
PROBE_STEPS = [
    gen("probe.pts", "halton", "--bases", "2,3", "--n", "32"),
    bound("probe.pts", "probe.json", "w,b", "3,2", "both", oracle=True),
]
