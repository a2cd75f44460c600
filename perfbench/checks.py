"""Correctness gate: what every gen, bound and verify output must satisfy.

Each check looks only at the files and text a call produced.  The canonical
form of an output (file hash, bound JSON without runtime_ms, verify text) is
what later iterations and the in-process replay must reproduce bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field

from etkbound.bounds import STAR, epsilon_fraction
from etkbound.oracle import DOMINATION_SLACK

from workloads import Step

_VERIFY_DONE = re.compile(r"all suites passed \((\d+) checks\)")
SEED_CHECK_POINTS = 64


@dataclass
class Output:
    canonical: str | None = None
    facts: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


def check_output(step: Step, workdir: str, exit_code: int, stdout: str) -> Output:
    out = Output()
    if exit_code != 0:
        out.errors.append(f"{step.command} exited {exit_code}")
        return out
    if step.command == "gen":
        _check_gen(step, workdir, out)
    elif step.command == "bound":
        _check_bound(step, workdir, out)
    else:
        _check_verify(stdout, out)
    return out


def _check_gen(step: Step, workdir: str, out: Output) -> None:
    path = os.path.join(workdir, step.out)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        out.errors.append(f"gen output unreadable: {exc}")
        return
    if not data.startswith(b"#bases "):
        out.errors.append("gen output lacks the #bases header")
    out.canonical = hashlib.sha256(data).hexdigest()
    out.facts = {"sha256": out.canonical, "bytes": len(data)}


def _check_bound(step: Step, workdir: str, out: Output) -> None:
    try:
        with open(os.path.join(workdir, step.out), encoding="utf-8") as fh:
            payload = json.load(fh)
        rows = payload["rows"]
        bases = tuple(payload["bases"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        out.errors.append(f"bound output unparsable: {exc!r}")
        return
    if [r.get("variant") for r in rows] != list(step.variants):
        out.errors.append(f"bound rows {[r.get('variant') for r in rows]} != {list(step.variants)}")
        return
    runtime_ms = []
    for row in rows:
        try:
            _check_row(step, bases, row, out.errors)
            runtime_ms.append(row.pop("runtime_ms"))
        except (KeyError, TypeError, ValueError) as exc:
            out.errors.append(f"bound row malformed: {exc!r}")
    out.canonical = json.dumps(payload, sort_keys=True)
    out.facts = {"runtime_ms": runtime_ms, "rows": rows, "bases": bases}


def _check_row(step: Step, bases: tuple[int, ...], row: dict, errors: list[str]) -> None:
    tag = f"{row['variant']} g={row['g']}"
    if tuple(row["g"]) != step.g:
        errors.append(f"{tag}: g differs from requested {step.g}")
        return
    if row["bound_total"] != row["epsilon"] + row["weighted_sum"]:
        errors.append(f"{tag}: bound_total != epsilon + weighted_sum")
    eps = float(epsilon_fraction(bases, step.g, star=row["variant"] == STAR))
    if row["epsilon"] != eps:
        errors.append(f"{tag}: epsilon {row['epsilon']!r} != {eps!r}")
    exact, margin = row["exact_discrepancy"], row["margin"]
    if not step.oracle:
        if exact is not None or margin is not None:
            errors.append(f"{tag}: oracle fields set without --oracle")
        return
    if exact is None or margin is None:
        errors.append(f"{tag}: oracle fields missing")
        return
    if margin != row["bound_total"] - exact:
        errors.append(f"{tag}: margin != bound_total - exact_discrepancy")
    if margin < -DOMINATION_SLACK:
        errors.append(f"{tag}: bound fails to dominate, margin {margin!r}")
    if step.exact is not None and exact != float(step.exact):
        errors.append(f"{tag}: exact discrepancy {exact!r} != {step.exact}")


def _check_verify(stdout: str, out: Output) -> None:
    lines = stdout.strip().splitlines()
    match = _VERIFY_DONE.fullmatch(lines[-1]) if lines else None
    if match is None:
        out.errors.append("verify output lacks the all-passed line")
        return
    out.canonical = stdout
    out.facts = {"checks": int(match.group(1))}


class Gate:
    """Counts operations and failures; the first outputs become the reference."""

    def __init__(self, steps):
        self.steps = steps
        self.reference: list = [None] * len(steps)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check_step(self, i: int, exit_code: int, stdout: str, workdir: str) -> Output:
        out = check_output(self.steps[i], workdir, exit_code, stdout)
        if out.canonical is not None:
            if self.reference[i] is None:
                self.reference[i] = out
            elif out.canonical != self.reference[i].canonical:
                out.errors.append("output differs from the in-process reference")
        return out

    def check_steps(self, results, workdir: str, label: str, extra=None) -> None:
        """One operation per step; results are (exit code, stdout, stderr) triples."""
        for i, (code, stdout, stderr) in enumerate(results):
            errors = self.check_step(i, code, stdout, workdir).errors + (extra[i] if extra else [])
            if code != 0 and stderr.strip():
                errors.append(stderr.strip()[-300:])
            self.record(f"{label} step {i}", errors)

    def record(self, label: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.failures.extend(f"{label}: {e}" for e in errors)

    def merge(self, other: "Gate") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures


def check_against_calls(gate: Gate, tracer, calls, iteration: str) -> list[list[str]]:
    """Per step: do the reference outputs match the recorded in-process results?"""
    roots = [sp for sp in tracer.spans if sp.iteration == iteration and sp.parent is None
             and sp.name.startswith("cli.")]
    parent = {sp.id: sp.parent for sp in tracer.spans}

    def under(c, root_id):
        node = parent[c.span]
        while node is not None and node != root_id:
            node = parent[node]
        return node == root_id

    errors = []
    for i, (step, root) in enumerate(zip(gate.steps, roots)):
        errs: list[str] = []
        ref = gate.reference[i]
        mine = [c for c in calls if under(c, root.id)]
        if ref is None:
            errs.append("no reference output")
        elif step.command == "bound":
            reports = [c.result for c in mine if c.name == "bounds.etk_bound"]
            exact = {c.result.variant: c.result.value for c in mine if c.name.startswith("oracle.")}
            for row, rep in zip(ref.facts["rows"], reports):
                got = (row["epsilon"], row["weighted_sum"], row["bound_total"])
                if got != (rep.epsilon, rep.weighted_sum, rep.total):
                    errs.append(f"{row['variant']}: output row differs from the etk_bound report")
                if step.oracle and row["exact_discrepancy"] != exact.get(row["variant"]):
                    errs.append(f"{row['variant']}: exact value differs from the oracle result")
            if len(reports) != len(ref.facts["rows"]):
                errs.append("etk_bound call count differs from the output rows")
        elif step.command == "verify":
            checks = sum(c.result.checks for c in mine if c.name.startswith("verify.check_"))
            if checks != ref.facts["checks"]:
                errs.append(f"output reports {ref.facts['checks']} checks, suites ran {checks}")
        errors.append(errs)
    return errors


def seed_check(gate: Gate, make_steps, seed: int, workdir: str) -> dict:
    """Generated files must differ between seed and seed+1 (prefixes of 64 points)."""
    from replay import replay

    hashes = {}
    for s in (seed, seed + 1):
        steps = [st for st in make_steps(s, SEED_CHECK_POINTS) if st.seeded]
        if not steps:
            return {"seed_used": False}
        runs = replay(steps, workdir)
        hashes[s] = [check_output(st, workdir, r.exit_code, r.stdout).canonical
                     for st, r in zip(steps, runs)]
    same = [a is None or a == b for a, b in zip(hashes[seed], hashes[seed + 1])]
    gate.record("seed check", ["seed and seed+1 generate the same file"] if any(same) else [])
    return {"seed_used": True, "prefix_sha256": hashes}
