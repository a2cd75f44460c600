"""Randomized and exhaustive invariant suites behind the verify command.

Each suite returns a SuiteResult with the number of checks run and a list of
failure descriptions; an empty list is a pass.  The domination sweep is the
heavyweight one: seeded random configurations, bound versus exact oracle,
with the closed-form and truncation cross-checks folded into each trial.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .badic import EXTREME, STAR, SUITES, _block_rows, enumerate_delta
from .bounds import (
    _unit,
    cb_constant,
    corollary_bound,
    epsilon_fraction,
    etk_bound,
    rho_star,
    rho_vec,
    weight_sum,
)
from .fourier import (
    elint_contains,
    elint_fourier_coeff,
    elint_partition,
    partition_inner_product,
)
from .oracle import DOMINATION_SLACK, extreme_discrepancy_exact, star_discrepancy_exact
from .sequences import (
    DigitalConfig,
    GeneratorMatrix,
    HaltonConfig,
    VdcConfig,
    generate_points,
    hybrid_points,
)
from .systems import BADIC, WALSH, HybridSystemSpec, PhaseTable, phase_numerators

__all__ = [
    "SUITES",
    "SuiteResult",
    "check_fc_bounds",
    "check_fourier",
    "check_orthonormality",
    "check_reconstruction",
    "check_weights",
    "domination_sweep",
    "run_suites",
]


@dataclass
class SuiteResult:
    name: str
    checks: int
    failures: list[str] = field(default_factory=list)
    summary: str = ""

    @property
    def ok(self) -> bool:
        return not self.failures


# Largest float error a check forgives: looser where a suite compares a float
# sum (a truncated series, up to 5^6 weights) with its closed form.
_TOL = 1e-12
_SUM_TOL = 1e-10

# (spec, g) menus: bases 2 and 3 with both tags and mixed-tag pairs, index
# boxes up to 81 cells, kept small enough for exhaustive pairwise checks.
_ORTHO_CONFIGS = (
    (HybridSystemSpec(((2, WALSH),)), (6,)),
    (HybridSystemSpec(((2, BADIC),)), (5,)),
    (HybridSystemSpec(((3, WALSH),)), (4,)),
    (HybridSystemSpec(((3, BADIC),)), (3,)),
    (HybridSystemSpec(((2, WALSH), (3, BADIC))), (2, 2)),
    (HybridSystemSpec(((2, BADIC), (3, WALSH))), (3, 1)),
    (HybridSystemSpec(((2, WALSH), (2, BADIC))), (3, 3)),
    (HybridSystemSpec(((3, BADIC), (3, BADIC))), (2, 2)),
)

_FOURIER_CONFIGS = (
    (HybridSystemSpec(((2, WALSH),)), (4,)),
    (HybridSystemSpec(((2, BADIC),)), (5,)),
    (HybridSystemSpec(((3, BADIC),)), (3,)),
    (HybridSystemSpec(((5, WALSH),)), (2,)),
    (HybridSystemSpec(((2, WALSH), (3, BADIC))), (2, 1)),
    (HybridSystemSpec(((2, BADIC), (2, WALSH))), (2, 2)),
    (HybridSystemSpec(((3, WALSH), (2, BADIC))), (1, 2)),
)

_RECONSTRUCTION_CONFIGS = (
    (HybridSystemSpec(((2, WALSH),)), (2,)),
    (HybridSystemSpec(((2, BADIC),)), (2,)),
    (HybridSystemSpec(((3, WALSH),)), (1,)),
    (HybridSystemSpec(((3, BADIC),)), (1,)),
    (HybridSystemSpec(((2, WALSH), (2, BADIC))), (1, 1)),
    (HybridSystemSpec(((3, BADIC), (2, WALSH))), (1, 1)),
)


def _xi_table(spec: HybridSystemSpec, g: tuple[int, ...], cells: tuple[int, ...]) -> np.ndarray:
    """Mean of xi_k over each elint: rows k in enumerate_delta(g), columns elint_partition(cells).

    xi_k is constant on the resolution-max(g, cells) elints, so each axis's integer
    table is phase_numerators of their cell indices, in index order (fc-bounds orders
    its cells by value); the tables are lifted to their lcm and outer-summed,
    coordinate 1 slowest, and turned into unit values (`_unit`) row by row, so
    no scratch is as large as the table.  Fine cell c' lies in elint c when
    c' mod b^cells = c, so the refinement axes average out.
    """
    common = math.lcm(*(b**gi for b, gi in zip(spec.bases, g)))
    total = np.zeros((1, 1), dtype=np.int64)
    for (base, tag), gi, ci in zip(spec.coordinates, g, cells):
        axis = phase_numerators(np.arange(base ** max(gi, ci)), base, tag, gi) * (common // base**gi)
        total = np.add.outer(total, axis).transpose(0, 2, 1, 3).reshape(len(total) * len(axis), -1)
    values = np.empty(total.shape, dtype=complex)
    for row, out in zip(total, values):
        out[:] = _unit(row % common, common)
    split = [n for b, gi, ci in zip(spec.bases, g, cells) for n in (b ** max(gi - ci, 0), b**ci)]
    means = values.reshape(len(values), *split).mean(axis=tuple(range(1, 2 * spec.s, 2)))
    return means.reshape(len(values), -1)


def check_orthonormality() -> SuiteResult:
    """Pairwise inner products over the tiling equal the identity matrix."""
    result = SuiteResult("orthonormality", 0)
    for spec, g in _ORTHO_CONFIGS:
        table = _xi_table(spec, g, g)
        err = np.abs(table @ table.conj().T / table.shape[1] - np.eye(len(table))).max()
        result.checks += len(table) ** 2
        if err > _TOL:
            result.failures.append(f"{spec.bases}/{spec.tags} g={g}: gram error {err:.3e}")
        # spot-check the exact-phase route: xi_0 and the last index are orthogonal
        k, l = (0,) * spec.s, tuple(b**gi - 1 for b, gi in zip(spec.bases, g))
        exact = partition_inner_product(spec, g, k, l)
        result.checks += 1
        if abs(exact) > _TOL:
            result.failures.append(f"{spec.bases}/{spec.tags} g={g}: ip(k0,klast) = {exact}")
    return result


def check_fourier() -> SuiteResult:
    """Coefficient formula equals direct integration; zero outside the box exactly."""
    result = SuiteResult("fourier", 0)
    for spec, g in _FOURIER_CONFIGS:
        # the integral of conj(xi_k) over an elint is its measure times the conjugate mean
        means = _xi_table(spec, tuple(gi + 1 for gi in g), g)
        integrals = (means.conj() / means.shape[1]).T.tolist()
        for e, column in zip(elint_partition(spec.bases, g), integrals):
            for k, direct in zip(enumerate_delta(spec.bases, tuple(gi + 1 for gi in g)), column):
                coeff = elint_fourier_coeff(e, k, spec)
                result.checks += 1
                if any(ki >= b**gi for ki, b, gi in zip(k, spec.bases, g)):
                    if coeff != 0:
                        result.failures.append(f"{spec.bases} g={g} k={k}: nonzero outside box")
                    if abs(direct) > _TOL:
                        result.failures.append(f"{spec.bases} g={g} k={k}: integral {direct}")
                elif abs(coeff - direct) > _TOL:
                    result.failures.append(
                        f"{spec.bases} g={g} c={e.c} k={k}: {coeff} vs {direct}"
                    )
    return result


def check_reconstruction() -> SuiteResult:
    """Truncated series of an elint indicator reproduces membership on the fine grid."""
    result = SuiteResult("reconstruction", 0)
    for spec, g in _RECONSTRUCTION_CONFIGS:
        g_fine = tuple(gi + 1 for gi in g)
        elints = list(elint_partition(spec.bases, g))
        indices = list(enumerate_delta(spec.bases, g))
        coeffs = np.array([[elint_fourier_coeff(e, k, spec) for k in indices] for e in elints])
        probes = [cell.anchor_digits() for cell in elint_partition(spec.bases, g_fine)]
        for e, row in zip(elints, (coeffs @ _xi_table(spec, g, g_fine)).real.tolist()):
            for x, got in zip(probes, row):
                want = 1.0 if elint_contains(e, x) else 0.0
                result.checks += 1
                if abs(got - want) > _SUM_TOL:
                    result.failures.append(
                        f"{spec.bases}/{spec.tags} g={g} c={e.c}: {got} vs {want}"
                    )
    return result


def check_fc_bounds(bases=(2, 3, 5), depth: int = 4) -> SuiteResult:
    """|anchored coefficient| <= rho_star(k), the closed-form estimate, on the full rational grid.

    Every beta = a/b^depth sits on a cell boundary of the depth-resolution
    tiling and every index below b^depth is constant on those cells, so row k
    of the (k, beta) table is one cumulative sum of phase values, looked up
    from the b^depth roots of unity; its columns are the cells in order of
    value, whose indices are the digit reversals of 0 .. b^depth - 1.  Rows
    go in blocks of about badic._BLOCK_BYTES of all that a block holds: its
    complex sums, the int64 phase rows they are looked up from and the float
    excess, each read from the PhaseTable of one base and tag.
    """
    result = SuiteResult("fc-bounds", 0)
    for base in bases:
        grid = base**depth
        # column a is the cell whose lower corner is a/b^depth: its index is a's digits reversed
        anchors = np.arange(grid).reshape((base,) * depth).T.ravel()
        limits = np.array([rho_star(k, base) for k in range(1, grid)])
        unit = _unit(-np.arange(grid), grid)
        step = _block_rows(32 * grid)
        for tag in (WALSH, BADIC):
            table = PhaseTable(anchors, base, tag, depth)
            for start in range(1, grid, step):
                coeffs = unit[table.rows(start, min(start + step, grid))]
                np.cumsum(coeffs, axis=1, out=coeffs)
                coeffs /= grid
                over = np.abs(coeffs)
                over -= limits[start - 1 : start - 1 + step, None]
                result.checks += coeffs.size
                for ki, ai in np.argwhere(over > _TOL):
                    result.failures.append(
                        f"b={base} {tag} k={start + ki} beta={ai + 1}/{grid}: "
                        f"excess {over[ki, ai]:.3e}"
                    )
                del coeffs, over  # so that the next block is built after this one is freed
    return result


def check_weights() -> SuiteResult:
    """Closed-form weight totals match explicit sums; C(b) stays under its bound."""
    result = SuiteResult("weights", 0)
    domains = [
        ((2,), (3,)),
        ((3,), (3,)),
        ((4,), (2,)),
        ((5,), (3,)),
        ((2, 3), (2, 3)),
        ((4, 5), (2, 2)),
        ((5, 5), (3, 3)),
    ]
    for bases, g in domains:
        for star in (False, True):
            explicit = math.fsum(
                rho_vec(k, bases, star=star) for k in enumerate_delta(bases, g)
            )
            closed = weight_sum(bases, g, star=star)
            result.checks += 1
            if abs(explicit - closed) > _SUM_TOL:
                result.failures.append(
                    f"bases={bases} g={g} star={star}: {explicit} vs {closed}"
                )
    for b in range(2, 101):
        result.checks += 1
        if not cb_constant(b) < (2.0 / math.pi) * math.log(b) + 0.4:
            result.failures.append(f"C({b}) breaks the logarithmic bound")
    # the corollary constants must dominate the per-coordinate weight factors
    for b in range(2, 101):
        result.checks += 1
        if 2.0 * cb_constant(b) > 2.43 * math.log(b) or cb_constant(b) > 1.22 * math.log(b):
            result.failures.append(f"C({b}) exceeds the corollary constants")
    return result


_SWEEP_BASES = (2, 3, 5)
_RESOLUTION_CAP = 32  # per-coordinate index range b^g stays at or below this
_DIGITAL_PRECISION = 8


def _max_g(base: int) -> int:
    g = 1
    while base ** (g + 1) <= _RESOLUTION_CAP:
        g += 1
    return g


def _draw_trial(rng: random.Random, variant: str):
    s_max = 2 if variant == EXTREME else 3
    s = rng.randint(1, s_max)
    n_points = rng.randint(1, 48 if variant == EXTREME else 64)
    kinds = ["halton", "digital"]
    if s == 1:
        kinds.append("vdc")
    else:
        kinds.append("hybrid")
    kind = rng.choice(kinds)
    tags = tuple(rng.choice((WALSH, BADIC)) for _ in range(s))
    if kind == "vdc":
        points = generate_points(VdcConfig(rng.choice(_SWEEP_BASES)), n_points)
    elif kind == "halton":
        halton_bases = tuple(rng.choice(_SWEEP_BASES) for _ in range(s))
        points = generate_points(HaltonConfig(halton_bases), n_points)
    elif kind == "digital":
        base = rng.choice(_SWEEP_BASES)
        mats = tuple(
            GeneratorMatrix.random(base, _DIGITAL_PRECISION, rng) for _ in range(s)
        )
        points = generate_points(DigitalConfig(base, mats), n_points)
    else:  # hybrid: digital/vdc part on WALSH slots, Halton part on BADIC slots
        n_walsh = tags.count(WALSH)
        n_badic = s - n_walsh
        walsh_base = rng.choice(_SWEEP_BASES)
        if n_walsh == 0:
            walsh_part = None
        elif n_walsh == 1 and rng.random() < 0.5:
            walsh_part = VdcConfig(walsh_base)
        else:
            walsh_part = DigitalConfig(
                walsh_base,
                tuple(
                    GeneratorMatrix.random(walsh_base, _DIGITAL_PRECISION, rng)
                    for _ in range(n_walsh)
                ),
            )
        badic_bases = tuple(rng.choice(_SWEEP_BASES) for _ in range(n_badic))
        badic_part = HaltonConfig(badic_bases) if n_badic else None
        points = hybrid_points(tags, walsh_part, badic_part, n_points)
    spec = HybridSystemSpec.from_tags(points.bases, tags)
    g = tuple(rng.randint(1, _max_g(b)) for b in spec.bases)
    label = f"{kind} bases={spec.bases} tags={''.join(t[0] for t in tags)} g={g} N={n_points}"
    return spec, g, points, label


def domination_sweep(variant: str, trials: int = 100, seed: int = 1) -> SuiteResult:
    """Seeded random configurations: bound >= exact discrepancy, every trial.

    Each trial also verifies the exact truncation-term bound (epsilon at most
    2 s delta, star half that) and that the closed-form corollary evaluated at
    B = max |S_N| dominates the bound.
    """
    result = SuiteResult(f"domination-{variant}", 0, summary=f"seed={seed}")
    rng = random.Random(seed)
    oracle = star_discrepancy_exact if variant == STAR else extreme_discrepancy_exact
    worst = math.inf
    for _ in range(trials):
        spec, g, points, label = _draw_trial(rng, variant)
        bound = etk_bound(spec, g, points, variant)
        exact = oracle(points).value
        margin = bound.total - exact
        result.checks += 1
        worst = min(worst, margin)
        if margin < -DOMINATION_SLACK:
            result.failures.append(f"{label}: bound {bound.total:.12f} < exact {exact:.12f}")
        star = variant == STAR
        eps = epsilon_fraction(spec.bases, g, star=star)
        delta = max(Fraction(1, b**gi) for b, gi in zip(spec.bases, g))
        result.checks += 1
        if eps > (1 if star else 2) * spec.s * delta:
            result.failures.append(f"{label}: truncation term above the s*delta bound")
        closed = corollary_bound(bound.max_abs_sum, spec.bases, g, variant)
        result.checks += 1
        if closed < bound.total - 1e-12:
            result.failures.append(f"{label}: corollary {closed:.12f} < bound {bound.total:.12f}")
    result.summary = f"seed={seed}, worst margin {worst:.3e}"
    return result


def run_suites(name: str, trials: int = 100, seed: int = 1) -> list[SuiteResult]:
    """Run one named suite (or all of them) and collect the results."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}, expected one of {SUITES}")
    out: list[SuiteResult] = []
    if name in ("orthonormality", "all"):
        out.append(check_orthonormality())
    if name in ("fourier", "all"):
        out.append(check_fourier())
        out.append(check_reconstruction())
    if name in ("fc-bounds", "all"):
        out.append(check_fc_bounds())
    if name in ("weights", "all"):
        out.append(check_weights())
    if name in ("domination", "all"):
        out.append(domination_sweep(EXTREME, trials=trials, seed=seed))
        out.append(domination_sweep(STAR, trials=trials, seed=seed + 1))
    return out
