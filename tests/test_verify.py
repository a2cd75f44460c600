"""The verification suites themselves, at reduced trial counts."""

import numpy as np
import pytest

from etkbound.badic import _block_rows, enumerate_delta, int_digits
from etkbound.bounds import EXTREME, STAR
from etkbound.fourier import (
    Elint,
    elint_fourier_coeff,
    elint_partition,
    partition_inner_product,
)
from etkbound.reference import reconstruct_indicator
from etkbound.systems import BADIC, WALSH, HybridSystemSpec, xi_phase
from etkbound.verify import (
    SUITES,
    _xi_table,
    check_fc_bounds,
    check_fourier,
    check_orthonormality,
    check_reconstruction,
    check_weights,
    domination_sweep,
    run_suites,
)


def test_orthonormality_suite_clean():
    res = check_orthonormality()
    assert res.ok and res.checks == 24947


def test_fourier_suite_clean():
    fourier, reconstruction = check_fourier(), check_reconstruction()
    assert fourier.ok and fourier.checks == 10624
    assert reconstruction.ok and reconstruction.checks == 398


def test_fc_suite_default_grid():
    res = check_fc_bounds()
    assert res.ok and res.checks == 793440


# one single-axis and two mixed-tag systems, with index boxes small enough for
# the scalar exact-phase references
_SINGLE = HybridSystemSpec(((3, BADIC),))
_MIXED = HybridSystemSpec(((2, WALSH), (3, BADIC)))
_MIXED_SWAPPED = HybridSystemSpec(((3, WALSH), (2, BADIC)))
_TABLE_CONFIGS = [(_SINGLE, (2,)), (_MIXED, (2, 1)), (_MIXED_SWAPPED, (1, 2))]


def _fine(g):
    return tuple(gi + 1 for gi in g)


@pytest.mark.parametrize("spec, g", _TABLE_CONFIGS)
@pytest.mark.parametrize("refine", [0, 1])
def test_xi_table_is_xi_at_the_elint_anchors(spec, g, refine):
    """At cells at least as fine as g, the table holds xi_k at each elint's lower corner."""
    cells = tuple(gi + refine for gi in g)
    table = _xi_table(spec, g, cells)
    indices = list(enumerate_delta(spec.bases, g))
    elints = list(elint_partition(spec.bases, cells))
    assert table.shape == (len(indices), len(elints))
    for row, k in enumerate(indices):
        for col, e in enumerate(elints):
            want = xi_phase(spec, k, e.anchor_digits()).to_complex()
            assert abs(table[row, col] - want) <= 1e-15


def _refinement_integral(spec, g, e, k):
    """Integral of conj(xi_k) over elint e by refinement: the exact phases of its b^s subcells."""
    g_fine = _fine(g)
    inside = [b**gi for b, gi in zip(spec.bases, g)]
    fine_measure = 1.0
    for b, gi in zip(spec.bases, g_fine):
        fine_measure /= b**gi
    direct = 0j
    for refinement in enumerate_delta(spec.bases, tuple(1 for _ in g)):
        sub = Elint(
            spec.bases, g_fine, tuple(c + j * m for c, j, m in zip(e.c, refinement, inside))
        )
        direct += xi_phase(spec, k, sub.anchor_digits()).conjugate().to_complex()
    return direct * fine_measure


@pytest.mark.parametrize("spec, g", _TABLE_CONFIGS)
def test_fourier_integrals_match_the_refinement_loop(spec, g):
    means = _xi_table(spec, _fine(g), g)
    integrals = means.conj() / means.shape[1]
    for row, k in enumerate(enumerate_delta(spec.bases, _fine(g))):
        for col, e in enumerate(elint_partition(spec.bases, g)):
            assert abs(integrals[row, col] - _refinement_integral(spec, g, e, k)) <= 1e-15


@pytest.mark.parametrize("spec, g", [(_SINGLE, (1,)), (_MIXED, (1, 1))])
def test_reconstruction_series_matches_reconstruct_indicator(spec, g):
    elints = list(elint_partition(spec.bases, g))
    coeffs = np.array(
        [[elint_fourier_coeff(e, k, spec) for k in enumerate_delta(spec.bases, g)] for e in elints]
    )
    series = (coeffs @ _xi_table(spec, g, _fine(g))).real
    probes = [cell.anchor_digits() for cell in elint_partition(spec.bases, _fine(g))]
    for e, row in zip(elints, series):
        for x, got in zip(probes, row):
            assert abs(got - reconstruct_indicator(e, spec, x)) <= 1e-15


@pytest.mark.parametrize("spec, g", [(_SINGLE, (2,)), (_MIXED, (1, 1))])
def test_gram_matrix_matches_partition_inner_product(spec, g):
    table = _xi_table(spec, g, g)
    gram = table @ table.conj().T / table.shape[1]
    indices = list(enumerate_delta(spec.bases, g))
    for row, k in enumerate(indices):
        for col, l in enumerate(indices):
            assert abs(gram[row, col] - partition_inner_product(spec, g, k, l)) <= 1e-15


def test_fc_suite_small_depth():
    res = check_fc_bounds(bases=(2, 3), depth=3)
    assert res.ok and res.checks == 2 * (7 * 8 + 26 * 27)


def test_fc_suite_failures_keep_their_order_across_row_blocks(monkeypatch, at_both_block_sizes):
    """With tolerance -1 every entry fails, so the failure list pins the k= numbering."""
    import etkbound.verify as verify

    monkeypatch.setattr(verify, "_TOL", -1.0)
    res = at_both_block_sizes(check_fc_bounds, (2, 3), 3)
    want = [
        f"b={b} {tag} k={k} beta={a}/{b**3}"
        for b in (2, 3)
        for tag in (WALSH, BADIC)
        for k in range(1, b**3)
        for a in range(1, b**3 + 1)
    ]
    assert [f.split(": excess")[0] for f in res.failures] == want
    assert res.checks == len(want)


def test_fc_suite_memory_is_bounded_by_blocks(peak_mib):
    """The default grid has 625 x 625 entries for base 5: one complex table
    and its cumulative sums took 30 MiB."""
    assert peak_mib(check_fc_bounds) <= 12


def test_fc_suite_sums_each_block_in_place(peak_mib):
    """Summing a block's rows and subtracting the limits in place kept the
    suite at 3.24 MiB; a new array for the sums and one for the excess took
    it to 3.5 MiB.  Dropping each block's sums before the next block is
    built kept it at 1.8 MiB, with blocks of 1 MiB of complex sums that also
    held their int64 phase rows and float excess.  Sized by all three, a
    block of base-5 rows is 1 MiB in all, and the suite peaks at 1.07 MiB."""
    assert peak_mib(check_fc_bounds) < 1.25


def test_fc_suite_builds_only_each_blocks_phase_rows(monkeypatch, peak_mib):
    """The base-5 depth-4 phase table is 625 x 625 int64, 3.0 MiB; built whole,
    it took the suite's peak to 7.6 MiB.  Each block reads only its own rows
    from the PhaseTable of its base and tag."""
    import etkbound.verify as verify

    built = []
    rows = verify.PhaseTable.rows

    def spy(table, start, stop):
        block = rows(table, start, stop)
        built.append((table.modulus, len(block)))
        return block

    monkeypatch.setattr(verify.PhaseTable, "rows", spy)
    res = check_fc_bounds()
    assert res.checks == 793440
    assert sum(n for modulus, n in built if modulus == 625) == 2 * 624
    assert max(n for modulus, n in built if modulus == 625) <= _block_rows(32 * 625) < 624
    monkeypatch.undo()
    assert peak_mib(check_fc_bounds) < 5


@pytest.mark.parametrize("base", [2, 3, 5])
@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_fc_anchors_are_the_digit_reversed_integers(base, depth):
    """Entry a of the fc-bounds anchors is the index of the a-th cell by value: a's digits reversed."""
    got = np.arange(base**depth).reshape((base,) * depth).T.ravel().tolist()
    cells = sorted(elint_partition((base,), (depth,)), key=lambda e: e.lower[0])
    assert got == [e.c[0] for e in cells]
    digits = [int_digits(a, base, depth) for a in range(base**depth)]
    assert got == [sum(d * base**j for j, d in enumerate(reversed(row))) for row in digits]


def test_weights_suite_clean():
    res = check_weights()
    assert res.ok


def test_domination_sweep_small():
    for variant in (EXTREME, STAR):
        res = domination_sweep(variant, trials=8, seed=42)
        assert res.ok
        assert res.checks == 3 * 8  # domination + truncation + corollary per trial
        assert "seed=42" in res.summary


def test_domination_sweep_is_deterministic():
    a = domination_sweep(EXTREME, trials=5, seed=9)
    b = domination_sweep(EXTREME, trials=5, seed=9)
    assert a.summary == b.summary


def test_run_suites_dispatch():
    names = {r.name for r in run_suites("all", trials=2, seed=1)}
    assert {"orthonormality", "fourier", "reconstruction", "fc-bounds", "weights"} <= names
    assert any(n.startswith("domination") for n in names)
    with pytest.raises(ValueError):
        run_suites("spectral")
    assert "all" in SUITES
