"""Smoke test of bench/layers.py, the script behind the committed BENCH files."""

import importlib.util
import os
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("layers", os.path.join(ROOT, "bench", "layers.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_points_section_times_every_layer_of_every_case(layers):
    """The child of the points section, in process on 64 points of each case;
    the generate and read rows hold the same point set, so the same bytes."""
    for case in layers.POINT_CASES:
        rows = layers._child_points(case, 64)
        assert list(rows) == [f"{case} {layer}" for layer in ("generate", "write", "read")]
        for layer, row in zip(("generate", "write", "read"), rows.values()):
            held = {"held_mb"} if layer != "write" else set()
            assert set(row) == {"cold_s", "s", "peak_alloc_mb"} | held
            assert all(value > 0 for value in row.values())
        generate, read = rows[f"{case} generate"], rows[f"{case} read"]
        assert generate["held_mb"] == read["held_mb"]


def test_stages_of_etk_bound_cover_the_call(layers):
    """Each stage of one etk_bound call is timed, and the rest is other_s."""
    from etkbound.bounds import etk_bound
    from etkbound.sequences import HaltonConfig, generate_points
    from etkbound.systems import BADIC, WALSH, HybridSystemSpec

    spec = HybridSystemSpec.from_tags((2, 3), (WALSH, BADIC))
    row = layers._stages(etk_bound, spec, (3, 2), generate_points(HaltonConfig((2, 3)), 64))
    assert list(row) == [f"{stage}_s" for stage in layers.STAGES] + ["other_s"]
    assert all(value >= 0 for value in row.values())


def test_oracle_stages_cover_the_call_and_are_restored(layers):
    """The ranking, screen and re-valuation of one oracle call are timed, the
    functions are put back after it, and a stage the tree lacks is left out."""
    import etkbound.oracle as oracle
    from etkbound.badic import DigitColumn
    from etkbound.sequences import HaltonConfig, generate_points

    originals = (oracle._screen, oracle._revalue, DigitColumn.value_ranks)
    points = generate_points(HaltonConfig((2, 3)), 64)
    row = layers._stages(oracle.extreme_discrepancy_exact, points, stages=layers.ORACLE_STAGES)
    assert list(row) == [f"{stage}_s" for stage in layers.ORACLE_STAGES] + ["other_s"]
    assert all(value > 0 for value in row.values())
    assert (oracle._screen, oracle._revalue, DigitColumn.value_ranks) == originals
    lacking = layers._stages(oracle.star_discrepancy_exact, points, stages={"gone": "oracle._no_such_stage"})
    assert list(lacking) == ["other_s"]


def test_fc_bounds_layer_times_the_phase_rows(layers, monkeypatch):
    """The fc-bounds phase rows are timed on phase_rows, the one of the layer's
    names that this tree has; a parent's PhaseTable.rows resolves to nothing."""
    import etkbound.verify as verify

    names = layers.LAYERS["fc-bounds"]["phase_rows"]
    assert [name for name in names if hasattr(*layers._resolve(verify, name))] == ["phase_rows"]
    assert "PhaseTable.rows" in names and layers._resolve(verify, "PhaseTable.rows") == (None, "rows")
    monkeypatch.setattr(verify, "phase_rows", verify.phase_rows)  # restored after the wrapping below
    row = layers._child_layers("fc-bounds")["layers_s"]
    assert list(row) == ["phase_rows", "other"]
    assert row["phase_rows"] > 0


@pytest.mark.parametrize("suite", ["orthonormality", "fourier"])
def test_table_suites_time_the_array_path(layers, monkeypatch, suite):
    """The suites that verify runs on the phase tables alone time those tables and the
    array functions built on them, every layer for some of the call."""
    import etkbound.verify as verify

    for names in layers.LAYERS[suite].values():
        for name in names:
            owner, attribute = layers._resolve(verify, name)
            monkeypatch.setattr(owner, attribute, getattr(owner, attribute))  # restored after the wrapping below
    row = layers._child_layers(suite)["layers_s"]
    assert list(row) == [*layers.LAYERS[suite], "other"]
    assert all(value > 0 for value in row.values())


def test_tables_section_times_whole_phase_tables(layers, monkeypatch):
    """Each table case is one whole phase_rows table per tag, with its size."""
    monkeypatch.setattr(layers, "TABLE_CASES", ((5, 4, 625), (3, 2, 7)))
    rows = layers._child_tables()
    assert list(rows) == [f"phase_rows {case} {tag}" for case in ("5,4,625", "3,2,7") for tag in ("walsh", "badic")]
    for row in rows.values():
        assert set(row) == {"s", "peak_alloc_mb", "table_mb"} and row["s"] > 0
    assert rows["phase_rows 5,4,625 walsh"]["table_mb"] == 625 * 625 * 8 / 2**20


def test_a_layer_called_inside_another_counts_only_in_its_own(layers):
    """_coefficients calls _xi_table: the inner call's seconds leave the outer layer's."""
    spent = {"outer": 0.0, "inner": 0.0}
    inner = layers._timed(spent, "inner", lambda: time.sleep(0.03))
    outer = layers._timed(spent, "outer", lambda: (time.sleep(0.01), inner()))
    outer()
    assert spent["inner"] >= 0.03
    assert 0.01 <= spent["outer"] < 0.025


def test_alloc_child_imports_verify_before_it_starts_the_trace(layers):
    """Run as the script runs it, in a fresh child that writes no bytecode, the
    alloc child has etkbound.verify loaded when tracemalloc starts.  Compiling
    verify's imports inside the trace peaked at 1.48 MiB, above the suites'
    own peaks of 0.86 (fourier) and 1.12 MiB (fc-bounds)."""
    code = "\n".join([
        "import sys, tracemalloc",
        f"sys.path.insert(0, {os.path.join(ROOT, 'bench')!r})",
        "import layers",
        "start = tracemalloc.start",
        "tracemalloc.start = lambda *args: (print('etkbound.verify' in sys.modules), start(*args))[1]",
        "print(layers._child_alloc('orthonormality')['peak_alloc_mb'] > 0)",
    ])
    env = {**layers._env(ROOT), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["True", "True"]


def test_import_seconds_count_each_outer_etkbound_import_once(layers):
    """-X importtime lists a module after the ones it imports, indented by depth."""
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy._core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |        350 | etkbound.badic",
        "import time:        10 |         10 |   etkbound.systems",
        "import time:        20 |         30 | etkbound.cli",
        "import time:         5 |          5 | etkbound",
        "import time:         7 |          7 | csv",
    ])
    row = layers._import_seconds(log)
    assert row["import_s"] == (350 + 30 + 5) / 1e6
    assert row["numpy_import_s"] == 300 / 1e6
    assert row["modules"] == ["etkbound", "etkbound.badic", "etkbound.cli", "etkbound.systems"]


def test_startup_row_records_one_command(layers, tmp_path):
    src = os.path.join(ROOT, "src")
    row = layers._startup_row(src, str(tmp_path), "gen vdc --base 2 --n 8 --out v.pts")
    assert (tmp_path / "v.pts").read_text(encoding="utf-8").startswith("#bases 2")
    assert row["modules"] == [f"etkbound{m}" for m in ("", ".badic", ".cli", ".pointfile", ".sequences", ".systems")]
    assert 0 < row["numpy_import_s"] < row["import_s"] < row["wall_s"]
    assert row["peak_rss_mb"] > 0
