"""Smoke test of bench/layers.py, the script behind the committed BENCH files."""

import importlib.util
import os
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
    """The child of the points section, in process on 64 points of each case."""
    for case in layers.POINT_CASES:
        rows = layers._child_points(case, 64)
        assert list(rows) == [f"{case} {layer}" for layer in ("generate", "write", "read")]
        for row in rows.values():
            assert set(row) == {"cold_s", "s", "peak_alloc_mb"}
            assert all(value > 0 for value in row.values())


def test_stages_of_etk_bound_cover_the_call(layers):
    """Each stage of one etk_bound call is timed, and the rest is other_s."""
    from etkbound.bounds import etk_bound
    from etkbound.sequences import HaltonConfig, generate_points
    from etkbound.systems import BADIC, WALSH, HybridSystemSpec

    spec = HybridSystemSpec.from_tags((2, 3), (WALSH, BADIC))
    row = layers._stages(etk_bound, spec, (3, 2), generate_points(HaltonConfig((2, 3)), 64))
    assert list(row) == [f"{stage}_s" for stage in layers.STAGES] + ["other_s"]
    assert all(value >= 0 for value in row.values())


def test_fc_bounds_layer_times_the_phase_rows(layers, monkeypatch):
    """The fc-bounds phase rows come from a method, PhaseTable.rows: its calls are timed."""
    import etkbound.verify as verify

    for names in layers.LAYERS["fc-bounds"].values():
        for owner, attribute in filter(None, (layers._resolve(verify, name) for name in names)):
            monkeypatch.setattr(owner, attribute, getattr(owner, attribute))  # restored after the wrapping below
    row = layers._child_layers("fc-bounds")["layers_s"]
    assert list(row) == [*layers.LAYERS["fc-bounds"], "other"]
    assert row["phase_rows"] > 0 and row["phase_numerators"] == 0
    assert layers._resolve(verify, "phase_row_blocks") is None  # the name before PhaseTable, kept as a fallback


def test_a_generator_layer_is_timed_by_its_steps(layers):
    """A tree whose layer is a generator (phase_row_blocks) is timed over its steps, not only its call."""
    spent = {"rows": 0.0}

    def blocks():
        time.sleep(0.01)
        yield 1

    assert list(layers._timed(spent, "rows", blocks)()) == [1]
    assert spent["rows"] >= 0.01


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
