"""Smoke test of bench/layers.py, the script behind the committed BENCH files."""

import importlib.util
import os

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
    """The fc-bounds phase rows come from a generator: its steps are timed, not only its call."""
    import etkbound.verify as verify

    for name in layers.LAYERS["fc-bounds"]:
        monkeypatch.setattr(verify, name, getattr(verify, name))  # restored after the wrapping below
    row = layers._child_layers("fc-bounds")["layers_s"]
    assert list(row) == [*layers.LAYERS["fc-bounds"], "other"]
    assert row["phase_row_blocks"] > 0 and row["phase_numerators"] == 0
