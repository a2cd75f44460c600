"""The boundary around the scalar references: commands never reach them."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import etkbound
from etkbound.badic import DigitVector
from etkbound.cli import main

import test_readme

PACKAGE = Path(etkbound.__file__).resolve().parent


@pytest.fixture
def no_digit_vectors(monkeypatch):
    """Make building any DigitVector an error."""

    def refuse(self):
        raise AssertionError(f"a command built DigitVector(base={self.base}, digits={self.digits})")

    monkeypatch.setattr(DigitVector, "__post_init__", refuse)


def test_readme_examples_build_no_digit_vector(no_digit_vectors):
    """The quick tour and its gen | bound and gen | discrepancy pipelines, checked as test_readme checks them."""
    test_readme.test_quick_tour_prints_its_commented_lines()
    for block in test_readme._CSV_EXAMPLES:
        test_readme.test_csv_example_matches_the_cli(block)
    test_readme.test_json_example_matches_the_cli()


# the gen and bound steps of the benchmark workloads bound_dense, certify_caps and stream_wide
_WORKLOAD_STEPS = [
    ("gen hybrid --walsh digital:2,seed=101 --badic halton:3 --n 4096 --out bd.pts",
     "bound bd.pts --tags w,b --g 8,5 --variant extreme --format json --out bd.json"),
    ("gen vdc --base 2 --n 64 --out vdc.pts",
     "bound vdc.pts --tags w --g 1 --variant extreme --oracle --format json --out vdc.json"),
    ("gen digital --base 2 --s 2 --m 8 --seed=101000 --n 64 --out dig.pts",
     "bound dig.pts --tags w,w --g 2,2 --variant extreme --oracle --format json --out dig.json"),
    ("gen halton --bases 2,3 --n 256 --out hal.pts",
     "bound hal.pts --tags w,b --g 3,2 --variant star --oracle --format json --out hal.json"),
    ("gen hybrid --walsh vdc:2 --badic halton:3,5 --n 64 --out hyb.pts",
     "bound hyb.pts --tags w,b,b --g 2,1,1 --variant star --oracle --format json --out hyb.json"),
    ("gen hybrid --walsh digital:2,m=16,seed=101 --badic halton:3,5 --n 32768 --out sw.pts",
     "bound sw.pts --tags w,b,b --g 2,1,1 --variant both --format json --out sw.json"),
]


@pytest.mark.parametrize("steps", _WORKLOAD_STEPS, ids=lambda steps: steps[0].split()[-1])
def test_workload_commands_build_no_digit_vector(no_digit_vectors, tmp_path, steps):
    for step in steps:
        argv = [str(tmp_path / a) if a.endswith((".pts", ".json")) else a for a in step.split()]
        assert main(argv) == 0
    assert (tmp_path / steps[1].split()[-1]).stat().st_size > 0


def test_importing_the_package_and_cli_leaves_reference_unloaded():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    code = "import sys, etkbound, etkbound.cli; print('etkbound.reference' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def _imports_reference(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[-1] == "reference" for a in node.names)
    if isinstance(node, ast.ImportFrom):
        module = (node.module or "").split(".")
        return module[-1] == "reference" or (
            module in ([""], ["etkbound"]) and any(a.name == "reference" for a in node.names)
        )
    return False


def test_no_other_module_imports_reference():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "reference.py" in modules
    importers = [
        path.name
        for path in modules
        if path.name != "reference.py"
        and any(_imports_reference(node) for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
    ]
    assert importers == []
    probe = ast.parse("from . import reference\nimport etkbound.reference\nfrom .reference import exp_sum")
    assert all(_imports_reference(node) for node in probe.body)
