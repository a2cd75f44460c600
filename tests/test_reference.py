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


@pytest.mark.parametrize("suite", ["fourier", "orthonormality"])
def test_verify_suites_on_the_phase_tables_leave_fourier_unloaded(suite):
    """`python -m etkbound verify fourier` and `verify orthonormality` read the
    phase tables alone: the scalar elint coefficients are never imported."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    code = (
        "import atexit, runpy, sys\n"
        "atexit.register(lambda: print('etkbound.fourier' in sys.modules))\n"
        f"sys.argv = ['etkbound', 'verify', {suite!r}]\n"
        "runpy.run_module('etkbound', run_name='__main__', alter_sys=True)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    *report, loaded = proc.stdout.splitlines()
    assert report[-1].startswith("all suites passed") and loaded == "False"


def _imports_reference(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[-1] == "reference" for a in node.names)
    if isinstance(node, ast.ImportFrom):
        module = (node.module or "").split(".")
        return module[-1] == "reference" or (
            module in ([""], ["etkbound"]) and any(a.name == "reference" for a in node.names)
        )
    return False


def _reached(paths):
    """Names read or imported in the files, and attribute names read in them."""
    names, attributes = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return names, attributes


def test_only_verify_reads_phase_tables():
    """phase_rows computes a deep table more slowly than the two half tables it
    replaced (2 cells at g = 20: 0.02 to 0.23 s), which is a fair trade only
    while no command but verify, whose tables are at most 625 rows, names it."""
    production = sorted(p for p in PACKAGE.glob("*.py") if p.name != "reference.py")
    readers = [path.stem for path in production if "phase_rows" in set.union(*_reached([path]))]
    assert readers == ["verify"]


# module-level hooks that Python calls by name (PEP 562), never code
_MODULE_HOOKS = ("__getattr__", "__dir__")


def _defined(path):
    """Top-level functions and classes other than the module hooks, and the
    non-dunder methods and properties of those classes, as (qualified name,
    name, whether it is a class member)."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name in _MODULE_HOOKS:
            continue
        yield f"{path.stem}.{node.name}", node.name, False
        for item in node.body if isinstance(node, ast.ClassDef) else ():
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                yield f"{path.stem}.{node.name}.{item.name}", item.name, True


def test_production_modules_define_only_what_production_reaches():
    """Code that only tests call belongs in reference; what nothing calls, nowhere.

    A function or class counts as reached when a production module, a
    benchmark script (perfbench/, bench/layers.py) or its own module names or
    imports it, and a method or property when one of them reads an attribute
    of its name.
    """
    production = sorted(p for p in PACKAGE.glob("*.py") if p.name != "reference.py")
    root = PACKAGE.parent.parent
    scripts = [p for p in sorted((root / "perfbench").glob("*.py")) if not p.name.startswith("test_")]
    assert scripts, "perfbench/ not found next to src/"
    names, attributes = _reached(production + scripts + [root / "bench" / "layers.py"])
    unreached = [
        qualified
        for path in production
        if path.name != "__main__.py"
        for qualified, name, member in _defined(path)
        if name not in (attributes if member else names)
    ]
    assert not unreached, f"reached only from tests, or from nowhere: {', '.join(unreached)}"


def _defaulted(path):
    """(qualified name, function name, positional index or None, whether it
    takes self or cls first) of each parameter with a default, of top-level
    functions and of methods."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        functions = [(node, node.name, False)] if isinstance(node, ast.FunctionDef) else []
        if isinstance(node, ast.ClassDef):
            functions = [
                (item, f"{node.name}.{item.name}", "staticmethod" not in {getattr(d, "id", "") for d in item.decorator_list})
                for item in node.body
                if isinstance(item, ast.FunctionDef)
            ]
        for fn, owner, method in functions:
            args = fn.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for index, arg in enumerate(positional[first:], first):
                yield f"{path.stem}.{owner}({arg.arg})", fn.name, index, method
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield f"{path.stem}.{owner}({arg.arg})", fn.name, None, method


def _passed(paths):
    """Per callee name: the keywords its calls pass, the most positional
    arguments a call passes, and whether a call passes * or ** arguments.  A
    call of a class name also counts as a call of __init__."""
    keywords, positions, starred = {}, {}, set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            for callee in [name, "__init__"] if name and name[0].isupper() else [name]:
                keywords.setdefault(callee, set()).update(k.arg for k in node.keywords)
                positions[callee] = max(positions.get(callee, 0), len(node.args))
                if any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords):
                    starred.add(callee)
    return keywords, positions, starred


def test_production_parameters_are_set_by_production():
    """A parameter with a default that only tests set belongs in a constant, or nowhere.

    Every parameter with a default of a function or method in a production
    module must be passed, by keyword, by position or through * or **, by a
    call in a production module, a non-test perfbench script or
    bench/layers.py.  A call names its callee as a name or an attribute; a
    method's calls pass self or cls before their positional arguments, and a
    call of a class name counts for its __init__.
    """
    production = sorted(p for p in PACKAGE.glob("*.py") if p.name != "reference.py")
    root = PACKAGE.parent.parent
    scripts = [p for p in sorted((root / "perfbench").glob("*.py")) if not p.name.startswith("test_")]
    assert scripts, "perfbench/ not found next to src/"
    keywords, positions, starred = _passed(production + scripts + [root / "bench" / "layers.py"])
    unset = [
        qualified
        for path in production
        for qualified, name, index, method in _defaulted(path)
        if name not in starred
        and qualified[qualified.index("(") + 1 : -1] not in keywords.get(name, ())
        and (index is None or positions.get(name, -1) + method <= index)
    ]
    assert not unset, f"set only by tests, or by nothing: {', '.join(unset)}"


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


def test_only_module_level_pep_562_hooks_are_exempt(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def __getattr__(name): ...\n"
        "def __dir__(): ...\n"
        "def __call__(): ...\n"
        "class A:\n"
        "    def __getattr__(self, name): ...\n"
        "    def run(self): ...\n",
        encoding="utf-8",
    )
    assert [q for q, _, _ in _defined(probe)] == ["probe.__call__", "probe.A", "probe.A.run"]
