"""The README's examples, run as written."""

import contextlib
import io
import json
import re
import shlex
import sys
from pathlib import Path
from unittest import mock

import pytest

from etkbound.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


def _pipeline(line: str) -> str:
    """stdout of `$ etkbound ... | etkbound ... -` through cli.main, each stage's stdin the last one's stdout."""
    text = ""
    for stage in line.removeprefix("$ ").split(" | "):
        argv = shlex.split(stage)
        assert argv[0] == "etkbound"
        out = io.StringIO()
        with mock.patch.object(sys, "stdin", io.StringIO(text)), contextlib.redirect_stdout(out):
            assert main(argv[1:]) == 0
        text = out.getvalue()
    return text


def _mask_csv_runtime(text: str) -> list[str]:
    """CSV report lines with the runtime_ms cell, the last of each data line, cut off."""
    lines = text.strip().splitlines()
    return lines[:1] + [line.rsplit(",", 1)[0] for line in lines[1:]]


def test_quick_tour_prints_its_commented_lines():
    (code,) = _blocks("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    expected = [line[2:] for line in code.splitlines() if line.startswith("# ")]
    assert out.getvalue().splitlines() == expected


_CSV_EXAMPLES = [
    block for block in _blocks("sh") if block.startswith("$ etkbound gen") and "--format json" not in block
]


@pytest.mark.parametrize("block", _CSV_EXAMPLES, ids=["bound", "discrepancy"])
def test_csv_example_matches_the_cli(block):
    command, printed = block.split("\n", 1)
    assert _mask_csv_runtime(_pipeline(command)) == _mask_csv_runtime(printed)


def test_json_example_matches_the_cli():
    ((command,),) = [block.splitlines() for block in _blocks("sh") if "--format json" in block]
    (example,) = _blocks("json")
    expected, actual = json.loads(example), json.loads(_pipeline(command))
    for doc in (expected, actual):
        for row in doc["rows"]:
            row.pop("runtime_ms")
    assert actual == expected
