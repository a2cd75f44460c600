"""Point-file round trips and the command-line surface."""

import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import etkbound
from etkbound import reference
from etkbound.badic import DigitVector
from etkbound.cli import main
from etkbound.pointfile import parse_coordinate, read_point_set, write_point_set
from etkbound.reference import format_coordinate, point_set
from etkbound.sequences import (
    HaltonConfig,
    PointSet,
    config_from_string,
    generate_points,
    hybrid_points,
)
from etkbound.systems import BADIC, WALSH


def roundtrip(points: PointSet) -> PointSet:
    buf = io.StringIO()
    write_point_set(points, buf)
    return read_point_set(io.StringIO(buf.getvalue()))


def test_format_coordinate():
    assert format_coordinate(DigitVector(2, (1, 0, 1))) == "0.101"
    assert format_coordinate(DigitVector(2, ())) == "0."
    # bases above ten separate digits with dashes
    assert format_coordinate(DigitVector(16, (15, 0, 3))) == "0.15-0-3"


def test_parse_coordinate_rejects_bad_digits():
    with pytest.raises(ValueError):
        parse_coordinate("0.2", 2)
    with pytest.raises(ValueError):
        parse_coordinate("1.0", 2)


def test_round_trip_preserves_digits_bit_for_bit():
    pts = generate_points(HaltonConfig((2, 3)), 9)
    back = roundtrip(pts)
    assert back.bases == pts.bases
    for a, b in zip(pts.points, back.points):
        for ca, cb in zip(a, b):
            assert ca.digits == cb.digits  # not just equality mod trailing zeros


def test_round_trip_keeps_provenance():
    pts = generate_points(HaltonConfig((5,)), 3)
    assert roundtrip(pts).provenance == "halton:5"


def test_read_rejects_malformed_input():
    with pytest.raises(ValueError, match="line 1"):
        read_point_set(io.StringIO("0.1 0.2\n"))  # missing header
    with pytest.raises(ValueError, match="line 2"):
        read_point_set(io.StringIO("#bases 2,3\n0.1\n"))  # wrong arity
    with pytest.raises(ValueError):
        read_point_set(io.StringIO("#bases 2\n"))  # no points


@st.composite
def point_sets(draw):
    """Digit vectors of any stored length, trailing zeros included, in one- to three-digit bases."""
    bases = draw(st.lists(st.integers(2, 17) | st.sampled_from((99, 100, 1000)), min_size=1, max_size=3))
    vectors = [
        st.lists(st.integers(0, b - 1), max_size=6).map(lambda d, b=b: DigitVector(b, tuple(d)))
        for b in bases
    ]
    pts = draw(st.lists(st.tuples(*vectors), min_size=1, max_size=12))
    return point_set(bases, pts, provenance=draw(st.sampled_from(("", "hand"))))


@given(point_sets())
def test_bulk_point_file_matches_scalar_reference(pts):
    buf = io.StringIO()
    write_point_set(pts, buf)
    lines = buf.getvalue().splitlines()
    body = lines[2:] if pts.provenance else lines[1:]
    assert body == [" ".join(format_coordinate(x) for x in pt) for pt in pts.points]
    back = read_point_set(io.StringIO(buf.getvalue()))
    assert back.bases == pts.bases and back.provenance == pts.provenance
    assert [[x.digits for x in pt] for pt in back.points] == [
        [parse_coordinate(t, b).digits for t, b in zip(line.split(" "), pts.bases)] for line in body
    ]


def _deep_file(line: str, at: int = 5000) -> str:
    """A 6000-point file in bases 2 and 16 whose line `at` is replaced."""
    code, out, _ = run_cli("gen", "halton", "--bases", "2,16", "--n", "6000")
    assert code == 0
    lines = out.split("\n")
    lines[at - 1] = line
    return "\n".join(lines)


@pytest.mark.parametrize(
    "line, message",
    [
        ("0.102 0.1-2", "line 5000: digit 2 out of range for base 2"),
        ("0.1", "line 5000: 1 coordinates, expected 2"),
        ("0.1 0.1-x-3", "line 5000: invalid literal for int() with base 10: 'x'"),
        ("0.1 0.1-16", "line 5000: digit 16 out of range for base 16"),
        ("0.1 0.1--3", "line 5000: invalid literal for int() with base 10: ''"),
        ("0.1 1.3", "line 5000: coordinate '1.3' must start with '0.'"),
        # digits are ASCII decimal; int() alone would read these as 3 and 10
        ("0.1 0.+3", "line 5000: invalid literal for int() with base 10: '+3'"),
        ("0.1 0.1_0", "line 5000: invalid literal for int() with base 10: '1_0'"),
    ],
)
def test_reader_reports_the_first_bad_line_deep_in_a_file(tmp_path, line, message):
    text = _deep_file(line)
    with pytest.raises(ValueError) as exc:
        read_point_set(io.StringIO(text))
    assert str(exc.value) == message
    # a later bad line does not hide the first one
    lines = text.split("\n")
    lines[5500] = "0.2 0.1"
    with pytest.raises(ValueError) as exc:
        read_point_set(io.StringIO("\n".join(lines)))
    assert str(exc.value) == message
    pfile = tmp_path / "bad.pts"
    pfile.write_text(text)
    code, _, err = run_cli("bound", str(pfile), "--g", "1")
    assert code == 1 and message in err


def test_reader_header_errors_come_in_line_order():
    with pytest.raises(ValueError, match="line 3: #bases header changes the bases"):
        read_point_set(io.StringIO("#bases 2\n0.1\n#bases 3\n0.1\n"))
    with pytest.raises(ValueError, match="line 2: digit 2"):
        read_point_set(io.StringIO("#bases 2\n0.2\n#bases x\n"))
    with pytest.raises(ValueError, match="line 3: malformed #bases header"):
        read_point_set(io.StringIO("#bases 2\n0.1\n#bases x\n"))
    with pytest.raises(ValueError, match="line 1: malformed #bases header '#bases 2,1'"):
        read_point_set(io.StringIO("#bases 2,1\n0.1 0.\n"))
    pts = read_point_set(io.StringIO("#bases 3\n#bases 2\n0.1\n#bases 2\n0.01\n"))
    assert pts.bases == (2,) and pts.n_points == 2


def _stored(points: PointSet):
    """Everything a point set stores, its digit matrices exactly."""
    columns = [(c.digits.dtype.str, c.digits.tolist(), c.counts.tolist()) for c in points.columns]
    return points.bases, points.provenance, columns


def _written(points: PointSet) -> str:
    buf = io.StringIO()
    write_point_set(points, buf)
    return buf.getvalue()


def test_point_files_are_the_same_at_every_block_size(at_both_block_sizes):
    rng = random.Random(5)
    bases = (2, 12, 1000)
    pts = [
        [DigitVector(b, tuple(rng.randrange(b) for _ in range(rng.randrange(5)))) for b in bases]
        for _ in range(60)
    ]
    points = point_set(bases, pts, provenance="hand")
    text = at_both_block_sizes(_written, points)
    assert text.splitlines()[2:] == [" ".join(map(format_coordinate, pt)) for pt in pts]
    back = at_both_block_sizes(lambda: _stored(read_point_set(io.StringIO(text))))
    assert back == _stored(points)


def _long_file_lines() -> list[str]:
    """A 6000-point file in bases 2 and 16: the header, the generator line,
    then point n on line n + 3, so the default block size splits it."""
    return _written(generate_points(HaltonConfig((2, 16)), 6000)).split("\n")


@pytest.mark.parametrize(
    "edits, message",
    [
        ({4999: "0.102 0.1-2"}, "line 5000: digit 2 out of range for base 2"),
        ({99: "0.2 0.1", 4999: "#bases x"}, "line 100: digit 2 out of range for base 2"),
        ({4999: "#bases 2,3"}, "line 5000: #bases header changes the bases"),
    ],
    ids=["bad-line-in-a-later-block", "bad-line-before-a-bad-header", "bases-change-after-a-block"],
)
def test_reader_errors_are_the_same_at_every_block_size(at_both_block_sizes, edits, message):
    lines = _long_file_lines()
    for at, line in edits.items():
        lines[at] = line
    text = "\n".join(lines)
    with pytest.raises(ValueError) as exc:
        at_both_block_sizes(lambda: read_point_set(io.StringIO(text)))
    assert str(exc.value) == message


def test_reader_takes_a_repeated_header_after_a_block(at_both_block_sizes):
    lines = _long_file_lines()
    lines[4999] = "#bases 2,16"
    text = "\n".join(lines)
    stored = at_both_block_sizes(lambda: _stored(read_point_set(io.StringIO(text))))
    assert len(stored[2][0][2]) == 5999


_BASES = st.integers(2, 17) | st.just(1000)
# what str.strip() removes at a line's ends, ASCII and not
_PADDING = st.text(st.sampled_from(" \t\r\x0b\x0c\x1f\xa0\u2003"), max_size=3)
# coordinates parse_coordinate rejects in every base
_BAD_COORDINATES = (
    "1.0", "0,1", "", "0. 1", "0.1\t1", "0.-", "0.+3", "0.1_0", "0.\u0661", "0.1-+3", "0.2-1_0", "0.1-\u0661"
)


@st.composite
def _coordinate(draw, base: int) -> str:
    digits = draw(st.lists(st.integers(0, base - 1), max_size=5))
    if base <= 10:
        return "0." + "".join(map(str, digits))
    # dash-separated parts, some with leading zeros, which the writer never writes
    return "0." + "-".join(draw(st.sampled_from(("", "0", "00"))) + str(d) for d in digits)


@st.composite
def _point_line(draw, bases: tuple[int, ...], corrupt: bool) -> str:
    coords = [draw(_coordinate(b)) for b in bases]
    gaps = [""] + [" "] * (len(bases) - 1)  # what precedes each coordinate
    i = draw(st.integers(0, len(bases) - 1))
    kind = draw(st.sampled_from(("digit", "coordinate", "arity", "gap"))) if corrupt else None
    if kind == "digit":  # a digit of b, out of range unless b = 10
        coords[i] = "0.1" + ("-" if bases[i] > 10 else "") + str(bases[i])
    elif kind == "coordinate":
        coords[i] = draw(st.sampled_from(_BAD_COORDINATES))
    elif kind == "arity":
        coords, gaps = (coords[:i], gaps[:i]) if draw(st.booleans()) else (coords + ["0.1"], gaps + [" "])
    elif kind == "gap" and i:  # whitespace between two coordinates other than one space
        gaps[i] = draw(st.sampled_from(("  ", " \t", "\t", "\xa0", " \r ")))
    return "".join(gap + c for gap, c in zip(gaps, coords))


@st.composite
def _point_files(draw) -> str:
    """Point files as people might edit them: padded lines, CRLF, blank lines and
    comments, #bases headers repeated, changed or malformed, #generator lines
    anywhere, empty coordinates, and at most one corrupted point line, so that
    its error is the file's more often."""
    bases = tuple(draw(st.lists(_BASES, min_size=1, max_size=3)))
    lines = []
    if draw(st.integers(0, 9)) < 9:
        lines.append("#bases " + ",".join(map(str, bases)))
    count = draw(st.integers(1, 12))
    corrupt = draw(st.integers(0, count))  # count: none
    for n in range(count):
        kind = draw(st.integers(0, 9))
        if kind == 7:
            lines.append(draw(st.sampled_from(("", "#", "# a comment", "#basis 2"))))
        elif kind == 8:
            lines.append("#generator" + draw(st.sampled_from(("", " hand", " caf\u00e9 \t", "x"))))
        elif kind == 9:
            other = draw(st.sampled_from((bases, bases[:1], (3, 5), "x", "2,1", "", " 2")))
            lines.append("#bases " + (other if isinstance(other, str) else ",".join(map(str, other))))
        else:
            lines.append(draw(_point_line(bases, n == corrupt)))
    newline = st.sampled_from(("\n", "\r\n"))
    text = "".join(draw(_PADDING) + line + draw(_PADDING) + draw(newline) for line in lines)
    return text.rstrip("\n") if draw(st.booleans()) else text


def _outcome(read, text: str):
    try:
        return _stored(read(io.StringIO(text)))
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(_point_files())
# a non-digit inside a part whose Horner value would still be below b, a part
# longer than the digits of b - 1, and two coordinates a tab apart
@example("#bases 1000\n0.1-1_0\n")
@example("#bases 2,1000\r\n0.1 0.3-\u0661\r\n")
@example("#bases 1000\n0.007-1000\n")
@example("#bases 3,3\n0.1 \t0.2\n")
def test_bulk_reader_matches_the_line_by_line_reference(at_both_block_sizes, text):
    assert at_both_block_sizes(_outcome, read_point_set, text) == _outcome(reference.read_point_set, text)


def test_reader_memory_is_bounded_by_blocks(peak_mib):
    """A stream_wide-shaped file: 32768 lines of a base-2 digital net with
    m = 16 and Halton bases 3 and 5.  Read whole, its lines and tokens as
    Python strings took 20 MiB with the text's own buffer."""
    points = hybrid_points(
        (WALSH, BADIC, BADIC),
        config_from_string("digital:2,m=16,seed=1"),
        config_from_string("halton:3,5"),
        32768,
    )
    text = _written(points)
    assert peak_mib(lambda: read_point_set(io.StringIO(text))) <= 14


def test_reader_fills_its_columns_without_concatenating(tmp_path, peak_mib):
    """2^16 Halton (2,3) points read from a file peak below 1.5 times their
    columns (2.69 MiB).  Concatenating each column's block pieces and filling
    its matrix through an N x P mask took 1.76 times."""
    points = generate_points(HaltonConfig((2, 3)), 2**16)
    path = tmp_path / "points.txt"
    path.write_text(_written(points), encoding="utf-8")
    columns = sum(col.digits.nbytes + col.counts.nbytes for col in points.columns) / 2**20

    def read():
        with open(path, encoding="utf-8") as fh:
            return read_point_set(fh)

    assert read() == points
    assert peak_mib(read) < 1.5 * columns


def _stream_wide_set() -> PointSet:
    return hybrid_points(
        (WALSH, BADIC, BADIC),
        config_from_string("digital:2,m=16,seed=1"),
        config_from_string("halton:3,5"),
        32768,
    )


@pytest.mark.parametrize("layer, limit", [("generate", 2.8), ("write", 1.87), ("read", 8.11)])
def test_point_layers_keep_their_memory(peak_mib, layer, limit):
    """Tracemalloc peaks on the stream_wide-shaped set above, whose columns take
    1.78 MiB, stay at or below those of the per-line reader, the int64 writer
    and the matmul generator: 2.79, 1.87 and 8.10 MiB.  The read's peak counts
    its StringIO, which holds 4 bytes per character (5.06 MiB)."""
    points = _stream_wide_set()
    text = _written(points)
    calls = {
        "generate": _stream_wide_set,
        "write": lambda: write_point_set(points, io.StringIO()),
        "read": lambda: read_point_set(io.StringIO(text)),
    }
    assert peak_mib(calls[layer]) <= limit


def run_cli(*argv) -> tuple[int, str, str]:
    import contextlib

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage failures
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_cli_gen_bound_pipeline(tmp_path):
    pfile = tmp_path / "pts.txt"
    code, _, _ = run_cli("gen", "vdc", "--base", "2", "--n", "8", "--out", str(pfile))
    assert code == 0
    code, out, _ = run_cli("bound", str(pfile), "--g", "3", "--variant", "star", "--oracle")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("variant,n,g,epsilon")
    fields = lines[1].split(",")
    assert fields[0] == "star"
    assert float(fields[3]) == 0.125  # epsilon*
    assert float(fields[4]) == 0.0  # weighted sum
    assert float(fields[5]) == 0.125  # total
    assert float(fields[7]) == 0.0  # margin against the oracle


def test_cli_gen_examples_match_spec_shapes(tmp_path):
    code, out, _ = run_cli("gen", "halton", "--bases", "2,3", "--n", "4")
    assert code == 0
    data = [l for l in out.splitlines() if not l.startswith("#")]
    assert len(data) == 4
    assert all(len(l.split()) == 2 for l in data)

    code, out, _ = run_cli("gen", "hybrid", "--walsh", "vdc:2", "--badic", "halton:3", "--n", "4")
    assert code == 0
    data = [l for l in out.splitlines() if not l.startswith("#")]
    assert len(data) == 4


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("--base", "2", "--s", "2", "--m", "8", "--seed", "5", "--n", "64"), "f9514a0823493df5"),
        (("--base", "3", "--s", "2", "--m", "8", "--seed", "7", "--n", "81"), "f240d4ec718df3f0"),
        (("--base", "2", "--m", "8", "--identity", "--n", "16"), "7a06b5166e07cc4b"),
        (("--base", "2", "--n", "8"), "d0e0eadbc971f463"),
    ],
)
def test_cli_gen_digital_output_is_pinned(argv, digest):
    """gen digital is the generator string digital:B,s=S,m=M,seed=K|identity, byte for byte."""
    code, out, _ = run_cli("gen", "digital", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("vdc", "--base", "3", "--n", "100"), "21b293d837741436"),
        (("vdc", "--base", "12", "--n", "200"), "e124878ca5cf729c"),
        (("halton", "--bases", "2,3,5", "--n", "300"), "25b452c206750b52"),
        (("halton", "--bases", "11,16", "--n", "500"), "d437c2918603aaa1"),
        (
            ("hybrid", "--walsh", "digital:2,m=16,seed=101", "--badic", "halton:3,5", "--n", "512"),
            "343645fabff1e3b9",
        ),
        (
            ("hybrid", "--walsh", "halton:2,13", "--badic", "digital:3,s=2,m=6,seed=4",
             "--tags", "b,w,b,w", "--n", "300"),
            "e55dab8a949d363d",
        ),
        (("digital", "--base", "10", "--m", "32", "--n", "50"), "65dccfa3d1ab4ee2"),
        (("digital", "--base", "17", "--s", "2", "--m", "3", "--seed", "3", "--n", "200"),
         "f1bc83d61980993f"),
    ],
)
def test_cli_gen_output_is_pinned(argv, digest):
    """vdc, halton, hybrid and wide-precision digital files, byte for byte as the per-point generators wrote them."""
    code, out, _ = run_cli("gen", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def _mask_runtime(text: str) -> str:
    """A report with each runtime_ms value, its one nondeterministic field, replaced by 0."""
    text = re.sub(r'"runtime_ms": [-+.e0-9]+', '"runtime_ms": 0', text)
    return re.sub(r"^([^#].*),\d+\.\d{3}$", r"\1,0", text, flags=re.M)


# the README's two inputs: gen arguments, then bound's tags and two --g rows
_REPORT_INPUTS = {
    "vdc": (("vdc", "--base", "2", "--n", "8"), ("--tags", "w", "--g", "3", "--g", "2")),
    "hybrid": (
        ("hybrid", "--walsh", "vdc:2", "--badic", "halton:3", "--tags", "w,b", "--n", "12"),
        ("--tags", "w,b", "--g", "2,1", "--g", "1,1"),
    ),
}


@pytest.mark.parametrize(
    "points, command, fmt, digest",
    [
        ("vdc", "bound", "csv", "20baf64593deb59e"),
        ("vdc", "bound", "json", "f6f67b332f95850a"),
        ("hybrid", "bound", "csv", "ac0cc17ca7f49ad1"),
        ("hybrid", "bound", "json", "00f6639b5e25dab7"),
        ("vdc", "discrepancy", "csv", "e797a3e901d720e1"),
        ("vdc", "discrepancy", "json", "4d32d0fc5e5984bf"),
        ("hybrid", "discrepancy", "csv", "abafd742e30f6ba1"),
        ("hybrid", "discrepancy", "json", "75192f48aec3ddca"),
    ],
)
def test_cli_report_output_is_pinned(tmp_path, points, command, fmt, digest):
    """bound (--oracle --per-k, two --g rows) and discrepancy reports, byte for byte but runtime_ms."""
    gen_argv, bound_argv = _REPORT_INPUTS[points]
    pfile = tmp_path / "pts.txt"
    assert run_cli("gen", *gen_argv, "--out", str(pfile))[0] == 0
    extra = (*bound_argv, "--oracle", "--per-k") if command == "bound" else ()
    code, out, _ = run_cli(command, str(pfile), *extra, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(_mask_runtime(out).encode()).hexdigest()[:16] == digest


def test_cli_gen_digital_n_past_precision_exits_one():
    code, _, err = run_cli("gen", "digital", "--base", "2", "--m", "4", "--n", "17")
    assert code == 1
    assert "5 digits do not fit in precision 4" in err
    code, out, _ = run_cli("gen", "digital", "--base", "2", "--m", "4", "--n", "16")
    assert code == 0 and len(out.splitlines()) == 2 + 16


def test_cli_bound_refuses_a_huge_resolution(tmp_path):
    pfile = tmp_path / "pts.txt"
    run_cli("gen", "vdc", "--base", "2", "--n", "8", "--out", str(pfile))
    code, out, err = run_cli("bound", str(pfile), "--g", "99999")
    assert (code, out) == (1, "")
    assert err == "etkbound: error: index domain size 2^99999 exceeds budget 16777216\n"


def test_cli_bound_budget_caps_phase_tables(tmp_path):
    """|Delta| = 2^20 passes the default budget, but the tables would hold 2^20 x 4096 entries."""
    pfile = tmp_path / "pts.txt"
    run_cli("gen", "vdc", "--base", "2", "--n", "4096", "--out", str(pfile))
    start = time.perf_counter()
    code, _, err = run_cli("bound", str(pfile), "--tags", "w", "--g", "20")
    assert code == 1
    assert "phase tables of 4294967296 entries exceed budget 16777216" in err
    assert time.perf_counter() - start < 10


def test_cli_runtime_ms_excludes_the_oracle(monkeypatch, tmp_path):
    import etkbound.cli as cli

    exact_oracle = cli._oracle

    def slow_oracle(*args):
        time.sleep(0.3)
        return exact_oracle(*args)

    monkeypatch.setattr(cli, "_oracle", slow_oracle)
    pfile = tmp_path / "pts.txt"
    run_cli("gen", "halton", "--bases", "2,3", "--n", "64", "--out", str(pfile))
    code, out, _ = run_cli(
        "bound", str(pfile), "--g", "1", "--g", "1", "--variant", "extreme", "--oracle",
        "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 2
    assert all(row["runtime_ms"] < 300 for row in rows)


def test_cli_bound_json_schema(tmp_path):
    pfile = tmp_path / "pts.txt"
    run_cli("gen", "halton", "--bases", "2,3", "--n", "6", "--out", str(pfile))
    code, out, _ = run_cli(
        "bound", str(pfile), "--g", "1,1", "--g", "2,1", "--tags", "w,b",
        "--format", "json", "--per-k",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["bases"] == [2, 3]
    assert doc["tags"] == ["walsh", "badic"]
    assert len(doc["rows"]) == 4  # two g vectors, both variants
    for row in doc["rows"]:
        assert abs(row["bound_total"] - row["epsilon"] - row["weighted_sum"]) < 1e-15
        size = 1
        for b, gi in zip(doc["bases"], row["g"]):
            size *= b**gi
        assert len(row["per_k"]) == size - 1  # punctured index box
        assert row["per_k"][0]["k"] != [0, 0]


def test_cli_bound_rejects_zero_resolution(tmp_path):
    pfile = tmp_path / "pts.txt"
    run_cli("gen", "vdc", "--base", "2", "--n", "4", "--out", str(pfile))
    code, _, err = run_cli("bound", str(pfile), "--g", "0")
    assert code == 1
    assert "resolution components must be >= 1" in err


def test_cli_discrepancy_json(tmp_path):
    pfile = tmp_path / "pts.txt"
    run_cli("gen", "vdc", "--base", "2", "--n", "8", "--out", str(pfile))
    code, out, _ = run_cli("discrepancy", str(pfile), "--variant", "star", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"][0]["exact"] == "1/8"


def test_cli_usage_errors_exit_one():
    code, _, _ = run_cli("bound")  # missing file and --g
    assert code == 1
    code, _, _ = run_cli("gen", "vdc", "--base", "2")  # missing --n
    assert code == 1
    code, _, err = run_cli("bound", "/nonexistent/file", "--g", "1")
    assert code == 1
    assert "cannot read" in err


def test_cli_verify_exit_codes():
    code, out, _ = run_cli("verify", "weights")
    assert code == 0
    assert "all suites passed" in out
    code, _, _ = run_cli("verify", "nonsense")
    assert code == 1


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_cli_verify_rejects_an_empty_sweep(trials):
    """A sweep that checks nothing must not report a pass."""
    code, out, err = run_cli("verify", "domination", "--trials", trials)
    assert code == 1
    assert "--trials must be at least 1" in err
    assert "passed" not in out


def test_cli_budget_env(monkeypatch, tmp_path):
    pfile = tmp_path / "pts.txt"
    run_cli("gen", "vdc", "--base", "2", "--n", "4", "--out", str(pfile))
    monkeypatch.setenv("ETKBOUND_BUDGET", "2")
    code, _, err = run_cli("bound", str(pfile), "--g", "3")
    assert code == 1 and "budget" in err.lower()
    # flag overrides the environment
    code, _, _ = run_cli("bound", str(pfile), "--g", "3", "--budget", "100")
    assert code == 0
    monkeypatch.setenv("ETKBOUND_BUDGET", "zz")
    code, _, err = run_cli("bound", str(pfile), "--g", "3")
    assert code == 1
    monkeypatch.delenv("ETKBOUND_BUDGET")
    for value in ("0", "-5"):
        code, _, err = run_cli("bound", str(pfile), "--g", "3", "--budget", value)
        assert code == 1
        assert f"--budget must be positive, got {value}" in err


def test_cli_verify_reads_no_budget(monkeypatch):
    code, _, err = run_cli("verify", "fourier", "--budget", "5")
    assert code == 1 and "unrecognized arguments: --budget 5" in err
    monkeypatch.setenv("ETKBOUND_BUDGET", "zz")
    code, out, _ = run_cli("verify", "weights")
    assert code == 0 and "all suites passed" in out


def _functions(module):
    """(name, function) for every function and method defined in a module, private ones included."""
    import inspect

    for name, obj in vars(module).items():
        if inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)  # classmethods and staticmethods
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member
        elif inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


def test_budget_and_cap_knobs_stay_where_they_are():
    """Only etk_bound, and the CLI code that hands it --budget, takes a budget;
    no function takes a point cap (the oracle's caps are fixed in its _VARIANTS),
    nor a block or chunk size."""
    import importlib
    import inspect
    import pkgutil

    knobs = {"budget": set(), "max_points": set()}
    sizes = set()
    for info in pkgutil.iter_modules(etkbound.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"etkbound.{info.name}")
        for name, fn in _functions(module):
            params = inspect.signature(fn).parameters
            for knob, owners in knobs.items():
                if knob in params:
                    owners.add(f"{info.name}.{name}")
            sizes |= {f"{info.name}.{name}({p})" for p in params if "block" in p or "chunk" in p}
    assert knobs == {
        "budget": {"bounds.etk_bound", "cli._bound_rows"},
        "max_points": set(),
    }
    assert sizes == set()
    code, out, _ = run_cli("verify", "--help")
    assert code == 0 and "--trials" in out and "--budget" not in out


def test_cli_stdin_dash(tmp_path, monkeypatch):
    pfile = tmp_path / "pts.txt"
    run_cli("gen", "vdc", "--base", "3", "--n", "5", "--out", str(pfile))
    monkeypatch.setattr(sys, "stdin", io.StringIO(pfile.read_text()))
    code, out, _ = run_cli("discrepancy", "-", "--variant", "star")
    assert code == 0
    assert "star" in out


def run_module(*argv, env=None, code=None) -> subprocess.CompletedProcess:
    """python -m etkbound in a child process, which imports the same package as this one,
    with env's variables set; with code, python -c code and argv instead."""
    src = os.path.dirname(os.path.dirname(etkbound.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    command = ["-m", "etkbound"] if code is None else ["-c", code]
    return subprocess.run(
        [sys.executable, *command, *argv],
        capture_output=True, text=True, env={**os.environ, **(env or {}), "PYTHONPATH": path},
    )


# bound_dense's gen and bound steps, with the per-index table
_DENSE_GEN = ("gen", "hybrid", "--walsh", "digital:2,seed=101", "--badic", "halton:3", "--n", "4096")
_DENSE_BOUND = ("--tags", "w,b", "--g", "8,5", "--variant", "extreme", "--per-k", "--format", "json")


def test_cli_bound_is_the_same_at_every_blas_thread_count(tmp_path):
    """The bound report, every |S| included, is the same bytes at one and two
    OpenBLAS threads: the sums are elementwise transforms, and a threaded BLAS
    product could split a contracted axis where a one-thread product does not."""
    pfile = tmp_path / "bd.pts"
    assert run_module(*_DENSE_GEN, "--out", str(pfile)).returncode == 0
    reports = []
    for threads in ("1", "2"):
        proc = run_module("bound", str(pfile), *_DENSE_BOUND, env={"OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        reports.append(_mask_runtime(proc.stdout))
    assert len(json.loads(reports[0])["rows"][0]["per_k"]) == 256 * 243 - 1
    assert reports[0] == reports[1]


def test_cli_bound_leaves_numpy_fft_unloaded(tmp_path):
    """A first numpy.fft call raised a bare numpy child's peak RSS from 26.8 to 27.4 MiB."""
    pfile = tmp_path / "bd.pts"
    assert run_module(*_DENSE_GEN, "--out", str(pfile)).returncode == 0
    code = "import sys; from etkbound.cli import main; main(sys.argv[1:]); print('numpy.fft' in sys.modules)"
    proc = run_module("bound", str(pfile), *_DENSE_BOUND, "--out", str(tmp_path / "bd.json"), code=code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_cli_subprocess_entry_point(tmp_path):
    """python -m invocation works end to end."""
    proc = run_module("gen", "vdc", "--base", "2", "--n", "4")
    assert proc.returncode == 0
    assert proc.stdout.startswith("#bases 2")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--walsh", "vdc:2", "--badic", "halton:3", "--tags", "w,w", "--n", "9"),
         "walsh part supplies 1 coordinates, tags need 2"),
        (("--walsh", "vdc:2", "--tags", "b", "--n", "4"),
         "walsh part supplies 1 coordinates, tags need 0"),
    ],
    ids=["interleaved", "one-part"],
)
def test_cli_gen_hybrid_tag_mismatch_is_an_error_not_a_crash(argv, message):
    proc = run_module("gen", "hybrid", *argv)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == f"etkbound: error: {message}\n"
    assert "Traceback" not in proc.stderr
