"""Point generators: van der Corput, Halton, digital nets, hybrids."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etkbound.badic import DigitVector, int_digits
from etkbound.reference import (
    add_without_carry,
    config_point,
    digit_column,
    digital_point,
    halton,
    point_set,
    point_set_from_values,
    point_values,
    radical_inverse,
    van_der_corput,
)
from etkbound.sequences import (
    DigitalConfig,
    GeneratorMatrix,
    HaltonConfig,
    VdcConfig,
    config_from_string,
    generate_points,
    hybrid_points,
)
from etkbound.systems import BADIC, WALSH, HybridSystemSpec


def test_van_der_corput_values():
    for n in range(32):
        assert van_der_corput(2, n).value == radical_inverse(n, 2)
        assert van_der_corput(3, n).value == radical_inverse(n, 3)


def test_halton_coordinates_are_independent_radical_inverses():
    for n in range(20):
        pt = halton((2, 3, 5), n)
        assert [c.value for c in pt] == [radical_inverse(n, b) for b in (2, 3, 5)]


def test_generator_matrix_identity_reproduces_vdc():
    m = 6
    mats = (GeneratorMatrix.identity(2, m),)
    for n in range(2**m):
        (y,) = digital_point(mats, 2, n, m)
        assert y == van_der_corput(2, n) and y.precision == m


def test_generator_matrix_entries_reduced_mod_base():
    gm = GeneratorMatrix(3, ((4, 1), (2, 5)))
    assert gm.rows == ((1, 1), (2, 2))


def test_digital_point_frozen_case():
    # C = [[1,1],[0,1]] over F_2, n=2 -> digits (0,1) -> y digits (1,1) -> 3/4
    gm = GeneratorMatrix(2, ((1, 1), (0, 1)))
    (y,) = digital_point((gm,), 2, 2, 2)
    assert y.value == Fraction(3, 4)


def test_digital_point_rejects_large_n():
    gm = GeneratorMatrix.identity(2, 3)
    with pytest.raises(ValueError):
        digital_point((gm,), 2, 8, 3)


def test_digital_net_is_linear_over_base():
    """y(n1) digitwise-plus y(n2) equals y(n1 xor-carry-free n2)."""
    rng = random.Random(5)
    base, m = 3, 5
    mats = tuple(GeneratorMatrix.random(base, m, rng) for _ in range(2))
    cfg = DigitalConfig(base, mats)
    for n1 in (1, 4, 17):
        for n2 in (2, 9, 33):
            d1 = int_digits(n1, base, length=m)
            d2 = int_digits(n2, base, length=m)
            n3 = sum((a + b) % base * base**j for j, (a, b) in enumerate(zip(d1, d2)))
            p1, p2, p3 = (config_point(cfg, n) for n in (n1, n2, n3))
            for c1, c2, c3 in zip(p1, p2, p3):
                assert add_without_carry(c1, c2) == c3


def test_point_set_from_values_round_trip():
    ps = point_set_from_values((2, 3), [(Fraction(1, 2), Fraction(2, 9))])
    assert point_values(ps)[0] == (Fraction(1, 2), Fraction(2, 9))
    assert ps.s == 2 and ps.n_points == 1


def test_point_set_validates_bases():
    with pytest.raises(ValueError):
        point_set((2,), ((DigitVector(3, (1,)),),))


def test_generate_points_provenance():
    ps = generate_points(VdcConfig(2), 4)
    assert ps.provenance == "vdc:2"
    assert ps.n_points == 4
    ps = generate_points(HaltonConfig((2, 3)), 4)
    assert ps.bases == (2, 3)


def test_hybrid_points_frozen_case():
    spec = HybridSystemSpec(((2, WALSH), (3, BADIC)))
    ps = hybrid_points(spec.tags, VdcConfig(2), HaltonConfig((3,)), 6)
    # n=5: vdc base 2 -> 5/8, halton base 3 -> 7/9... check both directly
    assert point_values(ps)[5] == (radical_inverse(5, 2), radical_inverse(5, 3))


def test_hybrid_points_tag_interleaving():
    spec = HybridSystemSpec(((3, BADIC), (2, WALSH), (5, BADIC)))
    ps = hybrid_points(spec.tags, VdcConfig(2), HaltonConfig((3, 5)), 4)
    assert ps.bases == (3, 2, 5)
    for n in range(4):
        b3, w2, b5 = point_values(ps)[n]
        assert w2 == radical_inverse(n, 2)
        assert b3 == radical_inverse(n, 3)
        assert b5 == radical_inverse(n, 5)


def test_hybrid_points_dimension_mismatch():
    spec = HybridSystemSpec(((2, WALSH), (3, BADIC)))
    with pytest.raises(ValueError):
        hybrid_points(spec.tags, VdcConfig(2), HaltonConfig((3, 5)), 4)
    with pytest.raises(ValueError):
        hybrid_points(spec.tags, None, HaltonConfig((3,)), 4)
    with pytest.raises(ValueError, match="unknown tag 'fourier'"):
        hybrid_points((WALSH, "fourier"), VdcConfig(2), HaltonConfig((3,)), 4)


def test_hybrid_all_one_tag_allows_empty_part():
    spec = HybridSystemSpec(((2, WALSH), (2, WALSH)))
    rng = random.Random(0)
    mats = tuple(GeneratorMatrix.random(2, 8, rng) for _ in range(2))
    ps = hybrid_points(spec.tags, DigitalConfig(2, mats), None, 5)
    assert ps.n_points == 5


def test_config_from_string_forms():
    assert isinstance(config_from_string("vdc:2"), VdcConfig)
    h = config_from_string("halton:2,3,5")
    assert h.bases == (2, 3, 5)
    d = config_from_string("digital:3,s=2,m=6,seed=9")
    assert isinstance(d, DigitalConfig) and len(d.matrices) == 2
    ident = config_from_string("digital:2,s=1,m=4")
    assert ident.matrices[0] == GeneratorMatrix.identity(2, 4)


def test_config_from_string_rejects_garbage():
    for text in ("sobol:2", "vdc:", "vdc:1", "digital:2,s=0", "halton:2;3"):
        with pytest.raises(ValueError):
            config_from_string(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("digital:2,seed=3,identity", "seed and identity conflict"),
        ("digital:2,identity,s=2,seed=3", "seed and identity conflict"),
        ("digital:2,s=2,s=3", "option 's' given twice"),
        ("digital:2,m=4,m=4", "option 'm' given twice"),
        ("digital:2,seed=1,seed=2", "option 'seed' given twice"),
        ("digital:2,identity,identity", "option 'identity' given twice"),
    ],
)
def test_config_from_string_rejects_conflicting_digital_options(text, message):
    """Either would build matrices other than the provenance string names."""
    with pytest.raises(ValueError, match=message):
        config_from_string(text)


def test_point_set_stores_digit_columns():
    """Each coordinate is one zero-padded digit matrix plus the stored digit counts."""
    pts = (
        (DigitVector(2, (1, 0, 0)), DigitVector(12, (11,))),
        (DigitVector(2, ()), DigitVector(12, (3, 0, 7, 0))),
    )
    ps = point_set((2, 12), pts, "hand")
    col2, col12 = ps.columns
    assert col2.digits.dtype == np.uint8 and col2.digits.tolist() == [[1, 0, 0], [0, 0, 0]]
    assert col2.counts.tolist() == [3, 0]
    assert col12.digits.tolist() == [[11, 0, 0, 0], [3, 0, 7, 0]]
    assert col12.counts.tolist() == [1, 4]
    assert VdcConfig(300).columns(1)[0].digits.dtype == np.uint16


def test_point_set_view_is_cached_and_exact():
    ps = generate_points(HaltonConfig((2, 13)), 40)
    view = ps.points
    assert ps.points is view
    assert view[37] == halton((2, 13), 37)
    assert [x.digits for x in view[37]] == [x.digits for x in halton((2, 13), 37)]
    rebuilt = point_set(ps.bases, view, ps.provenance)
    assert rebuilt == ps
    assert all((a.digits == b.digits).all() for a, b in zip(rebuilt.columns, ps.columns))


def test_point_set_equality_ignores_trailing_zeros_only():
    pts = [(DigitVector(2, (1,)), DigitVector(12, (3, 0, 7)))]
    padded = [(DigitVector(2, (1, 0, 0)), DigitVector(12, (3, 0, 7, 0)))]
    ps = point_set((2, 12), pts, "hand")
    assert ps == point_set((2, 12), padded, "hand")
    assert ps != point_set((2, 12), padded, "other")
    assert ps != point_set((2, 12), [(DigitVector(2, (1, 0, 1)), DigitVector(12, (3, 0, 7)))], "hand")
    assert ps != point_set((2, 12), pts * 2, "hand")
    assert ps != point_set((3, 12), [(DigitVector(3, (1,)), DigitVector(12, (3, 0, 7)))], "hand")


def test_digital_columns_reject_n_past_precision():
    cfg = config_from_string("digital:2,m=4,seed=3")
    assert generate_points(cfg, 16).n_points == 16
    with pytest.raises(ValueError, match="5 digits do not fit in precision 4"):
        generate_points(cfg, 17)


def test_digital_columns_do_not_overflow_at_default_precision():
    """b^m for b = 10, m = 32 is far past int64; the digits never need it."""
    cfg = config_from_string("digital:10,s=2,m=32,seed=11")
    ps = generate_points(cfg, 1200)
    for n in (0, 1, 9, 10, 999, 1000, 1199):
        assert [x.digits for x in ps.points[n]] == [x.digits for x in config_point(cfg, n)]
    # a digit product (b-1)^2 past 2^63 falls back to exact Python integers
    cfg = config_from_string("digital:4294967311,s=2,m=3,seed=1")
    assert _digits(generate_points(cfg, 7).points) == _digits(config_point(cfg, n) for n in range(7))
    with pytest.raises(ValueError, match="too large for a digit matrix"):
        generate_points(VdcConfig(2**63), 2)


def test_radical_inverses_sum_in_64_bits_past_base_2_32(monkeypatch):
    """The identity's steps are 0 or 1, so van der Corput's sums stay below
    width (b - 1): base 2^33 sums them in uint64.  Bounding them by width (b - 1)^2
    took them to Python integers, 3.8 times slower on 10^6 points."""
    import etkbound.sequences as sequences

    dtypes, digit_sums = [], sequences._digit_sums

    def spy(steps, *args):
        dtypes.append(steps.dtype)
        return digit_sums(steps, *args)

    monkeypatch.setattr(sequences, "_digit_sums", spy)
    (column,) = VdcConfig(2**33).columns(1000)
    assert dtypes == [np.dtype(np.uint64)] * 2
    assert column.digits[:, 0].tolist() == list(range(1000))


def _configs(max_coords: int):
    """vdc, Halton and digital (seeded or identity) configs in bases 2-17, m 1-32."""
    bases = st.integers(2, 17)
    vdc = bases.map(VdcConfig)
    halton_cfg = st.lists(bases, min_size=1, max_size=max_coords).map(lambda b: HaltonConfig(tuple(b)))

    @st.composite
    def digital(draw):
        base, m = draw(bases), draw(st.integers(1, 32))
        s = draw(st.integers(1, max_coords))
        if draw(st.booleans()):
            return config_from_string(f"digital:{base},s={s},m={m}")
        return config_from_string(f"digital:{base},s={s},m={m},seed={draw(st.integers(0, 10**6))}")

    return st.one_of(vdc, halton_cfg, digital())


def _n_points(draw, *configs) -> int:
    cap = 60
    for cfg in configs:
        if isinstance(cfg, DigitalConfig):
            cap = min(cap, cfg.base**cfg.precision)
    return draw(st.integers(1, cap))


def _digits(points):
    return [[x.digits for x in pt] for pt in points]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bulk_generation_matches_scalar_points(data):
    cfg = data.draw(_configs(3))
    n = _n_points(data.draw, cfg)
    ps = generate_points(cfg, n)
    assert ps.bases == cfg.bases
    assert _digits(ps.points) == _digits(config_point(cfg, i) for i in range(n))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bulk_hybrid_matches_scalar_interleaving(data):
    walsh_part = data.draw(_configs(2))
    badic_part = data.draw(_configs(2))
    tags = data.draw(
        st.permutations((WALSH,) * len(walsh_part.bases) + (BADIC,) * len(badic_part.bases))
    )
    n = _n_points(data.draw, walsh_part, badic_part)
    ps = hybrid_points(tags, walsh_part, badic_part, n)
    want = []
    for i in range(n):
        w, b = iter(config_point(walsh_part, i)), iter(config_point(badic_part, i))
        want.append([next(w) if t == WALSH else next(b) for t in tags])
    assert ps.bases == tuple(x.base for x in want[0])
    assert _digits(ps.points) == _digits(want)


@pytest.mark.parametrize(
    "config",
    [
        VdcConfig(3),
        VdcConfig(2**40),
        HaltonConfig((2, 3, 5)),
        config_from_string("digital:3,s=2,m=6,seed=4"),
        config_from_string("digital:1099511627776,s=2,m=2,seed=3"),
        config_from_string("digital:2,s=3,m=40,seed=7"),
    ],
    ids=lambda c: c.describe(),
)
def test_columns_are_the_same_at_every_block_size(config, at_both_block_sizes):
    """Against the scalar points; a random net in base 2^40 sums its digits as Python integers."""
    n = 300
    got = at_both_block_sizes(
        lambda: [(c.digits.dtype.str, c.digits.tolist(), c.counts.tolist()) for c in config.columns(n)]
    )
    points = [config_point(config, i) for i in range(n)]
    want = [digit_column([pt[i] for pt in points], b) for i, b in enumerate(config.bases)]
    assert got == [(c.digits.dtype.str, c.digits.tolist(), c.counts.tolist()) for c in want]


def test_radical_inverse_columns_need_little_beyond_themselves(peak_mib):
    """2^18 Halton (2,3) points: the columns hold 8.0 MiB, and generating them
    peaks at 8.8.  Dividing an int64 arange of the indices took 14.5 (1.81x)."""
    n = 2**18
    held = sum(c.digits.nbytes + c.counts.nbytes for c in generate_points(HaltonConfig((2, 3)), n).columns)
    assert peak_mib(generate_points, HaltonConfig((2, 3)), n) < 1.3 * held / 2**20
