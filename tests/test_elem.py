"""Unit tests for the element codecs (repro.core.elem)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.elem import (
    E2M1,
    E2M3,
    E3M2,
    E4M3,
    E5M2,
    INT4_MX,
    INT8_MX,
    FloatCodec,
    IntCodec,
    floor_log2,
    round_half_even,
)

ALL_FLOAT = [E2M1, E2M3, E3M2, E4M3, E5M2]


class TestFormatParameters:
    def test_e2m1_spec(self):
        assert E2M1.emax == 2
        assert E2M1.max_normal == 6.0
        assert E2M1.min_normal == 1.0
        assert E2M1.min_subnormal == 0.5
        assert E2M1.bits == 4

    def test_e2m3_spec(self):
        assert E2M3.emax == 2
        assert E2M3.max_normal == 7.5
        assert E2M3.bits == 6

    def test_e3m2_spec(self):
        assert E3M2.emax == 4
        assert E3M2.max_normal == 28.0
        assert E3M2.bits == 6

    def test_e4m3_spec(self):
        # OCP FP8 E4M3: NaN steals the top mantissa code, max 448.
        assert E4M3.emax == 8
        assert E4M3.max_normal == 448.0
        assert E4M3.bits == 8

    def test_e5m2_spec(self):
        # IEEE-style: top exponent reserved for Inf/NaN, max 57344.
        assert E5M2.emax == 15
        assert E5M2.max_normal == 57344.0

    def test_int8_mx_spec(self):
        assert INT8_MX.emax == 0
        assert INT8_MX.max_normal == pytest.approx(127 / 64)

    def test_int4_mx_spec(self):
        assert INT4_MX.max_normal == pytest.approx(7 / 4)


class TestE2M1Grid:
    """E2M1's full positive grid is {0, .5, 1, 1.5, 2, 3, 4, 6}."""

    def test_grid_enumeration(self):
        expect = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0]
        assert E2M1.representable_values().tolist() == expect

    @pytest.mark.parametrize(
        "x,expected",
        [
            (0.0, 0.0),
            (0.2, 0.0),  # below half of min subnormal
            (0.3, 0.5),
            (0.74, 0.5),
            (0.76, 1.0),
            (1.25, 1.0),  # tie -> even mantissa (1.0)
            (1.3, 1.5),
            (1.75, 2.0),  # tie -> even (2.0)
            (2.5, 2.0),  # tie -> even (2.0)
            (3.5, 4.0),  # tie -> even (4.0)
            (4.92, 4.0),  # the paper's -9.84/2 example rounds toward 4
            (5.0, 4.0),  # tie between 4 and 6 -> even (4)
            (5.1, 6.0),
            (100.0, 6.0),  # saturation
        ],
    )
    def test_rounding(self, x, expected):
        assert E2M1.quantize(np.array([x]))[0] == expected
        assert E2M1.quantize(np.array([-x]))[0] == -expected


class TestQuantizeInvariants:
    @pytest.mark.parametrize("codec", ALL_FLOAT, ids=lambda c: c.name)
    def test_idempotent(self, codec):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(512) * 10
        q = codec.quantize(x)
        np.testing.assert_array_equal(codec.quantize(q), q)

    @pytest.mark.parametrize("codec", ALL_FLOAT, ids=lambda c: c.name)
    def test_representable_fixed_points(self, codec):
        vals = codec.representable_values()
        np.testing.assert_array_equal(codec.quantize(vals), vals)
        np.testing.assert_array_equal(codec.quantize(-vals), -vals)

    @pytest.mark.parametrize("codec", ALL_FLOAT, ids=lambda c: c.name)
    def test_monotone(self, codec):
        x = np.linspace(-2 * codec.max_normal, 2 * codec.max_normal, 4001)
        q = codec.quantize(x)
        assert np.all(np.diff(q) >= 0)

    @pytest.mark.parametrize("codec", ALL_FLOAT, ids=lambda c: c.name)
    def test_odd_symmetry(self, codec):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(512) * 5
        np.testing.assert_array_equal(codec.quantize(-x), -codec.quantize(x))

    @pytest.mark.parametrize("codec", ALL_FLOAT, ids=lambda c: c.name)
    def test_saturation(self, codec):
        big = np.array([codec.max_normal * 1.01, codec.max_normal * 100])
        np.testing.assert_array_equal(codec.quantize(big), codec.max_normal)

    @pytest.mark.parametrize("codec", ALL_FLOAT, ids=lambda c: c.name)
    def test_error_bounded_by_half_ulp_in_normal_range(self, codec):
        rng = np.random.default_rng(3)
        x = rng.uniform(codec.min_normal, codec.max_normal, 2048)
        q = codec.quantize(x)
        ulp = np.exp2(np.floor(np.log2(np.abs(x))) - codec.mbits)
        assert np.all(np.abs(x - q) <= ulp / 2 + 1e-12)

    @pytest.mark.parametrize("codec", ALL_FLOAT, ids=lambda c: c.name)
    def test_nearest_value_on_grid(self, codec):
        rng = np.random.default_rng(4)
        grid = codec.representable_values()
        full = np.concatenate([-grid[::-1], grid])
        x = rng.uniform(-codec.max_normal, codec.max_normal, 256)
        q = codec.quantize(x)
        nearest = np.min(np.abs(full[None, :] - x[:, None]), axis=1)
        np.testing.assert_allclose(np.abs(q - x), nearest, atol=1e-12)


ALL_CODECS = ALL_FLOAT + [INT8_MX, INT4_MX]


def _grid(codec) -> np.ndarray:
    """Every value ``encode_bits`` accepts, ``-0.0`` and ``+0.0`` both."""
    if isinstance(codec, IntCodec):
        vals = np.arange(codec.max_q + 1) / float(1 << codec.frac_bits)
    else:
        vals = codec.representable_values()
    return np.concatenate([-vals[::-1], vals])


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


class TestBitCodecs:
    @pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
    def test_roundtrip_all_values(self, codec):
        """Bitwise over every grid value, ``-0.0`` included; MXINT's
        ``-0.0`` is code 0 and decodes to ``+0.0``."""
        full = _grid(codec)
        bits = codec.encode_bits(full)
        assert np.all(bits < (1 << codec.bits))
        want = full + 0.0 if isinstance(codec, IntCodec) else full
        np.testing.assert_array_equal(_bits(codec.decode_bits(bits)), _bits(want))

    def test_e2m1_known_patterns(self):
        # S EE M: 0 00 0 = +0, 0 01 0 = 1.0, 0 11 1 = 6.0, 1 11 1 = -6.0
        assert E2M1.encode_bits(np.array([0.0]))[0] == 0b0000
        assert E2M1.encode_bits(np.array([-0.0]))[0] == 0b1000
        assert E2M1.encode_bits(np.array([1.0]))[0] == 0b0010
        assert E2M1.encode_bits(np.array([6.0]))[0] == 0b0111
        assert E2M1.encode_bits(np.array([-6.0]))[0] == 0b1111
        assert E2M1.encode_bits(np.array([0.5]))[0] == 0b0001  # subnormal

    def test_off_grid_raises(self):
        with pytest.raises(ValueError):
            E2M1.encode_bits(np.array([1.3]))

    def test_off_grid_is_exact(self):
        # within the rtol=1e-5 the float-arithmetic encoder tolerated
        with pytest.raises(ValueError):
            E2M1.encode_bits(np.array([1.5 + 1e-9]))

    def test_int8_roundtrip(self):
        q = INT8_MX.quantize(np.linspace(-2, 2, 301))
        bits = INT8_MX.encode_bits(q)
        np.testing.assert_array_equal(_bits(INT8_MX.decode_bits(bits)), _bits(q + 0.0))

    @pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
    def test_rejects_special_values(self, codec):
        smallest = np.min(np.abs(_grid(codec))[np.abs(_grid(codec)) > 0])
        for v in (np.nan, np.inf, -np.inf, smallest / 2, -smallest / 2,
                  np.nextafter(codec.max_normal, np.inf), -2 * codec.max_normal):
            with pytest.raises(ValueError):
                codec.encode_bits(np.array([0.0, v]))

    @pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_rejects_off_grid(self, codec, data):
        """``nextafter`` neighbours of grid points, values beyond
        ``max_normal`` and nonzero values below the smallest step."""
        grid = _grid(codec)
        smallest = np.min(np.abs(grid)[np.abs(grid) > 0])
        v = data.draw(st.one_of(
            st.sampled_from(grid.tolist()).flatmap(
                lambda g: st.sampled_from([np.nextafter(g, np.inf), np.nextafter(g, -np.inf)])
            ),
            st.floats(min_value=codec.max_normal, exclude_min=True, allow_infinity=False),
            st.floats(max_value=smallest, exclude_max=True, min_value=0.0, exclude_min=True),
        ))
        sign = data.draw(st.sampled_from([1.0, -1.0]))
        with pytest.raises(ValueError):
            codec.encode_bits(np.array([sign * v]))


class TestHelpers:
    def test_floor_log2_powers_of_two(self):
        x = np.exp2(np.arange(-60, 61, dtype=np.float64))
        np.testing.assert_array_equal(floor_log2(x), np.arange(-60, 61))

    def test_floor_log2_general(self):
        assert floor_log2(np.array([9.84]))[0] == 3
        assert floor_log2(np.array([0.99]))[0] == -1
        assert floor_log2(np.array([1.0]))[0] == 0

    def test_floor_log2_zero_is_sentinel(self):
        assert floor_log2(np.array([0.0]))[0] < -(10**8)

    def test_round_half_even(self):
        x = np.array([0.5, 1.5, 2.5, 3.5, -0.5, -1.5])
        np.testing.assert_array_equal(round_half_even(x), [0, 2, 2, 4, -0, -2])


class TestCustomCodec:
    def test_e1m2(self):
        c = FloatCodec("e1m2", ebits=1, mbits=2, bias=0)
        assert c.emax == 1
        assert c.max_normal == 2.0 * 1.75
        q = c.quantize(np.array([0.3, 5.0]))
        assert q[1] == c.max_normal
