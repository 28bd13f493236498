"""Bit-level layout tests (Figures 6-7): packing round-trips and storage."""

import numpy as np
import pytest

from repro.core.layout import (
    pack_bits,
    pack_mx,
    pack_mxplus,
    unpack_bits,
    unpack_mx,
    unpack_mxplus,
)
from repro.core.mx import MXFP4, MXFP4K64, MXFP6, MXFP8, MXINT8
from repro.core.mxplus import MXFP4Plus, MXFP4PlusK64, MXFP6Plus, MXFP8Plus
from repro.core.mxpp import MXFP4PlusPlus

FIG4_UPPER_BF16 = np.array([-0.27, -0.19, 0.99, -0.20, -9.84, -0.39])


def assert_same_bits(got, want):
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestBitPacking:
    @pytest.mark.parametrize("bits", [1, 3, 4, 6, 8, 13])
    def test_roundtrip(self, bits):
        rng = np.random.default_rng(bits)
        codes = rng.integers(0, 1 << bits, size=97).astype(np.uint32)
        buf = pack_bits(codes, bits)
        np.testing.assert_array_equal(unpack_bits(buf, bits, 97), codes)

    def test_density(self):
        codes = np.zeros(32, dtype=np.uint32)
        assert len(pack_bits(codes, 4)) == 16  # 32 * 4 bits = 16 bytes
        assert len(pack_bits(codes, 6)) == 24


class TestMXPacking:
    @pytest.mark.parametrize(
        "factory", [MXFP4, MXFP6, MXFP8, MXINT8, MXFP4K64], ids=["4", "6", "8", "int8", "4-k64"]
    )
    def test_roundtrip(self, factory):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 96)) * 3
        fmt = factory()
        enc = fmt.encode(x)
        packed = pack_mx(fmt, enc)
        enc2 = unpack_mx(fmt, packed)
        # MXINT stores -0.0 as code 0: two's complement has no negative zero.
        want = fmt.decode(enc) + 0.0 if factory is MXINT8 else fmt.decode(enc)
        assert_same_bits(fmt.decode(enc2), want)

    def test_mxfp4_storage_per_block(self):
        # 32 elements * 4 bits + 8-bit scale = 17 bytes per block.
        fmt = MXFP4()
        x = np.zeros((1, 32))
        x[0, 0] = 1.0
        packed = pack_mx(fmt, fmt.encode(x))
        assert packed.total_bytes() == 17

    def test_average_bits(self):
        fmt = MXFP4()
        x = np.ones((1, 32 * 100))
        packed = pack_mx(fmt, fmt.encode(x))
        assert packed.total_bytes() * 8 / (32 * 100) == pytest.approx(4.25)


class TestMXPlusPacking:
    @pytest.mark.parametrize(
        "factory", [MXFP4Plus, MXFP6Plus, MXFP8Plus, MXFP4PlusPlus, MXFP4PlusK64],
        ids=["4+", "6+", "8+", "4++", "4+-k64"],
    )
    def test_roundtrip(self, factory):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 96)) * np.exp(rng.uniform(-2, 2, (4, 1)))
        x[rng.random((4, 96)) < 0.05] *= 40
        fmt = factory()
        enc = fmt.encode(x)
        packed = pack_mxplus(fmt, enc)
        enc2 = unpack_mxplus(fmt, packed)
        assert_same_bits(fmt.decode(enc2), fmt.decode(enc))

    @pytest.mark.parametrize(
        "factory", [MXFP4Plus, MXFP6Plus, MXFP8Plus], ids=["4+", "6+", "8+"]
    )
    def test_unpack_keeps_the_one_scale_fast_path(self, factory):
        # MX+ blocks share one scale: unpack hands back shared_exp itself
        # (flushed blocks included), so decode skips the BM/NBM select.
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 64)) * 4.0
        x[1, :32] = 2.0**-130  # one flushed block
        fmt = factory()
        enc = fmt.encode(x)
        enc2 = unpack_mxplus(fmt, pack_mxplus(fmt, enc))
        assert enc2.nbm_shared_exp is enc2.shared_exp
        assert_same_bits(fmt.decode(enc2), fmt.decode(enc))

    def test_unpack_mxpp_keeps_its_nbm_scales(self):
        fmt = MXFP4PlusPlus()
        enc = fmt.encode(FIG4_UPPER_BF16)  # delta 3 (Section 4.3 example)
        enc2 = unpack_mxplus(fmt, pack_mxplus(fmt, enc))
        assert enc2.nbm_shared_exp is not enc2.shared_exp
        np.testing.assert_array_equal(enc2.nbm_shared_exp, enc.nbm_shared_exp)
        assert_same_bits(fmt.decode(enc2), fmt.decode(enc))

    def test_k64_bm_index_above_31(self):
        # 64-element blocks need a 6-bit BM index (2 reserved bits left).
        fmt = MXFP4PlusK64()
        x = np.ones((1, 64))
        x[0, 50] = -9.0
        packed = pack_mxplus(fmt, fmt.encode(x))
        assert np.frombuffer(packed.sideband, dtype=np.uint8)[0] == 50 << 2
        assert unpack_mxplus(fmt, packed).bm_index[0] == 50

    def test_sideband_encoding(self):
        fmt = MXFP4Plus()
        enc = fmt.encode(FIG4_UPPER_BF16)
        packed = pack_mxplus(fmt, enc)
        sideband = np.frombuffer(packed.sideband, dtype=np.uint8)
        assert (sideband[0] >> 3) == 4  # BM index of -9.84
        assert (sideband[0] & 0x7) == 0  # reserved bits zero for MX+

    def test_mxpp_delta_in_sideband(self):
        fmt = MXFP4PlusPlus()
        enc = fmt.encode(FIG4_UPPER_BF16)
        packed = pack_mxplus(fmt, enc)
        sideband = np.frombuffer(packed.sideband, dtype=np.uint8)
        assert (sideband[0] & 0x7) == 3  # delta from Section 4.3 example

    def test_storage_overhead(self):
        # MXFP4+: 17 bytes (MX) + 1 sideband byte = 18 per block -> 4.5 b/e.
        fmt = MXFP4Plus()
        x = np.zeros((1, 32))
        x[0, 0] = 1.0
        packed = pack_mxplus(fmt, fmt.encode(x))
        assert packed.total_bytes() == 18
        assert packed.total_bytes() * 8 / 32 == pytest.approx(4.5)

    def test_fig6_bm_binary_encoding(self):
        # Figure 6: MXFP4+ stores the BM (-9.84 -> -10.0, scaled -5.0,
        # fraction 1.25 -> code 010) as S=1, MMM=010 -> 0b1010.
        fmt = MXFP4Plus()
        enc = fmt.encode(FIG4_UPPER_BF16)
        packed = pack_mxplus(fmt, enc)
        codes = unpack_bits(packed.elements, 4, 32)
        assert codes[4] == 0b1010

    def test_flush_block_packs_scale_zero(self):
        fmt = MXFP4Plus()
        x = np.full((1, 32), 2.0**-130)
        packed = pack_mxplus(fmt, fmt.encode(x))
        assert np.frombuffer(packed.scales, dtype=np.uint8)[0] == 0
        enc2 = unpack_mxplus(fmt, packed)
        np.testing.assert_array_equal(fmt.decode(enc2), 0.0)
