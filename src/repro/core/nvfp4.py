"""NVFP4 and NVFP4+ (Section 8.2, Table 11).

NVFP4 uses E2M1 elements like MXFP4 but with a block size of 16 and an
*E4M3* (non-power-of-two) scale chosen so the block max maps as closely as
possible to the FP4 maximum magnitude (6.0): ``scale = amax / 6`` rounded
to E4M3.

NVFP4+ applies the MX+ idea: when the scaled BM's exponent field is at
``e_max`` (the common case), the BM is stored as ``2**e_max * 1.mmm`` with
3 mantissa bits. When the BM lands below ``2**e_max`` after scaling (tiny
blocks where the E4M3 scale saturated low, the paper's
``X_E4M3 <= 0b00000010`` case), the block falls back to plain NVFP4. An
extra 4 bits per 16-element block store the BM index.
"""

from __future__ import annotations

import numpy as np

from .blocks import BlockFormat, from_blocks, to_blocks
from .elem import E2M1, E4M3
from .mxplus import quantize_bm

__all__ = ["NVFP4Format", "NVFP4PlusFormat", "NVFP4", "NVFP4Plus"]


class NVFP4Format(BlockFormat):
    def __init__(self, block_size: int = 16, name: str = "nvfp4"):
        self.elem = E2M1
        self.block_size = block_size
        self.name = name

    def _scales(self, data: np.ndarray) -> np.ndarray:
        amax = np.max(np.abs(data), axis=-1)
        raw = amax / self.elem.max_normal
        scale = E4M3.quantize(raw)
        # A zero scale with nonzero data would wipe the block; use the
        # smallest positive E4M3 value instead.
        scale = np.where((scale == 0) & (amax > 0), E4M3.min_subnormal, scale)
        return scale

    def quantize_dequantize(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        blocked = to_blocks(x, self.block_size, axis)
        data = blocked.data
        scale = self._scales(data)[..., None]
        safe = np.where(scale == 0, 1.0, scale)
        out = self.elem.quantize(data / safe) * scale
        return from_blocks(blocked, out)

    def bits_per_element(self) -> float:
        return self.elem.bits + 8.0 / self.block_size


class NVFP4PlusFormat(NVFP4Format):
    def __init__(self, block_size: int = 16, name: str = "nvfp4+"):
        super().__init__(block_size, name)

    def quantize_dequantize(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        blocked = to_blocks(x, self.block_size, axis)
        data = blocked.data
        absd = np.abs(data)
        scale = self._scales(data)[..., None]
        safe = np.where(scale == 0, 1.0, scale)
        out = self.elem.quantize(data / safe) * scale

        bm_index = np.argmax(absd, axis=-1)[..., None]
        scaled_bm = np.take_along_axis(data, bm_index, axis=-1) / safe

        # Extended representation (Eq. 2 on the E4M3-scaled BM) only when
        # the scaled BM reaches e_max.
        eligible = np.abs(scaled_bm) >= 2.0**self.elem.emax
        bm_plus = quantize_bm(scaled_bm, self.elem.emax, self.elem.mbits + self.elem.ebits) * safe
        bm_plain = np.take_along_axis(out, bm_index, axis=-1)
        np.put_along_axis(out, bm_index, np.where(eligible, bm_plus, bm_plain), axis=-1)
        return from_blocks(blocked, out)

    def bits_per_element(self) -> float:
        # 4-bit BM index per 16-element block on top of NVFP4.
        return super().bits_per_element() + 4.0 / self.block_size


def NVFP4() -> NVFP4Format:
    return NVFP4Format()


def NVFP4Plus() -> NVFP4PlusFormat:
    return NVFP4PlusFormat()
