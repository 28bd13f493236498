"""MXINT formats and their MX+-style extensions (Section 8.2, Table 10).

MXINT8 encodes elements as sign + 1 integer bit + 6 fraction bits with an
implicit factor of ``2**-6``; ``e_max = 0`` in Eq. (1), so the shared
exponent is simply the exponent of the BM and the scaled BM is always
``±1.xxxxxx``. The MX+ trick therefore makes the BM's integer bit implicit
and reuses it as one extra fraction bit. The paper also evaluates a
*hypothetical* MXINT4 (1 sign + 1 integer + 2 fraction bits) and MXINT4+.
"""

from __future__ import annotations

import numpy as np

from .blocks import BlockFormat, from_blocks, to_blocks
from .elem import IntCodec
from .mx import MXFormat
from .mxplus import quantize_bm

__all__ = ["MXIntFormat", "MXIntPlusFormat", "MXINT4", "MXINT4Plus", "MXINT8PlusFormat"]


class MXIntFormat(BlockFormat):
    """Generic MXINT-N: sign + 1 integer bit + ``frac_bits`` fraction bits.

    Eq. (1) with ``e_max = 0`` over an :class:`~repro.core.elem.IntCodec`:
    the rounding is :class:`~repro.core.mx.MXFormat`'s.
    """

    def __init__(self, bits: int, block_size: int = 32, name: str | None = None):
        self.bits = bits
        self.frac_bits = bits - 2  # sign + integer bit take two
        self.block_size = block_size
        self.name = name or f"mxint{bits}"
        self._mx = MXFormat(IntCodec(f"int{bits}", bits, self.frac_bits), block_size, self.name)

    def quantize_dequantize(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        blocked = to_blocks(x, self.block_size, axis)
        return from_blocks(blocked, self._mx._round(blocked.data)[0])

    def bits_per_element(self) -> float:
        return self.bits + 8.0 / self.block_size


class MXIntPlusFormat(MXIntFormat):
    """MXINT-N+: the BM's integer bit becomes an extra fraction bit."""

    def __init__(self, bits: int, block_size: int = 32, name: str | None = None):
        super().__init__(bits, block_size, name or f"mxint{bits}+")

    def quantize_dequantize(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        blocked = to_blocks(x, self.block_size, axis)
        data = blocked.data
        bm_index = np.argmax(np.abs(data), axis=-1)[..., None]
        out, shared_exp = self._mx._round(data)

        # BM: scaled magnitude is in [1, 2) -> implicit leading integer bit,
        # frac_bits + 1 stored fraction bits (Eq. 2 with e_max = 0).
        scale = np.exp2(shared_exp.astype(np.float64))[..., None]
        bm_signed = np.take_along_axis(data, bm_index, axis=-1)
        bm_val = quantize_bm(bm_signed / scale, 0, self.frac_bits + 1) * scale
        bm_val[bm_signed == 0] = 0.0  # all-zero block
        np.put_along_axis(out, bm_index, bm_val, axis=-1)
        return from_blocks(blocked, out)

    def bits_per_element(self) -> float:
        return self.bits + 16.0 / self.block_size


def MXINT4() -> MXIntFormat:
    return MXIntFormat(4, name="mxint4")


def MXINT4Plus() -> MXIntPlusFormat:
    return MXIntPlusFormat(4, name="mxint4+")


def MXINT8PlusFormat() -> MXIntPlusFormat:
    return MXIntPlusFormat(8, name="mxint8+")
