"""Microsoft Floating Point (MSFP) — Project Brainwave's BFP variant.

An MSFP block has ``k = 16`` elements, one 8-bit shared exponent set to the
exponent of the largest magnitude, and per-element sign + mantissa with *no*
implicit leading bit (mantissas are obtained by right-shifting, Section 2).
MSFP-N is named by total bit width: element bits = N - 8, so

* MSFP12: sign + 3 mantissa bits  (avg 4.5 bits/elem)
* MSFP14: sign + 5 mantissa bits  (avg 6.5 bits/elem)
* MSFP16: sign + 7 mantissa bits  (avg 8.5 bits/elem)
"""

from __future__ import annotations

import numpy as np

from .blocks import BlockFormat, from_blocks, to_blocks
from .elem import IntCodec
from .mx import MXFormat

__all__ = ["MSFPFormat", "MSFP12", "MSFP14", "MSFP16"]


class MSFPFormat(BlockFormat):
    def __init__(self, mantissa_bits: int, block_size: int = 16, name: str | None = None):
        self.mantissa_bits = mantissa_bits
        self.block_size = block_size
        self.name = name or f"msfp{mantissa_bits + 1 + 8}"
        # The shared exponent is the BM's own (e_max = 0), and a BM in
        # [2^e, 2^(e+1)) must fit in mantissa_bits with no implicit bit, so
        # the grid is sign + mantissa_bits of fixed point with
        # mantissa_bits - 1 fraction bits: MX rounding over an IntCodec.
        elem = IntCodec(f"int{mantissa_bits + 1}", mantissa_bits + 1, mantissa_bits - 1)
        self._mx = MXFormat(elem, block_size, self.name)

    def quantize_dequantize(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        blocked = to_blocks(x, self.block_size, axis)
        data = blocked.data
        out = self._mx._round(data)[0]
        out[~data.any(axis=-1)] = 0.0  # all-zero blocks come back as +0.0
        return from_blocks(blocked, out)

    def bits_per_element(self) -> float:
        return (1 + self.mantissa_bits) + 8.0 / self.block_size


def MSFP12() -> MSFPFormat:
    return MSFPFormat(3, name="msfp12")


def MSFP14() -> MSFPFormat:
    return MSFPFormat(5, name="msfp14")


def MSFP16() -> MSFPFormat:
    return MSFPFormat(7, name="msfp16")
