"""Shared Microexponents (SMX) — two-level scaled BFP (ISCA'23).

A group of ``k1 = 16`` elements shares an 8-bit first-level exponent; pairs
of elements (``k2 = 2``) within the group share a one-bit *microexponent*
that shifts the pair's effective scale down by at most one. Elements are
sign + mantissa with no implicit leading bit, as in MSFP.

Average bits per element = (1 + mbits) + 8/16 + 1/2:

* SMX4: 2 mantissa bits  -> 4.0 bits/elem
* SMX6: 4 mantissa bits  -> 6.0 bits/elem
* SMX9: 7 mantissa bits  -> 9.0 bits/elem
"""

from __future__ import annotations

import numpy as np

from .blocks import BlockFormat, from_blocks, to_blocks
from .elem import IntCodec, floor_log2
from .scale import E8M0_MAX, E8M0_MIN

__all__ = ["SMXFormat", "SMX4", "SMX6", "SMX9"]


class SMXFormat(BlockFormat):
    def __init__(
        self,
        mantissa_bits: int,
        block_size: int = 16,
        subgroup: int = 2,
        name: str | None = None,
    ):
        if block_size % subgroup:
            raise ValueError("subgroup size must divide block size")
        self.mantissa_bits = mantissa_bits
        self.block_size = block_size
        self.subgroup = subgroup
        self.name = name or f"smx{mantissa_bits + 2}"
        # sign + mantissa_bits with no implicit bit, against the pair's
        # effective exponent: a fixed-point grid (see MSFPFormat).
        self._elem = IntCodec(f"int{mantissa_bits + 1}", mantissa_bits + 1, mantissa_bits - 1)

    def quantize_dequantize(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        blocked = to_blocks(x, self.block_size, axis)
        data = blocked.data
        pair_shape = data.shape[:-1] + (self.block_size // self.subgroup, self.subgroup)
        pairs = data.reshape(pair_shape)
        mag = np.abs(pairs)
        pair_amax = np.max(mag, axis=-1)
        amax = np.max(pair_amax, axis=-1)
        shared_exp = np.clip(floor_log2(amax), E8M0_MIN, E8M0_MAX)

        # Per-pair microexponent: shift down by one when the whole pair
        # has headroom (pair max exponent strictly below the shared one).
        micro = np.clip(shared_exp[..., None] - floor_log2(pair_amax), 0, 1)
        micro = np.where(pair_amax == 0, 1, micro)  # all-zero pair: harmless

        eff_exp = shared_exp[..., None] - micro
        out = self._elem.round_scaled(pairs, eff_exp[..., None], mag).reshape(data.shape)
        out[amax == 0] = 0.0  # all-zero blocks come back as +0.0
        return from_blocks(blocked, out)

    def bits_per_element(self) -> float:
        return (1 + self.mantissa_bits) + 8.0 / self.block_size + 1.0 / self.subgroup


def SMX4() -> SMXFormat:
    return SMXFormat(2, name="smx4")


def SMX6() -> SMXFormat:
    return SMXFormat(4, name="smx6")


def SMX9() -> SMXFormat:
    return SMXFormat(7, name="smx9")
