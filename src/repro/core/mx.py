"""OCP Microscaling (MX) quantization: MXFP4/MXFP6/MXFP8 and MXINT8.

Implements Eq. (1) of the paper:

    shared_exp = max(floor(log2(|x|))) - e_max,     X = 2**shared_exp

with the shared exponent clamped to the E8M0 range ``[-127, 127]`` and
elements converted with saturation, per the OCP MX specification v1.0.
Elements are rounded in the real domain by the element codec's
:meth:`~repro.core.elem.FloatCodec.round_scaled` kernel; ``encode`` and
``quantize_dequantize`` share it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import BlockFormat, from_blocks, to_blocks
from .elem import E2M1, E2M3, E3M2, E4M3, E5M2, INT8_MX, FloatCodec, IntCodec, floor_log2
from .scale import E8M0_MAX, E8M0_MIN

__all__ = [
    "MXEncoded",
    "MXFormat",
    "MXFP4",
    "MXFP4K64",
    "MXFP6",
    "MXFP6_E3M2",
    "MXFP8",
    "MXFP8_E5M2",
    "MXINT8",
]


@dataclass
class MXEncoded:
    """Structured MX encoding: per-block shared exponents + element values.

    ``elem_values`` are the *scaled* element values (already divided by the
    shared scale), exactly representable in the element data type.
    """

    shared_exp: np.ndarray  # (..., nblocks) int32
    elem_values: np.ndarray  # (..., nblocks, k) float64, scaled domain
    blocked: object  # Blocked bookkeeping for decode


class MXFormat(BlockFormat):
    """An MX-compliant format: one element codec + E8M0 shared scale."""

    def __init__(self, elem: FloatCodec | IntCodec, block_size: int = 32, name: str | None = None):
        self.elem = elem
        self.block_size = block_size
        self.name = name or f"mx-{elem.name}"

    # ------------------------------------------------------------------
    def _shared_exp(self, mag: np.ndarray) -> np.ndarray:
        """Per-block shared exponent per Eq. (1), clamped to E8M0 range."""
        # |x| >= 0, so the int64 view orders like the floats (and reduces faster).
        amax = np.max(mag.view(np.int64), axis=-1).view(np.float64)
        exp = floor_log2(amax) - self.elem.emax
        # All-zero blocks get the minimum exponent; their elements quantize
        # to zero regardless of scale.
        exp = np.where(amax == 0, E8M0_MIN, exp)
        return np.clip(exp, E8M0_MIN, E8M0_MAX).astype(np.int32)

    def _round(self, data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every block rounded onto its real-domain grid, and the shared exponents."""
        mag = np.abs(data)
        shared_exp = self._shared_exp(mag)
        return self.elem.round_scaled(data, shared_exp[..., None], mag), shared_exp

    def encode(self, x: np.ndarray, axis: int = -1) -> MXEncoded:
        blocked = to_blocks(x, self.block_size, axis)
        q, shared_exp = self._round(blocked.data)
        # Scaling a grid value by a power of two is exact.
        elem_values = q * np.ldexp(1.0, -shared_exp)[..., None]
        return MXEncoded(shared_exp=shared_exp, elem_values=elem_values, blocked=blocked)

    def decode(self, enc: MXEncoded) -> np.ndarray:
        scale = np.exp2(enc.shared_exp.astype(np.float64))[..., None]
        return from_blocks(enc.blocked, enc.elem_values * scale)

    def quantize_dequantize(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        """Fake-quantize without building an :class:`MXEncoded`: equal, bit
        for bit, to ``decode(encode(x, axis))``."""
        blocked = to_blocks(x, self.block_size, axis)
        return from_blocks(blocked, self._round(blocked.data)[0])

    def bits_per_element(self) -> float:
        return self.elem.bits + 8.0 / self.block_size


def MXFP4() -> MXFormat:
    """MXFP4: E2M1 elements, block 32, E8M0 scale (avg 4.25 bits/elem)."""
    return MXFormat(E2M1, name="mxfp4")


def MXFP4K64() -> MXFormat:
    """MXFP4 over 64-element blocks: halves the shared-scale sideband to
    4.125 avg bits/elem at a quality cost — the cheapest point on the
    tuner's format ladder (and a lean KV-cache storage format)."""
    return MXFormat(E2M1, block_size=64, name="mxfp4-k64")


def MXFP6() -> MXFormat:
    """MXFP6 (E2M3) — the higher-mantissa 6-bit variant the paper uses."""
    return MXFormat(E2M3, name="mxfp6")


def MXFP6_E3M2() -> MXFormat:
    return MXFormat(E3M2, name="mxfp6-e3m2")


def MXFP8() -> MXFormat:
    """MXFP8 (E4M3) — the higher-mantissa 8-bit variant the paper uses."""
    return MXFormat(E4M3, name="mxfp8")


def MXFP8_E5M2() -> MXFormat:
    return MXFormat(E5M2, name="mxfp8-e5m2")


def MXINT8() -> MXFormat:
    return MXFormat(INT8_MX, name="mxint8")
