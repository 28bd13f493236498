"""Bfloat16 rounding emulation.

The paper's baseline performs matrix multiplications and element-wise ops in
BF16 (softmax in FP32). Numpy has no native bfloat16, so we emulate the
rounding: view float32 bits, round-to-nearest-even on the low 16 mantissa
bits, truncate.
"""

from __future__ import annotations

import numpy as np

__all__ = ["bf16_round", "BF16_EPS"]

# Relative spacing of bfloat16 (8-bit mantissa incl. implicit bit).
BF16_EPS = 2.0**-8


def bf16_round(x: np.ndarray) -> np.ndarray:
    """Round an array to the nearest bfloat16 value (returned as float64).

    Round-to-nearest-even on the truncated 16 bits, matching hardware
    BF16 conversion. NaN/Inf pass through unchanged.
    """
    x32 = np.asarray(x, dtype=np.float32)
    bits = x32.view(np.uint32)
    # round to nearest even: add 0x7FFF + lsb of the kept part (one
    # scratch array, updated in place)
    rounded = bits >> 16
    rounded &= 1
    rounded += 0x7FFF
    rounded += bits
    rounded &= 0xFFFF0000  # Inf survives; finite overflow rounds to Inf
    out = rounded.view(np.float32)
    # A NaN's payload can carry into the exponent or sign: restore NaNs.
    nan = np.isnan(x32)
    if nan.any():
        out[nan] = x32[nan]
    return out.astype(np.float64)
