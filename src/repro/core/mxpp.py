"""MX++ — decoupling the NBM shared scale via the reserved bits (Section 4.3).

MX++ keeps the BM exactly as in MX+ but lets the NBM elements use a smaller
shared scale so they land on a finer quantization grid. The NBM shared
exponent is

    e = max2(floor(log2(|x|))) - e_max + 1

where ``max2`` is the second-largest exponent in the block (the ``+1``
offset prevents the largest NBM from saturating after scaling — the paper's
0.99 -> 7.92 example). The final exponent is

    shared_exp_new = CLIP(e, {shared_exp - 7, shared_exp})

so the delta from the BM's shared exponent fits the 3 reserved bits.
"""

from __future__ import annotations

import numpy as np

from .elem import E2M1, FloatCodec, floor_log2
from .mxplus import MXPlusEncoded, MXPlusFormat
from .scale import ZERO_BLOCK_SENTINEL

__all__ = ["MXPPFormat", "MXFP4PlusPlus", "MXFP6PlusPlus", "MXFP8PlusPlus"]


class MXPPFormat(MXPlusFormat):
    """MX++ format (MX+ plus decoupled NBM scale).

    Single pass: the BM comes from one ``argmax``, the largest NBM from one
    more reduction with the BM slot masked, and the NBMs are rounded once,
    by the element kernel, against the final NBM scale. Fake-quant is the
    inherited :meth:`MXPlusFormat.quantize_dequantize`.
    """

    def __init__(self, elem: FloatCodec, block_size: int = 32, name: str | None = None):
        super().__init__(elem, block_size, name or f"mx-{elem.name}++")

    def encode(self, x: np.ndarray, axis: int = -1) -> MXPlusEncoded:
        """MX+ fields, with ``nbm_shared_exp`` the NBM scale's exponent,
        ``reserved`` its delta below ``shared_exp`` and the NBM
        ``elem_values`` scaled by it (flushed blocks: sentinel, 0, 0).

        The same code path as :meth:`MXPlusFormat.encode`; defined here so
        MX++ encodes are their own binding (per-class profiling wraps it).
        """
        return super().encode(x, axis)

    def _nbm_shared_exp(self, mag: np.ndarray, bm: np.ndarray, shared: np.ndarray) -> np.ndarray:
        # Mask the BM slot in place: it is rewritten after the NBMs round.
        mag.reshape(-1)[bm] = 0.0
        nbm_amax = np.max(mag.view(np.int64), axis=-1).view(np.float64)
        e = floor_log2(nbm_amax) - self.elem.emax + 1
        new_exp = np.clip(e, shared - 7, shared)
        # Blocks whose NBMs are all zero keep the BM scale (delta 0).
        return np.where(nbm_amax == 0, shared, new_exp).astype(np.int32)

    def encode_reference(self, x: np.ndarray, axis: int = -1) -> MXPlusEncoded:
        """Per-block Python-loop MX++ encoder: the Section 4.3 rule, block by
        block, on top of :meth:`MXPlusFormat.encode_reference`'s BM fields.

        The oracle the batched :meth:`encode` is tested against for every
        field: ``nbm_shared_exp``, ``reserved`` and the NBM ``elem_values``.
        """
        enc = super().encode_reference(x, axis)
        k = self.block_size
        flat = enc.blocked.data.reshape(-1, k)
        shared_exp = enc.shared_exp.reshape(-1)
        bm_index = enc.bm_index.reshape(-1)
        elem_values = enc.elem_values.reshape(-1, k)
        nbm_shared_exp = np.full_like(shared_exp, ZERO_BLOCK_SENTINEL)
        reserved = np.zeros_like(shared_exp)
        for i in range(flat.shape[0]):
            se = int(shared_exp[i])
            if se == ZERO_BLOCK_SENTINEL:
                continue
            j = int(bm_index[i])
            nbm_amax = float(np.max(np.delete(np.abs(flat[i]), j)))
            new = se
            if nbm_amax > 0:
                e2 = int(floor_log2(nbm_amax))
                new = min(max(e2 - self.elem.emax + 1, se - 7), se)
            nbm_shared_exp[i] = new
            reserved[i] = se - new
            vals = self.elem.quantize(flat[i] / 2.0**new)
            vals[j] = elem_values[i, j]
            elem_values[i] = vals
        lead = enc.shared_exp.shape
        enc.elem_values = elem_values.reshape(enc.blocked.data.shape)
        enc.nbm_shared_exp = nbm_shared_exp.reshape(lead)
        enc.reserved = reserved.reshape(lead)
        return enc


def MXFP4PlusPlus() -> MXPPFormat:
    return MXPPFormat(E2M1, name="mxfp4++")


def MXFP6PlusPlus() -> MXPPFormat:
    from .elem import E2M3

    return MXPPFormat(E2M3, name="mxfp6++")


def MXFP8PlusPlus() -> MXPPFormat:
    from .elem import E4M3

    return MXPPFormat(E4M3, name="mxfp8++")
