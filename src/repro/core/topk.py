"""Top-k outlier promotion inside MX blocks (Figure 14 analysis).

The paper studies representing the ``top-k`` magnitude elements of each MX
block in MXFP6 (E2M3) while the rest stay in MXFP4 (E2M1), all under the
same shared scale. ``k = 1`` with the extended-mantissa trick is exactly
MX+; larger ``k`` shows diminishing returns, motivating channel reordering
instead of multi-outlier tracking.
"""

from __future__ import annotations

import numpy as np

from .blocks import BlockFormat, from_blocks, to_blocks
from .elem import E2M1, E2M3, FloatCodec
from .mx import MXFormat

__all__ = ["TopKPromoteFormat", "promoted_fraction"]


class TopKPromoteFormat(BlockFormat):
    """MX with the top-k magnitude elements promoted to a wider codec."""

    def __init__(
        self,
        k: int,
        base: FloatCodec = E2M1,
        promoted: FloatCodec = E2M3,
        block_size: int = 32,
        name: str | None = None,
    ):
        if base.emax != promoted.emax:
            raise ValueError("base and promoted codecs must share e_max so the "
                             "shared scale stays valid")
        self.k = k
        self.base = base
        self.promoted = promoted
        self.block_size = block_size
        self.name = name or f"mx-{base.name}-top{k}-{promoted.name}"
        # Eq. (1) and the base grid are plain MX over ``base``.
        self._mx = MXFormat(base, block_size, self.name)

    def quantize_dequantize(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        blocked = to_blocks(x, self.block_size, axis)
        data = blocked.data
        base_q, shared_exp = self._mx._round(data)
        promo_q = self.promoted.round_scaled(data, shared_exp[..., None])

        # Indices of the k largest magnitudes per block.
        order = np.argsort(-np.abs(data), axis=-1, kind="stable")
        topk = order[..., : self.k]
        promote = np.zeros(data.shape, dtype=bool)
        np.put_along_axis(promote, topk, True, axis=-1)

        return from_blocks(blocked, np.where(promote, promo_q, base_q))

    def bits_per_element(self) -> float:
        # k promoted elements cost (promoted - base) extra bits, plus one
        # index byte per tracked outlier (5 used + 3 reserved, as in MX+).
        extra = self.k * (self.promoted.bits - self.base.bits + 8) / self.block_size
        return self.base.bits + 8.0 / self.block_size + extra


def promoted_fraction(x: np.ndarray, k: int, block_size: int = 32, axis: int = -1) -> float:
    """Fraction of 3-sigma outliers that land in the promoted top-k set.

    This is the bar series of Figure 14 ("% of outliers in MXFP6").
    """
    from .metrics import outlier_mask_3sigma

    mask = outlier_mask_3sigma(x)
    if not np.any(mask):
        return 1.0
    blocked_mask = to_blocks(mask.astype(np.float64), block_size, axis).data > 0.5
    blocked_x = to_blocks(x, block_size, axis).data
    order = np.argsort(-np.abs(blocked_x), axis=-1, kind="stable")
    topk = order[..., :k]
    in_topk = np.zeros(blocked_x.shape, dtype=bool)
    np.put_along_axis(in_topk, topk, True, axis=-1)
    return float(np.sum(blocked_mask & in_topk) / np.sum(blocked_mask))
