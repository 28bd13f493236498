"""MX+ — the paper's contribution (Section 4).

The block-max (BM) element of an MX block always carries a private exponent
equal to ``e_max`` of the element data type (that is how the shared scale is
chosen, Eq. 1), so its exponent field carries no information. MX+
*repurposes* it as extra mantissa bits:

* NBM (non-block-max) elements: standard MX element encoding.
* BM element: ``(-1)^s * 2**e_max * 1.m`` with ``mbits + ebits`` stored
  mantissa bits (E0M3/E0M5/E0M7 for FP4/FP6/FP8), Eq. (2).
* Per block, one extra byte stores the 5-bit BM index; 3 bits are reserved
  (MX++ uses them for the NBM scale delta). Average width grows by
  ``8 / 32 = 0.25`` bits per element.
* Flush-to-zero: if ``floor(log2(BM)) <= -127 + e_max`` the whole block is
  flushed to zero and the biased shared exponent 0 is reserved to flag it
  (Section 4.1).

The ``decompose_bm`` helper implements Eq. (3): splitting the BM into two
element-type-representable halves ``BM_H + BM_L`` for the software
integration path on MX-native Tensor Cores (Section 5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import BlockFormat, from_blocks, to_blocks
from .elem import E2M1, E2M3, E4M3, FloatCodec, floor_log2, round_half_even
from .scale import E8M0_MAX, E8M0_MIN, ZERO_BLOCK_SENTINEL

__all__ = [
    "MXPlusEncoded",
    "MXPlusFormat",
    "MXFP4Plus",
    "MXFP6Plus",
    "MXFP8Plus",
    "MXFP4PlusK64",
    "decompose_bm",
    "quantize_bm",
]


def quantize_bm(scaled_bm: np.ndarray, emax: int, mbits: int) -> np.ndarray:
    """Eq. (2): quantize a scaled BM to ``(-1)^s * 2**emax * 1.m`` form.

    The fraction has ``mbits`` bits. Fractions that would round up to 2.0
    saturate at the top code (the paper keeps the shared scale untouched,
    so bumping the exponent is not an option). The one BM rule of MX+,
    MXINT+ (``emax = 0``) and NVFP4+.
    """
    sign = np.where(scaled_bm < 0, -1.0, 1.0)
    anchor = 2.0**emax
    f = np.abs(scaled_bm) / anchor  # in [1, 2) unless the scale clamped
    steps = float(1 << mbits)
    code = np.clip(round_half_even((f - 1.0) * steps), 0, steps - 1)
    return sign * anchor * (1.0 + code / steps)


def bm_positions(bm_index: np.ndarray, k: int) -> np.ndarray:
    """Flat positions of the BM slots in C-contiguous ``(..., k)`` blocks."""
    return bm_index + np.arange(0, bm_index.size * k, k).reshape(bm_index.shape)


@dataclass
class MXPlusEncoded:
    """Structured MX+ encoding.

    ``elem_values`` holds scaled NBM values; the BM slot inside it holds the
    *extended-precision* scaled BM value (``2**e_max * 1.m``). ``bm_index``
    is the per-block position of the BM element; ``reserved`` carries the 3
    reserved bits (zero for MX+, the scale delta for MX++). Flushed blocks
    have ``shared_exp == ZERO_BLOCK_SENTINEL`` and all-zero elements.
    """

    shared_exp: np.ndarray  # (..., nblocks) int32 (sentinel => zero block)
    elem_values: np.ndarray  # (..., nblocks, k) scaled values
    bm_index: np.ndarray  # (..., nblocks) int32
    reserved: np.ndarray  # (..., nblocks) int32 in [0, 7]
    nbm_shared_exp: np.ndarray  # (..., nblocks) int32; == shared_exp for MX+
    blocked: object


class MXPlusFormat(BlockFormat):
    """MX+ extension of an MXFP format (Section 4.1-4.2)."""

    def __init__(self, elem: FloatCodec, block_size: int = 32, name: str | None = None):
        if not isinstance(elem, FloatCodec):
            raise TypeError("MX+ requires a floating-point element type; "
                            "see mxint_plus for the MXINT variant")
        self.elem = elem
        self.block_size = block_size
        self.name = name or f"mx-{elem.name}+"
        # element bits + shared scale byte + BM-index byte per block;
        # precomputed once — the tuner's cost model calls this per candidate.
        self._bits_per_element = elem.bits + 16.0 / block_size

    # number of stored mantissa bits for the BM element (exponent field
    # repurposed): e.g. 3 for MXFP4+ (E0M3), 5 for MXFP6+, 7 for MXFP8+.
    @property
    def bm_mbits(self) -> int:
        return self.elem.mbits + self.elem.ebits

    # ------------------------------------------------------------------
    def encode(self, x: np.ndarray, axis: int = -1) -> MXPlusEncoded:
        """Batched MX+ encode: the real-domain rounding of
        :meth:`quantize_dequantize`, scaled into the element domain.

        NBM values are the kernel's output times ``2**-nbm_shared_exp``
        and the BM slot holds the extended-precision scaled BM; both
        scalings are exact, so ``decode(encode(x))`` equals
        ``quantize_dequantize(x)`` bit for bit. :meth:`encode_reference` is
        the per-block specification this is vectorized from;
        ``tests/test_properties_core.py`` asserts both produce identical
        fields and ``benchmarks/test_encode_speed.py`` asserts the speedup.
        """
        blocked = to_blocks(x, self.block_size, axis)
        q, flush, shared, nbm, bm_index, bm_scaled = self._round(blocked.data)
        elem_values = q * np.ldexp(1.0, -nbm)[..., None]
        np.put_along_axis(elem_values, bm_index[..., None], bm_scaled[..., None], axis=-1)
        shared_exp = np.where(flush, ZERO_BLOCK_SENTINEL, shared).astype(np.int32)
        return MXPlusEncoded(
            shared_exp=shared_exp,
            elem_values=elem_values,
            bm_index=bm_index.astype(np.int32),
            reserved=np.where(flush, 0, shared - nbm).astype(np.int32),
            # MX+ shares one scale: ``decode`` keys its fast path on identity.
            nbm_shared_exp=(
                shared_exp if nbm is shared
                else np.where(flush, ZERO_BLOCK_SENTINEL, nbm).astype(np.int32)
            ),
            blocked=blocked,
        )

    def _round(self, data: np.ndarray):
        """Round every block onto its real-domain grid in one pass.

        Returns ``(q, flush, shared, nbm, bm_index, bm_scaled)``: the
        rounded blocks, the flushed-block mask, the BM and NBM shared
        exponents (0 where flushed), the BM positions and the scaled
        extended-precision BM values (0 where flushed). The NBMs go
        through the element kernel once, against the NBM scale; only the
        BM slot is then overwritten, by the :meth:`_quantize_bm` rule.
        """
        emax = self.elem.emax
        mag = np.abs(data)
        bm_index = np.argmax(mag, axis=-1)  # first max wins
        bm = bm_positions(bm_index, self.block_size)
        e_bm = floor_log2(mag.reshape(-1)[bm])

        flush = e_bm <= (-127 + emax)  # includes all-zero blocks
        shared = np.where(flush, 0, np.clip(e_bm - emax, E8M0_MIN, E8M0_MAX)).astype(np.int32)
        nbm = self._nbm_shared_exp(mag, bm, shared)
        q = self.elem.round_scaled(data, nbm[..., None], mag)

        # BM element: extended mantissa anchored at 2**e_max (Eq. 2).
        # (A flushed block's BM, possibly subnormal, never reaches the rule.)
        bm_signed = data.reshape(-1)[bm]
        bm_scaled = self._quantize_bm(np.where(flush, 2.0**emax, bm_signed * np.ldexp(1.0, -shared)))
        bm_scaled[flush] = 0.0
        q.reshape(-1)[bm] = bm_scaled * np.ldexp(1.0, shared)
        if flush.any():
            q[flush] = 0.0
        return q, flush, shared, nbm, bm_index, bm_scaled

    def _nbm_shared_exp(self, mag: np.ndarray, bm: np.ndarray, shared: np.ndarray) -> np.ndarray:
        """NBM shared exponent per block (``bm``: flat BM positions in
        ``mag``, a scratch ``|blocks|``): MX+ uses the BM's scale for all."""
        return shared

    def encode_reference(self, x: np.ndarray, axis: int = -1) -> MXPlusEncoded:
        """Per-block Python-loop encoder: the readable MX+ specification.

        One block at a time, exactly the rules of Section 4.1: pick the BM,
        derive the shared scale, flush, quantize NBMs, requantize the BM on
        the extended grid. Kept as the oracle the batched :meth:`encode` is
        tested against, and as the baseline its speedup is measured from.
        """
        blocked = to_blocks(x, self.block_size, axis)
        data = blocked.data
        flat = data.reshape(-1, self.block_size)
        n_blocks = flat.shape[0]
        shared_exp = np.empty(n_blocks, dtype=np.int32)
        bm_index = np.empty(n_blocks, dtype=np.int32)
        elem_values = np.zeros_like(flat)
        for i in range(n_blocks):
            block = flat[i]
            absb = np.abs(block)
            j = int(np.argmax(absb))  # first max wins, as in the batched path
            bm_index[i] = j
            e_bm = int(floor_log2(absb[j]))
            if e_bm <= (-127 + self.elem.emax):  # flush-to-zero block
                shared_exp[i] = ZERO_BLOCK_SENTINEL
                continue
            se = int(np.clip(e_bm - self.elem.emax, E8M0_MIN, E8M0_MAX))
            shared_exp[i] = se
            scaled = block / 2.0**se
            vals = self.elem.quantize(scaled)
            vals[j] = self._quantize_bm(np.asarray(scaled[j]))
            elem_values[i] = vals
        lead = data.shape[:-1]
        shared_exp = shared_exp.reshape(lead)
        return MXPlusEncoded(
            shared_exp=shared_exp,
            elem_values=elem_values.reshape(data.shape),
            bm_index=bm_index.reshape(lead),
            reserved=np.zeros(lead, dtype=np.int32),
            nbm_shared_exp=shared_exp,
            blocked=blocked,
        )

    def _quantize_bm(self, scaled_bm: np.ndarray) -> np.ndarray:
        """:func:`quantize_bm` with this format's ``e_max`` and ``bm_mbits``."""
        return quantize_bm(scaled_bm, self.elem.emax, self.bm_mbits)

    def decode(self, enc: MXPlusEncoded) -> np.ndarray:
        flush = enc.shared_exp == ZERO_BLOCK_SENTINEL
        safe_exp = np.where(flush, 0, enc.shared_exp).astype(np.float64)

        if enc.nbm_shared_exp is enc.shared_exp:
            # MX+: one scale for the whole block — skip the per-element
            # BM/NBM scale select (MX++ decouples them via the delta bits).
            out = enc.elem_values * np.exp2(safe_exp)[..., None]
        else:
            nbm_exp = np.where(flush, 0, enc.nbm_shared_exp).astype(np.float64)
            k = enc.elem_values.shape[-1]
            is_bm = (
                np.arange(k, dtype=np.int32) == enc.bm_index[..., None]
            )
            scale = np.where(is_bm, np.exp2(safe_exp)[..., None], np.exp2(nbm_exp)[..., None])
            out = enc.elem_values * scale
        out[flush] = 0.0
        return from_blocks(enc.blocked, out)

    def quantize_dequantize(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        """Fake-quantize without building an :class:`MXPlusEncoded`
        (MX++ included): equal, bit for bit, to ``decode(encode(x, axis))``."""
        blocked = to_blocks(x, self.block_size, axis)
        return from_blocks(blocked, self._round(blocked.data)[0])

    def bits_per_element(self) -> float:
        return self._bits_per_element


def decompose_bm(
    bm_value: np.ndarray, shared_exp: np.ndarray, elem: FloatCodec
) -> tuple[np.ndarray, np.ndarray]:
    """Split dequantized BM values into ``BM_H + BM_L`` per Eq. (3).

    Both halves are exactly representable in the element data type after
    dividing by the shared scale, so an MX-native Tensor Core can process
    them with two MMA operations (the second one sparse). Returns
    ``(bm_h, bm_l)`` in the *unscaled* (real-value) domain.

    Only valid for element types whose full mantissa range is encodable
    (E2M1, E2M3): E4M3 reserves its all-ones pattern for NaN, so the high
    half with mantissa 111 would be unrepresentable. The paper's software
    integration targets the FP4/FP6 paths; MXFP8+ relies on the hardware
    path (Section 6) instead.
    """
    if elem.nan_encoding:
        raise ValueError(
            f"Eq. (3) BM decomposition is undefined for {elem.name}: the "
            "NaN-reserved top code makes the high half unrepresentable"
        )
    shared_exp = np.asarray(shared_exp, dtype=np.float64)
    scale = np.exp2(shared_exp)
    scaled = np.asarray(bm_value, dtype=np.float64) / scale
    sign = np.where(scaled < 0, -1.0, 1.0)
    anchor = 2.0**elem.emax
    mext = elem.mbits + elem.ebits
    # um = 1.b1..b_mext with the leading one explicit (x87-style)
    um = np.abs(scaled) / anchor * (1 << mext)  # integer in [2^mext, 2^(mext+1))
    um = round_half_even(um)
    hi_codes = np.floor(um / (1 << elem.ebits))  # top 1+mbits bits
    lo_codes = um - hi_codes * (1 << elem.ebits)  # bottom ebits bits
    bm_h = sign * anchor * hi_codes / (1 << elem.mbits) * scale
    bm_l = sign * 2.0 ** (elem.emax - elem.mbits - 1) * lo_codes / (1 << (elem.ebits - 1)) * scale
    return bm_h, bm_l


def MXFP4Plus() -> MXPlusFormat:
    """MXFP4+: E2M1 NBMs, E0M3 BM (effective E2M3), avg 4.5 bits/elem."""
    return MXPlusFormat(E2M1, name="mxfp4+")


def MXFP6Plus() -> MXPlusFormat:
    """MXFP6+: E2M3 NBMs, E0M5 BM (effective E2M5)."""
    return MXPlusFormat(E2M3, name="mxfp6+")


def MXFP8Plus() -> MXPlusFormat:
    """MXFP8+: E4M3 NBMs, E0M7 BM (effective E4M7)."""
    return MXPlusFormat(E4M3, name="mxfp8+")


def MXFP4PlusK64() -> MXPlusFormat:
    """MXFP4+ over 64-element blocks: the sideband (scale + BM index)
    amortizes to 4.25 avg bits — plain MXFP4's width — trading scale
    granularity for BM precision. A design point for the recipe tuner."""
    return MXPlusFormat(E2M1, block_size=64, name="mxfp4+-k64")
