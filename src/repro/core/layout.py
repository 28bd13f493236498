"""Bit-level packing of MX and MX+ blocks (Figures 6-7).

MX stores ``k`` element codes plus one E8M0 scale byte per block. MX+ adds
one sideband byte per block: the BM index in its top bits (5 for blocks of
up to 32, as in the paper; 6 for 64) and reserved bits below it (MX++
stores the NBM scale delta there). All elements keep the same bit width,
so MX+ never causes unaligned element access — the sideband lives in its
own (possibly non-contiguous) stream, exactly as the paper describes.

Element codes come from the element codec's tables, not from float
arithmetic: :meth:`~repro.core.elem.FloatCodec.encode_bits` is one gather
keyed by the top bits of each value's float64 pattern, and
:meth:`~repro.core.elem.FloatCodec.decode_bits` one gather from a
``2**bits`` value table (MXINT encodes by an exact power-of-two scale
instead). An MX+ block's BM slot, addressed by its flat position, is the
only per-block work.

These functions are the storage ground truth for the overhead numbers
quoted in the paper (MXFP4: 4.25 -> MXFP4+: 4.5 average bits/element) and
give byte-exact round-trips for testing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elem import round_half_even
from .mx import MXEncoded, MXFormat
from .mxplus import MXPlusEncoded, MXPlusFormat, bm_positions
from .scale import ZERO_BLOCK_SENTINEL, decode_e8m0, encode_e8m0

__all__ = [
    "pack_bits",
    "unpack_bits",
    "PackedMX",
    "pack_mx",
    "unpack_mx",
    "PackedMXPlus",
    "pack_mxplus",
    "unpack_mxplus",
]


def pack_bits(codes: np.ndarray, bits: int) -> bytes:
    """Pack an array of ``bits``-wide codes into a dense byte string (MSB first)."""
    codes = np.asarray(codes, dtype=np.uint32).ravel()
    expanded = np.zeros((codes.size, bits), dtype=np.uint8)
    for b in range(bits):
        expanded[:, b] = (codes >> (bits - 1 - b)) & 1
    return np.packbits(expanded.ravel()).tobytes()


def unpack_bits(buf: bytes, bits: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`; returns ``count`` codes as uint32."""
    raw = np.unpackbits(np.frombuffer(buf, dtype=np.uint8), count=count * bits)
    raw = raw.reshape(count, bits)
    out = raw[:, 0].astype(np.uint32)
    for b in range(1, bits):
        out <<= 1
        out |= raw[:, b]
    return out


@dataclass
class PackedMX:
    elements: bytes
    scales: bytes
    nblocks: int
    block_shape: tuple  # shape of the (..., nblocks) scale array
    blocked: object

    def total_bytes(self) -> int:
        return len(self.elements) + len(self.scales)


def pack_mx(fmt: MXFormat, enc: MXEncoded) -> PackedMX:
    """Pack an MX encoding to bytes: element codes + E8M0 scale bytes."""
    codes = fmt.elem.encode_bits(enc.elem_values)
    return PackedMX(
        elements=pack_bits(codes, fmt.elem.bits),
        scales=encode_e8m0(enc.shared_exp).tobytes(),
        nblocks=int(np.prod(enc.shared_exp.shape)),
        block_shape=enc.shared_exp.shape,
        blocked=enc.blocked,
    )


def unpack_mx(fmt: MXFormat, packed: PackedMX) -> MXEncoded:
    k = fmt.block_size
    codes = unpack_bits(packed.elements, fmt.elem.bits, packed.nblocks * k)
    values = fmt.elem.decode_bits(codes).reshape(packed.block_shape + (k,))
    scales = decode_e8m0(np.frombuffer(packed.scales, dtype=np.uint8))
    return MXEncoded(
        shared_exp=scales.reshape(packed.block_shape).astype(np.int32),
        elem_values=values,
        blocked=packed.blocked,
    )


@dataclass
class PackedMXPlus:
    elements: bytes
    scales: bytes
    sideband: bytes  # one byte per block: BM index above the reserved bits
    nblocks: int
    block_shape: tuple
    blocked: object

    def total_bytes(self) -> int:
        return len(self.elements) + len(self.scales) + len(self.sideband)


def _bm_code(fmt: MXPlusFormat, bm_scaled: np.ndarray) -> np.ndarray:
    """Bit code of a BM element: sign bit + ``bm_mbits`` fraction bits."""
    sign = (bm_scaled < 0).astype(np.uint32)
    anchor = 2.0**fmt.elem.emax
    steps = 1 << fmt.bm_mbits
    frac = round_half_even((np.abs(bm_scaled) / anchor - 1.0) * steps)
    frac = np.clip(frac, 0, steps - 1).astype(np.uint32)
    return (sign << fmt.bm_mbits) | frac


def _bm_decode(fmt: MXPlusFormat, codes: np.ndarray) -> np.ndarray:
    sign = np.where((codes >> fmt.bm_mbits) & 1 == 1, -1.0, 1.0)
    steps = 1 << fmt.bm_mbits
    frac = (codes & (steps - 1)).astype(np.float64)
    return sign * 2.0**fmt.elem.emax * (1.0 + frac / steps)


def _reserved_bits(k: int) -> int:
    """Sideband bits below the BM index: 3 for blocks of up to 32 (the
    paper's 5-bit index), 2 for 64."""
    return 8 - max(5, (k - 1).bit_length())


def pack_mxplus(fmt: MXPlusFormat, enc: MXPlusEncoded) -> PackedMXPlus:
    """Pack an MX+/MX++ encoding: elements, scales, and the sideband byte."""
    k = fmt.block_size
    low = _reserved_bits(k)
    if low < 0 or np.any(enc.reserved >= (1 << low)):
        raise ValueError(
            f"the sideband byte has no room for {fmt.name}'s BM index and reserved bits"
        )
    bm = bm_positions(enc.bm_index, k)
    # NBM codes use the standard element encoding; the BM slot is overwritten
    # with the extended-mantissa code at the same bit width (Fig. 6).
    # A flushed block's elements are all zero, so its BM code is 0 too.
    values = enc.elem_values.copy()
    flat = values.reshape(-1)
    bm_codes = _bm_code(fmt, flat[bm])
    flat[bm] = 0.0
    codes = fmt.elem.encode_bits(values)
    codes.reshape(-1)[bm] = bm_codes

    sideband = (enc.bm_index.astype(np.uint8) << low) | enc.reserved.astype(np.uint8)
    return PackedMXPlus(
        elements=pack_bits(codes, fmt.elem.bits),
        scales=encode_e8m0(enc.shared_exp, mx_plus=True).tobytes(),
        sideband=sideband.tobytes(),
        nblocks=int(np.prod(enc.shared_exp.shape)),
        block_shape=enc.shared_exp.shape,
        blocked=enc.blocked,
    )


def unpack_mxplus(fmt: MXPlusFormat, packed: PackedMXPlus) -> MXPlusEncoded:
    k = fmt.block_size
    low = _reserved_bits(k)
    codes = unpack_bits(packed.elements, fmt.elem.bits, packed.nblocks * k)
    sideband = np.frombuffer(packed.sideband, dtype=np.uint8).reshape(packed.block_shape)
    bm_index = (sideband >> low).astype(np.int32)
    reserved = (sideband & ((1 << low) - 1)).astype(np.int32)

    bm = bm_positions(bm_index, k)
    values = fmt.elem.decode_bits(codes)
    values[bm] = _bm_decode(fmt, codes[bm])
    values = values.reshape(packed.block_shape + (k,))

    shared_exp = decode_e8m0(
        np.frombuffer(packed.scales, dtype=np.uint8), mx_plus=True
    ).reshape(packed.block_shape).astype(np.int32)
    flush = shared_exp == ZERO_BLOCK_SENTINEL
    if flush.any():
        values[flush] = 0.0
    if reserved.any():  # MX++: the NBM scale sits ``reserved`` below the BM's
        nbm_shared_exp = np.where(
            flush, ZERO_BLOCK_SENTINEL, shared_exp - reserved
        ).astype(np.int32)
    else:
        # One scale per block (every MX+ block): hand back ``shared_exp``
        # itself, which keys ``MXPlusFormat.decode``'s fast path. Flushed
        # blocks already hold the sentinel, so the values are the same.
        nbm_shared_exp = shared_exp
    return MXPlusEncoded(
        shared_exp=shared_exp,
        elem_values=values,
        bm_index=bm_index,
        reserved=reserved,
        nbm_shared_exp=nbm_shared_exp,
        blocked=packed.blocked,
    )
