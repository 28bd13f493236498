"""Block partitioning utilities and the abstract :class:`BlockFormat` API.

Every block-based format in this library follows the same contract:

``quantize_dequantize(x, axis=-1)``
    Fake-quantize an array: values come back on the format's representable
    grid, shape and dtype preserved. This is the workhorse for model
    evaluation.

``encode(x, axis=-1) -> Encoded`` / ``decode(Encoded)``
    Structured encode/decode exposing per-block fields (shared exponents,
    element values, BM indices, ...), used by the bit-level layout code and
    by the hardware model.

Blocking happens along one axis: the axis is moved last, padded with zeros
to a multiple of the block size, and reshaped to ``(..., nblocks, k)``
in one C-contiguous float64 copy (none when the axis is already last and
the data already float64 and contiguous).
Padding never changes a block's max-magnitude statistics because zeros are
never larger than any real magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Blocked", "to_blocks", "from_blocks", "BlockFormat"]


@dataclass
class Blocked:
    """An array reshaped into blocks along its last axis, with restore info."""

    data: np.ndarray  # (..., nblocks, k)
    axis: int
    orig_len: int
    orig_shape: tuple
    orig_dtype: np.dtype


def to_blocks(x: np.ndarray, block_size: int, axis: int = -1) -> Blocked:
    """Reshape ``x`` into zero-padded blocks of ``block_size`` along ``axis``.

    Makes at most one copy (C-contiguous float64, padded); the returned
    ``data`` may share memory with ``x``, so callers must not write to it.
    """
    x = np.asarray(x)
    moved = np.moveaxis(x, axis, -1)
    n = moved.shape[-1]
    pad = (-n) % block_size
    if pad:
        work = np.zeros(moved.shape[:-1] + (n + pad,))
        work[..., :n] = moved
    else:
        # No copy when the blocked axis is already last and ``x`` is
        # C-contiguous float64: ``data`` is then a view of ``x``.
        work = np.ascontiguousarray(moved, dtype=np.float64)
    new_shape = work.shape[:-1] + (work.shape[-1] // block_size, block_size)
    return Blocked(
        data=work.reshape(new_shape),
        axis=axis,
        orig_len=n,
        orig_shape=x.shape,
        orig_dtype=x.dtype,
    )


def from_blocks(blocked: Blocked, data: np.ndarray | None = None) -> np.ndarray:
    """Invert :func:`to_blocks`, dropping padding and restoring axis order."""
    d = blocked.data if data is None else data
    flat = d.reshape(d.shape[:-2] + (-1,))[..., : blocked.orig_len]
    out = np.moveaxis(flat, -1, blocked.axis)
    return out.reshape(blocked.orig_shape).astype(blocked.orig_dtype, copy=False)


class BlockFormat:
    """Base class for block-based reduced-precision formats."""

    #: format name for the registry (e.g. ``"mxfp4+"``)
    name: str = "abstract"
    #: number of elements sharing one scale
    block_size: int = 32

    def quantize_dequantize(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        """Round ``x`` onto the format grid and return it in the input dtype."""
        raise NotImplementedError

    def bits_per_element(self) -> float:
        """Average storage bits per element including all sidebands."""
        raise NotImplementedError

    def __call__(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        return self.quantize_dequantize(x, axis=axis)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}(name={self.name!r}, k={self.block_size})"
