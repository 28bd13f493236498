"""Roofline GEMM timing model with MX+ software-integration costs.

``gemm_time`` returns seconds for ``D[M,N] += A[M,K] @ B[K,N]`` on a GPU
spec: the max of Tensor-Core compute time and DRAM traffic time, plus a
fixed kernel-launch overhead. The MX+ *software* path (Section 5.2,
Algorithm 1) adds one sparse MMA per two dense MMAs on the A operand —
1.5x compute, unchanged traffic — which is why the paper sees a 1.54x
prefill slowdown but only ~7% in the memory-bound decode stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .spec import GPUSpec, format_storage_bits

__all__ = ["GemmShape", "gemm_time"]

#: fixed per-kernel launch/epilogue overhead (seconds)
KERNEL_OVERHEAD_S = 4e-6
#: Algorithm 1: one sparse MMA (2x rate, so one dense-equivalent) joins
#: every two dense MMAs -> 1.5x compute on the MX+ software path.
SOFTWARE_MXPLUS_COMPUTE_FACTOR = 1.5
#: Algorithm 1's per-kernel extra work (loading BM indices, ReplaceBM,
#: MakeFragment) inflates each kernel's fixed cost; this is what remains
#: visible in the memory-bound decode stage (the paper measures 6.71%).
SOFTWARE_MXPLUS_KERNEL_FACTOR = 1.25
#: Hardware integration (Section 6): the BCU overlaps the adder tree, so
#: only the extra BM-index register-file read lengthens the pipeline.
HARDWARE_MXPLUS_FACTOR = 1.0038  # measured 0.38% average in Figure 12


@dataclass(frozen=True)
class GemmShape:
    m: int
    n: int
    k: int

    @property
    def macs(self) -> float:
        return float(self.m) * self.n * self.k


class _Operands(NamedTuple):
    """Everything but the shape that :func:`_roofline` prices one GEMM
    with, resolved by :func:`_resolve`."""

    rate: float  # MMA MACs/s: mixed precision runs at the slower operand's
    a_bits: float  # storage bits per A element
    b_bits: float  # storage bits per B element
    mem_bytes_per_s: float
    mxplus_software: bool
    mxplus_hardware: bool
    min_tile_m: int


def _resolve(
    spec: GPUSpec,
    a_fmt: str,
    b_fmt: str,
    mxplus_software: bool,
    mxplus_hardware: bool,
    min_tile_m: int,
) -> _Operands:
    """Read an ``a_fmt x b_fmt`` GEMM's rate and operand widths off the
    registered formats, once, for any number of shapes."""
    return _Operands(
        rate=min(spec.tc_macs_per_s(a_fmt), spec.tc_macs_per_s(b_fmt)),
        a_bits=format_storage_bits(a_fmt),
        b_bits=format_storage_bits(b_fmt),
        mem_bytes_per_s=spec.mem_bytes_per_s(),
        mxplus_software=mxplus_software,
        mxplus_hardware=mxplus_hardware,
        min_tile_m=min_tile_m,
    )


def _roofline(m: int, n: int, k: int, op: _Operands) -> float:
    """Seconds for one ``m x n x k`` GEMM on resolved operands ``op`` —
    the one roofline formula."""
    compute_s = float(max(m, op.min_tile_m)) * n * k / op.rate
    if op.mxplus_software:
        compute_s *= SOFTWARE_MXPLUS_COMPUTE_FACTOR
    if op.mxplus_hardware:
        compute_s *= HARDWARE_MXPLUS_FACTOR

    bytes_a = m * k * op.a_bits / 8.0
    bytes_b = k * n * op.b_bits / 8.0
    bytes_d = m * n * 2.0  # BF16 output
    memory_s = (bytes_a + bytes_b + bytes_d) / op.mem_bytes_per_s

    overhead = KERNEL_OVERHEAD_S
    if op.mxplus_software:
        overhead *= SOFTWARE_MXPLUS_KERNEL_FACTOR
    return max(compute_s, memory_s) + overhead


def gemm_time(
    spec: GPUSpec,
    shape: GemmShape,
    a_fmt: str = "bf16",
    b_fmt: str = "bf16",
    mxplus_software: bool = False,
    mxplus_hardware: bool = False,
    min_tile_m: int = 1,
) -> float:
    """Seconds for one GEMM under the roofline model.

    ``a_fmt``/``b_fmt`` are ``"bf16"``/``"fp16"``/``"fp32"`` or registered
    format names (unknown names raise ``KeyError``). ``min_tile_m``:
    thread-block tile granularity on M — kernels that only ship one tile
    shape (CUTLASS A8W4's M=128, Section 7.4) burn compute on padding
    when the real M is smaller.
    """
    operands = _resolve(spec, a_fmt, b_fmt, mxplus_software, mxplus_hardware, min_tile_m)
    return _roofline(shape.m, shape.n, shape.k, operands)
