"""GPU hardware specifications for the performance substrate.

Calibrated to the datapoints the paper reports for the NVIDIA RTX 5090:
one FP4 ``mma.m16n8k64`` retires every 16 cycles per Tensor Core, and
FP8 sustains half the FP4 throughput with FP6 matching FP8 (Section
5.2/6.2).

A format's GPU cost is read off the registered format itself: its
Tensor-Core rate follows its element codec (:meth:`GPUSpec.tc_macs_per_s`)
and its DRAM traffic its storage width (:func:`format_storage_bits`).
Nothing is memoized here, so ``register_format(..., overwrite=True)`` is
seen by the next caller; :class:`repro.gpu.inference.StepPricer` resolves
both once per layer variant at construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.elem import FloatCodec
from ..core.registry import get_format
from .hardware import DPECycleModel

__all__ = ["GPUSpec", "RTX5090", "RTXA6000", "FORMAT_BITS", "format_storage_bits"]

#: storage bits per element of the baseline float types; every other
#: format's width is its registered encoder's ``bits_per_element()``
FORMAT_BITS: dict[str, float] = {
    "bf16": 16.0,
    "fp16": 16.0,
    "fp32": 32.0,
}

#: Tensor-Core rate of a BF16 MMA relative to FP4
BF16_RATE = 0.25
#: the DPE whose per-width MMA cycles set the MX formats' relative rates
_DPE = DPECycleModel()


def format_storage_bits(fmt: str) -> float:
    """Average storage bits per element for format name ``fmt``.

    The baseline float types come from :data:`FORMAT_BITS`; every
    registered format (MX, MX+, MX++, MXINT, NVFP4, re-registered block
    variants, ...) reports its encoder's ``bits_per_element()``: element
    width plus its share of the shared-scale (and BM-index) sidebands.
    Unknown names raise ``KeyError``. The one width both the GEMM traffic
    model (:mod:`repro.gpu.kernels`) and the KV-cache footprint
    accounting (:func:`repro.serve.kvcache.kv_token_bytes`) read.

    >>> format_storage_bits("mxfp4"), format_storage_bits("mxfp4+")
    (4.25, 4.5)
    """
    key = fmt.lower()
    bits = FORMAT_BITS.get(key)
    return bits if bits is not None else float(get_format(key).bits_per_element())


@dataclass(frozen=True)
class GPUSpec:
    """Throughput and bandwidth of one GPU for the roofline model.

    A format's MMA rate is not configured per name: with ``native_mx``,
    :meth:`tc_macs_per_s` derives it from the format's element codec,
    and without it every format runs at the BF16 rate.
    """

    name: str
    num_sms: int
    tensor_cores_per_sm: int
    clock_ghz: float
    mem_bw_gbps: float  # effective DRAM bandwidth, GB/s
    #: MACs per cycle per Tensor Core at FP4 (m16n8k64 / 16 cycles)
    fp4_macs_per_cycle_per_tc: float = 16 * 8 * 64 / 16.0
    #: whether Tensor Cores consume MX formats natively (Blackwell: yes);
    #: without it the operands are converted and the MMA runs in BF16
    native_mx: bool = True

    def tc_macs_per_s(self, fmt: str) -> float:
        """Peak Tensor-Core MACs/second for a compute format.

        On a ``native_mx`` GPU a format whose elements are 4-bit floats
        (a :class:`~repro.core.elem.FloatCodec` of width 4: MXFP4 and its
        MX+/MX++ variants, NVFP4) runs at the FP4 rate, and 6- or 8-bit
        floats (MXFP6, MXFP8, either element type) at half of it: the
        rate is the FP4 MMA's cycles over the element width's, as
        :meth:`repro.gpu.hardware.DPECycleModel.mma_cycles` counts them.
        Every other format (bf16/fp16, INT, MXINT, MSFP, SMX, top-k) runs at
        the BF16 rate, a quarter of FP4, as does every format when
        ``native_mx`` is off.
        """
        rel = BF16_RATE
        if self.native_mx and fmt.lower() not in FORMAT_BITS:
            elem = getattr(get_format(fmt), "elem", None)
            if isinstance(elem, FloatCodec) and elem.bits <= 8:
                rel = _DPE.mma_cycles(4) / _DPE.mma_cycles(elem.bits)
        return (
            self.num_sms
            * self.tensor_cores_per_sm
            * self.fp4_macs_per_cycle_per_tc
            * rel
            * self.clock_ghz
            * 1e9
        )

    def mem_bytes_per_s(self) -> float:
        return self.mem_bw_gbps * 1e9


#: RTX 5090-like (Blackwell, native MX support) — Section 7.1.
RTX5090 = GPUSpec(
    name="rtx5090",
    num_sms=170,
    tensor_cores_per_sm=4,
    clock_ghz=2.01,
    mem_bw_gbps=1792.0,
    native_mx=True,
)

#: RTX A6000-like (Ampere, no native MX -> conversion before compute).
RTXA6000 = GPUSpec(
    name="rtx-a6000",
    num_sms=84,
    tensor_cores_per_sm=4,
    clock_ghz=1.41,
    mem_bw_gbps=768.0,
    native_mx=False,
)
