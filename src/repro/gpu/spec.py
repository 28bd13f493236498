"""GPU hardware specifications for the performance substrate.

Calibrated to the datapoints the paper reports for the NVIDIA RTX 5090:
one FP4 ``mma.m16n8k64`` retires every 16 cycles per Tensor Core, FP8
sustains half the FP4 throughput and FP6 matches FP8, and sparse MMA runs
at twice the dense rate (Section 5.2/6.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from ..core.registry import get_format, registry_version

__all__ = ["GPUSpec", "RTX5090", "RTXA6000", "FORMAT_BITS", "format_storage_bits"]

#: storage bits per element of the baseline float types; every other
#: format's width is its registered encoder's ``bits_per_element()``
FORMAT_BITS: dict[str, float] = {
    "bf16": 16.0,
    "fp16": 16.0,
    "fp32": 32.0,
}


def format_storage_bits(fmt: str, default: float | None = None) -> float:
    """Average storage bits per element for format name ``fmt``.

    The baseline float types come from :data:`FORMAT_BITS`; every
    registered format (MX, MX+, MX++, MXINT, NVFP4, re-registered block
    variants, ...) reports its encoder's ``bits_per_element()``: element
    width plus its share of the shared-scale (and BM-index) sidebands.
    That width is memoized against the registry version, so
    ``register_format(..., overwrite=True)`` is seen. Unknown names raise
    ``KeyError`` unless ``default`` is given. The one lookup both the GEMM
    traffic model (:mod:`repro.gpu.kernels`) and the KV-cache footprint
    accounting (:func:`repro.serve.kvcache.kv_token_bytes`) share.

    >>> format_storage_bits("mxfp4"), format_storage_bits("mxfp4+")
    (4.25, 4.5)
    """
    key = fmt.lower()
    bits = FORMAT_BITS.get(key)
    if bits is not None:
        return bits
    try:
        return _registry_storage_bits(key, registry_version())
    except KeyError:
        if default is None:
            raise
        return default


@lru_cache(maxsize=None)
def _registry_storage_bits(key: str, version: int) -> float:
    return float(get_format(key).bits_per_element())


@dataclass(frozen=True)
class GPUSpec:
    name: str
    num_sms: int
    tensor_cores_per_sm: int
    clock_ghz: float
    mem_bw_gbps: float  # effective DRAM bandwidth, GB/s
    #: MACs per cycle per Tensor Core at FP4 (m16n8k64 / 16 cycles)
    fp4_macs_per_cycle_per_tc: float = 16 * 8 * 64 / 16.0
    #: relative MMA throughput by compute format (FP4 = 1)
    format_throughput: dict = field(
        default_factory=lambda: {
            "mxfp4": 1.0,
            "mxfp4+": 1.0,
            "mxfp4++": 1.0,
            "mxfp4-k64": 1.0,
            "mxfp4+-k64": 1.0,
            "mxfp6": 0.5,
            "mxfp6+": 0.5,
            "mxfp8": 0.5,
            "mxfp8+": 0.5,
            "bf16": 0.25,
            "fp16": 0.25,
        }
    )
    #: whether Tensor Cores consume MX formats natively (Blackwell: yes)
    native_mx: bool = True
    #: relative speed of a sparse MMA vs dense at the same K (2x on NVIDIA)
    sparse_speedup: float = 2.0

    def tc_macs_per_s(self, fmt: str) -> float:
        """Peak Tensor-Core MACs/second for a compute format."""
        rel = self.format_throughput.get(fmt, 0.25)
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
    format_throughput={"bf16": 0.25, "fp16": 0.25},
)
