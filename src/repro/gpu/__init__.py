"""GPU performance substrate: timing, serving simulation, hardware model."""

from .area import MXPLUS_COMPONENTS, scale_to_node, tensor_core_overhead
from .convert import ConversionCosts, converted_matmul_time, table4_row
from .hardware import DPECycleModel, dpe_block_dot, lane_view, tensor_core_matmul
from .inference import StageTimes, end_to_end_speedup, simulate_inference
from .kernels import GemmShape, gemm_time
from .quanttime import measure_quantization_time, quantization_time_table
from .spec import FORMAT_BITS, GPUSpec, RTX5090, RTXA6000
from .systolic import SystolicArray, SystolicResult

__all__ = [
    "GPUSpec",
    "RTX5090",
    "RTXA6000",
    "FORMAT_BITS",
    "GemmShape",
    "gemm_time",
    "StageTimes",
    "simulate_inference",
    "end_to_end_speedup",
    "dpe_block_dot",
    "lane_view",
    "DPECycleModel",
    "tensor_core_matmul",
    "ConversionCosts",
    "converted_matmul_time",
    "table4_row",
    "tensor_core_overhead",
    "scale_to_node",
    "MXPLUS_COMPONENTS",
    "measure_quantization_time",
    "quantization_time_table",
    "SystolicArray",
    "SystolicResult",
]
