"""Baseline quantization schemes: shared plumbing (Tables 7/8/13).

Every scheme is a :class:`~repro.nn.quantize.QuantContext` subclass that
overrides ``quantize_matmul_pair`` — the joint hook on each ``x @ W``
linear matmul. Following the paper's Table 7 protocol, scheme contexts
quantize only weight-activation matmuls (no LM head, no attention
score/value matmuls), which is the intersection of quantized operations
across the compared schemes.

Calibration note: the original systems calibrate activation statistics on
a held-out set; our schemes compute the same statistics from the batch
being evaluated (every forward sees the full eval batch at once, so these
are the same numbers a calibration pass over that data would produce).

``SCHEME_MATRIX`` encodes the qualitative Table 13 comparison.

Configuration note: :class:`repro.serve.QuantRecipe` is the canonical
config entry point for the repo — its ``scope="linear-only"`` option
reproduces this module's Table 7 protocol (no LM head, no attention
matmuls), and ``QuantRecipe.to_context()`` is how recipes reach the
numeric path these scheme contexts extend.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..nn.quantize import QuantContext

__all__ = ["SchemeContext", "SchemeCard", "SCHEME_MATRIX"]


@dataclass
class SchemeContext(QuantContext):
    """Base for Table 7 scheme contexts: linear matmuls only."""

    quantize_lm_head: bool = False
    quantize_attention: bool = False

    def quantize_matmul_pair(self, x, w):  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass(frozen=True)
class SchemeCard:
    """Qualitative capability flags (the paper's Table 13)."""

    name: str
    compute_efficiency: bool  # low-bit compute (not dequant-to-high-precision)
    standard_general: bool  # standard formats / no bespoke hardware
    high_accuracy: bool  # maintains accuracy at 4-bit W+A


SCHEME_MATRIX: list[SchemeCard] = [
    SchemeCard("AWQ", compute_efficiency=False, standard_general=True, high_accuracy=True),
    SchemeCard("SqueezeLLM", compute_efficiency=False, standard_general=True, high_accuracy=True),
    SchemeCard("SmoothQuant", compute_efficiency=True, standard_general=True, high_accuracy=False),
    SchemeCard("QuaRot", compute_efficiency=True, standard_general=True, high_accuracy=False),
    SchemeCard("OliVe", compute_efficiency=True, standard_general=False, high_accuracy=False),
    SchemeCard("Tender", compute_efficiency=True, standard_general=True, high_accuracy=False),
    SchemeCard("LLM-FP4", compute_efficiency=True, standard_general=False, high_accuracy=False),
    SchemeCard("MX+", compute_efficiency=True, standard_general=True, high_accuracy=True),
]
