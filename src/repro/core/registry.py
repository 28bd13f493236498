"""Format registry: string names -> :class:`BlockFormat` factories.

``get_format("mxfp4+")`` is the main entry point used by the evaluation
harness, examples, and benchmarks. Names are case-insensitive.
"""

from __future__ import annotations

import difflib
from typing import Callable

from .blocks import BlockFormat
from .intquant import IntQuantizer
from .msfp import MSFP12, MSFP14, MSFP16
from .mx import MXFP4, MXFP4K64, MXFP6, MXFP6_E3M2, MXFP8, MXFP8_E5M2, MXINT8
from .mxint_plus import MXINT4, MXINT4Plus, MXINT8PlusFormat
from .mxplus import MXFP4Plus, MXFP4PlusK64, MXFP6Plus, MXFP8Plus
from .mxpp import MXFP4PlusPlus, MXFP6PlusPlus, MXFP8PlusPlus
from .nvfp4 import NVFP4, NVFP4Plus
from .smx import SMX4, SMX6, SMX9
from .topk import TopKPromoteFormat

__all__ = [
    "get_format",
    "available_formats",
    "register_format",
    "suggest_near_misses",
]

def suggest_near_misses(name: str, candidates: list[str]) -> str:
    """``" — did you mean ...?"`` hint for error messages (or ``""``)."""
    near = difflib.get_close_matches(name.lower(), candidates, n=3, cutoff=0.4)
    return f" — did you mean {', '.join(near)}?" if near else ""

_REGISTRY: dict[str, Callable[[], BlockFormat]] = {
    # OCP MX (Table 1)
    "mxfp4": MXFP4,
    "mxfp4-k64": MXFP4K64,
    "mxfp6": MXFP6,
    "mxfp6-e3m2": MXFP6_E3M2,
    "mxfp8": MXFP8,
    "mxfp8-e5m2": MXFP8_E5M2,
    "mxint8": MXINT8,
    # MX+ / MX++ (Sections 4.1-4.3)
    "mxfp4+": MXFP4Plus,
    "mxfp4+-k64": MXFP4PlusK64,
    "mxfp6+": MXFP6Plus,
    "mxfp8+": MXFP8Plus,
    "mxfp4++": MXFP4PlusPlus,
    "mxfp6++": MXFP6PlusPlus,
    "mxfp8++": MXFP8PlusPlus,
    # MXINT extensions (Table 10)
    "mxint8+": MXINT8PlusFormat,
    "mxint4": MXINT4,
    "mxint4+": MXINT4Plus,
    # NVFP4 (Table 11)
    "nvfp4": NVFP4,
    "nvfp4+": NVFP4Plus,
    # Industry BFP baselines (Figure 2)
    "msfp12": MSFP12,
    "msfp14": MSFP14,
    "msfp16": MSFP16,
    "smx4": SMX4,
    "smx6": SMX6,
    "smx9": SMX9,
    # Plain integer baselines
    "int4-g128": lambda: IntQuantizer(4, 128),
    "int8-g128": lambda: IntQuantizer(8, 128),
    # Figure 14 top-k analysis formats
    "mxfp4-top1": lambda: TopKPromoteFormat(1),
    "mxfp4-top2": lambda: TopKPromoteFormat(2),
    "mxfp4-top3": lambda: TopKPromoteFormat(3),
    "mxfp4-top4": lambda: TopKPromoteFormat(4),
}


def register_format(
    name: str, factory: Callable[[], BlockFormat], overwrite: bool = False
) -> None:
    """Register a custom format under ``name``.

    Raises ``ValueError`` on a duplicate name unless ``overwrite=True``.
    """
    key = name.lower()
    if key in _REGISTRY and not overwrite:
        raise ValueError(
            f"format {name!r} is already registered; "
            "pass overwrite=True to replace it"
        )
    _REGISTRY[key] = factory


def available_formats() -> list[str]:
    """Sorted names of all registered formats."""
    return sorted(_REGISTRY)


def get_format(name: str) -> BlockFormat:
    """Instantiate a format by name; raises ``KeyError`` with suggestions."""
    key = name.lower()
    if key not in _REGISTRY:
        hint = suggest_near_misses(key, available_formats())
        raise KeyError(
            f"unknown format {name!r}{hint}; "
            f"available: {', '.join(available_formats())}"
        )
    return _REGISTRY[key]()
