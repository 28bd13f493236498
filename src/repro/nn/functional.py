"""Functional NN ops composed from the autodiff primitives.

Softmax follows the paper's computation flow: it is the one op kept in FP32
even under the BF16 baseline, so it takes and returns plain tensors with a
numerically stable max-subtraction.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = [
    "softmax",
    "log_softmax",
    "cross_entropy",
    "rmsnorm",
    "gelu",
    "silu",
    "causal_mask",
]


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - x.max(axis=axis, keepdims=True)
    e = shifted.exp()
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer ``targets``.

    ``logits``: (..., vocab); ``targets``: (...) integer array.
    """
    logp = log_softmax(logits, axis=-1)
    flat = logp.reshape(-1, logits.shape[-1])
    t = np.asarray(targets).reshape(-1)
    picked = flat[np.arange(t.size), t]
    return -picked.mean()


def rmsnorm(x: Tensor, gain: Tensor, eps: float = 1e-6) -> Tensor:
    """Root-mean-square layer norm with learnable per-channel gain."""
    ms = (x * x).mean(axis=-1, keepdims=True)
    return x * (ms + eps).pow(-0.5) * gain


def gelu(x: Tensor) -> Tensor:
    """tanh-approximated GELU (the common DNN kernel form)."""
    c = float(np.sqrt(2.0 / np.pi))
    inner = (x + x * x * x * 0.044715) * c
    return x * (inner.tanh() + 1.0) * 0.5


def silu(x: Tensor) -> Tensor:
    return x * x.sigmoid()


def causal_mask(seq_len: int) -> np.ndarray:
    """Boolean (seq, seq) mask: True where attention is allowed."""
    return np.tril(np.ones((seq_len, seq_len), dtype=bool))
