"""Optimizers for the training substrate."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = ["Adam", "clip_grad_norm"]


def clip_grad_norm(params: list[Tensor], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``."""
    total = float(
        np.sqrt(sum(float(np.sum(p.grad**2)) for p in params if p.grad is not None))
    )
    if total > max_norm and total > 0:
        scale = max_norm / total
        for p in params:
            if p.grad is not None:
                p.grad = p.grad * scale
    return total


class Adam:
    def __init__(
        self,
        params: list[Tensor],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.params = params
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in params]
        self._v = [np.zeros_like(p.data) for p in params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            m *= self.b1
            m += (1 - self.b1) * g
            v *= self.b2
            v += (1 - self.b2) * g * g
            mhat = m / (1 - self.b1**self._t)
            vhat = v / (1 - self.b2**self._t)
            p.data -= self.lr * mhat / (np.sqrt(vhat) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()
