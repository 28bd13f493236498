"""A minimal reverse-mode automatic differentiation engine over numpy.

This is the training substrate for the scaled-down model zoo: a ``Tensor``
wraps an ndarray, records the operations applied to it, and ``backward()``
propagates gradients through the recorded graph in reverse topological
order. Broadcasting follows numpy semantics; gradients are summed back
("unbroadcast") to the operand shapes.

Inference runs under :func:`no_grad`, which skips graph construction so the
quantized-evaluation paths pay no autodiff overhead.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable

import numpy as np

__all__ = ["Tensor", "no_grad"]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the context (inference mode)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to invert numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """An ndarray with an optional gradient and a backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad and _GRAD_ENABLED
        self._backward: Callable[[], None] | None = None
        self._parents: tuple = ()
        self.name = name

    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, grad={self.requires_grad}, name={self.name!r})"

    def numpy(self) -> np.ndarray:
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # graph plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _lift(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    def _make(self, data: np.ndarray, parents: Iterable["Tensor"], backward) -> "Tensor":
        parents = tuple(parents)
        out = Tensor(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    def _accum(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        self.grad = grad if self.grad is None else self.grad + grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor (default seed: ones)."""
        if grad is None:
            grad = np.ones_like(self.data)
        self._accum(grad)

        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))

        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward()
        # Free the graph once it has been used: each closure refers back to
        # its output node, so a kept graph is a reference cycle that only the
        # cyclic collector can reclaim, and a training step leaves hundreds of
        # MB of activations behind until it runs.
        for node in topo:
            node._backward = None
            node._parents = ()

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data + other.data

        def backward():
            if self.requires_grad:
                self._accum(out.grad)
            if other.requires_grad:
                other._accum(out.grad)

        out = self._make(out_data, (self, other), backward)
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other) -> "Tensor":
        return self + (-self._lift(other))

    def __rsub__(self, other) -> "Tensor":
        return self._lift(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data * other.data

        def backward():
            if self.requires_grad:
                self._accum(out.grad * other.data)
            if other.requires_grad:
                other._accum(out.grad * self.data)

        out = self._make(out_data, (self, other), backward)
        return out

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        return self * self._lift(other).pow(-1.0)

    def __rtruediv__(self, other) -> "Tensor":
        return self._lift(other) * self.pow(-1.0)

    def pow(self, p: float) -> "Tensor":
        out_data = self.data**p

        def backward():
            if self.requires_grad:
                self._accum(out.grad * p * self.data ** (p - 1))

        out = self._make(out_data, (self,), backward)
        return out

    def __pow__(self, p: float) -> "Tensor":
        return self.pow(p)

    def matmul(self, other: "Tensor") -> "Tensor":
        other = self._lift(other)
        out_data = self.data @ other.data

        def backward():
            if self.requires_grad:
                g = out.grad @ np.swapaxes(other.data, -1, -2)
                self._accum(g)
            if other.requires_grad:
                g = np.swapaxes(self.data, -1, -2) @ out.grad
                other._accum(g)

        out = self._make(out_data, (self, other), backward)
        return out

    __matmul__ = matmul

    # ------------------------------------------------------------------
    # elementwise non-linearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward():
            if self.requires_grad:
                self._accum(out.grad * out_data)

        out = self._make(out_data, (self,), backward)
        return out

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward():
            if self.requires_grad:
                self._accum(out.grad / self.data)

        out = self._make(out_data, (self,), backward)
        return out

    def sqrt(self) -> "Tensor":
        return self.pow(0.5)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward():
            if self.requires_grad:
                self._accum(out.grad * (1 - out_data**2))

        out = self._make(out_data, (self,), backward)
        return out

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward():
            if self.requires_grad:
                self._accum(out.grad * out_data * (1 - out_data))

        out = self._make(out_data, (self,), backward)
        return out

    def relu(self) -> "Tensor":
        out_data = np.maximum(self.data, 0)

        def backward():
            if self.requires_grad:
                self._accum(out.grad * (self.data > 0))

        out = self._make(out_data, (self,), backward)
        return out

    # ------------------------------------------------------------------
    # reductions / shape ops
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward():
            if self.requires_grad:
                g = out.grad
                if not keepdims and axis is not None:
                    g = np.expand_dims(g, axis)
                self._accum(np.broadcast_to(g, self.data.shape))

        out = self._make(out_data, (self,), backward)
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        n = self.data.size if axis is None else np.prod(
            [self.data.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))]
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(n))

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward():
            if self.requires_grad:
                g = out.grad
                o = out_data
                if not keepdims and axis is not None:
                    g = np.expand_dims(g, axis)
                    o = np.expand_dims(o, axis)
                mask = self.data == o
                # spread ties evenly so the gradient stays well-defined
                share = mask / np.maximum(mask.sum(axis=axis, keepdims=True), 1)
                self._accum(g * share)

        out = self._make(out_data, (self,), backward)
        return out

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        orig = self.data.shape
        out_data = self.data.reshape(shape)

        def backward():
            if self.requires_grad:
                self._accum(out.grad.reshape(orig))

        out = self._make(out_data, (self,), backward)
        return out

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        inv = np.argsort(axes)
        out_data = self.data.transpose(axes)

        def backward():
            if self.requires_grad:
                self._accum(out.grad.transpose(inv))

        out = self._make(out_data, (self,), backward)
        return out

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.data.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(*axes)

    def __getitem__(self, idx) -> "Tensor":
        out_data = self.data[idx]

        def backward():
            if self.requires_grad:
                g = np.zeros_like(self.data)
                np.add.at(g, idx, out.grad)
                self._accum(g)

        out = self._make(out_data, (self,), backward)
        return out

    def take_rows(self, indices: np.ndarray) -> "Tensor":
        """Embedding-style gather of rows (indices may repeat)."""
        indices = np.asarray(indices)
        out_data = self.data[indices]

        def backward():
            if self.requires_grad:
                g = np.zeros_like(self.data)
                np.add.at(g, indices.reshape(-1), out.grad.reshape(-1, self.data.shape[-1]))
                self._accum(g)

        out = self._make(out_data, (self,), backward)
        return out

    def where(self, mask: np.ndarray, other) -> "Tensor":
        """``mask ? self : other`` with gradients routed accordingly."""
        other = self._lift(other)
        out_data = np.where(mask, self.data, other.data)

        def backward():
            if self.requires_grad:
                self._accum(np.where(mask, out.grad, 0.0))
            if other.requires_grad:
                other._accum(np.where(mask, 0.0, out.grad))

        out = self._make(out_data, (self, other), backward)
        return out

    def apply_ste(self, fn: Callable[[np.ndarray], np.ndarray]) -> "Tensor":
        """Apply ``fn`` forward with a straight-through (identity) gradient.

        Used for quantization-aware fine-tuning (Table 9): the quantizer is
        non-differentiable, so its gradient is approximated by identity.
        """
        out_data = fn(self.data)

        def backward():
            if self.requires_grad:
                self._accum(out.grad)

        out = self._make(out_data, (self,), backward)
        return out
