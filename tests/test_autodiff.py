"""Tests for the reverse-mode autodiff engine (repro.nn.tensor).

Gradients are checked against central finite differences.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.nn.functional import cross_entropy, gelu, rmsnorm, silu, softmax
from repro.nn.tensor import Tensor, no_grad


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        hi = fn(x)
        x[idx] = orig - eps
        lo = fn(x)
        x[idx] = orig
        g[idx] = (hi - lo) / (2 * eps)
        it.iternext()
    return g


def check_gradient(op, shape=(3, 4), seed=0, atol=1e-5):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    t = Tensor(x.copy(), requires_grad=True)
    out = op(t)
    out.sum().backward()
    num = numeric_grad(lambda a: float(op(Tensor(a)).sum().item()), x.copy())
    np.testing.assert_allclose(t.grad, num, atol=atol, rtol=1e-4)


class TestElementwiseGrads:
    def test_add_mul(self):
        check_gradient(lambda t: t * 3.0 + t * t)

    def test_pow(self):
        check_gradient(lambda t: (t * t + 1.0).pow(0.5))

    def test_exp_log(self):
        check_gradient(lambda t: ((t * t) + 1.0).log() + t.exp())

    def test_tanh_sigmoid_relu(self):
        check_gradient(lambda t: t.tanh() + t.sigmoid() + t.relu())

    def test_division(self):
        check_gradient(lambda t: t / (t * t + 2.0))


class TestMatmulGrads:
    def test_matmul(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        (a @ b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 5)) @ b.data.T)
        np.testing.assert_allclose(b.grad, a.data.T @ np.ones((3, 5)))

    def test_batched_matmul(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 4, 5)), requires_grad=True)
        (a @ b).sum().backward()
        assert a.grad.shape == (2, 3, 4)
        assert b.grad.shape == (2, 4, 5)


class TestBroadcasting:
    def test_bias_broadcast(self):
        a = Tensor(np.zeros((4, 3)), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(b.grad, [4.0, 4.0, 4.0])

    def test_scalar_broadcast(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        (a * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, 2 * np.ones((2, 2)))

    def test_keepdims_mean(self):
        check_gradient(lambda t: t - t.mean(axis=-1, keepdims=True))


class TestReductionsAndShape:
    def test_sum_axis(self):
        check_gradient(lambda t: t.sum(axis=0))

    def test_max_gradient_ties(self):
        t = Tensor(np.array([[1.0, 1.0, 0.0]]), requires_grad=True)
        t.max(axis=-1).sum().backward()
        # ties split the gradient evenly
        np.testing.assert_allclose(t.grad, [[0.5, 0.5, 0.0]])

    def test_reshape_transpose(self):
        check_gradient(lambda t: t.reshape(4, 3).transpose(1, 0) * 2.0)

    def test_getitem(self):
        t = Tensor(np.arange(6.0), requires_grad=True)
        t[np.array([0, 0, 2])].sum().backward()
        np.testing.assert_allclose(t.grad, [2, 0, 1, 0, 0, 0])

    def test_take_rows(self):
        t = Tensor(np.eye(4), requires_grad=True)
        t.take_rows(np.array([[1, 1], [3, 0]])).sum().backward()
        # each gather of a row adds ones(4); rows gathered 1, 2, 0, 1 times
        np.testing.assert_allclose(t.grad.sum(axis=1), [4.0, 8.0, 0.0, 4.0])

    def test_where(self):
        x = Tensor(np.array([1.0, -1.0]), requires_grad=True)
        x.where(np.array([True, False]), 0.0).sum().backward()
        np.testing.assert_allclose(x.grad, [1.0, 0.0])


class TestFunctional:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        s = softmax(Tensor(rng.standard_normal((5, 7))))
        np.testing.assert_allclose(s.data.sum(axis=-1), 1.0)

    def test_softmax_stability(self):
        s = softmax(Tensor(np.array([1e4, 1e4 + 1.0])))
        assert np.all(np.isfinite(s.data))

    def test_cross_entropy_matches_manual(self):
        logits = Tensor(np.log(np.array([[0.25, 0.75]])), requires_grad=True)
        loss = cross_entropy(logits, np.array([1]))
        assert loss.item() == pytest.approx(-np.log(0.75))

    def test_cross_entropy_gradient(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((4, 5))
        targets = np.array([0, 2, 4, 1])
        t = Tensor(x.copy(), requires_grad=True)
        cross_entropy(t, targets).backward()
        num = numeric_grad(
            lambda a: float(cross_entropy(Tensor(a), targets).item()), x.copy()
        )
        np.testing.assert_allclose(t.grad, num, atol=1e-5)

    def test_rmsnorm_gradient(self):
        gain = Tensor(np.ones(4))
        check_gradient(lambda t: rmsnorm(t, gain), shape=(3, 4))

    def test_gelu_silu_gradients(self):
        check_gradient(lambda t: gelu(t) + silu(t))


class TestGraphMechanics:
    def test_no_grad_blocks_graph(self):
        with no_grad():
            t = Tensor(np.ones(3), requires_grad=True)
            out = t * 2.0
        assert not out.requires_grad

    def test_gradient_accumulation(self):
        t = Tensor(np.ones(2), requires_grad=True)
        (t * 2.0 + t * 3.0).sum().backward()
        np.testing.assert_allclose(t.grad, [5.0, 5.0])

    def test_reused_node_diamond(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        y = t * t  # dy/dt = 2t
        z = y + y  # dz/dt = 4t
        z.backward()
        np.testing.assert_allclose(t.grad, [8.0])

    def test_ste_identity_gradient(self):
        t = Tensor(np.array([0.3, 1.7]), requires_grad=True)
        t.apply_ste(np.round).sum().backward()
        np.testing.assert_allclose(t.grad, [1.0, 1.0])

    def test_backward_frees_graph_without_cyclic_gc(self):
        # A used graph must be freed by reference counting alone: training
        # otherwise keeps every step's activations until the cyclic collector
        # runs, which in a large process can be never.
        t = Tensor(np.ones((4, 4)), requires_grad=True)
        y = t * 2.0
        z = (y * y).sum()
        alive = weakref.ref(y.data)
        gc.disable()
        try:
            z.backward()
            assert y._parents == () and y._backward is None
            del y, z
            assert alive() is None
        finally:
            gc.enable()
        np.testing.assert_allclose(t.grad, np.full((4, 4), 8.0))
