"""Tests for layers, the transformer LM, training, and quantized hooks."""

import numpy as np
import pytest

from repro.nn.bf16 import bf16_round
from repro.nn.layers import CausalSelfAttention, Linear, RMSNorm
from repro.nn.optim import Adam
from repro.nn.quantize import QuantContext
from repro.nn.tensor import Tensor, no_grad
from repro.nn.train import train_lm
from repro.nn.transformer import TransformerConfig, TransformerLM

CFG = TransformerConfig(vocab_size=31, dim=32, n_layers=2, n_heads=4, hidden=48, seed=0)


class TestBF16:
    def test_exact_values_unchanged(self):
        x = np.array([1.0, 0.5, -2.0, 1.5])
        np.testing.assert_array_equal(bf16_round(x), x)

    def test_rounding_to_7_bit_mantissa(self):
        # bf16 stores 7 mantissa bits: ulp at 1.0 is 2^-7. The midpoint
        # 1 + 2^-8 ties to even (1.0); 1 + 2^-7 is representable.
        assert bf16_round(np.array([1 + 2.0**-8]))[0] == 1.0
        assert bf16_round(np.array([1 + 2.0**-7]))[0] == 1 + 2.0**-7

    def test_relative_error_bound(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(1000)
        q = bf16_round(x)
        assert np.max(np.abs(q - x) / np.abs(x)) <= 2.0**-8 + 1e-12

    def test_special_values(self):
        f32max = np.finfo(np.float32).max
        # NaNs whose payload carries into the exponent (-> Inf) or the sign
        # (-> -0.0) under the rounding add, plus a quiet and a negative NaN.
        nan_bits = np.array(
            [0x7F800001, 0x7FFFFFFF, 0xFFFFFFFF, 0x7FC00000, 0xFFC00001], dtype=np.uint32
        )
        nans = nan_bits.view(np.float32)
        with np.errstate(invalid="ignore"):  # widening a signaling NaN
            q = bf16_round(nans)
            want = nans.astype(np.float64)
        np.testing.assert_array_equal(q.view(np.uint64), want.view(np.uint64))
        x = np.array([np.inf, -np.inf, -0.0, 0.0, float(f32max), -float(f32max), 1.5 * 2.0**127])
        q = bf16_round(x)
        np.testing.assert_array_equal(q, [np.inf, -np.inf, 0.0, 0.0, np.inf, -np.inf, 1.5 * 2.0**127])
        np.testing.assert_array_equal(np.signbit(q), [False, True, True, False, False, True, False])
        with np.errstate(over="ignore"):  # float64 -> float32 cast overflow
            assert bf16_round(np.array([1e39, -1e39])).tolist() == [np.inf, -np.inf]
        # float32 input is not modified in place
        x32 = nans.copy()
        with np.errstate(invalid="ignore"):
            bf16_round(x32)
        np.testing.assert_array_equal(x32.view(np.uint32), nan_bits)


class TestLayers:
    def test_linear_shapes(self):
        rng = np.random.default_rng(0)
        lin = Linear(rng, 8, 3, bias=True)
        out = lin(Tensor(np.ones((5, 8))))
        assert out.shape == (5, 3)

    def test_linear_permutation_invariance(self):
        rng = np.random.default_rng(1)
        lin = Linear(rng, 8, 3)
        x = Tensor(rng.standard_normal((4, 8)))
        perm = rng.permutation(8)
        np.testing.assert_allclose(lin(x).data, lin(x, perm=perm).data, atol=1e-12)

    def test_rmsnorm_unit_rms(self):
        norm = RMSNorm(16)
        x = Tensor(np.random.default_rng(2).standard_normal((4, 16)) * 10)
        out = norm(x).data
        rms = np.sqrt(np.mean(out**2, axis=-1))
        np.testing.assert_allclose(rms, 1.0, rtol=1e-3)

    def test_rmsnorm_fixed_scale(self):
        gains = np.ones(16)
        gains[3] = 50.0
        norm = RMSNorm(16, fixed_scale=gains)
        x = Tensor(np.random.default_rng(3).standard_normal((8, 16)))
        out = norm(x).data
        assert np.mean(np.abs(out[:, 3])) > 10 * np.mean(np.abs(out[:, 4]))

    def test_attention_causality(self):
        rng = np.random.default_rng(4)
        attn = CausalSelfAttention(rng, 16, 4)
        x1 = rng.standard_normal((1, 6, 16))
        x2 = x1.copy()
        x2[0, 4, :] += 10.0  # perturb a late position
        o1 = attn(Tensor(x1)).data
        o2 = attn(Tensor(x2)).data
        np.testing.assert_allclose(o1[0, :4], o2[0, :4], atol=1e-10)
        assert not np.allclose(o1[0, 4:], o2[0, 4:])


class TestTransformer:
    def test_forward_shape(self):
        model = TransformerLM(CFG)
        logits = model(np.zeros((2, 10), dtype=int))
        assert logits.shape == (2, 10, CFG.vocab_size)

    def test_concentrated_pe_creates_outliers(self):
        cfg = TransformerConfig(
            vocab_size=31, dim=32, n_layers=1, n_heads=4, hidden=48,
            pe_channels=((4, 5.0, "sin"), (5, 5.0, "cos")), pe_scale=10.0,
        )
        model = TransformerLM(cfg)
        with no_grad():
            tokens = np.arange(16, dtype=int)[None, :]
            x = model.embed(tokens) + model._positional(16)
            acts = model.blocks[0].attn_norm(x).data
        pe_mag = np.abs(acts[..., 4:6]).mean()
        other_mag = np.abs(acts[..., 8:]).mean()
        assert pe_mag > 5 * other_mag

    def test_training_reduces_loss(self):
        rng = np.random.default_rng(5)
        corpus = rng.integers(0, CFG.vocab_size, size=4000)
        # learnable structure: token i is followed by (i + 1) % V mostly
        corpus = np.cumsum(np.ones_like(corpus)) % CFG.vocab_size
        model = TransformerLM(CFG)
        result = train_lm(model, corpus.astype(int), steps=60, batch_size=8, seq_len=16)
        assert result.losses[-1] < result.losses[0] * 0.75

    def test_perplexity_baseline_close_to_fp(self):
        model = TransformerLM(CFG)
        tokens = np.random.default_rng(6).integers(0, CFG.vocab_size, (2, 33))
        fp = model.perplexity(tokens, None)
        bf = model.perplexity(tokens, QuantContext())
        assert bf == pytest.approx(fp, rel=0.02)

    def test_quantized_worse_than_baseline(self):
        cfg = TransformerConfig(
            vocab_size=31, dim=32, n_layers=1, n_heads=4, hidden=48,
            pe_channels=((4, 5.0, "sin"), (5, 5.0, "cos")), pe_scale=10.0,
        )
        model = TransformerLM(cfg)
        tokens = np.random.default_rng(7).integers(0, 31, (2, 33))
        base = model.perplexity(tokens, QuantContext())
        q4 = model.perplexity(tokens, QuantContext.named("mxfp4"))
        assert q4 > base

    def test_generate_deterministic(self):
        model = TransformerLM(CFG)
        prefix = np.array([1, 2, 3])
        a = model.generate(prefix, 5)
        b = model.generate(prefix, 5)
        np.testing.assert_array_equal(a, b)

    def test_state_dict_roundtrip(self):
        m1 = TransformerLM(CFG)
        m2 = TransformerLM(CFG)
        train_ref = np.random.default_rng(8).integers(0, 31, 2000)
        train_lm(m1, train_ref, steps=3, batch_size=4, seq_len=16)
        m2.load_state_dict(m1.state_dict())
        tokens = np.random.default_rng(9).integers(0, 31, (1, 17))
        np.testing.assert_allclose(m1(tokens).data, m2(tokens).data)

    def test_lm_head_excluded_when_flagged(self):
        model = TransformerLM(CFG)
        tokens = np.random.default_rng(10).integers(0, 31, (1, 17))
        qc_with = QuantContext.named("mxfp4")
        qc_without = qc_with.with_(quantize_lm_head=False)
        a = model(tokens, qc_with).data
        b = model(tokens, qc_without).data
        assert not np.allclose(a, b)


class TestQuantContext:
    def test_named_baseline(self):
        qc = QuantContext.named("baseline")
        assert qc.act is None and qc.weight is None

    def test_named_format(self):
        qc = QuantContext.named("mxfp4+")
        assert qc.act.name == "mxfp4+"
        assert qc.weight.name == "mxfp4+"

    def test_named_a_variant(self):
        qc = QuantContext.named("a-mxfp4+")
        assert qc.act.name == "mxfp4+"
        assert qc.weight.name == "mxfp4"

    def test_named_explicit_mix(self):
        qc = QuantContext.named("a:bf16,w:mxfp4")
        assert qc.act is None
        assert qc.weight.name == "mxfp4"

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            QuantContext.named("not-a-format")

    def test_kv_defaults_to_act(self):
        qc = QuantContext.named("mxfp4")
        x = np.random.default_rng(11).standard_normal((4, 64))
        np.testing.assert_allclose(qc.quantize_kv(x), qc.quantize_act(x))


class TestOptim:
    def test_adam_minimizes_quadratic(self):
        t = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        opt = Adam([t], lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            (t * t).sum().backward()
            opt.step()
        np.testing.assert_allclose(t.data, 0.0, atol=1e-2)
