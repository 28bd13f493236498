"""Tests for the GPU performance substrate (repro.gpu)."""

import dataclasses

import numpy as np
import pytest

from repro.core import MXFP4, MXFP4Plus, MXFP4PlusPlus
from repro.core.registry import available_formats
from repro.gpu.area import MXPLUS_COMPONENTS, scale_to_node, tensor_core_overhead
from repro.gpu.convert import converted_matmul_time, table4_row
from repro.gpu.hardware import DPECycleModel, dpe_block_dot, lane_view, tensor_core_matmul
from repro.gpu.inference import end_to_end_speedup, simulate_inference
from repro.gpu.kernels import GemmShape, gemm_time
from repro.gpu.spec import RTX5090, RTXA6000
from repro.gpu.systolic import SystolicArray
from repro.models.zoo import ARCHS


class TestSpec:
    def test_fp4_peak_rate(self):
        # 170 SMs x 4 TCs x 512 MACs/cycle x 2.01 GHz
        assert RTX5090.tc_macs_per_s("mxfp4") == pytest.approx(
            170 * 4 * 512 * 2.01e9
        )

    def test_fp8_half_rate(self):
        assert RTX5090.tc_macs_per_s("mxfp8") == RTX5090.tc_macs_per_s("mxfp4") / 2

    def test_fp6_matches_fp8(self):
        assert RTX5090.tc_macs_per_s("mxfp6") == RTX5090.tc_macs_per_s("mxfp8")

    def test_rate_follows_element_width(self):
        # 4-bit float elements run at the FP4 rate, 6- and 8-bit floats
        # (either element type) at half of it, everything else at BF16's.
        fp4 = {"mxfp4", "mxfp4+", "mxfp4++", "mxfp4-k64", "mxfp4+-k64", "nvfp4", "nvfp4+"}
        half = {
            "mxfp6", "mxfp6+", "mxfp6++", "mxfp6-e3m2",
            "mxfp8", "mxfp8+", "mxfp8++", "mxfp8-e5m2",
        }
        peak = RTX5090.tc_macs_per_s("mxfp4")
        for name in [*available_formats(), "bf16", "fp16"]:
            want = 1.0 if name in fp4 else 0.5 if name in half else 0.25
            assert RTX5090.tc_macs_per_s(name) == peak * want, name

    def test_no_native_mx_runs_everything_at_bf16(self):
        # native_mx alone decides it: Blackwell without it prices as Ampere
        for spec in (RTXA6000, dataclasses.replace(RTX5090, native_mx=False)):
            bf16 = spec.tc_macs_per_s("bf16")
            for name in available_formats():
                assert spec.tc_macs_per_s(name) == bf16, (spec.name, name)


class TestGemmTime:
    def test_software_mxplus_prefill_cost(self):
        shape = GemmShape(4096, 4096, 4096)
        base = gemm_time(RTX5090, shape, "mxfp4", "mxfp4")
        plus = gemm_time(RTX5090, shape, "mxfp4+", "mxfp4", mxplus_software=True)
        assert 1.3 < plus / base < 1.6  # the extra sparse MMA

    def test_software_mxplus_decode_negligible(self):
        # Memory-bound shape: the 1.5x compute hides; only the per-kernel
        # fixed cost remains (model-level decode overhead ~7%, Fig. 11).
        shape = GemmShape(4, 4096, 4096)
        base = gemm_time(RTX5090, shape, "mxfp4", "mxfp4")
        plus = gemm_time(RTX5090, shape, "mxfp4+", "mxfp4", mxplus_software=True)
        assert plus / base < 1.15

    def test_hardware_mxplus_negligible(self):
        shape = GemmShape(4096, 4096, 4096)
        base = gemm_time(RTX5090, shape, "mxfp4", "mxfp4")
        hw = gemm_time(RTX5090, shape, "mxfp4+", "mxfp4+", mxplus_hardware=True)
        assert hw / base < 1.01

    def test_min_tile_m_penalty(self):
        shape = GemmShape(4, 4096, 4096)
        free = gemm_time(RTX5090, shape, "mxfp8", "mxfp4")
        padded = gemm_time(RTX5090, shape, "mxfp8", "mxfp4", min_tile_m=128)
        assert padded > free

    def test_lower_bits_faster_in_memory_bound(self):
        shape = GemmShape(4, 8192, 8192)
        t4 = gemm_time(RTX5090, shape, "mxfp4", "mxfp4")
        t16 = gemm_time(RTX5090, shape, "bf16", "bf16")
        assert t16 / t4 > 2.5


class TestInferenceSim:
    def test_decode_dominates_long_output(self):
        arch = ARCHS["llama-2-13b"]
        st = simulate_inference(arch, "mxfp4", 4, 1024, 64)
        assert st.decode_s > st.prefill_s

    def test_prefill_dominates_short_output(self):
        arch = ARCHS["llama-2-13b"]
        st = simulate_inference(arch, "mxfp4", 4, 1024, 4)
        assert st.prefill_s > st.decode_s

    def test_speedup_ordering(self):
        arch = ARCHS["llama-2-13b"]
        names = ("bf16", "mxfp4", "a-mxfp4+", "mxfp8", "mxfp4+", "mxfp4++", "a8w4")
        s = {n: end_to_end_speedup(arch, n, 4, 1024, 64) for n in names}
        assert s["mxfp4"] > s["mxfp8"] > s["bf16"] == 1.0
        assert s["mxfp4+"] > s["mxfp8"]

    def test_same_element_width_same_time(self):
        # MX++ and the other MXFP8 element type cost what their siblings do
        arch = ARCHS["llama-2-13b"]
        for fmt, sibling in (("mxfp6++", "mxfp6+"), ("mxfp8-e5m2", "mxfp8")):
            ours = simulate_inference(arch, fmt, 4, 1024, 64)
            theirs = simulate_inference(arch, sibling, 4, 1024, 64)
            assert ours == theirs, fmt

    def test_bigger_model_slower(self):
        t7 = simulate_inference(ARCHS["llama-2-7b"], "mxfp4", 4, 512, 16)
        t13 = simulate_inference(ARCHS["llama-2-13b"], "mxfp4", 4, 512, 16)
        assert t13.total_s > t7.total_s


class TestHardwareModel:
    def test_block_dot_exact_mxplus_mx(self):
        rng = np.random.default_rng(0)
        fx, fw = MXFP4Plus(), MXFP4()
        x = rng.standard_normal((8, 32))
        x[:, 3] *= 30
        w = rng.standard_normal((8, 32))
        ex = fx.encode(x)
        ew = fw.encode(w)
        for i in range(8):
            got = sum(dpe_block_dot(lane_view(ex, i), lane_view(ew, i)))
            ref = float(np.dot(fx(x)[i], fw(w)[i]))
            assert got == pytest.approx(ref, abs=1e-9)

    def test_block_dot_both_mxplus_same_bm(self):
        fx = MXFP4Plus()
        x = np.zeros((1, 32))
        x[0, 5] = 40.0
        x[0, 1] = 1.0
        ex = fx.encode(x)
        got = sum(dpe_block_dot(lane_view(ex, 0), lane_view(ex, 0)))
        ref = float(np.dot(fx(x)[0], fx(x)[0]))
        assert got == pytest.approx(ref, abs=1e-9)

    def test_block_dot_mxpp_deltas(self):
        rng = np.random.default_rng(1)
        fpp = MXFP4PlusPlus()
        x = rng.standard_normal((4, 32))
        x[:, 2] *= 100
        y = rng.standard_normal((4, 32))
        y[:, 9] *= 50
        ex, ey = fpp.encode(x), fpp.encode(y)
        for i in range(4):
            got = sum(dpe_block_dot(lane_view(ex, i), lane_view(ey, i)))
            ref = float(np.dot(fpp(x)[i], fpp(y)[i]))
            assert got == pytest.approx(ref, abs=1e-9)

    def test_zero_block(self):
        fx = MXFP4Plus()
        e = fx.encode(np.zeros((1, 32)))
        tree, bcu = dpe_block_dot(lane_view(e, 0), lane_view(e, 0))
        assert tree == bcu == 0.0

    def test_tensor_core_matmul_matches_dequant(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 64))
        x[:, 7] *= 25
        w = rng.standard_normal((64, 5))
        fx, fw = MXFP4Plus(), MXFP4()
        out, cycles = tensor_core_matmul(x, w, fx, fw)
        ref = fx(x) @ fw(w, axis=0)
        np.testing.assert_allclose(out, ref, atol=1e-9)
        assert cycles == 3 * 5 * 2 * 2  # M*N pairs x 2 blocks x 2 cycles

    def test_cycle_model_rates(self):
        m = DPECycleModel()
        assert m.block_pair_cycles(4) == 2
        assert m.block_pair_cycles(8) == 4
        assert m.mma_cycles(4) == 16


class TestSystolic:
    def test_matmul_exact(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 64))
        x[:, 11] *= 40
        w = rng.standard_normal((64, 8))
        arr = SystolicArray(MXFP4Plus(), MXFP4())
        res = arr.matmul(x, w)
        ref = MXFP4Plus()(x) @ MXFP4()(w, axis=0)
        np.testing.assert_allclose(res.output, ref, atol=1e-9)
        assert res.cycles > 0

    def test_rejects_misaligned_k(self):
        arr = SystolicArray(MXFP4Plus(), MXFP4())
        with pytest.raises(ValueError):
            arr.matmul(np.zeros((2, 40)), np.zeros((40, 4)))


class TestAreaPower:
    def test_table5_totals(self):
        t = tensor_core_overhead()
        assert t["area_mm2"] == pytest.approx(0.020)
        assert t["power_mw"] == pytest.approx(12.11)

    def test_component_counts(self):
        fsu = next(c for c in MXPLUS_COMPONENTS if c.name == "forward-swap-unit")
        assert fsu.instances == 32 * 16

    def test_node_scaling(self):
        assert scale_to_node(0.020, 28, 4) < 0.001


class TestConversion:
    def test_overhead_shrinks_with_m(self):
        row = table4_row([8, 4096], "mxfp4+")
        assert row[8] > row[4096]

    def test_mxpp_costs_more(self):
        t_plus = converted_matmul_time(GemmShape(8, 4096, 4096), "mxfp4+")
        t_pp = converted_matmul_time(GemmShape(8, 4096, 4096), "mxfp4++")
        t_base = converted_matmul_time(GemmShape(8, 4096, 4096), "mxfp4")
        assert t_base < t_plus < t_pp


class TestStepTimeCacheBounds:
    """A step pricer's memos are capped and cleared whole past the cap:
    clearing must only ever cost a recomputation, never change a value,
    and the counters must report faithfully."""

    ARCH = ARCHS["llama-2-7b"]

    def _pricer(self, name):
        from repro.gpu.inference import StepPricer
        from repro.serve import get_recipe

        return StepPricer(RTX5090, self.ARCH, get_recipe(name))

    def _sweep(self, pricer, n=24):
        return [
            pricer.price([(1, 128 + 16 * i), (1, 96 + 8 * i)]) for i in range(n)
        ]

    def test_eviction_never_changes_values(self, monkeypatch):
        import repro.gpu.inference as inference

        unbounded = self._sweep(self._pricer("mxfp4+"))
        # Tiny caps: the memos are cleared over and over; values must not move.
        monkeypatch.setattr(inference, "ROWS_MEMO_CAP", 2)
        monkeypatch.setattr(inference, "ATTENTION_MEMO_CAP", 3)
        pricer = self._pricer("mxfp4+")
        bounded = self._sweep(pricer)
        assert bounded == unbounded
        info = pricer.cache_info()
        assert info["attention"]["size"] <= 3
        assert info["rows"]["size"] <= 2

    def test_cache_info_reports_hits_misses_size(self):
        pricer = self._pricer("mxfp4")
        pricer.price([(4, 256)])
        pricer.price([(4, 256)])
        info = pricer.cache_info()
        assert (info["hits"], info["misses"]) == (2, 2)
        for sub in ("attention", "rows"):
            assert (info[sub]["hits"], info[sub]["misses"], info[sub]["size"]) == (
                1, 1, 1,
            )
        # hit rate is derivable and sane
        assert 0.0 <= info["hits"] / (info["hits"] + info["misses"]) <= 1.0

    def test_clear_resets_under_new_bound(self, monkeypatch):
        import repro.gpu.inference as inference
        from repro.gpu.inference import clear_step_time_cache

        monkeypatch.setattr(inference, "ROWS_MEMO_CAP", 4)
        monkeypatch.setattr(inference, "ATTENTION_MEMO_CAP", 8)
        pricer = self._pricer("mxfp4+")
        first = self._sweep(pricer, n=8)
        clear_step_time_cache()
        info = pricer.cache_info()
        assert (info["hits"], info["misses"]) == (0, 0)
        for sub in ("attention", "rows"):
            assert (info[sub]["hits"], info[sub]["misses"]) == (0, 0)
        # the caps survive the reset and still enforce; values never move
        assert self._sweep(pricer, n=8) == first
        info = pricer.cache_info()
        assert info["rows"]["size"] <= 4 and info["attention"]["size"] <= 8

    def test_counted_decode_groups_match_per_row_triples(self, monkeypatch):
        # The pricer merges rows sharing (ctx, kind) before pricing, so one
        # (n, ctx, "decode") triple per context must price exactly as one
        # (1, ctx, "decode") triple per row and probe every memo the same way.
        from collections import Counter

        import repro.gpu.inference as inference

        steps = [
            ([(512, 512, "prefill")], []),  # whole-prompt prefill
            ([], [300, 301, 300, 512, 301]),  # decode rows sharing contexts
            ([(64, 256, "prefill"), (0, 9, "prefill"), (32, 256, "prefill")],
             [256, 256, 400]),  # mixed
            ([(2, 400, "decode")], [400, 7]),  # merges with a tagged decode group
            ([(3, 128)], [128]),  # untagged groups never merge with decode rows
            ([], [100 + i for i in range(20)]),  # a wide decode step
            ([], []),
        ]
        for name in ("mxfp4+", "mxfp4"):
            for limit in (1 << 18, 3):  # roomy, then clearing on most misses
                monkeypatch.setattr(inference, "ATTENTION_MEMO_CAP", limit)
                per_row_pricer = self._pricer(name)
                per_row = [
                    per_row_pricer.price(groups + [(1, c, "decode") for c in ctxs])
                    for groups, ctxs in steps
                ]
                counted_pricer = self._pricer(name)
                counted = [
                    counted_pricer.price(
                        groups + [(n, c, "decode") for c, n in Counter(ctxs).items()]
                    )
                    for groups, ctxs in steps
                ]
                assert counted == per_row
                assert counted_pricer.cache_info() == per_row_pricer.cache_info()
