"""Tests for the paged KV cache: block accounting, byte sizing, shared
prefixes, eviction, and the flat-budget shim equivalence."""

import pytest

from repro.core.elem import E2M3
from repro.core.mx import MXFP4, MXFormat
from repro.core.registry import available_formats, get_format, register_format
from repro.gpu.inference import StepPricer
from repro.gpu.spec import FORMAT_BITS, RTX5090, format_storage_bits
from repro.models.zoo import ARCHS
from repro.serve import (
    KVTransfer,
    PagedKVCache,
    QuantRecipe,
    Request,
    ServingEngine,
    get_recipe,
    kv_token_bytes,
)

ARCH = ARCHS["llama-2-13b"]


class TestByteAccounting:
    def test_format_bits_calibrated_table(self):
        assert format_storage_bits("bf16") == 16.0
        assert format_storage_bits("mxfp4") == 4.25
        assert format_storage_bits("mxfp4+") == 4.5

    def test_format_bits_fallback_to_encoder(self):
        # Only the baseline floats are in FORMAT_BITS; every registered
        # format's width is its encoder's bits_per_element().
        assert format_storage_bits("mxint8") == pytest.approx(8.25)
        assert set(FORMAT_BITS) == {"bf16", "fp16", "fp32"}
        for name in available_formats():
            assert format_storage_bits(name) == get_format(name).bits_per_element()
        # A re-registered name is seen at once by a new pricer and by the
        # KV accounting: nothing caches a format's width or rate.
        bits4 = kv_token_bytes(ARCH, "mxfp4")
        register_format("mxfp4", lambda: MXFormat(E2M3, name="mxfp4"), overwrite=True)
        try:
            assert kv_token_bytes(ARCH, "mxfp4") == kv_token_bytes(ARCH, "mxfp6")
            groups = [(4096, 1024), (4, 2048)]
            assert StepPricer(RTX5090, ARCH, "mxfp4").price(groups) == StepPricer(
                RTX5090, ARCH, "mxfp6"
            ).price(groups)
        finally:
            register_format("mxfp4", MXFP4, overwrite=True)
        assert kv_token_bytes(ARCH, "mxfp4") == bits4

    def test_kv_token_bytes_formula(self):
        # 2 (K,V) * n_layers * kv_dim * bits/8
        expected = 2 * ARCH.n_layers * ARCH.n_kv_heads * ARCH.head_dim * 2.0
        assert kv_token_bytes(ARCH, "bf16") == expected
        # Recipe names resolve like every other serving entry point; the
        # KV format follows the activations (a8w4: mxfp8, a-mxfp4+: mxfp4+).
        for name, want in (
            ("baseline", expected),
            ("a8w4", 422400.0),
            ("a-mxfp4+", 230400.0),
        ):
            assert kv_token_bytes(ARCH, name) == want
            assert PagedKVCache.from_byte_budget(1 << 30, ARCH, name).token_bytes == want
            assert KVTransfer().migration_bytes(ARCH, name, 10) == 10 * want

    def test_kv_token_bytes_resolves_recipe_kv_format(self):
        recipe = get_recipe("mxfp4+")
        assert recipe.kv_format == "mxfp4+"
        assert kv_token_bytes(ARCH, recipe) == kv_token_bytes(ARCH, "mxfp4+")
        mixed = QuantRecipe.from_name("a:mxfp8,w:mxfp4,kv:mxfp4")
        assert kv_token_bytes(ARCH, mixed) == kv_token_bytes(ARCH, "mxfp4")

    def test_byte_budget_capacity_ordering(self):
        budget = 4 << 30
        caps = {
            fmt: PagedKVCache.from_byte_budget(budget, ARCH, fmt).capacity_tokens
            for fmt in ("bf16", "mxfp8", "mxfp4+", "mxfp4")
        }
        assert caps["mxfp4"] > caps["mxfp4+"] > caps["mxfp8"] > caps["bf16"]
        # MX+ KV holds >3x the BF16 tokens at the same budget.
        assert caps["mxfp4+"] > 3 * caps["bf16"]

    def test_bytes_properties(self):
        kv = PagedKVCache.from_byte_budget(1 << 30, ARCH, "bf16", block_tokens=16)
        assert kv.token_bytes == kv_token_bytes(ARCH, "bf16")
        assert kv.capacity_bytes <= 1 << 30
        assert kv.used_bytes == 0.0
        assert PagedKVCache(4).capacity_bytes is None


class TestAllocation:
    def test_private_block_rounding(self):
        kv = PagedKVCache(num_blocks=4, block_tokens=16)
        assert kv.try_allocate("a", tokens=17) == 0
        assert kv.used_blocks == 2  # ceil(17/16)
        kv.free("a")
        assert kv.used_blocks == 0

    def test_rejects_when_full(self):
        kv = PagedKVCache(num_blocks=2, block_tokens=16)
        assert kv.try_allocate("a", tokens=32) == 0
        assert not kv.can_allocate(1)
        assert kv.try_allocate("b", tokens=1) is None
        assert kv.stats()["failed_allocations"] == 1

    def test_can_allocate_is_pure(self):
        kv = PagedKVCache(num_blocks=2, block_tokens=16)
        kv.try_allocate("a", tokens=32)
        for _ in range(10):
            assert not kv.can_allocate(16)
        assert kv.stats()["failed_allocations"] == 0

    def test_queued_head_does_not_inflate_failure_counter(self):
        # _admit polls the blocked head every decode step; only genuine
        # try_allocate attempts may count as failures.
        engine = ServingEngine(ARCH, "mxfp4", kv_token_budget=2048)
        requests = [
            Request(f"r{i}", prompt_len=1000, max_new_tokens=200)
            for i in range(4)
        ]
        result = engine.run(requests)
        assert all(r.output_len == 200 for r in result.responses)
        assert result.kv["failed_allocations"] == 0

    def test_duplicate_and_bad_args(self):
        kv = PagedKVCache(num_blocks=4, block_tokens=4)
        kv.try_allocate("a", tokens=4)
        with pytest.raises(ValueError, match="already allocated"):
            kv.try_allocate("a", tokens=4)
        with pytest.raises(ValueError, match="tokens"):
            kv.try_allocate("b", tokens=0)
        with pytest.raises(ValueError, match="prefix_len"):
            kv.try_allocate("b", tokens=4, prefix_id="p", prefix_len=8)

    def test_append_token_page_boundary(self):
        kv = PagedKVCache(num_blocks=3, block_tokens=4)
        kv.try_allocate("a", tokens=4)  # exactly one full page
        assert kv.append_blocks_needed(["a"]) == 1
        kv.append_token("a")
        assert kv.used_blocks == 2
        for _ in range(3):  # fill page 2: no new page needed
            assert kv.append_blocks_needed(["a"]) == 0
            kv.append_token("a")
        assert kv.used_blocks == 2
        assert kv.seq_tokens("a") == 8

    def test_append_overflow_raises(self):
        kv = PagedKVCache(num_blocks=1, block_tokens=4)
        kv.try_allocate("a", tokens=4)
        with pytest.raises(RuntimeError, match="overflow"):
            kv.append_token("a")

    def test_token_budget_never_exceeds_budget(self):
        # Rounds down to whole pages; sub-page budgets are an error.
        assert PagedKVCache.from_token_budget(1000, block_tokens=16).capacity_tokens == 992
        with pytest.raises(ValueError, match="smaller than one"):
            PagedKVCache.from_token_budget(10, block_tokens=16)

    def test_failed_run_does_not_leak_allocations(self):
        # Exceptions mid-run must free this run's sequences: the cache
        # persists across runs, so leaked pages would be lost forever.
        import numpy as np

        class Boom:
            config = type("C", (), {"max_seq": 64})()

            def __call__(self, *a, **k):
                raise RuntimeError("forward exploded")

        recipe = get_recipe("mxfp4")
        engine = ServingEngine(ARCH, recipe, kv_token_budget=4096, model=Boom())
        req = Request("r0", prompt_tokens=np.arange(8), max_new_tokens=4)
        with pytest.raises(RuntimeError, match="forward exploded"):
            engine.run([req])
        assert engine.kv_cache.stats()["resident_seqs"] == 0
        # The engine stays usable: the same request id re-admits cleanly.
        timing_only = ServingEngine(ARCH, recipe, kv_cache=engine.kv_cache)
        result = timing_only.run([Request("r0", prompt_len=8, max_new_tokens=4)])
        assert result.responses[0].output_len == 4


class TestPrefixSharing:
    def test_hit_accounting(self):
        kv = PagedKVCache(num_blocks=32, block_tokens=8)
        assert kv.try_allocate("a", tokens=40, prefix_id="sys", prefix_len=24) == 0
        assert kv.try_allocate("b", tokens=40, prefix_id="sys", prefix_len=24) == 24
        stats = kv.stats()
        assert stats["prefix_hits"] == 1
        assert stats["prefix_misses"] == 1
        assert stats["prefix_tokens_reused"] == 24
        # prefix pages counted once: 3 shared + 2x2 private
        assert kv.used_blocks == 3 + 2 * 2

    def test_only_full_blocks_shared(self):
        kv = PagedKVCache(num_blocks=32, block_tokens=8)
        kv.try_allocate("a", tokens=16, prefix_id="sys", prefix_len=13)
        # 13 // 8 = 1 full block (8 tokens) shared; 8 private tokens -> 1 page
        assert kv.try_allocate("b", tokens=16, prefix_id="sys", prefix_len=13) == 8
        assert kv.cached_prefix_tokens("sys", 13) == 8

    def test_sub_block_prefix_never_shared(self):
        kv = PagedKVCache(num_blocks=8, block_tokens=16)
        assert kv.try_allocate("a", tokens=32, prefix_id="sys", prefix_len=8) == 0
        assert kv.try_allocate("b", tokens=32, prefix_id="sys", prefix_len=8) == 0
        assert kv.stats()["prefix_misses"] == 0

    def test_prefix_survives_free_then_hits(self):
        kv = PagedKVCache(num_blocks=16, block_tokens=8)
        kv.try_allocate("a", tokens=32, prefix_id="sys", prefix_len=16)
        kv.free("a")
        assert kv.reclaimable_blocks == 2
        assert kv.try_allocate("b", tokens=32, prefix_id="sys", prefix_len=16) == 16
        assert kv.reclaimable_blocks == 0

    def test_idle_prefix_evicted_under_pressure(self):
        kv = PagedKVCache(num_blocks=4, block_tokens=8)
        kv.try_allocate("a", tokens=16, prefix_id="sys", prefix_len=16)
        kv.free("a")  # 2 idle prefix pages cached
        assert kv.try_allocate("b", tokens=32) == 0  # needs all 4 pages
        assert kv.stats()["prefix_evictions"] == 1
        assert kv.cached_prefix_tokens("sys", 16) == 0

    def test_hit_prefix_protected_from_own_eviction(self):
        kv = PagedKVCache(num_blocks=4, block_tokens=8)
        kv.try_allocate("a", tokens=16, prefix_id="sys", prefix_len=16)
        kv.free("a")  # sys idle: 2 pages
        # Needs 2 private pages + hits sys: must NOT evict sys to fit.
        assert kv.try_allocate("b", tokens=32, prefix_id="sys", prefix_len=16) == 16
        assert kv.stats()["prefix_evictions"] == 0

    def test_failed_alloc_keeps_warm_prefixes(self):
        kv = PagedKVCache(num_blocks=4, block_tokens=8)
        kv.try_allocate("a", tokens=16, prefix_id="sys", prefix_len=16)
        kv.free("a")
        # 40 tokens needs 5 pages > 4 total: fails without evicting sys.
        assert kv.try_allocate("b", tokens=40) is None
        assert kv.cached_prefix_tokens("sys", 16) == 16
        assert kv.stats()["prefix_evictions"] == 0

    def test_drop_idle_prefixes(self):
        kv = PagedKVCache(num_blocks=16, block_tokens=8)
        kv.try_allocate("a", tokens=16, prefix_id="s1", prefix_len=16)
        kv.try_allocate("b", tokens=16, prefix_id="s2", prefix_len=16)
        kv.free("a")
        assert kv.drop_idle_prefixes() == 2  # s1 only; s2 still referenced
        assert kv.stats()["cached_prefixes"] == 1


class TestFlatBudgetShim:
    """block_tokens=1 + no prefixes must equal the PR-1 flat counter."""

    def test_engine_default_is_flat(self):
        engine = ServingEngine(ARCH, "mxfp4", kv_token_budget=1234)
        assert engine.kv_cache.block_tokens == 1
        assert engine.kv_cache.capacity_tokens == 1234
        assert engine.kv_token_budget == 1234

    def test_flat_vs_paged_same_results_when_roomy(self):
        requests = [
            Request(f"r{i}", prompt_len=128 + 32 * i, max_new_tokens=16)
            for i in range(6)
        ]
        flat = ServingEngine(ARCH, "mxfp4", kv_token_budget=65_536).run(requests)
        paged = ServingEngine(
            ARCH, "mxfp4",
            kv_cache=PagedKVCache.from_token_budget(65_536, block_tokens=16),
        ).run(requests)
        assert flat.makespan_s == paged.makespan_s
        assert [r.ttft_s for r in flat.responses] == [r.ttft_s for r in paged.responses]

    def test_tight_budget_preempts_same_as_pr1(self):
        # Mirrors tests/test_serve.py::test_tight_budget_preempts_and_completes
        engine = ServingEngine(ARCH, "mxfp4", kv_token_budget=500)
        requests = [Request(f"r{i}", prompt_len=160, max_new_tokens=60) for i in range(4)]
        result = engine.run(requests)
        assert all(r.output_len == 60 for r in result.responses)
        assert result.preemptions > 0
        assert result.kv["resident_seqs"] == 0  # all freed at completion


class TestEnginePrefixServing:
    def test_prefix_hits_lower_ttft(self):
        chat = [
            Request(f"c{i}", prompt_len=640, max_new_tokens=8,
                    arrival_s=0.05 * i, prefix_id="sys", prefix_len=512)
            for i in range(6)
        ]
        plain = [
            Request(r.request_id, prompt_len=r.prompt_len,
                    max_new_tokens=r.max_new_tokens, arrival_s=r.arrival_s)
            for r in chat
        ]
        kv = PagedKVCache.from_token_budget(65_536, block_tokens=16)
        shared = ServingEngine(ARCH, "mxfp4+", kv_cache=kv).run(chat)
        base = ServingEngine(ARCH, "mxfp4+", kv_token_budget=65_536).run(plain)
        assert shared.kv["prefix_hits"] == 5
        assert shared.mean_ttft_s < base.mean_ttft_s
        # First request (miss) pays the full prefill either way.
        assert shared.responses[0].ttft_s == pytest.approx(
            base.responses[0].ttft_s, rel=1e-6
        )

    def test_warm_cache_across_runs(self):
        kv = PagedKVCache.from_token_budget(65_536, block_tokens=16)
        engine = ServingEngine(ARCH, "mxfp4+", kv_cache=kv)
        req = [Request("a", prompt_len=544, max_new_tokens=4,
                       prefix_id="sys", prefix_len=512)]
        engine.run(req)
        second = engine.run(
            [Request("b", prompt_len=544, max_new_tokens=4,
                     prefix_id="sys", prefix_len=512)]
        )
        assert second.kv["prefix_hits"] == 1  # warm from the first run

    def test_request_prefix_validation(self):
        with pytest.raises(ValueError, match="prefix_len without prefix_id"):
            Request("bad", prompt_len=64, prefix_len=32)
        with pytest.raises(ValueError, match="exceeds prompt_len"):
            Request("bad", prompt_len=64, prefix_id="sys", prefix_len=128)
        with pytest.raises(ValueError, match="negative prefix_len"):
            Request("bad", prompt_len=64, prefix_id="sys", prefix_len=-1)
