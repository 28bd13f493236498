"""Tests for the unified serving API: QuantRecipe, the recipe/format
registries, and the continuous-batching ServingEngine."""

import numpy as np
import pytest

from repro.core.registry import available_formats, get_format, register_format
from repro.gpu.inference import simulate_inference, step_time
from repro.gpu.spec import RTX5090
from repro.models.zoo import ARCHS, load_model
from repro.nn.quantize import QuantContext, as_context
from repro.serve import (
    QuantRecipe,
    Request,
    ServingEngine,
    available_recipes,
    get_recipe,
    register_recipe,
)

ARCH = ARCHS["llama-2-7b"]


class TestRecipeParsing:
    def test_plain_format(self):
        r = QuantRecipe.from_name("mxfp4")
        assert r.act == r.weight == "mxfp4"
        assert r.integration == "none"

    def test_plus_format_implies_hardware(self):
        r = QuantRecipe.from_name("mxfp4+")
        assert r.integration == "hardware"

    def test_activation_only_software(self):
        r = QuantRecipe.from_name("a-mxfp4+")
        assert r.act == "mxfp4+" and r.weight == "mxfp4"
        assert r.integration == "software"

    def test_baseline_aliases(self):
        assert QuantRecipe.from_name("baseline") == QuantRecipe.from_name("bf16")

    def test_case_insensitive(self):
        assert QuantRecipe.from_name("A-MXFP4+") == QuantRecipe.from_name("a-mxfp4+")
        assert QuantRecipe.from_name("  MXFP8 ") == QuantRecipe.from_name("mxfp8")

    def test_role_spec(self):
        r = QuantRecipe.from_name("a:mxfp8,w:mxfp4,kv:mxfp8")
        assert (r.act, r.weight, r.kv) == ("mxfp8", "mxfp4", "mxfp8")

    def test_role_spec_bf16(self):
        r = QuantRecipe.from_name("a:bf16,w:mxfp4")
        assert r.act == "bf16" and r.weight == "mxfp4"

    def test_unknown_role_raises(self):
        with pytest.raises(KeyError, match="unknown role"):
            QuantRecipe.from_name("a:mxfp4,z:mxfp4")

    def test_unknown_name_suggests_near_misses(self):
        with pytest.raises(KeyError) as err:
            QuantRecipe.from_name("mxfp4x")
        assert "did you mean" in str(err.value)
        assert "mxfp4" in str(err.value)

    def test_round_trip_every_registered_recipe(self):
        for name in available_recipes():
            recipe = get_recipe(name)
            assert QuantRecipe.from_name(recipe.name) == recipe


class TestRecipeValidation:
    def test_unknown_act_format(self):
        with pytest.raises(KeyError, match="unknown act format"):
            QuantRecipe("bad", act="mxfp5")

    def test_bad_integration(self):
        with pytest.raises(ValueError, match="integration"):
            QuantRecipe("bad", act="mxfp4", weight="mxfp4", integration="cuda")

    def test_integration_requires_mx_plus(self):
        with pytest.raises(ValueError, match="MX\\+ family"):
            QuantRecipe("bad", act="mxfp4", weight="mxfp4", integration="hardware")

    def test_kv_bf16_rejected(self):
        with pytest.raises(ValueError, match="attention='bf16'"):
            QuantRecipe("bad", act="mxfp4", weight="mxfp4", kv="bf16")

    def test_min_tile_m(self):
        with pytest.raises(ValueError, match="min_tile_m"):
            QuantRecipe("bad", min_tile_m=0)

    def test_frozen(self):
        with pytest.raises(Exception):
            QuantRecipe.from_name("mxfp4").act = "mxfp8"


class TestRecipeAdapters:
    def test_to_context_formats(self):
        qc = get_recipe("a-mxfp4+").to_context()
        assert qc.act.name == "mxfp4+" and qc.weight.name == "mxfp4"
        assert qc.quantize_lm_head and qc.quantize_attention

    def test_to_context_bf16_roles(self):
        qc = get_recipe("bf16").to_context()
        assert qc.act is None and qc.weight is None

    def test_linear_only_scope(self):
        qc = QuantRecipe("t7", act="mxfp4", weight="mxfp4", scope="linear-only").to_context()
        assert not qc.quantize_lm_head and not qc.quantize_attention

    def test_lm_head_bf16(self):
        qc = QuantRecipe("wo-head", act="mxfp4", weight="mxfp4", lm_head="bf16").to_context()
        assert not qc.quantize_lm_head

    def test_lm_head_override(self):
        qc = QuantRecipe("hi-head", act="mxfp4", weight="mxfp4", lm_head="mxfp8").to_context()
        assert qc.lm_head.name == "mxfp8"
        assert qc.head_context().weight.name == "mxfp8"

    def test_attention_bf16(self):
        qc = QuantRecipe("no-attn", act="mxfp4", weight="mxfp4", attention="bf16").to_context()
        assert not qc.quantize_attention

    def test_kv_override(self):
        qc = QuantRecipe("kv8", act="mxfp4", weight="mxfp4", kv="mxfp8").to_context()
        assert qc.kv.name == "mxfp8"

    def test_as_context_accepts_all_surfaces(self):
        recipe = get_recipe("mxfp4")
        assert as_context(None) is None
        assert as_context(recipe).act.name == "mxfp4"
        assert as_context("mxfp4").act.name == "mxfp4"
        qc = QuantContext()
        assert as_context(qc) is qc
        with pytest.raises(TypeError):
            as_context(3.14)

    def test_named_delegates_to_recipes(self):
        qc = QuantContext.named("a8w4")
        assert qc.act.name == "mxfp8" and qc.weight.name == "mxfp4"


class TestRecipeRegistry:
    def test_register_duplicate_raises(self):
        with pytest.raises(ValueError, match="already registered"):
            register_recipe(QuantRecipe("mxfp4", act="mxfp4", weight="mxfp4"))

    def test_register_overwrite_and_custom(self):
        recipe = QuantRecipe("test-custom-recipe", act="mxfp8", weight="mxfp4")
        try:
            register_recipe(recipe)
            assert get_recipe("test-custom-recipe") == recipe
            replacement = recipe.with_(kv="mxfp8")
            register_recipe(replacement, overwrite=True)
            assert get_recipe("test-custom-recipe") == replacement
            assert QuantRecipe.from_name("test-custom-recipe") == replacement
        finally:
            from repro.serve.recipe import _RECIPES

            _RECIPES.pop("test-custom-recipe", None)

    def test_get_recipe_unknown_suggests(self):
        with pytest.raises(KeyError, match="did you mean"):
            get_recipe("mxfp4plus")

    def test_available_recipes_sorted(self):
        names = available_recipes()
        assert names == sorted(names)


class TestFormatRegistry:
    def test_register_duplicate_raises(self):
        with pytest.raises(ValueError, match="already registered"):
            register_format("mxfp4", lambda: get_format("mxfp4"))

    def test_register_overwrite_allowed(self):
        factory = lambda: get_format("mxfp4")
        try:
            register_format("test-custom-fmt", factory)
            register_format("test-custom-fmt", factory, overwrite=True)
            assert "test-custom-fmt" in available_formats()
        finally:
            from repro.core.registry import _REGISTRY

            _REGISTRY.pop("test-custom-fmt", None)

    def test_available_formats_sorted(self):
        names = available_formats()
        assert names == sorted(names)

    def test_get_format_suggests(self):
        with pytest.raises(KeyError, match="did you mean"):
            get_format("mxfp44")


class TestStepTime:
    def test_single_group_matches_forward(self):
        cfg = get_recipe("mxfp4")
        st = simulate_inference(ARCH, cfg, batch=2, prompt_len=128, output_len=0)
        assert step_time(RTX5090, ARCH, cfg, [(2 * 128, 128)]) == st.prefill_s

    def test_groups_merge_by_ctx(self):
        cfg = get_recipe("mxfp4")
        merged = step_time(RTX5090, ARCH, cfg, [(4, 64), (4, 64)])
        assert merged == step_time(RTX5090, ARCH, cfg, [(8, 64)])

    def test_distinct_ctx_costs_more_than_merged(self):
        cfg = get_recipe("mxfp4")
        split = step_time(RTX5090, ARCH, cfg, [(4, 64), (4, 96)])
        merged = step_time(RTX5090, ARCH, cfg, [(8, 96)])
        assert split == pytest.approx(merged, rel=0.25)

    def test_empty_step_is_free(self):
        assert step_time(RTX5090, ARCH, get_recipe("mxfp4"), []) == 0.0


class TestServingEngine:
    def test_uniform_batch_reconciles_with_simulator(self):
        recipe = get_recipe("mxfp4+")
        engine = ServingEngine(ARCH, recipe)
        result = engine.run(
            [Request(f"r{i}", prompt_len=512, max_new_tokens=32) for i in range(8)]
        )
        sim = simulate_inference(ARCH, recipe, batch=8, prompt_len=512, output_len=32)
        assert result.makespan_s == pytest.approx(sim.total_s, rel=1e-2)
        assert result.stages.prefill_s == pytest.approx(sim.prefill_s, rel=1e-9)
        assert result.stages.decode_s == pytest.approx(sim.decode_s, rel=1e-9)
        # TTFT = prefill + first decode step for every request.
        first_decode = step_time(RTX5090, ARCH, recipe, [(8, 512)])
        for resp in result.responses:
            assert resp.ttft_s == pytest.approx(sim.prefill_s + first_decode, rel=1e-9)
            assert resp.output_len == 32

    def test_mixed_batch_continuous_batching(self):
        engine = ServingEngine(ARCH, "mxfp4", kv_token_budget=16_384)
        requests = [
            Request(
                f"r{i}",
                prompt_len=128 * (1 + i % 4),
                max_new_tokens=8 + 4 * (i % 3),
                arrival_s=0.005 * i,
            )
            for i in range(10)
        ]
        result = engine.run(requests)
        assert [r.request_id for r in result.responses] == [r.request_id for r in requests]
        assert all(r.output_len == q.max_new_tokens for r, q in zip(result.responses, requests))
        assert all(r.first_token_s > r.arrival_s for r in result.responses)
        assert all(r.finish_s >= r.first_token_s for r in result.responses)
        # Late arrivals join mid-flight: more than one prefill step ran.
        assert result.n_prefill_steps > 1
        assert result.makespan_s == max(r.finish_s for r in result.responses)
        assert result.throughput_tok_s > 0

    def test_tight_budget_preempts_and_completes(self):
        # Three prompts fit the budget (3 x 160 = 480), but decode growth
        # (+3 tokens/step) overflows it, forcing mid-flight eviction.
        engine = ServingEngine(ARCH, "mxfp4", kv_token_budget=500)
        requests = [
            Request(f"r{i}", prompt_len=160, max_new_tokens=60) for i in range(4)
        ]
        result = engine.run(requests)
        assert all(r.output_len == 60 for r in result.responses)
        assert result.preemptions > 0
        relaxed = ServingEngine(ARCH, "mxfp4").run(requests)
        assert relaxed.preemptions == 0
        assert relaxed.makespan_s < result.makespan_s

    def test_staggered_arrivals_idle_gap(self):
        engine = ServingEngine(ARCH, "mxfp4")
        result = engine.run(
            [
                Request("early", prompt_len=64, max_new_tokens=2),
                Request("late", prompt_len=64, max_new_tokens=2, arrival_s=100.0),
            ]
        )
        early, late = result.responses
        assert early.finish_s < 100.0
        assert late.first_token_s > 100.0
        assert late.ttft_s < early.finish_s  # no queueing: engine was idle

    def test_request_validation(self):
        with pytest.raises(ValueError, match="empty prompt"):
            Request("bad", prompt_len=0)
        with pytest.raises(ValueError, match="max_new_tokens"):
            Request("bad", prompt_len=8, max_new_tokens=0)
        engine = ServingEngine(ARCH, "mxfp4", kv_token_budget=128)
        with pytest.raises(ValueError, match="cannot hold"):
            engine.run([Request("big", prompt_len=256, max_new_tokens=8)])
        with pytest.raises(ValueError, match="duplicate"):
            ServingEngine(ARCH, "mxfp4").run(
                [Request("x", prompt_len=8), Request("x", prompt_len=8)]
            )

    def test_empty_run(self):
        result = ServingEngine(ARCH, "mxfp4").run([])
        assert result.responses == [] and result.makespan_s == 0.0
        assert result.mean_ttft_s == result.mean_tpot_s == 0.0

    def test_requests_with_tokens_compare_and_hash(self):
        a = Request("a", prompt_tokens=np.arange(4), max_new_tokens=2)
        b = Request("a", prompt_tokens=np.arange(4), max_new_tokens=2)
        assert a == b  # token payload excluded from value semantics
        assert len({a, b}) == 1


class TestNumericMode:
    @pytest.fixture(scope="class")
    def tiny(self):
        return load_model("test-tiny")

    def test_tokens_match_generate(self, tiny):
        recipe = get_recipe("mxfp4+")
        engine = ServingEngine(ARCHS["llama-2-7b"], recipe, model=tiny)
        rng = np.random.default_rng(0)
        prompts = [rng.integers(0, tiny.config.vocab_size, 12) for _ in range(3)]
        result = engine.run(
            [
                Request(f"r{i}", prompt_tokens=p, max_new_tokens=6)
                for i, p in enumerate(prompts)
            ]
        )
        qc = recipe.to_context()
        for prompt, resp in zip(prompts, result.responses):
            expected = tiny.generate(prompt, 6, qc)
            np.testing.assert_array_equal(resp.tokens, expected)
            assert resp.ttft_s > 0 and resp.tpot_s > 0
