"""Unit tests for the repro.tune autotuner and its recipe threading."""

import json

import numpy as np
import pytest

from repro.gpu.inference import step_time
from repro.gpu.spec import RTX5090
from repro.models.zoo import ARCHS
from repro.nn.transformer import TransformerConfig, TransformerLM
from repro.serve.recipe import QuantRecipe, get_recipe
from repro.tune import (
    CostModel,
    FrontierPoint,
    ParetoFrontier,
    SensitivityReport,
    evolutionary_search,
    greedy_bit_descent,
    probe_recipe,
    recipe_from_assignment,
)

ARCH = ARCHS["llama-2-7b"]


def _point(name, ppl, tok_s, origin="search"):
    return FrontierPoint(
        recipe=QuantRecipe.from_name(name),
        perplexity=ppl,
        tokens_per_s=tok_s,
        kv_bytes_per_token=1.0,
        origin=origin,
    )


class TestFrontier:
    def test_dominance(self):
        a = _point("mxfp4", 10.0, 100.0)
        b = _point("mxfp8", 12.0, 90.0)
        c = _point("mxfp6", 10.0, 100.0)
        assert a.dominates(b)
        assert not b.dominates(a)
        assert not a.dominates(c) and not c.dominates(a)  # equal: no strict edge

    def test_add_evicts_dominated(self):
        f = ParetoFrontier()
        assert f.add(_point("mxfp8", 12.0, 90.0))
        assert f.add(_point("mxfp4", 10.0, 100.0))  # dominates mxfp8
        assert [p.recipe.name for p in f] == ["mxfp4"]
        assert not f.add(_point("mxfp6", 11.0, 95.0))  # dominated on arrival

    def test_duplicate_coordinates_keep_first(self):
        f = ParetoFrontier()
        assert f.add(_point("mxfp4", 10.0, 100.0))
        assert not f.add(_point("mxfp6", 10.0, 100.0))
        assert [p.recipe.name for p in f] == ["mxfp4"]

    def test_sorted_and_best_under(self):
        f = ParetoFrontier()
        f.add(_point("bf16", 9.0, 50.0))
        f.add(_point("mxfp4", 12.0, 100.0))
        f.add(_point("mxfp8", 10.0, 80.0))
        assert [p.recipe.name for p in f] == ["bf16", "mxfp8", "mxfp4"]
        assert f.best_under(10.5).recipe.name == "mxfp8"
        assert f.best_under(8.0) is None

    def test_save_load_roundtrip(self, tmp_path):
        f = ParetoFrontier()
        f.add(_point("mxfp4", 10.0, 100.0))
        f.add(_point("mxfp8", 9.0, 80.0, origin="uniform"))
        path = tmp_path / "frontier.json"
        f.save(path)
        g = ParetoFrontier.load(path)
        assert [p.recipe for p in g] == [p.recipe for p in f]
        assert [p.origin for p in g] == ["uniform", "search"]
        # deterministic serialization
        g.save(tmp_path / "again.json")
        assert path.read_text() == (tmp_path / "again.json").read_text()

    def test_register_roundtrip(self):
        from repro.serve.recipe import _RECIPES

        f = ParetoFrontier()
        recipe = QuantRecipe(
            "tuned-test-roundtrip", act="mxfp4", weight="mxfp4",
            kv="mxfp4-k64", layer_overrides={0: "mxfp4+"}, n_layer_groups=2,
            integration="hardware",
        )
        f.add(FrontierPoint(recipe, 10.0, 100.0, 1.0))
        try:
            f.register()
            assert get_recipe("tuned-test-roundtrip") == recipe
        finally:
            _RECIPES.pop("tuned-test-roundtrip", None)


class TestRecipeOverrides:
    def test_dict_normalized_to_sorted_tuple(self):
        r = QuantRecipe("m", act="mxfp4", weight="mxfp4",
                        layer_overrides={3: "mxfp4+", 1: "mxfp8"})
        assert r.layer_overrides == ((1, "mxfp8"), (3, "mxfp4+"))
        assert r.overrides == {1: "mxfp8", 3: "mxfp4+"}
        assert hash(r)  # stays hashable for registries and memo keys

    def test_validation(self):
        with pytest.raises(KeyError, match="unknown layer 0 format"):
            QuantRecipe("m", layer_overrides={0: "nope"})
        with pytest.raises(ValueError, match="negative layer"):
            QuantRecipe("m", layer_overrides={-1: "mxfp4"})
        with pytest.raises(ValueError, match="duplicate layer"):
            QuantRecipe("m", layer_overrides=((0, "mxfp4"), (0, "mxfp8")))
        with pytest.raises(ValueError, match="outside the declared"):
            QuantRecipe("m", layer_overrides={2: "mxfp4"}, n_layer_groups=2)

    def test_overrides_satisfy_integration_requirement(self):
        r = QuantRecipe("m", act="mxfp4", weight="mxfp4",
                        layer_overrides={0: "mxfp4+"}, integration="hardware")
        assert r.integration == "hardware"
        with pytest.raises(ValueError, match="requires an MX"):
            QuantRecipe("m", act="mxfp4", weight="mxfp4", integration="hardware")

    def test_spread_overrides(self):
        r = QuantRecipe("m", act="mxfp4", weight="mxfp4",
                        layer_overrides={1: "mxfp4+"}, n_layer_groups=2)
        assert r.spread_overrides(4) == {2: "mxfp4+", 3: "mxfp4+"}
        assert r.spread_overrides(2) == {1: "mxfp4+"}
        # physical indexing passes through, dropping out-of-range layers
        p = QuantRecipe("m", act="mxfp4", weight="mxfp4",
                        layer_overrides={0: "mxfp4+", 7: "mxfp8"})
        assert p.spread_overrides(4) == {0: "mxfp4+"}

    def test_dict_roundtrip_with_overrides(self):
        r = QuantRecipe("m", act="mxfp4", weight="mxfp4", kv="mxfp4-k64",
                        lm_head="mxfp4+", layer_overrides={1: "mxfp4+"},
                        n_layer_groups=2, integration="hardware")
        assert QuantRecipe.from_dict(r.to_dict()) == r
        assert json.loads(json.dumps(r.to_dict())) == r.to_dict()

    def test_mxplus_block_variant_name_implies_hardware(self):
        # "+" anywhere in a plain format name classifies as MX+ family, so
        # the uniform ladder and recipe_from_assignment agree on pricing.
        assert QuantRecipe.from_name("mxfp4+-k64").integration == "hardware"
        assert QuantRecipe.from_name("mxfp4-k64").integration == "none"
        uniform = QuantRecipe.from_name("mxfp4+-k64")
        searched = recipe_from_assignment(
            {"layer:0": "mxfp4+-k64", "layer:1": "mxfp4+-k64",
             "lm_head": "mxfp4+-k64", "kv": "mxfp4+-k64"}, n_layers=2,
        )
        groups = [(4, 512)]
        assert step_time(RTX5090, ARCH, uniform, groups) == pytest.approx(
            step_time(RTX5090, ARCH, searched, groups)
        )

    def test_group_spread_layer_context(self):
        # Physical block i of an n-layer model resolves to the group whose
        # band [g*n/G, (g+1)*n/G) contains it — the exact inverse of the
        # timing path's band spreading.
        r = QuantRecipe("m", act="mxfp4", weight="mxfp4",
                        layer_overrides={1: "mxfp4+"}, n_layer_groups=2)
        qc = r.to_context()
        assert qc.n_layer_groups == 2
        # 4-layer model: upper band (layers 2, 3) carries the override
        assert qc.layer_context(1, n_layers=4) is qc
        assert qc.layer_context(2, n_layers=4).act.name == "mxfp4+"
        assert qc.layer_context(3, n_layers=4).act.name == "mxfp4+"
        # matching layer count: identity mapping
        assert qc.layer_context(1, n_layers=2).act.name == "mxfp4+"

    def test_group_spread_layer_context_non_divisible(self):
        # When G does not divide n, the numeric path must still agree with
        # spread_layer_overrides layer for layer (3 layers, 2 groups:
        # group 1's band is [1, 3), so layers 1 AND 2 carry the override).
        from repro.gpu.inference import spread_layer_overrides

        r = QuantRecipe("m", act="mxfp4", weight="mxfp4",
                        layer_overrides={1: "mxfp4+"}, n_layer_groups=2)
        qc = r.to_context()
        for n_layers in (3, 5, 7):
            spread = spread_layer_overrides(r.layer_overrides, 2, n_layers)
            for i in range(n_layers):
                ctx = qc.layer_context(i, n_layers=n_layers)
                assert (ctx.act.name == "mxfp4+") == (i in spread), (
                    f"layer {i}/{n_layers}: numeric and timing paths disagree"
                )

    def test_to_context_builds_layer_contexts(self):
        r = QuantRecipe("m", act="mxfp4", weight="mxfp4",
                        layer_overrides={1: "mxfp4+", 2: "bf16"})
        qc = r.to_context()
        assert qc.layer_context(0) is qc
        assert qc.layer_context(1).act.name == "mxfp4+"
        assert qc.layer_context(1).layer_overrides == {}
        assert qc.layer_context(2).act is None  # bf16 override
        assert qc.act.name == "mxfp4"

    def test_layer_override_changes_model_output(self):
        cfg = TransformerConfig(vocab_size=32, dim=32, n_layers=2, n_heads=2,
                                hidden=64, seed=0)
        model = TransformerLM(cfg)
        tokens = (np.arange(20) % 32)[None, :]
        uniform = QuantRecipe("u", act="mxfp4", weight="mxfp4")
        mixed = uniform.with_(name="x", layer_overrides={1: "mxfp8+"})
        bf16ish = uniform.with_(name="y", layer_overrides={0: "bf16", 1: "bf16"})
        p_uniform = model.perplexity(tokens, uniform.to_context())
        p_mixed = model.perplexity(tokens, mixed.to_context())
        p_relaxed = model.perplexity(tokens, bf16ish.to_context())
        assert p_mixed != p_uniform
        # overriding every layer back to bf16 still quantizes the LM head
        assert p_relaxed != p_uniform


class TestStepTimeThreading:
    def test_mixed_recipe_between_uniform_bounds(self):
        groups = [(8, 1024)]
        t4 = step_time(RTX5090, ARCH, "mxfp4", groups)
        t4p = step_time(RTX5090, ARCH, "mxfp4+", groups)
        mix = QuantRecipe("m", act="mxfp4", weight="mxfp4",
                          layer_overrides={1: "mxfp4+"}, n_layer_groups=2,
                          integration="hardware")
        tm = step_time(RTX5090, ARCH, mix, groups)
        assert t4 < tm < t4p

    def test_group_spread_matches_explicit_physical_overrides(self):
        groups = [(4, 512)]
        grouped = QuantRecipe("g", act="mxfp4", weight="mxfp4",
                              layer_overrides={1: "mxfp8"}, n_layer_groups=2)
        half = ARCH.n_layers // 2
        physical = QuantRecipe(
            "p", act="mxfp4", weight="mxfp4",
            layer_overrides={i: "mxfp8" for i in range(half, ARCH.n_layers)},
        )
        assert step_time(RTX5090, ARCH, grouped, groups) == pytest.approx(
            step_time(RTX5090, ARCH, physical, groups)
        )

    def test_hardware_factor_only_on_mxplus_layers(self):
        # A plain-format base under integration="hardware" must not pay the
        # BCU factor on its layers — only the MX+ override layers do.
        # (Compute-bound prefill-sized group: the factor scales compute.)
        groups = [(8192, 1024)]
        mix_hw = QuantRecipe("hw", act="mxfp4", weight="mxfp4",
                             layer_overrides={1: "mxfp4+"}, n_layer_groups=2,
                             integration="hardware")
        mix_none = mix_hw.with_(name="none", integration="none")
        delta_mixed = step_time(RTX5090, ARCH, mix_hw, groups) - step_time(
            RTX5090, ARCH, mix_none, groups
        )
        uniform_plus = QuantRecipe("up", act="mxfp4+", weight="mxfp4+",
                                   integration="hardware")
        uniform_none = uniform_plus.with_(name="un", integration="none")
        delta_uniform = step_time(RTX5090, ARCH, uniform_plus, groups) - step_time(
            RTX5090, ARCH, uniform_none, groups
        )
        assert 0 <= delta_mixed < delta_uniform

    def test_kv_format_changes_attention_cost(self):
        groups = [(4, 4096)]
        base = QuantRecipe("a", act="mxfp4", weight="mxfp4")
        fat_kv = base.with_(name="b", kv="mxfp8")
        assert step_time(RTX5090, ARCH, fat_kv, groups) > step_time(
            RTX5090, ARCH, base, groups
        )

    def test_lm_head_format_changes_cost(self):
        groups = [(4, 512)]
        base = QuantRecipe("a", act="mxfp4", weight="mxfp4")
        fat_head = base.with_(name="b", lm_head="mxfp8")
        assert step_time(RTX5090, ARCH, fat_head, groups) > step_time(
            RTX5090, ARCH, base, groups
        )


class TestCostModel:
    def test_kv_footprint_sets_concurrency(self):
        cost = CostModel(ARCH)
        assert cost.concurrency("mxfp4") > 3 * cost.concurrency("bf16")
        lean = cost.evaluate("mxfp4")
        fat = cost.evaluate("bf16")
        assert lean.tokens_per_s > fat.tokens_per_s
        assert lean.score == lean.tokens_per_s

    def test_leaner_kv_wins_at_equal_layers(self):
        cost = CostModel(ARCH)
        base = QuantRecipe("a", act="mxfp4", weight="mxfp4")
        lean_kv = base.with_(name="b", kv="mxfp4-k64")
        assert cost.evaluate(lean_kv).tokens_per_s > cost.evaluate(base).tokens_per_s


def _synthetic_report(ladder=("bf16", "mxfp8+", "mxfp4"), n_layers=2,
                      kv_ladder=("mxfp8", "mxfp4")):
    fmts = [f for f in dict.fromkeys(ladder + kv_ladder) if f != "bf16"]
    cells = {}
    roles = [f"layer:{i}" for i in range(n_layers)] + ["lm_head", "kv"]
    for r, role in enumerate(roles):
        # layer 0 is the sensitive one; narrower formats hurt more.
        weight = 3.0 if role == "layer:0" else 0.3
        cells[role] = {
            fmt: 10.0 + weight * (i + 1) for i, fmt in enumerate(fmts)
        }
    return SensitivityReport(
        model="synthetic", corpus="synthetic", batch=1, seq_len=1,
        n_layers=n_layers, formats=tuple(fmts), baseline_ppl=10.0, cells=cells,
    )


class TestSensitivityReport:
    def test_predict_is_additive(self):
        report = _synthetic_report()
        assignment = {"layer:0": "mxfp8+", "layer:1": "mxfp4",
                      "lm_head": "bf16", "kv": "mxfp8+"}
        expected = 10.0 + 3.0 + 0.6 + 0.0 + 0.3
        assert report.predict(assignment) == pytest.approx(expected)

    def test_ranked_roles(self):
        report = _synthetic_report()
        assert report.ranked_roles("mxfp4")[0][0] == "layer:0"

    def test_payload_roundtrip(self):
        report = _synthetic_report()
        clone = SensitivityReport.from_payload(
            json.loads(json.dumps(report.to_payload()))
        )
        assert clone == report


class TestProfileSensitivity:
    def test_profile_follows_what_the_format_computes(self):
        # A profile is a function of the codec, not of the format's name:
        # re-registering a name under another element codec must move
        # the measured perplexity.
        from repro.core.elem import E2M1, E2M3
        from repro.core.mx import MXFormat
        from repro.core.registry import _REGISTRY, register_format
        from repro.tune import profile_sensitivity

        name = "test-sens-fmt"
        kwargs = dict(formats=(name,), kv_formats=(name,), batch=4, seq_len=64)
        try:
            register_format(name, lambda: MXFormat(E2M1, name=name))
            fp4 = profile_sensitivity("test-tiny", **kwargs)
            register_format(name, lambda: MXFormat(E2M3, name=name), overwrite=True)
            fp6 = profile_sensitivity("test-tiny", **kwargs)
        finally:
            _REGISTRY.pop(name, None)
        assert fp4.baseline_ppl == fp6.baseline_ppl
        assert fp6.cells["layer:0"][name] < fp4.cells["layer:0"][name]


class TestProbeRecipe:
    def test_probe_shapes(self):
        r = probe_recipe("layer:1", "mxfp4", 2)
        assert r.overrides == {1: "mxfp4"} and r.act == "bf16"
        assert probe_recipe("lm_head", "mxfp6", 2).lm_head == "mxfp6"
        assert probe_recipe("kv", "mxfp8", 2).kv == "mxfp8"
        with pytest.raises(KeyError):
            probe_recipe("embedding", "mxfp4", 2)


class TestRecipeFromAssignment:
    def test_majority_base_and_overrides(self):
        r = recipe_from_assignment(
            {"layer:0": "mxfp4+", "layer:1": "mxfp4", "layer:2": "mxfp4",
             "lm_head": "mxfp4+", "kv": "mxfp4-k64"},
            n_layers=3,
        )
        assert (r.act, r.weight) == ("mxfp4", "mxfp4")
        assert r.overrides == {0: "mxfp4+"}
        assert r.n_layer_groups == 3
        assert r.integration == "hardware"
        assert r.kv == "mxfp4-k64" and r.lm_head == "mxfp4+"

    def test_no_mxplus_means_no_integration(self):
        r = recipe_from_assignment(
            {"layer:0": "mxfp4", "layer:1": "mxfp4", "lm_head": "bf16",
             "kv": "mxfp4"},
            n_layers=2,
        )
        assert r.integration == "none"

    def test_deterministic_name(self):
        a = {"layer:0": "mxfp4+", "layer:1": "mxfp4", "lm_head": "bf16",
             "kv": "mxfp4"}
        assert (
            recipe_from_assignment(a, 2).name
            == recipe_from_assignment(dict(reversed(a.items())), 2).name
            == "tuned-mxfp4p-mxfp4-h.bf16-kv.mxfp4"
        )


class TestSearchers:
    LADDER = ("bf16", "mxfp8+", "mxfp4")
    KV = ("mxfp8", "mxfp4")

    def _run(self, searcher, **kw):
        report = _synthetic_report(self.LADDER)
        cost = CostModel(ARCH)
        return searcher(
            report, cost, measure_ppl=lambda r: report.predict(
                {**{f"layer:{i}": r.layer_format(i) for i in range(2)},
                 "lm_head": r.lm_head if r.lm_head != "auto" else r.weight,
                 "kv": r.kv if r.kv != "auto" else r.act}
            ),
            ladder=self.LADDER, kv_ladder=self.KV, **kw,
        )

    def test_greedy_deterministic_and_nondominated(self):
        f1 = self._run(greedy_bit_descent)
        f2 = self._run(greedy_bit_descent)
        assert [p.recipe for p in f1] == [p.recipe for p in f2]
        for p in f1:
            assert not f1.dominating(p)
        assert len(f1) >= 2

    def test_greedy_respects_ppl_budget(self):
        frontier = self._run(greedy_bit_descent, max_ppl=12.0)
        assert all(p.predicted_ppl <= 12.0 for p in frontier)

    def test_evolution_seeded_determinism(self):
        f1 = self._run(evolutionary_search, seed=3, population=8, generations=3)
        f2 = self._run(evolutionary_search, seed=3, population=8, generations=3)
        assert [p.recipe for p in f1] == [p.recipe for p in f2]
        assert len(f1) >= 1
