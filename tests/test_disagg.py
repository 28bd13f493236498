"""Disaggregated prefill/decode serving: KV handoff edge cases.

Covers the migration machinery end to end — `KVTransfer` pricing, the
prefill-role engine's export path, `import_kv` resumption without
re-prefill, preemption interacting with migration (mid-transfer and
after import), shared-prefix pages surviving migration via refcounts,
and the two interconnect limits: zero bandwidth (transfers never
complete — a loud error, not a hang) and infinite bandwidth (exact
reconciliation with the unified cluster on non-overlapping traffic).
"""

import math

import pytest

from repro.models.zoo import ARCHS
from repro.serve import (
    INTERCONNECTS,
    KVTransfer,
    PagedKVCache,
    Request,
    ServingCluster,
    ServingEngine,
    get_interconnect,
    kv_token_bytes,
)
from repro.tune.cost import CostModel

ARCH = ARCHS["llama-2-13b"]
GIB = 1 << 30


def make_cluster(recipe="mxfp4+", **kw):
    kw.setdefault("n_prefill", 1)
    kw.setdefault("n_decode", 1)
    kw.setdefault("page_budget_bytes", 1 * GIB)
    kw.setdefault("block_tokens", 16)
    return ServingCluster(ARCH, recipe, **kw)


# ----------------------------------------------------------------------
# KVTransfer pricing
# ----------------------------------------------------------------------
class TestKVTransfer:
    def test_transfer_time_composition(self):
        link = KVTransfer(bandwidth_gb_s=10.0, latency_s=1e-3)
        assert link.occupancy_s(10e9) == pytest.approx(1.0)
        assert link.transfer_s(10e9) == pytest.approx(1.0 + 1e-3)
        assert link.transfer_s(0.0) == pytest.approx(1e-3)

    def test_infinite_bandwidth_is_latency_only(self):
        link = KVTransfer(bandwidth_gb_s=math.inf, latency_s=2e-6)
        assert link.occupancy_s(1e15) == 0.0
        assert link.transfer_s(1e15) == 2e-6

    def test_zero_bandwidth_is_infinite_occupancy(self):
        link = KVTransfer(bandwidth_gb_s=0.0)
        assert math.isinf(link.occupancy_s(1.0))
        assert link.occupancy_s(0.0) == 0.0  # nothing to move, nothing stalls

    def test_validation(self):
        with pytest.raises(ValueError):
            KVTransfer(bandwidth_gb_s=-1.0)
        with pytest.raises(ValueError):
            KVTransfer(latency_s=-1e-6)
        with pytest.raises(ValueError):
            KVTransfer().occupancy_s(-5.0)

    def test_migration_bytes_tracks_recipe_kv_format(self):
        link = KVTransfer()
        mx = link.migration_bytes(ARCH, "mxfp4+", 100)
        bf = link.migration_bytes(ARCH, "bf16", 100)
        assert mx == pytest.approx(kv_token_bytes(ARCH, "mxfp4+") * 100)
        assert mx < bf / 3  # 4.5-bit vs 16-bit KV elements

    def test_presets(self):
        assert get_interconnect("nvlink4").bandwidth_gb_s > get_interconnect(
            "pcie5"
        ).bandwidth_gb_s > get_interconnect("100gbe").bandwidth_gb_s
        assert math.isinf(INTERCONNECTS["infinite"].bandwidth_gb_s)
        link = KVTransfer(bandwidth_gb_s=1.0)
        assert get_interconnect(link) is link
        with pytest.raises(KeyError, match="unknown interconnect"):
            get_interconnect("carrier-pigeon")


# ----------------------------------------------------------------------
# Engine-level handoff: export on the prefill role, import on decode
# ----------------------------------------------------------------------
class TestEngineHandoff:
    def _drain_to_handoff(self, engine, request):
        """Step a prefill engine until `request` awaits export."""
        engine.begin_run()
        engine.submit(request)
        while engine.has_work():
            event = engine.step()
            if event.handoff_ready:
                return event
        return None

    def test_prefill_role_parks_after_first_token(self):
        engine = ServingEngine(ARCH, "mxfp4+", kv_token_budget=4096, role="prefill")
        req = Request("p0", prompt_len=256, max_new_tokens=8)
        event = self._drain_to_handoff(engine, req)
        assert event.handoff_ready == ["p0"]
        assert engine.exportable == ["p0"]
        assert "p0" not in engine.finished  # not finished: 7 tokens remain
        handoff = engine.export_kv("p0")
        assert handoff.tokens == 257  # prompt + the first generated token
        assert handoff.generated == 1
        assert handoff.first_token_s > 0
        assert engine.exportable == []
        # pages released on export
        assert engine.kv_cache.used_blocks == 0

    def test_one_token_request_finishes_on_prefill_replica(self):
        engine = ServingEngine(ARCH, "mxfp4+", kv_token_budget=4096, role="prefill")
        result = engine.run([Request("p1", prompt_len=128, max_new_tokens=1)])
        assert result.responses[0].output_len == 1
        assert engine.exportable == []  # nothing awaited export

    def test_prefill_role_run_rejects_multi_token_requests(self):
        # run() drains to completion, but a multi-token request on a
        # prefill engine parks for export mid-flight — rejected loudly
        # instead of silently aborting it.
        engine = ServingEngine(ARCH, "mxfp4+", kv_token_budget=4096, role="prefill")
        with pytest.raises(ValueError, match="park multi-token requests"):
            engine.run([Request("p9", prompt_len=64, max_new_tokens=4)])

    def test_prefill_role_capacity_check_ignores_decode_budget(self):
        # prompt + full output would overflow, prompt + 1 fits: the
        # prefill replica only ever holds the prompt and the first token.
        engine = ServingEngine(ARCH, "mxfp4+", kv_token_budget=300, role="prefill")
        engine.submit(Request("p2", prompt_len=256, max_new_tokens=512))
        unified = ServingEngine(ARCH, "mxfp4+", kv_token_budget=300)
        with pytest.raises(ValueError, match="cannot hold"):
            unified.submit(Request("p2", prompt_len=256, max_new_tokens=512))

    def test_export_requires_handoff_ready(self):
        engine = ServingEngine(ARCH, "mxfp4+", kv_token_budget=4096, role="prefill")
        with pytest.raises(KeyError, match="not awaiting export"):
            engine.export_kv("ghost")

    def test_import_resumes_without_prefill(self):
        src = ServingEngine(ARCH, "mxfp4+", kv_token_budget=4096, role="prefill")
        req = Request("m0", prompt_len=256, max_new_tokens=4)
        self._drain_to_handoff(src, req)
        handoff = src.export_kv("m0")

        dst = ServingEngine(ARCH, "mxfp4+", kv_token_budget=4096, role="decode")
        dst.begin_run()
        dst.import_kv(handoff, arrival_s=handoff.export_s)
        prefill_rows = 0
        while dst.has_work():
            event = dst.step()
            prefill_rows += event.n_prefill_rows
        assert prefill_rows == 0  # migrated KV: no prompt recomputation
        resp = dst.finished["m0"]
        assert resp.output_len == 4
        assert resp.first_token_s == handoff.first_token_s  # TTFT fixed at prefill
        assert resp.finish_s > handoff.export_s

    def test_import_waits_for_capacity(self):
        # Destination full: the migrated request queues and is admitted
        # only after the resident request releases its pages.
        dst = ServingEngine(ARCH, "mxfp4+", kv_token_budget=600, role="decode")
        dst.begin_run()
        dst.submit(Request("big", prompt_len=500, max_new_tokens=4))
        dst.step()  # prefill: pins 500 tokens

        src = ServingEngine(ARCH, "mxfp4+", kv_token_budget=4096, role="prefill")
        self._drain_to_handoff(src, Request("m1", prompt_len=256, max_new_tokens=2))
        handoff = src.export_kv("m1")
        dst.import_kv(handoff, arrival_s=max(dst.clock, handoff.export_s))
        assert dst.n_waiting == 1
        while dst.has_work():
            dst.step()
        assert dst.finished["m1"].output_len == 2
        # admitted strictly after `big` freed the cache
        assert dst.finished["m1"].finish_s > dst.finished["big"].finish_s

    def test_import_rejects_on_prefill_role_and_duplicates(self):
        src = ServingEngine(ARCH, "mxfp4+", kv_token_budget=4096, role="prefill")
        self._drain_to_handoff(src, Request("m2", prompt_len=64, max_new_tokens=2))
        handoff = src.export_kv("m2")
        with pytest.raises(ValueError, match="cannot import"):
            src.import_kv(handoff, arrival_s=src.clock)
        dst = ServingEngine(ARCH, "mxfp4+", kv_token_budget=4096)
        dst.begin_run()
        dst.import_kv(handoff, arrival_s=handoff.export_s)
        with pytest.raises(ValueError, match="duplicate"):
            dst.import_kv(handoff, arrival_s=handoff.export_s)
        with pytest.raises(ValueError, match="import before export"):
            ServingEngine(ARCH, "mxfp4+", kv_token_budget=4096).import_kv(
                handoff, arrival_s=handoff.export_s - 1.0
            )

    def test_imported_preemption_recomputes_locally(self):
        # After import, decode growth can still evict the migrated
        # request (preemption targets the newest admission); it must fall
        # back to *local* recomputation — the imported flag clears — and
        # still produce a correct response.
        src = ServingEngine(ARCH, "mxfp4+", kv_token_budget=4096, role="prefill")
        self._drain_to_handoff(src, Request("v0", prompt_len=96, max_new_tokens=24))
        handoff = src.export_kv("v0")

        dst = ServingEngine(ARCH, "mxfp4+", kv_token_budget=160, role="decode")
        dst.begin_run()
        # a long-running local request admitted *first*: the imported
        # request becomes the newest admission (the preemption victim)
        dst.submit(Request("rival", prompt_len=48, max_new_tokens=100))
        dst.step()  # prefill: rival admitted
        dst.import_kv(handoff, arrival_s=max(dst.clock, handoff.export_s))
        prefill_rows = 0
        while dst.has_work():
            event = dst.step()
            prefill_rows += event.n_prefill_rows
        resp = dst.finished["v0"]
        assert resp.output_len == 24
        assert resp.preemptions >= 1
        # the victim recomputed its context locally after eviction:
        # more prefill rows than the rival's prompt alone
        assert prefill_rows > 48 + 96

    def test_abort_frees_exported_pages(self):
        engine = ServingEngine(ARCH, "mxfp4+", kv_token_budget=4096, role="prefill")
        self._drain_to_handoff(engine, Request("a0", prompt_len=64, max_new_tokens=4))
        assert engine.kv_cache.used_blocks > 0
        engine.abort()  # exportable request not collected: must not leak
        assert engine.kv_cache.used_blocks == 0
        engine.begin_run()  # and the engine is reusable afterwards


# ----------------------------------------------------------------------
# Shared prefixes x migration
# ----------------------------------------------------------------------
class TestPrefixSurvival:
    def test_prefix_pages_survive_export_via_refcounts(self):
        cache = PagedKVCache(num_blocks=256, block_tokens=16)
        engine = ServingEngine(ARCH, "mxfp4+", kv_cache=cache, role="prefill")
        engine.begin_run()
        a = Request("a", prompt_len=96, max_new_tokens=4, prefix_id="sys", prefix_len=64)
        b = Request(
            "b", prompt_len=96, max_new_tokens=4, arrival_s=1e9,
            prefix_id="sys", prefix_len=64,
        )
        engine.submit(a)
        while engine.has_work():
            event = engine.step()
            if event.handoff_ready:
                break
        engine.export_kv("a")  # decref, pages stay cached
        assert cache.stats()["cached_prefixes"] == 1
        assert cache.reclaimable_blocks == 64 // 16
        engine.submit(b)
        while engine.has_work():
            event = engine.step()
            if event.handoff_ready:
                break
        # b re-used a's migrated-away prefix: a hit, not a recompute
        assert cache.stats()["prefix_hits"] == 1
        engine.export_kv("b")
        engine.abort()

    def test_discounted_prefix_evicted_mid_transfer_recomputes_locally(self):
        # The sender skipped the prefix bytes because the destination had
        # them cached at export time; if the destination evicts that
        # prefix before the transfer arrives, the gap must be recomputed
        # as local prefill rows — migrated KV never materializes out of
        # nothing.
        src = ServingEngine(ARCH, "mxfp4+", kv_token_budget=4096, role="prefill")
        src.begin_run()
        req = Request("x", prompt_len=96, max_new_tokens=4,
                      prefix_id="sys", prefix_len=64)
        src.submit(req)
        while src.has_work():
            if src.step().handoff_ready:
                break
        handoff = src.export_kv("x")

        dst = ServingEngine(ARCH, "mxfp4+", kv_token_budget=4096, role="decode")
        dst.begin_run()
        # destination holds NO cached prefix (models the eviction): only
        # ctx - 64 tokens crossed the link.
        dst.import_kv(handoff, arrival_s=handoff.export_s,
                      transferred_tokens=handoff.tokens - 64)
        prefill_rows = 0
        while dst.has_work():
            prefill_rows += dst.step().n_prefill_rows
        assert prefill_rows == 64  # exactly the discounted-but-missing prefix
        assert dst.finished["x"].output_len == 4

        # sanity: a full transfer admits with zero local prefill rows
        src2 = ServingEngine(ARCH, "mxfp4+", kv_token_budget=4096, role="prefill")
        src2.begin_run()
        src2.submit(Request("y", prompt_len=96, max_new_tokens=4))
        while src2.has_work():
            if src2.step().handoff_ready:
                break
        h2 = src2.export_kv("y")
        dst2 = ServingEngine(ARCH, "mxfp4+", kv_token_budget=4096, role="decode")
        dst2.begin_run()
        dst2.import_kv(h2, arrival_s=h2.export_s)
        rows = 0
        while dst2.has_work():
            rows += dst2.step().n_prefill_rows
        assert rows == 0

    def test_destination_prefix_discount_on_transfer_bytes(self):
        # Two requests sharing a system prompt migrate to the same decode
        # replica: the second transfer skips the prefix bytes already
        # resident there.
        prefix = 64
        reqs = [
            Request(
                f"c{i}", prompt_len=160, max_new_tokens=4,
                arrival_s=float(i), prefix_id="sys", prefix_len=prefix,
            )
            for i in range(2)
        ]
        cluster = make_cluster(kv_transfer="nvlink4")
        fleet = cluster.run(reqs)
        t0, t1 = fleet.transfers
        assert t0["tokens"] == 161  # full context crosses first
        assert t1["tokens"] == 161 - prefix  # cached prefix stays home
        assert t1["bytes"] < t0["bytes"]


# ----------------------------------------------------------------------
# Cluster-level limits and accounting
# ----------------------------------------------------------------------
class TestDisaggCluster:
    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="both n_prefill and n_decode"):
            ServingCluster(ARCH, "mxfp4+", n_prefill=1)
        with pytest.raises(ValueError, match=">= 0"):
            ServingCluster(ARCH, "mxfp4+", n_prefill=-1, n_decode=1)

    def test_pools_and_roles(self):
        cluster = make_cluster(n_prefill=2, n_decode=3)
        assert cluster.n_replicas == 5
        assert cluster.roles == ["prefill"] * 2 + ["decode"] * 3
        assert [e.role for e in cluster.engines] == cluster.roles

    def test_end_to_end_accounting(self):
        reqs = [
            Request(f"r{i}", prompt_len=128, max_new_tokens=4, arrival_s=i * 1e-3)
            for i in range(6)
        ]
        fleet = make_cluster(n_prefill=1, n_decode=2).run(reqs)
        assert len(fleet.responses) == 6
        assert fleet.n_transfers == 6
        per_token = kv_token_bytes(ARCH, "mxfp4+")
        for t in fleet.transfers:
            assert t["bytes"] == t["tokens"] * per_token
            assert t["tokens"] == 129
            assert t["arrive_s"] >= t["start_s"] >= t["export_s"]
            assert fleet.roles[t["src"]] == "prefill"
            assert fleet.roles[t["dest"]] == "decode"
        assert set(fleet.decode_assignments) == {r.request_id for r in reqs}
        summary = fleet.summary()
        assert summary["decode_router"] == "free-kv-at-arrival"
        assert summary["transfer_bytes_per_request"] == pytest.approx(
            129 * per_token
        )

    def test_transfers_serialize_on_the_link(self):
        # A burst exports near-simultaneously; on a slow link the later
        # transfers must queue behind the earlier ones' byte time.
        reqs = [Request(f"s{i}", prompt_len=256, max_new_tokens=4) for i in range(4)]
        fleet = make_cluster(kv_transfer=KVTransfer(bandwidth_gb_s=1.0)).run(reqs)
        starts = sorted(t["start_s"] for t in fleet.transfers)
        occ = KVTransfer(bandwidth_gb_s=1.0).occupancy_s(
            257 * kv_token_bytes(ARCH, "mxfp4+")
        )
        for earlier, later in zip(starts, starts[1:]):
            assert later >= earlier + occ - 1e-12

    def test_zero_bandwidth_raises_loudly(self):
        cluster = make_cluster(kv_transfer=KVTransfer(bandwidth_gb_s=0.0))
        with pytest.raises(RuntimeError, match="zero-bandwidth"):
            cluster.run([Request("z", prompt_len=64, max_new_tokens=4)])

    def test_zero_bandwidth_ok_when_nothing_migrates(self):
        # 1-token requests finish on the prefill pool: the stalled link
        # is never asked for a transfer.
        cluster = make_cluster(kv_transfer=KVTransfer(bandwidth_gb_s=0.0))
        fleet = cluster.run([Request("z1", prompt_len=64, max_new_tokens=1)])
        assert fleet.n_transfers == 0
        assert fleet.responses[0].output_len == 1

    def test_infinite_bandwidth_reconciles_with_unified(self):
        # Non-overlapping traffic + zero-time transfers: the disaggregated
        # pipeline must reproduce the unified single engine *exactly* —
        # same prefill step, same decode step sequence, same virtual
        # instants, split across two replicas instead of one.
        reqs = [
            Request(f"u{i}", prompt_len=512, max_new_tokens=16, arrival_s=i * 5.0)
            for i in range(4)
        ]
        disagg = make_cluster(kv_transfer="infinite").run(reqs)
        unified = ServingCluster(
            ARCH, "mxfp4+", n_replicas=1,
            page_budget_bytes=1 * GIB, block_tokens=16,
        ).run(reqs)
        for a, b in zip(disagg.responses, unified.responses):
            assert a.ttft_s == b.ttft_s
            assert a.finish_s == b.finish_s
        assert disagg.makespan_s == unified.makespan_s

    def test_ttft_independent_of_bandwidth(self):
        # The first token is produced in the prefill pool before any
        # migration, so TTFT must not move with interconnect speed.
        reqs = [
            Request(f"t{i}", prompt_len=256, max_new_tokens=8, arrival_s=i * 1e-3)
            for i in range(8)
        ]
        slow = make_cluster(kv_transfer="100gbe").run(reqs)
        fast = make_cluster(kv_transfer="infinite").run(reqs)
        for a, b in zip(slow.responses, fast.responses):
            assert a.ttft_s == b.ttft_s
            assert a.finish_s >= b.finish_s  # slower link can only delay the rest

    def test_pool_autoscale_is_independent(self):
        from repro.serve import AutoscalePolicy

        burst = [
            Request(f"b{i}", prompt_len=512, max_new_tokens=2) for i in range(16)
        ]
        policy = AutoscalePolicy(max_replicas=3, scale_up_queue_depth=2)
        fleet = make_cluster(autoscale=policy, kv_transfer="nvlink4").run(burst)
        ups = [e for e in fleet.autoscale_events if e[1] == "scale-up"]
        assert ups, "prefill pool should grow under a saturating burst"
        # every scaled-up replica joined a pool and is tracked in roles
        assert len(fleet.roles) == len(fleet.replica_results)
        assert all(fleet.roles[e[2]] in ("prefill", "decode") for e in ups)

    def test_prefill_replicas_report_their_work(self):
        # Every request migrates, so nothing finishes on a prefill
        # replica; its result must still carry the engine's counters.
        from repro.serve import chat_workload

        reqs = chat_workload(40, n_prefixes=4, prefix_len=256, seed=3, rate_rps=40.0)
        cluster = make_cluster(n_prefill=2, n_decode=2, router="prefix-affinity")
        fleet = cluster.run(reqs)
        for engine, res in zip(cluster.engines, fleet.replica_results):
            assert res.n_prefill_steps == engine._n_prefill
            assert res.n_decode_steps == engine._n_decode
            assert res.peak_running == engine._peak_running
            assert res.preemptions == engine._preemptions
            assert res.makespan_s == engine.clock
            assert res.kv == engine.kv_cache.stats()
        for res in fleet.replica_results[:2]:
            assert not res.responses and res.n_prefill_steps > 0
            assert res.peak_running > 0 and res.stages.prefill_s > 0
        assert fleet.peak_running == sum(e._peak_running for e in cluster.engines)

    def test_empty_run_reports_engine_counters(self):
        engine = ServingEngine(ARCH, "mxfp4+", kv_token_budget=4096)
        engine.run([Request("a", prompt_len=64, max_new_tokens=2)])
        empty = engine.run([])
        assert empty.responses == [] and empty.n_prefill_steps == 0
        assert empty.kv == engine.kv_cache.stats() != {}


# ----------------------------------------------------------------------
# Cost model: the disaggregated steady state
# ----------------------------------------------------------------------
class TestDisaggCostModel:
    def test_no_prefill_amortization_at_infinite_bandwidth(self):
        unified = CostModel(ARCH)
        disagg = CostModel(
            ARCH, disaggregated=True,
            transfer=KVTransfer(bandwidth_gb_s=math.inf, latency_s=0.0),
        )
        for recipe in ("bf16", "mxfp4+"):
            assert disagg.evaluate(recipe).tokens_per_s > unified.evaluate(
                recipe
            ).tokens_per_s

    def test_bandwidth_caps_throughput(self):
        fast = CostModel(ARCH, disaggregated=True, transfer=KVTransfer(450.0))
        slow = CostModel(
            ARCH, disaggregated=True, transfer=KVTransfer(bandwidth_gb_s=0.05)
        )
        assert slow.evaluate("bf16").tokens_per_s < fast.evaluate("bf16").tokens_per_s
        stalled = CostModel(
            ARCH, disaggregated=True, transfer=KVTransfer(bandwidth_gb_s=0.0)
        )
        assert stalled.evaluate("bf16").tokens_per_s == 0.0

    def test_mx_migrates_fewer_bytes_and_survives_slow_links(self):
        model = CostModel(
            ARCH, disaggregated=True, transfer=KVTransfer(bandwidth_gb_s=0.05)
        )
        mx, bf = model.evaluate("mxfp4+"), model.evaluate("bf16")
        assert mx.transfer_bytes_per_request < bf.transfer_bytes_per_request / 3
        assert mx.tokens_per_s > bf.tokens_per_s

    def test_rejects_chunked_prefill_combination(self):
        # Chunked prefill is a colocated steady state; silently pricing
        # pure decode under that name would mislabel the artifact.
        with pytest.raises(ValueError, match="chunked-prefill"):
            CostModel(ARCH, disaggregated=True, scheduler="chunked-prefill")

    def test_to_dict_gates_migration_keys(self):
        plain = CostModel(ARCH)
        assert "disaggregated" not in plain.to_dict()
        assert "disaggregated" not in plain.evaluate("bf16").to_dict()
        disagg = CostModel(ARCH, disaggregated=True)
        assert disagg.to_dict()["disaggregated"] is True
        cost = disagg.evaluate("bf16").to_dict()
        assert cost["disaggregated"] is True
        assert cost["transfer_bytes_per_request"] > 0
