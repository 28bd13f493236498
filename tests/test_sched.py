"""Tests for the discrete-event serving core: pluggable schedulers, the
incremental engine API, mixed-batch step pricing + memo keys, preemption
x shared-prefix interaction, live-state routers, and autoscaling."""

import pytest

from repro.gpu.inference import StepPricer
from repro.gpu.spec import RTX5090
from repro.models.zoo import ARCHS
from repro.serve import (
    AutoscalePolicy,
    ChunkedPrefillScheduler,
    DecodePriorityScheduler,
    PagedKVCache,
    PrefillFirstScheduler,
    Request,
    Scheduler,
    ServingCluster,
    ServingEngine,
    available_schedulers,
    get_recipe,
    get_scheduler,
    long_prompt_workload,
    make_workload,
)

ARCH = ARCHS["llama-2-7b"]


class TestSchedulerRegistry:
    def test_registry(self):
        assert available_schedulers() == [
            "chunked-prefill",
            "decode-priority",
            "prefill-first",
        ]
        assert isinstance(get_scheduler("prefill-first"), PrefillFirstScheduler)
        assert isinstance(get_scheduler("chunked-prefill"), ChunkedPrefillScheduler)
        assert isinstance(get_scheduler("decode-priority"), DecodePriorityScheduler)

    def test_instance_passthrough(self):
        sched = ChunkedPrefillScheduler(chunk_tokens=64)
        assert get_scheduler(sched) is sched

    def test_unknown_raises_with_menu(self):
        with pytest.raises(KeyError, match="unknown scheduler"):
            get_scheduler("fifo")

    def test_chunk_tokens_validated(self):
        with pytest.raises(ValueError, match="chunk_tokens"):
            ChunkedPrefillScheduler(chunk_tokens=0)

    def test_base_plan_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Scheduler().plan(None)

    def test_cluster_replicas_keep_instance_configuration(self):
        # A configured scheduler instance must reach every replica with
        # its knobs intact (schedulers are stateless, so replicas share it
        # rather than re-instantiating it bare).
        sched = ChunkedPrefillScheduler(chunk_tokens=16)
        cluster = ServingCluster(
            ARCH, "mxfp4", n_replicas=2, kv_token_budget=8192, scheduler=sched,
        )
        scheds = [e.scheduler for e in cluster.engines]
        assert all(s.chunk_tokens == 16 for s in scheds)
        assert all(s is sched for s in scheds)

    def test_buggy_scheduler_fails_loudly_not_hangs(self):
        from repro.serve import StepPlan

        class Stuck(Scheduler):
            name = "stuck"

            def plan(self, engine):
                engine.admit_arrived()
                return StepPlan()  # never schedules anything

        engine = ServingEngine(ARCH, "mxfp4", kv_token_budget=4096,
                               scheduler=Stuck())
        with pytest.raises(RuntimeError, match="empty step plan"):
            engine.run([Request("a", prompt_len=64, max_new_tokens=2)])


def _mixed_requests(n=10):
    return [
        Request(
            f"r{i}",
            prompt_len=128 * (1 + i % 4),
            max_new_tokens=8 + 4 * (i % 3),
            arrival_s=0.005 * i,
        )
        for i in range(n)
    ]


class TestPrefillFirstEquivalence:
    def test_explicit_prefill_first_matches_default(self):
        # The extracted policy is the engine's old hard-coded loop:
        # results must be *identical*, preemptions included.
        reqs = [Request(f"r{i}", prompt_len=160, max_new_tokens=60) for i in range(4)]
        default = ServingEngine(ARCH, "mxfp4", kv_token_budget=500).run(reqs)
        explicit = ServingEngine(
            ARCH, "mxfp4", kv_token_budget=500, scheduler=PrefillFirstScheduler()
        ).run(reqs)
        assert default.preemptions == explicit.preemptions > 0
        assert default.makespan_s == explicit.makespan_s
        for a, b in zip(default.responses, explicit.responses):
            assert (a.ttft_s, a.tpot_s, a.finish_s) == (b.ttft_s, b.tpot_s, b.finish_s)

    def test_repeat_runs_identical(self):
        reqs = _mixed_requests()
        for sched in available_schedulers():
            engine = ServingEngine(
                ARCH, "mxfp4", kv_token_budget=16_384, scheduler=sched
            )
            first = engine.run(reqs)
            second = engine.run(reqs)
            assert first.makespan_s == second.makespan_s
            assert [r.finish_s for r in first.responses] == [
                r.finish_s for r in second.responses
            ]


class TestChunkedPrefill:
    def test_completes_all_and_mixes(self):
        engine = ServingEngine(
            ARCH, "mxfp4", kv_token_budget=16_384,
            scheduler=ChunkedPrefillScheduler(chunk_tokens=128),
        )
        reqs = _mixed_requests()
        result = engine.run(reqs)
        assert [r.request_id for r in result.responses] == [r.request_id for r in reqs]
        assert all(r.output_len == q.max_new_tokens for r, q in zip(result.responses, reqs))
        assert result.n_mixed_steps > 0

    def test_chunk_budget_respected(self):
        chunk = 96
        engine = ServingEngine(
            ARCH, "mxfp4", kv_token_budget=16_384,
            scheduler=ChunkedPrefillScheduler(chunk_tokens=chunk),
        )
        engine.begin_run()
        for r in _mixed_requests(6):
            engine.submit(r)
        total_prefill_rows = 0
        while engine.has_work():
            event = engine.step()
            assert event.n_prefill_rows <= chunk
            total_prefill_rows += event.n_prefill_rows
        # No preemptions here, no prefixes: every prompt row is computed
        # exactly once across all chunks.
        assert total_prefill_rows == sum(r.prompt_len for r in _mixed_requests(6))

    def test_long_prompt_tail_ttft_improves(self):
        # The benchmark claim in miniature: bursty long prompts in the
        # queueing regime (the KV budget fits ~10 requests, the trace
        # queues far more) -> chunked prefill strictly improves tail
        # TTFT, because decodes and page turnover keep flowing during
        # prompt processing.
        reqs = long_prompt_workload(24, seed=11)
        kwargs = dict(kv_token_budget=4660, max_batch=64)
        pf = ServingEngine(ARCH, "mxfp4+", scheduler="prefill-first", **kwargs).run(reqs)
        ck = ServingEngine(ARCH, "mxfp4+", scheduler="chunked-prefill", **kwargs).run(reqs)
        assert ck.p99_ttft_s() < pf.p99_ttft_s()
        assert all(r.output_len > 0 for r in ck.responses)

    def test_decode_not_reopened_by_generation(self):
        # Regression: prefill_done must be pinned at admission — decode
        # growth must not re-enter a request into the chunk queue.
        engine = ServingEngine(
            ARCH, "mxfp4", kv_token_budget=8192,
            scheduler=ChunkedPrefillScheduler(chunk_tokens=64),
        )
        result = engine.run([Request("a", prompt_len=128, max_new_tokens=16)])
        # 128 rows at 64/chunk = 2 pure prefill steps, then pure decodes.
        assert result.n_mixed_steps == 0
        assert result.n_prefill_steps == 2
        assert result.n_decode_steps == 16


class TestDecodePriority:
    def test_never_mixes_and_brackets_ttft(self):
        reqs = [Request("long", prompt_len=2048, max_new_tokens=24)] + [
            Request(f"s{i}", prompt_len=64, max_new_tokens=8, arrival_s=0.01)
            for i in range(4)
        ]
        pf = ServingEngine(ARCH, "mxfp4+", scheduler="prefill-first").run(reqs)
        dp = ServingEngine(ARCH, "mxfp4+", scheduler="decode-priority").run(reqs)
        assert dp.n_mixed_steps == 0
        by_id = lambda res: {r.request_id: r for r in res.responses}
        # The running request's decode is never interrupted by the
        # arrivals, so its TTFT/finish improve...
        assert by_id(dp)["long"].ttft_s <= by_id(pf)["long"].ttft_s
        # ...while the arrivals queue behind the whole batch.
        assert by_id(dp)["s0"].ttft_s > by_id(pf)["s0"].ttft_s


class TestIncrementalAPI:
    def test_manual_drive_matches_run(self):
        reqs = _mixed_requests()
        run_result = ServingEngine(ARCH, "mxfp4", kv_token_budget=16_384).run(reqs)
        engine = ServingEngine(ARCH, "mxfp4", kv_token_budget=16_384)
        engine.begin_run()
        from repro.serve import arrival_order

        for r in arrival_order(reqs):
            engine.submit(r)
        while engine.has_work():
            engine.step()
        manual = engine.collect(reqs)
        assert manual.makespan_s == run_result.makespan_s
        for a, b in zip(manual.responses, run_result.responses):
            assert (a.ttft_s, a.finish_s) == (b.ttft_s, b.finish_s)

    def test_peek_and_idle_jump(self):
        engine = ServingEngine(ARCH, "mxfp4", kv_token_budget=4096)
        engine.begin_run()
        assert engine.peek_next_event() is None
        engine.submit(Request("late", prompt_len=32, max_new_tokens=1, arrival_s=5.0))
        assert engine.peek_next_event() == 5.0
        event = engine.step()
        assert event.t_start == 5.0 and engine.clock > 5.0
        assert engine.peek_next_event() == engine.clock  # decode pending
        while engine.has_work():
            engine.step()
        assert engine.peek_next_event() is None
        assert engine.step() is None

    def test_mid_flight_submission(self):
        engine = ServingEngine(ARCH, "mxfp4", kv_token_budget=4096)
        engine.begin_run()
        engine.submit(Request("a", prompt_len=64, max_new_tokens=8))
        engine.step()  # prefill a
        engine.submit(Request("b", prompt_len=64, max_new_tokens=2,
                              arrival_s=engine.clock))
        while engine.has_work():
            engine.step()
        assert set(engine.finished) == {"a", "b"}
        assert engine.finished["b"].ttft_s > 0

    def test_submit_validation(self):
        engine = ServingEngine(ARCH, "mxfp4", kv_token_budget=128)
        engine.begin_run()
        engine.submit(Request("x", prompt_len=8))
        with pytest.raises(ValueError, match="duplicate"):
            engine.submit(Request("x", prompt_len=8))
        with pytest.raises(ValueError, match="cannot hold"):
            engine.submit(Request("big", prompt_len=256, max_new_tokens=8))

    def test_begin_run_guards_in_flight(self):
        engine = ServingEngine(ARCH, "mxfp4", kv_token_budget=4096)
        engine.begin_run()
        engine.submit(Request("a", prompt_len=64, max_new_tokens=4))
        with pytest.raises(RuntimeError, match="in flight"):
            engine.begin_run()
        engine.abort()
        engine.begin_run()  # drained: fine


class TestPreemptionPrefixInteraction:
    """A preempted request whose prefix pages are refcount-shared must
    not free pages still referenced by a sibling, and must re-admit as a
    prefix *hit* (the satellite's exact scenario)."""

    def _engine(self):
        # 4-token pages; 16 pages = 64 tokens. Prefix of 16 tokens (4
        # shared pages) + two siblings of 24-token prompts: pages =
        # 4 (shared) + 2 + 2 private = 8; decode growth forces eviction
        # before both finish 24 new tokens (needs 4+6+6 = 16 > 12 free).
        cache = PagedKVCache(num_blocks=16, block_tokens=4)
        return ServingEngine(ARCH, "mxfp4", kv_cache=cache), cache

    def _requests(self):
        return [
            Request("sib-a", prompt_len=24, max_new_tokens=24,
                    prefix_id="sys", prefix_len=16),
            Request("sib-b", prompt_len=24, max_new_tokens=24,
                    prefix_id="sys", prefix_len=16),
        ]

    def test_preempted_sibling_keeps_shared_pages_and_rehits(self):
        engine, cache = self._engine()
        result = engine.run(self._requests())
        stats = result.kv
        # Both complete despite mid-flight eviction of the newest sibling.
        assert all(r.output_len == 24 for r in result.responses)
        assert result.preemptions > 0
        by_id = {r.request_id: r for r in result.responses}
        assert by_id["sib-b"].preemptions > 0  # newest-admitted victim
        assert by_id["sib-a"].preemptions == 0
        # The shared prefix was allocated once, never evicted while the
        # sibling still referenced it...
        assert stats["prefix_misses"] == 1
        assert stats["prefix_evictions"] == 0
        # ...and the victim's re-admission was a prefix *hit* on top of
        # its first-admission hit.
        assert stats["prefix_hits"] == 1 + by_id["sib-b"].preemptions
        # Allocator bookkeeping survived the preemption cycle: only the
        # idle prefix remains resident after the run.
        assert stats["resident_seqs"] == 0
        assert stats["used_blocks"] == 16 // 4  # the 4 cached prefix pages

    def test_preemption_does_not_corrupt_sibling_decode(self):
        # The surviving sibling keeps decoding through the eviction; its
        # final context must equal prompt + all generated tokens.
        engine, cache = self._engine()
        engine.begin_run()
        for r in self._requests():
            engine.submit(r)
        while engine.has_work():
            engine.step()
        assert cache.stats()["resident_seqs"] == 0
        assert engine.finished["sib-a"].output_len == 24


class TestMixedBatchStepTime:
    """Groups of different kinds never merge into one priced attention
    kernel, and memoized prices equal the cold path exactly."""

    CFG = "mxfp4+"

    def _pricer(self):
        return StepPricer(RTX5090, ARCH, get_recipe(self.CFG))

    def test_tagged_kinds_do_not_merge(self):
        pricer = self._pricer()
        pure = pricer.price([(6, 100)])
        mixed = pricer.price([(5, 100, "prefill"), (1, 100, "decode")])
        # Separate chunk/decode attention kernels cost more than the one
        # merged GEMM: the mixed step probes (5, 100) and (1, 100), never
        # the merged (6, 100) entry of the pure step.
        assert mixed > pure
        att = pricer.cache_info()["attention"]
        assert (att["hits"], att["misses"], att["size"]) == (0, 3, 3)

    def test_untagged_groups_still_merge(self):
        pricer = self._pricer()
        merged = pricer.price([(6, 100)])
        split = pricer.price([(5, 100), (1, 100)])
        assert split == merged
        # equal merged signatures share every entry: the second step is
        # all hits (one rows probe, one attention probe)
        info = pricer.cache_info()
        assert (info["hits"], info["misses"]) == (2, 2)
        assert info["attention"]["size"] == info["rows"]["size"] == 1

    def test_cache_matches_cold_path(self):
        batches = [
            [(8, 64)],
            [(8, 64, "prefill")],
            [(8, 64, "decode")],
            [(8, 64, "prefill"), (3, 64, "decode"), (2, 96, "decode")],
            [(1, 33), (1, 65), (256, 512, "prefill")],
        ]
        pricer = self._pricer()
        warm = [pricer.price(b) for b in batches]
        cached = [pricer.price(b) for b in batches]
        assert cached == warm
        info = pricer.cache_info()
        # the second pass is all hits: one rows probe per step plus one
        # attention probe per merged group
        assert info["hits"] >= len(batches) + 8
        cold = [self._pricer().price(b) for b in batches]
        assert cold == warm

    def test_kind_tag_alone_separates_entries(self):
        pricer = self._pricer()
        tagged = pricer.price([(4, 128, "prefill"), (4, 128, "decode"), (4, 128)])
        # Same shape, three kinds: three attention kernels priced (the
        # gemm shape is the same, so they share one memo entry), never one
        # merged (12, 128) kernel.
        att = pricer.cache_info()["attention"]
        assert (att["hits"], att["misses"]) == (2, 1)
        assert tagged != pricer.price([(12, 128)])


class TestClusterSchedulers:
    def test_cluster_forwards_scheduler(self):
        reqs = _mixed_requests(8)
        fleet = ServingCluster(
            ARCH, "mxfp4", n_replicas=2, kv_token_budget=16_384,
            scheduler="chunked-prefill",
        ).run(reqs)
        assert fleet.scheduler == "chunked-prefill"
        assert sum(r.n_mixed_steps for r in fleet.replica_results) > 0

    def test_one_replica_event_loop_matches_engine_all_schedulers(self):
        reqs = make_workload(12, seed=5, rate_rps=30.0)
        for sched in available_schedulers():
            fleet = ServingCluster(
                ARCH, "mxfp4+", n_replicas=1, kv_token_budget=32_768,
                scheduler=sched,
            ).run(reqs)
            single = ServingEngine(
                ARCH, "mxfp4+", kv_token_budget=32_768, scheduler=sched
            ).run(reqs)
            assert fleet.makespan_s == single.makespan_s
            for a, b in zip(fleet.responses, single.responses):
                assert (a.ttft_s, a.finish_s) == (b.ttft_s, b.finish_s)


class TestLiveRouters:
    def test_free_kv_at_arrival_diverges_from_static_least_load(self):
        # Load shifts mid-trace: phase-1 requests pin replica KV very
        # unevenly, then finish entirely before phase 2 arrives. The
        # static router still charges phase-1 loads; the live router sees
        # both caches empty again — assignments must diverge.
        phase1 = [
            Request("big", prompt_len=4096, max_new_tokens=64),
            Request("small-0", prompt_len=64, max_new_tokens=8, arrival_s=0.001),
            Request("small-1", prompt_len=64, max_new_tokens=8, arrival_s=0.002),
        ]
        phase2 = [
            Request(f"late-{i}", prompt_len=256, max_new_tokens=16,
                    arrival_s=1000.0 + 0.001 * i)
            for i in range(2)
        ]
        reqs = phase1 + phase2
        kwargs = dict(n_replicas=2, kv_token_budget=16_384)
        static = ServingCluster(ARCH, "mxfp4+", router="least-kv-load", **kwargs).run(reqs)
        live = ServingCluster(ARCH, "mxfp4+", router="free-kv-at-arrival", **kwargs).run(reqs)
        # Static: replica 0 is forever "loaded" with the big request, so
        # phase 2 lands on replica 1. Live: at t=1000 both caches are
        # free again, ties resolve to replica 0.
        assert static.assignments["late-0"] == 1
        assert live.assignments["late-0"] == 0
        assert static.assignments != live.assignments
        # Time-coherent fleet makespan: the slowest replica's clock, and
        # every response finished before it.
        for fleet in (static, live):
            assert fleet.makespan_s == max(
                r.makespan_s for r in fleet.replica_results
            )
            assert all(r.finish_s <= fleet.makespan_s for r in fleet.responses)

    def test_queue_depth_router_sees_live_queues(self):
        # Replica 0 decodes a long request for ~0.9s; short requests
        # trickle in one at a time, each finishing before the next
        # arrives. The live router sees queues (1, 0) at every arrival
        # and sends all of them to replica 1; a static least-assigned
        # policy would alternate instead.
        reqs = [
            Request("long", prompt_len=2048, max_new_tokens=256),
            Request("warm", prompt_len=64, max_new_tokens=1, arrival_s=0.001),
        ] + [
            Request(f"late-{i}", prompt_len=64, max_new_tokens=4,
                    arrival_s=0.3 + 0.1 * i)
            for i in range(4)
        ]
        fleet = ServingCluster(
            ARCH, "mxfp4+", n_replicas=2, router="queue-depth",
            kv_token_budget=16_384,
        ).run(reqs)
        assert fleet.assignments["long"] == 0
        assert all(fleet.assignments[f"late-{i}"] == 1 for i in range(4))


class TestAutoscale:
    def test_policy_validation(self):
        with pytest.raises(ValueError, match="min_replicas"):
            AutoscalePolicy(max_replicas=2, min_replicas=4)
        with pytest.raises(ValueError, match="scale_up_queue_depth"):
            AutoscalePolicy(scale_up_queue_depth=0)

    def test_scales_up_under_queue_pressure(self):
        reqs = make_workload(24, seed=2, rate_rps=2000.0,
                             arrival="bursty", burst_size=24)
        policy = AutoscalePolicy(max_replicas=4, scale_up_queue_depth=3,
                                 scale_down=False)
        base = ServingCluster(ARCH, "mxfp4", n_replicas=1,
                              kv_token_budget=8192).run(reqs)
        scaled = ServingCluster(ARCH, "mxfp4", n_replicas=1,
                                kv_token_budget=8192, autoscale=policy).run(reqs)
        ups = [e for e in scaled.autoscale_events if e[1] == "scale-up"]
        assert ups and scaled.n_replicas > 1
        assert scaled.n_replicas <= 4
        assert len(scaled.responses) == len(reqs)
        assert scaled.makespan_s < base.makespan_s  # extra replicas helped

    def test_scale_down_retires_only_drained_replicas(self):
        # A burst deep enough to scale up, then a lone straggler: by its
        # arrival the fleet has idle replicas and retires one.
        reqs = make_workload(16, seed=4, rate_rps=2000.0,
                             arrival="bursty", burst_size=16)
        straggler = Request("straggler", prompt_len=64, max_new_tokens=4,
                            arrival_s=1000.0)
        policy = AutoscalePolicy(max_replicas=3, scale_up_queue_depth=3)
        fleet = ServingCluster(ARCH, "mxfp4", n_replicas=1,
                               kv_token_budget=8192,
                               autoscale=policy).run(reqs + [straggler])
        kinds = [e[1] for e in fleet.autoscale_events]
        assert "scale-up" in kinds and "scale-down" in kinds
        assert len(fleet.responses) == 17
        # Retired replicas still report their results.
        assert sum(len(r.responses) for r in fleet.replica_results) == 17

    def test_router_instance_resized_back_after_run(self):
        from repro.serve import RoundRobinRouter

        router = RoundRobinRouter()
        reqs = make_workload(16, seed=4, rate_rps=2000.0,
                             arrival="bursty", burst_size=16)
        policy = AutoscalePolicy(max_replicas=3, scale_up_queue_depth=3)
        cluster = ServingCluster(ARCH, "mxfp4", n_replicas=1, router=router,
                                 kv_token_budget=8192, autoscale=policy)
        first = cluster.run(reqs)
        second = cluster.run(reqs)
        assert first.assignments == second.assignments
