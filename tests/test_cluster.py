"""Tests for the cluster layer: routers (determinism, tie-breaking),
fleet metrics, single-replica reconciliation, and the step-time cache."""

import pytest

from repro.gpu.inference import (
    StepPricer,
    clear_step_time_cache,
    step_time_cache_info,
)
from repro.models.zoo import ARCHS
from repro.serve import (
    AutoscalePolicy,
    LeastKVLoadRouter,
    PrefixAffinityRouter,
    Request,
    RoundRobinRouter,
    ServingCluster,
    ServingEngine,
    available_routers,
    chat_workload,
    get_router,
    make_workload,
)

ARCH = ARCHS["llama-2-7b"]


def _requests(n=8, prompt=128, out=8):
    return [
        Request(f"r{i}", prompt_len=prompt, max_new_tokens=out, arrival_s=0.01 * i)
        for i in range(n)
    ]


def _engines(n):
    return ServingCluster(ARCH, "mxfp4", n_replicas=n, kv_token_budget=8192).engines


class TestRouters:
    def test_registry(self):
        assert available_routers() == [
            "free-kv-at-arrival",
            "least-kv-load",
            "prefix-affinity",
            "queue-depth",
            "round-robin",
        ]
        assert isinstance(get_router("round-robin"), RoundRobinRouter)
        router = LeastKVLoadRouter()
        assert get_router(router) is router
        with pytest.raises(KeyError, match="unknown router"):
            get_router("random")

    def test_round_robin_cycles(self):
        router, engines = RoundRobinRouter(), _engines(3)
        assert [router.route(r, [0, 1, 2], engines) for r in _requests(7)] == [
            0, 1, 2, 0, 1, 2, 0
        ]

    def test_least_load_ties_break_to_lowest_index(self):
        router, engines = LeastKVLoadRouter(), _engines(4)
        # All loads equal at every step until each replica has one request.
        live = list(range(4))
        assert [router.route(r, live, engines) for r in _requests(4)] == [0, 1, 2, 3]

    def test_least_load_prefers_lighter_replica(self):
        router, engines = LeastKVLoadRouter(), _engines(2)
        heavy = Request("h", prompt_len=4096, max_new_tokens=512)
        light = Request("l", prompt_len=32, max_new_tokens=8)
        assert router.route(heavy, [0, 1], engines) == 0
        assert router.route(light, [0, 1], engines) == 1
        # replica 1 is still lighter: 40 < 4608
        medium = Request("m", prompt_len=64, max_new_tokens=8)
        assert router.route(medium, [0, 1], engines) == 1

    def test_prefix_affinity_sticks(self):
        router, engines = PrefixAffinityRouter(), _engines(3)
        reqs = [
            Request(f"c{i}", prompt_len=256, max_new_tokens=8,
                    prefix_id=f"sys-{i % 2}", prefix_len=128)
            for i in range(6)
        ]
        homes = [router.route(r, [0, 1, 2], engines) for r in reqs]
        assert homes[0::2] == [homes[0]] * 3  # sys-0 pinned
        assert homes[1::2] == [homes[1]] * 3  # sys-1 pinned
        assert homes[0] != homes[1]

    def test_prefix_affinity_falls_back_for_plain_requests(self):
        router, engines = PrefixAffinityRouter(), _engines(2)
        assert router.route(Request("a", prompt_len=64), [0, 1], engines) == 0
        assert router.route(Request("b", prompt_len=64), [0, 1], engines) == 1

    def test_router_instance_reset_between_runs(self):
        # A router *instance* must behave like a fresh one on every run.
        reqs = _requests(5)
        router = RoundRobinRouter()
        cluster = ServingCluster(ARCH, "mxfp4", n_replicas=2, router=router,
                                 kv_token_budget=16_384)
        first = cluster.run(reqs).assignments
        second = cluster.run(reqs).assignments
        assert first == second

    def test_router_determinism_under_fixed_seed(self):
        reqs = chat_workload(48, n_prefixes=4, prefix_len=256, seed=11, rate_rps=40.0)
        cluster = ServingCluster(
            ARCH, "mxfp4", n_replicas=3, router="prefix-affinity",
            kv_token_budget=32_768,
        )
        first = cluster.run(reqs).assignments
        second = cluster.run(reqs).assignments  # fresh router per run
        assert first == second


class TestClusterReconciliation:
    def test_one_replica_matches_engine_exactly(self):
        reqs = make_workload(12, seed=5, rate_rps=30.0)
        cluster = ServingCluster(ARCH, "mxfp4+", n_replicas=1, kv_token_budget=32_768)
        engine = ServingEngine(ARCH, "mxfp4+", kv_token_budget=32_768)
        fleet = cluster.run(reqs)
        single = engine.run(reqs)
        assert fleet.makespan_s == single.makespan_s
        assert fleet.total_tokens == single.total_tokens
        for a, b in zip(fleet.responses, single.responses):
            assert (a.ttft_s, a.tpot_s, a.finish_s) == (b.ttft_s, b.tpot_s, b.finish_s)

    def test_responses_keep_input_order(self):
        reqs = _requests(9)
        fleet = ServingCluster(ARCH, "mxfp4", n_replicas=3, kv_token_budget=16_384).run(reqs)
        assert [r.request_id for r in fleet.responses] == [r.request_id for r in reqs]

    def test_duplicate_ids_rejected(self):
        cluster = ServingCluster(ARCH, "mxfp4", n_replicas=2)
        with pytest.raises(ValueError, match="duplicate"):
            cluster.run([Request("x", prompt_len=8), Request("x", prompt_len=8)])

    def test_more_replicas_cut_latency(self):
        reqs = make_workload(24, seed=2, rate_rps=1000.0,
                             prompt=None, output=None)
        one = ServingCluster(ARCH, "mxfp4", n_replicas=1, kv_token_budget=65_536).run(reqs)
        four = ServingCluster(ARCH, "mxfp4", n_replicas=4, kv_token_budget=65_536).run(reqs)
        assert four.makespan_s < one.makespan_s
        assert four.mean_ttft_s < one.mean_ttft_s


class TestFleetMetrics:
    def test_summary_keys_and_goodput(self):
        reqs = _requests(8)
        fleet = ServingCluster(ARCH, "mxfp4", n_replicas=2, kv_token_budget=16_384).run(reqs)
        summary = fleet.summary(ttft_slo_s=10.0, tpot_slo_s=10.0)
        assert summary["requests"] == 8
        assert summary["n_replicas"] == 2
        assert len(summary["replicas"]) == 2
        # Generous SLOs: every request is good, goodput == throughput.
        assert summary["slo_attainment"] == 1.0
        assert summary["goodput_tok_s"] == pytest.approx(fleet.throughput_tok_s)
        # Impossible SLO: nothing qualifies.
        assert fleet.slo_attainment(ttft_slo_s=0.0) == 0.0
        assert fleet.goodput_tok_s(ttft_slo_s=0.0) == 0.0

    def test_prefix_affinity_beats_round_robin_on_chat(self):
        # 4 prefixes over 4 replicas: affinity stores each system prompt
        # once fleet-wide (4 misses total); round-robin scatters every
        # prefix across all replicas and re-misses on each.
        reqs = chat_workload(48, n_prefixes=4, prefix_len=768, seed=3, rate_rps=50.0)
        kwargs = dict(n_replicas=4, page_budget_bytes=1 << 30, block_tokens=16)
        affinity = ServingCluster(ARCH, "mxfp4+", router="prefix-affinity", **kwargs).run(reqs)
        scattered = ServingCluster(ARCH, "mxfp4+", router="round-robin", **kwargs).run(reqs)
        hits = lambda f: sum(r.kv["prefix_hits"] for r in f.replica_results)
        misses = lambda f: sum(r.kv["prefix_misses"] for r in f.replica_results)
        assert misses(affinity) == 4
        assert hits(affinity) > hits(scattered)
        assert affinity.mean_ttft_s < scattered.mean_ttft_s


class TestMetricViewCaching:
    def test_percentiles_never_resort_on_repeat_access(self):
        reqs = _requests(16)
        fleet = ServingCluster(ARCH, "mxfp4", n_replicas=2,
                               kv_token_budget=16_384).run(reqs)
        assert fleet.sorts_performed == 0
        first = fleet.p99_ttft_s()
        assert fleet.sorts_performed == 1
        for _ in range(5):
            assert fleet.p99_ttft_s() == first
            assert fleet.p99_ttft_s(q=50.0) <= first  # same cached view
            fleet.summary(ttft_slo_s=1.0, tpot_slo_s=0.1)
        assert fleet.sorts_performed == 1
        # per-replica results cache their own sorted views the same way
        rep = fleet.replica_results[0]
        before = rep.sorts_performed
        rep.p99_ttft_s()
        rep.p99_ttft_s()
        assert rep.sorts_performed == before + 1


class TestStepTimeCache:
    def test_replicas_share_step_times(self):
        cluster = ServingCluster(ARCH, "mxfp4", n_replicas=4, router="round-robin",
                                 kv_token_budget=16_384)
        cluster.run(_requests(8, prompt=64, out=4))
        assert all(e.pricer is cluster.pricer for e in cluster.engines)
        info = cluster.pricer.cache_info()
        # 4 identical replicas: at least 3/4 of the memo probes are hits.
        assert info["hits"] >= 3 * info["misses"]

    def test_autoscaled_replicas_share_the_pricer(self):
        reqs = make_workload(24, seed=2, rate_rps=2000.0,
                             arrival="bursty", burst_size=24)
        cluster = ServingCluster(
            ARCH, "mxfp4", n_replicas=1, kv_token_budget=8192,
            autoscale=AutoscalePolicy(max_replicas=4, scale_up_queue_depth=3,
                                      scale_down=False),
        )
        made = []
        make_engine = cluster._make_engine

        def record(role="unified"):
            made.append(make_engine(role))
            return made[-1]

        cluster._make_engine = record
        assert cluster.run(reqs).n_replicas > 1
        assert made and all(e.pricer is cluster.pricer for e in made)

    def test_cache_transparent(self):
        from repro.gpu.spec import RTX5090
        from repro.serve import get_recipe

        pricer = StepPricer(RTX5090, ARCH, get_recipe("mxfp4"))
        first = pricer.price([(8, 64)])
        again = pricer.price([(8, 64)])
        assert first == again
        assert pricer.cache_info()["hits"] == 2  # rows + attention
        assert step_time_cache_info()["hits"] >= 2  # totals see live pricers
        clear_step_time_cache()
        # the process-wide reset zeroes counters, not memoized prices
        info = pricer.cache_info()
        assert (info["hits"], info["misses"]) == (0, 0)
        assert (info["attention"]["size"], info["rows"]["size"]) == (1, 1)
        totals = step_time_cache_info()
        assert (totals["hits"], totals["misses"]) == (0, 0)
        for sub in ("attention", "rows"):
            assert (totals[sub]["hits"], totals[sub]["misses"]) == (0, 0)
        assert pricer.price([(8, 64)]) == first
