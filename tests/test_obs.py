"""Observability contract tests: tracing never perturbs, exports pin bytes.

Four families, hypothesis-driven where the contract quantifies over
seeds / routers / schedulers:

* **non-perturbation** — a cluster run with a :class:`~repro.obs.Tracer`
  and :class:`~repro.obs.MetricsRegistry` attached must produce a
  :class:`~repro.serve.FleetResult` *bit-identical* to the untraced run
  (the nullable-tracer off-path is a single ``if``; the on-path only
  observes).
* **shard-merge determinism** — for routers in
  :data:`~repro.serve.SHARDABLE_ROUTERS`, the canonical merge of
  per-worker trace streams equals the single-process trace
  event-for-event (``(t, replica, kind, req, data)`` is a total order
  over event multisets, so emission interleaving cannot leak through).
* **export byte-identity** — the Chrome-trace JSON is a pure function
  of the event multiset + metrics snapshot: two runs of the same
  workload serialise to the same bytes (the process-global step-time
  cache is cleared per run — its hit-rate series is the one
  history-dependent input).
* **primitives** — flight-recorder ring accounting, gauge sampling and
  registry throttling, histogram bucketing, span reconstruction, and
  the validator's rejection of malformed payloads.
"""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.gpu.inference import step_time_cache_info
from repro.models.zoo import ARCHS
from repro.obs import (
    MetricsRegistry,
    Span,
    TraceEvent,
    Tracer,
    chrome_trace,
    event_key,
    lifecycle_spans,
    merge_events,
    timeline_report,
    validate_chrome_trace,
    write_chrome_trace,
    write_event_log,
    write_metrics_csv,
)
from repro.serve import (
    SHARDABLE_ROUTERS,
    ServingCluster,
    available_schedulers,
    make_workload,
    run_sharded,
)

from test_event_loop_determinism import PROPERTY_SETTINGS, _fingerprint

ARCH = ARCHS["llama-2-7b"]


def _cluster(router="round-robin", scheduler="prefill-first", n_replicas=2,
             traced=False, **kw):
    tracer = Tracer() if traced else None
    metrics = MetricsRegistry() if traced else None
    return ServingCluster(
        ARCH,
        "mxfp4+",
        n_replicas=n_replicas,
        router=router,
        scheduler=scheduler,
        kv_token_budget=32_768,
        tracer=tracer,
        metrics=metrics,
        **kw,
    )


class TestNonPerturbation:
    @PROPERTY_SETTINGS
    @given(
        seed=st.integers(0, 1_000_000),
        router=st.sampled_from(
            ["round-robin", "least-kv-load", "queue-depth",
             "free-kv-at-arrival", "prefix-affinity"]
        ),
        scheduler=st.sampled_from(available_schedulers()),
    )
    def test_traced_fleet_bitidentical(self, seed, router, scheduler):
        reqs = make_workload(16, seed=seed, rate_rps=100.0)
        plain = _cluster(router, scheduler).run(reqs)
        traced = _cluster(router, scheduler, traced=True).run(reqs)
        assert _fingerprint(plain) == _fingerprint(traced)

    def test_traced_disagg_bitidentical(self):
        reqs = make_workload(12, seed=3, rate_rps=60.0)

        def cluster(traced):
            return ServingCluster(
                ARCH, "mxfp4+", n_prefill=1, n_decode=1,
                kv_token_budget=32_768, kv_transfer="pcie5",
                tracer=Tracer() if traced else None,
                metrics=MetricsRegistry() if traced else None,
            )

        assert _fingerprint(cluster(False).run(reqs)) == _fingerprint(
            cluster(True).run(reqs)
        )

    def test_cache_probes(self):
        cluster = _cluster()
        fleet_pricer = cluster.pricer
        fleet = cluster.run(make_workload(6, seed=0, rate_rps=50.0))
        assert "probes" not in fleet.summary()
        assert fleet.sorts_performed == 1  # summary's p99 sorted ttft once
        fleet.summary()
        assert fleet.sorts_performed == 1
        # the fleet's own pricer counts its memo probes; the process-wide
        # totals include it
        own = fleet_pricer.cache_info()
        assert own["hits"] + own["misses"] > 0
        totals = step_time_cache_info()
        assert {"hits", "misses", "attention", "rows"} <= set(totals)
        assert totals["hits"] >= own["hits"] and totals["misses"] >= own["misses"]


class TestShardMergeDeterminism:
    @PROPERTY_SETTINGS
    @given(
        seed=st.integers(0, 1_000_000),
        router=st.sampled_from(sorted(SHARDABLE_ROUTERS)),
        n_replicas=st.integers(1, 3),
    )
    def test_merged_trace_equals_single_process(self, seed, router, n_replicas):
        reqs = make_workload(14, seed=seed, rate_rps=90.0)
        single = _cluster(router, n_replicas=n_replicas, traced=True)
        single.run(reqs)
        sharded = _cluster(router, n_replicas=n_replicas, traced=True)
        run_sharded(sharded, reqs, n_workers=2)
        assert sharded.tracer.events() == single.tracer.events()

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 1_000_000), n_chunks=st.integers(1, 5))
    def test_merge_is_partition_invariant(self, seed, n_chunks):
        # merge_events over ANY partition of a stream equals the sorted
        # whole — the property the per-worker merge rests on.
        cluster = _cluster(traced=True)
        cluster.run(make_workload(10, seed=seed, rate_rps=80.0))
        events = cluster.tracer.raw_events()
        chunks = [events[i::n_chunks] for i in range(n_chunks)]
        assert merge_events(chunks) == sorted(events, key=event_key)


class TestExportByteIdentity:
    def test_chrome_trace_bytes_repeat(self, tmp_path):
        reqs = make_workload(20, seed=5, rate_rps=100.0)
        paths = []
        for name in ("a.json", "b.json"):
            cluster = _cluster(traced=True)
            cluster.run(reqs)
            path = tmp_path / name
            write_chrome_trace(path, cluster.tracer.events(), cluster.metrics)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_export_validates_and_logs(self, tmp_path):
        cluster = _cluster(traced=True)
        cluster.run(make_workload(12, seed=1, rate_rps=70.0))
        events = cluster.tracer.events()
        payload = chrome_trace(events, cluster.metrics)
        stats = validate_chrome_trace(payload)
        assert stats["complete_pairs"] > 0 and stats["instants"] > 0
        assert stats["counters"] > 0
        log = tmp_path / "events.jsonl"
        assert write_event_log(log, events) == len(events)
        first = json.loads(log.read_text().splitlines()[0])
        assert set(first) == {"t", "replica", "kind", "req", "data"}
        report = timeline_report(events, max_requests=3)
        assert "| request |" in report and "- finish: 12" in report
        csv = tmp_path / "metrics.csv"
        rows = write_metrics_csv(csv, cluster.metrics)
        assert rows > 0
        assert csv.read_text().startswith("series,t,value\n")


class TestValidator:
    def _ok(self, ph="i", **kw):
        ev = {"name": "x", "ph": ph, "ts": 1.0, "pid": 0, "tid": 0}
        ev.update(kw)
        return ev

    def test_rejects_backwards_ts(self):
        payload = {"traceEvents": [self._ok(ts=2.0), self._ok(ts=1.0)]}
        with pytest.raises(ValueError, match="backwards"):
            validate_chrome_trace(payload)

    def test_rejects_unmatched_pairs(self):
        with pytest.raises(ValueError, match="unclosed"):
            validate_chrome_trace({"traceEvents": [self._ok(ph="B")]})
        with pytest.raises(ValueError, match="E without B"):
            validate_chrome_trace({"traceEvents": [self._ok(ph="E")]})
        with pytest.raises(ValueError, match="mismatched"):
            validate_chrome_trace({"traceEvents": [
                self._ok(ph="B", name="a"), self._ok(ph="E", name="b"),
            ]})

    def test_rejects_unknown_phase_and_shape(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({})
        with pytest.raises(ValueError, match="unknown phase"):
            validate_chrome_trace({"traceEvents": [self._ok(ph="Z")]})


class TestPrimitives:
    def test_flight_recorder_ring(self):
        t = Tracer(capacity=3)
        for i in range(10):
            t.emit(float(i), 0, "arrive", f"r{i}")
        assert [e.req for e in t.raw_events()] == ["r7", "r8", "r9"]
        assert t.appended == 10 and t.dropped == 7
        with pytest.raises(ValueError, match="capacity"):
            Tracer(capacity=0)

    @given(st.lists(st.integers(), max_size=50))
    def test_flight_recorder_unbounded_is_a_list(self, items):
        t = Tracer()
        for item in items:
            t.emit(0.0, 0, "step", "", (item,))
        assert [e.data[0] for e in t.raw_events()] == items
        assert t.capacity is None and t.dropped == 0

    def test_capped_tracer_keeps_newest_events(self):
        t = Tracer(capacity=2)
        for i in range(5):
            t.emit(float(i), 0, "arrive", f"r{i}")
        assert [e.req for e in t.events()] == ["r3", "r4"]
        assert t.dropped == 3

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        c = reg.counter("preemptions")
        c.inc()
        assert c.value == 1
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_throttle_and_final_sample(self):
        reg = MetricsRegistry(interval_s=1.0)
        g = reg.gauge("queue_depth")  # inherits the registry's interval
        for t, v in [(0.0, 1), (0.5, 2), (1.0, 3), (1.2, 4)]:
            g.set(t, v)
        assert g.series == [(0.0, 1), (1.0, 3)]
        assert g.value == 4  # live value tracks every set
        reg.sample_final(2.0)
        assert g.series[-1] == (2.0, 4)

    def test_registry_due_throttles(self):
        reg = MetricsRegistry(interval_s=1.0)
        fired = [t for t in (0.0, 0.3, 0.9, 1.0, 1.5, 2.1) if reg.due(t)]
        assert fired == [0.0, 1.0, 2.1]

    def test_histogram_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("ttft_s", bounds=(0.1, 1.0))
        for v in (0.05, 0.5, 0.5, 5.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["counts"] == [1, 2, 1]
        assert snap["total"] == 4 and snap["sum"] == pytest.approx(6.05)

    def test_lifecycle_spans_preempt_reopens_queue(self):
        events = [
            TraceEvent(0.0, 0, "arrive", "r0", (8, 4)),
            TraceEvent(0.1, 0, "admit", "r0", (0, 8)),
            TraceEvent(0.1, 0, "prefill_chunk", "r0", (8, 0.2)),
            TraceEvent(0.6, 0, "preempt", "r0"),
            TraceEvent(0.9, 0, "admit", "r0", (8, 0)),
            TraceEvent(1.4, 0, "finish", "r0", (4,)),
        ]
        spans = [(s.name, s.t0, s.t1) for s in lifecycle_spans(events)]
        assert spans == [
            ("queue", 0.0, 0.1),
            ("prefill", 0.1, 0.2),
            ("decode", 0.2, 0.6),
            ("queue", 0.6, 0.9),
            ("decode", 0.9, 1.4),
        ]

    def test_lifecycle_spans_tolerate_truncated_stream(self):
        # A ring that evicted the arrive/admit prefix must not crash or
        # invent spans with no opening event.
        events = [
            TraceEvent(2.0, 0, "prefill_chunk", "r0", (4, 2.1)),
            TraceEvent(3.0, 0, "finish", "r0", (1,)),
        ]
        spans = lifecycle_spans(events)
        assert [(s.name, s.t0, s.t1) for s in spans] == [
            ("prefill", 2.0, 2.1), ("decode", 2.1, 3.0),
        ]
        assert lifecycle_spans([]) == []

    def test_span_fields(self):
        s = Span("r0", "transfer", 1.0, 2.0, -1)
        assert s.replica == -1 and s.t1 - s.t0 == 1.0
