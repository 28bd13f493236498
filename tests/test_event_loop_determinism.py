"""Property tests pinning the event loop's determinism contract.

Three families of invariants, all hypothesis-driven over seeds, routers,
schedulers, and fleet shapes:

* **sharded ≡ single-process** — for every router in
  ``SHARDABLE_ROUTERS``, ``run_sharded`` must reproduce ``cluster.run``
  *bit-identically*: same assignments, same per-request latencies, same
  per-replica stage accounting. This is the contract that lets the
  fleet simulation scale across processes without changing a single
  float.
* **submission-order invariance** — the loop orders events by virtual
  time (ties: arrival, then transfer, then step; replica ties to the
  lowest index), so permuting the *input list* of a trace with distinct
  arrival times must not change any per-request outcome, in the unified
  and the disaggregated loop alike.
* **heap bookkeeping** — ``_EventState`` must agree with the linear
  scan it replaced: earliest time wins, replica ties break to the
  lowest index, and stale heap entries (from re-published replicas) are
  never surfaced.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.models.zoo import ARCHS
from repro.serve import (
    SHARDABLE_ROUTERS,
    AutoscalePolicy,
    ServingCluster,
    available_routers,
    available_schedulers,
    make_workload,
    run_sharded,
)
from repro.serve.cluster import _EventState

ARCH = ARCHS["llama-2-7b"]

# Keep each example fast: small traces, modest KV budget. The properties
# are about ordering and determinism, not scale — scale is benchmarked.
PROPERTY_SETTINGS = settings(
    max_examples=10,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def _cluster(router, scheduler, n_replicas, **kw):
    return ServingCluster(
        ARCH,
        "mxfp4+",
        n_replicas=n_replicas,
        router=router,
        scheduler=scheduler,
        kv_token_budget=32_768,
        **kw,
    )


def _fingerprint(fleet):
    """Everything observable about a run, hashable for equality."""
    return (
        fleet.makespan_s,
        fleet.total_tokens,
        tuple(sorted(fleet.assignments.items())),
        tuple(
            (r.request_id, r.ttft_s, r.tpot_s, r.finish_s)
            for r in fleet.responses
        ),
        tuple(
            (res.makespan_s, res.stages.prefill_s, res.stages.decode_s)
            for res in fleet.replica_results
        ),
    )


def _by_id(fleet):
    return {
        r.request_id: (r.ttft_s, r.tpot_s, r.finish_s) for r in fleet.responses
    }


class TestShardedEquivalence:
    @PROPERTY_SETTINGS
    @given(
        seed=st.integers(0, 1_000_000),
        router=st.sampled_from(sorted(SHARDABLE_ROUTERS)),
        scheduler=st.sampled_from(available_schedulers()),
        n_replicas=st.integers(1, 3),
    )
    def test_sharded_bitidentical(self, seed, router, scheduler, n_replicas):
        reqs = make_workload(18, seed=seed, rate_rps=120.0)
        cluster = _cluster(router, scheduler, n_replicas)
        single = _fingerprint(cluster.run(reqs))
        sharded = _fingerprint(run_sharded(cluster, reqs, n_workers=2))
        assert single == sharded

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 1_000_000))
    def test_sharded_inline_and_pooled_agree(self, seed):
        # n_workers=1 (in-process) and n_workers=2 (multiprocessing) take
        # different code paths to the same merge; both must match run().
        reqs = make_workload(16, seed=seed, rate_rps=80.0)
        cluster = _cluster("round-robin", "prefill-first", 2)
        fingerprints = {
            _fingerprint(cluster.run(reqs)),
            _fingerprint(run_sharded(cluster, reqs, n_workers=1)),
            _fingerprint(run_sharded(cluster, reqs, n_workers=2)),
        }
        assert len(fingerprints) == 1

    def test_load_feedback_routers_refused(self):
        # Routers that read live replica state cannot be routed at plan
        # time; sharding refuses them rather than diverge from run().
        reqs = make_workload(8, seed=0, rate_rps=50.0)
        refused = set(available_routers()) - SHARDABLE_ROUTERS
        assert refused  # the load-feedback routers
        for router in sorted(refused):
            cluster = _cluster(router, "prefill-first", 2)
            with pytest.raises(ValueError, match="live replica state"):
                run_sharded(cluster, reqs)

    def test_autoscale_and_disagg_rejected(self):
        reqs = make_workload(4, seed=0)
        scaled = ServingCluster(
            ARCH, "mxfp4+", n_replicas=2, kv_token_budget=32_768,
            autoscale=AutoscalePolicy(min_replicas=1, max_replicas=4),
        )
        with pytest.raises(ValueError, match="autoscal"):
            run_sharded(scaled, reqs)
        disagg = ServingCluster(
            ARCH, "mxfp4+", n_prefill=1, n_decode=1, kv_token_budget=32_768,
        )
        with pytest.raises(ValueError, match="disaggregated"):
            run_sharded(disagg, reqs)


class TestSubmissionOrderInvariance:
    @PROPERTY_SETTINGS
    @given(
        seed=st.integers(0, 1_000_000),
        shuffle_seed=st.integers(0, 1_000_000),
        router=st.sampled_from(
            ["round-robin", "prefix-affinity", "queue-depth"]
        ),
    )
    def test_unified_loop_permutation_invariant(
        self, seed, shuffle_seed, router
    ):
        # Poisson arrivals are distinct almost surely, so the canonical
        # submission order is unique and the input permutation must not
        # leak into any outcome.
        reqs = make_workload(20, seed=seed, rate_rps=100.0)
        shuffled = list(reqs)
        random.Random(shuffle_seed).shuffle(shuffled)
        cluster = _cluster(router, "prefill-first", 3)
        a = cluster.run(reqs)
        b = cluster.run(shuffled)
        assert a.assignments == b.assignments
        assert _by_id(a) == _by_id(b)
        assert a.makespan_s == b.makespan_s

    @PROPERTY_SETTINGS
    @given(
        seed=st.integers(0, 1_000_000),
        shuffle_seed=st.integers(0, 1_000_000),
    )
    def test_disagg_loop_permutation_invariant(self, seed, shuffle_seed):
        # The three-way tie rule (arrival ≤ transfer ≤ step) must hold
        # regardless of how the input list was ordered.
        reqs = make_workload(12, seed=seed, rate_rps=60.0)
        shuffled = list(reqs)
        random.Random(shuffle_seed).shuffle(shuffled)
        def runner():
            return ServingCluster(
                ARCH, "mxfp4+", n_prefill=1, n_decode=2,
                kv_token_budget=32_768,
            )
        a = runner().run(reqs)
        b = runner().run(shuffled)
        assert a.assignments == b.assignments
        assert a.decode_assignments == b.decode_assignments
        assert _by_id(a) == _by_id(b)
        assert [t["arrive_s"] for t in a.transfers] == [
            t["arrive_s"] for t in b.transfers
        ]


class _StubEngine:
    """Minimal peek_next_event carrier for _EventState unit tests."""

    def __init__(self, t):
        self.t = t

    def peek_next_event(self):
        return self.t


class TestEventHeap:
    def test_earliest_time_wins_ties_to_lowest_index(self):
        state = _EventState(
            [_StubEngine(2.0), _StubEngine(1.0), _StubEngine(1.0)]
        )
        assert state.peek() == (1.0, 1)  # not (1.0, 2): lowest index

    def test_drained_replicas_are_invisible(self):
        state = _EventState([_StubEngine(None), _StubEngine(3.0)])
        assert state.peek() == (3.0, 1)
        state.replicas[1].t = None
        state.touch(1)
        assert state.peek() == (None, None)

    def test_stale_entries_never_surface(self):
        engines = [_StubEngine(1.0), _StubEngine(2.0)]
        state = _EventState(engines)
        engines[0].t = 5.0  # replica 0's schedule moved later...
        state.touch(0)  # ...and the old t=1.0 entry is now stale
        assert state.peek() == (2.0, 1)
        state.pop_head()
        assert state.peek() == (5.0, 0)

    def test_touch_after_every_mutation_keeps_order(self):
        # Simulate submit/step interleaving: times only move forward, and
        # peek always returns the current minimum over live replicas.
        rng = random.Random(7)
        engines = [_StubEngine(float(i + 1)) for i in range(4)]
        state = _EventState(engines)
        for _ in range(200):
            t, idx = state.peek()
            expect = min(
                (e.t, j) for j, e in enumerate(engines) if e.t is not None
            )
            assert (t, idx) == expect
            state.pop_head()
            engines[idx].t = (
                None if rng.random() < 0.1 else t + rng.random()
            )
            state.touch(idx)
            if all(e.t is None for e in engines):
                break
