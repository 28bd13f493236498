"""Sharded virtual-time simulation: the fleet event loop across processes.

:class:`~repro.serve.ServingCluster`'s global event loop is exact but
serial — one Python process walks every replica's steps in virtual-time
order. For *state-blind* routers that serialization is unnecessary:
the routing decision for every request can be computed up front (it
depends only on the request sequence, never on live replica state), and
once each request knows its replica, every replica's trajectory is
independent of the others — a :class:`~repro.serve.ServingEngine` is
self-contained, so replaying one replica's shard through ``engine.run``
reproduces exactly the step sequence the global loop would have driven
on that replica.

That turns the fleet simulation into an embarrassingly parallel map:

.. code-block:: text

      requests ──▶ plan_shards (route @ plan time, arrival order)
                       │
         ┌─────────────┼─────────────┐
         ▼             ▼             ▼
      worker 0      worker 1      worker 2      (multiprocessing)
      engine.run    engine.run    engine.run    (own virtual clock)
         │             │             │
         └─────────────┼─────────────┘
                       ▼
              deterministic merge ──▶ FleetResult
              (responses in input order, replicas by index)

**Determinism contract.** For routers in :data:`SHARDABLE_ROUTERS`
(``round-robin``, ``least-kv-load``, ``prefix-affinity``) the merged
:class:`~repro.serve.FleetResult` is **bit-identical** to
``cluster.run(requests)``: these routers never read the replicas' live
state, so plan-time routing equals event-loop routing, and each
engine's virtual-time trajectory depends only on its own shard.

The load-feedback routers (``queue-depth``, ``free-kv-at-arrival``)
read live state that only exists mid-simulation, and autoscaling and
disaggregated prefill/decode clusters couple replicas through global
state (fleet size, the shared transfer link); all three are rejected —
use ``cluster.run``.
"""

from __future__ import annotations

import multiprocessing
import os

from .cluster import FleetResult, ServingCluster, get_router
from .engine import Request, ServingResult, arrival_order

__all__ = [
    "SHARDABLE_ROUTERS",
    "plan_shards",
    "run_sharded",
]

# Routers whose route() never reads the replicas' live state: plan-time
# routing over the idle fleet is identical to event-loop routing, so
# their sharded results are bit-identical to the global loop's.
SHARDABLE_ROUTERS = frozenset({"round-robin", "least-kv-load", "prefix-affinity"})


def plan_shards(
    cluster: ServingCluster, requests: list[Request]
) -> tuple[list[list[Request]], dict[str, int]]:
    """Partition ``requests`` by router decision at plan time.

    Routes every request in arrival order — exactly the order the global
    event loop routes them — over the idle fleet (every replica live,
    ``cluster.engines`` as the replicas), so for the routers in
    :data:`SHARDABLE_ROUTERS` the assignment map equals the one
    ``cluster.run`` would produce. Returns ``(shards, assignments)``
    where ``shards[j]`` lists replica ``j``'s requests in *input* order
    (the order :meth:`ServingEngine.collect
    <repro.serve.ServingEngine.collect>` reports them in). Routers
    outside :data:`SHARDABLE_ROUTERS` raise ``ValueError``: on the idle
    fleet they would see no load at all.
    """
    router = get_router(cluster._router_spec)
    if router.name not in SHARDABLE_ROUTERS:
        raise ValueError(
            f"router {router.name!r} reads live replica state that only "
            "exists mid-simulation — use cluster.run()"
        )
    router.reset()
    live = list(range(cluster.n_replicas))
    assignments: dict[str, int] = {}
    for request in arrival_order(requests):
        assignments[request.request_id] = router.route(
            request, live, cluster.engines
        )
    shards: list[list[Request]] = [[] for _ in range(cluster.n_replicas)]
    for request in requests:
        shards[assignments[request.request_id]].append(request)
    return shards, assignments


def _run_shard(payload: tuple) -> tuple:
    """Worker: replay one replica's shard on a fresh engine.

    Top-level (picklable) so it works under any multiprocessing start
    method. ``engine.run`` performs the same submit-in-arrival-order /
    drain / collect-in-input-order sequence the global loop drives per
    replica, so the returned :class:`~repro.serve.ServingResult` is the
    one ``cluster.run`` would report for this replica.

    When ``trace`` is set the worker records into its own fresh
    :class:`repro.obs.Tracer` tagged with the replica index and ships
    the raw events back with the result; the parent merges all shards'
    events into one canonical stream (see :func:`run_sharded`).
    """
    cluster, shard, index, trace = payload
    engine = cluster._make_engine()
    if trace:
        from ..obs.trace import Tracer

        engine.tracer = Tracer()
        engine.trace_replica = index
    result = engine.run(shard)
    events = engine.tracer.raw_events() if trace else None
    return result, events


def run_sharded(
    cluster: ServingCluster,
    requests: list[Request],
    n_workers: int | None = None,
    tracer=None,
) -> FleetResult:
    """Run ``cluster``'s fleet simulation sharded across processes.

    Routes at plan time (:func:`plan_shards`), replays each replica's
    shard in its own worker process, and merges into a
    :class:`~repro.serve.FleetResult` — bit-identical to
    ``cluster.run(requests)`` for routers in :data:`SHARDABLE_ROUTERS`
    (see the module docstring for the contract and why it holds).

    ``n_workers`` defaults to ``min(n_replicas, cpu_count)``;
    ``n_workers <= 1`` runs the shards in-process (same merge path, no
    pickling) which is also the fallback for numeric-mode clusters.
    Routers outside :data:`SHARDABLE_ROUTERS`, autoscaling and
    disaggregated clusters are rejected — they read or couple live
    replica state that sharding cannot preserve.

    ``tracer`` (a :class:`repro.obs.Tracer`, default
    ``cluster.tracer``) extends the determinism contract to traces:
    each worker records into a private per-replica tracer, the parent
    synthesizes the plan-time ``route`` events the global loop would
    have emitted, and the merged stream is ingested in canonical
    ``(t, replica, kind, req, data)`` order — for shardable routers an
    (uncapped) merged trace is event-for-event equal to the trace
    ``cluster.run`` records in one process.
    """
    if cluster.disaggregated:
        raise ValueError(
            "disaggregated clusters share one transfer link across pools; "
            "shards cannot preserve its serialization — use cluster.run()"
        )
    if cluster.autoscale is not None:
        raise ValueError(
            "autoscaling reacts to fleet-wide state; sharded replicas "
            "cannot observe each other — use cluster.run()"
        )
    if tracer is None:
        tracer = getattr(cluster, "tracer", None)
    requests = list(requests)
    shards, assignments = plan_shards(cluster, requests)
    trace = tracer is not None
    payloads = [(cluster, shard, j, trace) for j, shard in enumerate(shards)]
    if n_workers is None:
        n_workers = min(cluster.n_replicas, os.cpu_count() or 1)
    if n_workers <= 1 or cluster._model is not None:
        # In-process fallback: identical merge path, no pickling. Numeric
        # mode stays here — model weights are not worth shipping to
        # workers for a simulation this size.
        outcomes = [_run_shard(p) for p in payloads]
    else:
        with multiprocessing.Pool(processes=n_workers) as pool:
            outcomes = pool.map(_run_shard, payloads)
    results = [res for res, _ in outcomes]
    if trace:
        # Reconstruct the cluster-lane events the global loop would have
        # emitted (plan-time routing is event-loop routing for shardable
        # routers), then merge every stream canonically.
        from ..obs.trace import TraceEvent, merge_events

        synthesized = [
            TraceEvent(
                request.arrival_s, -1, "route", request.request_id,
                (assignments[request.request_id],),
            )
            for request in arrival_order(requests)
        ]
        tracer.ingest(
            merge_events(
                [synthesized] + [events for _, events in outcomes]
            )
        )
    by_id = {
        resp.request_id: resp for res in results for resp in res.responses
    }
    return FleetResult(
        responses=[by_id[r.request_id] for r in requests],
        replica_results=results,
        assignments=assignments,
        router=get_router(cluster._router_spec).name,
        scheduler=cluster.engines[0].scheduler.name,
        autoscale_events=[],
    )
