"""Unified serving API: recipes, paged KV, workloads, engine, cluster.

``QuantRecipe`` is the canonical configuration object for the whole repo
(numeric accuracy path and GPU timing path alike). On top of it sit the
serving layers added across PRs 1-2:

* :class:`ServingEngine` — one replica: continuous batching with
  per-request TTFT/TPOT accounting over a paged KV cache;
* :class:`PagedKVCache` — block-granular KV allocation with per-recipe
  byte accounting and shared-prefix caching;
* :mod:`repro.serve.workload` — seeded synthetic workloads (Poisson /
  bursty arrivals, length distributions, shared-prefix chat) and JSONL
  trace replay;
* :class:`ServingCluster` — N replicas behind a pluggable router
  (round-robin / least-KV-load / prefix-affinity) with fleet metrics
  including goodput under SLO.

Quickstart::

    from repro.models.zoo import ARCHS
    from repro.serve import ServingCluster, chat_workload

    cluster = ServingCluster(
        ARCHS["llama-2-13b"], "mxfp4+", n_replicas=4,
        router="prefix-affinity", page_budget_bytes=8 << 30,
    )
    fleet = cluster.run(chat_workload(64, n_prefixes=4, prefix_len=512, seed=0))
    print(fleet.summary(ttft_slo_s=2.0, tpot_slo_s=0.05))
"""

from .recipe import QuantRecipe, as_recipe, available_recipes, get_recipe, register_recipe
from .kvcache import (
    INTERCONNECTS,
    KVTransfer,
    PagedKVCache,
    get_interconnect,
    kv_token_bytes,
)
from .engine import (
    KVHandoff,
    Request,
    Response,
    ServingEngine,
    ServingResult,
    StepEvent,
    arrival_order,
    validate_batch,
)
from .sched import (
    ChunkedPrefillScheduler,
    DecodePriorityScheduler,
    PrefillFirstScheduler,
    SCHEDULERS,
    Scheduler,
    StepPlan,
    available_schedulers,
    get_scheduler,
)
from .workload import (
    LengthDist,
    bursty_arrivals,
    chat_workload,
    iter_workload,
    load_trace,
    long_prompt_workload,
    make_workload,
    poisson_arrivals,
    save_trace,
    stream_trace,
)
from .cluster import (
    AutoscalePolicy,
    FleetResult,
    FreeKVAtArrivalRouter,
    LeastKVLoadRouter,
    PrefixAffinityRouter,
    QueueDepthRouter,
    ROUTERS,
    RoundRobinRouter,
    Router,
    ServingCluster,
    available_routers,
    get_router,
)
from .shard import SHARDABLE_ROUTERS, plan_shards, run_sharded

__all__ = [
    "QuantRecipe",
    "as_recipe",
    "register_recipe",
    "get_recipe",
    "available_recipes",
    "PagedKVCache",
    "kv_token_bytes",
    "KVTransfer",
    "INTERCONNECTS",
    "get_interconnect",
    "KVHandoff",
    "Request",
    "Response",
    "ServingResult",
    "ServingEngine",
    "StepEvent",
    "validate_batch",
    "arrival_order",
    "Scheduler",
    "StepPlan",
    "PrefillFirstScheduler",
    "ChunkedPrefillScheduler",
    "DecodePriorityScheduler",
    "SCHEDULERS",
    "available_schedulers",
    "get_scheduler",
    "LengthDist",
    "poisson_arrivals",
    "bursty_arrivals",
    "make_workload",
    "iter_workload",
    "chat_workload",
    "long_prompt_workload",
    "save_trace",
    "load_trace",
    "stream_trace",
    "Router",
    "RoundRobinRouter",
    "LeastKVLoadRouter",
    "PrefixAffinityRouter",
    "QueueDepthRouter",
    "FreeKVAtArrivalRouter",
    "ROUTERS",
    "available_routers",
    "get_router",
    "AutoscalePolicy",
    "FleetResult",
    "ServingCluster",
    "SHARDABLE_ROUTERS",
    "plan_shards",
    "run_sharded",
]
