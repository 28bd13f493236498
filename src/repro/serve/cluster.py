"""Cluster layer: N serving replicas behind one time-coherent event loop.

:class:`ServingCluster` scales the single-replica
:class:`repro.serve.ServingEngine` out to a fleet — and, unlike a
shard-then-simulate batch harness, it is a *discrete-event simulation*:
one global loop advances replicas in virtual-time order through the
engine's ``submit()/peek_next_event()/step()`` API, and every request is
routed **at its arrival instant** against the live state of the fleet at
that moment (per-replica queue depth, free KV pages). Fleet
metrics are therefore time-coherent: a replica's events interleave with
arrivals exactly as they would on one shared timeline.

Routers are deterministic and pluggable (``ROUTERS`` registry):

* ``"round-robin"`` — i-th request (in arrival order) to the i-th live
  replica, cycling;
* ``"least-kv-load"`` — to the replica with the fewest *committed* KV
  tokens (prompt + output budget of everything assigned so far), ties
  broken by lowest replica index — a static policy that never observes
  completions;
* ``"prefix-affinity"`` — requests sharing a ``prefix_id`` stick to the
  replica that first saw that prefix (so its KV pages are reused);
  prefix-less requests fall back to least-KV-load;
* ``"queue-depth"`` — to the replica with the fewest unfinished
  requests (waiting + running) *at the arrival instant*;
* ``"free-kv-at-arrival"`` — to the replica whose paged KV cache has
  the most free tokens *at the arrival instant*. Where least-kv-load
  keeps charging long-finished requests, this router sees the live
  allocator state, so the two diverge as soon as load shifts mid-trace.

An optional :class:`AutoscalePolicy` hook scales the fleet between
events: when every live replica's queue is deep, a fresh replica is
added (up to ``max_replicas``); idle replicas beyond ``min_replicas``
are retired once drained. Retired replicas keep their results.

Passing ``n_prefill``/``n_decode`` switches the cluster to
**disaggregated prefill/decode serving**: arrivals are routed over a
pool of prefill-role replicas, each request's first token is produced
there (TTFT never sees the interconnect), and its KV pages then migrate
over a :class:`~repro.serve.kvcache.KVTransfer` link — serialized, at
the recipe's exact bytes/token — to a decode-role replica picked by
``decode_router``. The autoscaler applies to each pool independently.
Unified and disaggregated fleets share one pool-aware event loop; see
:meth:`ServingCluster.run` and ``docs/SERVING_GUIDE.md``.

With one replica and no shared prefixes the cluster reproduces the
single-engine result *exactly* — the reconciliation anchor that lets
fleet numbers be trusted (asserted in ``benchmarks/test_serving_cluster``).

>>> from repro.models.zoo import ARCHS
>>> from .engine import Request
>>> cluster = ServingCluster(ARCHS["llama-2-13b"], "mxfp4+", n_replicas=2,
...                          kv_token_budget=8192)
>>> reqs = [Request(f"r{i}", prompt_len=256, max_new_tokens=4) for i in range(4)]
>>> fleet = cluster.run(reqs)
>>> [fleet.assignments[f"r{i}"] for i in range(4)]
[0, 1, 0, 1]
>>> len(fleet.responses) == 4 and fleet.makespan_s > 0
True
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from ..gpu.inference import StepPricer
from ..gpu.spec import GPUSpec, RTX5090
from ..models.zoo import ArchSpec
from .engine import (
    LatencyView,
    Request,
    Response,
    ServingEngine,
    ServingResult,
    arrival_order,
)
from .kvcache import KVTransfer, PagedKVCache, get_interconnect, kv_token_bytes
from .recipe import as_recipe

__all__ = [
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
]


class Router:
    """Base class: assign each request (in arrival order) to a replica.

    Routers see requests one at a time, sorted by arrival, and must be
    deterministic — equal inputs yield equal assignments, and all
    tie-breaks resolve to the lowest replica index. ``route`` receives
    ``live``, the routable replica indices in pool order, and
    ``replicas``, the fleet's engines indexed by replica; load-feedback
    routers read ``replicas[j]``'s live state at the arrival instant.
    """

    name = "base"

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Return to the initial state; called before every cluster run
        so router instances behave like freshly-built ones."""

    def route(
        self, request: Request, live: list[int], replicas: list[ServingEngine]
    ) -> int:  # pragma: no cover - interface
        """Pick the replica index for ``request`` (see class docstring)."""
        raise NotImplementedError


class RoundRobinRouter(Router):
    """Cycle through the live replicas in arrival order."""

    name = "round-robin"

    def reset(self) -> None:
        self._pos = 0

    def route(self, request, live, replicas) -> int:
        """The next replica in rotation over the live indices."""
        replica = live[self._pos % len(live)]
        self._pos += 1
        return replica


class LeastKVLoadRouter(Router):
    """Send to the replica with the fewest *committed* KV tokens.

    Load is the sum of ``prompt_len + max_new_tokens`` over assigned
    requests — the KV tokens a request will eventually pin. The counter
    is never decremented (the router does not observe completions), so
    this is the static baseline that ``free-kv-at-arrival`` improves on.
    Ties break to the lowest replica index, so assignment is
    deterministic.
    """

    name = "least-kv-load"

    def reset(self) -> None:
        self.loads: dict[int, int] = {}

    def _least_loaded(self, live: list[int]) -> int:
        return min(live, key=lambda i: (self.loads.get(i, 0), i))

    def route(self, request, live, replicas) -> int:
        """The replica with the least committed KV load; charges it."""
        replica = self._least_loaded(live)
        self._charge(replica, request)
        return replica

    def _charge(self, replica: int, request: Request) -> None:
        self.loads[replica] = (
            self.loads.get(replica, 0) + request.prompt_len + request.max_new_tokens
        )


class PrefixAffinityRouter(LeastKVLoadRouter):
    """Pin each shared prefix to one replica so its KV pages get reused.

    The first request carrying a given ``prefix_id`` is placed on the
    least-loaded replica; every later request with that prefix follows
    it (a prefix scattered across replicas would be stored N times and
    hit only 1/N of the time). Prefix-less requests use least-KV-load.
    If the pinned replica was retired by autoscaling, the prefix is
    re-homed to the least-loaded live replica.
    """

    name = "prefix-affinity"

    def reset(self) -> None:
        super().reset()
        self._homes: dict[str, int] = {}

    def route(self, request, live, replicas) -> int:
        """The prefix's pinned home, or least-KV-load for prefix-less."""
        if request.prefix_id is None:
            return super().route(request, live, replicas)
        replica = self._homes.get(request.prefix_id)
        if replica is None or replica not in live:
            replica = self._homes[request.prefix_id] = self._least_loaded(live)
        self._charge(replica, request)
        return replica


class QueueDepthRouter(Router):
    """Send to the replica with the shallowest queue at the arrival
    instant (waiting + running, live), ties to the lowest index."""

    name = "queue-depth"

    def route(self, request, live, replicas) -> int:
        """The shallowest live queue."""
        return min(live, key=lambda j: (replicas[j].queue_depth, j))


class FreeKVAtArrivalRouter(Router):
    """Send to the replica whose KV cache has the most free tokens at
    the arrival instant, ties to the lowest index.

    The live counterpart of ``least-kv-load``: it sees pages already
    released by finished requests and pages pinned by cached prefixes,
    so it diverges from the static router whenever load shifts over the
    trace.
    """

    name = "free-kv-at-arrival"

    def route(self, request, live, replicas) -> int:
        """The most free live KV tokens."""
        return min(live, key=lambda j: (-replicas[j].free_kv_tokens, j))


ROUTERS: dict[str, type[Router]] = {
    cls.name: cls
    for cls in (
        RoundRobinRouter,
        LeastKVLoadRouter,
        PrefixAffinityRouter,
        QueueDepthRouter,
        FreeKVAtArrivalRouter,
    )
}


def available_routers() -> list[str]:
    """Sorted names of the registered routing policies.

    >>> available_routers()
    ['free-kv-at-arrival', 'least-kv-load', 'prefix-affinity', 'queue-depth', 'round-robin']
    """
    return sorted(ROUTERS)


def get_router(name_or_router) -> Router:
    """Instantiate a router by name (or pass a :class:`Router` through)."""
    if isinstance(name_or_router, Router):
        return name_or_router
    key = str(name_or_router).lower()
    if key not in ROUTERS:
        raise KeyError(
            f"unknown router {name_or_router!r} "
            f"(available: {', '.join(available_routers())})"
        )
    return ROUTERS[key]()


@dataclass(frozen=True)
class AutoscalePolicy:
    """Scale the fleet on live queue depth, consulted between events.

    At every arrival instant the cluster asks :meth:`target` for the
    desired live-replica count given the pool's live engines. The default
    rule: when *every* live replica's queue depth is at least
    ``scale_up_queue_depth``, grow by one (new replicas start with a
    cold KV cache); when more than one replica is completely idle and
    the fleet exceeds ``min_replicas``, retire one drained replica.
    Retired replicas keep their results, and their indices are never
    reused. Subclass and override :meth:`target` for custom rules.
    """

    max_replicas: int = 8
    min_replicas: int = 1
    scale_up_queue_depth: int = 4
    scale_down: bool = True

    def __post_init__(self) -> None:
        if not 1 <= self.min_replicas <= self.max_replicas:
            raise ValueError("need 1 <= min_replicas <= max_replicas")
        if self.scale_up_queue_depth < 1:
            raise ValueError("scale_up_queue_depth must be >= 1")

    def target(self, replicas: list[ServingEngine]) -> int:
        """Desired live replica count given the live engines."""
        n = len(replicas)
        if n < self.max_replicas and n and min(
            e.queue_depth for e in replicas
        ) >= self.scale_up_queue_depth:
            return n + 1
        if (
            self.scale_down
            and n > self.min_replicas
            and sum(1 for e in replicas if e.queue_depth == 0) > 1
        ):
            return n - 1
        return n


@dataclass
class FleetResult(LatencyView):
    """Fleet outcome: per-replica results + cluster-level accounting.

    For a disaggregated run, ``assignments`` maps each request to its
    *prefill* replica, ``decode_assignments`` to the decode replica its
    KV migrated to, ``roles`` records each replica's pool, and
    ``transfers`` holds one record per KV migration (request id, source,
    destination, tokens/bytes moved, export/start/arrive instants).
    Unified runs leave all four empty. The latency views
    (``mean_ttft_s``, ``p99_ttft_s``, ...) come from :class:`LatencyView`
    over the fleet's responses.
    """

    responses: list[Response]  # input order, across all replicas
    replica_results: list[ServingResult]
    assignments: dict[str, int]  # request_id -> replica index
    router: str = ""
    scheduler: str = ""
    autoscale_events: list = field(default_factory=list)  # (time, action, index)
    decode_assignments: dict[str, int] = field(default_factory=dict)
    decode_router: str = ""
    roles: list = field(default_factory=list)  # per-replica pool membership
    transfers: list = field(default_factory=list)  # KV migration records

    @property
    def n_replicas(self) -> int:
        """Replicas that served this run (autoscaled ones included)."""
        return len(self.replica_results)

    @property
    def makespan_s(self) -> float:
        """Fleet makespan: the slowest replica's virtual finish time."""
        return max((r.makespan_s for r in self.replica_results), default=0.0)

    @property
    def requests_per_s(self) -> float:
        """Completed requests per second of virtual wall-clock.

        The fleet-level service rate `repro.bench` sweep cells record
        alongside token throughput — request-shaped SLOs (and prices)
        care about completions, not just tokens.
        """
        return len(self.responses) / self.makespan_s if self.makespan_s else 0.0

    @property
    def preemptions(self) -> int:
        """Preemption (evict-and-recompute) events across the fleet."""
        return sum(r.preemptions for r in self.replica_results)

    @property
    def n_transfers(self) -> int:
        """KV migrations performed (disaggregated runs only)."""
        return len(self.transfers)

    @property
    def transfer_bytes_total(self) -> float:
        """Total bytes moved over the prefill→decode interconnect."""
        return float(sum(t["bytes"] for t in self.transfers))

    @property
    def transfer_bytes_per_request(self) -> float:
        """Mean migrated bytes per transferred request (0.0 if none)."""
        if not self.transfers:
            return 0.0
        return self.transfer_bytes_total / len(self.transfers)

    @property
    def transfer_stall_s_total(self) -> float:
        """Seconds requests spent in flight on the interconnect in total
        (arrival at the decode pool minus export from the prefill pool)."""
        return float(sum(t["arrive_s"] - t["export_s"] for t in self.transfers))

    @property
    def peak_running(self) -> int:
        """Max concurrently decoding requests summed across replicas."""
        return sum(r.peak_running for r in self.replica_results)

    @staticmethod
    def _meets_slo(
        r: Response, ttft_slo_s: float | None, tpot_slo_s: float | None
    ) -> bool:
        return (ttft_slo_s is None or r.ttft_s <= ttft_slo_s) and (
            tpot_slo_s is None or r.tpot_s <= tpot_slo_s
        )

    def slo_attainment(
        self, ttft_slo_s: float | None = None, tpot_slo_s: float | None = None
    ) -> float:
        """Fraction of requests meeting every given SLO (1.0 if none set)."""
        if not self.responses:
            return 1.0
        ok = sum(self._meets_slo(r, ttft_slo_s, tpot_slo_s) for r in self.responses)
        return ok / len(self.responses)

    def goodput_tok_s(
        self, ttft_slo_s: float | None = None, tpot_slo_s: float | None = None
    ) -> float:
        """Throughput counting only tokens from SLO-meeting requests.

        The serving metric the paper's efficiency story cashes out in: a
        fleet that admits more requests but blows its latency targets
        earns no goodput for them.
        """
        if not self.makespan_s:
            return 0.0
        good = sum(
            r.output_len
            for r in self.responses
            if self._meets_slo(r, ttft_slo_s, tpot_slo_s)
        )
        return good / self.makespan_s

    def summary(
        self, ttft_slo_s: float | None = None, tpot_slo_s: float | None = None
    ) -> dict:
        """Fleet metrics plus per-replica summaries (JSON-friendly)."""
        out = {
            "router": self.router,
            "n_replicas": self.n_replicas,
            "requests": len(self.responses),
            "total_tokens": self.total_tokens,
            "makespan_s": self.makespan_s,
            "throughput_tok_s": self.throughput_tok_s,
            "mean_ttft_s": self.mean_ttft_s,
            "p99_ttft_s": self.p99_ttft_s(),
            "mean_tpot_s": self.mean_tpot_s,
            "preemptions": self.preemptions,
            "peak_running": self.peak_running,
            "slo_attainment": self.slo_attainment(ttft_slo_s, tpot_slo_s),
            "goodput_tok_s": self.goodput_tok_s(ttft_slo_s, tpot_slo_s),
            "replicas": [r.summary() for r in self.replica_results],
        }
        if self.decode_router:  # disaggregated run: migration accounting
            out.update(
                {
                    "decode_router": self.decode_router,
                    "roles": list(self.roles),
                    "n_transfers": self.n_transfers,
                    "transfer_bytes_per_request": self.transfer_bytes_per_request,
                    "transfer_bytes_total": self.transfer_bytes_total,
                    "transfer_stall_s_total": self.transfer_stall_s_total,
                }
            )
        return out


class _EventState:
    """Per-run next-event heap over the fleet's replicas.

    The global event loop needs, at every iteration, the replica with
    the earliest next event. Scanning every replica per event is
    O(replicas); at fleet scale the read is served from a heap instead.
    Entries are ``(time, index, version)``, one live entry per replica
    with work. A replica's schedule only changes when the loop mutates
    it (``submit``/``step``/``import_kv``/``export_kv``), at which point
    :meth:`touch` bumps its version and pushes a fresh entry; stale
    entries are skipped lazily at :meth:`peek`. Heap order ``(t, idx)``
    reproduces the linear scan's tie-break exactly (earliest time, then
    lowest replica index).
    """

    def __init__(self, replicas: list[ServingEngine]) -> None:
        self.replicas = replicas
        self.versions = [0] * len(replicas)
        self.heap: list[tuple] = []
        for idx in range(len(replicas)):
            self.push(idx)

    def track_new(self) -> None:
        """Start tracking a replica just appended to ``replicas``."""
        self.versions.append(0)
        self.push(len(self.versions) - 1)

    def push(self, idx: int) -> None:
        """(Re-)publish ``idx``'s next event time into the heap."""
        t = self.replicas[idx].peek_next_event()
        if t is not None:
            heapq.heappush(self.heap, (t, idx, self.versions[idx]))

    def touch(self, idx: int) -> None:
        """Record a mutation of replica ``idx``: its published next-event
        entry is invalidated and re-pushed."""
        self.versions[idx] += 1
        self.push(idx)

    def peek(self) -> tuple:
        """``(time, index)`` of the earliest live event, or ``(None, None)``
        when every replica is drained. Prunes stale entries as it goes."""
        heap = self.heap
        versions = self.versions
        while heap:
            t, idx, ver = heap[0]
            if versions[idx] == ver:
                return t, idx
            heapq.heappop(heap)
        return None, None

    def pop_head(self) -> None:
        """Consume the (already-peeked) valid head entry."""
        heapq.heappop(self.heap)


def _validated_stream(requests):
    """Validate a streamed (non-list) request iterable lazily.

    Streamed traces must already be in arrival order — the loop consumes
    them one event at a time and cannot sort what it has not seen.
    Duplicate ids raise exactly as :func:`validate_batch` would.
    """
    seen: set[str] = set()
    last = 0.0
    for request in requests:
        if request.request_id in seen:
            raise ValueError(
                f"duplicate request_id {request.request_id!r} in batch"
            )
        seen.add(request.request_id)
        if request.arrival_s < last:
            raise ValueError(
                "streamed requests must be sorted by arrival_s "
                f"(got {request.arrival_s} after {last}); materialize to a "
                "list to let the cluster sort them"
            )
        last = request.arrival_s
        yield request


@dataclass
class _Pool:
    """One routable replica set of a run: a router over a live index list.

    A unified fleet is one arrival pool; a disaggregated fleet adds a
    decode pool that KV handoffs are routed over.
    """

    router: Router
    live: list[int]
    role: str


class ServingCluster:
    """N identical serving replicas behind one global event loop.

    Parameters
    ----------
    arch, recipe, spec:
        As for :class:`ServingEngine`; all replicas share them.
    n_replicas:
        Initial fleet size (autoscaling may grow it per run).
    router:
        Router name (see :func:`available_routers`) or instance.
    kv_token_budget:
        Per-replica flat KV budget (1-token pages) when no byte budget is
        given — the exact single-engine semantics.
    page_budget_bytes / block_tokens:
        Alternative per-replica sizing: each replica gets
        ``PagedKVCache.from_byte_budget(page_budget_bytes, arch, recipe,
        block_tokens)``, so the recipe's KV format sets how many requests
        fit — the MX+ capacity win.
    max_batch, model:
        Forwarded to every replica engine.
    scheduler:
        Batch-composition policy for every replica (name or
        :class:`~repro.serve.sched.Scheduler` instance); see
        :func:`repro.serve.sched.available_schedulers`.
    autoscale:
        Optional :class:`AutoscalePolicy` consulted at every arrival;
        replicas added per run start cold and are discarded afterwards.
        In a disaggregated cluster the policy is applied to each pool
        *independently* on that pool's own queue depths (prefill pool at
        arrivals, decode pool at handoff instants).
    n_prefill / n_decode:
        Setting both (each >= 1) switches the cluster to **disaggregated
        prefill/decode serving**: the fleet becomes a prefill pool
        (replica indices ``0..n_prefill-1``) and a decode pool. Arrivals
        are routed over the prefill pool by ``router``; when a request's
        first token completes there, its KV pages migrate over
        ``kv_transfer`` to a decode replica chosen by ``decode_router``,
        and decoding resumes after the transfer latency — see
        :meth:`run`. ``n_replicas`` is ignored in this mode.
    decode_router:
        Router for handoff placement over the decode pool (default
        ``"free-kv-at-arrival"``: the replica with the most free KV
        pages at the export instant).
    kv_transfer:
        Interconnect model pricing each migration — a
        :class:`~repro.serve.kvcache.KVTransfer`, a preset name from
        :data:`repro.serve.kvcache.INTERCONNECTS`, or ``None`` for the
        PCIe 5-class default.
    tracer:
        Optional :class:`repro.obs.Tracer` shared by the whole fleet:
        every replica engine emits lifecycle/step events into it (tagged
        with its replica index), and the cluster adds routing, autoscale,
        and KV-transfer events on the ``-1`` cluster lane. Off-path is a
        single ``if`` per site — results are bit-identical untraced.
    metrics:
        Optional :class:`repro.obs.MetricsRegistry`. The event loop
        samples fleet gauges (queue depth, running/waiting, free KV
        tokens, preemptions, replica count, step-time-cache hit rate,
        and — disaggregated — transfers in flight / link busy time) at
        arrival instants, throttled by the registry's ``interval_s``,
        plus one closing sample at the fleet makespan.
        ``step_cache_hit_rate`` reads the memo counters of the fleet's
        own :attr:`pricer`.
    """

    def __init__(
        self,
        arch: ArchSpec,
        recipe,
        n_replicas: int = 1,
        router="round-robin",
        spec: GPUSpec = RTX5090,
        kv_token_budget: int = 262_144,
        max_batch: int = 256,
        page_budget_bytes: float | None = None,
        block_tokens: int = 16,
        model=None,
        scheduler="prefill-first",
        autoscale: AutoscalePolicy | None = None,
        n_prefill: int = 0,
        n_decode: int = 0,
        decode_router="free-kv-at-arrival",
        kv_transfer: KVTransfer | str | None = None,
        tracer=None,
        metrics=None,
    ) -> None:
        if n_prefill < 0 or n_decode < 0:
            raise ValueError("n_prefill and n_decode must be >= 0")
        if (n_prefill > 0) != (n_decode > 0):
            raise ValueError(
                "disaggregation needs both n_prefill and n_decode >= 1 "
                f"(got n_prefill={n_prefill}, n_decode={n_decode})"
            )
        self.disaggregated = n_prefill > 0
        if self.disaggregated:
            n_replicas = n_prefill + n_decode
        if n_replicas < 1:
            raise ValueError("n_replicas must be >= 1")
        recipe = as_recipe(recipe)
        self.arch = arch
        self.recipe = recipe
        self.spec = spec
        self.n_replicas = n_replicas
        self.n_prefill = n_prefill
        self.n_decode = n_decode
        self._router_spec = router
        self._decode_router_spec = decode_router
        self._scheduler_spec = scheduler
        self._kv_token_budget = kv_token_budget
        self._page_budget_bytes = page_budget_bytes
        self._block_tokens = block_tokens
        self._max_batch = max_batch
        self._model = model
        self.autoscale = autoscale
        self.kv_transfer = (
            get_interconnect(kv_transfer) if kv_transfer is not None else KVTransfer()
        )
        self.roles = (
            ["prefill"] * n_prefill + ["decode"] * n_decode
            if self.disaggregated
            else ["unified"] * n_replicas
        )
        self.tracer = tracer
        self.metrics = metrics
        #: The one step pricer every replica shares (autoscaled ones too).
        self.pricer = StepPricer(spec, arch, recipe)
        self.engines = [self._make_engine(role) for role in self.roles]
        if tracer is not None:
            for i, engine in enumerate(self.engines):
                engine.tracer = tracer
                engine.trace_replica = i

    def _make_engine(self, role: str = "unified") -> ServingEngine:
        """One replica: fresh paged cache, shared arch/recipe/GPU/pricer."""
        if self._page_budget_bytes is not None:
            cache = PagedKVCache.from_byte_budget(
                self._page_budget_bytes,
                self.arch,
                self.recipe,
                block_tokens=self._block_tokens,
            )
        else:
            cache = PagedKVCache.from_token_budget(self._kv_token_budget)
        return ServingEngine(
            self.arch,
            self.recipe,
            spec=self.spec,
            max_batch=self._max_batch,
            model=self._model,
            kv_cache=cache,
            scheduler=self._scheduler_spec,
            role=role,
            pricer=self.pricer,
        )

    @property
    def capacity_tokens_per_replica(self) -> int:
        """KV tokens one replica can hold (page count x page size)."""
        return self.engines[0].kv_cache.capacity_tokens

    def _pools(self) -> list[_Pool]:
        """Fresh pools for one run: the arrival pool, then (disaggregated
        only) the decode pool that KV handoffs are routed over."""
        arrival_role = "prefill" if self.disaggregated else "unified"
        specs = [(self._router_spec, arrival_role)]
        if self.disaggregated:
            specs.append((self._decode_router_spec, "decode"))
        pools = []
        for spec, role in specs:
            live = [j for j, r in enumerate(self.roles) if r == role]
            router = get_router(spec)
            router.reset()  # instances passed in must behave like fresh ones
            pools.append(_Pool(router, live, role))
        return pools

    def _apply_autoscale(
        self,
        pool: _Pool,
        replicas: list[ServingEngine],
        roles: list,
        t: float,
        events: list,
        state: _EventState,
        protect: frozenset = frozenset(),
    ) -> None:
        """Grow/retire ``pool``'s live replicas toward the policy's target.

        Each pool scales on its own queue depths; new replicas join the
        pool's role. ``protect`` shields replicas that look idle but have
        a KV migration in flight toward them from retirement.
        """
        live = pool.live
        target = self.autoscale.target([replicas[j] for j in live])
        while len(live) < target:
            j = len(replicas)
            replicas.append(self._make_engine(pool.role))
            roles.append(pool.role)
            live.append(j)
            if self.tracer is not None:
                replicas[j].tracer = self.tracer
                replicas[j].trace_replica = j
                self.tracer.emit(t, -1, "autoscale", "", ("scale-up", j))
            state.track_new()
            events.append((t, "scale-up", j))
        if len(live) > target:
            # Retire drained replicas only (highest index first): requests
            # in flight are never migrated.
            for j in sorted(live, reverse=True):
                if len(live) <= target:
                    break
                if not replicas[j].has_work() and j not in protect:
                    live.remove(j)
                    events.append((t, "scale-down", j))
                    if self.tracer is not None:
                        self.tracer.emit(t, -1, "autoscale", "", ("scale-down", j))

    @staticmethod
    def _route(
        pool: _Pool, request: Request, replicas: list[ServingEngine]
    ) -> int:
        """Ask ``pool``'s router for a replica against the live engines;
        an answer outside the live pool is rejected loudly."""
        replica = pool.router.route(request, pool.live, replicas)
        if replica not in pool.live:
            raise ValueError(
                f"router {pool.router.name!r} returned invalid {pool.role} "
                f"replica {replica} (live: {pool.live})"
            )
        return replica

    def _sample_fleet_metrics(
        self,
        t: float,
        replicas: list[ServingEngine],
        pools: list[_Pool],
        transfers: list,
        link_busy_until: float,
    ) -> None:
        """Record one fleet-wide gauge sample at virtual time ``t``.

        Preemptions are counted over *all* replicas (retired ones keep
        their history); occupancy gauges read the live pools only. A
        disaggregated fleet adds its link gauges.
        """
        metrics = self.metrics
        live = [j for pool in pools for j in pool.live]
        n_running = sum(replicas[j].n_running for j in live)
        n_waiting = sum(replicas[j].n_waiting for j in live)
        metrics.gauge("n_running").set(t, n_running)
        metrics.gauge("n_waiting").set(t, n_waiting)
        metrics.gauge("queue_depth").set(t, n_running + n_waiting)
        metrics.gauge("free_kv_tokens").set(
            t, sum(replicas[j].free_kv_tokens for j in live)
        )
        metrics.gauge("n_replicas").set(t, len(live))
        metrics.gauge("preemptions").set(
            t, sum(e._preemptions for e in replicas)
        )
        info = self.pricer.cache_info()
        lookups = info["hits"] + info["misses"]
        metrics.gauge("step_cache_hit_rate").set(
            t, info["hits"] / lookups if lookups else 0.0
        )
        if len(pools) > 1:
            metrics.gauge("transfers_in_flight").set(t, len(transfers))
            metrics.gauge("link_busy_s").set(t, max(0.0, link_busy_until - t))

    def run(self, requests) -> FleetResult:
        """Serve ``requests`` through the global virtual-time event loop.

        One loop serves unified and disaggregated fleets alike. The fleet
        is a list of *pools* (a router over a live replica list): a
        unified fleet is one arrival pool; a disaggregated one adds a
        decode pool. Three event types share one virtual timeline,
        processed earliest first (ties: arrival, then transfer
        completion, then step, replica ties to the lowest index — a
        scheduling decision at an instant cannot see the future):

        * **arrival** — the autoscaler is consulted, then the request is
          routed over the arrival pool's live replicas and submitted;
        * **transfer completion** — a migrated request reaches its decode
          replica (``import_kv``) and becomes schedulable there;
        * **step** — the earliest replica advances one scheduler
          iteration. A prefill-role step whose ``handoff_ready`` is
          non-empty triggers exports immediately: pages are released on
          the source (shared prefixes survive via refcounts), a decode
          replica is chosen by ``decode_router`` at that instant, and the
          migration is priced by ``kv_transfer`` — transfers *serialize*
          on the link (one shared interconnect), so concurrent handoffs
          queue behind each other's byte time, while the propagation
          latency pipelines.

        A unified fleet never has a transfer in flight. Event selection
        is served from a next-event heap (see :class:`_EventState`), so
        picking the next event costs O(log replicas) instead of a linear
        fleet scan. TTFT is decided in the arrival pool (a disaggregated
        request's first token is produced before export), so interconnect
        bandwidth moves TPOT and end-to-end latency, never TTFT.

        ``requests`` may be a list (sorted and validated up front, and
        responses come back in input order) or any other iterable — a
        generator such as :func:`~repro.serve.workload.iter_workload` or
        :func:`~repro.serve.workload.stream_trace` is consumed lazily,
        one arrival at a time, so million-request traces never
        materialize; streamed input must already be in arrival order and
        responses come back in stream order.
        """
        pools = self._pools()
        arrive = pools[0]
        decode = pools[1] if self.disaggregated else None
        materialized = isinstance(requests, (list, tuple))
        if materialized:
            input_ids = [r.request_id for r in requests]
            pending = iter(arrival_order(requests))  # validates dup ids too
        else:
            input_ids = []  # filled in stream order as arrivals are drawn
            pending = _validated_stream(requests)
        replicas = list(self.engines)  # autoscaling appends; base fleet stays
        roles = list(self.roles)
        for engine in replicas:
            engine.begin_run()
        assignments: dict[str, int] = {}
        decode_assignments: dict[str, int] = {}
        autoscale_events: list = []
        records: list[dict] = []  # one per KV migration
        transfers: list[tuple] = []  # heap: (t_arrive, seq, dest, handoff, tokens)
        link_busy_until = 0.0
        token_bytes = (
            kv_token_bytes(self.arch, self.recipe) if self.disaggregated else 0.0
        )
        tracer = self.tracer
        state = _EventState(replicas)

        def start_transfer(rid: str, src: int) -> None:
            """Export ``rid`` from ``src`` and schedule its arrival event.

            The destination is chosen *now* (bytes have to go somewhere),
            so the decode router sees pool state at the export instant.
            Bytes are the migrated context at the recipe's exact
            per-token KV footprint, minus any full prefix blocks the
            destination already holds cached — a shared system prompt
            resident on the decode replica does not cross the wire again.
            """
            nonlocal link_busy_until
            handoff = replicas[src].export_kv(rid)
            state.touch(src)  # export changed src's schedule
            if self.autoscale is not None:
                self._apply_autoscale(
                    decode, replicas, roles, handoff.export_s, autoscale_events,
                    state, protect=frozenset(tr[2] for tr in transfers),
                )
            dest = self._route(decode, handoff.request, replicas)
            cached = replicas[dest].kv_cache.cached_prefix_tokens(
                handoff.request.prefix_id, handoff.request.prefix_len
            )
            n_tokens = max(0, handoff.tokens - cached)
            n_bytes = n_tokens * token_bytes
            occupancy = self.kv_transfer.occupancy_s(n_bytes)
            if math.isinf(occupancy):
                raise RuntimeError(
                    f"zero-bandwidth interconnect: migrating {n_bytes:.0f} bytes "
                    f"for request {rid!r} would never complete"
                )
            start = max(handoff.export_s, link_busy_until)
            link_busy_until = start + occupancy
            t_arrive = start + self.kv_transfer.latency_s + occupancy
            decode_assignments[rid] = dest
            heapq.heappush(transfers, (t_arrive, len(records), dest, handoff, n_tokens))
            records.append({
                "request_id": rid, "src": src, "dest": dest,
                "tokens": n_tokens, "bytes": n_bytes,
                "export_s": handoff.export_s, "start_s": start, "arrive_s": t_arrive,
            })
            if tracer is not None:
                tracer.emit(
                    handoff.export_s, -1, "transfer", rid,
                    (src, dest, n_tokens, n_bytes, start, t_arrive),
                )

        nxt = next(pending, None)
        try:
            while True:
                t_eng, idx = state.peek()
                t_tr = transfers[0][0] if transfers else None
                if (
                    nxt is not None
                    and (t_eng is None or nxt.arrival_s <= t_eng)
                    and (t_tr is None or nxt.arrival_s <= t_tr)
                ):
                    request = nxt
                    nxt = next(pending, None)
                    t = request.arrival_s
                    if not materialized:
                        input_ids.append(request.request_id)
                    if self.autoscale is not None:
                        self._apply_autoscale(
                            arrive, replicas, roles, t, autoscale_events, state
                        )
                    if self.metrics is not None and self.metrics.due(t):
                        self._sample_fleet_metrics(
                            t, replicas, pools, transfers, link_busy_until
                        )
                    replica = self._route(arrive, request, replicas)
                    assignments[request.request_id] = replica
                    if tracer is not None:
                        tracer.emit(t, -1, "route", request.request_id, (replica,))
                    replicas[replica].submit(request)
                    state.touch(replica)
                elif t_tr is not None and (t_eng is None or t_tr <= t_eng):
                    # Transfer completion: the migrated KV reaches its
                    # decode replica and the request queues there.
                    t_arrive, _, dest, handoff, n_tokens = heapq.heappop(transfers)
                    replicas[dest].import_kv(
                        handoff, t_arrive, transferred_tokens=n_tokens
                    )
                    state.touch(dest)
                elif t_eng is not None:
                    # Step event: advance the replica with the earliest
                    # next event (ties to the lowest index).
                    state.pop_head()
                    event = replicas[idx].step()
                    state.touch(idx)
                    if event is not None and event.handoff_ready:
                        for rid in event.handoff_ready:
                            start_transfer(rid, idx)
                else:
                    break  # arrivals and transfers drained, replicas idle
        finally:
            for engine in replicas:
                engine.abort()
        # A request finishes on exactly one replica: its decode replica,
        # or its arrival replica when it never migrated (a unified fleet,
        # or max_new_tokens == 1). Each replica reports its shard in input
        # order, exactly as a standalone engine would.
        shard_ids: list[list[str]] = [[] for _ in replicas]
        for rid in input_ids:
            shard_ids[decode_assignments.get(rid, assignments[rid])].append(rid)
        results = [
            engine.collect_ids(ids) for engine, ids in zip(replicas, shard_ids)
        ]
        if self.metrics is not None:
            t_end = max((e.clock for e in replicas), default=0.0)
            self._sample_fleet_metrics(
                t_end, replicas, pools, transfers, link_busy_until
            )
            self.metrics.sample_final(t_end)
        by_id = {resp.request_id: resp for res in results for resp in res.responses}
        return FleetResult(
            responses=[by_id[rid] for rid in input_ids],
            replica_results=results,
            assignments=assignments,
            router=arrive.router.name,
            scheduler=replicas[0].scheduler.name,
            autoscale_events=autoscale_events,
            decode_assignments=decode_assignments,
            decode_router=decode.router.name if decode is not None else "",
            roles=roles if decode is not None else [],
            transfers=records,
        )
