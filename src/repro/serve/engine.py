"""Request-level serving front-end: a discrete-event continuous-batching
engine over the simulator.

:class:`ServingEngine` turns the per-forward kernel-time model of
:mod:`repro.gpu.inference` into an LLM *serving* loop: clients submit
:class:`Request` objects (arrival time, prompt length, output budget), a
continuous-batching scheduler admits and evicts them against a KV-cache
token budget, and each request comes back as a :class:`Response` with
per-request latency accounting (TTFT / TPOT / end-to-end).

The engine is an incremental event loop, not a batch function:
``submit()`` enqueues a request (requests can arrive while others are in
flight), ``peek_next_event()`` reports the next virtual instant the
engine can act, and ``step()`` advances one scheduler iteration —
returning a :class:`StepEvent` record. ``run()`` wraps the three into
the classic serve-a-batch-to-completion call. A
:class:`repro.serve.ServingCluster` drives many engines through the same
API in global virtual-time order.

*What runs in a step* is delegated to a pluggable
:class:`repro.serve.sched.Scheduler` (``scheduler=`` accepts a policy
name or instance). The default ``"prefill-first"`` policy reproduces the
vLLM-style loop this engine originally hard-coded — byte-identical
artifacts — while ``"chunked-prefill"`` splits long prompts into
token-budget chunks co-scheduled with decodes (no head-of-line
blocking), and ``"decode-priority"`` never interrupts decodes. When
decode growth overflows the cache, the most recently admitted request is
preempted and re-enters the queue for recomputation.

KV memory goes through a :class:`repro.serve.kvcache.PagedKVCache`:
block-granular allocation, byte-accurate page sizing per recipe, and
shared-prefix caching (requests that declare ``prefix_id`` skip
recomputing cached prefix tokens in prefill, which lowers their TTFT).
The legacy flat ``kv_token_budget`` argument is now a shim that builds a
1-token-per-page cache with identical admission/preemption semantics.

Timing comes from a :class:`repro.gpu.inference.StepPricer` in virtual time —
a uniform batch reconciles exactly with ``simulate_inference`` totals.
With ``model=`` set (a :class:`repro.nn.transformer.TransformerLM`) the
engine also runs the real forward under the recipe's ``QuantContext`` and
returns generated tokens, so accuracy and timing come from one API call.

>>> from repro.models.zoo import ARCHS
>>> engine = ServingEngine(ARCHS["llama-2-13b"], "mxfp4+", kv_token_budget=4096)
>>> result = engine.run([Request("r0", prompt_len=512, max_new_tokens=4),
...                      Request("r1", prompt_len=512, max_new_tokens=4)])
>>> [r.output_len for r in result.responses]
[4, 4]
>>> result.peak_running
2
>>> 0.0 < result.responses[0].ttft_s < result.responses[0].e2e_latency_s
True

Incremental use — submit mid-flight, observe events:

>>> engine = ServingEngine(ARCHS["llama-2-13b"], "mxfp4+", kv_token_budget=4096)
>>> engine.begin_run()
>>> engine.submit(Request("a", prompt_len=128, max_new_tokens=2))
>>> event = engine.step()  # prefill step for "a"
>>> (event.n_prefill_rows, event.n_decode_rows)
(128, 0)
>>> engine.submit(Request("b", prompt_len=64, max_new_tokens=1,
...                       arrival_s=engine.clock))
>>> while engine.has_work():
...     _ = engine.step()
>>> sorted(engine.finished)
['a', 'b']
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field

import numpy as np

from ..gpu.inference import StageTimes, StepPricer
from ..gpu.spec import GPUSpec, RTX5090
from ..models.zoo import ArchSpec
from .kvcache import PagedKVCache
from .recipe import as_recipe
from .sched import Scheduler, StepPlan, get_scheduler

__all__ = [
    "Request",
    "Response",
    "LatencyView",
    "ServingResult",
    "StepEvent",
    "KVHandoff",
    "ServingEngine",
    "validate_batch",
    "arrival_order",
]

#: Engine roles in a (possibly disaggregated) fleet. ``"unified"`` runs
#: the classic colocated loop; ``"prefill"`` serves every request up to
#: its *first* output token, then parks it for `export_kv` (KV
#: migration); ``"decode"`` additionally accepts migrated requests via
#: `import_kv` and generates their remaining tokens without re-prefill.
ENGINE_ROLES = ("unified", "prefill", "decode")


def step_time(pricer: StepPricer, row_groups: list[tuple]) -> float:
    """Seconds for one engine step: ``pricer.price(row_groups)``.

    Every engine step prices through this one module-level name, so a
    profiler can time step pricing by wrapping a single binding.
    """
    return pricer.price(row_groups)


@dataclass(frozen=True)
class Request:
    """One client request: a prompt and a generation budget.

    ``prompt_tokens`` is optional; when provided (numeric mode) it defines
    ``prompt_len``, and the engine generates real tokens with the model.

    ``prefix_id``/``prefix_len`` declare that the first ``prefix_len``
    prompt tokens are a shared prefix (e.g. a common system prompt):
    requests with the same ``prefix_id`` store those tokens once in a
    paged KV cache, and prefix *hits* skip recomputing them in prefill.

    >>> Request("r0", prompt_len=512, max_new_tokens=64).prompt_len
    512
    >>> Request("r1", prompt_len=640, prefix_id="sys", prefix_len=512).prefix_id
    'sys'
    """

    request_id: str
    prompt_len: int = 0
    max_new_tokens: int = 1
    arrival_s: float = 0.0
    prefix_id: str | None = None
    prefix_len: int = 0
    # excluded from eq/hash: ndarrays have no scalar truth value
    prompt_tokens: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.prompt_tokens is not None:
            tokens = np.asarray(self.prompt_tokens)
            object.__setattr__(self, "prompt_tokens", tokens)
            object.__setattr__(self, "prompt_len", int(tokens.shape[-1]))
        if self.prompt_len <= 0:
            raise ValueError(f"request {self.request_id!r}: empty prompt")
        if self.max_new_tokens < 1:
            raise ValueError(f"request {self.request_id!r}: max_new_tokens < 1")
        if self.arrival_s < 0:
            raise ValueError(f"request {self.request_id!r}: negative arrival")
        if self.prefix_len < 0:
            raise ValueError(f"request {self.request_id!r}: negative prefix_len")
        if self.prefix_len > self.prompt_len:
            raise ValueError(
                f"request {self.request_id!r}: prefix_len {self.prefix_len} "
                f"exceeds prompt_len {self.prompt_len}"
            )
        if self.prefix_len > 0 and self.prefix_id is None:
            raise ValueError(
                f"request {self.request_id!r}: prefix_len without prefix_id"
            )


def validate_batch(requests: list[Request]) -> dict[str, int]:
    """Input-position map for a batch, rejecting duplicate request ids.

    The one shared admission-validation helper: both
    :meth:`ServingEngine.run` and :meth:`repro.serve.ServingCluster.run`
    build their ordering from it.

    >>> validate_batch([Request("a", prompt_len=1), Request("b", prompt_len=1)])
    {'a': 0, 'b': 1}
    """
    order = {r.request_id: i for i, r in enumerate(requests)}
    if len(order) != len(requests):
        raise ValueError("duplicate request_id in batch")
    return order


def arrival_order(requests: list[Request]) -> list[Request]:
    """Requests sorted by arrival time, ties broken by input position.

    Validates via :func:`validate_batch` (duplicate ids raise) — the
    canonical submission order for engines and for cluster routing.
    """
    order = validate_batch(requests)
    return sorted(requests, key=lambda r: (r.arrival_s, order[r.request_id]))


@dataclass
class Response:
    """Per-request serving outcome with latency accounting."""

    request_id: str
    prompt_len: int
    output_len: int
    arrival_s: float
    first_token_s: float  # virtual time the first output token completed
    finish_s: float
    preemptions: int = 0
    tokens: np.ndarray | None = None  # numeric mode only

    @property
    def ttft_s(self) -> float:
        """Time to first token: queueing + prefill + first decode step."""
        return self.first_token_s - self.arrival_s

    @property
    def tpot_s(self) -> float:
        """Time per output token after the first (0 for 1-token outputs)."""
        if self.output_len <= 1:
            return 0.0
        return (self.finish_s - self.first_token_s) / (self.output_len - 1)

    @property
    def e2e_latency_s(self) -> float:
        """End-to-end latency: arrival to last generated token."""
        return self.finish_s - self.arrival_s


class LatencyView:
    """Memoized latency/throughput views over ``responses``.

    Shared by :class:`ServingResult` and
    :class:`repro.serve.FleetResult`; a subclass supplies ``responses``
    and ``makespan_s``. At 1M responses the summary helpers must not
    rebuild a Python list (or re-sort it) on every access: value arrays
    and their sorted views are built once per metric and memoized on the
    instance, so ``responses`` is treated as frozen once any metric has
    been read. Means use the unsorted array (accumulation order, and so
    the float, is unchanged); percentiles use the sorted view, which is
    value-identical because order statistics do not depend on input
    order. ``sorts_performed`` counts actual ``np.sort`` calls so tests
    can pin the no-re-sort contract.
    """

    def _values(self, metric: str) -> np.ndarray:
        cache = self.__dict__.setdefault("_metric_values", {})
        arr = cache.get(metric)
        if arr is None:
            arr = np.asarray(
                [getattr(r, metric) for r in self.responses], dtype=float
            )
            cache[metric] = arr
        return arr

    def _sorted_values(self, metric: str) -> np.ndarray:
        cache = self.__dict__.setdefault("_metric_sorted", {})
        arr = cache.get(metric)
        if arr is None:
            arr = np.sort(self._values(metric))
            cache[metric] = arr
            self.__dict__["_sorts"] = self.__dict__.get("_sorts", 0) + 1
        return arr

    @property
    def sorts_performed(self) -> int:
        """How many metric sorts this result has ever run (cache probe)."""
        return self.__dict__.get("_sorts", 0)

    @property
    def total_tokens(self) -> int:
        """Output tokens generated across all responses."""
        total = self.__dict__.get("_total_tokens")
        if total is None:
            total = sum(r.output_len for r in self.responses)
            self.__dict__["_total_tokens"] = total
        return total

    @property
    def throughput_tok_s(self) -> float:
        """Output tokens per second of virtual wall-clock."""
        return self.total_tokens / self.makespan_s if self.makespan_s else 0.0

    @property
    def mean_ttft_s(self) -> float:
        """Mean time-to-first-token over all responses (seconds)."""
        if not self.responses:
            return 0.0
        return float(np.mean(self._values("ttft_s")))

    @property
    def mean_tpot_s(self) -> float:
        """Mean time-per-output-token over all responses (seconds)."""
        if not self.responses:
            return 0.0
        return float(np.mean(self._values("tpot_s")))

    def p99_ttft_s(self, q: float = 99.0) -> float:
        """The ``q``-th percentile TTFT — the tail latency SLOs watch."""
        if not self.responses:
            return 0.0
        return float(np.percentile(self._sorted_values("ttft_s"), q))


@dataclass
class ServingResult(LatencyView):
    """Batch outcome: responses (input order) + aggregate accounting."""

    responses: list[Response]
    stages: StageTimes  # aggregate prefill/decode seconds across all steps
    makespan_s: float  # last finish time (virtual clock)
    n_prefill_steps: int = 0
    n_decode_steps: int = 0
    n_mixed_steps: int = 0  # steps carrying both chunk and decode rows
    preemptions: int = 0
    peak_running: int = 0  # max concurrently decoding requests
    kv: dict = field(default_factory=dict)  # PagedKVCache.stats() snapshot

    def summary(self) -> dict[str, float]:
        """Headline serving metrics as one JSON-friendly dict."""
        return {
            "requests": len(self.responses),
            "total_tokens": self.total_tokens,
            "makespan_s": self.makespan_s,
            "prefill_s": self.stages.prefill_s,
            "decode_s": self.stages.decode_s,
            "throughput_tok_s": self.throughput_tok_s,
            "mean_ttft_s": self.mean_ttft_s,
            "mean_tpot_s": self.mean_tpot_s,
            "preemptions": self.preemptions,
            "peak_running": self.peak_running,
        }


@dataclass(eq=False, slots=True)
class _Active:
    """Scheduler-internal state for one admitted (or requeued) request.

    Identity equality (``eq=False``): two live states are never
    field-equal anyway (``seq`` is unique per submission), and membership
    tests / ``list.remove`` on the running set are hot at fleet scale —
    field-wise dataclass comparison there is pure overhead. ``slots``
    buys the same thing on attribute access: this object is touched
    several times per scheduler step per running request.
    """

    request: Request
    order: int  # admission sequence number (eviction picks the max)
    seq: int = 0  # submission sequence number (arrival tie-break)
    generated: int = 0
    first_token_s: float = -1.0
    preemptions: int = 0
    cached: int = 0  # prefix tokens reused from the KV cache this admission
    prefilled: int = 0  # prompt rows computed this admission (cached excluded)
    admit_ctx: int = 0  # context tokens at admission (fixed until requeued)
    imported: bool = False  # KV migrated in: admission skips transferred tokens
    transfer_tokens: int = 0  # context tokens that actually crossed the link
    ready_s: float = 0.0  # earliest schedulable instant (arrival or import)
    tokens: list = field(default_factory=list)  # numeric mode
    # Queue position: (1, arrival, seq) for fresh requests; preemption
    # victims get (0, -evict_tick, 0) so they sit at the queue head,
    # most recent eviction first — the historical appendleft semantics.
    queue_key: tuple = (1, 0.0, 0)

    @property
    def ctx(self) -> int:
        """Tokens currently resident in the KV cache."""
        return self.request.prompt_len + self.generated

    @property
    def done(self) -> bool:
        return self.generated >= self.request.max_new_tokens

    @property
    def prefill_tokens_needed(self) -> int:
        """Context rows this admission must compute (>= 1 even on a full
        prefix hit: the last token is recomputed to produce logits).
        Fixed at admission — decode growth afterwards must not reopen the
        prefill. Requeued preemption victims recompute their *full*
        context — prompt plus the tokens already generated — but do not
        regenerate the output tokens themselves."""
        return max(1, self.admit_ctx - self.cached)

    @property
    def prefill_remaining(self) -> int:
        return self.prefill_tokens_needed - self.prefilled

    @property
    def prefill_done(self) -> bool:
        return self.prefill_remaining <= 0

    def __lt__(self, other: "_Active") -> bool:  # insort support
        return self.queue_key < other.queue_key


@dataclass
class StepEvent:
    """What one :meth:`ServingEngine.step` did (a discrete event record)."""

    t_start: float  # virtual time the step began
    t_end: float  # virtual time the step completed (engine clock after)
    kind: str  # "prefill" | "decode" | "mixed"
    n_prefill_rows: int = 0
    n_decode_rows: int = 0
    # prefill-role engines only: requests whose first token completed this
    # step and now await export_kv() (KV migration to a decode replica).
    handoff_ready: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class KVHandoff:
    """A prefill-complete request packaged for KV migration.

    Produced by :meth:`ServingEngine.export_kv` on a ``role="prefill"``
    engine — at which point the source's KV pages are already released
    (refcount-correct: shared prefix pages stay cached for siblings) —
    and consumed by :meth:`ServingEngine.import_kv` on the destination.
    ``tokens`` is the resident context at export (prompt + the first
    generated token): the KV that must cross the interconnect, priced by
    :class:`repro.serve.kvcache.KVTransfer`.
    """

    request: Request
    tokens: int  # KV tokens resident at export (prompt_len + generated)
    generated: int  # output tokens already produced (>= 1: the first token)
    first_token_s: float  # TTFT is fixed on the prefill replica
    export_s: float  # virtual time the source released its pages
    preemptions: int = 0
    token_ids: tuple = ()  # numeric mode: generated token ids so far


class ServingEngine:
    """Discrete-event continuous-batching loop over one :class:`QuantRecipe`.

    Parameters
    ----------
    arch:
        Full-size architecture descriptor (``repro.models.zoo.ARCHS``)
        driving the kernel-time model.
    recipe:
        A :class:`QuantRecipe` or recipe name.
    spec:
        GPU spec for the roofline model (default RTX 5090-class).
    kv_token_budget:
        Legacy flat budget: when ``kv_cache`` is not given, the engine
        builds ``PagedKVCache.from_token_budget(kv_token_budget)`` —
        1-token pages, so admission/preemption behave exactly like the
        original flat counter.
    max_batch:
        Maximum concurrently running requests.
    model:
        Optional :class:`~repro.nn.transformer.TransformerLM`. When set,
        requests carrying ``prompt_tokens`` are decoded for real (greedy)
        under ``recipe.to_context()`` and responses include ``tokens``.
    kv_cache:
        A :class:`~repro.serve.kvcache.PagedKVCache` to allocate KV
        memory from (e.g. ``PagedKVCache.from_byte_budget(...)`` so page
        count reflects the recipe's KV bytes/token). The cache's prefix
        store persists across ``run`` calls — a warm system-prompt cache
        carries over.
    scheduler:
        Batch-composition policy: a name from
        :func:`repro.serve.sched.available_schedulers` or a
        :class:`~repro.serve.sched.Scheduler` instance. The default
        ``"prefill-first"`` reproduces the historical loop exactly.
    role:
        ``"unified"`` (default) is the classic colocated loop. In a
        disaggregated fleet, ``"prefill"`` engines serve each request
        through prefill and its *first* output token, then park it for
        :meth:`export_kv` (KV migration); ``"decode"`` engines accept
        migrated requests via :meth:`import_kv` and generate the
        remaining tokens without recomputing prefill.
    tracer:
        Optional :class:`repro.obs.Tracer`. When set, the engine emits
        virtual-time lifecycle and step events (arrive / admit /
        prefill_chunk / first_token / preempt / finish / export /
        import / step) tagged with ``trace_replica`` (the lane index a
        cluster assigns; 0 standalone). Every instrumentation site is a
        single ``if tracer is not None`` — an untraced run's results
        are bit-identical.
    pricer:
        The :class:`~repro.gpu.inference.StepPricer` that prices each
        step; it must price ``(spec, arch, recipe)``. ``None`` (default)
        builds one for this engine; a
        :class:`~repro.serve.ServingCluster` hands one pricer to all of
        its replicas so they share its memos.
    """

    def __init__(
        self,
        arch: ArchSpec,
        recipe,
        spec: GPUSpec = RTX5090,
        kv_token_budget: int = 262_144,
        max_batch: int = 256,
        model=None,
        kv_cache: PagedKVCache | None = None,
        scheduler="prefill-first",
        role: str = "unified",
        tracer=None,
        pricer: StepPricer | None = None,
    ) -> None:
        recipe = as_recipe(recipe)
        if role not in ENGINE_ROLES:
            raise ValueError(
                f"unknown engine role {role!r} (one of {', '.join(ENGINE_ROLES)})"
            )
        if kv_cache is None:
            if kv_token_budget < 1:
                raise ValueError("kv_token_budget must be >= 1")
            kv_cache = PagedKVCache.from_token_budget(kv_token_budget)
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.arch = arch
        self.recipe = recipe
        self.spec = spec
        self.pricer = pricer if pricer is not None else StepPricer(spec, arch, recipe)
        self.kv_cache = kv_cache
        self.kv_token_budget = kv_cache.capacity_tokens
        self.max_batch = max_batch
        self.model = model
        self.role = role
        self.tracer = tracer
        self.trace_replica = 0  # lane index in trace events (cluster sets it)
        self.scheduler: Scheduler = get_scheduler(scheduler)
        self._qc = None
        if model is not None:
            self._qc = recipe.to_context()
        self.begin_run()

    # -- event-loop state ----------------------------------------------
    def begin_run(self) -> None:
        """Reset per-run state (clock, queues, counters, responses).

        The KV cache is *not* reset — warm shared prefixes carry over
        between runs, exactly as before. Raises if requests are still in
        flight (``run`` the engine dry, or ``abort`` first).
        """
        if (
            getattr(self, "_running", None)
            or getattr(self, "_waiting", None)
            or getattr(self, "_exportable", None)
        ):
            raise RuntimeError("begin_run() with requests still in flight")
        self._waiting: list[_Active] = []  # sorted by _Active.queue_key
        self._running: list[_Active] = []
        self._exportable: dict[str, _Active] = {}  # prefill role: awaiting export
        self.finished: dict[str, Response] = {}
        self._known_ids: set[str] = set()
        self.clock = 0.0
        self._prefill_s = 0.0
        self._decode_s = 0.0
        self._n_prefill = 0
        self._n_decode = 0
        self._n_mixed = 0
        self._preemptions = 0
        self._peak_running = 0
        self._submit_seq = 0
        self._admit_seq = 0
        self._evict_tick = 0

    def abort(self) -> None:
        """Free the KV pages of every in-flight request (crash cleanup).

        The cache persists across runs (warm prefixes); a run that dies
        mid-flight must not leak its resident sequences' pages.
        """
        for state in self._running:
            self.kv_cache.free(state.request.request_id)
        for request_id in self._exportable:
            self.kv_cache.free(request_id)
        self._running.clear()
        self._waiting.clear()
        self._exportable.clear()

    # -- queue introspection (schedulers, routers, autoscalers) --------
    @property
    def running(self) -> list[_Active]:
        """Admitted, unfinished requests in admission order (live view)."""
        return self._running

    @property
    def waiting(self) -> list[_Active]:
        """Queued requests in admission-priority order (live view)."""
        return self._waiting

    @property
    def n_running(self) -> int:
        """Admitted, unfinished requests (the current batch size)."""
        return len(self._running)

    @property
    def n_waiting(self) -> int:
        """Queued requests not yet admitted to the KV cache."""
        return len(self._waiting)

    @property
    def queue_depth(self) -> int:
        """Unfinished requests on this engine (waiting + running)."""
        return len(self._waiting) + len(self._running)

    @property
    def free_kv_tokens(self) -> int:
        """KV tokens the paged cache could still hold right now."""
        return self.kv_cache.free_tokens

    def has_work(self) -> bool:
        """Whether any request is still waiting or running here."""
        return bool(self._waiting or self._running)

    @property
    def exportable(self) -> list[str]:
        """Request ids parked for KV migration (prefill role), in the
        order their first token completed."""
        return list(self._exportable)

    # -- disaggregated handoff (prefill -> decode KV migration) --------
    def export_kv(self, request_id: str) -> KVHandoff:
        """Package a prefill-complete request for migration; free its pages.

        Only requests a prefill-role step reported in
        ``StepEvent.handoff_ready`` can be exported. The source's KV
        pages are released *refcount-correctly*: a shared prefix the
        request was holding stays cached for sibling requests (its
        refcount drops by one), exactly as a normal completion would
        leave it. The returned :class:`KVHandoff` carries everything the
        destination needs — request metadata, resident token count (the
        bytes to migrate), TTFT already fixed on this replica, and any
        numeric-mode token ids.
        """
        state = self._exportable.pop(request_id, None)
        if state is None:
            raise KeyError(
                f"request {request_id!r} is not awaiting export "
                f"(exportable: {sorted(self._exportable)})"
            )
        handoff = KVHandoff(
            request=state.request,
            tokens=state.ctx,
            generated=state.generated,
            first_token_s=state.first_token_s,
            export_s=self.clock,
            preemptions=state.preemptions,
            token_ids=tuple(state.tokens),
        )
        self.kv_cache.free(request_id)
        if self.tracer is not None:
            self.tracer.emit(
                self.clock, self.trace_replica, "export", request_id,
                (handoff.tokens,),
            )
        return handoff

    def import_kv(
        self,
        handoff: KVHandoff,
        arrival_s: float,
        transferred_tokens: int | None = None,
    ) -> None:
        """Accept a migrated request; it decodes without recomputing prefill.

        ``arrival_s`` is the virtual instant the KV transfer completed —
        the request becomes schedulable then, not at its original client
        arrival. Admission goes through the normal paged-allocator path
        (committing pages for the full migrated context, sharing a
        cached prefix if this replica already holds it); if the cache is
        full the request waits in the queue like any other. Raises on a
        prefill-role engine — migrations flow prefill → decode.

        ``transferred_tokens`` is how many of the handoff's context
        tokens actually crossed the link (default: all of them). The
        sender may have skipped a shared prefix it saw cached here at
        export time; if that prefix is gone by the time admission
        happens, the gap is *recomputed locally* as prefill rows —
        migrated KV never materializes out of nothing.
        """
        if self.role == "prefill":
            raise ValueError("prefill-role engines cannot import KV")
        request = handoff.request
        self._validate_admission(
            request, request.prompt_len + request.max_new_tokens
        )
        if arrival_s < handoff.export_s:
            raise ValueError("import before export: transfer time must be >= 0")
        if transferred_tokens is None:
            transferred_tokens = handoff.tokens
        if not 0 <= transferred_tokens <= handoff.tokens:
            raise ValueError(
                f"transferred_tokens {transferred_tokens} outside "
                f"[0, {handoff.tokens}]"
            )
        self._known_ids.add(request.request_id)
        state = _Active(
            request=request,
            order=-1,
            seq=self._submit_seq,
            generated=handoff.generated,
            first_token_s=handoff.first_token_s,
            preemptions=handoff.preemptions,
            imported=True,
            transfer_tokens=transferred_tokens,
            tokens=list(handoff.token_ids),
        )
        state.queue_key = (1, arrival_s, state.seq)
        state.ready_s = arrival_s
        self._submit_seq += 1
        insort(self._waiting, state)
        if self.tracer is not None:
            self.tracer.emit(
                arrival_s, self.trace_replica, "import",
                request.request_id, (transferred_tokens,),
            )

    # -- incremental event API -----------------------------------------
    def submit(self, request: Request) -> None:
        """Enqueue one request (callable while others are in flight).

        Requests are ordered by ``(arrival_s, submission order)``;
        preemption victims keep their place at the queue head. A request
        that could never fit the KV cache is rejected immediately.
        """
        # A prefill-role engine only ever holds the prompt plus the first
        # output token; the rest of the generation budget lives on the
        # decode replica the KV migrates to.
        self._validate_admission(
            request,
            request.prompt_len
            + (1 if self.role == "prefill" else request.max_new_tokens),
        )
        self._known_ids.add(request.request_id)
        state = _Active(request=request, order=-1, seq=self._submit_seq)
        state.queue_key = (1, request.arrival_s, state.seq)
        state.ready_s = request.arrival_s
        self._submit_seq += 1
        insort(self._waiting, state)
        if self.tracer is not None:
            self.tracer.emit(
                request.arrival_s, self.trace_replica, "arrive",
                request.request_id, (request.prompt_len, request.max_new_tokens),
            )

    def _validate_admission(self, request: Request, total: int) -> None:
        """Shared enqueue validation (``submit`` and ``import_kv``):
        reject duplicate ids and requests the cache could never hold."""
        if request.request_id in self._known_ids:
            raise ValueError(
                f"duplicate request_id {request.request_id!r} in batch"
            )
        if total > self.kv_cache.capacity_tokens:
            raise ValueError(
                f"kv_token_budget={self.kv_cache.capacity_tokens} cannot hold "
                f"the largest request ({total} tokens)"
            )

    def peek_next_event(self) -> float | None:
        """Virtual time of the next instant the engine can act.

        ``clock`` when anything is running or an arrived request waits;
        the head arrival time when the engine is idle with only future
        requests; ``None`` when fully drained. A cluster event loop uses
        this to advance replicas in global virtual-time order.
        """
        if self._running:
            return self.clock
        if not self._waiting:
            return None
        head = self._waiting[0]
        if head.queue_key[0] == 0 or head.ready_s <= self.clock:
            return self.clock  # preemption victims are always "arrived"
        return head.ready_s

    def step(self) -> StepEvent | None:
        """Advance one scheduler iteration; ``None`` when drained.

        Jumps the clock over idle gaps, asks the scheduler to compose
        the step (admission happens inside the scheduler's plan), prices
        it with :func:`step_time` over the engine's pricer, and applies the
        results: prefill progress, decode growth (with overflow
        preemption), completions.
        """
        nxt = self.peek_next_event()
        if nxt is None:
            return None
        if nxt > self.clock:  # idle engine: jump to the next arrival
            self.clock = nxt
        t_start = self.clock
        plan = self.scheduler.plan(self)
        if plan.decode:
            self._preempt_overflow(plan)
        if plan.empty:
            # A zero-duration step cannot make progress; returning would
            # spin run()/the cluster loop forever. Unreachable with the
            # built-in policies (they always cover `running`, and
            # preemption cannot empty both plan lists while requests
            # run) — this turns a buggy custom scheduler into a loud
            # failure instead of a hang.
            raise RuntimeError(
                f"scheduler {self.scheduler.name!r} produced an empty step "
                f"plan with {len(self._running)} running / "
                f"{len(self._waiting)} waiting requests"
            )

        groups = [
            (rows, min(s.admit_ctx, s.cached + s.prefilled + rows), "prefill")
            for s, rows in plan.prefill
        ]
        groups.extend(
            (1, s.request.prompt_len + s.generated, "decode") for s in plan.decode
        )
        t = step_time(self.pricer, groups)
        self.clock += t

        n_prefill_rows = sum(rows for _, rows in plan.prefill)
        n_decode_rows = len(plan.decode)
        if plan.prefill and plan.decode:
            kind = "mixed"
            self._n_mixed += 1
            # Attribute mixed-step time to the stages by row share — the
            # only decomposition that keeps prefill_s + decode_s == makespan
            # without re-pricing the sub-batches separately.
            share = n_prefill_rows / (n_prefill_rows + n_decode_rows)
            self._prefill_s += t * share
            self._decode_s += t * (1.0 - share)
        elif plan.prefill:
            kind = "prefill"
            self._n_prefill += 1
            self._prefill_s += t
        else:
            kind = "decode"
            self._n_decode += 1
            self._decode_s += t

        for state, rows in plan.prefill:
            state.prefilled += rows
        append_token = self.kv_cache.append_token
        clock = self.clock
        numeric = self.model is not None
        done: list = []
        for state in plan.decode:
            if numeric and state.request.prompt_tokens is not None:
                state.tokens.append(self._next_token(state))
            append_token(state.request.request_id)
            state.generated += 1
            if state.first_token_s < 0:
                state.first_token_s = clock
            if state.generated >= state.request.max_new_tokens:
                done.append(state)
        for state in done:
            self._running.remove(state)
            self.kv_cache.free(state.request.request_id)
            self.finished[state.request.request_id] = self._response(state, clock)
        handoff_ids: list[str] = []
        if self.role == "prefill":
            # First token done, more tokens budgeted: the request's KV is
            # ready to migrate. It leaves the batch but keeps its pages
            # pinned until export_kv() releases them.
            for state in [s for s in plan.decode if not s.done and s.generated >= 1]:
                self._running.remove(state)
                self._exportable[state.request.request_id] = state
                handoff_ids.append(state.request.request_id)
        if self.tracer is not None:
            emit = self.tracer.emit
            rep = self.trace_replica
            emit(t_start, rep, "step", "",
                 (clock, kind, n_prefill_rows, n_decode_rows, plan.notes))
            for state, rows in plan.prefill:
                emit(t_start, rep, "prefill_chunk",
                     state.request.request_id, (rows, clock))
            for state in plan.decode:
                # first_token_s was stamped with this step's end clock iff
                # the first output token completed just now.
                if state.first_token_s == clock:
                    emit(clock, rep, "first_token", state.request.request_id)
            for state in done:
                emit(clock, rep, "finish",
                     state.request.request_id, (state.generated,))
        return StepEvent(
            t_start=t_start,
            t_end=self.clock,
            kind=kind,
            n_prefill_rows=n_prefill_rows,
            n_decode_rows=n_decode_rows,
            handoff_ready=handoff_ids,
        )

    # ------------------------------------------------------------------
    def run(self, requests: list[Request]) -> ServingResult:
        """Serve ``requests`` to completion; responses keep input order.

        A prefill-role engine can only ``run`` requests that *finish* in
        the prefill pool (``max_new_tokens == 1``); anything larger
        parks for KV export mid-flight and must be driven through
        ``step()``/``export_kv()`` — normally by a disaggregated
        :class:`~repro.serve.ServingCluster` — so asking ``run`` to
        drain it is rejected up front rather than losing the request.
        """
        if self.role == "prefill":
            stranded = [r.request_id for r in requests if r.max_new_tokens > 1]
            if stranded:
                raise ValueError(
                    f"prefill-role engines park multi-token requests "
                    f"{stranded} for export_kv(); drive them with "
                    "step()/export_kv() (or a disaggregated ServingCluster) "
                    "instead of run()"
                )
        self.begin_run()
        try:
            for request in arrival_order(requests):
                self.submit(request)
            while self.has_work():
                self.step()
        finally:
            self.abort()
        return self.collect(requests)

    def collect(self, requests: list[Request]) -> ServingResult:
        """Build the :class:`ServingResult` for a completed request set.

        ``requests`` defines the response order (input order); every
        request must have finished. Used by :meth:`run` and by the
        cluster event loop after draining a replica.
        """
        return self.collect_ids([r.request_id for r in requests])

    def collect_ids(self, request_ids: list[str]) -> ServingResult:
        """:meth:`collect` by request id — no ``Request`` objects needed.

        The sharded cluster runner uses this: shard plans carry only the
        id partition, and rebuilding ``Request`` objects just to look up
        their ids again would double a million-request merge's work. An
        empty id list still reports the engine's counters: a prefill
        replica on which nothing finished did real work all the same.
        """
        responses = [self.finished[rid] for rid in request_ids]
        return ServingResult(
            responses=responses,
            stages=StageTimes(prefill_s=self._prefill_s, decode_s=self._decode_s),
            makespan_s=self.clock,
            n_prefill_steps=self._n_prefill,
            n_decode_steps=self._n_decode,
            n_mixed_steps=self._n_mixed,
            preemptions=self._preemptions,
            peak_running=self._peak_running,
            kv=self.kv_cache.stats(),
        )

    # ------------------------------------------------------------------
    def admit_arrived(self) -> list[_Active]:
        """Admit every waiting request that has arrived and fits the cache.

        The scheduler-facing admission helper (commits KV allocations).
        Head-of-line semantics: admission stops at the first request the
        paged allocator rejects, so late arrivals never starve the head.
        Admitted states join ``running`` immediately — an exception later
        in the step cannot strand their KV pages (``abort`` frees them).
        """
        admitted: list[_Active] = []
        while self._waiting and len(self._running) < self.max_batch:
            nxt = self._waiting[0]
            if nxt.queue_key[0] != 0 and nxt.ready_s > self.clock:
                break
            # Pure capacity probe first: admission polls every scheduler
            # iteration, and a blocked head must not inflate the
            # allocator's failed_allocations counter each decode step.
            if not self.kv_cache.can_allocate(
                nxt.ctx, nxt.request.prefix_id, nxt.request.prefix_len
            ):
                break
            cached = self.kv_cache.try_allocate(
                nxt.request.request_id,
                nxt.ctx,
                prefix_id=nxt.request.prefix_id,
                prefix_len=nxt.request.prefix_len,
            )
            if cached is None:  # pragma: no cover - can_allocate said yes
                break
            nxt.cached = cached
            nxt.prefilled = 0
            nxt.admit_ctx = nxt.ctx
            if nxt.imported:
                # Migrated KV: what crossed the link (plus any prefix
                # cached here right now) is already materialized, so those
                # rows are never recomputed. Tokens the sender *discounted*
                # against a prefix that has since been evicted are missing
                # on this replica — they stay as prefill rows and are
                # recomputed locally before decoding resumes.
                missing = max(
                    0, nxt.admit_ctx - nxt.cached - nxt.transfer_tokens
                )
                nxt.prefilled = max(0, nxt.prefill_tokens_needed - missing)
            nxt.order = self._admit_seq
            self._admit_seq += 1
            self._waiting.pop(0)
            self._running.append(nxt)
            admitted.append(nxt)
        if admitted:
            self._peak_running = max(self._peak_running, len(self._running))
            if self.tracer is not None:
                for state in admitted:
                    self.tracer.emit(
                        self.clock, self.trace_replica, "admit",
                        state.request.request_id,
                        (state.cached, state.admit_ctx),
                    )
        return admitted

    def _preempt_overflow(self, plan: StepPlan) -> None:
        """Evict newest-admitted requests if the next decode would overflow.

        Evicted victims leave ``running`` (and the step plan), lose their
        KV pages — shared prefix pages stay cached for siblings via the
        allocator's refcounts — and re-enter the queue head for
        recomputation (re-admission is a prefix *hit* when the prefix
        pages survived).
        """
        # Fast path: one free page per decode row is the worst case
        # `append_blocks_needed` can report, so when that many pages are
        # already free the loop below would break on its first iteration
        # with no side effects — skip it (this is the common case; the
        # slow path only runs when the cache is genuinely near-full).
        if self.kv_cache.free_blocks >= len(plan.decode):
            return
        evicted = 0
        while len(self._running) > 1 and plan.decode:
            needed = self.kv_cache.append_blocks_needed(
                s.request.request_id for s in plan.decode
            )
            if self.kv_cache.ensure_free(needed):
                break
            victim = max(self._running, key=lambda s: s.order)
            self._running.remove(victim)
            if victim in plan.decode:
                plan.decode.remove(victim)
            plan.prefill = [(s, rows) for s, rows in plan.prefill if s is not victim]
            self.kv_cache.free(victim.request.request_id)
            victim.preemptions += 1
            victim.cached = 0
            victim.prefilled = 0
            # An imported victim's migrated pages are gone; re-admission
            # recomputes the full context locally (the transfer is not
            # repeated — the prompt travels with the request metadata).
            victim.imported = False
            self._evict_tick += 1
            victim.queue_key = (0, -self._evict_tick, 0)
            insort(self._waiting, victim)  # queue head: recompute first
            evicted += 1
            if self.tracer is not None:
                self.tracer.emit(
                    self.clock, self.trace_replica, "preempt",
                    victim.request.request_id,
                )
        self._preemptions += evicted

    # ------------------------------------------------------------------
    def _next_token(self, state: _Active) -> int:
        """Greedy next token from the real model (numeric mode)."""
        seq = np.concatenate(
            [np.asarray(state.request.prompt_tokens), np.array(state.tokens, dtype=int)]
        ) if state.tokens else np.asarray(state.request.prompt_tokens)
        window = seq[-self.model.config.max_seq :]
        from ..nn.tensor import no_grad

        with no_grad():
            logits = self.model(window[None, :], self._qc).data[0, -1]
        return int(np.argmax(logits))

    def _response(self, state: _Active, clock: float) -> Response:
        return Response(
            request_id=state.request.request_id,
            prompt_len=state.request.prompt_len,
            output_len=state.generated,
            arrival_s=state.request.arrival_s,
            first_token_s=state.first_token_s,
            finish_s=clock,
            preemptions=state.preemptions,
            tokens=np.array(state.tokens, dtype=int) if state.tokens else None,
        )
