"""Virtual-time tracing for the serving stack: events, spans, tracers.

The :class:`Tracer` is the single object the serving layers talk to:
:class:`repro.serve.ServingEngine` emits request-lifecycle and step
events, :class:`repro.serve.ServingCluster` adds routing / autoscale /
KV-transfer events, and :mod:`repro.serve.shard` merges per-worker
tracers back into one. Every timestamp is **virtual time** — the same
deterministic clock the simulation itself runs on — so a trace is a
pure function of the run's inputs: two runs of the same seed produce
byte-identical traces, and a sharded run's merged trace reconciles with
the single-process one (see :func:`merge_events`).

Events are flat, compact tuples (:class:`TraceEvent`), not span
objects: the hot emit path is one attribute load and one ring-buffer
append. Span *structure* (queue / prefill-chunk / decode / transfer
intervals) is derived at export time by
:func:`repro.obs.export.lifecycle_spans`, so tracing's steady-state
cost stays a single ``if tracer is not None`` plus a tuple append.

The event taxonomy (``KIND_ORDER`` gives the deterministic same-instant
ordering)::

    arrive   request submitted to a replica        (t = client arrival)
    route    cluster routing decision              (replica = -1)
    autoscale  fleet grew/retired a replica        (replica = -1)
    import   migrated KV reached a decode replica  (t = transfer arrival)
    admit    KV pages committed, joins the batch   (t = admission clock)
    preempt  evicted to the queue head             (t = step start)
    step     one scheduler iteration               (data: end, kind, rows, notes)
    prefill_chunk  prompt rows computed this step  (data: rows, end)
    first_token    first output token completed    (t = step end)
    finish   last token generated                  (t = step end)
    export   KV packaged for migration             (prefill replica)
    transfer KV migration over the interconnect    (replica = -1)

>>> tracer = Tracer()
>>> tracer.emit(0.0, 0, "arrive", "r0", (128, 4))
>>> tracer.emit(0.5, 0, "admit", "r0", (0, 128))
>>> [e.kind for e in tracer.events()]
['arrive', 'admit']
>>> len(tracer), tracer.dropped
(2, 0)
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, NamedTuple

__all__ = [
    "TraceEvent",
    "Tracer",
    "KIND_ORDER",
    "event_key",
    "merge_events",
]

#: Deterministic ordering of event kinds at the same ``(t, replica)``
#: instant. The ranks encode causality inside one virtual instant: a
#: request arrives before it is routed, routing precedes admission,
#: admission precedes the step that computes it, and a step's derived
#: events (chunks, first tokens, finishes, exports) follow the step
#: record itself. Sorting by :func:`event_key` therefore reproduces one
#: canonical order regardless of emission interleaving — the property
#: the sharded-trace merge rests on.
KIND_ORDER: dict[str, int] = {
    "arrive": 0,
    "route": 1,
    "autoscale": 2,
    "import": 3,
    "admit": 4,
    "preempt": 5,
    "step": 6,
    "prefill_chunk": 7,
    "first_token": 8,
    "finish": 9,
    "export": 10,
    "transfer": 11,
}


class TraceEvent(NamedTuple):
    """One virtual-time event: ``(t, replica, kind, req, data)``.

    ``replica`` is the emitting replica's index (``-1`` for
    cluster-level events: routing, autoscale, transfers). ``req`` is the
    request id (``""`` for step/autoscale events). ``data`` is a small
    tuple whose schema is fixed per ``kind`` — fixed schemas keep events
    totally ordered by :func:`event_key` without type surprises.

    >>> TraceEvent(1.5, 0, "finish", "r3", (8,)).kind
    'finish'
    """

    t: float
    replica: int
    kind: str
    req: str
    data: tuple = ()


def event_key(event: TraceEvent) -> tuple:
    """The canonical sort key: ``(t, replica, kind rank, req, data)``.

    A *total* order over any event multiset the serving stack emits
    (same kind ⇒ same data schema ⇒ comparable tails), independent of
    emission order — what makes merged shard traces bit-reproducible.

    >>> a = TraceEvent(0.0, 0, "arrive", "r0", (8, 1))
    >>> b = TraceEvent(0.0, 0, "admit", "r0", (0, 8))
    >>> sorted([b, a], key=event_key) == [a, b]
    True
    """
    return (
        event.t,
        event.replica,
        KIND_ORDER.get(event.kind, len(KIND_ORDER)),
        event.req,
        event.data,
    )


def merge_events(event_lists: Iterable[Iterable[TraceEvent]]) -> list[TraceEvent]:
    """Merge per-shard event streams into one canonically-ordered list.

    Concatenates and sorts by :func:`event_key`; because the key is a
    total order over the events themselves, the result depends only on
    the event *multiset* — never on which worker emitted what first.

    >>> a = [TraceEvent(1.0, 1, "step", "", (2.0, "decode", 0, 3, ()))]
    >>> b = [TraceEvent(0.5, 0, "arrive", "r0", (4, 1))]
    >>> [e.t for e in merge_events([a, b])]
    [0.5, 1.0]
    """
    merged: list[TraceEvent] = []
    for events in event_lists:
        merged.extend(events)
    merged.sort(key=event_key)
    return merged


class Tracer:
    """Collects :class:`TraceEvent` records from the serving stack.

    Pass one to :class:`repro.serve.ServingEngine`,
    :class:`repro.serve.ServingCluster`, or
    :func:`repro.serve.run_sharded` — all instrumentation sites check
    ``tracer is None`` and skip in one branch, so an untraced run pays a
    single pointer test per site and produces bit-identical results.

    ``capacity`` bounds memory with a flight-recorder ring: a
    million-request run traced at ``capacity=100_000`` keeps the newest
    hundred thousand events (the tail, where the preemption storm or the
    link stall actually happened) and counts the rest as ``dropped``.
    Leave it ``None`` for exact, unbounded traces (required when
    comparing traces across runs — ring eviction depends on emission
    order).

    >>> t = Tracer(capacity=3)
    >>> for i in range(5):
    ...     t.emit(float(i), 0, "arrive", f"r{i}", (1, 1))
    >>> len(t), t.appended, t.dropped
    (3, 5, 2)
    >>> [e.req for e in t.events()]
    ['r2', 'r3', 'r4']
    """

    __slots__ = ("capacity", "appended", "_events")

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 (or None for unbounded)")
        #: The ring capacity (``None`` when unbounded).
        self.capacity = capacity
        #: Total events ever emitted into this tracer.
        self.appended = 0
        self._events: deque = deque(maxlen=capacity)

    # -- hot path ------------------------------------------------------
    def emit(
        self, t: float, replica: int, kind: str, req: str, data: tuple = ()
    ) -> None:
        """Record one event (the only call on the serving hot path)."""
        self._events.append(TraceEvent(t, replica, kind, req, data))
        self.appended += 1

    # -- ingestion / introspection -------------------------------------
    def ingest(self, events: Iterable[TraceEvent]) -> None:
        """Append pre-built events (sharded-run merge, replays)."""
        for e in events:
            self._events.append(e if isinstance(e, TraceEvent) else TraceEvent(*e))
            self.appended += 1

    def raw_events(self) -> list[TraceEvent]:
        """Events in emission order (ring survivors only)."""
        return list(self._events)

    def events(self) -> list[TraceEvent]:
        """Events in canonical :func:`event_key` order — the export
        order, identical for any emission interleaving of the same
        event multiset."""
        return sorted(self._events, key=event_key)

    @property
    def dropped(self) -> int:
        """Events evicted by the flight-recorder ring so far."""
        return self.appended - len(self._events)

    def request_ids(self) -> list[str]:
        """Distinct request ids with surviving events, sorted."""
        return sorted({e.req for e in self._events if e.req})

    def clear(self) -> None:
        """Drop all events and counters (reuse across runs)."""
        self._events.clear()
        self.appended = 0

    def __len__(self) -> int:
        return len(self._events)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Tracer({len(self)} events, {self.dropped} dropped)"
