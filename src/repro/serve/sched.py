"""Pluggable batch-composition policies for the serving engine.

:class:`repro.serve.ServingEngine` is a discrete-event loop: at every
schedulable instant it asks its :class:`Scheduler` to compose the next
*step* — which waiting requests to admit, which admitted requests run
prompt (prefill) rows, and which run a generation (decode) row. The
scheduler owns exactly that decision; admission bookkeeping, KV paging,
preemption, timing, and latency accounting stay in the engine.

Three policies ship in the registry (``SCHEDULERS``):

* ``"prefill-first"`` — the classic vLLM-style iteration loop and the
  default: whenever any waiting request fits the KV cache, a prefill
  step runs for just the newly admitted prompts (decodes stall behind
  it); otherwise one decode step advances every running request. This is
  byte-identical to the pre-scheduler engine — committed artifacts
  reproduce exactly.
* ``"chunked-prefill"`` — Sarathi-style chunked prefill: long prompts
  are split into ``chunk_tokens``-row chunks, and each step co-schedules
  the pending chunks with *all* ready decode rows in one mixed batch.
  Decodes never stall behind a long prompt, so tail TTFT/TPOT improve at
  a small per-step cost (the mixed batch prices the chunk and decode
  attention kernels separately — see ``gpu.inference.StepPricer``).
* ``"decode-priority"`` — the opposite extreme: running decodes are
  never interrupted; new requests are admitted (and prefilled in full)
  only once no admitted request has a decode ready. Models static-batch
  serving; best-case TPOT, worst-case queueing TTFT. Brackets the policy
  space from the other side.

A scheduler's ``plan`` is called exactly once per engine step and may
use the engine's admission helper (``engine.admit_arrived()``), which
commits KV allocations for the requests it admits. Schedulers must be
deterministic: equal engine states yield equal plans.

>>> available_schedulers()
['chunked-prefill', 'decode-priority', 'prefill-first']
>>> get_scheduler("chunked-prefill").chunk_tokens
256
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "StepPlan",
    "Scheduler",
    "PrefillFirstScheduler",
    "ChunkedPrefillScheduler",
    "DecodePriorityScheduler",
    "SCHEDULERS",
    "available_schedulers",
    "get_scheduler",
]


@dataclass
class StepPlan:
    """One engine step, as composed by a :class:`Scheduler`.

    ``prefill`` lists ``(state, rows)`` pairs: ``rows`` not-yet-computed
    prompt tokens of that admitted request to process this step.
    ``decode`` lists the running requests that generate one token this
    step. The engine prices the step with kind-tagged row groups, so in
    a mixed step the chunk and decode attention kernels stay separate.

    ``notes`` is a policy-chosen annotation tuple of ``(key, value)``
    pairs — free-form plan context (e.g. the chunk budget a chunked
    prefill ran under) surfaced in trace step spans. Never consulted by
    the engine, so an unannotated plan is behaviour-identical.
    """

    prefill: list = field(default_factory=list)  # [(state, rows), ...]
    decode: list = field(default_factory=list)  # [state, ...]
    notes: tuple = ()  # ((key, value), ...) — trace annotations only

    @property
    def empty(self) -> bool:
        """A step with no rows (an engine error if ever executed)."""
        return not self.prefill and not self.decode


class Scheduler:
    """Base class: compose the next engine step.

    Subclasses implement :meth:`plan`. A scheduler is stateless: it
    composes each step from the engine it is given, so one instance may
    serve any number of engines and runs.
    """

    name = "base"

    def plan(self, engine) -> StepPlan:  # pragma: no cover - interface
        """Compose the next step for ``engine`` (called once per step)."""
        raise NotImplementedError


class PrefillFirstScheduler(Scheduler):
    """The classic loop: admit-and-prefill whenever anything fits.

    Exact pre-scheduler engine semantics: if any waiting request is
    admitted this instant, the step prefills just those prompts in full
    (running decodes stall); otherwise every running request decodes one
    token. A step is never mixed, so step times — and every committed
    serving artifact — are byte-identical to the monolithic loop this
    policy was extracted from.
    """

    name = "prefill-first"

    def plan(self, engine) -> StepPlan:
        admitted = engine.admit_arrived()
        # Imported (KV-migrated) admissions have no prefill rows — they go
        # straight to the decode branch with everyone else.
        prefill = [(s, s.prefill_remaining) for s in admitted if s.prefill_remaining > 0]
        if prefill:
            return StepPlan(prefill=prefill)
        return StepPlan(decode=list(engine.running))


class ChunkedPrefillScheduler(Scheduler):
    """Sarathi-style chunked prefill with decode co-scheduling.

    Each step carries at most ``chunk_tokens`` prompt rows, split over
    pending prefills in admission order (FCFS), *plus* one decode row
    for every running request whose prefill already completed. A long
    prompt therefore trickles through over several steps while decodes
    keep flowing — no head-of-line blocking — at the price of slightly
    longer individual steps (the mixed batch runs chunk and decode
    attention kernels back to back).

    ``chunk_tokens`` trades TTFT fairness against prefill efficiency:
    smaller chunks interleave more but pay per-step overheads more
    often. Admission is unchanged (paged-KV head-of-line), so the same
    requests fit as under prefill-first; only the compute schedule
    differs.
    """

    name = "chunked-prefill"

    def __init__(self, chunk_tokens: int = 256) -> None:
        if chunk_tokens < 1:
            raise ValueError("chunk_tokens must be >= 1")
        self.chunk_tokens = chunk_tokens

    def plan(self, engine) -> StepPlan:
        engine.admit_arrived()
        decode = []
        prefill: list = []
        budget = self.chunk_tokens
        for state in engine.running:  # admission order: FCFS chunking
            remaining = state.prefill_remaining
            if remaining <= 0:
                decode.append(state)
            elif budget > 0:
                rows = min(budget, remaining)
                prefill.append((state, rows))
                budget -= rows
        notes = ()
        if prefill:
            notes = (
                ("chunk_budget", self.chunk_tokens),
                ("chunk_rows", self.chunk_tokens - budget),
            )
        return StepPlan(prefill=prefill, decode=decode, notes=notes)


class DecodePriorityScheduler(Scheduler):
    """Never interrupt decodes: admit only when no decode is ready.

    Running requests decode every step until they finish; waiting
    requests are admitted (and prefilled in full, prefill-first style)
    only at instants where no admitted request has a decode ready. This
    models static-batch serving — the TPOT-optimal, queueing-TTFT-worst
    extreme that brackets the policy space opposite chunked prefill.
    """

    name = "decode-priority"

    def plan(self, engine) -> StepPlan:
        decode = [s for s in engine.running if s.prefill_done]
        if decode:
            return StepPlan(decode=decode)
        admitted = engine.admit_arrived()
        prefill = [(s, s.prefill_remaining) for s in admitted if s.prefill_remaining > 0]
        if prefill:
            return StepPlan(prefill=prefill)
        # All admissions were imported (KV-migrated, prefill already
        # materialized): decode them immediately instead of returning an
        # empty plan.
        return StepPlan(decode=[s for s in engine.running if s.prefill_done])


SCHEDULERS: dict[str, type[Scheduler]] = {
    cls.name: cls
    for cls in (PrefillFirstScheduler, ChunkedPrefillScheduler, DecodePriorityScheduler)
}


def available_schedulers() -> list[str]:
    """Sorted names of the registered scheduling policies.

    >>> available_schedulers()
    ['chunked-prefill', 'decode-priority', 'prefill-first']
    """
    return sorted(SCHEDULERS)


def get_scheduler(name_or_scheduler) -> Scheduler:
    """Instantiate a scheduler by name (or pass a :class:`Scheduler` through)."""
    if isinstance(name_or_scheduler, Scheduler):
        return name_or_scheduler
    key = str(name_or_scheduler).lower()
    if key not in SCHEDULERS:
        raise KeyError(
            f"unknown scheduler {name_or_scheduler!r} "
            f"(available: {', '.join(available_schedulers())})"
        )
    return SCHEDULERS[key]()
