"""Workload layer: seeded synthetic request generators + JSONL traces.

The serving claims of the paper (and of any microscaling deployment) only
mean something under realistic traffic — bursty arrivals, heavy-tailed
prompt/output lengths, shared system prompts. This module produces
:class:`repro.serve.Request` streams three ways:

* **Synthetic generators** (:func:`make_workload`): Poisson or bursty
  arrival processes crossed with configurable per-request length
  distributions (:class:`LengthDist`), all driven by one seed so every
  run of a given spec is bit-identical.
* **Scenario presets** (:func:`chat_workload`): the shared-prefix chat
  scenario — every request starts with one of ``n_prefixes`` common
  system prompts, declared via ``Request.prefix_id`` so a paged KV cache
  can store each system prompt once.
* **Trace replay** (:func:`save_trace` / :func:`load_trace`): a one-
  request-per-line JSONL format that round-trips exactly, so captured or
  generated workloads can be replayed byte-for-byte across machines.

>>> reqs = make_workload(4, seed=7, arrival="poisson", rate_rps=50.0,
...                      prompt=LengthDist.uniform(64, 256),
...                      output=LengthDist.fixed(16))
>>> len(reqs), reqs[0].request_id, reqs[0].max_new_tokens
(4, 'w0000', 16)
>>> all(a.arrival_s <= b.arrival_s for a, b in zip(reqs, reqs[1:]))
True
>>> chat = chat_workload(6, n_prefixes=2, prefix_len=128, seed=0)
>>> sorted({r.prefix_id for r in chat})
['sys-0', 'sys-1']
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .engine import Request

__all__ = [
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
]


@dataclass(frozen=True)
class LengthDist:
    """A distribution over token counts, sampled with a shared RNG.

    Construct via the classmethods; ``sample`` always returns ints >= 1.

    >>> LengthDist.fixed(512).sample(np.random.default_rng(0), 3).tolist()
    [512, 512, 512]
    >>> d = LengthDist.lognormal(median=256, sigma=0.8, low=16, high=4096)
    >>> s = d.sample(np.random.default_rng(1), 1000)
    >>> bool(s.min() >= 16) and bool(s.max() <= 4096)
    True
    """

    kind: str  # "fixed" | "uniform" | "lognormal"
    low: int = 1
    high: int = 1
    median: float = 1.0
    sigma: float = 0.0

    @classmethod
    def fixed(cls, value: int) -> "LengthDist":
        """Every request gets exactly ``value`` tokens."""
        if value < 1:
            raise ValueError("length must be >= 1")
        return cls("fixed", low=value, high=value)

    @classmethod
    def uniform(cls, low: int, high: int) -> "LengthDist":
        """Integer-uniform on ``[low, high]`` inclusive."""
        if not 1 <= low <= high:
            raise ValueError(f"need 1 <= low <= high, got [{low}, {high}]")
        return cls("uniform", low=low, high=high)

    @classmethod
    def lognormal(
        cls, median: float, sigma: float, low: int = 1, high: int = 1 << 20
    ) -> "LengthDist":
        """Log-normal with given median/shape, clipped to ``[low, high]``.

        The heavy right tail matches observed production prompt-length
        distributions (most prompts short, a few very long).
        """
        if median < 1 or sigma < 0 or not 1 <= low <= high:
            raise ValueError("invalid lognormal parameters")
        return cls("lognormal", low=low, high=high, median=median, sigma=sigma)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` integer token counts (>= 1) using ``rng``."""
        if self.kind == "fixed":
            return np.full(n, self.low, dtype=int)
        if self.kind == "uniform":
            return rng.integers(self.low, self.high + 1, size=n)
        if self.kind == "lognormal":
            raw = np.exp(rng.normal(np.log(self.median), self.sigma, size=n))
            return np.clip(np.rint(raw), self.low, self.high).astype(int)
        raise ValueError(f"unknown LengthDist kind {self.kind!r}")


def poisson_arrivals(
    n: int, rate_rps: float, rng: np.random.Generator, start_s: float = 0.0
) -> np.ndarray:
    """``n`` arrival times from a Poisson process of ``rate_rps`` req/s."""
    if rate_rps <= 0:
        raise ValueError("rate_rps must be > 0")
    gaps = rng.exponential(1.0 / rate_rps, size=n)
    return start_s + np.cumsum(gaps)


def bursty_arrivals(
    n: int,
    rate_rps: float,
    rng: np.random.Generator,
    burst_size: int = 8,
    jitter_s: float = 1e-3,
    start_s: float = 0.0,
) -> np.ndarray:
    """On/off arrivals: bursts of ``burst_size`` near-simultaneous requests.

    Bursts are spaced so the *long-run average* rate is still
    ``rate_rps``; within a burst, requests land within ``jitter_s`` of
    the burst head. This is the stress case for admission control: the
    instantaneous rate far exceeds the mean.
    """
    if rate_rps <= 0 or burst_size < 1:
        raise ValueError("rate_rps must be > 0 and burst_size >= 1")
    n_bursts = -(-n // burst_size)
    heads = start_s + np.cumsum(rng.exponential(burst_size / rate_rps, size=n_bursts))
    times = np.repeat(heads, burst_size)[:n]
    times = times + rng.uniform(0.0, jitter_s, size=n)
    return np.sort(times)


def make_workload(
    n: int,
    seed: int = 0,
    arrival: str = "poisson",
    rate_rps: float = 10.0,
    prompt: LengthDist | None = None,
    output: LengthDist | None = None,
    burst_size: int = 8,
    id_prefix: str = "w",
) -> list[Request]:
    """Generate ``n`` requests with seeded arrivals and lengths.

    ``arrival`` is ``"poisson"`` or ``"bursty"``; lengths default to a
    heavy-tailed lognormal prompt (median 256) and uniform 16-128 output.
    The same ``(n, seed, ...)`` spec always yields the identical list:
    :func:`iter_workload` drawn as one chunk.
    """
    return list(
        iter_workload(
            n,
            seed=seed,
            arrival=arrival,
            rate_rps=rate_rps,
            prompt=prompt,
            output=output,
            burst_size=burst_size,
            id_prefix=id_prefix,
            chunk_size=max(n, 1),
        )
    )


def iter_workload(
    n: int,
    seed: int = 0,
    arrival: str = "poisson",
    rate_rps: float = 10.0,
    prompt: LengthDist | None = None,
    output: LengthDist | None = None,
    burst_size: int = 8,
    id_prefix: str = "w",
    chunk_size: int = 65536,
) -> "Iterator[Request]":
    """Lazily generate ``n`` requests — :func:`make_workload` for traces
    too large to materialize.

    Requests are drawn in chunks of ``chunk_size`` from one seeded RNG,
    so peak memory is O(chunk) however large ``n`` is: a million-request
    trace streams straight into :meth:`ServingCluster.run
    <repro.serve.ServingCluster.run>` without ever existing as a list.
    The stream is deterministic — the same ``(n, seed, ...)`` spec always
    yields the identical sequence, in non-decreasing arrival order — and
    with ``chunk_size >= n`` it reproduces :func:`make_workload`
    *bit-identically* (one chunk performs exactly the same three RNG
    passes). Smaller chunks interleave the arrival/length draws per
    chunk, which is its own (equally deterministic) spec, not a prefix
    of the materialized one.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    prompt = prompt or LengthDist.lognormal(median=256, sigma=0.7, low=16, high=4096)
    output = output or LengthDist.uniform(16, 128)
    if arrival not in ("poisson", "bursty"):
        raise ValueError(f"unknown arrival process {arrival!r}")
    rng = np.random.default_rng(seed)
    width = max(4, len(str(n - 1)))
    start = 0.0
    for lo in range(0, n, chunk_size):
        m = min(chunk_size, n - lo)
        if arrival == "poisson":
            times = poisson_arrivals(m, rate_rps, rng, start_s=start)
        else:
            times = bursty_arrivals(
                m, rate_rps, rng, burst_size=burst_size, start_s=start
            )
        start = float(times[-1])  # next chunk arrives strictly after
        prompts = prompt.sample(rng, m).tolist()
        outputs = output.sample(rng, m).tolist()
        for i, t in enumerate(times.tolist()):
            yield Request(
                request_id=f"{id_prefix}{lo + i:0{width}d}",
                prompt_len=prompts[i],
                max_new_tokens=outputs[i],
                arrival_s=t,
            )


def chat_workload(
    n: int,
    n_prefixes: int = 4,
    prefix_len: int = 512,
    seed: int = 0,
    arrival: str = "poisson",
    rate_rps: float = 10.0,
    turn: LengthDist | None = None,
    output: LengthDist | None = None,
) -> list[Request]:
    """The shared-prefix chat scenario.

    Each request is a user turn appended to one of ``n_prefixes`` common
    system prompts of ``prefix_len`` tokens; ``prompt_len`` is the full
    context (prefix + turn) and ``prefix_id``/``prefix_len`` mark the
    sharable part. With a block-granular KV cache each system prompt is
    stored once per replica, and prefix hits skip most of the prefill.
    """
    if n_prefixes < 1 or prefix_len < 1:
        raise ValueError("n_prefixes and prefix_len must be >= 1")
    base = make_workload(
        n,
        seed=seed,
        arrival=arrival,
        rate_rps=rate_rps,
        prompt=turn or LengthDist.lognormal(median=96, sigma=0.6, low=8, high=1024),
        output=output or LengthDist.uniform(16, 96),
        id_prefix="c",
    )
    rng = np.random.default_rng(seed + 1)
    groups = rng.integers(0, n_prefixes, size=n)
    return [
        Request(
            request_id=r.request_id,
            prompt_len=prefix_len + r.prompt_len,
            max_new_tokens=r.max_new_tokens,
            arrival_s=r.arrival_s,
            prefix_id=f"sys-{groups[i]}",
            prefix_len=prefix_len,
        )
        for i, r in enumerate(base)
    ]


def long_prompt_workload(
    n: int,
    seed: int = 11,
    rate_rps: float = 40.0,
    burst_size: int = 8,
    max_prompt: int = 1024,
) -> list[Request]:
    """The bursty long-prompt scenario: the scheduler stress case.

    Bursts of requests with prompts drawn from a heavy long-prompt
    distribution (median ``max_prompt // 2``) and real decode budgets —
    the workload where a prefill-first scheduler head-of-line-blocks
    decodes behind each burst's prompt processing, and where chunked
    prefill earns its tail-TTFT win (benchmarks/test_scheduler_policies).
    ``max_prompt`` caps the prompt length so the trace stays admissible
    at tight page budgets.
    """
    return make_workload(
        n,
        seed=seed,
        arrival="bursty",
        rate_rps=rate_rps,
        burst_size=burst_size,
        prompt=LengthDist.lognormal(
            median=max_prompt // 2, sigma=0.5, low=128, high=max_prompt
        ),
        output=LengthDist.uniform(32, 96),
        id_prefix="lp",
    )


# ----------------------------------------------------------------------
# JSONL trace format
# ----------------------------------------------------------------------
_TRACE_FIELDS = ("request_id", "prompt_len", "max_new_tokens", "arrival_s",
                 "prefix_id", "prefix_len")


def save_trace(path, requests: Iterable[Request]) -> None:
    """Write requests as one JSON object per line (replayable trace).

    ``requests`` may be any iterable — a generator such as
    :func:`iter_workload` streams straight to disk one line at a time,
    so saving a million-request trace never materializes it. The bytes
    written are identical either way. Numeric-mode token payloads
    (``prompt_tokens``) are included as plain lists when present, so
    numeric traces replay exactly too.
    """
    with Path(path).open("w") as f:
        for r in requests:
            row = {k: getattr(r, k) for k in _TRACE_FIELDS}
            if r.prompt_tokens is not None:
                row["prompt_tokens"] = np.asarray(r.prompt_tokens).tolist()
            f.write(json.dumps(row))
            f.write("\n")


def stream_trace(path) -> Iterator[Request]:
    """Lazily read a JSONL trace, one :class:`Request` per line.

    The generator holds one line in memory at a time, so a
    million-request trace feeds :meth:`ServingCluster.run
    <repro.serve.ServingCluster.run>` without ever being a list.
    :func:`load_trace` is exactly ``list(stream_trace(path))``.
    """
    with Path(path).open() as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            unknown = set(row) - set(_TRACE_FIELDS) - {"prompt_tokens"}
            if unknown:
                raise ValueError(
                    f"{path}:{lineno}: unknown trace fields {sorted(unknown)}"
                )
            tokens = row.pop("prompt_tokens", None)
            if tokens is not None:
                row["prompt_tokens"] = np.asarray(tokens, dtype=int)
                row.pop("prompt_len", None)  # derived from the payload
            yield Request(**row)


def load_trace(path) -> list[Request]:
    """Read a JSONL trace back into :class:`Request` objects.

    Round-trips :func:`save_trace` exactly::

        save_trace(p, reqs); assert load_trace(p) == reqs
    """
    return list(stream_trace(path))
