"""Profile the fleet event loop and dump the hot-path table.

Usage::

    PYTHONPATH=src python benchmarks/profile_event_loop.py [N] [OUT]

Runs the benchmark fleet configuration (llama-2-13b, mxfp4+, 4 replicas,
round-robin, Poisson 200 req/s at seed 0) over an ``N``-request trace
(default 10 000) under :mod:`cProfile` and writes the top functions by
cumulative time to ``OUT`` (default
``benchmarks/results/profile_event_loop.txt``). The CI
``event-loop-scale`` job uploads the file as an artifact, so a perf
regression's culprit is one download away instead of a bisect.

The profile is diagnostic output, not a committed artifact — wall-clock
numbers are machine-dependent.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import sys
import time
from pathlib import Path

from repro.models.zoo import ARCHS
from repro.serve import ServingCluster, make_workload


def main(argv: list[str]) -> int:
    n = int(argv[1]) if len(argv) > 1 else 10_000
    out = Path(
        argv[2]
        if len(argv) > 2
        else Path(__file__).parent / "results" / "profile_event_loop.txt"
    )
    cluster = ServingCluster(
        ARCHS["llama-2-13b"],
        "mxfp4+",
        n_replicas=4,
        router="round-robin",
        scheduler="prefill-first",
        kv_token_budget=262_144,
    )
    reqs = make_workload(n, seed=0, arrival="poisson", rate_rps=200.0)

    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    fleet = cluster.run(reqs)
    profiler.disable()
    elapsed = time.perf_counter() - t0

    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.sort_stats("cumulative").print_stats(40)
    fleet.summary()  # the metric views a report reads (p99 sorts once)
    cache = cluster.pricer.cache_info()
    header = (
        f"event loop profile: n={n} requests, {elapsed:.2f}s wall "
        f"(profiled), {len(fleet.responses)} responses, "
        f"{fleet.total_tokens} tokens\n"
        f"probes: sorts_performed={fleet.sorts_performed}, "
        f"step pricer memo hits={cache['hits']} misses={cache['misses']} "
        f"(attention size={cache['attention']['size']}, "
        f"rows size={cache['rows']['size']})\n\n"
    )
    out.parent.mkdir(exist_ok=True)
    out.write_text(header + buf.getvalue())
    print(header.strip())
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
