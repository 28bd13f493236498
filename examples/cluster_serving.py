"""Scale-out serving walkthrough: paged KV, workloads, and a cluster.

Shows the layers added on top of `ServingEngine`:
 1. `PagedKVCache.from_byte_budget` — the recipe's KV format sets how
    many tokens (and hence requests) fit one replica's page budget;
 2. `workload` generators — seeded bursty traffic and the shared-prefix
    chat scenario, plus JSONL trace replay;
 3. `ServingCluster` — N replicas behind one global event loop and a
    router, with fleet metrics including goodput under a latency SLO;
 4. pluggable schedulers (prefill-first / chunked-prefill /
    decode-priority) and queue-depth autoscaling;
 5. observability — a virtual-time `Tracer` + `MetricsRegistry` on the
    fleet, shard-merge reconciliation, and Perfetto export
    (`--trace PATH` keeps the Chrome trace JSON, `--metrics PATH` the
    gauge series CSV);
 6. with --disaggregate: prefill/decode replica pools with KV migration
    priced over an interconnect (see docs/SERVING_GUIDE.md).

Run:  python examples/cluster_serving.py [--scheduler chunked-prefill]
                                         [--trace trace.json]
                                         [--metrics metrics.csv]
                                         [--disaggregate]
(the CI scheduler matrix runs it once per policy; the obs job keeps the
trace artifact; the disagg smoke job runs it with --disaggregate)
"""

import argparse
import tempfile
from pathlib import Path

from repro.models.zoo import ARCHS
from repro.serve import (
    AutoscalePolicy,
    INTERCONNECTS,
    PagedKVCache,
    Request,
    ServingCluster,
    ServingEngine,
    available_schedulers,
    chat_workload,
    get_recipe,
    kv_token_bytes,
    load_trace,
    long_prompt_workload,
    make_workload,
    save_trace,
)

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument(
    "--scheduler", default="prefill-first", choices=available_schedulers(),
    help="batch-composition policy used by every replica engine",
)
parser.add_argument(
    "--disaggregate", action="store_true",
    help="also run the prefill/decode-disaggregated section",
)
parser.add_argument(
    "--trace", default=None, metavar="PATH",
    help="write the observability section's Perfetto trace JSON here",
)
parser.add_argument(
    "--metrics", default=None, metavar="PATH",
    help="write the observability section's gauge series CSV here",
)
ARGS = parser.parse_args()
SCHED = ARGS.scheduler

arch = ARCHS["llama-2-13b"]
GIB = 1 << 30
BUDGET = 4 * GIB
print(f"scheduler policy: {SCHED}\n")

# ----------------------------------------------------------------------
# 1. Format -> capacity: equal page budget, different KV formats.
# ----------------------------------------------------------------------
print(f"Paged KV capacity at {BUDGET // GIB} GiB/replica ({arch.name}, 16-token pages)\n")
print(f"{'recipe':>10s} {'KB/token':>9s} {'capacity tok':>13s} {'peak running':>13s} "
      f"{'preempt':>8s} {'tok/s':>8s}")
burst = [Request(f"b{i}", prompt_len=512, max_new_tokens=32) for i in range(32)]
for name in ["bf16", "mxfp8", "a-mxfp4+", "mxfp4+", "mxfp4"]:
    recipe = get_recipe(name)
    cache = PagedKVCache.from_byte_budget(BUDGET, arch, recipe, block_tokens=16)
    result = ServingEngine(arch, recipe, kv_cache=cache, scheduler=SCHED).run(burst)
    print(f"{name:>10s} {kv_token_bytes(arch, recipe) / 1024:9.0f} "
          f"{cache.capacity_tokens:13d} {result.peak_running:13d} "
          f"{result.preemptions:8d} {result.throughput_tok_s:8.0f}")

print("""
The MX+ memory win as serving capacity: a 4.5-bit KV cache holds ~3.6x
the BF16 tokens, so the same GPU admits the whole 32-request burst where
BF16 thrashes (preemptions) at a third of the concurrency.""")

# ----------------------------------------------------------------------
# 2. Shared-prefix chat: system prompts stored once, prefill skipped.
# ----------------------------------------------------------------------
chat = chat_workload(32, n_prefixes=2, prefix_len=512, seed=0, rate_rps=40.0)
stripped = [Request(r.request_id, prompt_len=r.prompt_len,
                    max_new_tokens=r.max_new_tokens, arrival_s=r.arrival_s)
            for r in chat]
print("Shared-prefix chat (MXFP4+, 2 system prompts x 512 tokens):")
for label, reqs in (("with prefix cache", chat), ("without", stripped)):
    cache = PagedKVCache.from_byte_budget(BUDGET, arch, "mxfp4+", block_tokens=16)
    r = ServingEngine(arch, "mxfp4+", kv_cache=cache).run(reqs)
    print(f"  {label:>18s}: mean TTFT {r.mean_ttft_s * 1e3:6.1f} ms, "
          f"prefill {r.stages.prefill_s * 1e3:6.1f} ms, "
          f"{r.kv['prefix_hits']} hits / {r.kv['prefix_tokens_reused']} tokens reused")

# ----------------------------------------------------------------------
# 3. Traces round-trip as JSONL.
# ----------------------------------------------------------------------
with tempfile.TemporaryDirectory() as tmp:
    trace = Path(tmp) / "chat.jsonl"
    save_trace(trace, chat)
    assert load_trace(trace) == chat
    print(f"\nTrace replay: {len(chat)} requests -> {trace.name} "
          f"({trace.stat().st_size} bytes) -> identical requests back")

# ----------------------------------------------------------------------
# 4. Fleet: replicas x routers, goodput under SLO.
# ----------------------------------------------------------------------
reqs = make_workload(48, seed=1, arrival="bursty", rate_rps=400.0, burst_size=12)
print(f"\nFleet scaling (MXFP4+, least-kv-load, {SCHED}, bursty x48):")
for n in (1, 2, 4):
    fleet = ServingCluster(arch, "mxfp4+", n_replicas=n, router="least-kv-load",
                           page_budget_bytes=BUDGET, block_tokens=16,
                           scheduler=SCHED).run(reqs)
    print(f"  {n} replica(s): {fleet.throughput_tok_s:6.0f} tok/s, "
          f"mean TTFT {fleet.mean_ttft_s * 1e3:6.1f} ms, "
          f"goodput@(TTFT<500ms) {fleet.goodput_tok_s(ttft_slo_s=0.5):6.0f} tok/s")

print("\nRouters on the chat workload (4 replicas, 4 system prompts):")
chat4 = chat_workload(48, n_prefixes=4, prefix_len=512, seed=3, rate_rps=60.0)
for router in ("round-robin", "least-kv-load", "free-kv-at-arrival",
               "queue-depth", "prefix-affinity"):
    fleet = ServingCluster(arch, "mxfp4+", n_replicas=4, router=router,
                           page_budget_bytes=BUDGET, block_tokens=16,
                           scheduler=SCHED).run(chat4)
    hits = sum(r.kv["prefix_hits"] for r in fleet.replica_results)
    misses = sum(r.kv["prefix_misses"] for r in fleet.replica_results)
    print(f"  {router:>18s}: {hits:2d} prefix hits / {misses:2d} misses, "
          f"mean TTFT {fleet.mean_ttft_s * 1e3:5.1f} ms")

print("""
prefix-affinity pins each system prompt to one replica, so the fleet
stores it once and every follow-up turn hits the cached pages; the
queue-depth and free-kv-at-arrival routers decide from the replicas'
*live* state at each request's arrival instant.""")

# ----------------------------------------------------------------------
# 5. Schedulers and autoscaling on the bursty long-prompt stress case.
# ----------------------------------------------------------------------
stress = long_prompt_workload(32)
print("Scheduler policies (MXFP4+, 1 GiB pages, bursty long prompts x32):")
for sched in available_schedulers():
    fleet = ServingCluster(arch, "mxfp4+", n_replicas=1,
                           page_budget_bytes=1 * GIB, block_tokens=16,
                           scheduler=sched).run(stress)
    print(f"  {sched:>16s}: p99 TTFT {fleet.p99_ttft_s() * 1e3:7.1f} ms, "
          f"mean TPOT {fleet.mean_tpot_s * 1e3:5.2f} ms, "
          f"{fleet.throughput_tok_s:5.0f} tok/s")

policy = AutoscalePolicy(max_replicas=4, scale_up_queue_depth=3)
fleet = ServingCluster(arch, "mxfp4+", n_replicas=1,
                       page_budget_bytes=1 * GIB, block_tokens=16,
                       scheduler=SCHED, autoscale=policy).run(stress)
ups = sum(1 for e in fleet.autoscale_events if e[1] == "scale-up")
print(f"\nAutoscale (queue depth >= 3, max 4): grew to {fleet.n_replicas} "
      f"replicas ({ups} scale-ups), p99 TTFT {fleet.p99_ttft_s() * 1e3:.1f} ms, "
      f"{fleet.throughput_tok_s:.0f} tok/s")

print("""
chunked prefill co-schedules prompt chunks with decodes, so first tokens
and page turnover keep flowing through each burst — the p99 TTFT win
over prefill-first; decode-priority shows the opposite trade. Autoscaling
turns the same queue pressure into replicas instead.""")

# ----------------------------------------------------------------------
# 6. Observability: virtual-time traces, fleet metrics, Perfetto export.
# ----------------------------------------------------------------------
from repro.obs import (
    MetricsRegistry,
    Tracer,
    timeline_report,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics_csv,
)
from repro.serve import run_sharded

obs_reqs = make_workload(200, seed=0, arrival="poisson", rate_rps=100.0)


def _obs_cluster(tracer, metrics=None):
    return ServingCluster(arch, "mxfp4+", n_replicas=2, router="round-robin",
                          page_budget_bytes=BUDGET, block_tokens=16,
                          scheduler=SCHED, tracer=tracer, metrics=metrics)


# The step-time-cache hit-rate series reads this fleet's own step pricer,
# so the exported trace file is byte-identical across invocations.
traced = _obs_cluster(Tracer(), MetricsRegistry(interval_s=0.5))
traced.run(obs_reqs)
events = traced.tracer.events()

# The shard contract extends to traces: per-worker tracers merge into
# the exact event stream the single-process loop records.
sharded = _obs_cluster(Tracer())
run_sharded(sharded, obs_reqs, n_workers=2)
verdict = "reconciles with" if sharded.tracer.events() == events \
    else "DIVERGES from"
print(f"\nshard-merged trace {verdict} single-process "
      f"({len(events)} events, 2 workers)")

trace_out = Path(ARGS.trace) if ARGS.trace \
    else Path(tempfile.mkdtemp()) / "trace.json"
stats = validate_chrome_trace(
    write_chrome_trace(trace_out, events, traced.metrics))
print(f"Perfetto trace -> {trace_out} ({stats['n_events']} events, "
      f"{stats['complete_pairs']} spans, {stats['counters']} counter "
      f"samples) — load at https://ui.perfetto.dev")
if ARGS.metrics:
    write_metrics_csv(Path(ARGS.metrics), traced.metrics)
    print(f"metrics CSV -> {ARGS.metrics}")
print("\n" + timeline_report(events, max_requests=5))

# ----------------------------------------------------------------------
# 7. Disaggregated prefill/decode pools with KV migration (--disaggregate).
# ----------------------------------------------------------------------
if ARGS.disaggregate:
    print("\nDisaggregated serving (1 prefill + 1 decode replica, 1 GiB "
          "pages each,\nbursty long prompts x32) — KV pages migrate over "
          "the interconnect\nbetween the first token (prefill pool) and "
          "the rest of the decode:\n")
    print(f"{'recipe':>8s} {'link':>9s} {'p99 TTFT':>9s} {'TPOT':>8s} "
          f"{'tok/s':>6s} {'MB/req':>7s} {'stall ms':>9s}")
    for name in ("bf16", "mxfp4+"):
        for link in ("100gbe", "pcie5", "nvlink4", "infinite"):
            fleet = ServingCluster(
                ARCHS["llama-2-13b"], name, n_prefill=1, n_decode=1,
                page_budget_bytes=1 * GIB, block_tokens=16,
                scheduler=SCHED, kv_transfer=link,
            ).run(stress)
            print(f"{name:>8s} {link:>9s} {fleet.p99_ttft_s() * 1e3:7.1f}ms "
                  f"{fleet.mean_tpot_s * 1e3:6.2f}ms "
                  f"{fleet.throughput_tok_s:6.0f} "
                  f"{fleet.transfer_bytes_per_request / 1e6:7.1f} "
                  f"{fleet.transfer_stall_s_total * 1e3:9.1f}")

    print("""
TTFT never moves with the link: the first token is produced in the
prefill pool before any migration. The bytes column is where MX+ pays
off twice — a 4.5-bit KV crosses the interconnect with ~3.6x fewer
bytes per request than BF16 (benchmarks/test_disagg_serving.py asserts
the gap; the interconnect presets live in serve.INTERCONNECTS:""")
    print("  " + ", ".join(
        f"{k} {v.bandwidth_gb_s:g} GB/s" for k, v in sorted(INTERCONNECTS.items())
    ) + ")")
