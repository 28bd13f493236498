"""Per-layer metrics and the "where did the time go" table of a traced run.

All values are per unit of work (one eval cycle, one codec cycle, one
fleet run), so runs that fit a different number of units in their time
window stay comparable.
"""

from __future__ import annotations


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, units, untraced_walls, traced_walls) -> dict:
    """Every per-layer metric named in ``BENCHMARK.json`` (values only).

    The overhead compares the fastest traced unit with the fastest
    untraced one; the runner alternates them after a warm-up unit.
    """
    k = len(units)
    traced_wall = sum(traced_walls)
    c = tracer.counts

    def calls(name):
        return tracer.agg(name)[0] / k

    def total(*names):
        return sum(tracer.agg(n)[1] for n in names) / k

    def self_s(name):
        return tracer.agg(name)[2] / k

    sim = units[0].counts
    quant_roles = ("act", "weight", "head", "kv")
    out = {
        "core.elem.quantize.calls": calls("core.elem.quantize"),
        "core.elem.quantize.s": total("core.elem.quantize"),
        "core.qdq.calls": calls("core.qdq"),
        "core.qdq.s": total("core.qdq"),
        "core.qdq.self_s": self_s("core.qdq"),
        "core.qdq.melem": c["core.qdq.melem"] / k,
        "core.encode.s": total("core.encode"),
        "core.decode.s": total("core.decode"),
        "core.layout.pack.s": total("core.layout.pack"),
        "core.layout.unpack.s": total("core.layout.unpack"),
        "core.layout.bytes": c["core.layout.bytes"] / k,
        "nn.quantize.act.calls": calls("nn.quantize.act"),
        "nn.quantize.weight.calls": c["nn.quantize.weight.calls"] / k,
        "nn.quantize.kv.calls": calls("nn.quantize.kv"),
        "nn.quantize.head.calls": c["nn.quantize.head.calls"] / k,
        "nn.quantize.s": total(*(f"nn.quantize.{r}" for r in quant_roles)),
        "nn.quantize.weight_requant_ratio": _ratio(
            c["nn.quantize.weight_requant"], c["nn.quantize.weight_qdq"]
        ),
        "nn.bf16.calls": calls("nn.bf16"),
        "nn.bf16.s": total("nn.bf16"),
        "nn.matmul.calls": calls("nn.matmul"),
        "nn.matmul.s": total("nn.matmul"),
        "nn.matmul.gflop": c["nn.matmul.gflop"] / k,
        "nn.forward.calls": calls("nn.forward"),
        "nn.forward.self_s": self_s("nn.forward"),
        "eval.score.s": total("eval.score"),
        "eval.ppl.s": total("eval.ppl"),
        "eval.tokens": c["eval.tokens"] / k,
        "serve.run.s": total("serve.run"),
        "serve.loop.self_s": self_s("serve.run"),
        "serve.route.calls": calls("serve.route"),
        "serve.route.s": total("serve.route"),
        "serve.step.calls": calls("serve.step"),
        "serve.step.self_s": self_s("serve.step"),
        "serve.transfer.calls": calls("serve.transfer"),
        "serve.transfer.s": total("serve.transfer"),
        "serve.plan.calls": calls("serve.plan"),
        "serve.plan.s": total("serve.plan"),
        "serve.plan.rows_mean": _ratio(c["serve.plan.rows"], tracer.agg("serve.plan")[0]),
        "gpu.step_time.calls": calls("gpu.step_time"),
        "gpu.step_time.s": total("gpu.step_time"),
        "gpu.step_time.hit_ratio": _ratio(
            sim.get("step_cache_hits", 0), sim.get("step_cache_lookups", 0)
        ),
        "serve.kv.append.calls": calls("serve.kv.append"),
        "serve.kv.alloc.calls": calls("serve.kv.alloc"),
        "serve.kv.free.calls": calls("serve.kv.free"),
        "serve.kv.s": total("serve.kv.append", "serve.kv.alloc", "serve.kv.free"),
        "serve.kv.blocks_per_append": _ratio(
            c["serve.kv.append_blocks"], tracer.agg("serve.kv.append")[0]
        ),
        "serve.kv.prefix_hit_ratio": _ratio(
            sim.get("prefix_hits", 0),
            sim.get("prefix_hits", 0) + sim.get("prefix_misses", 0),
        ),
        "sim.steps": sim.get("steps", 0),
        "sim.decode_rows": c["sim.decode_rows"] / k,
        "sim.prefill_tokens": c["sim.prefill_tokens"] / k,
        "sim.preemptions": sim.get("preemptions", 0),
        "sim.transfers": sim.get("transfers", 0),
        "sim.transfer_bytes": sim.get("transfer_bytes", 0),
        "trace.overhead": _ratio(min(traced_walls), min(untraced_walls)),
        "trace.wall_s": traced_wall / k,
        "trace.unattributed_s": (traced_wall - tracer.root_seconds()) / k,
    }
    return out


#: Count ratios shown beside a layer in the markdown table.
_RATIOS = {
    "core.qdq": lambda m: f"{m['core.qdq.melem']:.3f} Melem/unit",
    "core.layout.pack": lambda m: f"{m['core.layout.bytes'] / 1e6:.3f} MB packed/unit",
    "nn.quantize.weight": lambda m: f"requant ratio {m['nn.quantize.weight_requant_ratio']:.3f}",
    "nn.matmul": lambda m: f"{m['nn.matmul.gflop']:.3f} GFLOP/unit",
    "nn.forward": lambda m: f"{m['eval.tokens']:.0f} token positions/unit",
    "serve.plan": lambda m: f"{m['serve.plan.rows_mean']:.2f} rows/plan",
    "gpu.step_time": lambda m: f"memo hit ratio {m['gpu.step_time.hit_ratio']:.4f}",
    "serve.kv.append": lambda m: (
        f"{m['serve.kv.blocks_per_append']:.4f} pages/append, "
        f"prefix hit ratio {m['serve.kv.prefix_hit_ratio']:.4f}"
    ),
}


def where_table(workload: str, tracer, metrics: dict, n_units: int) -> str:
    """Markdown "where did the time go" table, one row per traced layer."""
    wall = metrics["trace.wall_s"]
    rows = []
    for nid, name in enumerate(tracer.names):
        n_calls = tracer.calls[nid]
        if not n_calls:
            continue
        tot, own = tracer.total[nid] / n_units, tracer.self_s[nid] / n_units
        note = _RATIOS.get(name, lambda m: "")(metrics)
        rows.append((own, name, n_calls / n_units, tot, note))
    rows.sort(reverse=True)
    lines = [
        f"## {workload}",
        "",
        f"Per unit of work, averaged over {n_units} traced unit(s); "
        f"traced wall {wall:.4f} s/unit.",
        "",
        "| layer | calls | total s | self s | share of wall | count ratios |",
        "|---|---:|---:|---:|---:|---|",
    ]
    for own, name, n_calls, tot, note in rows:
        lines.append(
            f"| `{name}` | {n_calls:.0f} | {tot:.4f} | {own:.4f} | {own / wall:.1%} | {note} |"
        )
    rest = metrics["trace.unattributed_s"]
    lines += [
        f"| (unattributed) | | {rest:.4f} | {rest:.4f} | {rest / wall:.1%} | |",
        "",
        f"Tracing overhead: {metrics['trace.overhead']:.3f}x "
        "(fastest traced unit / fastest untraced unit). "
        f"Spans recorded: {len(tracer.span_name)}, dropped past the cap: {tracer.dropped}.",
        "",
    ]
    return "\n".join(lines)
