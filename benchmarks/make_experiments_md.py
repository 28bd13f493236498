"""Assemble docs/EXPERIMENTS.md from benchmarks/results/*.json.

The generated page has two parts: an index mapping every benchmark file
to its paper figure/table (with the command that regenerates it), and a
paper-vs-measured section per artifact. Regenerate after
``pytest benchmarks/ --benchmark-only``:

    python benchmarks/make_experiments_md.py

Every ``benchmarks/test_*.py`` must have an entry in ``BENCHMARK_INDEX``
— the script fails otherwise, so new benchmarks cannot silently miss
their documentation.
"""

from __future__ import annotations

import json
from pathlib import Path

HERE = Path(__file__).parent
RESULTS = HERE / "results"
OUT = Path(__file__).parents[1] / "docs" / "EXPERIMENTS.md"

#: benchmark file -> (paper anchor, what it reproduces)
BENCHMARK_INDEX: dict[str, tuple[str, str]] = {
    "test_fig02_bfp_variants.py": ("Figure 2", "perplexity across industry BFP variants"),
    "test_fig03_aw_mix.py": ("Figure 3", "quantizing only activations or only weights"),
    "test_fig04_blocks.py": ("Figure 4", "outlier heatmap + worked block examples"),
    "test_fig05_mse.py": ("Figure 5", "block-max share of quantization MSE"),
    "test_fig06_encoding.py": ("Figure 6", "MX vs MX+ binary encodings (bit-exact)"),
    "test_fig07_layout.py": ("Figure 7", "MX+ data layout and bits/element"),
    "test_fig11_exec_time.py": ("Figure 11", "software-integration execution time"),
    "test_fig12_hw_exec.py": ("Figure 12", "hardware-integration execution time"),
    "test_fig13_speedup_accuracy.py": ("Figure 13", "end-to-end speedup vs accuracy"),
    "test_fig14_topk.py": ("Figure 14", "top-k outlier promotion"),
    "test_tab02_tasks.py": ("Table 2", "zero-shot task accuracy"),
    "test_tab03_perplexity.py": ("Table 3", "perplexity across datasets/lengths"),
    "test_tab04_conversion.py": ("Table 4", "conversion-before-compute matmul time"),
    "test_tab05_area.py": ("Table 5", "area/power per Tensor Core"),
    "test_tab06_quant_time.py": ("Table 6", "quantization time"),
    "test_tab07_schemes.py": ("Table 7", "comparison with other quantization schemes"),
    "test_tab08_weight_only.py": ("Table 8", "weight-only quantization"),
    "test_tab09_vision.py": ("Table 9", "vision models, direct-cast + QAT"),
    "test_tab10_mxint.py": ("Table 10", "MX+ on integer microscaling formats"),
    "test_tab11_nvfp4.py": ("Table 11", "NVFP4 and NVFP4+"),
    "test_tab12_reorder.py": ("Table 12", "channel reordering"),
    "test_tab13_matrix.py": ("Table 13", "qualitative scheme comparison"),
    "test_ablations.py": ("Ablations", "MX++ offset, block size, flush rule, outlier scale"),
    "test_serving_engine.py": (
        "§7 serving", "request-level continuous batching vs the stage simulator"
    ),
    "test_serving_cluster.py": (
        "§7 serving", "paged-KV capacity, prefix caching, multi-replica cluster"
    ),
    "test_scheduler_policies.py": (
        "§7 serving",
        "chunked prefill vs prefill-first p99 TTFT, BF16 vs MX+ page budgets",
    ),
    "test_disagg_serving.py": (
        "§7 serving",
        "disaggregated prefill/decode pools: KV-migration bytes, MX+ vs BF16",
    ),
    "test_tune_frontier.py": (
        "beyond the paper",
        "autotuned per-layer mixed-precision recipe Pareto frontier",
    ),
    "test_bench_sweep.py": (
        "beyond the paper",
        "canonical sweep matrix: recipes x schedulers x fleets priced in $/Mtok",
    ),
    "test_encode_speed.py": (
        "infrastructure",
        "batched MX+ encode vs per-block reference (>=2x)",
    ),
    "test_event_loop.py": (
        "infrastructure",
        "event-loop req/s at 10k/100k/1M: heap loop >=5x pre-PR baseline, "
        "sharded bit-identical to single-process",
    ),
    "test_obs_overhead.py": (
        "infrastructure",
        "tracing overhead: untraced loop within 5% of the event-loop "
        "baseline, traced run bit-identical",
    ),
}


def benchmark_index_lines() -> list[str]:
    """The benchmark -> paper mapping table; fails on unmapped files."""
    files = sorted(p.name for p in HERE.glob("test_*.py"))
    missing = [f for f in files if f not in BENCHMARK_INDEX]
    if missing:
        raise SystemExit(
            f"benchmarks missing from BENCHMARK_INDEX in {__file__}: {missing}"
        )
    stale = [f for f in BENCHMARK_INDEX if f not in files]
    if stale:
        raise SystemExit(f"BENCHMARK_INDEX entries without files: {stale}")
    lines = [
        "## Benchmark index\n",
        "Each benchmark regenerates one paper artifact and asserts its",
        "shape. Regenerate any row with the command in its cell (from the",
        "repo root; results land in `benchmarks/results/*.json`).\n",
        "| Benchmark | Paper artifact | Reproduces | Regenerate |",
        "|---|---|---|---|",
    ]
    for f in files:
        anchor, what = BENCHMARK_INDEX[f]
        cmd = f"`PYTHONPATH=src python -m pytest benchmarks/{f} -q -s`"
        lines.append(f"| `benchmarks/{f}` | {anchor} | {what} | {cmd} |")
    lines.append("")
    return lines


def load(name: str):
    path = RESULTS / f"{name}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())


def f(x, nd=3):
    return f"{x:.{nd}f}" if isinstance(x, (int, float)) else str(x)


def section(lines, title, paper, measured_lines, verdict):
    lines.append(f"## {title}\n")
    lines.append(f"**Paper:** {paper}\n")
    lines.append("**Measured:**\n")
    lines.extend(measured_lines)
    lines.append(f"\n**Shape verdict:** {verdict}\n")


def main() -> None:
    L: list[str] = [
        "# EXPERIMENTS — paper vs. measured\n",
        "All experiments regenerate with `pytest benchmarks/ --benchmark-only -s`.",
        "Absolute values come from the scaled-down substrate (see",
        "[ARCHITECTURE.md](ARCHITECTURE.md)); the reproduced quantity is the",
        "*shape* of each result: orderings, rough ratios, and crossovers. Each",
        "benchmark asserts its shape, so a green benchmark suite certifies",
        "every claim below. This page is generated — edit",
        "`benchmarks/make_experiments_md.py`, not this file.\n",
    ]
    L.extend(benchmark_index_lines())

    fig2 = load("fig02_bfp_variants")
    if fig2:
        rows = []
        rows.append("| model | BF16 | MXFP8 | SMX9 | MSFP16 | MXFP6 | SMX6 | MSFP14 | MXFP4 | SMX4 | MSFP12 |")
        rows.append("|---|---|---|---|---|---|---|---|---|---|---|")
        for m, r in fig2.items():
            rows.append(
                f"| {m} | " + " | ".join(
                    f(r[k]) for k in ["baseline", "mxfp8", "smx9", "msfp16", "mxfp6", "smx6", "msfp14", "mxfp4", "smx4", "msfp12"]
                ) + " |"
            )
        section(
            L,
            "Figure 2 — perplexity across industry BFP variants",
            "high-bit variants ~= BF16; at moderate bits MXFP6 stays close while "
            "SMX6/MSFP14 begin to diverge; at low bits everything degrades and "
            "MXFP4 significantly outperforms SMX4 and MSFP12 (OPT/Llama blow up).",
            rows,
            "Reproduced for the high/moderate tiers and the MXFP4-vs-SMX4 ordering. "
            "Deviation: MSFP12 lands *better* than MXFP4 here — its block size of "
            "16 halves outlier blast radius at our 128-channel width, while the "
            "paper's 4096-channel models make MSFP12's 3-bit dynamic range fatal.",
        )

    fig3 = load("fig03_aw_mix")
    if fig3:
        rows = ["| model | BF16 | A-BF16/W-MXFP4 | A-MXFP4/W-BF16 | MXFP4 |", "|---|---|---|---|---|"]
        for m, r in fig3.items():
            rows.append(f"| {m} | {f(r['baseline'])} | {f(r['a:bf16,w:mxfp4'])} | {f(r['a:mxfp4,w:bf16'])} | {f(r['mxfp4'])} |")
        section(
            L,
            "Figure 3 — quantizing only A or only W",
            "W-only MXFP4 is a negligible perplexity hit; A-only degrades severely "
            "and explains nearly all of full-MXFP4's damage.",
            rows,
            "Reproduced exactly (W-only within ~2% of baseline on most models; "
            "A-only carries the collapse).",
        )

    fig4 = load("fig04_blocks")
    if fig4:
        section(
            L,
            "Figure 4 — outlier heatmap + sampled blocks",
            "activation outliers concentrate in a few channels; the printed "
            "upper block quantizes -9.84 -> -8.0 (MXFP4) with NBMs flushed to "
            "zero, -10.0 under MXFP6.",
            [
                f"- top channel mean magnitude {f(fig4['channel_mean_mag_top4'][0], 2)} vs median {f(fig4['channel_mean_mag_median'], 3)} (outlier channels {fig4['outlier_channels']})",
                f"- upper block MXFP4: {fig4['upper_block_mxfp4']}",
                f"- upper block MXFP6: {fig4['upper_block_mxfp6']}",
                f"- lower block MXFP4: {fig4['lower_block_mxfp4']}",
            ],
            "Worked example reproduced bit-exactly; channel-concentrated heatmap "
            "structure reproduced.",
        )

    fig5 = load("fig05_mse")
    if fig5:
        rows = [f"- {m}: BM share {f(r['bm_share'], 2)}, largest-error share {f(r['largest_error_share'], 2)}, BM==largest-error rate {f(r['bm_is_largest_error_rate'], 2)}" for m, r in fig5.items()]
        section(
            L,
            "Figure 5 — MSE decomposition",
            "BM elements contribute most of the quantization MSE (~75-95%), and "
            "the BM is usually the largest-error element.",
            rows,
            "Reproduced (BM share ~0.79 on both models).",
        )

    fig6 = load("fig06_encoding")
    if fig6:
        section(
            L,
            "Figure 6 — MX vs MX+ binary encodings",
            "MXFP4 encodes the BM as S=1,E=11,M=1 (-8.0); MXFP4+ repurposes the "
            "exponent field (SMMM) giving -10.0; shared scale unchanged at 2^1.",
            [
                f"- MXFP4 codes {fig6['mxfp4_codes']}, dequant {fig6['mxfp4_dequant']}",
                f"- MXFP4+ codes {fig6['mxfp4+_codes']}, dequant {fig6['mxfp4+_dequant']}",
                f"- shared exponent {fig6['shared_exp']}, BM index {fig6['bm_index']}",
            ],
            "Reproduced bit-exactly.",
        )

    fig7 = load("fig07_layout")
    if fig7:
        rows = [f"- {k}: {f(v['measured_bits_per_elem'], 2)} bits/elem measured (base {f(v['base_bits_per_elem'], 2)}), BM mantissa {v['bm_effective_mantissa_bits']} bits" for k, v in fig7.items()]
        section(
            L,
            "Figure 7 — MX+ data layout",
            "one extra byte per 32-element block (5-bit BM index + 3 reserved): "
            "+0.25 average bits/element; BMs effectively E2M3/E2M5/E4M7.",
            rows,
            "Reproduced exactly via byte-level packing.",
        )

    f11a = load("fig11a_breakdown")
    f11b = load("fig11b_output_sweep")
    if f11a and f11b:
        rows = [f"- {k}: prefill {f(v['prefill_ms'], 1)} ms, decode {f(v['decode_ms'], 1)} ms" for k, v in f11a.items()]
        rows += [f"- output {k}: A-MXFP4+ {f(v['a-mxfp4+'])}, MXFP8 {f(v['mxfp8'])} (normalized to MXFP4)" for k, v in f11b.items()]
        section(
            L,
            "Figure 11 — software-integration execution time",
            "decode dominates and is memory-bound: A-MXFP4+ adds 6.71% there and "
            "1.54x in prefill; overall <=1.13x vs MXFP4, while MXFP8 is up to 1.85x; "
            "the gap narrows as output length grows.",
            rows,
            "Reproduced: prefill ~1.50x, decode ~7%, total ratio shrinking with "
            "output length, MXFP8 far slower throughout.",
        )

    f12 = load("fig12_hw_exec")
    if f12:
        rows = [f"- {k}: {f(v, 4)}x" for k, v in f12.items()]
        section(
            L,
            "Figure 12 — hardware-integration execution time",
            "MXFP4+ with the Tensor-Core BCU runs 0.38% slower than MXFP4 on "
            "average (BCU overlaps the adder tree).",
            rows,
            "Reproduced (0.38% by construction of the calibrated issue-overhead "
            "model; the functional datapath is verified bit-exact in tests).",
        )

    f13 = load("fig13_speedup_accuracy")
    if f13:
        rows = [
            f"- {k}: {f(v['speedup_out8'], 2)}x (out 8), {f(v['speedup_out64'], 2)}x (out 64), avg accuracy {f(v['avg_accuracy'], 1)}%"
            for k, v in f13.items()
        ]
        section(
            L,
            "Figure 13 — end-to-end speedup vs accuracy",
            "MXFP4+ (HW) reaches ~3.3x/2.7x over BF16 with ~20 points more "
            "accuracy than MXFP4 costs; A-MXFP4+ (SW) lands near MXFP4 speed; "
            "A8W4 stays near MXFP8 speed due to the single CUTLASS tile shape.",
            rows,
            "Reproduced: MXFP4+ ~ MXFP4 speed with higher accuracy; A-MXFP4+ "
            "between MXFP4 and MXFP8; A8W4 degraded by the M=128 tile padding.",
        )

    f14 = load("fig14_topk")
    if f14:
        rows = []
        for m, payload in f14.items():
            ppl = payload["perplexity"]
            cov = payload["outlier_coverage"]
            rows.append(
                f"- {m}: ppl none {f(ppl['none(mxfp4)'])} / top1 {f(ppl['top1'])} / top2 {f(ppl['top2'])} / top4 {f(ppl['top4'])}; coverage top1 {f(cov['top1'], 2)} -> top2 {f(cov['top2'], 2)}"
            )
        section(
            L,
            "Figure 14 — top-k outlier promotion",
            "tracking up to two outliers captures most of them; further k gives "
            "diminishing returns, motivating channel reordering over multi-index "
            "tracking.",
            rows,
            "Reproduced: top-1 takes most of the gain, top-2 covers ~100% of "
            "outliers here (two co-located PE channels per block pair), k>2 flat.",
        )

    t2 = load("tab02_tasks")
    if t2:
        rows = []
        for m, grid in t2.items():
            avg = {fmt: sum(v.values()) / len(v) for fmt, v in grid.items()}
            rows.append(
                f"- {m}: avg accuracy BF16 {f(avg['baseline'], 1)} / MXFP8+ {f(avg['mxfp8+'], 1)} / MXFP6+ {f(avg['mxfp6+'], 1)} / MXFP4++ {f(avg['mxfp4++'], 1)} / MXFP4+ {f(avg['mxfp4+'], 1)} / A-MXFP4+ {f(avg['a-mxfp4+'], 1)} / MXFP4 {f(avg['mxfp4'], 1)}"
            )
        section(
            L,
            "Table 2 — zero-shot task accuracy",
            "MX+ improves its MX counterpart at every width; the MXFP4 -> MXFP4+ "
            "gap is the largest (up to +42 points); A-MXFP4+ still beats MXFP4.",
            rows,
            "Reproduced in ordering (MXFP4+ >= MXFP4, A-MXFP4+ between, high-bit "
            "~ baseline); gap magnitudes are smaller at this model scale.",
        )

    t3 = load("tab03_perplexity")
    if t3:
        rows = []
        for m, grids in t3.items():
            r = grids["wiki2-sim@128"]
            rows.append(
                f"- {m} (wiki2@128): BF16 {f(r['baseline'])} / 8+ {f(r['mxfp8+'])} / 8 {f(r['mxfp8'])} / 6+ {f(r['mxfp6+'])} / 6 {f(r['mxfp6'])} / 4++ {f(r['mxfp4++'])} / 4+ {f(r['mxfp4+'])} / A-4+ {f(r['a-mxfp4+'])} / 4 {f(r['mxfp4'])}"
            )
        section(
            L,
            "Table 3 — perplexity (2 datasets x 2 sequence lengths)",
            "MX+ and MX++ always achieve lower perplexity than the original MX "
            "formats across sequence lengths and datasets.",
            rows,
            "Reproduced: the `always <=` property is asserted per cell across "
            "all 24 (model, dataset, length) combinations.",
        )

    t4 = load("tab04_conversion")
    if t4:
        rows = [f"- {k}: " + ", ".join(f"M={m}: {f(v)}" for m, v in row.items()) for k, row in t4.items()]
        section(
            L,
            "Table 4 — conversion-before-compute matmul time",
            "MXFP4+ 1.07-1.08x at small M, 1.01-1.04x at large M; MXFP4++ "
            "slightly higher.",
            rows,
            "Reproduced (1.07/1.09 small-M, amortizing to ~1.00 at large M).",
        )

    t5 = load("tab05_area")
    if t5:
        rows = [f"- {k}: {f(v.get('area_mm2', 0), 4)} mm^2, {f(v.get('power_mw', 0), 2)} mW" for k, v in t5.items()]
        section(
            L,
            "Table 5 — area/power per Tensor Core",
            "FSU 0.004 mm^2 / 0.59 mW; BM Detector 0.004 / 2.86; BCU 0.012 / "
            "8.66; total 0.020 mm^2, 12.11 mW at 28nm.",
            rows,
            "Reproduced exactly (component model calibrated to the paper's "
            "synthesis results; composition and scaling are modelled).",
        )

    t6 = load("tab06_quant_time")
    if t6:
        rows = [f"- {k} tokens: mxfp4+ {f(v['mxfp4+'], 2)}, mxfp4++ {f(v['mxfp4++'], 2)}" for k, v in t6.items()]
        section(
            L,
            "Table 6 — quantization time",
            "MXFP4+ 1.00-1.05x of MXFP4; MXFP4++ 1.04-1.15x.",
            rows,
            "Shape reproduced on our numpy kernels: MXFP4+ stays within "
            "~1.5x of MXFP4 (near parity at longer inputs; short-input "
            "ratios carry the most wall-clock jitter and can land on either "
            "side of 1.0 on shared CPUs); MXFP4++ is single pass like the "
            "paper's fused CUDA kernel (one extra masked max, NBMs rounded "
            "once against the final scale) but pays more than its "
            "1.04-1.15x, because numpy spends a whole-tensor pass on that "
            "reduction.",
        )

    t7 = load("tab07_schemes")
    if t7:
        rows = []
        for m, r in t7.items():
            rows.append(
                f"- {m}: SMQ-INT4 {f(r['smq-int4'])} / QuaRot-INT4 {f(r['quarot-int4'])} / Atom {f(r['atom'])} / ANT {f(r['ant'])} / MX-ANT {f(r['mx-ant'])} / OliVe {f(r['olive'])} / MX-OliVe {f(r['mx-olive'])} / Tender {f(r['tender'])} / MX-Tender {f(r['mx-tender'])} / LLM-FP4 {f(r['llm-fp4'])} / MXFP4+ {f(r['mxfp4+'])} / MXFP4++ {f(r['mxfp4++'])}"
            )
        section(
            L,
            "Table 7 — comparison with other quantization schemes",
            "SMQ fails at 4-bit; QuaRot leaves residual outliers; Atom is "
            "competitive; ANT/OliVe/Tender suffer at coarse granularity and "
            "improve as MX-* variants; LLM-FP4 trails MXFP4; MX+ wins overall.",
            rows,
            "Reproduced: per-tensor schemes trail their MX-* group-32 variants; "
            "MXFP4+/++ lead on the outlier-heavy models; LLM-FP4 trails MXFP4+. "
            "Deviation: our SMQ/Atom rows are relatively stronger than the "
            "paper's because the synthetic outliers are perfectly "
            "channel-stationary — the ideal case for per-channel migration.",
        )

    t8 = load("tab08_weight_only")
    if t8:
        rows = [
            f"- {m}: AWQ-INT4 {f(r['awq-int4'])} / AWQ-MXFP4 {f(r['awq-mxfp4'])} / AWQ-MXFP4+ {f(r['awq-mxfp4+'])} / A8-W-MXFP4 {f(r['a8-w-mxfp4'])} / A8-W-MXFP4+ {f(r['a8-w-mxfp4+'])}"
            for m, r in t8.items()
        ]
        section(
            L,
            "Table 8 — weight-only quantization",
            "AWQ+MXFP4 degrades vs AWQ-INT4 but AWQ+MXFP4+ recovers (scaled "
            "salient weights become BMs); MXFP4+ weights beat MXFP4 under "
            "MXFP8 activations.",
            rows,
            "Reproduced: both MXFP4+ columns improve on their MXFP4 versions.",
        )

    t9 = load("tab09_vision")
    if t9:
        rows = [
            f"- {m}: FP32 {f(r['fp32'], 1)} / direct MXFP4 {f(r['direct_mxfp4'], 1)} / direct MXFP4+ {f(r['direct_mxfp4+'], 1)} / QAT MXFP4 {f(r['qat_mxfp4'], 1)} / QAT MXFP4+ {f(r['qat_mxfp4+'], 1)}"
            for m, r in t9.items()
        ]
        section(
            L,
            "Table 9 — vision models (direct-cast + QA fine-tuning)",
            "MXFP4+ beats MXFP4 under direct-cast (up to +13 points on CNNs); "
            "QA fine-tuning narrows the gap.",
            rows,
            "Reproduced: MXFP4+ >= MXFP4 in direct-cast; QAT recovers accuracy "
            "and narrows the format gap.",
        )

    t10 = load("tab10_mxint")
    if t10:
        rows = [
            f"- {m}: MXINT8+ {f(r['mxint8+'])} / MXINT8 {f(r['mxint8'])} / MXINT4+ {f(r['mxint4+'])} / MXINT4 {f(r['mxint4'])}"
            for m, r in t10.items()
        ]
        section(
            L,
            "Table 10 — MX+ on integer microscaling formats",
            "the extra BM fraction bit barely moves MXINT8 but clearly helps "
            "the hypothetical MXINT4.",
            rows,
            "Reproduced (MXINT8 delta <1%; MXINT4+ visibly better than MXINT4).",
        )

    t11 = load("tab11_nvfp4")
    if t11:
        rows = []
        for m, payload in t11.items():
            acc = payload["accuracy"]
            avg4 = sum(acc["nvfp4"].values()) / len(acc["nvfp4"])
            avg4p = sum(acc["nvfp4+"].values()) / len(acc["nvfp4+"])
            ppl = payload["perplexity"]
            rows.append(
                f"- {m}: NVFP4 acc {f(avg4, 1)} -> NVFP4+ {f(avg4p, 1)}; ppl NVFP4 {f(ppl['nvfp4'])} -> NVFP4+ {f(ppl['nvfp4+'])} (MXFP4+ {f(ppl['mxfp4+'])})"
            )
        section(
            L,
            "Table 11 — NVFP4 and NVFP4+",
            "NVFP4+ (extra BM precision, 4-bit index per 16-block) beats NVFP4; "
            "MXFP4+/++ compare favourably with NVFP4.",
            rows,
            "Reproduced: NVFP4+ >= NVFP4; NVFP4 sits between MXFP4 and MXFP4+.",
        )

    t12 = load("tab12_reorder")
    if t12:
        rows = []
        for m, payload in t12.items():
            base = sum(payload["mxfp4+"].values()) / len(payload["mxfp4+"])
            re = sum(payload["reorder"].values()) / len(payload["reorder"])
            rows.append(f"- {m}: MXFP4+ avg {f(base, 1)} -> with reordering {f(re, 1)}")
        section(
            L,
            "Table 12 — channel reordering",
            "reordering the query/key channels raises MXFP4+ accuracy by "
            "scattering co-located outliers so each becomes a BM.",
            rows,
            "Mechanism reproduced (multi-outlier block rate collapses; exact "
            "matmul invariance verified); accuracy deltas are small at this "
            "scale because the stand-ins have few outlier channel pairs.",
        )

    t13 = load("tab13_matrix")
    if t13:
        rows = [f"- {k}: compute-efficient {v['compute_efficiency']}, standard {v['standard_general']}, high-accuracy {v['high_accuracy']}" for k, v in t13.items()]
        section(
            L,
            "Table 13 — qualitative scheme comparison",
            "only MX+ combines compute efficiency, standard formats, and high "
            "accuracy.",
            rows,
            "Reproduced by construction (encodes the paper's claims; the "
            "accuracy column is corroborated by Table 7's measurements).",
        )

    se = load("serving_engine")
    if se:
        rows = [
            f"- {k}: {f(v['throughput_tok_s'], 0)} tok/s, TTFT {f(v['mean_ttft_ms'], 1)} ms, "
            f"TPOT {f(v['mean_tpot_ms'], 2)} ms, {f(v['speedup_vs_bf16'], 2)}x vs BF16"
            for k, v in se.items()
        ]
        section(
            L,
            "§7 serving — request-level engine (continuous batching)",
            "serving-level speedups mirror the Figure 13 stage-level story: "
            "MXFP4-family ~3x over BF16, A-MXFP4+ pays its extra sparse MMA "
            "mostly in TTFT (prefill), hardware MX+ tracks MXFP4.",
            rows,
            "Reproduced: ordering MXFP4 > MXFP8 > BF16 asserted; uniform "
            "batches reconcile exactly with `simulate_inference`.",
        )

    sc = load("serving_cluster")
    if sc:
        cap = sc["capacity"]
        rows = [
            f"- {k}: {f(v['kv_bytes_per_token'] / 1024, 0)} KB/token, capacity "
            f"{v['capacity_tokens']} tok, peak concurrency {v['peak_running']}, "
            f"{f(v['throughput_tok_s'], 0)} tok/s"
            for k, v in cap.items()
        ]
        pc = sc["prefix_caching"]
        rows.append(
            f"- prefix caching (MXFP4+ chat): TTFT "
            f"{f(pc['shared-prefix']['mean_ttft_ms'], 1)} ms with sharing vs "
            f"{f(pc['no-sharing']['mean_ttft_ms'], 1)} ms without "
            f"({pc['shared-prefix']['prefix_hits']} hits, "
            f"{pc['shared-prefix']['prefix_tokens_reused']} tokens reused)"
        )
        rows.append(
            "- routers (4 replicas, 4 system prompts): "
            + "; ".join(
                f"{k} {v['prefix_hits']} hits/{v['prefix_misses']} misses"
                for k, v in sc["routers"].items()
            )
        )
        rows.append(
            "- scaling: "
            + ", ".join(
                f"{k} {f(v['throughput_tok_s'], 0)} tok/s"
                for k, v in sc["scaling"].items()
            )
        )
        section(
            L,
            "§7 serving — paged-KV cluster at equal page budget "
            f"({sc['page_budget_gib']} GiB/replica)",
            "the MX+ KV footprint (4.5 vs 16 bits/elem) becomes serving "
            "capacity: more admissible concurrent requests at the same GPU "
            "memory, fewer preemptions, higher throughput; shared system "
            "prompts stored once cut TTFT; fleet throughput scales with "
            "replicas.",
            rows,
            "Reproduced: MX+ recipes hold >3x BF16's tokens and admit "
            "strictly more concurrent requests at equal page budget; prefix "
            "caching cuts mean TTFT ~2x on the chat workload; the 1-replica "
            "cluster reconciles exactly with the single engine.",
        )

    sp = load("scheduler_policies")
    if sp:
        rows = []
        for recipe, policies in sp["policies"].items():
            for sched, v in policies.items():
                rows.append(
                    f"- {recipe} / {sched}: p99 TTFT {f(v['p99_ttft_ms'], 1)} ms, "
                    f"mean TTFT {f(v['mean_ttft_ms'], 1)} ms, TPOT "
                    f"{f(v['mean_tpot_ms'], 2)} ms, {f(v['throughput_tok_s'], 0)} tok/s"
                )
        rows.append(
            "- chunking win (p99 TTFT, prefill-first / chunked): "
            + ", ".join(
                f"{k} {f(v, 3)}x" for k, v in sp["chunking_win_p99"].items()
            )
        )
        section(
            L,
            "§7 serving — scheduler policies on bursty long prompts "
            f"({sp['page_budget_gib']} GiB pages)",
            "Sarathi-style chunked prefill removes prefill head-of-line "
            "blocking: decodes and KV page turnover keep flowing during "
            "prompt processing, so tail TTFT improves at equal page budget; "
            "decode-priority brackets the other extreme (best TPOT, worst "
            "queueing tail).",
            rows,
            "Reproduced: chunked prefill strictly improves p99 TTFT and "
            "throughput for both formats; the win is larger for MX+ because "
            "its 4.5-bit KV pages keep a whole decode batch resident where "
            "BF16 degenerates toward serial service.",
        )

    dg = load("disagg_serving")
    if dg:
        rows = []
        for recipe, links in dg["disagg"].items():
            for link, v in links.items():
                rows.append(
                    f"- {recipe} / {link}: p99 TTFT {f(v['p99_ttft_ms'], 1)} ms, "
                    f"TPOT {f(v['mean_tpot_ms'], 2)} ms, goodput "
                    f"{f(v['goodput_tok_s'], 0)} tok/s, "
                    f"{f(v['transfer_bytes_per_request'] / 1e6, 1)} MB/request "
                    f"migrated, link stall {f(v['transfer_stall_ms_total'], 1)} ms"
                )
        rows.append(
            "- unified 2-replica baseline p99 TTFT: "
            + ", ".join(
                f"{k} {f(v['p99_ttft_ms'], 1)} ms"
                for k, v in dg["unified_2_replicas"].items()
            )
        )
        rows.append(
            f"- infinite-bandwidth reconciliation vs unified cluster: max abs "
            f"err {f(dg['reconciliation']['max_abs_err_s'], 3)} s"
        )
        section(
            L,
            "§7 serving — disaggregated prefill/decode pools "
            f"({dg['page_budget_gib']} GiB pages, "
            f"{dg['pools']['prefill']} prefill + {dg['pools']['decode']} decode)",
            "DistServe/Splitwise-style disaggregation isolates TTFT from decode "
            "interference at the price of migrating each request's KV across an "
            "interconnect; MX+'s ~4.5-bit KV shrinks exactly those migration "
            "bytes (~3.6x less than BF16 per request).",
            rows,
            "Reproduced: TTFT is bit-identical across all interconnects (first "
            "token is produced in the prefill pool before any migration) and "
            "its tail beats the colocated 2-replica baseline for both formats; "
            "MX+ migrates >3x fewer bytes/request and keeps its goodput lead "
            "at every bandwidth; the infinite-bandwidth run reconciles exactly "
            "with the unified cluster. Nuance kept honest by the artifact: "
            "with a contended decode pool, a slower link throttles admissions "
            "and *reduces* preemption thrash, so TPOT is not monotone in "
            "bandwidth — the serialized link-stall seconds strictly are.",
        )

    tf = load("tune_frontier")
    if tf:
        rows = []
        for p in tf["frontier"]["points"]:
            recipe = p["recipe"]
            rows.append(
                f"- `{recipe['name']}` ({p['origin']}): ppl {f(p['perplexity'])}, "
                f"{f(p['tokens_per_s'], 0)} tok/s"
            )
        winner = tf.get("winner")
        base = tf["uniform"].get(tf.get("baseline", "mxfp4"), {})
        if winner and base:
            rows.append(
                f"- **winner vs uniform {tf['baseline']}**: ppl "
                f"{f(winner['perplexity'])} < {f(base['perplexity'])}, "
                f"{f(winner['tokens_per_s'], 0)} > {f(base['tokens_per_s'], 0)} tok/s"
            )
        section(
            L,
            "Beyond the paper — autotuned recipe Pareto frontier",
            "NxFP (arXiv:2412.19821) and MXFP8 pre-training recipes "
            "(arXiv:2506.08027) show searched per-tensor/per-layer format "
            "assignments beat uniform casts; repro.tune searches the MX+ "
            "design space per layer/role.",
            rows,
            "A searched mixed MX+/MXFP recipe Pareto-dominates uniform MXFP4 "
            "(strictly lower perplexity, strictly higher simulated serving "
            "tokens/s); the artifact reproduces byte-identically from seed 0.",
        )

    bs = load("BENCH_sweep")
    if bs:
        rows = []
        for cell in bs["cells"].values():
            a, r = cell["axes"], cell["result"]
            tag = ""
            if cell is bs["cells"].get(bs.get("winner")):
                tag = " **(winner)**"
            elif cell is bs["cells"].get(bs.get("baseline")):
                tag = " (baseline)"
            rows.append(
                f"- {a['recipe']} / {a['scheduler']} / {a['fleet']} / "
                f"{a['interconnect']}{tag}: "
                f"{f(r['pricing']['dollars_per_mtok'], 4)} $/Mtok, goodput "
                f"{f(r['goodput_tok_s'], 0)} tok/s, p99 TTFT "
                f"{f(r['p99_ttft_ms'], 1)} ms, SLO att. {f(r['slo_attainment'], 2)}"
            )
        perf = bs["perf"]
        rows.append(
            f"- wall clock (machine-dependent, excluded from identity checks): "
            f"{f(perf['simulated_requests'], 0)} simulated requests at "
            f"{f(perf['requests_per_wall_s'], 1)} req/s of real time"
        )
        section(
            L,
            "Beyond the paper — canonical sweep matrix ($/Mtok at SLO)",
            "MLPerf-style declarative sweeps (recipes x schedulers x fleet "
            "shapes x interconnects) turn the per-axis serving stories into "
            "one priced comparison: every cell's $/Mtok derives from "
            "CostModel x the committed GPU price table, never hand-entered.",
            rows,
            "The MX+ recipe is cheaper than BF16 in every matched cell "
            "(~10x at this model scale) and wins the sweep at the SLO bar; "
            "disaggregated cells record their KV-migration bytes (~3.6x "
            "smaller for MX+); the deterministic sections regenerate "
            "byte-identically from seed 0 and are gated by "
            "`python -m repro.bench freshness` in CI.",
        )

    es = load("encode_speed")
    if es:
        section(
            L,
            "Infrastructure — batched MX+ encode speed",
            "the tuner's sensitivity/search loop re-encodes every matmul "
            "operand; the encode path must stay whole-tensor vectorized.",
            [
                f"- 4096x4096 MXFP4+ encode: batched {f(es['batched_s'])} s vs "
                f"per-block reference {f(es['reference_s_extrapolated'])} s "
                f"(extrapolated) -> {f(es['speedup'], 1)}x",
            ],
            "Asserted >=2x; the reference implementation doubles as the "
            "property-test oracle for the batched encoder.",
        )

    ob = load("BENCH_obs_overhead")
    if ob:
        off, on = ob["tracing_off"], ob["tracing_on"]
        section(
            L,
            "Infrastructure — tracing overhead",
            "observability must be free when off and must not perturb when "
            "on: every emit site in the serving stack is a single "
            "nullable-tracer check.",
            [
                f"- tracing off: {f(off['rps'], 0)} req/s at 100k requests, "
                f"{f(off['overhead_pct_vs_baseline'], 2)}% below the "
                f"committed event-loop baseline "
                f"({f(ob['baseline_single_rps_100k'], 0)} req/s; gate <= "
                f"{f(ob['max_off_overhead_pct'], 0)}%)",
                f"- tracing on (capped flight recorder + throttled "
                f"metrics): {f(on['rps'], 0)} req/s "
                f"({f(on['slowdown_x_vs_off'], 2)}x vs off); "
                f"{on['events_appended']} events appended, newest "
                f"{on['events_kept']} kept by the ring",
                f"- traced FleetResult bit-identical to untraced: "
                f"{ob['fingerprint_identical']}",
            ],
            "Both gates assert before the artifact saves: the off-path "
            "stays within 5% of the committed rate and tracing never "
            "perturbs the simulation.",
        )

    for name, title in [
        ("ablation_mxpp_offset", "Ablation — MX++'s +1 offset"),
        ("ablation_block_size", "Ablation — block size sweep"),
        ("ablation_flush", "Ablation — flush-to-zero rule"),
        ("ablation_outlier_scale", "Ablation — outlier scale sweep"),
    ]:
        data = load(name)
        if data:
            L.append(f"## {title}\n")
            L.append("```json")
            L.append(json.dumps(data, indent=2)[:1200])
            L.append("```\n")

    OUT.write_text("\n".join(L))
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
