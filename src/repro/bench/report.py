"""Sweep aggregation + markdown rendering (the one table code path).

Two jobs live here:

* :func:`aggregate` folds a sweep directory's manifests into one JSON
  payload — the shape committed as ``benchmarks/results/BENCH_sweep.json``.
  Everything under ``cells``/``winner``/``pareto`` is a pure function of
  the matrix (byte-identical across reruns and resumes at a fixed
  seed); the ``perf`` block is the machine-dependent wall-clock
  trajectory (simulator requests/sec) and is **excluded** from
  byte-identity checks via :func:`canonical_payload`.
* :func:`render_report` renders that payload as markdown: a per-cell
  headline table with Δ-vs-baseline, per-axis pivot tables, and
  winner/Pareto callouts. The low-level table primitives
  (:func:`markdown_table`, :func:`fmt_value`) are shared with
  ``benchmarks/format_results.py`` — sweep reports and PR comments
  render through one code path.

>>> markdown_table(["a", "b"], [["1", "2"]])
'| a | b |\\n| --- | --- |\\n| 1 | 2 |'
>>> fmt_value(0.123456)
'0.1235'
"""

from __future__ import annotations

import copy
import json
import math

from .planner import load_plan, read_manifest

__all__ = [
    "fmt_value",
    "markdown_table",
    "aggregate",
    "canonical_payload",
    "render_report",
    "dump_payload",
]

#: Minimum SLO attainment a cell needs to be eligible as "winner at SLO".
SLO_ATTAINMENT_MIN = 0.9


def fmt_value(value) -> str:
    """One table cell: floats at 4 significant digits, rest ``str``.

    >>> fmt_value(True), fmt_value(1234.5678), fmt_value("x")
    ('True', '1235', 'x')
    """
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def markdown_table(headers: list[str], rows: list[list[str]]) -> str:
    """A GitHub-flavored markdown table from pre-formatted string cells."""
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines)


def _dollars(cell: dict) -> float:
    """A completed cell's headline $/Mtok (``inf`` if absent/failed)."""
    result = cell.get("result") or {}
    return float(result.get("pricing", {}).get("dollars_per_mtok", math.inf))


def _eligible(cell: dict) -> bool:
    return (
        cell["status"] == "completed"
        and math.isfinite(_dollars(cell))
        and (cell["result"] or {}).get("slo_attainment", 0.0)
        >= SLO_ATTAINMENT_MIN
    )


def _winner_and_pareto(cells: dict) -> tuple[str | None, list[str]]:
    """Cheapest-at-SLO cell id + the ($/Mtok, p99 TTFT) Pareto front."""
    eligible = {cid: c for cid, c in cells.items() if _eligible(c)}
    winner = min(eligible, key=lambda cid: (_dollars(eligible[cid]), cid)) \
        if eligible else None
    completed = {
        cid: c for cid, c in cells.items() if c["status"] == "completed"
    }
    pareto = []
    for cid, cell in completed.items():
        d, p99 = _dollars(cell), cell["result"]["p99_ttft_ms"]
        dominated = any(
            (_dollars(o) <= d and o["result"]["p99_ttft_ms"] <= p99)
            and (_dollars(o) < d or o["result"]["p99_ttft_ms"] < p99)
            for ocid, o in completed.items()
            if ocid != cid
        )
        if not dominated:
            pareto.append(cid)
    return winner, sorted(pareto)


def aggregate(sweep_dir) -> dict:
    """Fold a sweep directory into the committed-artifact payload.

    Deterministic sections: ``matrix``, ``baseline``,
    ``skipped_infeasible``, ``cells`` (axes + status + result per cell),
    ``winner``, ``pareto``. Machine-dependent section: ``perf`` (total
    wall-clock, simulated requests, simulator requests/sec of *real*
    time — the perf-trajectory series entry).
    """
    plan = load_plan(sweep_dir)
    cells: dict[str, dict] = {}
    wall = 0.0
    simulated = 0
    for spec in plan.runs:
        manifest = read_manifest(plan.root, spec.cell_id)
        cells[spec.cell_id] = {
            "axes": spec.axes(),
            "status": manifest["status"],
            "result": manifest["result"],
            "error": manifest["error"],
        }
        # Traced sweeps only: the per-cell Perfetto artifact's filename.
        # Untraced manifests have no "trace" key, so committed aggregates
        # regenerate byte-identically.
        if "trace" in manifest:
            cells[spec.cell_id]["trace"] = manifest["trace"]
        wall += manifest["wall_clock_s"] or 0.0
        if manifest["status"] == "completed":
            simulated += manifest["result"]["requests"]
    winner, pareto = _winner_and_pareto(cells)
    return {
        "matrix": plan.matrix.to_dict(),
        "baseline": plan.baseline,
        "skipped_infeasible": [dict(s) for s in plan.skipped],
        "cells": cells,
        "winner": winner,
        "pareto": pareto,
        "perf": {
            "note": "machine-dependent wall-clock; excluded from "
                    "byte-identity checks (see canonical_payload)",
            "wall_clock_s": wall,
            "simulated_requests": simulated,
            "requests_per_wall_s": simulated / wall if wall > 0 else 0.0,
        },
    }


def canonical_payload(payload: dict) -> dict:
    """The byte-identity surface: the payload minus its ``perf`` block.

    Two sweeps of the same matrix at the same seed — interrupted,
    resumed, or rerun from scratch — must agree on this exactly.
    """
    out = copy.deepcopy(payload)
    out.pop("perf", None)
    return out


def _delta_pct(current: float, base: float) -> str:
    if not (math.isfinite(current) and math.isfinite(base)) or base == 0:
        return ""
    return f"{(current - base) / abs(base) * 100.0:+.1f}%"


def _axis_pivots(cells: dict) -> list[str]:
    """One pivot table per axis that actually varies across the cells."""
    sections: list[str] = []
    completed = {c: v for c, v in cells.items() if v["status"] == "completed"}
    for axis in ("recipe", "scheduler", "interconnect", "fleet", "workload"):
        values = sorted({v["axes"][axis] for v in cells.values()})
        if len(values) < 2:
            continue
        rows = []
        for value in values:
            group = {
                cid: c for cid, c in completed.items()
                if c["axes"][axis] == value
            }
            if not group:
                rows.append([f"`{value}`", "0", "", "", ""])
                continue
            dollars = [_dollars(c) for c in group.values()]
            finite = [d for d in dollars if math.isfinite(d)]
            goodput = [c["result"]["goodput_tok_s"] for c in group.values()]
            best = min(group, key=lambda cid: (_dollars(group[cid]), cid))
            rows.append([
                f"`{value}`",
                str(len(group)),
                fmt_value(sum(finite) / len(finite)) if finite else "inf",
                fmt_value(sum(goodput) / len(goodput)),
                f"`{best}`",
            ])
        sections.append(f"### by {axis}\n\n" + markdown_table(
            [axis, "cells", "mean $/Mtok", "mean goodput tok/s",
             "cheapest cell"],
            rows,
        ))
    return sections


def render_report(payload: dict) -> str:
    """Render an aggregated sweep payload as the markdown report.

    Deterministic by construction: only the canonical sections are
    rendered (wall-clock perf stays in manifests and the JSON payload),
    so an interrupted-then-resumed sweep writes a report byte-identical
    to an uninterrupted one.
    """
    matrix = payload["matrix"]
    cells = payload["cells"]
    statuses = [c["status"] for c in cells.values()]
    slo = (
        f"TTFT <= {fmt_value(matrix['ttft_slo_s'])}s, "
        f"TPOT <= {fmt_value(matrix['tpot_slo_s'])}s"
    )
    lines = [
        f"# Sweep report — `{matrix['name']}`",
        "",
        f"{len(cells)} cells ({statuses.count('completed')} completed, "
        f"{statuses.count('failed')} failed, "
        f"{statuses.count('planned')} planned) · SLO: {slo} · priced at "
        f"`{matrix['gpu_price']}` · arch `{matrix['arch']}` · "
        f"{fmt_value(matrix['page_budget_gib'])} GiB pages/replica · "
        f"seed {matrix['seed']}",
        "",
        "## Cells",
        "",
    ]
    base_cell = cells.get(payload.get("baseline") or "", {})
    base_dollars = _dollars(base_cell) if base_cell else math.inf
    headers = [
        "recipe", "scheduler", "fleet", "link", "workload", "$/Mtok",
        "Δ vs baseline", "goodput tok/s", "req/s", "p99 TTFT (ms)",
        "TPOT (ms)", "SLO att.",
    ]
    rows = []
    for cid, cell in cells.items():
        axes = cell["axes"]
        tag = ""
        if cid == payload.get("baseline"):
            tag = " (baseline)"
        elif cid == payload.get("winner"):
            tag = " **(winner)**"
        if cell["status"] != "completed":
            rows.append(
                [axes[a] for a in ("recipe", "scheduler", "fleet",
                                   "interconnect", "workload")]
                + [f"*{cell['status']}*{tag}"] + [""] * 6
            )
            continue
        r = cell["result"]
        d = _dollars(cell)
        rows.append([
            axes["recipe"] + tag,
            axes["scheduler"],
            axes["fleet"],
            axes["interconnect"],
            axes["workload"],
            fmt_value(d) if math.isfinite(d) else "inf (SLO-infeasible)",
            _delta_pct(d, base_dollars),
            fmt_value(r["goodput_tok_s"]),
            fmt_value(r["requests_per_s"]),
            fmt_value(r["p99_ttft_ms"]),
            fmt_value(r["mean_tpot_ms"]),
            fmt_value(r["slo_attainment"]),
        ])
    lines.append(markdown_table(headers, rows))

    pivots = _axis_pivots(cells)
    if pivots:
        lines += ["", "## Pivots ($/Mtok per axis)", ""]
        lines.append("\n\n".join(pivots))

    lines += ["", "## Winner & Pareto", ""]
    winner = payload.get("winner")
    if winner:
        w = cells[winner]
        lines.append(
            f"- **Cheapest at SLO** (attainment >= {SLO_ATTAINMENT_MIN}): "
            f"`{winner}` — {fmt_value(_dollars(w))} $/Mtok "
            f"({fmt_value(w['result']['goodput_tok_s'])} goodput tok/s)"
        )
        if base_cell and winner != payload.get("baseline") and math.isfinite(
            base_dollars
        ):
            lines.append(
                f"- vs baseline `{payload['baseline']}`: "
                f"{_delta_pct(_dollars(w), base_dollars)} $/Mtok"
            )
    else:
        lines.append("- no cell meets the SLO attainment bar — no winner")
    if payload.get("pareto"):
        front = ", ".join(f"`{cid}`" for cid in payload["pareto"])
        lines.append(f"- Pareto front ($/Mtok x p99 TTFT): {front}")

    traced = {cid: c["trace"] for cid, c in cells.items() if c.get("trace")}
    if traced:
        lines += ["", "## Traces", ""]
        lines += [
            f"- `{cid}`: [`runs/{cid}/{name}`](runs/{cid}/{name}) "
            "(load in Perfetto: https://ui.perfetto.dev)"
            for cid, name in traced.items()
        ]

    skipped = payload.get("skipped_infeasible", [])
    if skipped:
        lines += ["", "## Skipped (infeasible combinations)", ""]
        lines += [
            f"- `{'/'.join(s['combo'])}` — {s['reason']}" for s in skipped
        ]
    failures = {
        cid: c for cid, c in cells.items() if c["status"] == "failed"
    }
    if failures:
        lines += ["", "## Failures", ""]
        lines += [f"- `{cid}`: {c['error']}" for cid, c in failures.items()]
    return "\n".join(lines) + "\n"


def dump_payload(payload: dict) -> str:
    """The canonical JSON serialization of an aggregated payload."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
