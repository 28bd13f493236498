"""Resumable sweep execution: one ServingCluster run per planned cell.

The runner walks a planned sweep in manifest order and, per cell,
builds the seeded workload, runs the virtual-time
:class:`~repro.serve.ServingCluster` the spec describes, prices the
scenario through :mod:`~repro.bench.pricing`, and rewrites the cell's
manifest. Two properties make sweeps safe to interrupt:

* **Resume/skip** — a manifest already marked ``completed`` is skipped
  wholesale; because every cell's result is a pure function of its
  :class:`~repro.bench.matrix.RunSpec` (seeded workload, deterministic
  event loop, analytic pricing), a resumed sweep's aggregate is
  byte-identical to an uninterrupted one.
* **Failure isolation** — an exception inside one cell marks *that*
  manifest ``failed`` (error recorded) and the sweep continues; the
  failed cell re-runs on the next invocation.

Wall-clock seconds per run are recorded in the manifest (they feed the
sweep's perf-trajectory section) but never enter the deterministic
result payload.
"""

from __future__ import annotations

import time
import traceback
from datetime import datetime

from ..models.zoo import ARCHS
from ..serve import ServingCluster
from .matrix import RunSpec, build_workload
from .planner import SweepPlan, load_plan, read_manifest, write_manifest
from .pricing import GIB, price_cell

__all__ = ["execute_run", "run_sweep"]


def _build_cluster(spec: RunSpec, tracer=None, metrics=None) -> ServingCluster:
    """The fleet one cell describes (unified or disaggregated pools)."""
    shape = spec.fleet_shape
    kwargs: dict = {
        "scheduler": spec.scheduler,
        "page_budget_bytes": float(spec.page_budget_gib * GIB),
        "block_tokens": spec.block_tokens,
        "tracer": tracer,
        "metrics": metrics,
    }
    if shape.disaggregated:
        kwargs.update(
            n_prefill=shape.n_prefill,
            n_decode=shape.n_decode,
            kv_transfer=spec.interconnect,
        )
    else:
        kwargs["n_replicas"] = shape.n_replicas
    return ServingCluster(ARCHS[spec.arch], spec.recipe, **kwargs)


def execute_run(spec: RunSpec, trace_path=None) -> dict:
    """Execute one cell and return its deterministic result payload.

    Runs the seeded workload through the cell's fleet, measures the
    virtual-time serving metrics (throughput, requests/s, TTFT/TPOT,
    SLO attainment, goodput, migration bytes for disaggregated cells),
    and attaches the :func:`~repro.bench.pricing.price_cell` block.
    Same spec → same payload, byte for byte — the property resume and
    the committed ``BENCH_sweep.json`` artifact both rest on.

    ``trace_path`` (optional) attaches a :class:`repro.obs.Tracer` and
    :class:`repro.obs.MetricsRegistry` to the run and writes the
    Perfetto-loadable Chrome trace there. The result payload is
    unchanged — tracing never perturbs the simulation (the obs test
    suite pins the fingerprint) — so traced and untraced cells stay
    byte-identical in the aggregate.
    """
    requests = build_workload(spec.workload, spec.n_requests, spec.seed)
    tracer = metrics = None
    if trace_path is not None:
        from ..obs import MetricsRegistry, Tracer

        tracer, metrics = Tracer(), MetricsRegistry()
    fleet = _build_cluster(spec, tracer, metrics).run(requests)
    if trace_path is not None:
        from ..obs import write_chrome_trace

        write_chrome_trace(trace_path, tracer.events(), metrics)
    result = {
        "requests": len(fleet.responses),
        "total_tokens": fleet.total_tokens,
        "makespan_s": fleet.makespan_s,
        "requests_per_s": fleet.requests_per_s,
        "throughput_tok_s": fleet.throughput_tok_s,
        "mean_ttft_ms": fleet.mean_ttft_s * 1e3,
        "p99_ttft_ms": fleet.p99_ttft_s() * 1e3,
        "mean_tpot_ms": fleet.mean_tpot_s * 1e3,
        "preemptions": fleet.preemptions,
        "peak_running": fleet.peak_running,
        "slo_attainment": fleet.slo_attainment(spec.ttft_slo_s, spec.tpot_slo_s),
        "goodput_tok_s": fleet.goodput_tok_s(spec.ttft_slo_s, spec.tpot_slo_s),
        "pricing": price_cell(spec),
    }
    if spec.disaggregated:
        result["n_transfers"] = fleet.n_transfers
        result["transfer_bytes_per_request"] = fleet.transfer_bytes_per_request
        result["transfer_stall_s_total"] = fleet.transfer_stall_s_total
    return result


def run_sweep(
    sweep_dir,
    executor=None,
    max_runs: int | None = None,
    progress=None,
    trace: bool = False,
) -> dict:
    """Execute (or resume) every planned run under ``sweep_dir``.

    ``executor`` overrides the per-cell execution function (tests inject
    failures through it; default :func:`execute_run`); ``max_runs``
    caps how many cells actually execute this invocation — the hook for
    exercising interrupted sweeps deterministically; ``progress`` is an
    optional callable receiving one line per cell.

    ``trace=True`` records a Perfetto trace per executed cell at
    ``runs/<cell_id>/trace.json`` and notes the filename under the
    manifest's ``"trace"`` key (absent on untraced cells, so existing
    committed aggregates are unaffected). A custom ``executor`` must
    then accept the ``trace_path`` keyword.

    Returns a summary dict: counts of ``executed`` / ``skipped``
    (already completed) / ``failed`` cells plus total wall-clock
    seconds. Failures never abort the sweep — each failed cell's
    manifest records the error and the next invocation retries it.
    """
    plan: SweepPlan = load_plan(sweep_dir)
    executor = executor or execute_run
    say = progress or (lambda line: None)
    executed = skipped = failed = 0
    wall_total = 0.0
    for spec in plan.runs:
        manifest = read_manifest(plan.root, spec.cell_id)
        if manifest["status"] == "completed":
            skipped += 1
            say(f"skip {spec.cell_id} (completed)")
            continue
        if max_runs is not None and executed + failed >= max_runs:
            say(f"stop after {max_runs} run(s) (--max-runs)")
            break
        trace_path = None
        if trace:
            trace_path = plan.manifest_path(spec.cell_id).parent / "trace.json"
        t0 = time.perf_counter()
        try:
            if trace_path is not None:
                result = executor(spec, trace_path=trace_path)
            else:
                result = executor(spec)
        except Exception as exc:  # failure isolation: the sweep continues
            wall = time.perf_counter() - t0
            manifest.update(
                status="failed",
                result=None,
                error=f"{type(exc).__name__}: {exc}",
                traceback=traceback.format_exc(),
                wall_clock_s=wall,
                finished_at=datetime.now().isoformat(timespec="seconds"),
            )
            write_manifest(plan.root, spec.cell_id, manifest)
            failed += 1
            wall_total += wall
            say(f"FAIL {spec.cell_id}: {manifest['error']}")
            continue
        wall = time.perf_counter() - t0
        manifest.pop("traceback", None)  # a retried failure is no failure
        manifest.update(
            status="completed",
            result=result,
            error=None,
            wall_clock_s=wall,
            finished_at=datetime.now().isoformat(timespec="seconds"),
        )
        if trace_path is not None:
            manifest["trace"] = trace_path.name
        write_manifest(plan.root, spec.cell_id, manifest)
        executed += 1
        wall_total += wall
        say(f"done {spec.cell_id} ({wall:.2f}s)")
    return {
        "executed": executed,
        "skipped": skipped,
        "failed": failed,
        "planned": len(plan.runs),
        "wall_clock_s": wall_total,
    }
