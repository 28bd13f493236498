"""repro.bench — declarative sweep matrix → planner → resumable runner → reports.

The reproduction's orchestration layer. A sweep is declared once as a
:class:`~repro.bench.matrix.SweepMatrix` (axes: quantization recipes,
schedulers, interconnects, fleet shapes, workload presets, plus one
seed), expanded into deterministic :class:`~repro.bench.matrix.RunSpec`
cells with stable content-hashed ids, planned into a sweep directory
(one ``manifest.json`` per cell), executed resumably against the
virtual-time serving simulator, priced through
:class:`~repro.tune.cost.CostModel` × the committed GPU price table,
and rendered as a markdown report with per-axis pivots and a
cheapest-at-SLO winner.

Pipeline (also the ``python -m repro.bench`` subcommands)::

    matrix ──expand──▶ planner ──manifests──▶ runner ──aggregate──▶ report
    (plan)                                    (run)                 (report)

Everything downstream of the matrix is a pure function of it at a fixed
seed: interrupting a sweep and re-invoking it skips completed cells and
reproduces the uninterrupted sweep's report byte for byte.
"""

from .matrix import (
    CANONICAL,
    SMOKE,
    FleetShape,
    RunSpec,
    SweepMatrix,
    available_matrices,
    available_workloads,
    build_workload,
    get_matrix,
)
from .planner import (
    SweepPlan,
    list_sweeps,
    load_plan,
    plan_sweep,
    read_manifest,
    write_manifest,
)
from .pricing import cost_model_for, price_cell
from .report import (
    aggregate,
    canonical_payload,
    dump_payload,
    fmt_value,
    markdown_table,
    render_report,
)
from .runner import execute_run, run_sweep

__all__ = [
    "SweepMatrix",
    "RunSpec",
    "FleetShape",
    "CANONICAL",
    "SMOKE",
    "available_matrices",
    "available_workloads",
    "build_workload",
    "get_matrix",
    "SweepPlan",
    "plan_sweep",
    "load_plan",
    "list_sweeps",
    "read_manifest",
    "write_manifest",
    "cost_model_for",
    "price_cell",
    "execute_run",
    "run_sweep",
    "aggregate",
    "canonical_payload",
    "render_report",
    "dump_payload",
    "fmt_value",
    "markdown_table",
]
