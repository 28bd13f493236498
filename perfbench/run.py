#!/usr/bin/env python3
"""Run one benchmark workload in this process and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload eval-quant --seed 0 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs a warm-up unit, then untraced units and units with every
layer wrapped (see ``tracer.py``) in turn, checks that all produce
identical outputs, prints the per-layer metrics, and writes the "where did
the time go" table and the recorded spans under ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names
and units come from ``BENCHMARK.json``. BLAS runs single-threaded.
Numpy must not be imported before ``main`` pins the environment.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1
#: Set-ups before the measured ones (every unit gets its own set-up too);
#: set-up time is the median over all of them.
EXTRA_SETUPS = 6


def _pin_environment() -> None:
    """Single-threaded BLAS, and no transparent huge pages for numpy
    arrays: whether a process gets huge pages varies from run to run and
    moved codec throughput by about 10% between identical runs."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"


def measure(workload, seed: int, setup_times: list, seconds=None, n_units=None):
    """Run set-up then a unit, until the next unit would overrun ``seconds``
    (at least one unit), or exactly ``n_units`` times. Set-up times are
    appended to ``setup_times``, so they sample the whole run, not only
    its start. Returns the units and each one's wall time."""
    units, walls = [], []
    while True:
        if n_units is not None:
            if len(units) >= n_units:
                break
        elif units and sum(walls) + walls[-1] > seconds:
            break
        gc.collect()  # the previous unit's garbage is not this set-up's cost
        t0 = perf_counter()
        workload.setup(seed)
        t1 = perf_counter()
        units.append(workload.unit(len(units)))
        walls.append(perf_counter() - t1)
        setup_times.append(t1 - t0)
    return units, walls


def measure_traced(workload, seed: int, setup_times: list, seconds, tracer):
    """One warm-up unit, then an untraced and a traced unit in turn (with
    ``tracer`` installed for the traced one) until the next pair would
    overrun ``seconds`` (at least one pair).

    The first unit of a process pays warm-up (caches, allocator, lazy
    imports), so it belongs to neither side; alternating the sides keeps
    the host's drift in speed out of their ratio. Returns all units, the
    traced units, and the untraced and traced wall times.
    """
    units, _ = measure(workload, seed, setup_times, n_units=1)
    tracer.head_weights = getattr(workload, "head_weights", set())
    traced, untraced_walls, traced_walls = [], [], []
    while not traced or (
        sum(untraced_walls) + sum(traced_walls) + untraced_walls[-1] + traced_walls[-1]
        <= seconds
    ):
        plain, walls = measure(workload, seed, setup_times, n_units=1)
        units += plain
        untraced_walls += walls
        tracer.install()
        try:
            plain, walls = measure(workload, seed, setup_times, n_units=1)
        finally:
            tracer.uninstall()
        units += plain
        traced += plain
        traced_walls += walls
    return units, traced, untraced_walls, traced_walls


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _pin_environment()
    os.environ["REPRO_CACHE_DIR"] = str(ROOT / ".model_cache")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported {repro.__file__}, not this checkout's src/", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    from report import layer_metrics, where_table
    from tracer import SpanTracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    workload.prepare()
    setup_times = []
    for _ in range(EXTRA_SETUPS):
        gc.collect()
        t0 = perf_counter()
        workload.setup(args.seed)
        setup_times.append(perf_counter() - t0)

    if not args.trace:
        units, _ = measure(workload, args.seed, setup_times, seconds=args.seconds)
        values, detail = workload.metrics(units)
        for name, (value, unit) in detail.items():
            print(f"{name:<36s} {value:.6g} {unit}")
        values["setup_s"] = statistics.median(setup_times)
        values["peak_rss_mb"] = _peak_rss_mb()
        declared = contract["end_to_end"]
    else:
        tracer = SpanTracer()
        units, traced, untraced_walls, traced_walls = measure_traced(
            workload, args.seed, setup_times, args.seconds, tracer
        )
        values = layer_metrics(tracer, traced, untraced_walls, traced_walls)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"where-{args.workload}.md").write_text(
            where_table(args.workload, tracer, values, len(traced))
        )
        tracer.save(out_dir / f"spans-{args.workload}.npz")
        declared = contract["per_layer"]

    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    # Determinism, and with --trace 1 bit-transparent tracing: every unit
    # repeats the first unit's outputs and simulated counts exactly.
    attempted += len(units) - 1
    failed += sum(
        u.outcome != units[0].outcome or u.counts != units[0].counts for u in units[1:]
    )
    if hasattr(workload, "reference_checks"):
        ref_attempted, ref_failed = workload.reference_checks()
        attempted += ref_attempted
        failed += ref_failed

    metrics = {}
    for spec in declared:
        metrics[spec["name"]] = {"value": values.pop(spec["name"]), "unit": spec["unit"]}
        print(f"{spec['name']:<36s} {metrics[spec['name']]['value']:.6g} {spec['unit']}")
    if values:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(values)}")
    print(
        f"workload={args.workload} seed={args.seed} units={len(units)} "
        f"blas_threads={BLAS_THREADS} operations: attempted={attempted} "
        f"succeeded={attempted - failed} failed={failed}"
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
