#!/usr/bin/env python3
"""Run every workload over several seeds and summarise the metrics.

Usage, from the repository root::

    python3 perfbench/suite.py --seeds 0 1 2 3 4 5 6 7 8 9
    python3 perfbench/suite.py --workloads codec-store --seeds 0 1 2 --trace 1

Each (workload, seed) pair runs ``perfbench/run.py`` in its own process,
one at a time. For every metric the summary prints the median, the
quartiles and the quartile spread as a share of the median; for
end-to-end metrics it also prints the bound from ``BENCHMARK.json``,
flags a spread above the bound (``WIDE``, the exit status is then 1) and
notes one above a third of it (``over-target``), the steadiness the
benchmark aims for. Every run uses ``run_seconds`` from ``BENCHMARK.json``.
With ``--trace 1`` the per-workload "where did the time go" tables are
joined into ``perfbench/out/REPORT.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    seconds = contract["run_seconds"]
    steady = True
    for workload in args.workloads:
        results = [run_one(workload, seed, seconds, args.trace) for seed in args.seeds]
        for seed, res in zip(args.seeds, results):
            if not res["correct"] or res["failed"]:
                steady = False
                print(f"{workload} seed={seed}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']}")
        print(f"\n{workload} ({len(results)} runs, seeds {args.seeds})")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            line = f"  {name:<36s} {med:14.6g} {first['unit']:<9s}"
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else 0.0
                line += f" q1={q1:.6g} q3={q3:.6g} spread={spread:.4f}"
                if name in bounds:
                    ok = spread <= bounds[name]
                    steady &= ok
                    flag = "WIDE" if not ok else "over-target" if spread > bounds[name] / 3 else "ok"
                    line += f" bound={bounds[name]} {flag}"
            print(line)
    if args.trace:
        out = HERE / "out"
        parts = [(out / f"where-{w}.md").read_text() for w in args.workloads]
        (out / "REPORT.md").write_text("# Where did the time go\n\n" + "\n".join(parts))
        print(f"\nwrote {out / 'REPORT.md'}")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
