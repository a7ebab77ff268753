#!/usr/bin/env python3
"""Steadiness check: run one workload N times and report each metric's
quartile spread relative to its median.

Usage, from the root of a checkout::

    python3 e2ebench/steady.py --workload served-mix --runs 10

Run ``i`` uses seed ``i`` (1, 2, ...) and measures for BENCHMARK.json's
``run_seconds``.  The spread of a
metric is ``(Q3 - Q1) / median`` over the runs, with the quartiles of
``statistics.quantiles(values, n=4)``; the bounds in ``BENCHMARK.json``
are set to at least three times the spread this prints.  ``--out``
writes every run's result and the spreads as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: List[float]) -> float:
    """Inter-quartile range as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def run_seconds() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    return spec["run_seconds"]


def run_once(workload: str, seed: int, seconds: int) -> Dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        raise RuntimeError(f"seed {seed}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    seconds = run_seconds()
    results = []
    for seed in range(1, args.runs + 1):
        result = run_once(args.workload, seed, seconds)
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              file=sys.stderr, flush=True)

    names = list(results[0]["metrics"])
    report = {}
    print(f"{'metric':<34} {'median':>12} {'spread':>8}")
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        entry = {
            "median": statistics.median(values),
            "spread": spread(values) if any(values) else 0.0,
            "values": values,
        }
        report[name] = entry
        print(f"{name:<34} {entry['median']:>12.6g} {entry['spread']:>8.4f}")
    all_correct = all(r["correct"] and r["failed"] == 0 for r in results)
    print(f"all runs correct with no failures: {all_correct}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seconds": seconds,
             "metrics": report, "results": results}, indent=1), "utf-8")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
