#!/usr/bin/env python3
"""End-to-end benchmark of the localmark pipeline.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload lec-author --seed 1 --seconds 30 --trace 0

Builds nothing: the program is the Python package under ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; with ``--trace 0`` the metrics
are the end-to-end ones, with ``--trace 1`` the per-layer ones.  The line
before it records provenance (git sha, host, library versions, seed).
Every time is in host-normalized seconds (see ``hostclock.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE_DIR = HERE / ".state"

#: Per-call operations whose medians the traced run reports, beside
#: the end-to-end ones: each exists on only some workloads.
OP_METRICS = ("parse", "detect", "rtl", "periodic")
#: Timed metrics whose raw medians the traced run reports.
RAW_METRICS = ("setup", "round", "embed", "schedule", "verify", *OP_METRICS)


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb(pids: List[int]) -> float:
    """Peak resident set of this process plus the given live children."""
    total_kb = 0
    for pid in ["self", *pids]:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def measure(workload, run, state, seconds: float) -> None:
    """Whole rounds of the work list until the next would overrun."""
    started = time.perf_counter()
    durations: List[float] = []
    while True:
        round_started = time.perf_counter()
        run.digests.append(workload.round_digests(run, state))
        durations.append(time.perf_counter() - round_started)
        elapsed = time.perf_counter() - started
        if elapsed + _median(durations) > seconds:
            return


def per_call(samples, raw: bool = False) -> float:
    """Mean time of one call of an operation over the run.

    A mean, not a median: every round holds the same calls, and on
    served-mix the calls of one op span three design sizes, so a median
    would land on whichever size sits in the middle and jump between
    them from run to run.
    """
    values = [sample.raw if raw else sample.norm for sample in samples]
    return statistics.fmean(values) if values else 0.0


def end_to_end(run, setup_samples, rss_mb: float) -> Dict[str, float]:
    round_total = sum(s.norm for s in run.rounds)
    return {
        "setup_s": _median([s.norm for s in setup_samples]),
        "round_s": _median([s.norm for s in run.rounds]),
        "jobs_per_s": len(run.jobs) / round_total if round_total else 0.0,
        "embed_s": per_call(run.samples.get("embed", [])),
        "schedule_s": per_call(run.samples.get("schedule", [])),
        "verify_s": per_call(run.samples.get("verify", [])),
        "peak_rss_mb": rss_mb,
    }


def per_layer(base, traced, tracers, setup_samples, clock) -> Dict[str, float]:
    from tracer import layer_metrics

    metrics: Dict[str, float] = {}
    for tracer, rounds in tracers:
        for name, value in layer_metrics(tracer, rounds).items():
            metrics[name] = metrics.get(name, 0.0) + value
    jobs = len(base.jobs) or 1
    rounds = len(base.rounds) or 1
    engine = base.samples.get("service.engine", [])
    metrics.update({
        "service.cache_hit_ratio": len(base.samples.get("service.cached", [])) / jobs,
        "service.coalesced_ratio": len(base.samples.get("service.coalesced", [])) / jobs,
        "service.engine_ms": sum(s.norm for s in engine) * 1000.0 / rounds,
        "service.client_ms": _median([s.norm for s in base.rounds]) * 1000.0
        if engine else 0.0,
        "service.job_p50_s": (
            _median([s.norm for s in base.jobs]) if engine else 0.0
        ),
        "service.job_p90_s": (
            statistics.quantiles([s.norm for s in base.jobs], n=10)[-1]
            if engine and len(base.jobs) >= 2 else 0.0
        ),
        "host.calib_ms": _median(clock.calibrations) * 1000.0,
        "bench.trace_overhead": (
            _median([s.norm for s in traced.rounds])
            / _median([s.norm for s in base.rounds])
        ),
    })
    for op in OP_METRICS:
        metrics[f"op.{op}_s"] = per_call(base.samples.get(op, []))
    metrics["host.setup_raw_s"] = _median([s.raw for s in setup_samples])
    metrics["host.round_raw_s"] = _median([s.raw for s in base.rounds])
    for name in RAW_METRICS[2:]:
        metrics[f"host.{name}_raw_s"] = per_call(base.samples.get(name, []), raw=True)
    return metrics


def _load_digests() -> Dict[str, str]:
    try:
        return json.loads((STATE_DIR / "digests.json").read_text("utf-8"))
    except (OSError, ValueError):
        return {}


def _save_digests(store: Dict[str, str]) -> None:
    STATE_DIR.mkdir(exist_ok=True)
    tmp = STATE_DIR / "digests.json.tmp"
    tmp.write_text(json.dumps(store, sort_keys=True, indent=1), "utf-8")
    os.replace(tmp, STATE_DIR / "digests.json")


def stop_multiprocessing_helpers() -> None:
    """Stop the forkserver and resource tracker the engine's pool started,
    waiting for each to exit."""
    from multiprocessing import forkserver, resource_tracker

    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 source_digest: str) -> Dict[str, Any]:
    import checks
    from hostclock import HostClock
    from tracer import Tracer
    from workloads import WORKLOADS, Run, timed_setup

    workload = WORKLOADS[name](seed)
    clock = HostClock()
    state, setup_samples = timed_setup(clock, workload.setup, workload.teardown)
    try:
        base = Run(clock)
        measure(workload, base, state, seconds / 2 if trace else seconds)
        runs = [base]
        if trace:
            tracer = Tracer()
            traced = Run(clock, tracer)
            with tracer:
                measure(workload, traced, state, seconds / 2)
            tracers = [(tracer, len(traced.rounds))]
            replayed = workload.replay(clock, state)
            if replayed is not None:
                tracers.append((replayed, 1))
            runs.append(traced)
        workload.final_checks(base, state)
        rss = peak_rss_mb(workload.worker_pids(state))
    finally:
        workload.teardown(state)
        stop_multiprocessing_helpers()

    # Items are keyed by what the seed does not change (a panel author,
    # a served job), so runs under other seeds are compared too.
    store = _load_digests()
    for run in runs:
        run.check(checks.digests_agree(run.digests))
        for item, value in (run.digests[0] if run.digests else {}).items():
            key = f"{name}:{item}:{source_digest[:16]}"
            run.check(checks.remembered_digest(store, key, value))
    _save_digests(store)

    if trace:
        metrics = per_layer(base, traced, tracers, setup_samples, clock)
        values = reported(metrics, "per_layer")
    else:
        values = reported(end_to_end(base, setup_samples, rss), "end_to_end")
    for run in runs:
        for error in run.errors[:20]:
            print(f"{name}: {error}", file=sys.stderr)
    return {
        "correct": not any(run.incorrect for run in runs),
        "attempted": sum(run.attempted for run in runs),
        "failed": sum(run.failed for run in runs),
        "metrics": values,
    }


def listed_metrics(kind: str) -> List[Dict[str, str]]:
    """The ``end_to_end`` or ``per_layer`` metrics BENCHMARK.json lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    return spec[kind]


def reported(metrics: Dict[str, float], kind: str) -> Dict[str, Dict[str, Any]]:
    """Value and unit of every metric BENCHMARK.json lists as *kind*."""
    return {
        m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
        for m in listed_metrics(kind)
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}; run "
              f"from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    from provenance import collect
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    provenance = collect(ROOT, args.workload, args.seed)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), provenance["source_digest"])
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
