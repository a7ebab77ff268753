"""Suite orchestration for ``localmark verify --suite ...``.

Three suites, each a set of named oracles:

* ``differential`` — scheduler cross-checks, kernel-vs-reference
  embedding, incremental-vs-full windows, vectorized-vs-worklist
  timing sweeps, locality-index-vs-networkx-walk locality queries,
  heap-vs-scan datapath binding and sweep-vs-pairwise binding checks,
  Verilog emit-vs-extract round trips,
  exact-vs-Monte-Carlo ``P_c``, and the serving engine's ``attack``
  job vs the arena library path (:mod:`repro.verify.differential`);
* ``metamorphic`` — renaming, re-serialization, latency scaling, and
  IO round-trip invariance (:mod:`repro.verify.metamorphic`);
* ``fuzz`` — the view-cache mutator fuzzer (:mod:`repro.verify.fuzz`).

Randomized trials use per-trial derived seeds; a fixed sweep over the
small HYPER suite designs (critical path ≤ 20 — the sizes where the
reference implementations are still affordable) anchors every run to
the paper's Table II substrate regardless of the trial budget.

Wall-clock control reuses :class:`repro.resilience.budget.Budget`:
the deadline is checked between trials, so exhaustion surfaces as
:class:`~repro.errors.BudgetExceededError` (CLI exit code 3) with the
partial report intact.  Per-oracle wall time lands in
:data:`repro.util.perf.PERF` under ``verify.<oracle>`` phases.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

from repro.cdfg.designs.hyper_suite import HYPER_SUITE
from repro.cdfg.graph import CDFG
from repro.resilience.budget import Budget, check_deadline
from repro.util.perf import PERF
from repro.verify import differential, fuzz, metamorphic
from repro.verify.report import (
    Divergence,
    OracleOutcome,
    SuiteReport,
    merge_reports,
)

#: Suites selectable from the CLI.
SUITES = ("differential", "metamorphic", "fuzz")

#: HYPER designs small enough for the reference (full-recompute and
#: exhaustive) sides of the oracles.
HYPER_CP_LIMIT = 20

#: Mutation steps one fuzz trial performs.
FUZZ_STEPS_PER_TRIAL = 25

TrialFn = Callable[[int, int], List[Divergence]]

#: name -> per-trial oracle of each randomized differential oracle.
DIFFERENTIAL_ORACLES: Dict[str, TrialFn] = {
    "schedulers": differential.oracle_schedulers,
    "embed_paths": differential.oracle_embed_paths,
    "windows_kernel": differential.oracle_windows_kernel,
    "periodic_windows": differential.oracle_periodic_windows,
    "kernel_vectorized": differential.oracle_kernel_vectorized,
    "locality": differential.oracle_locality,
    "binding": differential.oracle_binding,
    "rtl_roundtrip": differential.oracle_rtl_roundtrip,
}

METAMORPHIC_ORACLES: Dict[str, TrialFn] = {
    "relabel": metamorphic.oracle_relabel,
    "reserialize": metamorphic.oracle_reserialize,
    "latency_scale": metamorphic.oracle_latency_scale,
    "io_roundtrip": metamorphic.oracle_io_roundtrip,
}


def small_hyper_designs() -> List[CDFG]:
    """The Table II designs the reference oracles can afford."""
    return [
        spec.factory()
        for spec in HYPER_SUITE
        if spec.critical_path <= HYPER_CP_LIMIT
    ]


def _run_oracle(
    name: str,
    trials: int,
    run_trial: Callable[[int], List[Divergence]],
    budget: Optional[Budget],
    per_trial_metric: Optional[str] = None,
) -> OracleOutcome:
    """Run one oracle for *trials* trials under the shared budget."""
    outcome = OracleOutcome(name=name)
    started = time.perf_counter()
    with PERF.phase(f"verify.{name}"):
        for trial in range(trials):
            check_deadline(budget, what=f"verify oracle {name!r}")
            result = run_trial(trial)
            # Oracles may return (divergences, skipped) or divergences.
            if isinstance(result, tuple):
                divergences, extra = result
                if extra is True:
                    outcome.skipped += 1
                elif per_trial_metric is not None:
                    outcome.metrics[per_trial_metric] = (
                        outcome.metrics.get(per_trial_metric, 0) + extra
                    )
            else:
                divergences = result
            outcome.trials += 1
            outcome.divergences.extend(divergences)
    outcome.wall_ms = (time.perf_counter() - started) * 1000.0
    return outcome


def run_differential_suite(
    seed: int, trials: int, budget: Optional[Budget] = None
) -> SuiteReport:
    """Differential oracles: randomized trials + the small HYPER sweep."""
    report = SuiteReport(suite="differential", seed=seed, trials=trials)
    for name, oracle in DIFFERENTIAL_ORACLES.items():
        report.outcomes.append(
            _run_oracle(
                name,
                trials,
                lambda trial, oracle=oracle: oracle(seed, trial),
                budget,
            )
        )
    report.outcomes.append(
        _run_oracle(
            "coincidence_mc",
            trials,
            lambda trial: differential.oracle_coincidence_mc(seed, trial),
            budget,
        )
    )
    report.outcomes.append(
        _run_oracle(
            "attack_service",
            trials,
            lambda trial: differential.oracle_attack_service(seed, trial),
            budget,
        )
    )
    # Fixed sweep: kernel vs reference embedding on the small HYPER
    # designs, independent of the trial budget.
    hyper = small_hyper_designs()
    report.outcomes.append(
        _run_oracle(
            "embed_paths_hyper",
            len(hyper),
            lambda trial: differential.embed_paths_trial(
                differential.derive_seed(seed, trial, "hyper"),
                design=hyper[trial],
            ),
            budget,
        )
    )
    # Fixed sweep: emit → extract round trip on the same designs — the
    # paper's Table II substrate must survive the drop to RTL exactly.
    report.outcomes.append(
        _run_oracle(
            "rtl_roundtrip_hyper",
            len(hyper),
            lambda trial: differential.rtl_roundtrip_trial(
                differential.derive_seed(seed, trial, "rtl-hyper"),
                design=hyper[trial],
            ),
            budget,
        )
    )
    return report


def run_metamorphic_suite(
    seed: int, trials: int, budget: Optional[Budget] = None
) -> SuiteReport:
    """Metamorphic oracles over randomized designs."""
    report = SuiteReport(suite="metamorphic", seed=seed, trials=trials)
    for name, oracle in METAMORPHIC_ORACLES.items():
        report.outcomes.append(
            _run_oracle(
                name,
                trials,
                lambda trial, oracle=oracle: oracle(seed, trial),
                budget,
            )
        )
    return report


def run_fuzz_suite(
    seed: int, trials: int, budget: Optional[Budget] = None
) -> SuiteReport:
    """View-cache fuzzing: randomized designs plus small HYPER designs.

    The total mutation-step count is reported as the ``mutation_steps``
    metric (CI gates on it).
    """
    report = SuiteReport(suite="fuzz", seed=seed, trials=trials)
    report.outcomes.append(
        _run_oracle(
            "view_cache",
            trials,
            lambda trial: fuzz.oracle_view_cache(
                seed, trial, steps=FUZZ_STEPS_PER_TRIAL
            ),
            budget,
            per_trial_metric="mutation_steps",
        )
    )
    hyper = small_hyper_designs()
    report.outcomes.append(
        _run_oracle(
            "view_cache_hyper",
            len(hyper),
            lambda trial: fuzz.fuzz_design(
                hyper[trial],
                differential.derive_seed(seed, trial, "fuzz-hyper"),
                steps=FUZZ_STEPS_PER_TRIAL,
            ),
            budget,
            per_trial_metric="mutation_steps",
        )
    )
    return report


def run_suite(
    suite: str, seed: int, trials: int, budget: Optional[Budget] = None
) -> SuiteReport:
    """Run one named suite (or ``"all"``) and return its report."""
    runners = {
        "differential": run_differential_suite,
        "metamorphic": run_metamorphic_suite,
        "fuzz": run_fuzz_suite,
    }
    if suite == "all":
        reports = [
            runners[name](seed, trials, budget=budget) for name in SUITES
        ]
        merged = merge_reports(reports)
        assert merged is not None
        return merged
    if suite not in runners:
        raise ValueError(
            f"unknown suite {suite!r}; pick one of {SUITES + ('all',)}"
        )
    return runners[suite](seed, trials, budget=budget)
