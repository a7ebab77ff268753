"""Differential oracles: clean on the real code, divergent on planted bugs."""

from __future__ import annotations

import random

import pytest

from repro.core.coincidence import monte_carlo_pc
from repro.errors import WatermarkError
from repro.scheduling.enumeration import (
    sample_schedule_boxes,
    window_box_volume,
)
from repro.timing.kernel import IncrementalWindows
from repro.timing.windows import critical_path_length
from repro.verify.differential import (
    coincidence_trial,
    derive_seed,
    embed_paths_trial,
    schedulers_trial,
    trial_design,
    try_embed,
    windows_kernel_trial,
)
from repro.verify.report import Divergence
from repro.verify.suites import run_differential_suite


class TestHelpers:
    def test_derive_seed_is_deterministic_and_distinct(self):
        assert derive_seed(7, 3, "x") == derive_seed(7, 3, "x")
        seeds = {
            derive_seed(base, trial, salt)
            for base in (0, 7)
            for trial in range(10)
            for salt in ("embed", "windows")
        }
        assert len(seeds) == 40

    def test_trial_design_is_reproducible(self):
        a = trial_design(123, num_ops=24)
        b = trial_design(123, num_ops=24)
        assert a.edges() == b.edges()
        assert list(a.operations) == list(b.operations)

    def test_try_embed_returns_marked_pair_or_none(self):
        outcome = try_embed(trial_design(5, num_ops=60), 5)
        if outcome is not None:
            marked, watermark = outcome
            assert watermark.k >= 1
            assert len(marked.temporal_edges) >= watermark.k


class TestOraclesClean:
    @pytest.mark.parametrize("trial", range(3))
    def test_schedulers(self, trial):
        assert schedulers_trial(derive_seed(2, trial, "sched")) == []

    @pytest.mark.parametrize("trial", range(3))
    def test_embed_paths(self, trial):
        assert embed_paths_trial(derive_seed(2, trial, "embed")) == []

    @pytest.mark.parametrize("trial", range(3))
    def test_windows_kernel(self, trial):
        assert windows_kernel_trial(derive_seed(2, trial, "windows")) == []

    def test_coincidence(self):
        divergences, _skipped = coincidence_trial(
            derive_seed(2, 0, "pc"), samples=4000
        )
        assert divergences == []

    def test_suite_clean_and_accounted(self):
        report = run_differential_suite(seed=2, trials=2)
        assert report.clean
        names = [outcome.name for outcome in report.outcomes]
        assert names == [
            "schedulers",
            "embed_paths",
            "windows_kernel",
            "periodic_windows",
            "kernel_vectorized",
            "locality",
            "binding",
            "rtl_roundtrip",
            "coincidence_mc",
            "attack_service",
            "embed_paths_hyper",
            "rtl_roundtrip_hyper",
        ]
        # Randomized oracles ran exactly the requested trial count.
        assert all(
            outcome.trials == 2
            for outcome in report.outcomes
            if not outcome.name.endswith("_hyper")
        )


class TestMonteCarloEstimator:
    def test_box_volume_matches_window_product(self, diamond):
        horizon = critical_path_length(diamond) + 1
        from repro.timing.windows import scheduling_windows

        windows = scheduling_windows(diamond, horizon)
        expected = 1
        for node in diamond.schedulable_operations:
            lo, hi = windows[node]
            expected *= hi - lo + 1
        assert window_box_volume(diamond, horizon) == expected

    def test_sampler_accepts_only_feasible_points(self, diamond):
        horizon = critical_path_length(diamond) + 1
        rng = random.Random(0)
        schedulable = set(diamond.schedulable_operations)
        accepted = 0
        for assignment, feasible in sample_schedule_boxes(
            diamond, horizon, samples=200, rng=rng
        ):
            assert set(assignment) == schedulable
            if not feasible:
                continue
            accepted += 1
            for src, dst in diamond.edges():
                if src in assignment and dst in assignment:
                    assert (
                        assignment[src] + diamond.latency(src)
                        <= assignment[dst]
                    )
        assert accepted > 0

    def test_monte_carlo_pc_exactness_on_forced_edge(self, diamond):
        # Constraint a -> c on the diamond: enumerable by hand, the
        # estimate must converge to the exact ratio.
        horizon = critical_path_length(diamond) + 1
        rng = random.Random(1)
        estimate = monte_carlo_pc(
            diamond, [("a", "c")], rng, horizon=horizon, samples=20000
        )
        from repro.core.coincidence import exact_pc

        exact = exact_pc(diamond, [("a", "c")], horizon=horizon)
        assert abs(estimate.pc - exact.pc) < 6 * estimate.standard_error()

    def test_monte_carlo_pc_empty_feasible_raises(self, diamond):
        rng = random.Random(2)
        with pytest.raises(WatermarkError):
            monte_carlo_pc(
                diamond, [("a", "c")], rng, samples=0
            ).pc  # no draws -> no feasible points -> undefined pc


class TestTeeth:
    """A planted off-by-one in the kernel must be caught."""

    def test_windows_oracle_catches_propagation_bug(self, monkeypatch):
        original = IncrementalWindows._propagate_edge

        def buggy(self, i, j):
            delta = original(self, i, j)
            return {
                x: (lo + 1 if x != i else lo, hi)
                for x, (lo, hi) in delta.items()
            }

        monkeypatch.setattr(IncrementalWindows, "_propagate_edge", buggy)
        divergences = []
        for trial in range(30):
            divergences += windows_kernel_trial(
                derive_seed(7, trial, "windows")
            )
        assert divergences, "off-by-one in delta propagation went unnoticed"
        assert all(isinstance(d, Divergence) for d in divergences)
        assert all(d.oracle == "windows_kernel" for d in divergences)

    def test_divergence_is_replayable_from_its_seed(self, monkeypatch):
        original = IncrementalWindows._propagate_edge

        def buggy(self, i, j):
            delta = original(self, i, j)
            return {
                x: (lo + 1 if x != i else lo, hi)
                for x, (lo, hi) in delta.items()
            }

        monkeypatch.setattr(IncrementalWindows, "_propagate_edge", buggy)
        found = None
        for trial in range(30):
            hits = windows_kernel_trial(derive_seed(7, trial, "windows"))
            if hits:
                found = hits[0]
                break
        assert found is not None
        replayed = windows_kernel_trial(found.seed)
        assert replayed and replayed[0].detail == found.detail
