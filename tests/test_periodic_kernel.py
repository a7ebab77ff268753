"""Periodic (modulo-II) timing kernel: properties, teeth, hygiene.

The modulo kernel claims its steady-state windows are *bit-identical*
to an honest iteration-unrolling recompute at every feasible II.  These
tests pin that claim with hypothesis properties over random cyclic
CDFGs, regression-test the O(1) cycle check for positive-distance
edges, prove the ``periodic_windows`` oracle has teeth with a planted
off-by-one in the ``II*distance`` fold, and check the pickle/cache
hygiene of cyclic designs.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cdfg.builder import CDFGBuilder
from repro.cdfg.designs import PERIODIC_SUITE, cyclic_iir_biquad
from repro.cdfg.generators import random_cyclic_cdfg
from repro.errors import CDFGError, CycleError, InfeasibleScheduleError
from repro.timing.unrolled import unrolled_min_ii, unrolled_reference_windows
from repro.timing.windows import (
    periodic_critical_path_length,
    periodic_scheduling_windows,
)
from repro.util.perf import PERF
from repro.verify import cycles as cycles_ref
from repro.verify import differential
from repro.verify.differential import periodic_windows_trial


class TestModuloEqualsUnrolled:
    """The tentpole equivalence, as a hypothesis property."""

    @given(st.integers(0, 100_000))
    @settings(max_examples=25, deadline=None)
    def test_windows_match_at_three_iis(self, seed):
        design = random_cyclic_cdfg(24 + seed % 25, seed=seed)
        mii = design.view().min_ii()
        for ii in (mii, mii + 1, mii + 4):
            horizon = periodic_critical_path_length(design, ii) + seed % 3
            kernel = periodic_scheduling_windows(design, horizon, ii)
            reference = unrolled_reference_windows(design, horizon, ii)
            assert kernel == reference

    @given(st.integers(0, 100_000))
    @settings(max_examples=15, deadline=None)
    # Staircase recurrences (total distance > 1) on which adjacent
    # unrolled copies agree at an infeasible II; a reference that judged
    # convergence from two copies accepted II=1 where the minimum is 2.
    @example(33)
    @example(210)
    @example(286)
    @example(424)
    @example(2312)
    def test_min_ii_matches_linear_scan(self, seed):
        design = random_cyclic_cdfg(20 + seed % 12, seed=seed)
        assert design.view().min_ii() == unrolled_min_ii(design)

    def test_suite_designs_match(self):
        for spec in PERIODIC_SUITE:
            design = spec.factory()
            mii = design.view().min_ii()
            horizon = periodic_critical_path_length(design, mii)
            assert periodic_scheduling_windows(
                design, horizon, mii
            ) == unrolled_reference_windows(design, horizon, mii)

    def test_below_min_ii_both_refuse(self):
        design = cyclic_iir_biquad()
        mii = design.view().min_ii()
        assert mii == 3
        horizon = periodic_critical_path_length(design, mii) + 4
        with pytest.raises(InfeasibleScheduleError):
            periodic_scheduling_windows(design, horizon, mii - 1)
        with pytest.raises(InfeasibleScheduleError):
            unrolled_reference_windows(design, horizon, mii - 1)


class TestCycleCheck:
    """Positive-distance edges skip the DFS; distance-0 stays guarded."""

    def _chain(self):
        b = CDFGBuilder("chain")
        x = b.input("x")
        a = b.const_mul(x, "a")
        c = b.const_mul(a, "c")
        b.output(c, "y")
        return b.build()

    def test_distance0_cycle_still_raises(self):
        g = self._chain()
        with pytest.raises(CycleError):
            g.add_data_edge("c", "a")

    def test_distance0_self_loop_raises(self):
        g = self._chain()
        with pytest.raises(CDFGError):
            g.add_data_edge("a", "a")

    def test_distance1_self_loop_accepted(self):
        g = self._chain()
        g.add_data_edge("a", "a", distance=1)
        g.validate()
        assert g.has_back_edges
        assert g.view().min_ii() == 1

    def test_positive_distance_back_edge_accepted(self):
        g = self._chain()
        g.add_data_edge("c", "a", distance=2)
        g.validate()
        assert ("c", "a", 2) in g.back_edges
        # cycle a -> c -> a: 2 unit latencies over distance 2 => MII 1
        assert g.view().min_ii() == 1

    def test_acyclic_fast_path_unchanged(self):
        # Forward distance-0 edges still pass, duplicates still raise,
        # and a graph that never saw a positive distance stays acyclic
        # through the plain DFS check.
        g = self._chain()
        g.add_control_edge("x", "c")
        with pytest.raises(CDFGError):
            g.add_data_edge("a", "c")  # duplicate pair
        assert not g.has_back_edges
        g.validate()

    def test_distance0_cycle_raises_even_when_cyclic(self):
        # The skeleton DAG guard holds after back edges exist.
        g = self._chain()
        g.add_data_edge("c", "a", distance=1)
        with pytest.raises(CycleError):
            g.add_control_edge("c", "x")


class TestCycleLeg:
    """Third min-II leg: max ceil(L/D) over enumerated simple cycles."""

    @pytest.mark.parametrize("seed", [33, 210, 286, 424, 2312])
    def test_staircase_seeds(self, seed):
        design = random_cyclic_cdfg(20 + seed % 12, seed=seed)
        assert cycles_ref.reference_cycle_min_ii(design) == 2
        assert design.view().min_ii() == 2

    def test_suite_designs(self):
        for spec in PERIODIC_SUITE:
            design = spec.factory()
            assert cycles_ref.reference_cycle_min_ii(
                design
            ) == design.view().min_ii(), design.name

    def test_acyclic_and_self_loop(self):
        g = TestCycleCheck()._chain()
        assert cycles_ref.reference_cycle_min_ii(g) == 1
        g.add_data_edge("a", "a", distance=1)
        assert list(cycles_ref.cycle_totals(g)) == [(g.latency("a"), 1)]
        assert cycles_ref.reference_cycle_min_ii(g) == g.latency("a")

    def test_oracle_runs_the_leg_on_small_designs(self):
        before = PERF.get("verify.periodic_windows.cycle_legs")
        for trial in range(10):
            differential.oracle_periodic_windows(7, trial)
        assert PERF.get("verify.periodic_windows.cycle_legs") > before


class TestOracle:
    def test_trials_clean(self):
        for trial in range(10):
            seed = differential.derive_seed(7, trial, "periodic")
            assert periodic_windows_trial(seed) == []

    def test_teeth_reference_floors_cycle_ratio(self, monkeypatch):
        # A reference-side bug: floor(L/D) accepts an II below the
        # staircase recurrence's true bound.
        def floor_min_ii(cdfg):
            return max(
                [1, *(lat // dist for lat, dist in cycles_ref.cycle_totals(cdfg))]
            )

        monkeypatch.setattr(
            cycles_ref, "reference_cycle_min_ii", floor_min_ii
        )
        divergences = [
            d
            for trial in range(20)
            for d in differential.oracle_periodic_windows(7, trial)
        ]
        assert divergences, "a floored cycle bound went unnoticed"
        assert all("simple-cycle bound" in d.detail for d in divergences)

    def test_teeth_off_by_one_distance(self, monkeypatch):
        # Plant an off-by-one into the kernel side of the oracle only:
        # every back edge folds as II*(d+1) instead of II*d.  The
        # unrolled reference is untouched, so the oracle must notice.
        def buggy_kernel_windows(design, horizon, ii):
            copy = design.copy()
            view = copy.view()
            succs, preds = view._back_adj()

            def skew(adj):
                return {
                    i: [(j, d + 1) for j, d in pairs]
                    for i, pairs in adj.items()
                }

            # Overwrite the memoized adjacency the modulo sweeps fold.
            view._back_succs = skew(succs)
            view._back_preds = skew(preds)
            return periodic_scheduling_windows(copy, horizon, ii)

        monkeypatch.setattr(
            differential, "periodic_scheduling_windows", buggy_kernel_windows
        )
        divergences = []
        for trial in range(10):
            seed = differential.derive_seed(7, trial, "periodic")
            try:
                divergences += periodic_windows_trial(seed)
            except InfeasibleScheduleError:
                # Also teeth: the skewed fold can push a feasible II
                # into (apparent) infeasibility on the kernel side.
                divergences.append("kernel-side infeasibility")
        assert divergences, "planted II*distance off-by-one went unnoticed"


class TestPickleHygiene:
    """Periodic caches are dropped on pickle and rebuilt identically."""

    def test_roundtrip_drops_and_rebuilds_caches(self):
        design = cyclic_iir_biquad()
        mii = design.view().min_ii()
        horizon = periodic_critical_path_length(design, mii)
        before = periodic_scheduling_windows(design, horizon, mii)
        # Populate every lazy cache: the view's modulo memos and the
        # graph's back-edge memo.
        assert design.view()._modulo_asap_memo
        assert design.has_back_edges
        assert design._periodic_cache is not None

        state = design.__getstate__()
        assert state["_view"] is None
        assert state["_periodic_cache"] is None
        assert "_rtl_names" not in state

        clone = pickle.loads(pickle.dumps(design))
        assert clone._view is None
        assert clone._periodic_cache is None
        # Rebuilt caches reproduce the exact same analysis results.
        assert clone.view().min_ii() == mii
        assert clone.view().back_edges == design.view().back_edges
        assert periodic_scheduling_windows(clone, horizon, mii) == before

    def test_mutation_invalidates_periodic_cache(self):
        design = cyclic_iir_biquad()
        edges_before = design.back_edges
        design.add_data_edge("Ay", "Cb0", distance=3)
        assert len(design.back_edges) == len(edges_before) + 1
        assert ("Ay", "Cb0", 3) in design.back_edges
