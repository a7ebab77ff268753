"""Incremental timing kernel: view caching, invalidation, delta windows.

The kernel's contract is twofold: (1) the cached CDFGView is always in
sync with the graph — every mutator invalidates it; (2) incrementally
maintained windows are bit-identical to a full recompute after every
temporal-edge insertion.  Both halves are exercised here, the second
also as a hypothesis property over random designs and edge sequences.
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdfg.generators import random_layered_cdfg
from repro.cdfg.graph import CDFG, EdgeKind
from repro.cdfg.ops import OpType
from repro.errors import InfeasibleScheduleError
from repro.scheduling.force_directed import _tighten
from repro.timing.kernel import IncrementalWindows, edge_sequence_windows
from repro.timing.paths import laxity
from repro.timing.windows import (
    asap_schedule,
    critical_path_length,
    scheduling_windows,
)
from repro.util.perf import PERF


def chain(*latencies: int) -> CDFG:
    g = CDFG("chain")
    prev = None
    for i, lat in enumerate(latencies):
        name = f"n{i}"
        g.add_operation(name, OpType.ADD, latency=lat)
        if prev is not None:
            g.add_data_edge(prev, name)
        prev = name
    return g


class TestViewCache:
    def test_view_is_reused_between_queries(self, iir4):
        assert iir4.view() is iir4.view()
        asap_schedule(iir4)
        critical_path_length(iir4)
        assert iir4.view() is iir4.view()

    def test_add_operation_invalidates(self, iir4):
        before = iir4.view()
        schedulable = iir4.schedulable_operations
        iir4.add_operation("fresh", OpType.ADD)
        after = iir4.view()
        assert after is not before
        assert "fresh" in iir4.schedulable_operations
        assert "fresh" not in schedulable

    @pytest.mark.parametrize(
        "kind", [EdgeKind.DATA, EdgeKind.CONTROL, EdgeKind.TEMPORAL]
    )
    def test_each_edge_kind_invalidates(self, kind):
        g = chain(1, 1)
        g.add_operation("x", OpType.ADD)
        windows = scheduling_windows(g, critical_path_length(g))
        assert windows["x"] != windows["n1"]
        g.add_edge("n0", "x", kind)
        # The cached view must refresh: x now starts after n0.
        updated = scheduling_windows(g, critical_path_length(g))
        assert updated["x"][0] == 1

    def test_data_edge_refreshes_primary_io(self):
        g = chain(1, 1)
        g.add_operation("x", OpType.ADD)
        assert "x" in g.primary_inputs
        assert "x" in g.primary_outputs
        g.add_data_edge("n1", "x")
        assert "x" not in g.primary_inputs
        assert "n1" not in g.primary_outputs

    def test_set_ppo_bumps_version(self, iir4):
        node = iir4.schedulable_operations[0]
        version = iir4.mutation_count
        before = iir4.view()
        iir4.set_ppo(node, True)
        assert iir4.mutation_count == version + 1
        assert iir4.view() is not before

    def test_remove_edge_and_operation_invalidate(self):
        g = chain(1, 1, 1)
        assert scheduling_windows(g, 3)["n2"] == (2, 2)
        g.remove_edge("n1", "n2")
        assert scheduling_windows(g, 3)["n2"] == (0, 2)
        g.remove_operation("n2")
        assert "n2" not in g.view().nodes

    def test_set_op_keeps_latency(self):
        g = chain(1, 1)
        g.set_op("n0", OpType.MUL)
        assert g.op("n0") is OpType.MUL
        assert g.latency("n0") == 1
        assert g.view().latency[0] == 1

    def test_critical_path_follows_a_patched_temporal_edge(self):
        g = chain(1, 1)
        g.add_operation("x", OpType.ADD)
        inc = IncrementalWindows(g, horizon=3)
        view = g.view()
        assert view.critical_path_length() == 2  # memoized from here on
        inc.add_edge("n1", "x", EdgeKind.TEMPORAL)
        # The view was patched in place (apply_edge), not rebuilt, and
        # the memoized critical path went with the ASAP array.
        assert g.view() is view
        assert view.critical_path_length() == 3
        assert critical_path_length(g) == 3

    def test_pickle_drops_cached_view(self, iir4):
        iir4.view()
        clone = pickle.loads(pickle.dumps(iir4))
        assert clone._view is None
        assert scheduling_windows(clone, critical_path_length(clone)) == (
            scheduling_windows(iir4, critical_path_length(iir4))
        )


class TestIncrementalWindows:
    def test_matches_full_on_construction(self, iir4):
        horizon = critical_path_length(iir4) + 2
        iw = IncrementalWindows(iir4, horizon)
        assert iw.windows() == scheduling_windows(iir4, horizon)

    def test_add_edge_matches_full_recompute(self, iir4):
        horizon = critical_path_length(iir4)
        marked = iir4.copy()
        iw = IncrementalWindows(marked, horizon)
        candidates = [
            (u, v)
            for u in marked.schedulable_operations
            for v in marked.schedulable_operations
            if u != v
        ]
        added = 0
        for u, v in candidates:
            if added >= 6:
                break
            if marked.graph.has_edge(u, v) or not iw.can_add_edge(u, v):
                continue
            try:
                iw.add_edge(u, v)
            except Exception:
                continue
            added += 1
            iw.assert_consistent()
        assert added > 0

    def test_infeasible_edge_rejected_before_mutation(self):
        g = chain(1, 1, 1)
        iw = IncrementalWindows(g, 3)  # zero slack everywhere
        with pytest.raises(InfeasibleScheduleError):
            iw.add_edge("n2", "n0")
        assert not g.graph.has_edge("n2", "n0")
        assert iw.windows() == scheduling_windows(g, 3)

    def test_can_add_edge_predicts_feasibility(self):
        g = chain(1, 1)
        g.add_operation("x", OpType.ADD)
        iw = IncrementalWindows(g, 2)
        assert iw.can_add_edge("n0", "x")
        assert iw.can_add_edge("x", "n1")
        assert not iw.can_add_edge("n1", "x")  # n1 ends at the horizon

    def test_matches_reference_edge_sequence(self, iir4):
        horizon = critical_path_length(iir4)
        ops = list(iir4.schedulable_operations)
        rng = random.Random(7)
        incremental = iir4.copy()
        iw = IncrementalWindows(incremental, horizon)
        applied = []
        for _ in range(200):
            u, v = rng.sample(ops, 2)
            if incremental.graph.has_edge(u, v) or not iw.can_add_edge(u, v):
                continue
            try:
                iw.add_edge(u, v)
            except Exception:
                continue
            applied.append((u, v))
            if len(applied) >= 5:
                break
        assert applied
        reference = edge_sequence_windows(iir4.copy(), horizon, applied)
        assert iw.windows() == reference

    def test_delta_tighten_matches_reference_tighten(self, iir4):
        horizon = critical_path_length(iir4) + 1
        iw = IncrementalWindows(iir4, horizon)
        windows = iw.windows()
        nodes = iir4.view().nodes
        for node in iir4.schedulable_operations:
            lo, hi = windows[node]
            for step in range(lo, hi + 1):
                try:
                    expected = _tighten(iir4, windows, node, (step, step))
                except InfeasibleScheduleError:
                    with pytest.raises(InfeasibleScheduleError):
                        iw.delta_tighten(node, (step, step))
                    continue
                delta = iw.delta_tighten(node, (step, step))
                merged = dict(windows)
                for index, window in delta.items():
                    merged[nodes[index]] = window
                assert merged == expected
                # The delta holds exactly the changed nodes.
                for index in delta:
                    assert delta[index] != windows[nodes[index]]

    def test_perf_counters_track_incremental_work(self, iir4):
        PERF.reset()
        horizon = critical_path_length(iir4)
        iw = IncrementalWindows(iir4, horizon)
        ops = iir4.schedulable_operations
        added = 0
        for u in ops:
            for v in ops:
                if u == v or iir4.graph.has_edge(u, v):
                    continue
                if not iw.can_add_edge(u, v):
                    continue
                try:
                    iw.add_edge(u, v)
                except Exception:
                    continue
                added += 1
                break
            if added:
                break
        assert added == 1
        assert PERF.get("kernel.window_incremental_updates") == 1
        assert PERF.get("kernel.window_recomputes_avoided") == 1
        assert PERF.get("kernel.window_nodes_touched") >= 1


class TestLaxityThreading:
    def test_precomputed_asap_equivalent(self, iir4):
        horizon = critical_path_length(iir4)
        windows = scheduling_windows(iir4, horizon)
        asap = {n: w[0] for n, w in windows.items()}
        assert laxity(iir4, asap=asap) == laxity(iir4)


class TestIncrementalProperty:
    @given(st.integers(15, 60), st.integers(0, 300), st.integers(0, 3))
    @settings(max_examples=25, deadline=None)
    def test_incremental_equals_full_random_sequences(
        self, num_ops, seed, slack
    ):
        graph = random_layered_cdfg(num_ops, seed)
        horizon = critical_path_length(graph) + slack
        iw = IncrementalWindows(graph, horizon)
        ops = list(graph.schedulable_operations)
        rng = random.Random(seed ^ 0xC0FFEE)
        inserted = 0
        for _ in range(40):
            if len(ops) < 2:
                break
            u, v = rng.sample(ops, 2)
            if graph.graph.has_edge(u, v):
                continue
            if not iw.can_add_edge(u, v):
                # The O(1) screen must agree with the full recompute:
                # adding u->v (if acyclic) would empty some window.
                continue
            try:
                iw.add_edge(u, v)
            except Exception:
                continue  # duplicate/cycle rejected by the CDFG itself
            inserted += 1
            iw.assert_consistent()
        if inserted:
            full = scheduling_windows(graph, horizon)
            assert iw.windows() == full
