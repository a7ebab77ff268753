"""Domain selection once per design: the hoisted root scan, the shared
locality index, the budgeted scan, and the ``locality`` oracle.

Candidate roots cannot change between domain retries (localities ignore
temporal edges), so one embed scans the design once.  Every locality
walk reads one integer :class:`~repro.cdfg.graph.LocalityIndex` per
design skeleton, which survives temporal-edge insertion and is rebuilt
by any data/control change.  The ``locality`` differential oracle keeps
it honest against per-node networkx walks, with planted bugs on both
sides.
"""

from __future__ import annotations

import pickle

import pytest

import repro.core.domain
import repro.core.scheduling_wm
from repro.cdfg import graph
from repro.cdfg.designs.synthetic import stitched_hyper_composite
from repro.cdfg.graph import EdgeKind
from repro.cdfg.io import save
from repro.cli import main
from repro.core.domain import DomainParams, candidate_roots
from repro.core.scheduling_wm import SchedulingWatermarker, SchedulingWMParams
from repro.errors import BudgetExceededError
from repro.resilience.budget import Budget
from repro.verify import differential
from repro.verify import locality as locality_ref
from repro.verify.suites import DIFFERENTIAL_ORACLES


@pytest.fixture(scope="module")
def composite():
    return stitched_hyper_composite(5000, seed=20)


def _count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` so every call is counted; returns the count
    list (one entry per call)."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestHoist:
    def test_one_embed_scans_candidate_roots_once(self, iir4, alice, monkeypatch):
        scans = _count_calls(
            monkeypatch, repro.core.scheduling_wm, "candidate_roots"
        )
        inner = _count_calls(monkeypatch, repro.core.domain, "candidate_roots")
        selections = _count_calls(
            monkeypatch, repro.core.scheduling_wm, "select_root_and_domain"
        )
        # K=8 on the 4th-order IIR exhausts every domain retry.
        SchedulingWatermarker(alice, SchedulingWMParams(k=8)).embed(iir4)
        assert len(selections) > 1
        assert len(scans) == 1
        assert inner == []

    def test_forced_root_embed_never_scans(self, iir4, alice, monkeypatch):
        scans = _count_calls(
            monkeypatch, repro.core.scheduling_wm, "candidate_roots"
        )
        inner = _count_calls(monkeypatch, repro.core.domain, "candidate_roots")
        marker = SchedulingWatermarker(alice, SchedulingWMParams(k=3))
        _, record = marker.embed(iir4)
        scans.clear()
        _, forced = marker.embed(iir4, forced_root=record.root)
        assert forced.root == record.root
        assert scans == [] and inner == []


class TestIndexLifetime:
    def test_temporal_edge_keeps_the_index(self, iir4):
        index = iir4.locality_index()
        order = iir4.topological_order()
        iir4.add_temporal_edge(order[2], order[-2])
        assert iir4.locality_index() is index
        iir4.remove_edge(order[2], order[-2])
        assert iir4.locality_index() is index

    def test_data_edge_rebuilds_the_index(self, iir4):
        index = iir4.locality_index()
        order = iir4.topological_order()
        src, dst = order[0], order[-1]
        iir4.add_data_edge(src, dst)
        rebuilt = iir4.locality_index()
        assert rebuilt is not index
        assert rebuilt.index[src] in rebuilt.preds[rebuilt.index[dst]]
        iir4.remove_edge(src, dst)
        assert iir4.locality_index() is not rebuilt

    def test_latency_and_ppo_keep_it_op_change_rebuilds(self, iir4):
        from repro.cdfg.ops import OpType

        index = iir4.locality_index()
        node = iir4.schedulable_operations[0]
        iir4.set_latency(node, 3)
        iir4.set_ppo(node)
        assert iir4.locality_index() is index
        iir4.set_op(node, OpType.SUB)
        assert iir4.locality_index() is not index

    def test_copies_share_pickles_drop(self, iir4):
        index = iir4.locality_index()
        marked = iir4.copy()
        order = marked.topological_order()
        marked.add_temporal_edge(order[1], order[-1])
        assert marked.locality_index() is index
        assert marked.without_temporal_edges().locality_index() is index
        assert pickle.loads(pickle.dumps(iir4))._locality is None
        assert iir4.__getstate__()["_locality"] is None
        # A networkx copy may list predecessors in another order; the
        # locality walks never depend on it.
        clone = pickle.loads(pickle.dumps(marked)).locality_index()
        assert clone.nodes == index.nodes
        assert list(map(sorted, clone.preds)) == list(map(sorted, index.preds))

    def test_index_follows_only_skeleton_data_and_control(self):
        from repro.cdfg.designs import cyclic_iir_biquad

        design = cyclic_iir_biquad()
        index = design.locality_index()
        for u, v, attrs in design.graph.edges(data=True):
            followed = index.index[u] in index.preds[index.index[v]]
            assert followed == (
                attrs["kind"] is not EdgeKind.TEMPORAL
                and not attrs.get("distance", 0)
            )


    def test_fuzzer_catches_a_missed_skeleton_bump(self, monkeypatch):
        from repro.verify import fuzz

        def set_op_without_skeleton_bump(self, name, op):
            self._require(name)
            self._g.nodes[name]["op"] = op
            self._bump(skeleton=False)

        monkeypatch.setattr(graph.CDFG, "set_op", set_op_without_skeleton_bump)
        divergences = [
            d for trial in range(10) for d in fuzz.oracle_view_cache(7, trial)[0]
        ]
        assert any("locality index" in d.detail for d in divergences)


class TestBudgetedScan:
    def test_scan_stops_inside_on_a_composite(self, composite, monkeypatch):
        def finished_scan(*args, **kwargs):
            raise AssertionError("the scan ran to completion")

        monkeypatch.setattr(repro.core.domain, "structural_hashes", finished_scan)
        budget = Budget(node_limit=100)
        with pytest.raises(BudgetExceededError, match="candidate_roots"):
            candidate_roots(composite, DomainParams(), budget)
        assert budget.nodes == 101

    def test_embed_charges_the_scan(self, composite, alice):
        marker = SchedulingWatermarker(alice, SchedulingWMParams())
        with pytest.raises(BudgetExceededError, match="candidate_roots"):
            marker.embed(composite, budget=Budget(node_limit=100))

    def test_cli_budget_stops_in_the_scan(self, composite, tmp_path, capsys):
        design = tmp_path / "composite.json"
        save(composite, design)
        code = main(
            [
                "embed",
                "--design", str(design),
                "--author", "Alice Inc.",
                "--out", str(tmp_path / "marked.json"),
                "--record", str(tmp_path / "wm.json"),
                "--budget-ms", "1",
            ]
        )
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: candidate_roots: deadline exceeded")
        assert not (tmp_path / "marked.json").exists()


class TestLocalityOracle:
    def test_registered_and_clean(self):
        assert DIFFERENTIAL_ORACLES["locality"] is differential.oracle_locality
        for trial in range(10):
            assert differential.oracle_locality(7, trial) == []

    def test_teeth_production_follows_temporal_edges(self, monkeypatch):
        monkeypatch.setattr(graph, "_LOCALITY_KINDS", frozenset(EdgeKind))
        divergences = [
            d for trial in range(5) for d in differential.oracle_locality(7, trial)
        ]
        assert divergences, "index following temporal edges went unnoticed"
        assert all(d.design.endswith(".temporal") for d in divergences)

    def test_teeth_reference_follows_back_edges(self, monkeypatch):
        kinds = locality_ref._LOCALITY_KINDS
        monkeypatch.setattr(
            locality_ref,
            "_preds",
            lambda cdfg, node: cdfg.predecessors(node, kinds=kinds),
        )
        monkeypatch.setattr(
            locality_ref,
            "_succs",
            lambda cdfg, node: cdfg.successors(node, kinds=kinds),
        )
        divergences = [
            d for trial in range(5) for d in differential.oracle_locality(7, trial)
        ]
        assert divergences, "reference following back edges went unnoticed"
        assert all(d.design.startswith("cyclic") for d in divergences)
