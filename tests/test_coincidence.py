"""Coincidence probability: exact counts, approximations, agreement."""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import pytest

from repro.cdfg.designs import fourth_order_parallel_iir
from repro.cdfg.designs.hyper_suite import HYPER_SUITE
from repro.core.coincidence import (
    MIN_EDGE_PROBABILITY,
    ExactPc,
    approx_edge_log10,
    approx_log10_pc,
    authorship_from_log10,
    exact_pc,
    format_pc_power,
)
from repro.errors import InfeasibleScheduleError, WatermarkError
from repro.timing.windows import critical_path_length, scheduling_windows

GOLDEN_DIR = Path(__file__).parent / "golden"

#: The golden designs' factories: the motivational example plus the
#: whole HYPER suite (Table II).
GOLDEN_FACTORIES = [("iir4_parallel", fourth_order_parallel_iir)] + [
    (spec.name, spec.factory) for spec in HYPER_SUITE
]


class TestExactPc:
    def test_single_edge_on_iir(self, iir4):
        result = exact_pc(iir4, [("C6", "C3")])
        assert result.without_constraints == 576
        assert 0 < result.with_constraints < 576
        assert math.isclose(
            result.pc, result.with_constraints / 576
        )

    def test_more_edges_smaller_pc(self, iir4):
        one = exact_pc(iir4, [("C6", "C3")])
        two = exact_pc(iir4, [("C6", "C3"), ("C2", "C7")])
        assert two.pc <= one.pc

    def test_no_edges_pc_is_one(self, iir4):
        result = exact_pc(iir4, [])
        assert result.pc == 1.0
        assert result.log10_pc == 0.0

    def test_impossible_constraint(self, iir4):
        # A9 is last; nothing can be scheduled after it at horizon C.
        result = exact_pc(iir4, [("A9", "C1")])
        assert result.with_constraints == 0
        assert result.pc == 0.0
        assert result.log10_pc == float("-inf")

    def test_authorship_proof(self):
        result = ExactPc(with_constraints=15, without_constraints=166)
        assert math.isclose(result.pc, 15 / 166)
        assert math.isclose(result.authorship_proof, 1 - 15 / 166)

    def test_zero_total_raises(self):
        with pytest.raises(WatermarkError):
            ExactPc(0, 0).pc

    def test_subset_enumeration(self, iir4):
        cone = sorted(
            iir4.fanin_tree("A9", 3) & set(iir4.schedulable_operations)
        )
        result = exact_pc(iir4, [("C4", "C8")], nodes=cone)
        assert result.without_constraints > result.with_constraints > 0

    def test_constraint_outside_subset_raises(self, iir4):
        from repro.errors import SchedulingError

        cone = sorted(
            iir4.fanin_tree("A9", 3) & set(iir4.schedulable_operations)
        )
        assert "C6" not in cone  # distance 4 from A9
        with pytest.raises(SchedulingError):
            exact_pc(iir4, [("C6", "C3")], nodes=cone)


class TestApproxPc:
    def test_edge_log10_negative(self, iir4):
        windows = scheduling_windows(iir4, critical_path_length(iir4))
        value = approx_edge_log10(windows, "C6", "C3")
        assert value < 0

    def test_unknown_edge_raises(self, iir4):
        windows = scheduling_windows(iir4, critical_path_length(iir4))
        with pytest.raises(WatermarkError):
            approx_edge_log10(windows, "ghost", "C3")

    def test_impossible_order_floored(self, iir4):
        windows = scheduling_windows(iir4, critical_path_length(iir4))
        value = approx_edge_log10(windows, "A9", "C1")
        assert value == math.log10(MIN_EDGE_PROBABILITY)

    def test_sums_over_edges(self, iir4):
        single = approx_log10_pc(iir4, [("C6", "C3")])
        double = approx_log10_pc(iir4, [("C6", "C3"), ("C2", "C7")])
        assert double < single < 0

    def test_uniform_vs_poisson_models(self, iir4):
        edges = [("C6", "C3")]
        uniform = approx_log10_pc(iir4, edges, model="uniform")
        poisson = approx_log10_pc(iir4, edges, model="poisson")
        assert uniform < 0 and poisson < 0
        assert uniform != poisson

    def test_tracks_exact_within_order_of_magnitude(self, iir4):
        # The Poisson approximation should land within ~1 decade of the
        # exact ratio for single-edge constraints at horizon C.
        for edge in [("C6", "C3"), ("C2", "C7"), ("C4", "C8")]:
            exact = exact_pc(iir4, [edge]).log10_pc
            approx = approx_log10_pc(iir4, [edge], model="uniform")
            assert abs(exact - approx) < 1.0, edge


def _golden_edges(design_name: str):
    path = GOLDEN_DIR / f"{design_name}.json"
    if not path.exists():
        return []
    record = json.loads(path.read_text())["record"]
    return [tuple(edge) for edge in record["temporal_edges"]]


class TestEndpointWindows:
    """``approx_log10_pc`` reads only the edges' endpoint windows."""

    @pytest.mark.parametrize(
        "factory",
        [factory for _, factory in GOLDEN_FACTORIES],
        ids=[name for name, _ in GOLDEN_FACTORIES],
    )
    def test_equals_whole_map_on_hyper(self, factory):
        design = factory()
        rng = random.Random(design.name)
        ops = sorted(design.schedulable_operations)
        edges = _golden_edges(design.name) + [
            tuple(rng.sample(ops, 2)) for _ in range(24)
        ]
        cp = critical_path_length(design)
        for horizon in (cp, cp + 3):
            windows = scheduling_windows(design, horizon)
            for model in ("poisson", "uniform"):
                whole_map = sum(
                    approx_edge_log10(windows, src, dst, model=model)
                    for src, dst in edges
                )
                assert approx_log10_pc(
                    design, edges, horizon=horizon, model=model
                ) == whole_map

    @pytest.mark.parametrize(
        "edge", [("ghost", "C3"), ("C6", "ghost")], ids=["src", "dst"]
    )
    def test_unknown_endpoint_raises(self, iir4, edge):
        with pytest.raises(WatermarkError, match="outside the window map"):
            approx_log10_pc(iir4, [("C6", "C3"), edge])

    def test_short_horizon_raises_before_endpoints(self, iir4):
        cp = critical_path_length(iir4)
        with pytest.raises(InfeasibleScheduleError):
            approx_log10_pc(iir4, [("ghost", "C3")], horizon=cp - 1)


class TestHelpers:
    def test_authorship_from_log10(self):
        assert authorship_from_log10(-20) == 1.0
        assert math.isclose(authorship_from_log10(-1), 0.9)
        assert authorship_from_log10(0.0) == 0.0

    def test_format_pc_power(self):
        assert format_pc_power(-26.2) == "10^-26"
        assert format_pc_power(float("-inf")) == "0"
