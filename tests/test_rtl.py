"""Binding, FSM controllers, and the §II reverse-engineering loop."""

from __future__ import annotations

import random

import pytest

import repro.rtl.binding as binding_mod
from repro.cdfg.builder import CDFGBuilder
from repro.cdfg.designs.hyper_suite import HYPER_SUITE
from repro.cdfg.generators import random_layered_cdfg
from repro.cdfg.graph import CDFG
from repro.cdfg.ops import OpType, ResourceClass
from repro.core.domain import DomainParams
from repro.core.scheduling_wm import SchedulingWatermarker, SchedulingWMParams
from repro.errors import SchedulingError
from repro.rtl import (
    Controller,
    ControllerError,
    bind,
    datapath_summary,
    left_edge_registers,
    recover_schedule,
    recovered_schedule_for,
    synthesize_controller,
    variable_lifetimes,
)
from repro.rtl.binding import Binding, Lifetime
from repro.scheduling.list_scheduler import list_schedule
from repro.scheduling.schedule import Schedule
from repro.timing.windows import critical_path_length
from repro.verify import binding as binding_ref
from repro.verify import differential
from repro.verify.suites import DIFFERENTIAL_ORACLES


def _lifetime_design(spans):
    """A design plus schedule whose variables live exactly *spans*.

    Each ``name: (birth, death)`` becomes an input placed at ``birth``
    (latency 0) with one consumer started at ``death - 1``.
    """
    g = CDFG("spans")
    start_times = {}
    for name, (birth, death) in spans.items():
        g.add_operation(name, OpType.INPUT)
        g.add_operation(f"{name}_use", OpType.ADD, latency=1)
        g.add_data_edge(name, f"{name}_use")
        start_times[name] = birth
        start_times[f"{name}_use"] = death - 1
    return g, Schedule(start_times)


class TestLifetimes:
    def test_simple_chain(self, chain5):
        schedule = list_schedule(chain5)
        lifetimes = {
            lt.variable: lt for lt in variable_lifetimes(chain5, schedule)
        }
        # x is born at 0 (latency-0 input) and consumed by n0 at step 0.
        assert lifetimes["x"].birth == 0
        # n0's value is live until n1 starts.
        assert lifetimes["n0"].birth == 1
        assert lifetimes["n0"].death == 2

    def test_output_lives_one_step(self, iir4):
        schedule = list_schedule(iir4)
        lifetimes = {
            lt.variable: lt for lt in variable_lifetimes(iir4, schedule)
        }
        a9 = lifetimes["A9"]
        # A9 feeds only the OUTPUT placeholder at the same step it is born.
        assert a9.death >= a9.birth + 1

    def test_overlap_predicate(self):
        a = Lifetime("a", 0, 3)
        b = Lifetime("b", 2, 5)
        c = Lifetime("c", 3, 4)
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c)


class TestLeftEdge:
    def test_disjoint_intervals_share_register(self):
        assignment = left_edge_registers(
            [Lifetime("a", 0, 2), Lifetime("b", 2, 4), Lifetime("c", 4, 6)]
        )
        assert len(set(assignment.values())) == 1

    def test_overlapping_intervals_split(self):
        assignment = left_edge_registers(
            [Lifetime("a", 0, 4), Lifetime("b", 1, 5), Lifetime("c", 2, 6)]
        )
        assert len(set(assignment.values())) == 3

    def test_optimal_count_equals_max_overlap(self):
        lifetimes = [
            Lifetime("a", 0, 3),
            Lifetime("b", 1, 4),
            Lifetime("c", 3, 6),
            Lifetime("d", 4, 7),
        ]
        assignment = left_edge_registers(lifetimes)
        assert len(set(assignment.values())) == 2  # max concurrent = 2


class TestBinding:
    def test_binding_verifies(self, iir4):
        schedule = list_schedule(iir4)
        binding = bind(iir4, schedule)
        binding.verify(iir4, schedule)

    def test_units_match_schedule_concurrency(self, iir4):
        schedule = list_schedule(iir4)
        binding = bind(iir4, schedule)
        implied = schedule.implied_units(iir4)
        for cls, count in binding.units_per_class().items():
            assert count == implied[cls]

    def test_registers_positive(self, iir4):
        binding = bind(iir4, list_schedule(iir4))
        assert binding.num_registers >= 1

    def test_verify_catches_unit_conflict(self, diamond):
        schedule = list_schedule(diamond)
        binding = bind(diamond, schedule)
        # Force both const-muls onto one unit at the same step.
        binding.unit_of["a"] = (ResourceClass.MULTIPLIER, 0)
        binding.unit_of["c"] = (ResourceClass.MULTIPLIER, 0)
        if schedule.start("a") == schedule.start("c"):
            with pytest.raises(SchedulingError, match="unit conflict"):
                binding.verify(diamond, schedule)

    def test_verify_catches_register_conflict(self, diamond):
        schedule = list_schedule(diamond)
        binding = bind(diamond, schedule)
        binding.register_of["a"] = 0
        binding.register_of["c"] = 0
        if schedule.start("a") == schedule.start("c"):
            with pytest.raises(SchedulingError, match="register conflict"):
                binding.verify(diamond, schedule)

    @pytest.mark.parametrize(
        "registers",
        [
            {"a": 0, "b": 0, "c": 0},
            # b on another register still sits between a and c in birth
            # order: a sweep that only compares neighbours misses a–c.
            {"a": 0, "b": 1, "c": 0},
        ],
        ids=["same-register", "other-register-between"],
    )
    def test_verify_catches_conflict_hidden_behind_longer_lifetime(
        self, registers
    ):
        spans = {"a": (0, 10), "b": (1, 2), "c": (5, 6)}
        design, schedule = _lifetime_design(spans)
        lifetimes = {
            lt.variable: lt for lt in variable_lifetimes(design, schedule)
        }
        assert [(lifetimes[v].birth, lifetimes[v].death) for v in spans] == [
            (0, 10), (1, 2), (5, 6),
        ]
        register_of = {v: 2 + i for i, v in enumerate(lifetimes)}
        register_of.update(registers)
        binding = Binding(register_of=register_of)
        with pytest.raises(SchedulingError, match="register conflict: 'a'"):
            binding.verify(design, schedule)
        with pytest.raises(SchedulingError, match="register conflict: 'a'"):
            binding_ref.reference_verify(binding, design, schedule)

    def test_random_graphs_bind(self):
        for seed in range(4):
            g = random_layered_cdfg(40, seed=seed)
            schedule = list_schedule(g)
            bind(g, schedule).verify(g, schedule)


class TestBindingReference:
    """Production binding equals the reference scans, field for field."""

    @pytest.mark.parametrize(
        "factory",
        [spec.factory for spec in HYPER_SUITE],
        ids=[spec.name for spec in HYPER_SUITE],
    )
    def test_hyper_list_schedule(self, factory):
        # The suite ends with the 6,418-op Long Echo Canceler.
        design = factory()
        schedule = list_schedule(design)
        binding = bind(design, schedule)
        expected = binding_ref.reference_bind(design, schedule)
        assert binding.unit_of == expected.unit_of
        assert binding.register_of == expected.register_of

    def test_left_edge_matches_track_by_track(self):
        rng = random.Random(3)
        for _ in range(50):
            lifetimes = []
            for i in range(rng.randint(1, 40)):
                birth = rng.randint(0, 20)
                death = birth + rng.randint(1, 6)
                lifetimes.append(Lifetime(f"v{i}", birth, death))
            assert left_edge_registers(lifetimes) == (
                binding_ref.reference_left_edge(lifetimes)
            )


def _adjacent_pairs_only(lifetimes, register_of):
    """Planted bug: compare each lifetime with its birth-order neighbour."""
    previous = None
    for lifetime in sorted(lifetimes, key=lambda lt: lt.birth):
        register = register_of.get(lifetime.variable)
        if register is None:
            continue
        if (
            previous is not None
            and register_of[previous.variable] == register
            and previous.death > lifetime.birth
        ):
            return previous.variable, lifetime.variable, register
        previous = lifetime
    return None


def _pairwise_skipping_equal_births(lifetimes, register_of):
    """Planted bug: the pairwise check, blind to equal-birth pairs."""
    for a, reg_a in register_of.items():
        for b, reg_b in register_of.items():
            if a >= b or reg_a != reg_b:
                continue
            if lifetimes[a].birth == lifetimes[b].birth:
                continue
            if lifetimes[a].overlaps(lifetimes[b]):
                return a, b, reg_a
    return None


def _binding_divergences(trials: int = 5):
    return [
        d for trial in range(trials) for d in differential.oracle_binding(7, trial)
    ]


class TestBindingOracle:
    def test_registered_and_clean(self):
        assert DIFFERENTIAL_ORACLES["binding"] is differential.oracle_binding
        assert _binding_divergences(20) == []

    def test_teeth_production_compares_only_neighbours(self, monkeypatch):
        monkeypatch.setattr(
            binding_mod, "_register_conflict", _adjacent_pairs_only
        )
        divergences = _binding_divergences()
        assert divergences, "neighbour-only register sweep went unnoticed"
        assert all(
            "production verify says 'ok', reference says 'register conflict'"
            in d.detail
            for d in divergences
        )

    def test_teeth_reference_skips_equal_births(self, monkeypatch):
        monkeypatch.setattr(
            binding_ref,
            "reference_register_conflict",
            _pairwise_skipping_equal_births,
        )
        divergences = _binding_divergences()
        assert divergences, "reference blind to equal births went unnoticed"
        assert all(
            "says 'register conflict', reference says 'ok'" in d.detail
            for d in divergences
        )

    def test_teeth_first_fit_ignores_the_index(self, monkeypatch):
        def take_first_freed(self, start, end):
            index = self.count
            for i, (free_from, unit) in enumerate(self.busy):
                if free_from <= start:
                    index = unit
                    del self.busy[i]
                    break
            else:
                self.count += 1
            self.busy.append((end, index))
            return index

        monkeypatch.setattr(binding_mod._FirstFit, "take", take_first_freed)
        divergences = _binding_divergences()
        assert any("unit_of differs" in d.detail for d in divergences)
        assert any("register_of differs" in d.detail for d in divergences)


class TestController:
    def test_one_word_per_step(self, iir4):
        schedule = list_schedule(iir4)
        controller = synthesize_controller(iir4, schedule)
        assert controller.num_steps == schedule.makespan(iir4)
        assert controller.num_microops == len(iir4.schedulable_operations)

    def test_microops_reference_bound_resources(self, iir4):
        schedule = list_schedule(iir4)
        binding = bind(iir4, schedule)
        controller = synthesize_controller(iir4, schedule, binding)
        for step, word in enumerate(controller.steps):
            for micro in word:
                assert schedule.start(micro.operation) == step
                cls, index = binding.unit_of[micro.operation]
                assert micro.unit == (cls.value, index)

    def test_control_word_bounds(self, iir4):
        controller = synthesize_controller(iir4, list_schedule(iir4))
        with pytest.raises(ControllerError):
            controller.control_word(999)

    def test_datapath_summary(self, iir4):
        schedule = list_schedule(iir4)
        binding = bind(iir4, schedule)
        summary = datapath_summary(binding)
        assert summary["registers"] == binding.num_registers
        assert "units_alu" in summary


class TestRecovery:
    def test_exact_recovery(self, iir4):
        schedule = list_schedule(iir4)
        controller = synthesize_controller(iir4, schedule)
        recovered = recover_schedule(controller)
        for node in iir4.schedulable_operations:
            assert recovered.start(node) == schedule.start(node)

    def test_completed_schedule_verifies(self, iir4):
        schedule = list_schedule(iir4)
        controller = synthesize_controller(iir4, schedule)
        completed = recovered_schedule_for(
            iir4, recover_schedule(controller)
        )
        completed.verify(iir4)

    def test_double_issue_rejected(self):
        from repro.rtl.controller import MicroOp

        duplicated = Controller(
            steps=[
                [MicroOp("a", "ADD", ("alu", 0), (), 0)],
                [MicroOp("a", "ADD", ("alu", 0), (), 0)],
            ]
        )
        with pytest.raises(ControllerError, match="twice"):
            recover_schedule(duplicated)

    def test_empty_controller_rejected(self):
        with pytest.raises(ControllerError):
            recover_schedule(Controller(steps=[[]]))


class TestSection2Loop:
    """The paper's §II story, end to end: the watermark survives
    synthesis into an FSM+datapath and is detected from the recovered
    schedule alone."""

    def test_watermark_detected_from_recovered_schedule(self, alice):
        design = random_layered_cdfg(90, seed=42)
        params = SchedulingWMParams(
            domain=DomainParams(tau=5, min_domain_size=8), k=6
        )
        marker = SchedulingWatermarker(alice, params)
        marked, watermark = marker.embed(design)

        # Synthesis: schedule, bind, emit the FSM; ship the "IC".
        schedule = list_schedule(marked)
        binding = bind(marked, schedule)
        controller = synthesize_controller(marked, schedule, binding)

        # Reverse engineering (the detector's §II step): the control
        # logic yields the schedule; the watermark is then checked on it.
        recovered = recovered_schedule_for(
            design, recover_schedule(controller)
        )
        result = marker.verify(design, recovered, watermark)
        assert result.detected
