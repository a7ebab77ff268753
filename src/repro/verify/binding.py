"""Reference datapath binding: the original scans and pairwise check.

Production (:mod:`repro.rtl.binding`) binds units and registers by
first-fit over two heaps and verifies registers with one sweep in birth
order.  This module keeps the original formulations as the slow,
independent reference the ``binding`` differential oracle checks
production against:

* units — every operation, in start order, scans the units of its class
  in index order for the first one free by its start (O(V·U));
* registers — track-by-track left edge: fill register 0 from the left,
  then register 1 from the leftovers, and so on (O(R·V));
* verification — the per-step unit occupancy map plus a check of every
  pair of variables sharing a register (O(V²)).

It shares only :func:`~repro.rtl.binding.variable_lifetimes` and the
:class:`~repro.rtl.binding.Binding` container with production.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cdfg.graph import CDFG
from repro.cdfg.ops import ResourceClass
from repro.errors import SchedulingError
from repro.rtl.binding import Binding, Lifetime, variable_lifetimes
from repro.scheduling.schedule import Schedule


def reference_unit_binding(
    cdfg: CDFG, schedule: Schedule
) -> Dict[str, Tuple[ResourceClass, int]]:
    """Unit binding by a scan of every unit of the class per operation."""
    unit_of: Dict[str, Tuple[ResourceClass, int]] = {}
    occupied: Dict[ResourceClass, List[int]] = {}  # unit -> busy-until step
    by_start = sorted(
        cdfg.schedulable_operations,
        key=lambda n: (schedule.start(n), n),
    )
    for node in by_start:
        cls = cdfg.op(node).resource_class
        start = schedule.start(node)
        finish = start + cdfg.latency(node)
        units = occupied.setdefault(cls, [])
        for index, busy_until in enumerate(units):
            if busy_until <= start:
                units[index] = finish
                unit_of[node] = (cls, index)
                break
        else:
            units.append(finish)
            unit_of[node] = (cls, len(units) - 1)
    return unit_of


def reference_left_edge(lifetimes: List[Lifetime]) -> Dict[str, int]:
    """Left edge one register at a time over the remaining lifetimes."""
    assignment: Dict[str, int] = {}
    remaining = sorted(lifetimes, key=lambda lt: (lt.birth, lt.death))
    register = 0
    while remaining:
        current_end = None
        leftover = []
        for lifetime in remaining:
            if current_end is None or lifetime.birth >= current_end:
                assignment[lifetime.variable] = register
                current_end = lifetime.death
            else:
                leftover.append(lifetime)
        remaining = leftover
        register += 1
    return assignment


def reference_bind(cdfg: CDFG, schedule: Schedule) -> Binding:
    """The binding production :func:`~repro.rtl.binding.bind` must equal."""
    return Binding(
        unit_of=reference_unit_binding(cdfg, schedule),
        register_of=reference_left_edge(variable_lifetimes(cdfg, schedule)),
    )


def reference_register_conflict(
    lifetimes: Dict[str, Lifetime], register_of: Dict[str, int]
) -> Optional[Tuple[str, str, int]]:
    """First overlapping pair sharing a register, over all pairs."""
    for a, reg_a in register_of.items():
        for b, reg_b in register_of.items():
            if a >= b or reg_a != reg_b:
                continue
            if lifetimes[a].overlaps(lifetimes[b]):
                return a, b, reg_a
    return None


def reference_verify(
    binding: Binding, cdfg: CDFG, schedule: Schedule
) -> None:
    """Raise :class:`SchedulingError` on any binding conflict."""
    busy: Dict[Tuple[ResourceClass, int, int], str] = {}
    for node, (cls, index) in binding.unit_of.items():
        for step in range(
            schedule.start(node),
            schedule.start(node) + cdfg.latency(node),
        ):
            key = (cls, index, step)
            if key in busy:
                raise SchedulingError(
                    f"unit conflict: {node!r} and {busy[key]!r} share "
                    f"{cls.value}[{index}] at step {step}"
                )
            busy[key] = node
    lifetimes = {lt.variable: lt for lt in variable_lifetimes(cdfg, schedule)}
    conflict = reference_register_conflict(lifetimes, binding.register_of)
    if conflict is not None:
        a, b, register = conflict
        raise SchedulingError(
            f"register conflict: {a!r} and {b!r} share "
            f"r{register} while both live"
        )
