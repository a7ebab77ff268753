"""Register and functional-unit binding.

After scheduling, behavioral synthesis binds every operation to a functional
unit instance and every variable to a register.  The paper leans on this
step twice: scheduling "determines … the lifetimes of variables" (§IV-A)
and the bound datapath is what a reverse engineer sees (§II).

* **Functional-unit binding** — operations of one resource class that
  run in disjoint control steps share a unit instance: each operation,
  in start order, takes the lowest-indexed unit of its class that is
  free by its start step.
* **Register binding** — classic left-edge algorithm over variable
  lifetimes: variables whose lifetimes do not overlap share a register.

Both are first-fit over intervals in non-decreasing start order, served
by two heaps per pool (busy instances keyed by the step they free,
free instances keyed by index): O(n log n) instead of a scan of every
instance per interval.  :meth:`Binding.verify` checks registers with
one sweep in birth order.  The original scans and the pairwise
register check live in :mod:`repro.verify.binding` as the reference
the ``binding`` differential oracle checks these against.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.cdfg.graph import CDFG
from repro.cdfg.ops import OpType, ResourceClass
from repro.errors import SchedulingError
from repro.scheduling.schedule import Schedule


@dataclass(frozen=True)
class Lifetime:
    """A variable's live interval: [birth, death) in control steps."""

    variable: str
    birth: int
    death: int

    def overlaps(self, other: "Lifetime") -> bool:
        """Whether two lifetimes are simultaneously live."""
        return self.birth < other.death and other.birth < self.death


def variable_lifetimes(cdfg: CDFG, schedule: Schedule) -> List[Lifetime]:
    """Live interval of every produced value.

    A value is born when its producer finishes and dies after its last
    consumer starts; values with no consumer (primary outputs) live one
    step past their birth.
    """
    lifetimes = []
    for node in cdfg.operations:
        op = cdfg.op(node)
        if op is OpType.OUTPUT:
            continue
        birth = schedule.start(node) + cdfg.latency(node)
        consumers = cdfg.data_successors(node)
        if consumers:
            death = max(schedule.start(c) for c in consumers) + 1
        else:
            death = birth + 1
        death = max(death, birth + 1)
        lifetimes.append(Lifetime(node, birth, death))
    return lifetimes


@dataclass
class Binding:
    """Complete datapath binding.

    Attributes
    ----------
    unit_of:
        Operation → (resource class, unit index).
    register_of:
        Variable (producing node) → register index.
    """

    unit_of: Dict[str, Tuple[ResourceClass, int]] = field(default_factory=dict)
    register_of: Dict[str, int] = field(default_factory=dict)

    @property
    def num_registers(self) -> int:
        """Registers the datapath needs."""
        if not self.register_of:
            return 0
        return max(self.register_of.values()) + 1

    def unit_instances(self) -> List[Tuple[ResourceClass, int]]:
        """All bound functional-unit instances, sorted by (class, index).

        The Verilog emitter iterates this to declare one combinational
        block per instance in a stable order.

        >>> binding = Binding(unit_of={
        ...     "a": (ResourceClass.ALU, 0),
        ...     "m": (ResourceClass.MULTIPLIER, 0),
        ...     "b": (ResourceClass.ALU, 1),
        ... })
        >>> [(cls.value, i) for cls, i in binding.unit_instances()]
        [('alu', 0), ('alu', 1), ('multiplier', 0)]
        """
        return sorted(
            set(self.unit_of.values()), key=lambda u: (u[0].value, u[1])
        )

    def units_per_class(self) -> Dict[ResourceClass, int]:
        """Functional-unit instances per class."""
        counts: Dict[ResourceClass, int] = {}
        for cls, index in self.unit_of.values():
            counts[cls] = max(counts.get(cls, 0), index + 1)
        return counts

    def verify(self, cdfg: CDFG, schedule: Schedule) -> None:
        """Raise :class:`SchedulingError` on any binding conflict."""
        busy: Dict[Tuple[ResourceClass, int, int], str] = {}
        for node, (cls, index) in self.unit_of.items():
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
        conflict = _register_conflict(
            variable_lifetimes(cdfg, schedule), self.register_of
        )
        if conflict is not None:
            a, b, register = conflict
            raise SchedulingError(
                f"register conflict: {a!r} and {b!r} share "
                f"r{register} while both live"
            )


def _register_conflict(
    lifetimes: Iterable[Lifetime], register_of: Dict[str, int]
) -> Optional[Tuple[str, str, int]]:
    """First pair of overlapping lifetimes bound to one register.

    One sweep over every register's lifetimes at once, in birth order.
    Per register it keeps the lifetime with the latest death so far, so
    one comparison checks a newcomer against every earlier lifetime of
    its register, however many lifetimes of other registers were born
    in between.  Returns the two variables (name-ordered) and the
    register, or ``None`` when the registers are conflict-free.
    Variables without a register are ignored.
    """
    latest: Dict[int, Lifetime] = {}
    for lifetime in sorted(lifetimes, key=lambda lt: lt.birth):
        register = register_of.get(lifetime.variable)
        if register is None:
            continue
        holder = latest.get(register)
        if holder is not None and holder.death > lifetime.birth:
            a, b = sorted((holder.variable, lifetime.variable))
            return a, b, register
        # The holder died by this birth, so this death is the latest.
        latest[register] = lifetime
    return None


class _FirstFit:
    """Lowest-indexed free instance for intervals in start order.

    Instances that free by a request's start are moved from the busy
    heap to the free heap; since starts never decrease, an instance on
    the free heap stays free, so popping the lowest index is exactly a
    scan of the instances in index order for the first free one.
    """

    __slots__ = ("busy", "free", "count")

    def __init__(self) -> None:
        self.busy: List[Tuple[int, int]] = []  # (free-from step, index)
        self.free: List[int] = []
        self.count = 0

    def take(self, start: int, end: int) -> int:
        """Instance for the interval ``[start, end)``."""
        busy, free = self.busy, self.free
        while busy and busy[0][0] <= start:
            heapq.heappush(free, heapq.heappop(busy)[1])
        if free:
            index = heapq.heappop(free)
        else:
            index = self.count
            self.count += 1
        heapq.heappush(busy, (end, index))
        return index


def left_edge_registers(lifetimes: List[Lifetime]) -> Dict[str, int]:
    """Left-edge register allocation: minimal registers for the intervals.

    First-fit in (birth, death) order, which assigns exactly what
    filling one register at a time from the left edge does: a lifetime
    lands in the lowest register whose last occupant has died by its
    birth.
    """
    pool = _FirstFit()
    return {
        lifetime.variable: pool.take(lifetime.birth, lifetime.death)
        for lifetime in sorted(lifetimes, key=lambda lt: (lt.birth, lt.death))
    }


def bind(cdfg: CDFG, schedule: Schedule) -> Binding:
    """Bind a scheduled design to units and registers."""
    binding = Binding()
    pools: Dict[ResourceClass, _FirstFit] = {}
    by_start = sorted(
        cdfg.schedulable_operations,
        key=lambda n: (schedule.start(n), n),
    )
    for node in by_start:
        cls = cdfg.op(node).resource_class
        start = schedule.start(node)
        pool = pools.get(cls)
        if pool is None:
            pool = pools[cls] = _FirstFit()
        binding.unit_of[node] = (
            cls, pool.take(start, start + cdfg.latency(node))
        )
    binding.register_of = left_edge_registers(
        variable_lifetimes(cdfg, schedule)
    )
    binding.verify(cdfg, schedule)
    return binding
