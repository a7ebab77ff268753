"""Reference recurrence MII by simple-cycle enumeration.

Every dependence cycle of a periodic design crosses at least one
positive-distance edge.  A cycle with total latency ``L`` and total
distance ``D`` closes at initiation interval ``II`` exactly when
``L - II*D <= 0``, so the smallest feasible II is the maximum of
``ceil(L / D)`` over the simple cycles (1 when there are none).  This
module enumerates those cycles on the CDFG's networkx graph — sharing
nothing with the timing view — as the third min-II leg of the
``periodic_windows`` differential oracle, beside the kernel's binary
probe and the unrolled reference.  The cycle count can grow
exponentially, so the oracle runs it only on small designs.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import networkx as nx

from repro.cdfg.graph import CDFG


def cycle_totals(cdfg: CDFG) -> Iterator[Tuple[int, int]]:
    """``(total latency, total distance)`` of every simple cycle."""
    graph = cdfg.graph
    for cycle in nx.simple_cycles(graph):
        latency = sum(cdfg.latency(node) for node in cycle)
        distance = sum(
            graph.edges[u, v].get("distance", 0)
            for u, v in zip(cycle, cycle[1:] + cycle[:1])
        )
        yield latency, distance


def reference_cycle_min_ii(cdfg: CDFG) -> int:
    """Max over simple cycles of ``ceil(L / D)``, and at least 1."""
    return max(
        [1, *(-(-latency // distance) for latency, distance in cycle_totals(cdfg))]
    )
