"""Unrolled-iteration reference for the periodic (modulo-II) windows.

The modulo kernel in :mod:`repro.timing.kernel` computes steady-state
ASAP/ALAP fixpoints directly.  This module recomputes the same values a
completely different way — by *materializing* iterations: unroll ``K``
copies of the design, give copy ``k`` a release floor of ``k * ii``
(iteration ``k`` initiates one interval after iteration ``k - 1``) and a
deadline of ``horizon + k * ii``, wire every inter-iteration edge
``(u, v, d)`` from copy ``k`` of ``u`` to copy ``k + d`` of ``v``, and
run the ordinary acyclic longest-path passes copy by copy.

Let ``D = sum(distances)``.  When the II is feasible the per-iteration
offsets ``asap(v, k) - k*ii`` are final from copy ``D`` on: a maximal
witness path can be taken simple (cycles of weight
``sum(lat) - ii*sum(dist) <= 0`` never help), so it crosses each back
edge at most once and spans at most ``D`` iterations.  When it is not,
some simple cycle of distance ``d <= D`` has positive weight and lifts
the offsets of its nodes by at least one every ``d`` copies — a
staircase whose adjacent copies may well agree.  Convergence is
therefore judged across a full recurrence period: ``K = 2*D + 2``
copies are unrolled and the offsets of the last ``D + 1`` must all be
equal.  Any disagreement certifies a positive-weight cycle — the same
infeasibility the modulo kernel reports.

The two implementations share nothing beyond the view's adjacency, which
is exactly what the ``periodic_windows`` differential oracle wants: the
kernel's algebraic ``- ii*distance`` folding checked bit-for-bit against
honest unrolling, at O(nodes * K) reference cost.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.cdfg.graph import CDFG
from repro.errors import InfeasibleScheduleError

Window = Tuple[int, int]


def recurrence_period(cdfg: CDFG) -> int:
    """Total back-edge distance ``D``: no simple cycle spans more."""
    return sum(d for _, _, d in cdfg.view().back_edges)


def unroll_copies(cdfg: CDFG) -> int:
    """Iterations to materialize: ``D`` to converge, ``D + 1`` to check
    that the offsets stay put over a full recurrence period, and one
    more so the earliest checked copy already sees all ``D`` before it."""
    return 2 * recurrence_period(cdfg) + 2


def unrolled_reference_windows(
    cdfg: CDFG, horizon: int, ii: int
) -> Dict[str, Window]:
    """Steady-state windows at *ii* by explicit iteration unrolling.

    Bit-identical to
    :func:`repro.timing.windows.periodic_scheduling_windows` on every
    feasible input, and raises :class:`InfeasibleScheduleError` on the
    same inputs (II below the recurrence MII, or horizon too short for
    the steady state) — both facts are enforced by the
    ``periodic_windows`` differential oracle.
    """
    if ii < 1:
        raise InfeasibleScheduleError(
            f"initiation interval must be >= 1, got {ii}"
        )
    view = cdfg.view()
    n = len(view.nodes)
    order = view.topo_order()
    lat = view.latency
    back_succs, back_preds = view._back_adj()
    copies = unroll_copies(cdfg)

    # Forward: ASAP per copy, floor k*ii, back edges read earlier copies.
    asap: List[List[int]] = [[0] * n for _ in range(copies)]
    for k in range(copies):
        row = asap[k]
        floor = k * ii
        for i in order:
            lo = floor
            for p in view.preds[i]:
                candidate = row[p] + lat[p]
                if candidate > lo:
                    lo = candidate
            for p, d in back_preds.get(i, ()):
                if k - d >= 0:
                    candidate = asap[k - d][p] + lat[p]
                    if candidate > lo:
                        lo = candidate
            row[i] = lo
    period = recurrence_period(cdfg)
    last = copies - 1
    steady_lo = [asap[last][i] - last * ii for i in range(n)]
    for k in range(last - period, last):
        if [asap[k][i] - k * ii for i in range(n)] != steady_lo:
            raise InfeasibleScheduleError(
                f"initiation interval {ii} infeasible for {cdfg.name!r}: "
                f"unrolled iteration offsets still rising after "
                f"{copies} copies"
            )

    # Backward: ALAP per copy, deadline horizon + k*ii, back edges read
    # later copies; copy 0 is the fully constrained (steady) one.
    alap: List[List[int]] = [[0] * n for _ in range(copies)]
    for k in range(copies - 1, -1, -1):
        row = alap[k]
        deadline = horizon + k * ii
        for i in reversed(order):
            hi = deadline - lat[i]
            for s in view.succs[i]:
                candidate = row[s] - lat[i]
                if candidate < hi:
                    hi = candidate
            for s, d in back_succs.get(i, ()):
                if k + d < copies:
                    candidate = alap[k + d][s] - lat[i]
                    if candidate < hi:
                        hi = candidate
            row[i] = hi
    steady_hi = list(alap[0])
    for k in range(1, period + 1):
        if [alap[k][i] - k * ii for i in range(n)] != steady_hi:
            raise InfeasibleScheduleError(  # pragma: no cover - ASAP first
                f"initiation interval {ii} infeasible for {cdfg.name!r}: "
                f"unrolled deadlines still falling after {copies} copies"
            )

    for i, name in enumerate(view.nodes):
        if steady_lo[i] > steady_hi[i]:
            raise InfeasibleScheduleError(
                f"window of {name!r} empty at II={ii} within "
                f"horizon {horizon}"
            )
    return {
        name: (steady_lo[i], steady_hi[i])
        for i, name in enumerate(view.nodes)
    }


def unrolled_min_ii(cdfg: CDFG) -> int:
    """Smallest II the unrolled reference accepts, by linear scan.

    Independent of the kernel's binary probe (which it cross-checks):
    walks II upward from 1 until :func:`unrolled_reference_windows`
    stops raising, with a generous horizon so only the II can fail.
    """
    view = cdfg.view()
    if not view.back_edges:
        return 1
    ceiling = max(1, sum(view.latency))
    for ii in range(1, ceiling + 1):
        try:
            unrolled_reference_windows(cdfg, 4 * ceiling, ii)
        except InfeasibleScheduleError:
            continue
        return ii
    return ceiling  # pragma: no cover - sum(latency) is always feasible
