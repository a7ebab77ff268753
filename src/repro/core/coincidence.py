"""Coincidence probability (``P_c``) estimation.

The strength of authorship proof is ``1 − P_c``, where ``P_c`` is the
probability that an unwatermarked synthesis flow coincidentally produces
a solution satisfying the watermark constraints.

Two estimators, mirroring §IV-A:

* **exact** — exhaustively enumerate the feasible schedules of the
  locality with and without the temporal-edge constraints; ``P_c`` is
  the count ratio.  Exponential; for small localities only (the paper
  uses "a trivial exhaustive enumeration technique … only for small
  examples").
* **approximate** — ``P_c ≈ Π_i ψ_W(e_i)/ψ_N(e_i)`` with each edge's
  ratio estimated as the probability its endpoints coincidentally land
  in the constrained order under independent (Poisson- or uniform-)
  distributed placement inside their ASAP/ALAP windows.

Because real ``P_c`` values underflow doubles (Table I reports 10^-283),
the approximate API returns ``log10 P_c``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.analysis.poisson import order_probability
from repro.cdfg.graph import CDFG
from repro.errors import WatermarkError
from repro.scheduling.enumeration import (
    count_schedules,
    count_schedules_satisfying,
    sample_schedule_boxes,
)
from repro.timing.windows import (
    critical_path_length,
    periodic_critical_path_length,
    periodic_scheduling_windows,
)

#: Per-edge probability floor: an edge whose coincidental-order
#: probability rounds to zero still contributes finitely so that log10
#: stays defined (it cannot be *impossible* for another flow to satisfy
#: a constraint the watermarked schedule itself satisfies).
MIN_EDGE_PROBABILITY = 1e-9


@dataclass(frozen=True)
class ExactPc:
    """Exact coincidence result.

    Attributes
    ----------
    with_constraints:
        Number of feasible schedules satisfying every temporal edge
        (the paper's constrained count, e.g. 15 for the IIR example).
    without_constraints:
        Total number of feasible schedules (e.g. 166).
    """

    with_constraints: int
    without_constraints: int

    @property
    def pc(self) -> float:
        """``P_c`` as a ratio."""
        if self.without_constraints == 0:
            raise WatermarkError("locality admits no schedule at all")
        return self.with_constraints / self.without_constraints

    @property
    def log10_pc(self) -> float:
        """``log10 P_c`` (−inf when no coincidental schedule exists)."""
        if self.with_constraints == 0:
            return float("-inf")
        return math.log10(self.pc)

    @property
    def authorship_proof(self) -> float:
        """``1 − P_c``."""
        return 1.0 - self.pc


def _default_horizon(cdfg: CDFG, ii: Optional[int]) -> int:
    """Critical path — steady-state iteration latency in periodic mode."""
    if ii is not None:
        return periodic_critical_path_length(cdfg, ii)
    return critical_path_length(cdfg)


def exact_pc(
    cdfg: CDFG,
    temporal_edges: Iterable[Tuple[str, str]],
    horizon: Optional[int] = None,
    nodes: Optional[Sequence[str]] = None,
    limit: int = 10_000_000,
    ii: Optional[int] = None,
    distances: Optional[Sequence[int]] = None,
) -> ExactPc:
    """Exact ``P_c`` by schedule enumeration.

    Parameters
    ----------
    cdfg:
        The design **without** the watermark temporal edges (an
        unwatermarked flow schedules this graph).
    temporal_edges:
        The watermark's ``(before, after)`` constraints.
    horizon:
        Control-step budget; defaults to the critical path (the
        steady-state iteration latency in periodic mode).
    nodes:
        Locality to enumerate (default: all schedulable operations).
    ii:
        Initiation interval for periodic designs: enumeration runs over
        the steady-state windows with the full cyclic constraint set.
    distances:
        Per-edge iteration distances aligned with *temporal_edges*
        (default all zero); edge ``k`` of distance ``d`` is satisfied
        iff ``start(before) < start(after) + ii*d``.
    """
    if horizon is None:
        horizon = _default_horizon(cdfg, ii)
    edges = list(temporal_edges)
    total = count_schedules(cdfg, horizon, nodes=nodes, limit=limit, ii=ii)
    satisfying = count_schedules_satisfying(
        cdfg,
        horizon,
        edges,
        nodes=nodes,
        limit=limit,
        ii=ii,
        constraint_distances=distances,
    )
    return ExactPc(with_constraints=satisfying, without_constraints=total)


@dataclass(frozen=True)
class MonteCarloPc:
    """Brute-force Monte Carlo estimate of ``P_c``.

    Attributes
    ----------
    satisfying:
        Feasible samples that also satisfied every temporal edge.
    feasible:
        Samples that landed on a feasible schedule at all.
    samples:
        Total box samples drawn.
    """

    satisfying: int
    feasible: int
    samples: int

    @property
    def pc(self) -> float:
        """Estimated ``P_c`` (``satisfying / feasible``)."""
        if self.feasible == 0:
            raise WatermarkError("no feasible sample drawn; raise `samples`")
        return self.satisfying / self.feasible

    def standard_error(self) -> float:
        """Binomial standard error of :attr:`pc` given the sample size."""
        if self.feasible == 0:
            raise WatermarkError("no feasible sample drawn; raise `samples`")
        p = self.pc
        return math.sqrt(max(p * (1.0 - p), 1e-12) / self.feasible)


def monte_carlo_pc(
    cdfg: CDFG,
    temporal_edges: Iterable[Tuple[str, str]],
    rng,
    horizon: Optional[int] = None,
    nodes: Optional[Sequence[str]] = None,
    samples: int = 10_000,
    ii: Optional[int] = None,
    distances: Optional[Sequence[int]] = None,
) -> MonteCarloPc:
    """Estimate ``P_c`` by rejection sampling over the window box.

    Start times are drawn uniformly and independently from each node's
    (ASAP, ALAP) window; infeasible draws are rejected, so the accepted
    draws are uniform over the feasible schedules and the satisfying
    fraction estimates the same ratio :func:`exact_pc` enumerates.  This
    shares no counting code with the exact path (only the window /
    longest-path substrate), which is what makes it a differential
    oracle for the detector's coincidence model.  With *ii* the box is
    the steady-state one and a distance-``d`` edge is satisfied in the
    periodic sense (``start(src) < start(dst) + ii*d``).
    """
    if horizon is None:
        horizon = _default_horizon(cdfg, ii)
    edges = list(temporal_edges)
    if distances is None:
        distances = [0] * len(edges)
    if ii is None and any(distances):
        raise WatermarkError(
            "cross-iteration constraints require an explicit ii"
        )
    shifts = [(ii or 0) * d for d in distances]
    feasible = 0
    satisfying = 0
    for assignment, ok in sample_schedule_boxes(
        cdfg, horizon, samples, rng, nodes=nodes, ii=ii
    ):
        if not ok:
            continue
        feasible += 1
        if all(
            assignment[src] < assignment[dst] + shift
            for (src, dst), shift in zip(edges, shifts)
        ):
            satisfying += 1
    return MonteCarloPc(
        satisfying=satisfying, feasible=feasible, samples=samples
    )


def approx_edge_log10(
    windows: Dict[str, Tuple[int, int]],
    src: str,
    dst: str,
    model: str = "poisson",
    lam: float = 1.0,
    shift: int = 0,
) -> float:
    """``log10`` of one edge's coincidental-order probability.

    *shift* displaces the destination window by ``ii*distance`` for a
    cross-iteration edge: iteration ``k + d`` of the destination
    occupies the steady-state window moved ``d`` intervals later, and
    the order probability is computed against that copy.
    """
    if src not in windows or dst not in windows:
        raise WatermarkError(f"edge ({src!r}, {dst!r}) outside the window map")
    lo, hi = windows[dst]
    probability = order_probability(
        windows[src], (lo + shift, hi + shift), model=model, lam=lam
    )
    probability = min(1.0, max(probability, MIN_EDGE_PROBABILITY))
    return math.log10(probability)


def _endpoint_windows(
    cdfg: CDFG, horizon: int, edges: Sequence[Tuple[str, str]]
) -> Dict[str, Tuple[int, int]]:
    """The :func:`~repro.timing.windows.scheduling_windows` entries of the
    edges' endpoints.

    Reads the view's memoized ASAP/ALAP arrays for just these nodes
    instead of building the whole-design map.  Names outside the design
    are left out, so :func:`approx_edge_log10` still rejects them.

    Raises
    ------
    InfeasibleScheduleError
        If *horizon* is shorter than the critical path.
    """
    view = cdfg.view()
    alap = view.alap(horizon)
    asap = view.asap()
    index = view.index
    windows: Dict[str, Tuple[int, int]] = {}
    for edge in edges:
        for name in edge:
            i = index.get(name)
            if i is not None:
                windows[name] = (asap[i], alap[i])
    return windows


def approx_log10_pc(
    cdfg: CDFG,
    temporal_edges: Iterable[Tuple[str, str]],
    horizon: Optional[int] = None,
    model: str = "poisson",
    lam: float = 1.0,
    ii: Optional[int] = None,
    distances: Optional[Sequence[int]] = None,
) -> float:
    """Approximate ``log10 P_c`` over the given temporal edges.

    Windows are computed on *cdfg* as given — pass the **unwatermarked**
    design, since coincidence concerns flows that never saw the
    constraints.  With *ii* the windows are the steady-state ones and
    per-edge *distances* shift each destination window by
    ``ii*distance`` before the order probability is taken.
    """
    if horizon is None:
        horizon = _default_horizon(cdfg, ii)
    edges = list(temporal_edges)
    if distances is None:
        distances = [0] * len(edges)
    if ii is None and any(distances):
        raise WatermarkError(
            "cross-iteration constraints require an explicit ii"
        )
    if ii is not None:
        windows = periodic_scheduling_windows(cdfg, horizon, ii)
    else:
        windows = _endpoint_windows(cdfg, horizon, edges)
    return sum(
        approx_edge_log10(
            windows, src, dst, model=model, lam=lam, shift=(ii or 0) * d
        )
        for (src, dst), d in zip(edges, distances)
    )


def authorship_from_log10(log10_pc: float) -> float:
    """``1 − P_c`` from ``log10 P_c`` (clamped for underflow)."""
    if log10_pc <= -15:
        return 1.0
    return 1.0 - 10.0**log10_pc


def format_pc_power(log10_pc: float) -> str:
    """Render like the paper's Table I (``10^-26``)."""
    if math.isinf(log10_pc):
        return "0"
    return f"10^{int(round(log10_pc))}"
