"""Local watermarking of operation-scheduling solutions (§IV-A, Fig. 2).

Embedding pipeline:

1. pick the locality: root ``n_o``, cone ``T_o`` (fanin, max-distance
   ``τ``), signature-carved subtree ``T``;
2. eligibility filter → ``T'``: a node qualifies when its **laxity** is
   at most ``C·(1−ε)`` (it sits off the near-critical paths, so
   constraining it cannot stretch the schedule) *and* its ASAP/ALAP
   lifetime overlaps some other eligible node's (so an ordering
   constraint on it is non-trivial);
3. the keyed bitstream draws an *ordered* selection ``T''`` of ``K``
   nodes from ``T'``;
4. walking ``T''`` in order, each node ``n_i`` gets one **temporal
   edge** ``n_i → n_k`` toward a bitstream-chosen later member ``n_k``
   whose window still admits the order; windows are re-tightened after
   every edge so the whole constraint set stays satisfiable within the
   original critical path — embedding never lengthens the schedule.

Note on Fig. 2's laxity comparison: the figure's line 3 prints
``laxity(n_i) > |C|(1−ε)`` but the surrounding text ("the restriction …
is imposed to avoid significant timing overhead and to increase the
scheduling freedom") and the template-matching protocol (which
*excludes* nodes with laxity above the same threshold) both require the
opposite sense; we implement ``laxity ≤ C·(1−ε)`` and record the
deviation in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import networkx as nx

from repro.cdfg.graph import CDFG
from repro.core.coincidence import approx_log10_pc, exact_pc
from repro.core.domain import (
    Domain,
    DomainParams,
    candidate_roots,
    select_root_and_domain,
)
from repro.crypto.bitstream import BitStream
from repro.crypto.signature import AuthorSignature
from repro.errors import (
    ConstraintEncodingError,
    DomainSelectionError,
    InfeasibleScheduleError,
)
from repro.resilience.budget import Budget, check_deadline
from repro.scheduling.schedule import Schedule
from repro.timing.kernel import IncrementalWindows, use_bulk_arrays
from repro.timing.paths import laxity
from repro.timing.windows import (
    critical_path_length,
    periodic_critical_path_length,
    periodic_scheduling_windows,
    scheduling_windows,
    windows_overlap,
)
from repro.util.perf import PERF

try:  # optional acceleration; the loop below is the reference
    import numpy as _np
except ImportError:  # pragma: no cover - image always ships numpy
    _np = None  # type: ignore[assignment]

#: Domain-separation label of the scheduling-watermark bitstream.
SCHEDULING_PURPOSE = "scheduling-watermark"


def _with_overlap_partner(names: List[str], windows: dict) -> List[str]:
    """Members of *names* whose window overlaps some other member's.

    The eligibility rule's pairwise screen (§IV-A step 2).  The loop is
    quadratic; under the vectorized kernel mode the same set falls out
    of an O(M log M) counting argument: window ``n`` overlaps ``m`` iff
    ``lo_m <= hi_n`` and ``lo_n <= hi_m``, so the number of members
    overlapping ``n`` (self included) is ``M`` minus those starting
    after ``hi_n`` minus those ending before ``lo_n`` — a partner exists
    iff that count is at least 2.  Both paths return the identical
    sublist, in order.
    """
    count = len(names)
    if use_bulk_arrays(count) and count >= 2:
        np = _np
        PERF.add("kernel.vec.bulk_screens")
        PERF.add("kernel.vec.bulk_pairs", count)
        lo = np.fromiter(
            (windows[n][0] for n in names), dtype=np.int64, count=count
        )
        hi = np.fromiter(
            (windows[n][1] for n in names), dtype=np.int64, count=count
        )
        lo_sorted = np.sort(lo)
        hi_sorted = np.sort(hi)
        starting_after = count - np.searchsorted(lo_sorted, hi, side="right")
        ending_before = np.searchsorted(hi_sorted, lo, side="left")
        overlapping = count - starting_after - ending_before
        return [n for n, c in zip(names, overlapping.tolist()) if c >= 2]
    return [
        n
        for n in names
        if any(
            windows_overlap(windows[n], windows[m]) for m in names if m != n
        )
    ]


@dataclass(frozen=True)
class SchedulingWMParams:
    """Parameters of the scheduling watermark.

    Attributes
    ----------
    domain:
        Locality-selection knobs (``τ``, include probability, …).
    k_fraction:
        ``K = max(1, round(k_fraction · |T|))`` temporal edges — the
        paper's experiments use ``K = 0.2·τ``.
    k:
        Explicit ``K`` override (wins over ``k_fraction``).
    epsilon:
        Laxity slack fraction: only nodes with
        ``laxity ≤ C·(1−epsilon)`` are eligible.
    tau_prime_min:
        Minimum ``|T'|``; smaller eligible sets trigger re-selection of
        the subtree.
    horizon:
        Control-step budget; defaults to the critical path ``C``.
    max_domain_retries:
        How many localities to try before giving up.
    eligibility:
        ``"laxity"`` (the paper's rule, suited to shallow DSP designs)
        or ``"mobility"`` — eligible when ``alap − asap >=
        min_mobility``.  Deep program graphs (critical paths of
        hundreds of steps) starve the absolute-laxity rule even though
        plenty of operations have real local freedom; mobility is the
        depth-independent analogue.  Either way, embedding never
        stretches the critical path (window feasibility is re-checked
        after every edge).
    min_mobility:
        Minimum window width for the ``"mobility"`` rule.
    realization_slack:
        Extra steps demanded between edge endpoints beyond the temporal
        constraint itself.  Set to 1 when the watermark will be realized
        as unit operations in compiled code (§V): the inserted op adds a
        pipeline stage, and reserving the slack at embed time keeps the
        realized code's cycle overhead near zero.
    wm_distance:
        Iteration distance carried by watermark temporal edges when
        embedding into a periodic design (``ii`` given or back edges
        present): each mark constrains iteration ``k`` of its source
        against iteration ``k + wm_distance`` of its destination — the
        watermark is woven across iteration boundaries.  Ignored for
        acyclic embedding (edges stay distance 0).
    """

    domain: DomainParams = field(default_factory=DomainParams)
    k_fraction: float = 0.2
    k: Optional[int] = None
    epsilon: float = 0.15
    tau_prime_min: int = 2
    horizon: Optional[int] = None
    max_domain_retries: int = 16
    eligibility: str = "laxity"
    min_mobility: int = 2
    realization_slack: int = 0
    wm_distance: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.k_fraction <= 1.0:
            raise ValueError("k_fraction must lie in (0, 1]")
        if self.k is not None and self.k < 1:
            raise ValueError("k must be >= 1")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if self.tau_prime_min < 2:
            raise ValueError("tau_prime_min must be >= 2")
        if self.eligibility not in ("laxity", "mobility"):
            raise ValueError("eligibility must be 'laxity' or 'mobility'")
        if self.min_mobility < 1:
            raise ValueError("min_mobility must be >= 1")
        if self.realization_slack < 0:
            raise ValueError("realization_slack must be >= 0")
        if self.wm_distance < 1:
            raise ValueError("wm_distance must be >= 1")


@dataclass(frozen=True)
class SchedulingWatermark:
    """Record of one embedded scheduling watermark.

    The author archives this record; detection can either replay it
    directly or re-derive everything from the signature.
    Edge endpoints are stored both by node name and by canonical
    identifier within the locality cone, so detection survives renaming.
    """

    author_fingerprint: str
    root: str
    cone: Tuple[str, ...]
    domain_nodes: Tuple[str, ...]
    eligible_nodes: Tuple[str, ...]
    selected_nodes: Tuple[str, ...]
    temporal_edges: Tuple[Tuple[str, str], ...]
    temporal_edge_ids: Tuple[Tuple[int, int], ...]
    horizon: int
    critical_path: int
    #: Locality radius used at embed time; detection must rebuild
    #: candidate cones with the same radius.
    tau: int = 4
    #: Per-edge iteration distances (empty = all zero, the acyclic
    #: record shape; older archives deserialize with this default).
    distances: Tuple[int, ...] = ()
    #: Initiation interval of a periodic embedding; None for acyclic.
    ii: Optional[int] = None

    @property
    def k(self) -> int:
        """Number of temporal edges actually embedded."""
        return len(self.temporal_edges)

    @property
    def edge_distances(self) -> Tuple[int, ...]:
        """Iteration distance of every temporal edge (zeros when acyclic)."""
        if self.distances:
            return self.distances
        return (0,) * len(self.temporal_edges)


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of checking a watermark against a suspect schedule."""

    satisfied: int
    total: int
    log10_pc: float

    @property
    def fraction(self) -> float:
        """Fraction of temporal constraints the suspect satisfies."""
        if self.total == 0:
            return 0.0
        return self.satisfied / self.total

    @property
    def confidence(self) -> float:
        """Authorship confidence ``1 − P_c`` of the satisfied evidence."""
        if self.log10_pc <= -15:
            return 1.0
        return 1.0 - 10.0**self.log10_pc

    @property
    def detected(self) -> bool:
        """Conventional detection threshold: all constraints satisfied."""
        return self.total > 0 and self.satisfied == self.total

    def detected_at(self, min_confidence: float) -> bool:
        """Confidence-thresholded detection.

        With few edges (tiny localities) a foreign signature's derived
        constraints can hold by coincidence; a court-grade claim demands
        ``1 − P_c`` above a threshold, not merely full satisfaction.
        """
        return self.detected and self.confidence >= min_confidence


class SchedulingWatermarker:
    """Embeds and verifies local watermarks on scheduling solutions.

    Parameters
    ----------
    incremental:
        When True (default) the encoding loop maintains scheduling
        windows with the incremental timing kernel
        (:class:`~repro.timing.kernel.IncrementalWindows`) instead of
        recomputing them from scratch after every temporal edge.  The
        two paths pick identical edges (the kernel's windows are
        bit-identical to the full recompute); ``incremental=False``
        keeps the reference implementation for the benchmark gate.
    """

    def __init__(
        self,
        signature: AuthorSignature,
        params: Optional[SchedulingWMParams] = None,
        incremental: bool = True,
    ) -> None:
        self.signature = signature
        self.params = params or SchedulingWMParams()
        self.incremental = incremental

    # ------------------------------------------------------------------
    # embedding
    # ------------------------------------------------------------------
    def embed(
        self,
        cdfg: CDFG,
        forced_root: Optional[str] = None,
        budget: Optional[Budget] = None,
        ii: Optional[int] = None,
    ) -> Tuple[CDFG, SchedulingWatermark]:
        """Embed the watermark; returns (marked copy, watermark record).

        The returned CDFG carries the temporal edges; feeding it to any
        constraint-respecting scheduler yields a watermarked schedule.
        The critical path is never lengthened (edges are only drawn when
        the constraint set stays satisfiable within the horizon).

        A periodic design (back edges present, or *ii* given) is
        embedded in the steady state: windows are the modulo-II ones,
        every mark carries ``params.wm_distance`` iterations, and *ii*
        defaults to the design's minimum initiation interval.  The
        watermark never raises the achievable II for the same reason it
        never lengthens an acyclic critical path — edges are drawn only
        when the periodic window set stays satisfiable.

        An optional *budget* bounds the domain-selection search; its
        exhaustion surfaces as
        :class:`~repro.errors.BudgetExceededError`.
        """
        bitstream = BitStream(self.signature, SCHEDULING_PURPOSE)
        return self._embed_with_bitstream(
            cdfg, bitstream, forced_root, budget=budget, ii=ii
        )

    def _embed_with_bitstream(
        self,
        cdfg: CDFG,
        bitstream: BitStream,
        forced_root: Optional[str] = None,
        roots: Optional[List[str]] = None,
        budget: Optional[Budget] = None,
        ii: Optional[int] = None,
    ) -> Tuple[CDFG, SchedulingWatermark]:
        with PERF.phase("embed"):
            return self._embed_impl(
                cdfg, bitstream, forced_root, roots, budget, ii
            )

    def _embed_impl(
        self,
        cdfg: CDFG,
        bitstream: BitStream,
        forced_root: Optional[str],
        roots: Optional[List[str]],
        budget: Optional[Budget],
        ii: Optional[int] = None,
    ) -> Tuple[CDFG, SchedulingWatermark]:
        if ii is None and cdfg.has_back_edges:
            ii = cdfg.view().min_ii()
        if ii is not None:
            base_cp = periodic_critical_path_length(cdfg, ii)
            horizon = self.params.horizon or base_cp
            windows = periodic_scheduling_windows(cdfg, horizon, ii)
        else:
            base_cp = critical_path_length(cdfg)
            horizon = self.params.horizon or base_cp
            windows = scheduling_windows(cdfg, horizon)
        # Window low ends ARE the ASAP schedule; laxity reuses them
        # instead of running its own forward pass.
        lax = laxity(cdfg, asap={n: w[0] for n, w in windows.items()})

        if forced_root is not None:
            domain = select_root_and_domain(
                cdfg,
                bitstream,
                self.params.domain,
                forced_root=forced_root,
                budget=budget,
            )
            eligible = self._eligible(
                cdfg, domain, horizon, base_cp, lax=lax, windows=windows
            )
            if len(eligible) < self.params.tau_prime_min:
                raise ConstraintEncodingError(
                    f"only {len(eligible)} eligible nodes at forced root "
                    f"{forced_root!r} (need {self.params.tau_prime_min})"
                )
            return self._encode(
                cdfg, domain, eligible, bitstream, horizon, base_cp, ii
            )

        # Retry domain selection until a locality offers enough eligible
        # nodes for the requested K ("the entire process of subtree
        # selection is repeated", §IV-A); fall back to the richest
        # localities seen if none fully suffices.
        # Localities ignore temporal edges, so the candidate roots cannot
        # change between retries: scan the design once, up front.
        if roots is None:
            roots = candidate_roots(cdfg, self.params.domain, budget)
        fallbacks: List[Tuple[int, Domain, List[str]]] = []
        for _ in range(self.params.max_domain_retries):
            check_deadline(budget, what="embed retry loop")
            domain = select_root_and_domain(
                cdfg, bitstream, self.params.domain, roots=roots, budget=budget
            )
            eligible = self._eligible(
                cdfg, domain, horizon, base_cp, lax=lax, windows=windows
            )
            if len(eligible) < self.params.tau_prime_min:
                continue
            k_target = self._k_target(domain)
            if len(eligible) >= k_target + 1:
                try:
                    return self._encode(
                        cdfg, domain, eligible, bitstream, horizon,
                        base_cp, ii,
                    )
                except ConstraintEncodingError:
                    continue
            fallbacks.append((len(eligible), domain, eligible))
        fallbacks.sort(key=lambda item: -item[0])
        for _, domain, eligible in fallbacks:
            try:
                return self._encode(
                    cdfg, domain, eligible, bitstream, horizon, base_cp, ii
                )
            except ConstraintEncodingError:
                continue
        raise DomainSelectionError(
            f"no encodable locality found in "
            f"{self.params.max_domain_retries} attempts "
            f"(tau={self.params.domain.tau}, "
            f"tau_prime_min={self.params.tau_prime_min})"
        )

    def _k_target(self, domain: Domain) -> int:
        """The requested number of temporal edges for this locality."""
        if self.params.k is not None:
            return self.params.k
        return max(1, round(self.params.k_fraction * domain.size))

    def _eligible(
        self,
        cdfg: CDFG,
        domain: Domain,
        horizon: int,
        base_cp: int,
        lax: Optional[dict] = None,
        windows: Optional[dict] = None,
    ) -> List[str]:
        """Fig. 2 lines 2–4: the eligible subset ``T'`` in domain order."""
        if lax is None:
            lax = laxity(cdfg)
        if windows is None:
            windows = scheduling_windows(cdfg, horizon)
        if self.params.eligibility == "mobility":
            slack_ok = [
                n
                for n in domain.nodes
                if windows[n][1] - windows[n][0] >= self.params.min_mobility
            ]
        else:
            threshold = base_cp * (1.0 - self.params.epsilon)
            slack_ok = [n for n in domain.nodes if lax[n] <= threshold]
        return _with_overlap_partner(slack_ok, windows)

    def _encode(
        self,
        cdfg: CDFG,
        domain: Domain,
        eligible: List[str],
        bitstream: BitStream,
        horizon: int,
        base_cp: int,
        ii: Optional[int] = None,
    ) -> Tuple[CDFG, SchedulingWatermark]:
        k = self._k_target(domain)
        # Destinations come from later members of the ordered selection
        # (Fig. 2 line 7: j > i), so the last member can never source an
        # edge.  Within a locality many eligible pairs are related by
        # existing paths (their order is already implied and carries no
        # evidence), so the selection is oversized to 2K: K edges stay
        # achievable even when half the pairs are path-related.
        selection_size = min(max(k + 1, 2 * k), len(eligible))
        k = min(k, selection_size - 1) if selection_size > 1 else 0
        selected = bitstream.ordered_selection(eligible, selection_size)

        distance = self.params.wm_distance if ii is not None else 0
        marked = cdfg.copy(f"{cdfg.name}+wm")
        if self.incremental:
            edges = self._draw_edges_kernel(
                marked, selected, bitstream, horizon, k, ii, distance
            )
        else:
            edges = self._draw_edges_reference(
                marked, selected, bitstream, horizon, k, ii, distance
            )

        if not edges:
            raise ConstraintEncodingError(
                f"no temporal edge embeddable at root {domain.root!r}"
            )
        identifier = domain.ordering.identifier
        watermark = SchedulingWatermark(
            author_fingerprint=self.signature.fingerprint(),
            root=domain.root,
            cone=domain.cone,
            domain_nodes=domain.nodes,
            eligible_nodes=tuple(eligible),
            selected_nodes=tuple(selected),
            temporal_edges=tuple(edges),
            temporal_edge_ids=tuple(
                (identifier[src], identifier[dst]) for src, dst in edges
            ),
            horizon=horizon,
            critical_path=base_cp,
            tau=self.params.domain.tau,
            distances=(distance,) * len(edges) if ii is not None else (),
            ii=ii,
        )
        return marked, watermark

    @staticmethod
    def _graph_admits(
        marked: CDFG, n_i: str, n_j: str, distance: int
    ) -> bool:
        """Shared graph-level candidate screen of both drawing loops.

        Rejects duplicates, constraints already implied by a
        within-iteration (skeleton) path, and — for distance-0 edges
        only — pairs whose reverse is reachable (the edge would close a
        combinational cycle).  A positive-distance edge may close
        cycles; its feasibility is the windows' business.
        """
        if marked.graph.has_edge(n_i, n_j):
            return False
        graph = (
            marked.skeleton_graph() if marked.has_back_edges else marked.graph
        )
        if distance == 0 and nx.has_path(graph, n_j, n_i):
            return False  # would create a combinational cycle
        if nx.has_path(graph, n_i, n_j):
            return False  # constraint already implied: no evidence
        return True

    def _draw_edges_kernel(
        self,
        marked: CDFG,
        selected: Tuple[str, ...],
        bitstream: BitStream,
        horizon: int,
        k: int,
        ii: Optional[int] = None,
        distance: int = 0,
    ) -> List[Tuple[str, str]]:
        """Fig. 2 lines 6–9 with incrementally maintained windows.

        Windows are repaired by delta propagation after every inserted
        edge instead of a full graph re-pass; because the kernel's
        windows equal the full recompute node-for-node, the bitstream
        sees identical candidate sets and this draws exactly the edges
        :meth:`_draw_edges_reference` would.
        """
        iw = IncrementalWindows(marked, horizon, ii=ii)
        edges: List[Tuple[str, str]] = []
        for i, n_i in enumerate(selected):
            if len(edges) >= k:
                break
            needed = marked.latency(n_i) + self.params.realization_slack
            later = selected[i + 1:]
            # Window screens (overlap + individual feasibility) for the
            # whole remaining selection in one bulk call; only survivors
            # pay for the graph-reachability checks.
            window_ok = iw.screen_targets(n_i, later, needed, distance)
            candidates = [
                n_j
                for n_j, ok in zip(later, window_ok)
                if ok and self._graph_admits(marked, n_i, n_j, distance)
            ]
            if not candidates:
                continue
            n_k = bitstream.choice(candidates)
            try:
                iw.add_edge(n_i, n_k, distance=distance)
            except InfeasibleScheduleError:
                # Unreachable on acyclic graphs once the per-candidate
                # screen passed (needed >= latency); in periodic mode
                # the screen is only necessary, and a dependence cycle
                # through the new edge can still empty a window — the
                # kernel raises before mutating, mirroring the reference
                # path's back-out.
                continue
            edges.append((n_i, n_k))
        PERF.add("embed.edges_added", len(edges))
        return edges

    def _draw_edges_reference(
        self,
        marked: CDFG,
        selected: Tuple[str, ...],
        bitstream: BitStream,
        horizon: int,
        k: int,
        ii: Optional[int] = None,
        distance: int = 0,
    ) -> List[Tuple[str, str]]:
        """Reference edge-drawing loop: full window recompute per edge.

        Retained for the benchmark gate, which asserts the kernel path
        produces an identical watermark record at a fraction of the
        cost.
        """

        def full_windows() -> dict:
            if ii is not None:
                return periodic_scheduling_windows(marked, horizon, ii)
            return scheduling_windows(marked, horizon)

        shift = (ii or 0) * distance
        windows = full_windows()
        edges: List[Tuple[str, str]] = []
        for i, n_i in enumerate(selected):
            if len(edges) >= k:
                break
            candidates = []
            for n_j in selected[i + 1:]:
                lo_j, hi_j = windows[n_j]
                # A distance-d target belongs to the iteration d
                # intervals later, so its window is screened shifted —
                # exactly what the kernel's screen_targets computes.
                shifted = (lo_j + shift, hi_j + shift)
                if not windows_overlap(windows[n_i], shifted):
                    continue
                lo_i, _ = windows[n_i]
                needed = marked.latency(n_i) + self.params.realization_slack
                if lo_i + needed > shifted[1]:
                    continue
                if not self._graph_admits(marked, n_i, n_j, distance):
                    continue
                candidates.append(n_j)
            if not candidates:
                continue
            n_k = bitstream.choice(candidates)
            marked.add_temporal_edge(n_i, n_k, distance=distance)
            try:
                windows = full_windows()
            except Exception:
                # Joint infeasibility: back the edge out and move on.
                marked.remove_edge(n_i, n_k)
                windows = full_windows()
                continue
            edges.append((n_i, n_k))
        return edges

    def embed_many(
        self, cdfg: CDFG, count: int, ii: Optional[int] = None
    ) -> Tuple[CDFG, List[SchedulingWatermark]]:
        """Embed several independent local watermarks (§III: "a number of
        'small' watermarks are randomly augmented in the design").

        Each watermark keys its bitstream with a distinct purpose label
        derived from its index, so the marks are independent.
        """
        if ii is None and cdfg.has_back_edges:
            ii = cdfg.view().min_ii()
        marked = cdfg
        marks: List[SchedulingWatermark] = []
        roots = candidate_roots(cdfg, self.params.domain)
        for index in range(count):
            bitstream = BitStream(
                self.signature, f"{SCHEDULING_PURPOSE}/{index}"
            )
            try:
                marked, mark = self._embed_with_bitstream(
                    marked, bitstream, roots=roots, ii=ii
                )
            except (ConstraintEncodingError, DomainSelectionError):
                continue
            marks.append(mark)
        return marked, marks

    def embed_until(
        self,
        cdfg: CDFG,
        target_edges: int,
        max_marks: int = 64,
        ii: Optional[int] = None,
    ) -> Tuple[CDFG, List[SchedulingWatermark]]:
        """Embed local watermarks until *target_edges* constraints exist.

        This realizes the experimental setup behind Table I, where a
        fixed percentage of the design's operations is constrained: many
        small localities are marked until the total temporal-edge count
        reaches the target.
        """
        if ii is None and cdfg.has_back_edges:
            ii = cdfg.view().min_ii()
        marked = cdfg
        marks: List[SchedulingWatermark] = []
        roots = candidate_roots(cdfg, self.params.domain)
        total = 0
        for index in range(max_marks):
            if total >= target_edges:
                break
            bitstream = BitStream(
                self.signature, f"{SCHEDULING_PURPOSE}/{index}"
            )
            try:
                marked, mark = self._embed_with_bitstream(
                    marked, bitstream, roots=roots, ii=ii
                )
            except (ConstraintEncodingError, DomainSelectionError):
                continue
            marks.append(mark)
            total += mark.k
        return marked, marks

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def verify(
        self,
        suspect: CDFG,
        schedule: Schedule,
        watermark: SchedulingWatermark,
        model: str = "poisson",
    ) -> VerificationResult:
        """Check a suspect schedule against a watermark record by name.

        The suspect CDFG is the design as recovered from the
        implementation — *without* temporal edges (they were stripped
        after synthesis, Fig. 1); windows for the ``P_c`` estimate are
        computed on it directly.  A periodic record (``watermark.ii``
        set) checks each edge in its cross-iteration form and estimates
        ``P_c`` over the steady-state windows at that II.
        """
        satisfied = [
            (src, dst, d)
            for (src, dst), d in zip(
                watermark.temporal_edges, watermark.edge_distances
            )
            if src in suspect
            and dst in suspect
            and schedule.satisfies_order(
                src, dst, distance=d, ii=watermark.ii
            )
        ]
        log10_pc = (
            approx_log10_pc(
                suspect,
                [(src, dst) for src, dst, _ in satisfied],
                horizon=None,
                model=model,
                ii=watermark.ii,
                distances=[d for _, _, d in satisfied],
            )
            if satisfied
            else 0.0
        )
        return VerificationResult(
            satisfied=len(satisfied),
            total=len(watermark.temporal_edges),
            log10_pc=log10_pc,
        )

    def exact_coincidence(
        self,
        cdfg: CDFG,
        watermark: SchedulingWatermark,
        limit: int = 10_000_000,
    ):
        """Exact ``P_c`` of the watermark's locality (small designs only).

        Enumerates the schedules of the locality cone with and without
        the temporal edges, exactly like the paper's Fig. 3 numbers.
        Periodic records enumerate over the steady-state windows with
        the cross-iteration satisfaction rule.
        """
        return exact_pc(
            cdfg,
            watermark.temporal_edges,
            horizon=watermark.horizon,
            nodes=list(watermark.cone),
            limit=limit,
            ii=watermark.ii,
            distances=watermark.edge_distances,
        )
