"""Incremental timing kernel: cached CDFG views and delta window updates.

Every layer of the reproduction — watermark embedding (§IV-A),
force-directed scheduling, template covering, stress campaigns — bottoms
out in ASAP/ALAP window maintenance.  The naive formulation recomputes a
full topological sort plus full-graph forward/backward passes after
every temporal-edge insertion; this module makes both halves cheap:

* :class:`CDFGView` — a versioned, index-based snapshot of a
  :class:`~repro.cdfg.graph.CDFG`: dense node indexing, latency arrays,
  integer pred/succ adjacency, a lazily (re)computed topological order,
  and cached ASAP / ALAP / tail-length arrays.  The view is cached on
  the CDFG and invalidated by the graph's mutation counter, so repeated
  timing queries between mutations cost one dict lookup.
* :class:`IncrementalWindows` — ASAP/ALAP start-time windows maintained
  under temporal-edge insertion by worklist delta-propagation over only
  the affected fanin/fanout cone, with an O(1) feasibility pre-check
  ``asap(u) + lat(u) <= alap(v)``, in the spirit of classic incremental
  timing analysis (and of the dynamically bounded delay model's
  restriction of recomputation to the logic actually affected).

Two interchangeable implementations back every sweep:

* the **reference** path — the original pure-Python worklists, node at
  a time over per-node adjacency lists; and
* the **vectorized** path — numpy CSR/CSC flat arrays grouped by level
  (longest-path edge depth), swept one level at a time with
  ``np.maximum.reduceat`` / ``np.minimum.reduceat`` so a whole level's
  nodes aggregate their predecessors in one C call, plus bulk
  feasibility screens over entire candidate-edge populations and
  frontier-batched delta propagation that walks the affected cone
  level-by-level as arrays.

:func:`set_kernel_mode` (or ``REPRO_KERNEL=auto|vectorized|reference``)
selects between them; ``auto`` uses the vectorized path only where it
wins — wide graphs with many nodes per level — and leaves deep narrow
graphs on the Python path.  The two paths are bit-identical: both
compute the same integer longest-path fixpoint, which the
``kernel_vectorized`` differential oracle in :mod:`repro.verify`
enforces trial after trial.

The key invariant — proved by induction over the propagation worklist —
is that when the O(1) endpoint check passes, no window in the graph can
empty: ASAP values only rise, ALAP values only fall, and every raised
ASAP stays below its node's ALAP because the predecessor that raised it
already satisfied the same bound.  Incremental results are therefore
*bit-identical* to a from-scratch recompute (both compute the same
longest-path fixpoint), which the benchmark gate asserts node-for-node.
"""

from __future__ import annotations

import os
from collections import OrderedDict, deque
from contextlib import contextmanager
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.cdfg.graph import CDFG, EdgeKind
from repro.errors import InfeasibleScheduleError
from repro.util.perf import PERF

try:  # numpy is a baked-in dependency, but the kernel degrades gracefully
    import numpy as _np
except ImportError:  # pragma: no cover - image always ships numpy
    _np = None  # type: ignore[assignment]

Window = Tuple[int, int]

#: True when the vectorized path can be selected at all.
NUMPY_AVAILABLE = _np is not None

#: Valid arguments to :func:`set_kernel_mode` / ``REPRO_KERNEL``.
KERNEL_MODES = ("auto", "vectorized", "reference")

#: ``auto`` mode only considers the vectorized sweeps above this size.
AUTO_MIN_NODES = 4096

#: ...and only when the graph is wide enough (mean nodes per level) for
#: level batching to amortize the per-level numpy call overhead.  Deep
#: narrow graphs (the Long Echo Canceler: 6418 nodes over 2567 levels)
#: stay on the Python path, where they are measurably faster.
AUTO_MIN_WIDTH = 16.0

#: ``auto`` mode screens candidate-edge populations with numpy from this
#: many pairs; below it the Python loop wins on call overhead.
AUTO_MIN_PAIRS = 64

#: Per-horizon ALAP memo bound (LRU).  Arena/verify horizon sweeps used
#: to grow the memo without limit — at 100k nodes each entry is a full
#: node-length list, so the cap matters.
ALAP_MEMO_CAP = 4

#: Per-II modulo ASAP/ALAP memo bound (LRU) — the min-II binary probe
#: touches O(log II) candidate IIs, each memo entry a node-length list.
MODULO_MEMO_CAP = 8

#: Extra fixpoint sweeps beyond the simple-witness-path bound before a
#: modulo sweep declares the candidate II infeasible.  A maximal witness
#: path can be taken simple (cycles of weight <= 0 never help), so it
#: crosses each back edge at most once: ``#back_edges + 1`` sweeps reach
#: the fixpoint of any feasible II, and continued movement afterwards
#: certifies a positive-weight cycle.
MODULO_SWEEP_SLACK = 2

_mode_env = os.environ.get("REPRO_KERNEL", "auto")
_KERNEL_MODE = _mode_env if _mode_env in KERNEL_MODES else "auto"


def kernel_mode() -> str:
    """The active kernel mode: ``auto``, ``vectorized`` or ``reference``."""
    return _KERNEL_MODE


def set_kernel_mode(mode: str) -> str:
    """Select the sweep implementation; returns the previous mode.

    ``auto`` (the default) picks vectorized sweeps only on graphs wide
    and large enough for level batching to win; ``vectorized`` forces
    the numpy path everywhere (raises if numpy is unavailable);
    ``reference`` forces the original Python worklists.
    """
    global _KERNEL_MODE
    if mode not in KERNEL_MODES:
        raise ValueError(
            f"unknown kernel mode {mode!r}; expected one of {KERNEL_MODES}"
        )
    if mode == "vectorized" and _np is None:
        raise ValueError("kernel mode 'vectorized' requires numpy")
    previous = _KERNEL_MODE
    _KERNEL_MODE = mode
    return previous


@contextmanager
def kernel_mode_override(mode: str) -> Iterator[None]:
    """Context manager: run the body under *mode*, then restore."""
    previous = set_kernel_mode(mode)
    try:
        yield
    finally:
        set_kernel_mode(previous)


def use_bulk_arrays(count: int) -> bool:
    """Should a *count*-pair feasibility screen use the numpy path?"""
    mode = _KERNEL_MODE
    if _np is None or mode == "reference":
        return False
    if mode == "vectorized":
        return True
    return count >= AUTO_MIN_PAIRS


class CDFGView:
    """Dense, versioned snapshot of a CDFG for timing analyses.

    Node names are mapped to integers in insertion order; adjacency is
    stored as integer lists so full passes never touch networkx.  The
    snapshot records the CDFG's mutation counter at build time;
    :meth:`repro.cdfg.graph.CDFG.view` rebuilds it when the counter
    moves.  :meth:`apply_edge` lets the incremental kernel patch the
    view in lockstep with a just-inserted edge instead of rebuilding.

    When the vectorized path is active the view additionally carries a
    level-sorted CSR/CSC array form of the adjacency (see
    :meth:`_ensure_arrays`); edges patched in afterwards accumulate in a
    small COO side list consumed by the sweeps, so warm views stay
    vectorizable across :class:`IncrementalWindows` insertions.
    """

    __slots__ = (
        "cdfg",
        "version",
        "nodes",
        "index",
        "latency",
        "preds",
        "succs",
        "schedulable_operations",
        "_data_in",
        "_data_out",
        "_pis",
        "_pos",
        "_topo",
        "_topo_pos",
        "_asap",
        "_critical_path",
        "_tails",
        "_alap_by_horizon",
        "_levels",
        "_levels_np",
        "_num_levels",
        "_lvl_order",
        "_lvl_pos",
        "_lvl_starts",
        "_csc_indptr",
        "_csc_flat",
        "_csr_indptr",
        "_csr_flat",
        "_lat_np",
        "_extra_edges",
        "_asap_np",
        "_alap_np_h",
        "back_edges",
        "_back_succs",
        "_back_preds",
        "_modulo_asap_memo",
        "_modulo_alap_memo",
    )

    def __init__(self, cdfg: CDFG) -> None:
        PERF.add("kernel.view_builds")
        self.cdfg = cdfg
        self.version = cdfg.mutation_count
        g = cdfg.graph
        self.nodes: List[str] = list(g.nodes)
        self.index: Dict[str, int] = {n: i for i, n in enumerate(self.nodes)}
        data = g.nodes
        self.latency: List[int] = [data[n]["latency"] for n in self.nodes]
        n = len(self.nodes)
        self.preds: List[List[int]] = [[] for _ in range(n)]
        self.succs: List[List[int]] = [[] for _ in range(n)]
        self._data_in = [0] * n
        self._data_out = [0] * n
        index = self.index
        #: Positive-distance (inter-iteration) edges as (src, dst, dist)
        #: index triples.  They are *excluded* from preds/succs: every
        #: non-periodic analysis is, by construction, the analysis of
        #: the distance-0 skeleton — the II -> infinity limit in which
        #: back-edge constraints vanish.
        self.back_edges: List[Tuple[int, int, int]] = []
        for i, u in enumerate(self.nodes):
            for v, attrs in g.succ[u].items():
                j = index[v]
                distance = attrs.get("distance", 0)
                if distance:
                    self.back_edges.append((i, j, distance))
                    continue
                self.succs[i].append(j)
                self.preds[j].append(i)
                if attrs["kind"] is EdgeKind.DATA:
                    self._data_out[i] += 1
                    self._data_in[j] += 1
        self.schedulable_operations: Tuple[str, ...] = tuple(
            name for name in self.nodes if data[name]["op"].is_schedulable
        )
        self._pis: Optional[Tuple[str, ...]] = None
        self._pos: Optional[Tuple[str, ...]] = None
        self._topo: Optional[List[int]] = None
        self._topo_pos: Optional[List[int]] = None
        self._asap: Optional[List[int]] = None
        self._critical_path: Optional[int] = None
        self._tails: Optional[List[int]] = None
        self._alap_by_horizon: "OrderedDict[int, List[int]]" = OrderedDict()
        self._levels: Optional[List[int]] = None
        self._levels_np = None
        self._num_levels = 0
        self._lvl_order = None
        self._lvl_pos = None
        self._lvl_starts = None
        self._csc_indptr = None
        self._csc_flat = None
        self._csr_indptr = None
        self._csr_flat = None
        self._lat_np = None
        self._extra_edges: Optional[List[Tuple[int, int]]] = None
        self._asap_np = None
        self._alap_np_h: Optional[Tuple[int, object]] = None
        self._back_succs: Optional[Dict[int, List[Tuple[int, int]]]] = None
        self._back_preds: Optional[Dict[int, List[Tuple[int, int]]]] = None
        self._modulo_asap_memo: "OrderedDict[int, List[int]]" = OrderedDict()
        self._modulo_alap_memo: "OrderedDict[Tuple[int, int], List[int]]" = (
            OrderedDict()
        )

    # ------------------------------------------------------------------
    # cached node sets
    # ------------------------------------------------------------------
    @property
    def primary_inputs(self) -> Tuple[str, ...]:
        """Nodes with no data predecessors, in insertion order."""
        if self._pis is None:
            self._pis = tuple(
                name
                for i, name in enumerate(self.nodes)
                if self._data_in[i] == 0
            )
        return self._pis

    @property
    def primary_outputs(self) -> Tuple[str, ...]:
        """Nodes with no data successors, in insertion order."""
        if self._pos is None:
            self._pos = tuple(
                name
                for i, name in enumerate(self.nodes)
                if self._data_out[i] == 0
            )
        return self._pos

    # ------------------------------------------------------------------
    # topological order
    # ------------------------------------------------------------------
    def topo_order(self) -> List[int]:
        """Node indices in topological order (Kahn, insertion-seeded)."""
        if self._topo is None:
            n = len(self.nodes)
            indegree = [len(self.preds[i]) for i in range(n)]
            queue = deque(i for i in range(n) if indegree[i] == 0)
            order: List[int] = []
            while queue:
                i = queue.popleft()
                order.append(i)
                for j in self.succs[i]:
                    indegree[j] -= 1
                    if indegree[j] == 0:
                        queue.append(j)
            if len(order) != n:  # pragma: no cover - CDFG stays acyclic
                raise InfeasibleScheduleError(
                    f"CDFG {self.cdfg.name!r} contains a cycle"
                )
            self._topo = order
            pos = [0] * n
            for position, i in enumerate(order):
                pos[i] = position
            self._topo_pos = pos
        return self._topo

    # ------------------------------------------------------------------
    # level structure and CSR/CSC arrays (vectorized path)
    # ------------------------------------------------------------------
    def _ensure_levels(self) -> None:
        """Longest-path edge depth per node: every edge goes level-up."""
        if self._levels is not None:
            return
        n = len(self.nodes)
        level = [0] * n
        for i in self.topo_order():
            nxt = level[i] + 1
            for s in self.succs[i]:
                if nxt > level[s]:
                    level[s] = nxt
        self._levels = level
        self._num_levels = (max(level) + 1) if n else 0
        if _np is not None:
            self._levels_np = _np.array(level, dtype=_np.int64)
        self._extra_edges = []

    def _ensure_arrays(self) -> None:
        """Build the level-sorted CSR/CSC flat-array adjacency.

        Positions ``a:b`` of the level order hold one level's nodes;
        ``indptr[p]:indptr[p+1]`` of the flat array holds the adjacency
        of the node at level-order position ``p``.  Sweeps then reduce a
        whole level with one ``reduceat`` call.  Any edges patched into
        the view before the build are already in the per-node lists, so
        the arrays absorb them and the COO side list resets.
        """
        if self._csr_indptr is not None:
            return
        np = _np
        self._ensure_levels()
        PERF.add("kernel.vec.csr_builds")
        with PERF.phase("kernel.vec.csr_build"):
            n = len(self.nodes)
            order = np.argsort(self._levels_np, kind="stable")
            self._lvl_order = order
            pos = np.empty(n, dtype=np.int64)
            pos[order] = np.arange(n, dtype=np.int64)
            self._lvl_pos = pos
            sorted_levels = self._levels_np[order]
            self._lvl_starts = np.searchsorted(
                sorted_levels, np.arange(self._num_levels + 1)
            )
            preds, succs = self.preds, self.succs
            flat_preds: List[int] = []
            flat_succs: List[int] = []
            csc_indptr = np.zeros(n + 1, dtype=np.int64)
            csr_indptr = np.zeros(n + 1, dtype=np.int64)
            for p, node in enumerate(order.tolist()):
                flat_preds.extend(preds[node])
                flat_succs.extend(succs[node])
                csc_indptr[p + 1] = len(flat_preds)
                csr_indptr[p + 1] = len(flat_succs)
            self._csc_indptr = csc_indptr
            self._csc_flat = np.array(flat_preds, dtype=np.int64)
            self._csr_indptr = csr_indptr
            self._csr_flat = np.array(flat_succs, dtype=np.int64)
            self._lat_np = np.array(self.latency, dtype=np.int64)
            self._extra_edges = []

    def _drop_arrays(self) -> None:
        self._levels = None
        self._levels_np = None
        self._num_levels = 0
        self._lvl_order = None
        self._lvl_pos = None
        self._lvl_starts = None
        self._csc_indptr = None
        self._csc_flat = None
        self._csr_indptr = None
        self._csr_flat = None
        self._lat_np = None
        self._extra_edges = None

    def _extras_grouped(self, by_dst: bool):
        """COO side edges grouped by the processing level of a sweep."""
        extras = self._extra_edges
        if not extras:
            return {}
        np = _np
        levels = self._levels
        grouped: Dict[int, List[Tuple[int, int]]] = {}
        for u, v in extras:
            grouped.setdefault(levels[v] if by_dst else levels[u], []).append(
                (u, v)
            )
        return {
            lvl: (
                np.array([u for u, _ in pairs], dtype=np.int64),
                np.array([v for _, v in pairs], dtype=np.int64),
            )
            for lvl, pairs in grouped.items()
        }

    def _use_vectorized_sweeps(self) -> bool:
        mode = _KERNEL_MODE
        if _np is None or mode == "reference" or not self.nodes:
            return False
        if mode == "vectorized":
            return True
        n = len(self.nodes)
        if n < AUTO_MIN_NODES:
            return False
        self._ensure_levels()
        return n / self._num_levels >= AUTO_MIN_WIDTH

    # ------------------------------------------------------------------
    # cached timing arrays
    # ------------------------------------------------------------------
    def asap(self) -> List[int]:
        """Earliest start per node (longest path from the sources)."""
        if self._asap is None:
            PERF.add("kernel.full_asap_passes")
            if self._use_vectorized_sweeps():
                PERF.add("kernel.vec.sweeps")
                with PERF.phase("kernel.vec.asap"):
                    self._asap = self._asap_vectorized()
            else:
                with PERF.phase("kernel.ref.asap"):
                    self._asap = self._asap_reference()
        return self._asap

    def _asap_reference(self) -> List[int]:
        latency = self.latency
        asap = [0] * len(self.nodes)
        for i in self.topo_order():
            lo = 0
            for p in self.preds[i]:
                candidate = asap[p] + latency[p]
                if candidate > lo:
                    lo = candidate
            asap[i] = lo
        return asap

    def _asap_vectorized(self) -> List[int]:
        np = _np
        self._ensure_arrays()
        asap = np.zeros(len(self.nodes), dtype=np.int64)
        lat = self._lat_np
        order, starts = self._lvl_order, self._lvl_starts
        indptr, flat = self._csc_indptr, self._csc_flat
        extras = self._extras_grouped(by_dst=True)
        for level in range(1, self._num_levels):
            a, b = int(starts[level]), int(starts[level + 1])
            if a == b:  # pragma: no cover - every level is populated
                continue
            # Every node at level >= 1 has at least one predecessor (its
            # level came from one), so no segment here is empty.
            p0, p1 = int(indptr[a]), int(indptr[b])
            src = flat[p0:p1]
            cand = asap[src] + lat[src]
            asap[order[a:b]] = np.maximum.reduceat(cand, indptr[a:b] - p0)
            hit = extras.get(level)
            if hit is not None:
                esrc, edst = hit
                np.maximum.at(asap, edst, asap[esrc] + lat[esrc])
        self._asap_np = asap
        return asap.tolist()

    def tails(self) -> List[int]:
        """Longest path length from each node's start to any sink."""
        if self._tails is None:
            PERF.add("kernel.full_tail_passes")
            if self._use_vectorized_sweeps():
                PERF.add("kernel.vec.sweeps")
                with PERF.phase("kernel.vec.tails"):
                    self._tails = self._tails_vectorized()
            else:
                with PERF.phase("kernel.ref.tails"):
                    self._tails = self._tails_reference()
        return self._tails

    def _tails_reference(self) -> List[int]:
        latency = self.latency
        tails = [0] * len(self.nodes)
        for i in reversed(self.topo_order()):
            lat = latency[i]
            best = lat
            for s in self.succs[i]:
                candidate = lat + tails[s]
                if candidate > best:
                    best = candidate
            tails[i] = best
        return tails

    def _tails_vectorized(self) -> List[int]:
        np = _np
        self._ensure_arrays()
        lat = self._lat_np
        tails = lat.copy()
        order, starts = self._lvl_order, self._lvl_starts
        indptr, flat = self._csr_indptr, self._csr_flat
        extras = self._extras_grouped(by_dst=False)
        for level in range(self._num_levels - 1, -1, -1):
            a, b = int(starts[level]), int(starts[level + 1])
            if a == b:  # pragma: no cover - every level is populated
                continue
            # Successor segments can be empty (sinks); reduceat over the
            # non-empty segment starts only — dropped (empty) segments
            # contribute zero width, so the spans stay aligned.
            ptr = indptr[a : b + 1]
            nonempty = ptr[1:] > ptr[:-1]
            if nonempty.any():
                p0, p1 = int(ptr[0]), int(ptr[-1])
                vals = tails[flat[p0:p1]]
                seg_max = np.maximum.reduceat(vals, ptr[:-1][nonempty] - p0)
                idxs = order[a:b][nonempty]
                tails[idxs] = lat[idxs] + seg_max
            hit = extras.get(level)
            if hit is not None:
                esrc, edst = hit
                np.maximum.at(tails, esrc, lat[esrc] + tails[edst])
        return tails.tolist()

    def critical_path_length(self) -> int:
        """Longest path through the graph, in control steps.

        Memoized beside the ASAP array and dropped with it.
        """
        if self._critical_path is None:
            asap = self.asap()
            latency = self.latency
            self._critical_path = max(
                (asap[i] + latency[i] for i in range(len(asap))), default=0
            )
        return self._critical_path

    def alap(self, horizon: int) -> List[int]:
        """Latest start per node within *horizon* steps.

        Memoized per horizon with an LRU bound of :data:`ALAP_MEMO_CAP`
        entries — horizon sweeps (arena, verify) touch many horizons and
        each memo entry is a full node-length list.

        Raises
        ------
        InfeasibleScheduleError
            If *horizon* is shorter than the critical path.
        """
        cached = self._alap_by_horizon.get(horizon)
        if cached is not None:
            self._alap_by_horizon.move_to_end(horizon)
            PERF.add("kernel.alap_memo_hits")
            return cached
        needed = self.critical_path_length()
        if horizon < needed:
            raise InfeasibleScheduleError(
                f"horizon {horizon} below critical path {needed}"
            )
        PERF.add("kernel.full_alap_passes")
        if self._use_vectorized_sweeps():
            PERF.add("kernel.vec.sweeps")
            with PERF.phase("kernel.vec.alap"):
                alap = self._alap_vectorized(horizon)
        else:
            with PERF.phase("kernel.ref.alap"):
                alap = self._alap_reference(horizon)
        self._alap_by_horizon[horizon] = alap
        if len(self._alap_by_horizon) > ALAP_MEMO_CAP:
            self._alap_by_horizon.popitem(last=False)
            PERF.add("kernel.alap_memo_evictions")
        return alap

    def _alap_reference(self, horizon: int) -> List[int]:
        latency = self.latency
        alap = [0] * len(self.nodes)
        for i in reversed(self.topo_order()):
            hi = horizon - latency[i]
            for s in self.succs[i]:
                candidate = alap[s] - latency[i]
                if candidate < hi:
                    hi = candidate
            alap[i] = hi
        return alap

    def _alap_vectorized(self, horizon: int) -> List[int]:
        np = _np
        self._ensure_arrays()
        lat = self._lat_np
        alap = np.zeros(len(self.nodes), dtype=np.int64)
        order, starts = self._lvl_order, self._lvl_starts
        indptr, flat = self._csr_indptr, self._csr_flat
        extras = self._extras_grouped(by_dst=False)
        for level in range(self._num_levels - 1, -1, -1):
            a, b = int(starts[level]), int(starts[level + 1])
            if a == b:  # pragma: no cover - every level is populated
                continue
            idxs = order[a:b]
            base = np.full(b - a, horizon, dtype=np.int64)
            ptr = indptr[a : b + 1]
            nonempty = ptr[1:] > ptr[:-1]
            if nonempty.any():
                p0, p1 = int(ptr[0]), int(ptr[-1])
                vals = alap[flat[p0:p1]]
                seg_min = np.minimum.reduceat(vals, ptr[:-1][nonempty] - p0)
                base[nonempty] = np.minimum(base[nonempty], seg_min)
            alap[idxs] = base - lat[idxs]
            hit = extras.get(level)
            if hit is not None:
                esrc, edst = hit
                np.minimum.at(alap, esrc, alap[edst] - lat[esrc])
        self._alap_np_h = (horizon, alap)
        return alap.tolist()

    # ------------------------------------------------------------------
    # periodic (modulo-II) analyses
    # ------------------------------------------------------------------
    @property
    def has_back_edges(self) -> bool:
        """Whether the snapshot carries inter-iteration back edges."""
        return bool(self.back_edges)

    def _back_adj(
        self,
    ) -> Tuple[Dict[int, List[Tuple[int, int]]], Dict[int, List[Tuple[int, int]]]]:
        """Back-edge adjacency maps ``src -> [(dst, d)]`` / reversed.

        Dict-of-lists rather than node-length lists: back edges are few
        even on large periodic designs, and acyclic graphs pay nothing.
        """
        if self._back_succs is None:
            succs: Dict[int, List[Tuple[int, int]]] = {}
            preds: Dict[int, List[Tuple[int, int]]] = {}
            for i, j, d in self.back_edges:
                succs.setdefault(i, []).append((j, d))
                preds.setdefault(j, []).append((i, d))
            self._back_succs = succs
            self._back_preds = preds
        return self._back_succs, self._back_preds

    def _modulo_sweep_limit(self) -> int:
        return len(self.back_edges) + 1 + MODULO_SWEEP_SLACK

    def asap_modulo(self, ii: int) -> List[int]:
        """Steady-state earliest start per node at initiation interval II.

        The periodic recurrence: the window of ``v`` sees
        ``asap(u) + lat(u) - II*distance(u, v)`` from every in-edge.
        Computed as repeated skeleton-topo-order sweeps folding the
        back-edge terms, to the least fixpoint; values floor at 0 (the
        iteration's release).  With no back edges this *is* :meth:`asap`.

        Raises
        ------
        InfeasibleScheduleError
            If the candidate II is infeasible — some dependence cycle
            has positive weight ``sum(lat) - II*sum(distance)``, which
            surfaces as the sweep failing to reach a fixpoint within
            the simple-witness-path bound.
        """
        if ii < 1:
            raise InfeasibleScheduleError(
                f"initiation interval must be >= 1, got {ii}"
            )
        if not self.back_edges:
            return self.asap()
        cached = self._modulo_asap_memo.get(ii)
        if cached is not None:
            self._modulo_asap_memo.move_to_end(ii)
            return cached
        PERF.add("kernel.modulo_asap_passes")
        latency = self.latency
        order = self.topo_order()
        _, back_preds = self._back_adj()
        asap = [0] * len(self.nodes)
        with PERF.phase("kernel.modulo.asap"):
            for _ in range(self._modulo_sweep_limit()):
                changed = False
                for i in order:
                    lo = 0
                    for p in self.preds[i]:
                        candidate = asap[p] + latency[p]
                        if candidate > lo:
                            lo = candidate
                    for p, d in back_preds.get(i, ()):
                        candidate = asap[p] + latency[p] - ii * d
                        if candidate > lo:
                            lo = candidate
                    if lo > asap[i]:
                        asap[i] = lo
                        changed = True
                if not changed:
                    break
            else:
                raise InfeasibleScheduleError(
                    f"initiation interval {ii} infeasible for "
                    f"{self.cdfg.name!r}: positive-weight dependence cycle"
                )
        self._modulo_asap_memo[ii] = asap
        if len(self._modulo_asap_memo) > MODULO_MEMO_CAP:
            self._modulo_asap_memo.popitem(last=False)
        return asap

    def alap_modulo(self, ii: int, horizon: int) -> List[int]:
        """Steady-state latest start per node at II within *horizon*.

        Greatest fixpoint of the reverse recurrence — the window of
        ``u`` sees ``alap(v) + II*distance(u, v) - lat(u)`` from every
        out-edge — with ceiling ``horizon - lat``.  Raises
        :class:`InfeasibleScheduleError` when the II is infeasible or
        any steady-state window would empty within *horizon*.
        """
        if not self.back_edges:
            return self.alap(horizon)
        key = (ii, horizon)
        cached = self._modulo_alap_memo.get(key)
        if cached is not None:
            self._modulo_alap_memo.move_to_end(key)
            return cached
        asap = self.asap_modulo(ii)  # also validates the II
        PERF.add("kernel.modulo_alap_passes")
        latency = self.latency
        order = self.topo_order()
        back_succs, _ = self._back_adj()
        alap = [horizon - latency[i] for i in range(len(self.nodes))]
        with PERF.phase("kernel.modulo.alap"):
            for _ in range(self._modulo_sweep_limit()):
                changed = False
                for i in reversed(order):
                    hi = horizon - latency[i]
                    for s in self.succs[i]:
                        candidate = alap[s] - latency[i]
                        if candidate < hi:
                            hi = candidate
                    for s, d in back_succs.get(i, ()):
                        candidate = alap[s] + ii * d - latency[i]
                        if candidate < hi:
                            hi = candidate
                    if hi < alap[i]:
                        alap[i] = hi
                        changed = True
                if not changed:
                    break
            else:  # pragma: no cover - asap_modulo already rejected the II
                raise InfeasibleScheduleError(
                    f"initiation interval {ii} infeasible for "
                    f"{self.cdfg.name!r}: positive-weight dependence cycle"
                )
        for i, name in enumerate(self.nodes):
            if asap[i] > alap[i]:
                raise InfeasibleScheduleError(
                    f"window of {name!r} empty at II={ii} within "
                    f"horizon {horizon}"
                )
        self._modulo_alap_memo[key] = alap
        if len(self._modulo_alap_memo) > MODULO_MEMO_CAP:
            self._modulo_alap_memo.popitem(last=False)
        return alap

    def ii_feasible(self, ii: int) -> bool:
        """Whether every dependence cycle closes at this II."""
        try:
            self.asap_modulo(ii)
        except InfeasibleScheduleError:
            return False
        return True

    def min_ii(self) -> int:
        """Smallest feasible initiation interval (the recurrence MII).

        Binary probe over the feasibility predicate — feasibility is
        monotone in II since larger IIs only lower every cycle weight.
        ``sum(latency)`` is always a feasible upper bound: any cycle
        crosses at least one back edge, so its weight
        ``sum(lat) - II*sum(dist)`` is non-positive there.
        """
        if not self.back_edges:
            return 1
        lo, hi = 1, max(1, sum(self.latency))
        if self.ii_feasible(lo):
            return lo
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if self.ii_feasible(mid):
                hi = mid
            else:
                lo = mid
        return hi

    def modulo_critical_path_length(self, ii: int) -> int:
        """Steady-state makespan lower bound at II (max asap + lat)."""
        asap = self.asap_modulo(ii)
        latency = self.latency
        if not asap:
            return 0
        return max(asap[i] + latency[i] for i in range(len(asap)))

    # ------------------------------------------------------------------
    # bulk feasibility screens
    # ------------------------------------------------------------------
    def feasible_pairs(
        self, horizon: int, pairs: Sequence[Tuple[int, int]]
    ) -> List[bool]:
        """``asap[u] + lat[u] <= alap[v]`` for each index pair, in bulk.

        The screen behind temporal-edge candidate filtering: evaluated
        over whole candidate populations with one numpy expression when
        the vectorized path is active, falling back to the per-pair loop
        otherwise.  Results are identical either way.
        """
        asap = self.asap()
        alap = self.alap(horizon)
        count = len(pairs)
        if use_bulk_arrays(count):
            np = _np
            PERF.add("kernel.vec.bulk_screens")
            PERF.add("kernel.vec.bulk_pairs", count)
            flat = np.fromiter(
                chain.from_iterable(pairs), dtype=np.int64, count=2 * count
            )
            src = flat[0::2]
            dst = flat[1::2]
            lat = (
                self._lat_np
                if self._lat_np is not None
                else np.array(self.latency, dtype=np.int64)
            )
            # The vectorized sweeps stash their arrays before listifying;
            # fall back to (and cache) a one-time conversion of the memo
            # when the sweep ran on the Python path.
            if self._asap_np is None:
                self._asap_np = np.array(asap, dtype=np.int64)
            asap_np = self._asap_np
            if self._alap_np_h is None or self._alap_np_h[0] != horizon:
                self._alap_np_h = (horizon, np.array(alap, dtype=np.int64))
            alap_np = self._alap_np_h[1]
            return ((asap_np[src] + lat[src]) <= alap_np[dst]).tolist()
        latency = self.latency
        return [asap[u] + latency[u] <= alap[v] for u, v in pairs]

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def divergence_from(self, other: "CDFGView") -> Optional[str]:
        """First difference between this view and *other*, or ``None``.

        Used by the ``repro.verify`` fuzz oracle to cross-check a warm
        (possibly incrementally patched) view against a cold rebuild
        after every mutation.  Compares the node universe, index map,
        latencies, adjacency (as sets — patching appends, rebuilding
        follows networkx edge-insertion order), the derived node-set
        caches, and every memoized timing array, forcing the lazy ones
        on both sides so stale memos cannot hide.
        """
        if self.nodes != other.nodes:
            return f"node lists differ: {self.nodes} != {other.nodes}"
        if self.index != other.index:
            return "index maps differ"
        if self.latency != other.latency:
            return f"latency arrays differ: {self.latency} != {other.latency}"
        for name, mine, theirs in (
            ("preds", self.preds, other.preds),
            ("succs", self.succs, other.succs),
        ):
            mine_sets = [sorted(adj) for adj in mine]
            theirs_sets = [sorted(adj) for adj in theirs]
            if mine_sets != theirs_sets:
                return f"{name} adjacency differs"
        if self.schedulable_operations != other.schedulable_operations:
            return "schedulable-operation sets differ"
        if self.primary_inputs != other.primary_inputs:
            return (
                f"primary inputs differ: {self.primary_inputs} != "
                f"{other.primary_inputs}"
            )
        if self.primary_outputs != other.primary_outputs:
            return (
                f"primary outputs differ: {self.primary_outputs} != "
                f"{other.primary_outputs}"
            )
        if self.asap() != other.asap():
            diffs = {
                self.nodes[i]: (self.asap()[i], other.asap()[i])
                for i in range(len(self.nodes))
                if self.asap()[i] != other.asap()[i]
            }
            return f"ASAP arrays differ: {diffs}"
        if self.tails() != other.tails():
            return "tail arrays differ"
        if self.critical_path_length() != other.critical_path_length():
            return (
                f"critical paths differ: {self.critical_path_length()} != "
                f"{other.critical_path_length()}"
            )
        horizon = self.critical_path_length()
        if self.alap(horizon) != other.alap(horizon):
            diffs = {
                self.nodes[i]: (self.alap(horizon)[i], other.alap(horizon)[i])
                for i in range(len(self.nodes))
                if self.alap(horizon)[i] != other.alap(horizon)[i]
            }
            return f"ALAP arrays differ at horizon {horizon}: {diffs}"
        return None

    # ------------------------------------------------------------------
    # incremental patching
    # ------------------------------------------------------------------
    def apply_edge(
        self, src: str, dst: str, kind: EdgeKind, distance: int = 0
    ) -> None:
        """Record an edge the owning CDFG just gained.

        Patches the adjacency in O(1), keeps the topological order when
        it remains valid (source already precedes destination), and
        drops every timing cache — the incremental kernel re-derives
        windows by delta propagation instead of a full pass.  The CSR
        arrays survive as long as the new edge respects the standing
        level assignment (it almost always does — levels strictly
        increase along every edge of the longest-path leveling); the
        edge then rides in the COO side list until the next full build.

        A positive-distance edge lands in :attr:`back_edges` only: the
        skeleton adjacency, topological order, levels and CSR arrays
        are untouched by construction.
        """
        i = self.index[src]
        j = self.index[dst]
        if distance:
            self.back_edges.append((i, j, distance))
            if self._back_succs is not None:
                self._back_succs.setdefault(i, []).append((j, distance))
                self._back_preds.setdefault(j, []).append((i, distance))
        else:
            self.succs[i].append(j)
            self.preds[j].append(i)
            if kind is EdgeKind.DATA:
                self._data_out[i] += 1
                self._data_in[j] += 1
                self._pis = None
                self._pos = None
            if (
                self._topo_pos is not None
                and self._topo_pos[i] >= self._topo_pos[j]
            ):
                self._topo = None
                self._topo_pos = None
            if self._levels is not None:
                if self._levels[i] < self._levels[j]:
                    self._extra_edges.append((i, j))
                else:
                    self._drop_arrays()
            self._asap = None
            self._critical_path = None
            self._tails = None
            self._alap_by_horizon.clear()
            self._asap_np = None
            self._alap_np_h = None
        # Either way the steady-state periodic fixpoints moved.
        self._modulo_asap_memo.clear()
        self._modulo_alap_memo.clear()
        self.version = self.cdfg.mutation_count


class IncrementalWindows:
    """ASAP/ALAP windows maintained incrementally under edge insertion.

    Construction runs one full forward/backward pass; afterwards
    :meth:`add_edge` inserts a temporal (or other) edge and repairs the
    windows by worklist propagation over only the affected cone, and
    :meth:`delta_tighten` evaluates a window pinning (force-directed
    scheduling's trial moves) without mutating anything.  On wide
    graphs under the vectorized kernel mode, cone repair walks the
    affected fanin/fanout cone one level at a time as index arrays
    (frontier batching) instead of node-at-a-time worklists.

    Windows are always equal, node for node, to
    ``scheduling_windows(cdfg, horizon)`` recomputed from scratch.

    Passing ``ii`` switches the instance to **periodic mode**: windows
    are the steady-state modulo-II fixpoints
    (:meth:`CDFGView.asap_modulo` / :meth:`CDFGView.alap_modulo`),
    edges may carry an inter-iteration ``distance``, and propagation
    walks back edges too.  In periodic mode the O(1) endpoint check is
    necessary but no longer sufficient — a new edge can close a cycle
    whose fixpoint empties a window elsewhere — so :meth:`add_edge` may
    raise :class:`InfeasibleScheduleError` from inside propagation;
    the delta is still computed before any mutation, so the graph and
    windows are untouched when it does.
    """

    def __init__(
        self, cdfg: CDFG, horizon: int, ii: Optional[int] = None
    ) -> None:
        self.cdfg = cdfg
        self.horizon = horizon
        self.ii = ii
        self.view: CDFGView
        self.lo: List[int]
        self.hi: List[int]
        self._lo_np = None
        self._hi_np = None
        self._rebuild()

    def _rebuild(self) -> None:
        PERF.add("kernel.window_full_recomputes")
        view = self.cdfg.view()
        self.view = view
        if self.ii is not None:
            self.lo = list(view.asap_modulo(self.ii))
            self.hi = list(view.alap_modulo(self.ii, self.horizon))
        else:
            self.lo = list(view.asap())
            self.hi = list(view.alap(self.horizon))
        self._lo_np = None
        self._hi_np = None

    def _ensure_sync(self) -> None:
        """Rebuild from scratch if the CDFG mutated behind our back."""
        if self.view.version != self.cdfg.mutation_count:
            self._rebuild()

    def _ensure_mirrors(self) -> None:
        """Numpy mirrors of lo/hi backing the frontier-batched cones."""
        if self._lo_np is None:
            self._lo_np = _np.array(self.lo, dtype=_np.int64)
            self._hi_np = _np.array(self.hi, dtype=_np.int64)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def asap(self, name: str) -> int:
        return self.lo[self.view.index[name]]

    def alap(self, name: str) -> int:
        return self.hi[self.view.index[name]]

    def window(self, name: str) -> Window:
        i = self.view.index[name]
        return (self.lo[i], self.hi[i])

    def windows(self) -> Dict[str, Window]:
        """All windows, keyed by node name in insertion order."""
        lo, hi = self.lo, self.hi
        return {
            name: (lo[i], hi[i]) for i, name in enumerate(self.view.nodes)
        }

    def _distance_shift(self, distance: int) -> int:
        """``ii * distance`` — validates that distances need periodic mode."""
        if distance == 0:
            return 0
        if self.ii is None:
            raise InfeasibleScheduleError(
                "distance-carrying edges require periodic mode (pass ii)"
            )
        return self.ii * distance

    def can_add_edge(self, src: str, dst: str, distance: int = 0) -> bool:
        """O(1) feasibility of a precedence edge src -> dst.

        True iff ``asap(src) + lat(src) - ii*distance <= alap(dst)`` —
        the dynamically bounded check.  On acyclic graphs it guarantees
        no window in the graph empties when the edge is inserted; in
        periodic mode it is a necessary pre-screen (cycles can still
        empty a window during propagation).
        """
        view = self.view
        i = view.index[src]
        j = view.index[dst]
        shift = self._distance_shift(distance)
        return self.lo[i] + view.latency[i] - shift <= self.hi[j]

    def feasible_edges(self, pairs: Sequence[Tuple[str, str]]) -> List[bool]:
        """:meth:`can_add_edge` over a whole candidate population.

        One numpy expression under the vectorized path, the plain loop
        otherwise; element ``k`` equals
        ``can_add_edge(pairs[k][0], pairs[k][1])`` either way.
        """
        self._ensure_sync()
        view = self.view
        index = view.index
        count = len(pairs)
        if use_bulk_arrays(count):
            np = _np
            PERF.add("kernel.vec.bulk_screens")
            PERF.add("kernel.vec.bulk_pairs", count)
            src = np.fromiter(
                (index[s] for s, _ in pairs), dtype=np.int64, count=count
            )
            dst = np.fromiter(
                (index[d] for _, d in pairs), dtype=np.int64, count=count
            )
            lat = (
                view._lat_np
                if view._lat_np is not None
                else np.array(view.latency, dtype=np.int64)
            )
            self._ensure_mirrors()
            return (
                (self._lo_np[src] + lat[src]) <= self._hi_np[dst]
            ).tolist()
        lo, hi = self.lo, self.hi
        latency = view.latency
        return [
            lo[index[s]] + latency[index[s]] <= hi[index[d]]
            for s, d in pairs
        ]

    def screen_targets(
        self, src: str, targets: Sequence[str], needed: int,
        distance: int = 0,
    ) -> List[bool]:
        """Bulk candidate screen for edge drawing out of *src*.

        Element ``k`` is True iff the window of ``targets[k]`` overlaps
        *src*'s window **and** ``asap(src) + needed <= alap(targets[k])``
        — the two O(1) screens the watermark edge-drawing loop applies
        per candidate, evaluated for the whole population at once.

        With ``distance >= 1`` (periodic mode) the target belongs to a
        later iteration, so its window is shifted by ``ii * distance``
        before both checks — iteration ``k + d`` of a node occupies the
        steady-state window displaced ``d`` initiation intervals later.
        """
        self._ensure_sync()
        view = self.view
        index = view.index
        i = index[src]
        lo_i, hi_i = self.lo[i], self.hi[i]
        shift = self._distance_shift(distance)
        count = len(targets)
        if use_bulk_arrays(count):
            np = _np
            PERF.add("kernel.vec.bulk_screens")
            PERF.add("kernel.vec.bulk_pairs", count)
            t = np.fromiter(
                (index[x] for x in targets), dtype=np.int64, count=count
            )
            self._ensure_mirrors()
            t_lo = self._lo_np[t] + shift
            t_hi = self._hi_np[t] + shift
            mask = (t_lo <= hi_i) & (lo_i <= t_hi) & (lo_i + needed <= t_hi)
            return mask.tolist()
        lo, hi = self.lo, self.hi
        out: List[bool] = []
        for x in targets:
            j = index[x]
            t_lo = lo[j] + shift
            t_hi = hi[j] + shift
            out.append(
                t_lo <= hi_i and lo_i <= t_hi and lo_i + needed <= t_hi
            )
        return out

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_edge(
        self,
        src: str,
        dst: str,
        kind: EdgeKind = EdgeKind.TEMPORAL,
        distance: int = 0,
    ) -> int:
        """Insert an edge and delta-propagate the windows.

        Returns the number of nodes whose window changed.  Raises
        :class:`InfeasibleScheduleError` (before mutating anything) when
        the O(1) feasibility check fails — or, in periodic mode, when
        propagation proves the edge would empty a window through a
        dependence cycle — and whatever :meth:`CDFG.add_edge` raises on
        duplicates or cycles.

        The delta is computed *before* the graph mutates.  On acyclic
        graphs propagation never traverses the edge being inserted
        (doing so would require a cycle), so the pre-insertion adjacency
        yields the identical fixpoint and the CSR arrays stay valid
        while the cone is walked; in periodic mode the pending edge is
        threaded through the worklists explicitly, since a cycle
        through it can feed its own endpoints.
        """
        self._ensure_sync()
        view = self.view
        i = view.index[src]
        j = view.index[dst]
        shift = self._distance_shift(distance)
        if self.lo[i] + view.latency[i] - shift > self.hi[j]:
            raise InfeasibleScheduleError(
                f"edge {src!r}->{dst!r} infeasible within horizon "
                f"{self.horizon}"
            )
        if self.ii is not None:
            delta = self._propagate_edge_periodic(i, j, distance)
        else:
            delta = self._propagate_edge(i, j)
        self.cdfg.add_edge(src, dst, kind, distance=distance)
        view.apply_edge(src, dst, kind, distance=distance)
        self.cdfg._adopt_view(view)
        self._commit(delta)
        PERF.add("kernel.window_incremental_updates")
        PERF.add("kernel.window_nodes_touched", len(delta))
        PERF.add("kernel.window_recomputes_avoided")
        return len(delta)

    def _use_vec_cone(self) -> bool:
        if self.ii is not None:
            # Periodic propagation crosses back edges, which break the
            # level-monotone wave argument the batched cone relies on.
            return False
        mode = _KERNEL_MODE
        if _np is None or mode == "reference":
            return False
        if mode == "vectorized":
            return True
        view = self.view
        if view._csr_indptr is None:
            # auto never forces an array build just for one cone; the
            # arrays appear once a full vectorized sweep has run.
            return False
        n = len(view.nodes)
        return n >= AUTO_MIN_NODES and n / view._num_levels >= AUTO_MIN_WIDTH

    def _propagate_edge(self, i: int, j: int) -> Dict[int, Window]:
        """Delta windows implied by a new edge i -> j (no mutation)."""
        if self._use_vec_cone():
            lat_i = self.view.latency[i]
            return self._cone_propagate_vec(
                [(j, self.lo[i] + lat_i)], [(i, self.hi[j] - lat_i)], ""
            )
        view = self.view
        latency = view.latency
        lo, hi = self.lo, self.hi
        delta: Dict[int, Window] = {}

        def cur(x: int) -> Window:
            found = delta.get(x)
            return found if found is not None else (lo[x], hi[x])

        # Forward: raise ASAPs downstream of the destination.
        candidate = cur(i)[0] + latency[i]
        if candidate > cur(j)[0]:
            delta[j] = (candidate, cur(j)[1])
            worklist = deque([j])
            while worklist:
                x = worklist.popleft()
                xlo = cur(x)[0] + latency[x]
                for s in view.succs[x]:
                    slo, shi = cur(s)
                    if xlo > slo:
                        if xlo > shi:  # pragma: no cover - excluded by check
                            raise InfeasibleScheduleError(
                                f"window of {view.nodes[s]!r} emptied"
                            )
                        delta[s] = (xlo, shi)
                        worklist.append(s)
        # Backward: lower ALAPs upstream of the source.
        candidate = cur(j)[1] - latency[i]
        if candidate < cur(i)[1]:
            delta[i] = (cur(i)[0], candidate)
            worklist = deque([i])
            while worklist:
                x = worklist.popleft()
                xhi = cur(x)[1]
                for p in view.preds[x]:
                    plo, phi = cur(p)
                    candidate = xhi - latency[p]
                    if candidate < phi:
                        if plo > candidate:  # pragma: no cover - excluded
                            raise InfeasibleScheduleError(
                                f"window of {view.nodes[p]!r} emptied"
                            )
                        delta[p] = (plo, candidate)
                        worklist.append(p)
        return delta

    def _propagate_edge_periodic(
        self, i: int, j: int, distance: int
    ) -> Dict[int, Window]:
        """Delta windows implied by a new edge i -> j at distance d.

        Worklist relaxation over the skeleton adjacency, the back
        edges, *and* the pending edge (not yet in the graph): a cycle
        through the new edge can raise the ASAP of its own source.
        Starting from the standing fixpoint and only ever raising ``lo``
        / lowering ``hi``, chaotic iteration converges to the new
        least/greatest fixpoint in any order.  Termination is by the
        emptied-window check: ``lo`` is bounded by ``hi <= horizon`` and
        every update moves a value by >= 1, so an edge that closes a
        positive-weight cycle runs its windows empty in finitely many
        steps and raises — before anything is committed.
        """
        view = self.view
        ii = self.ii
        latency = view.latency
        lo, hi = self.lo, self.hi
        back_succs, back_preds = view._back_adj()
        delta: Dict[int, Window] = {}

        def cur(x: int) -> Window:
            found = delta.get(x)
            return found if found is not None else (lo[x], hi[x])

        def fail(x: int) -> None:
            raise InfeasibleScheduleError(
                f"window of {view.nodes[x]!r} emptied by periodic edge "
                f"{view.nodes[i]!r}->{view.nodes[j]!r} (distance "
                f"{distance}) at II={ii}"
            )

        def out_edges(x: int):
            for s in view.succs[x]:
                yield s, 0
            for s, d in back_succs.get(x, ()):
                yield s, d
            if x == i:
                yield j, distance

        def in_edges(x: int):
            for p in view.preds[x]:
                yield p, 0
            for p, d in back_preds.get(x, ()):
                yield p, d
            if x == j:
                yield i, distance

        # Forward: raise ASAPs, seeding from the pending edge's source.
        worklist = deque([i])
        while worklist:
            x = worklist.popleft()
            base = cur(x)[0] + latency[x]
            for s, d in out_edges(x):
                candidate = base - ii * d
                slo, shi = cur(s)
                if candidate > slo:
                    if candidate > shi:
                        fail(s)
                    delta[s] = (candidate, shi)
                    worklist.append(s)
        # Backward: lower ALAPs, seeding from the pending edge's sink.
        worklist = deque([j])
        while worklist:
            x = worklist.popleft()
            xhi = cur(x)[1]
            for p, d in in_edges(x):
                plo, phi = cur(p)
                candidate = xhi + ii * d - latency[p]
                if candidate < phi:
                    if plo > candidate:
                        fail(p)
                    delta[p] = (plo, candidate)
                    worklist.append(p)
        return delta

    def _cone_propagate_vec(
        self,
        fwd_seeds: Sequence[Tuple[int, int]],
        bwd_seeds: Sequence[Tuple[int, int]],
        what: str,
    ) -> Dict[int, Window]:
        """Frontier-batched cone repair over the level structure.

        Seeds raise ``lo`` (forward) or lower ``hi`` (backward); waves
        then advance one level at a time, expanding a whole frontier's
        adjacency with array gathers and folding duplicate targets with
        scatter max/min.  The numpy mirrors are mutated in place for
        speed and **rolled back** before returning, so like the worklist
        reference this computes a delta without committing anything —
        including when it raises on an emptied window.
        """
        np = _np
        view = self.view
        view._ensure_arrays()
        self._ensure_mirrors()
        PERF.add("kernel.vec.cone_updates")
        lo, hi = self._lo_np, self._hi_np
        lat = view._lat_np
        levels = view._levels_np
        pos = view._lvl_pos
        first_old: Dict[int, Window] = {}

        def remember(x: int) -> None:
            if x not in first_old:
                first_old[x] = (int(lo[x]), int(hi[x]))

        def rollback() -> None:
            for x, (old_lo, old_hi) in first_old.items():
                lo[x] = old_lo
                hi[x] = old_hi

        def fail(x: int) -> None:
            emptied = view.nodes[x]
            rollback()
            raise InfeasibleScheduleError(
                f"window of {emptied!r} emptied{what}"
            )

        extras = view._extra_edges
        if extras:
            ex_src = np.array([u for u, _ in extras], dtype=np.int64)
            ex_dst = np.array([v for _, v in extras], dtype=np.int64)
        else:
            ex_src = ex_dst = None

        fwd_buckets: Dict[int, List[int]] = {}
        bwd_buckets: Dict[int, List[int]] = {}
        for x, cand in fwd_seeds:
            remember(x)
            if cand > lo[x]:
                lo[x] = cand
                fwd_buckets.setdefault(int(levels[x]), []).append(x)
        for x, cand in bwd_seeds:
            remember(x)
            if cand < hi[x]:
                hi[x] = cand
                bwd_buckets.setdefault(int(levels[x]), []).append(x)
        for x in first_old:
            if lo[x] > hi[x]:  # pragma: no cover - callers pre-check seeds
                fail(x)

        def expand(buckets, indptr, flat, forward: bool):
            # Waves only ever move level-up (forward) / level-down
            # (backward), so popping the extreme level finalizes it.
            while buckets:
                level = min(buckets) if forward else max(buckets)
                wave = np.unique(
                    np.array(buckets.pop(level), dtype=np.int64)
                )
                p = pos[wave]
                seg_start = indptr[p]
                lengths = indptr[p + 1] - seg_start
                total = int(lengths.sum())
                if total:
                    cum = np.cumsum(lengths) - lengths
                    gather = np.repeat(seg_start - cum, lengths) + np.arange(
                        total
                    )
                    other = flat[gather]
                    origin = np.repeat(wave, lengths)
                else:
                    other = np.empty(0, dtype=np.int64)
                    origin = other
                if ex_src is not None:
                    hit = np.isin(ex_src if forward else ex_dst, wave)
                    if hit.any():
                        other = np.concatenate(
                            [other, (ex_dst if forward else ex_src)[hit]]
                        )
                        origin = np.concatenate(
                            [origin, (ex_src if forward else ex_dst)[hit]]
                        )
                if not other.size:
                    continue
                uniq = np.unique(other)
                for x in uniq.tolist():
                    remember(x)
                if forward:
                    old = lo[uniq].copy()
                    np.maximum.at(lo, other, lo[origin] + lat[origin])
                    moved = uniq[lo[uniq] > old]
                else:
                    old = hi[uniq].copy()
                    np.minimum.at(hi, other, hi[origin] - lat[other])
                    moved = uniq[hi[uniq] < old]
                if moved.size:
                    bad = moved[lo[moved] > hi[moved]]
                    if bad.size:
                        fail(int(bad[0]))
                    for x, lvl in zip(
                        moved.tolist(), levels[moved].tolist()
                    ):
                        buckets.setdefault(lvl, []).append(x)

        expand(fwd_buckets, view._csr_indptr, view._csr_flat, forward=True)
        expand(bwd_buckets, view._csc_indptr, view._csc_flat, forward=False)

        delta = {
            x: (int(lo[x]), int(hi[x]))
            for x, old in first_old.items()
            if (int(lo[x]), int(hi[x])) != old
        }
        rollback()
        return delta

    # ------------------------------------------------------------------
    # trial tightening (force-directed scheduling)
    # ------------------------------------------------------------------
    def delta_tighten(self, name: str, window: Window) -> Dict[int, Window]:
        """Windows changed by pinning *name* to *window* (no mutation).

        Equivalent to the classic full forward/backward re-pass over the
        whole graph, but touches only the affected cone.  The returned
        mapping (node index -> new window) contains exactly the nodes
        whose window would change; feed it to :meth:`apply` to commit.

        Raises
        ------
        InfeasibleScheduleError
            If any window would empty.
        """
        self._ensure_sync()
        view = self.view
        latency = view.latency
        lo, hi = self.lo, self.hi
        i = view.index[name]
        new_lo = max(window[0], lo[i])
        new_hi = min(window[1], hi[i])
        if new_lo > new_hi:
            raise InfeasibleScheduleError(
                f"window of {name!r} emptied while pinning {name!r}"
            )
        if self._use_vec_cone():
            return self._cone_propagate_vec(
                [(i, new_lo)], [(i, new_hi)], f" while pinning {name!r}"
            )
        delta: Dict[int, Window] = {}
        if (new_lo, new_hi) != (lo[i], hi[i]):
            delta[i] = (new_lo, new_hi)

        def cur(x: int) -> Window:
            found = delta.get(x)
            return found if found is not None else (lo[x], hi[x])

        # Forward: the raised ASAP pushes successors later.
        worklist = deque([i])
        while worklist:
            x = worklist.popleft()
            xlo = cur(x)[0] + latency[x]
            for s in view.succs[x]:
                slo, shi = cur(s)
                if xlo > slo:
                    if xlo > shi:
                        raise InfeasibleScheduleError(
                            f"window of {view.nodes[s]!r} emptied while "
                            f"pinning {name!r}"
                        )
                    delta[s] = (xlo, shi)
                    worklist.append(s)
        # Backward: the lowered ALAP pulls predecessors earlier.
        worklist = deque([i])
        while worklist:
            x = worklist.popleft()
            xhi = cur(x)[1]
            for p in view.preds[x]:
                plo, phi = cur(p)
                candidate = xhi - latency[p]
                if candidate < phi:
                    if plo > candidate:
                        raise InfeasibleScheduleError(
                            f"window of {view.nodes[p]!r} emptied while "
                            f"pinning {name!r}"
                        )
                    delta[p] = (plo, candidate)
                    worklist.append(p)
        return delta

    def _commit(self, delta: Dict[int, Window]) -> None:
        lo, hi = self.lo, self.hi
        for x, (new_lo, new_hi) in delta.items():
            lo[x] = new_lo
            hi[x] = new_hi
        if self._lo_np is not None:
            lo_np, hi_np = self._lo_np, self._hi_np
            for x, (new_lo, new_hi) in delta.items():
                lo_np[x] = new_lo
                hi_np[x] = new_hi

    def apply(self, delta: Dict[int, Window]) -> None:
        """Commit a delta produced by :meth:`delta_tighten`."""
        self._commit(delta)
        PERF.add("kernel.window_incremental_updates")
        PERF.add("kernel.window_nodes_touched", len(delta))

    def tighten(self, name: str, window: Window) -> Dict[int, Window]:
        """Pin *name* to *window*, commit, and return the delta."""
        delta = self.delta_tighten(name, window)
        self.apply(delta)
        return delta

    # ------------------------------------------------------------------
    # verification helper
    # ------------------------------------------------------------------
    def assert_consistent(self) -> None:
        """Raise AssertionError unless windows match a full recompute.

        Test/benchmark hook: recomputes ASAP/ALAP from scratch on the
        current graph and compares node-for-node.  ``delta_tighten``
        pins are excluded — only edge insertions keep the full-recompute
        equivalence (pins add constraints the graph does not carry).
        """
        from repro.timing.windows import (
            periodic_scheduling_windows,
            scheduling_windows,
        )

        if self.ii is not None:
            full = periodic_scheduling_windows(
                self.cdfg, self.horizon, self.ii
            )
        else:
            full = scheduling_windows(self.cdfg, self.horizon)
        mine = self.windows()
        assert mine == full, (
            "incremental windows diverged from full recompute: "
            + str(
                {
                    n: (mine[n], full[n])
                    for n in full
                    if mine[n] != full[n]
                }
            )
        )


def edge_sequence_windows(
    cdfg: CDFG, horizon: int, edges: Iterable[Tuple[str, str]]
) -> Dict[str, Window]:
    """Reference implementation retained for the benchmark gate.

    Applies *edges* as temporal edges with a **full** window recompute
    after every insertion — exactly what the pre-kernel embedding loop
    did — and returns the final windows.  The benchmark measures this
    against :class:`IncrementalWindows` and asserts equality.
    """
    from repro.timing.windows import scheduling_windows

    windows = scheduling_windows(cdfg, horizon)
    for src, dst in edges:
        cdfg.add_temporal_edge(src, dst)
        windows = scheduling_windows(cdfg, horizon)
    return windows
