"""Reference locality queries: per-node networkx walks.

Production serves fanin cones, candidate roots, the structural (WL)
hashes and the canonical C1–C3 ordering from the design's integer
:class:`~repro.cdfg.graph.LocalityIndex`.  This module keeps the
original formulation — every step asks the CDFG for a node's distance-0
data/control neighbors through
:meth:`~repro.cdfg.graph.CDFG.predecessors` /
:meth:`~repro.cdfg.graph.CDFG.successors` — as the slow, independent
reference the ``locality`` differential oracle checks production
against.  It shares no adjacency with the index: only the CDFG's
networkx graph.
"""

from __future__ import annotations

from hashlib import sha256
from typing import Dict, List, Sequence, Set, Tuple

from repro.cdfg.graph import CDFG, EdgeKind
from repro.cdfg.ops import functionality_id
from repro.core.domain import DomainParams
from repro.core.ordering import NodeOrdering
from repro.errors import DomainSelectionError, WatermarkError

_LOCALITY_KINDS = (EdgeKind.DATA, EdgeKind.CONTROL)


def _preds(cdfg: CDFG, node: str) -> List[str]:
    return cdfg.predecessors(node, kinds=_LOCALITY_KINDS, skeleton=True)


def _succs(cdfg: CDFG, node: str) -> List[str]:
    return cdfg.successors(node, kinds=_LOCALITY_KINDS, skeleton=True)


def reference_fanin_tree(cdfg: CDFG, root: str, max_distance: int) -> Set[str]:
    """:meth:`CDFG.fanin_tree`, one networkx lookup per visited node."""
    frontier = {root}
    seen = {root}
    for _ in range(max_distance):
        nxt: Set[str] = set()
        for node in frontier:
            for pred in _preds(cdfg, node):
                if pred not in seen:
                    seen.add(pred)
                    nxt.add(pred)
        if not nxt:
            break
        frontier = nxt
    return seen


def reference_candidate_roots(cdfg: CDFG, params: DomainParams) -> List[str]:
    """:func:`repro.core.domain.candidate_roots` by full cone per node."""
    schedulable = set(cdfg.schedulable_operations)
    candidates = [
        node
        for node in schedulable
        if len(reference_fanin_tree(cdfg, node, params.tau) & schedulable)
        >= params.min_domain_size
    ]
    if not candidates:
        raise DomainSelectionError(
            f"no node of {cdfg.name!r} has a fanin cone of "
            f">= {params.min_domain_size} schedulable nodes within "
            f"distance {params.tau}"
        )
    hashes = reference_structural_hashes(cdfg, set(cdfg.operations))
    return sorted(candidates, key=lambda n: (hashes[n], n))


def reference_structural_hashes(
    cdfg: CDFG, universe: Set[str], rounds: int = 3
) -> Dict[str, str]:
    """:func:`repro.core.ordering.structural_hashes` over name dicts."""
    sub_preds = {
        n: [p for p in _preds(cdfg, n) if p in universe] for n in universe
    }
    sub_succs = {
        n: [s for s in _succs(cdfg, n) if s in universe] for n in universe
    }
    labels = {
        n: sha256(
            f"{cdfg.op(n).name}|{len(sub_preds[n])}|{len(sub_succs[n])}".encode()
        ).hexdigest()
        for n in universe
    }
    for _ in range(rounds):
        new_labels = {}
        for n in universe:
            payload = (
                labels[n]
                + "<"
                + ",".join(sorted(labels[p] for p in sub_preds[n]))
                + ">"
                + ",".join(sorted(labels[s] for s in sub_succs[n]))
            )
            new_labels[n] = sha256(payload.encode()).hexdigest()
        labels = new_labels
    return labels


def _reference_levels(
    cdfg: CDFG, root: str, universe: Set[str]
) -> Dict[str, int]:
    """Criterion C1: longest in-universe path from each node to *root*,
    by memoized recursion over successors."""
    levels: Dict[str, int] = {root: 0}

    def level(node: str) -> int:
        if node not in levels:
            levels[node] = -1  # in progress: a cycle reads "unreachable"
            reachable = [
                level(s) for s in _succs(cdfg, node) if s in universe
            ]
            best = max((lvl for lvl in reachable if lvl >= 0), default=-2)
            levels[node] = best + 1
        return levels[node]

    for node in sorted(universe):
        level(node)
    unreachable = [n for n, lvl in levels.items() if lvl < 0]
    if unreachable:
        raise WatermarkError(
            f"nodes outside the fanin cone of {root!r}: {sorted(unreachable)}"
        )
    return levels


def _reference_profile(
    cdfg: CDFG, node: str, universe: Set[str], max_distance: int
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Criteria C2/C3 at ``d = 1..max_distance``, one clipped fanin
    walk per distance."""
    counts: List[int] = []
    sums: List[int] = []
    for distance in range(1, max_distance + 1):
        tree = {node}
        frontier = {node}
        for _ in range(distance):
            frontier = {
                p
                for current in frontier
                for p in _preds(cdfg, current)
                if p in universe and p not in tree
            }
            tree |= frontier
        counts.append(len(tree))
        sums.append(sum(functionality_id(cdfg.op(m)) for m in tree))
    return tuple(counts), tuple(sums)


def reference_order_nodes(
    cdfg: CDFG, root: str, universe: Sequence[str], max_distance: int = 4
) -> NodeOrdering:
    """:func:`repro.core.ordering.order_nodes` from the walks above."""
    universe_set = set(universe)
    if root not in universe_set:
        raise WatermarkError(f"root {root!r} must belong to the universe")
    levels = _reference_levels(cdfg, root, universe_set)
    hashes = reference_structural_hashes(cdfg, universe_set)
    effective = min(max_distance, max(1, len(universe_set)))
    keys = {
        node: (
            levels[node],
            *_reference_profile(cdfg, node, universe_set, effective),
            hashes[node],
        )
        for node in universe_set
    }
    unambiguous = len(set(keys.values())) == len(universe_set)
    ordered = sorted(universe_set, key=lambda n: (keys[n], n), reverse=True)
    return NodeOrdering(
        root=root,
        nodes=tuple(ordered),
        identifier={node: rank for rank, node in enumerate(ordered)},
        unambiguous=unambiguous,
    )
