"""Canonical, structure-only node identification (criteria C1–C3).

Watermark constraints must be re-derivable from a suspect design whose
node names an adversary controls, so every node of the watermark
locality gets a unique identifier computed purely from graph structure:

* **C1** — level ``L_i``: longest fanin path from the locality root
  ``n_o`` to ``n_i``;
* **C2** — ``K_i(x)``: size of the transitive fanin tree of ``n_i``
  within distance ``D_x``, for increasing ``x``;
* **C3** — ``φ(n_i, x)``: sum of the functionality identifiers ``f(n)``
  over that fanin tree, for increasing ``x``.

Reproduction decisions (documented deviations):

1. C2/C3 fanin trees are computed **within the locality cone** ``T_o``
   rather than over the whole design.  This makes identification a
   function of the locality alone, which is what lets a watermark be
   detected after the core is embedded in a foreign system — the
   property §I demands.  (Computed globally, the counts would shift the
   moment a host drives the core's inputs.)
2. If C1–C3 leave ties (structurally symmetric nodes), a
   Weisfeiler–Lehman-style structural refinement hash breaks them; truly
   automorphic nodes are interchangeable, and any remaining tie is
   broken by an order that is arbitrary but deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import sha256
from typing import Dict, List, Sequence, Set, Tuple

from repro.cdfg.graph import CDFG, LocalityIndex
from repro.cdfg.ops import functionality_id
from repro.errors import WatermarkError


def fanin_tree_within(
    cdfg: CDFG, node: str, distance: int, universe: Set[str]
) -> Set[str]:
    """Transitive fanin of *node* within *distance*, clipped to *universe*."""
    index = cdfg.locality_index()
    (start,) = index.ids((node,))
    members = index.fanin(start, distance, within=index.ids(universe))
    return {index.nodes[i] for i in members}


def criterion_c2(cdfg: CDFG, node: str, distance: int, universe: Set[str]) -> int:
    """``K_i(x)``: fanin-tree cardinality of *node* within *distance*."""
    return len(fanin_tree_within(cdfg, node, distance, universe))


def criterion_c3(cdfg: CDFG, node: str, distance: int, universe: Set[str]) -> int:
    """``φ(n_i, x)``: functionality-id sum over the clipped fanin tree."""
    return sum(
        functionality_id(cdfg.op(member))
        for member in fanin_tree_within(cdfg, node, distance, universe)
    )


def structural_hashes(
    cdfg: CDFG, universe: Set[str], rounds: int = 3
) -> Dict[str, str]:
    """WL-style refinement hash of every node of *universe*.

    Name-independent: seeds on operation type and in/out degrees within
    the universe, then iteratively mixes sorted neighbor hashes.
    """
    index = cdfg.locality_index()
    members = sorted(index.ids(universe))
    position = {i: k for k, i in enumerate(members)}
    preds = [
        [position[p] for p in index.preds[i] if p in position] for i in members
    ]
    succs = [
        [position[s] for s in index.succs[i] if s in position] for i in members
    ]
    labels = [
        sha256(
            f"{index.ops[i].name}|{len(preds[k])}|{len(succs[k])}".encode()
        ).hexdigest()
        for k, i in enumerate(members)
    ]
    for _ in range(rounds):
        at = labels.__getitem__
        labels = [
            sha256(
                (
                    labels[k]
                    + "<"
                    + ",".join(sorted(map(at, preds[k])))
                    + ">"
                    + ",".join(sorted(map(at, succs[k])))
                ).encode()
            ).hexdigest()
            for k in range(len(members))
        ]
    return {index.nodes[i]: label for i, label in zip(members, labels)}


@dataclass(frozen=True)
class NodeOrdering:
    """Canonical ordering of a locality's nodes.

    Attributes
    ----------
    root:
        The locality root ``n_o``.
    nodes:
        Nodes sorted by decreasing rank (``nodes[0]`` is the greatest
        under the C1→C2→C3 criteria).
    identifier:
        Node name → position in :attr:`nodes` — the unique identifier the
        protocol assigns.
    unambiguous:
        True when C1–C3 plus the structural hash separated every node
        (no arbitrary tie-break was needed).
    """

    root: str
    nodes: Tuple[str, ...]
    identifier: Dict[str, int]
    unambiguous: bool

    def node_for(self, ident: int) -> str:
        """Inverse lookup: identifier → node name."""
        try:
            return self.nodes[ident]
        except IndexError as exc:
            raise WatermarkError(f"identifier {ident} out of range") from exc


def _levels_within(
    index: LocalityIndex, root: int, universe: Set[int]
) -> Dict[int, int]:
    """Criterion C1 restricted to the locality.

    ``L_i`` = longest path from *root* back to ``n_i`` using only
    locality nodes.  Restricting to the locality keeps identification a
    function of the cone alone (see the module docstring's deviation
    note) and avoids walking the whole design per carve.
    """
    sub_succs = {
        n: [s for s in index.succs[n] if s in universe] for n in universe
    }
    # Kahn order over the induced subgraph, processed root-outwards: a
    # node's level is final once all its in-universe successors are.
    out_deg = {n: len(sub_succs[n]) for n in universe}
    sub_preds: Dict[int, List[int]] = {n: [] for n in universe}
    for n, succs in sub_succs.items():
        for s in succs:
            sub_preds[s].append(n)
    levels: Dict[int, int] = {}
    ready = [n for n in universe if out_deg[n] == 0]
    order: List[int] = []
    while ready:
        current = ready.pop()
        order.append(current)
        for pred in sub_preds[current]:
            out_deg[pred] -= 1
            if out_deg[pred] == 0:
                ready.append(pred)
    for current in order:
        if current == root:
            levels[current] = 0
            continue
        best = -1
        for succ in sub_succs[current]:
            succ_level = levels.get(succ, -1)
            if succ_level >= 0:
                best = max(best, succ_level + 1)
        levels[current] = best
    unreachable = [index.nodes[n] for n, lvl in levels.items() if lvl < 0]
    if unreachable:
        raise WatermarkError(
            f"nodes outside the fanin cone of {index.nodes[root]!r}: "
            f"{sorted(unreachable)}"
        )
    return levels


def _criteria_profiles(
    index: LocalityIndex, universe: Set[int], max_distance: int
) -> Dict[int, Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """C2 and C3 profiles for every node, one clipped BFS per node.

    Returns node → ``(counts, sums)`` where ``counts[d-1] = K_i(d)`` and
    ``sums[d-1] = φ(n_i, d)`` for ``d = 1..max_distance``.
    """
    sub_preds = {
        n: [p for p in index.preds[n] if p in universe] for n in universe
    }
    f_ids = {n: functionality_id(index.ops[n]) for n in universe}
    profiles: Dict[int, Tuple[Tuple[int, ...], Tuple[int, ...]]] = {}
    for node in universe:
        seen = {node}
        frontier = [node]
        count = 1
        total = f_ids[node]
        counts: List[int] = []
        sums: List[int] = []
        for _ in range(max_distance):
            nxt: List[int] = []
            for current in frontier:
                for pred in sub_preds[current]:
                    if pred not in seen:
                        seen.add(pred)
                        nxt.append(pred)
                        count += 1
                        total += f_ids[pred]
            counts.append(count)
            sums.append(total)
            frontier = nxt
            if not frontier:
                # Saturated: remaining distances repeat the totals.
                while len(counts) < max_distance:
                    counts.append(count)
                    sums.append(total)
                break
        profiles[node] = (tuple(counts), tuple(sums))
    return profiles


def order_nodes(
    cdfg: CDFG, root: str, universe: Sequence[str], max_distance: int = 4
) -> NodeOrdering:
    """Assign unique identifiers to *universe* per criteria C1–C3.

    Parameters
    ----------
    root:
        The locality root (criterion C1 is relative to it).
    universe:
        The locality node set (typically the fanin cone ``T_o``).
    max_distance:
        Largest ``D_x`` tried for C2/C3 before falling back to the
        structural hash.
    """
    universe_set = set(universe)
    if root not in universe_set:
        raise WatermarkError(f"root {root!r} must belong to the universe")
    index = cdfg.locality_index()
    ids = index.ids(universe_set)
    levels = _levels_within(index, index.index[root], ids)
    hashes = structural_hashes(cdfg, universe_set)

    effective = min(max_distance, max(1, len(ids)))
    profiles = _criteria_profiles(index, ids, effective)
    keys: Dict[str, Tuple] = {}
    for node in ids:
        c2, c3 = profiles[node]
        name = index.nodes[node]
        keys[name] = (levels[node], c2, c3, hashes[name])

    unambiguous = len(set(keys.values())) == len(keys)
    # Descending rank per the paper's "n_i > n_j" relation; the node name
    # is a final deterministic (but arbitrary) tie-break for automorphic
    # nodes, which are structurally interchangeable anyway.
    ordered = sorted(keys, key=lambda n: (keys[n], n), reverse=True)
    identifier = {node: rank for rank, node in enumerate(ordered)}
    return NodeOrdering(
        root=root,
        nodes=tuple(ordered),
        identifier=identifier,
        unambiguous=unambiguous,
    )
