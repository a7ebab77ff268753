"""Domain (locality) selection for local watermarks.

§IV-A's two-step process:

1. pick a root ``n_o`` and take its fanin tree ``T_o`` of max-distance
   ``τ`` — the candidate locality;
2. uniquely identify every node of ``T_o`` (criteria C1–C3), then walk
   ``T_o`` top-down breadth-first; at every visited node the
   author-specific bit sequence picks **at least one** input to continue
   into and includes/excludes each remaining input with a fixed
   probability.  The visited set is the watermark domain ``T``.

Because inputs are considered in identifier order and all decisions come
from the keyed bitstream, the same signature always carves the same
subtree out of the same locality — and a detector owning the signature
can re-derive it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.cdfg.graph import CDFG
from repro.core.ordering import NodeOrdering, order_nodes, structural_hashes
from repro.crypto.bitstream import BitStream
from repro.errors import DomainSelectionError
from repro.resilience.budget import Budget, charge


@dataclass(frozen=True)
class DomainParams:
    """Knobs of domain selection.

    Attributes
    ----------
    tau:
        Max fanin distance of the candidate locality ``T_o`` — the
        paper's subtree cardinality driver ``τ``.
    include_probability:
        Probability that each non-mandatory input joins the breadth-first
        frontier ("the exclusion of inputs can be done with a given
        probability").
    min_domain_size:
        Domains smaller than this are rejected (caller retries with a
        different root).
    """

    tau: int = 4
    include_probability: float = 0.75
    min_domain_size: int = 4

    def __post_init__(self) -> None:
        if self.tau < 1:
            raise ValueError("tau must be >= 1")
        if not 0.0 <= self.include_probability <= 1.0:
            raise ValueError("include_probability must lie in [0, 1]")
        if self.min_domain_size < 1:
            raise ValueError("min_domain_size must be >= 1")


@dataclass(frozen=True)
class Domain:
    """A selected watermark locality.

    Attributes
    ----------
    root:
        The locality root ``n_o``.
    cone:
        The candidate locality ``T_o`` in canonical (identifier) order.
    nodes:
        The selected subtree ``T ⊆ T_o`` in canonical order.
    ordering:
        The canonical ordering of ``T_o`` (identifier assignment).
    """

    root: str
    cone: Tuple[str, ...]
    nodes: Tuple[str, ...]
    ordering: NodeOrdering = field(repr=False)

    @property
    def size(self) -> int:
        """``|T|``."""
        return len(self.nodes)


def candidate_roots(
    cdfg: CDFG, params: DomainParams, budget: Optional[Budget] = None
) -> List[str]:
    """Roots worth considering, in a name-independent canonical order.

    A useful root has a fanin cone of at least ``min_domain_size`` nodes
    within distance ``tau``.  Candidates are ordered by their structural
    hash so the bitstream's choice is reproducible across renamings
    (up to graph automorphism).

    An optional *budget* is charged once per scanned root, so a huge
    design stops inside the scan with
    :class:`~repro.errors.BudgetExceededError`.
    """
    index = cdfg.locality_index()
    candidates = []
    for root in range(len(index.nodes)):
        if not index.schedulable[root]:
            continue
        charge(budget, what="candidate_roots")
        if index.cone_reaches(root, params.tau, params.min_domain_size):
            candidates.append(index.nodes[root])
    if not candidates:
        raise DomainSelectionError(
            f"no node of {cdfg.name!r} has a fanin cone of "
            f">= {params.min_domain_size} schedulable nodes within "
            f"distance {params.tau}"
        )
    hashes = structural_hashes(cdfg, set(index.nodes))
    return sorted(candidates, key=lambda n: (hashes[n], n))


def select_domain(
    cdfg: CDFG,
    root: str,
    bitstream: BitStream,
    params: DomainParams,
    budget: Optional[Budget] = None,
) -> Domain:
    """Carve the signature-specific subtree ``T`` out of root's cone.

    The traversal visits the cone top-down (reverse edge direction)
    breadth-first.  At each node, inputs *within the cone* are listed in
    identifier order; the bitstream picks one mandatory input and
    includes each other input with ``include_probability``.

    An optional *budget* is charged once per visited cone node and may
    raise :class:`~repro.errors.BudgetExceededError` mid-carve.
    """
    index = cdfg.locality_index()
    (start,) = index.ids((root,))
    if not index.schedulable[start]:
        raise DomainSelectionError(f"root {root!r} is not schedulable")
    cone = index.cone(start, params.tau)
    names = index.nodes
    ordering = order_nodes(cdfg, root, sorted(names[i] for i in cone))
    rank = {index.index[n]: i for n, i in ordering.identifier.items()}

    selected = {start}
    queue: List[int] = [start]
    while queue:
        current = queue.pop(0)
        charge(budget, what="select_domain")
        inputs = [
            pred
            for pred in index.preds[current]
            if pred in cone and pred not in selected
        ]
        if not inputs:
            continue
        inputs.sort(key=rank.__getitem__)
        mandatory = bitstream.choice(inputs)
        chosen = [mandatory]
        for candidate in inputs:
            if candidate == mandatory:
                continue
            if bitstream.bernoulli(params.include_probability):
                chosen.append(candidate)
        for node in chosen:
            selected.add(node)
            queue.append(node)

    ordered_cone = tuple(ordering.nodes)
    ordered_selected = tuple(
        n for n in ordering.nodes if index.index[n] in selected
    )
    return Domain(
        root=root,
        cone=ordered_cone,
        nodes=ordered_selected,
        ordering=ordering,
    )


def select_root_and_domain(
    cdfg: CDFG,
    bitstream: BitStream,
    params: DomainParams,
    max_retries: int = 16,
    forced_root: Optional[str] = None,
    roots: Optional[List[str]] = None,
    budget: Optional[Budget] = None,
) -> Domain:
    """Pick a root with the bitstream and carve its domain.

    Retries with the next bitstream choice when the carved domain is
    smaller than ``min_domain_size`` (the paper repeats subtree
    selection when the eligible set ends up too small).

    Parameters
    ----------
    roots:
        Precomputed :func:`candidate_roots` list.  Candidate roots are
        invariant under temporal-edge insertion (localities ignore
        temporal edges), so callers embedding many watermarks can
        compute the list once and avoid re-hashing the whole design.
    """
    if forced_root is not None:
        domain = select_domain(cdfg, forced_root, bitstream, params, budget)
        if domain.size < params.min_domain_size:
            raise DomainSelectionError(
                f"domain at forced root {forced_root!r} has only "
                f"{domain.size} nodes (< {params.min_domain_size})"
            )
        return domain
    if roots is None:
        roots = candidate_roots(cdfg, params, budget)
    last_size = 0
    for _ in range(max_retries):
        root = bitstream.choice(roots)
        domain = select_domain(cdfg, root, bitstream, params, budget)
        if domain.size >= params.min_domain_size:
            return domain
        last_size = domain.size
    raise DomainSelectionError(
        f"no domain of >= {params.min_domain_size} nodes found in "
        f"{max_retries} attempts (last size: {last_size})"
    )
