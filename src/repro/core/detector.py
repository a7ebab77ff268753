"""Watermark detection, including cut and embedded designs.

§III requires detection to work when the misappropriated design "is
augmented into a larger design" or only a partition survives.  Three
modes, in decreasing order of information available to the detector:

1. **record replay** (:func:`verify_by_record`) — node names intact:
   directly check the recorded temporal constraints on the suspect
   schedule.
2. **locality re-derivation** (:func:`detect_by_rederivation`) — the
   detector holds only the signature: re-run domain selection and
   constraint encoding on the suspect graph with the signature's
   bitstream and check the derived constraints.  Works whenever the
   suspect graph's structure matches what was marked (renaming is fine:
   all decisions are structural).
3. **root scan** (:func:`scan_for_watermark`) — the suspect design may
   *contain* the marked core anywhere (embedded IP, names destroyed):
   every candidate root is tried as the locality root ``n_o``; at the
   true root the re-derived identifiers line up with the recorded
   identifier pairs and the temporal constraints check out.  This is the
   paper's "detection procedure visits each node in the CDFG and checks
   whether it represents a root n_o of the memorized subtree T".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.cdfg.graph import CDFG
from repro.core.coincidence import approx_log10_pc
from repro.core.domain import DomainParams
from repro.core.scheduling_wm import (
    SchedulingWatermark,
    SchedulingWatermarker,
    SchedulingWMParams,
    VerificationResult,
)
from repro.crypto.signature import AuthorSignature
from repro.errors import WatermarkError
from repro.scheduling.schedule import Schedule


@dataclass(frozen=True)
class EdgeEvidence:
    """Fate of one recorded temporal constraint on a recovered schedule.

    Attributes
    ----------
    src, dst:
        The constrained operation pair (``src`` must finish before
        ``dst`` starts).
    present:
        Both endpoints exist in the suspect design.
    satisfied:
        The recovered schedule honors the constraint.
    """

    src: str
    dst: str
    present: bool
    satisfied: bool


@dataclass(frozen=True)
class RecoveredDetection:
    """Per-edge evidence + aggregate verdict from a recovered schedule."""

    evidence: Tuple[EdgeEvidence, ...]
    result: VerificationResult


def detect_from_recovered_schedule(
    suspect: CDFG,
    schedule: Schedule,
    watermark: SchedulingWatermark,
    model: str = "poisson",
) -> RecoveredDetection:
    """Detect the mark on a schedule reverse-engineered from RTL.

    Mirrors :meth:`SchedulingWatermarker.verify` constraint-for-
    constraint — same satisfied set, same ``P_c`` computation — but the
    schedule arrives from below (``repro.rtl.extract`` → controller →
    recovered schedule) instead of from the behavioral tool, and the
    per-edge evidence is reported explicitly so cross-level equality can
    be asserted edge by edge, not just in aggregate.

    >>> from repro.cdfg.builder import CDFGBuilder
    >>> from repro.core.scheduling_wm import SchedulingWatermark
    >>> b = CDFGBuilder("tiny")
    >>> x = b.input("x")
    >>> y = b.input("y")
    >>> a1 = b.add(x, y, "a1")
    >>> a2 = b.sub(x, y, "a2")
    >>> m = b.add(a1, a2, "m")
    >>> suspect = b.build()
    >>> record = SchedulingWatermark(
    ...     author_fingerprint="f", root="m", cone=("a1", "a2", "m"),
    ...     domain_nodes=("a1", "a2"), eligible_nodes=("a1", "a2"),
    ...     selected_nodes=("a1",), temporal_edges=(("a1", "a2"),),
    ...     temporal_edge_ids=((0, 1),), horizon=2, critical_path=2,
    ... )
    >>> hit = detect_from_recovered_schedule(
    ...     suspect,
    ...     Schedule({"x": 0, "y": 0, "a1": 0, "a2": 1, "m": 2}),
    ...     record,
    ... )
    >>> hit.result.detected, hit.evidence[0].satisfied
    (True, True)
    """
    evidence = []
    for src, dst in watermark.temporal_edges:
        present = src in suspect and dst in suspect
        evidence.append(
            EdgeEvidence(
                src=src,
                dst=dst,
                present=present,
                satisfied=present and schedule.satisfies_order(src, dst),
            )
        )
    satisfied = [(e.src, e.dst) for e in evidence if e.satisfied]
    log10_pc = (
        approx_log10_pc(suspect, satisfied, horizon=None, model=model)
        if satisfied
        else 0.0
    )
    return RecoveredDetection(
        evidence=tuple(evidence),
        result=VerificationResult(
            satisfied=len(satisfied),
            total=len(watermark.temporal_edges),
            log10_pc=log10_pc,
        ),
    )


@dataclass(frozen=True)
class DetectionHit:
    """One candidate locality with its verification outcome."""

    root: str
    result: VerificationResult

    @property
    def confidence(self) -> float:
        """Authorship confidence at this root."""
        return self.result.confidence


def verify_by_record(
    suspect: CDFG,
    schedule: Schedule,
    watermark: SchedulingWatermark,
    signature: AuthorSignature,
) -> VerificationResult:
    """Mode 1: replay the recorded constraints by node name."""
    marker = SchedulingWatermarker(signature)
    return marker.verify(suspect, schedule, watermark)


def detect_by_rederivation(
    suspect: CDFG,
    schedule: Schedule,
    signature: AuthorSignature,
    params: Optional[SchedulingWMParams] = None,
) -> VerificationResult:
    """Mode 2: re-derive the watermark from the signature and verify.

    The suspect graph must be structurally the marked design (renamed is
    fine); re-embedding consumes the identical bitstream and therefore
    derives the identical constraints, which are then *checked* instead
    of inserted.
    """
    marker = SchedulingWatermarker(signature, params)
    _, derived = marker.embed(suspect.without_temporal_edges())
    return marker.verify(suspect, schedule, derived)


def _map_record_to_cone(
    suspect: CDFG,
    root: str,
    watermark: SchedulingWatermark,
    domain_params: DomainParams,
    signature: AuthorSignature,
) -> Optional[List[Tuple[str, str]]]:
    """Map the record's identifier pairs onto a candidate root's cone.

    Returns the temporal (before, after) pairs expressed in suspect node
    names, or None when the candidate cone cannot host the watermark.
    """
    from repro.core.ordering import order_nodes

    index = suspect.locality_index()
    cone = index.cone(index.index[root], domain_params.tau)
    if len(cone) < len(watermark.cone):
        return None
    try:
        ordering = order_nodes(
            suspect, root, sorted(index.nodes[i] for i in cone)
        )
    except WatermarkError:
        return None
    pairs: List[Tuple[str, str]] = []
    for src_id, dst_id in watermark.temporal_edge_ids:
        if src_id >= len(ordering.nodes) or dst_id >= len(ordering.nodes):
            return None
        pairs.append((ordering.nodes[src_id], ordering.nodes[dst_id]))
    return pairs


def scan_for_watermark(
    suspect: CDFG,
    schedule: Schedule,
    watermark: SchedulingWatermark,
    signature: AuthorSignature,
    domain_params: Optional[DomainParams] = None,
    min_fraction: float = 1.0,
) -> List[DetectionHit]:
    """Mode 3: scan candidate roots for the memorized locality.

    For every schedulable node treated as root ``n_o``, the cone's
    canonical ordering is recomputed and the record's identifier-coded
    temporal constraints are checked against the suspect schedule.
    Returns hits with satisfaction fraction >= *min_fraction*, sorted by
    confidence (best first).
    """
    if domain_params is None:
        domain_params = DomainParams(tau=watermark.tau)
    hits: List[DetectionHit] = []
    for root in suspect.schedulable_operations:
        pairs = _map_record_to_cone(
            suspect, root, watermark, domain_params, signature
        )
        if pairs is None:
            continue
        satisfied = [
            (src, dst)
            for src, dst in pairs
            if schedule.satisfies_order(src, dst)
        ]
        if not pairs:
            continue
        fraction = len(satisfied) / len(pairs)
        if fraction < min_fraction:
            continue
        log10_pc = (
            approx_log10_pc(suspect, satisfied) if satisfied else 0.0
        )
        hits.append(
            DetectionHit(
                root=root,
                result=VerificationResult(
                    satisfied=len(satisfied),
                    total=len(pairs),
                    log10_pc=log10_pc,
                ),
            )
        )
    hits.sort(key=lambda h: (h.result.fraction, -h.result.log10_pc), reverse=True)
    return hits
