"""Output checks computed by the benchmark itself, never by ``repro``.

Each check returns a list of human-readable violations; an empty list
means the output is correct.  They read designs and schedules through
plain accessors only, so no traced layer runs inside a check.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

Edge = Tuple[str, str, int]


def design_edges(cdfg) -> List[Edge]:
    """Every data, control and temporal edge with its distance."""
    return [(u, v, cdfg.edge_distance(u, v)) for u, v in cdfg.edges()]


def schedule_violations(
    cdfg,
    start_times: Mapping[str, int],
    ii: Optional[int] = None,
    extra_edges: Iterable[Edge] = (),
) -> List[str]:
    """Edges whose latency the schedule does not meet.

    Acyclic: ``start(v) >= start(u) + lat(u)``.  Periodic at ``ii``:
    ``start(v) + ii * d >= start(u) + lat(u)`` for an edge of distance
    ``d``.  *extra_edges* are constraints the design no longer carries,
    such as a served record's watermark edges.
    """
    problems: List[str] = []
    for u, v, distance in [*design_edges(cdfg), *extra_edges]:
        if u not in start_times or v not in start_times:
            problems.append(f"edge {u}->{v}: endpoint not scheduled")
            continue
        shift = (ii or 0) * distance
        if start_times[v] + shift < start_times[u] + cdfg.latency(u):
            problems.append(
                f"edge {u}->{v} (d={distance}): start {start_times[v]}"
                f"{f' + {shift}' if shift else ''} < {start_times[u]}"
                f" + lat {cdfg.latency(u)}"
            )
    return problems


def verify_violations(satisfied: int, total: int) -> List[str]:
    """An author's own record must be fully satisfied."""
    if total < 1 or satisfied != total:
        return [f"own verify satisfied {satisfied} of {total}"]
    return []


def scan_violations(hit_roots: Sequence[str], root: str) -> List[str]:
    """The scan must find the locality the mark was embedded at."""
    if root not in hit_roots:
        return [f"scan missed embedding root {root!r} ({len(hit_roots)} hits)"]
    return []


def rtl_violations(
    recovered: Mapping[str, int], schedule: Mapping[str, int], nodes: Sequence[str]
) -> List[str]:
    """Start times read back from the Verilog equal the emitted schedule."""
    wrong = [n for n in nodes if recovered.get(n) != schedule.get(n)]
    if wrong:
        return [
            f"{len(wrong)} start times differ after extract, e.g. {wrong[0]!r}: "
            f"{recovered.get(wrong[0])} != {schedule.get(wrong[0])}"
        ]
    return []


def record_edges(record: Mapping[str, Any]) -> List[Edge]:
    """Watermark edges of a serialized record, with their distances."""
    edges = [tuple(edge) for edge in record["temporal_edges"]]
    distances = record.get("distances") or [0] * len(edges)
    return [(u, v, int(d)) for (u, v), d in zip(edges, distances)]


def json_text(payload: Any) -> str:
    """Canonical JSON rendering."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest(payload: Any) -> str:
    """SHA-256 of a canonical JSON rendering (of a string: of itself)."""
    text = payload if isinstance(payload, str) else json_text(payload)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests_agree(digests: Sequence[Any]) -> List[str]:
    """Every round of one run must produce the same output digests (a
    digest, or a mapping of item to digest, per round)."""
    distinct = sorted({json_text(value) for value in digests})
    if len(distinct) > 1:
        return [f"round digests differ: {[text[:80] for text in distinct]}"]
    return []


def remembered_digest(
    store: Dict[str, str], key: str, value: str
) -> List[str]:
    """Compare with the digest an earlier run of the same code recorded
    for the same item, or record this one."""
    previous = store.get(key)
    if previous is None:
        store[key] = value
        return []
    if previous != value:
        return [f"output digest {value[:12]} differs from an earlier run's "
                f"{previous[:12]} for {key}"]
    return []
