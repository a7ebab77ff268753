"""Differential oracles: two independent computations must agree.

Each oracle runs the same problem instance through two (or more)
implementations that the paper — or this codebase's own refactors —
claim equivalent, and reports a :class:`~repro.verify.report.Divergence`
whenever they disagree:

* :func:`oracle_schedulers` — exact, force-directed, and list
  schedulers on the same (design, horizon, resources) instance, with
  invariant checks: every schedule is precedence- and resource-
  feasible, latencies are ordered (the exact scheduler never loses to a
  heuristic), nothing overruns the horizon, and every watermark
  temporal edge is honoured.
* :func:`oracle_embed_paths` — the incremental timing-kernel embedding
  path (``incremental=True``) against the retained full-recompute
  reference, asserting bit-identical watermark records (or identical
  failures).
* :func:`oracle_windows_kernel` — :class:`IncrementalWindows` delta
  propagation against a full recompute after every temporal-edge
  insertion, node-for-node.
* :func:`oracle_coincidence_mc` — the detector's exact ``P_c``
  (schedule enumeration) against a brute-force Monte Carlo estimate on
  small localities, within a binomial confidence band.
* :func:`oracle_attack_service` — the serving engine's ``attack`` job
  against a direct :func:`repro.arena.sweep.attack_once` call on the
  same marked instance, asserting bit-identical trial results through
  the CDFG/schedule/record JSON round trip.
* :func:`oracle_periodic_windows` — the modulo kernel's steady-state
  windows (algebraic ``- ii*distance`` folding, a few sweeps) against
  the unrolled reference (one materialized graph copy per unit of
  total back-edge distance), bit-identical at several IIs per cyclic
  design, with matching infeasibility verdicts below the minimum II;
  on designs of at most :data:`CYCLE_LEG_MAX_NODES` nodes the kernel's
  minimum II must also equal the maximum of ``ceil(L/D)`` over simple
  cycles (:mod:`repro.verify.cycles`).
* :func:`oracle_locality` — the locality index's fanin cones,
  candidate roots, structural hashes and canonical orderings against
  per-node networkx walks (:mod:`repro.verify.locality`) on acyclic,
  cyclic and temporally marked designs.
* :func:`oracle_binding` — the heap-based unit/register binding and
  the birth-order register sweep against the original unit scan,
  track-by-track left edge and pairwise register check
  (:mod:`repro.verify.binding`): identical bindings on a list-scheduled
  random design, and identical verdicts on planted reassignments.
* :func:`oracle_order_probability` — the support-only order
  probability against the full-width pmf and double loop
  (:mod:`repro.verify.poisson`), by float ``==`` on random disjoint,
  overlapping and nested window pairs under both placement models.
* :func:`oracle_rtl_roundtrip` — Verilog emission against extraction:
  emit a scheduled+bound (possibly marked) design, parse the text back,
  and demand bit-identical controller tables, bindings, schedules,
  scheduling windows, and — when a watermark is present — per-edge
  detection evidence and ``log10 P_c`` between the behavioral and the
  RTL-recovered detector.

Every oracle takes a base seed and derives one child seed per trial, so
any reported divergence replays from its recorded seed alone.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

import networkx as nx

from repro.analysis.poisson import order_probability
from repro.cdfg.generators import random_cyclic_cdfg, random_layered_cdfg
from repro.cdfg.graph import CDFG
from repro.cdfg.ops import ResourceClass
from repro.core.coincidence import exact_pc, monte_carlo_pc
from repro.core.domain import DomainParams, candidate_roots
from repro.core.ordering import order_nodes, structural_hashes
from repro.core.scheduling_wm import (
    SchedulingWatermark,
    SchedulingWatermarker,
    SchedulingWMParams,
)
from repro.crypto.signature import AuthorSignature
from repro.errors import (
    BudgetExceededError,
    CDFGError,
    InfeasibleScheduleError,
    SchedulingError,
    WatermarkError,
)
from repro.rtl.binding import Binding, Lifetime, bind, variable_lifetimes
from repro.scheduling.enumeration import (
    EnumerationLimitError,
    window_box_volume,
)
from repro.scheduling.exact import exact_schedule
from repro.scheduling.force_directed import force_directed_schedule
from repro.scheduling.list_scheduler import list_schedule
from repro.scheduling.resources import UNLIMITED, ResourceSet
from repro.scheduling.schedule import Schedule
from repro.timing.kernel import IncrementalWindows
from repro.timing.unrolled import unrolled_reference_windows
from repro.timing.windows import (
    critical_path_length,
    periodic_critical_path_length,
    periodic_scheduling_windows,
    scheduling_windows,
)
from repro.util.perf import PERF
from repro.verify import binding as binding_ref
from repro.verify import cycles as cycles_ref
from repro.verify import locality as locality_ref
from repro.verify import poisson as poisson_ref
from repro.verify.report import Divergence

#: Author every verification embed uses; constraints are keyed, so a
#: fixed signature keeps oracle runs reproducible.
VERIFY_AUTHOR = "repro-verify-oracle"

#: Watermark parameters small enough to embed on the oracle designs.
VERIFY_PARAMS = SchedulingWMParams(domain=DomainParams(tau=4), k=3)


def derive_seed(base: int, trial: int, salt: str) -> int:
    """Deterministic per-trial child seed (stable across Python runs)."""
    return (base * 1_000_003 + trial * 7919 + sum(map(ord, salt))) % (2**31)


def trial_design(seed: int, num_ops: int = 48) -> CDFG:
    """The randomized design instance of one oracle trial."""
    return random_layered_cdfg(num_ops, seed=seed, name=f"verify{seed}")


def try_embed(
    design: CDFG, seed: int, incremental: bool = True
) -> Optional[Tuple[CDFG, SchedulingWatermark]]:
    """Embed the verification watermark; ``None`` when no locality fits."""
    marker = SchedulingWatermarker(
        AuthorSignature(f"{VERIFY_AUTHOR}-{seed}"),
        VERIFY_PARAMS,
        incremental=incremental,
    )
    try:
        return marker.embed(design)
    except WatermarkError:
        return None


# ----------------------------------------------------------------------
# scheduler cross-check
# ----------------------------------------------------------------------
def _check_schedule(
    name: str,
    schedule: Schedule,
    design: CDFG,
    horizon: int,
    resources: Optional[ResourceSet],
    watermark: Optional[SchedulingWatermark],
    divergences: List[Divergence],
    seed: int,
) -> None:
    """Invariants every scheduler's output must satisfy."""
    try:
        schedule.verify(design, resources=resources, horizon=horizon)
    except Exception as exc:
        divergences.append(
            Divergence(
                oracle="schedulers",
                design=design.name,
                seed=seed,
                detail=f"{name} schedule failed feasibility: {exc}",
                data={"scheduler": name},
            )
        )
        return
    if watermark is not None:
        broken = [
            (src, dst)
            for src, dst in watermark.temporal_edges
            if not schedule.satisfies_order(src, dst)
        ]
        if broken:
            divergences.append(
                Divergence(
                    oracle="schedulers",
                    design=design.name,
                    seed=seed,
                    detail=(
                        f"{name} schedule violates watermark edges {broken}"
                    ),
                    data={"scheduler": name, "broken_edges": broken},
                )
            )


def schedulers_trial(seed: int) -> List[Divergence]:
    """One scheduler-differential trial; returns observed divergences."""
    divergences: List[Divergence] = []
    design = trial_design(seed)
    embedded = try_embed(design, seed)
    watermark: Optional[SchedulingWatermark] = None
    if embedded is not None:
        design, watermark = embedded
    cp = critical_path_length(design)
    horizon = cp

    results = {}
    for name, run in (
        ("exact", lambda: exact_schedule(design, horizon, UNLIMITED)),
        ("force-directed", lambda: force_directed_schedule(design, horizon)),
        ("list", lambda: list_schedule(design)),
    ):
        schedule = run()
        _check_schedule(
            name, schedule, design, horizon, None, watermark, divergences,
            seed,
        )
        results[name] = schedule.makespan(design)

    # Latency ordering: with unlimited resources everything packs to the
    # critical path, and the exact scheduler in particular can never be
    # beaten by a heuristic.
    if results["exact"] != cp:
        divergences.append(
            Divergence(
                oracle="schedulers",
                design=design.name,
                seed=seed,
                detail=(
                    f"exact makespan {results['exact']} != critical path "
                    f"{cp} under unlimited resources"
                ),
                data={"makespans": results, "critical_path": cp},
            )
        )
    for name, makespan in results.items():
        if makespan < cp or makespan > horizon:
            divergences.append(
                Divergence(
                    oracle="schedulers",
                    design=design.name,
                    seed=seed,
                    detail=(
                        f"{name} makespan {makespan} outside "
                        f"[{cp}, {horizon}]"
                    ),
                    data={"makespans": results, "critical_path": cp},
                )
            )

    # Resource-constrained leg: the units the list schedule itself needs
    # are feasible by construction; the exact scheduler must find a
    # schedule under them too (possibly with a longer horizon).
    baseline = list_schedule(design)
    units = baseline.implied_units(design)
    resources = ResourceSet(dict(units))
    constrained = list_schedule(design, resources=resources)
    resource_horizon = constrained.makespan(design)
    _check_schedule(
        "list/resources", constrained, design, resource_horizon, resources,
        watermark, divergences, seed,
    )
    try:
        exact_constrained = exact_schedule(
            design, resource_horizon, resources, node_limit=200_000
        )
    except BudgetExceededError:
        return divergences  # search too deep for this trial; not a bug
    except InfeasibleScheduleError:
        divergences.append(
            Divergence(
                oracle="schedulers",
                design=design.name,
                seed=seed,
                detail=(
                    "exact scheduler proved infeasible a (horizon, "
                    "resources) instance the list scheduler solved"
                ),
                data={
                    "horizon": resource_horizon,
                    "units": {c.value: n for c, n in units.items()},
                },
            )
        )
        return divergences
    _check_schedule(
        "exact/resources", exact_constrained, design, resource_horizon,
        resources, watermark, divergences, seed,
    )
    if exact_constrained.makespan(design) > resource_horizon:
        divergences.append(
            Divergence(
                oracle="schedulers",
                design=design.name,
                seed=seed,
                detail="exact/resources overran the list scheduler's horizon",
                data={"makespan": exact_constrained.makespan(design)},
            )
        )
    return divergences


def oracle_schedulers(base_seed: int, trial: int) -> List[Divergence]:
    """Differential scheduler oracle, one trial."""
    return schedulers_trial(derive_seed(base_seed, trial, "schedulers"))


# ----------------------------------------------------------------------
# incremental vs reference embedding
# ----------------------------------------------------------------------
def embed_paths_trial(seed: int, design: Optional[CDFG] = None) -> List[Divergence]:
    """Embed with and without the incremental kernel; compare records."""
    if design is None:
        design = trial_design(seed, num_ops=60)
    kernel = try_embed(design, seed, incremental=True)
    reference = try_embed(design, seed, incremental=False)
    if (kernel is None) != (reference is None):
        return [
            Divergence(
                oracle="embed_paths",
                design=design.name,
                seed=seed,
                detail=(
                    "one embedding path failed where the other succeeded: "
                    f"kernel={'ok' if kernel else 'failed'}, "
                    f"reference={'ok' if reference else 'failed'}"
                ),
            )
        ]
    if kernel is None or reference is None:
        return []  # both declined this design identically
    marked_k, record_k = kernel
    marked_r, record_r = reference
    divergences: List[Divergence] = []
    if record_k != record_r:
        fields = [
            name
            for name in (
                "root", "cone", "domain_nodes", "eligible_nodes",
                "selected_nodes", "temporal_edges", "temporal_edge_ids",
                "horizon", "critical_path",
            )
            if getattr(record_k, name) != getattr(record_r, name)
        ]
        divergences.append(
            Divergence(
                oracle="embed_paths",
                design=design.name,
                seed=seed,
                detail=(
                    f"kernel and reference watermark records differ in "
                    f"{fields}"
                ),
                data={
                    "kernel_edges": list(record_k.temporal_edges),
                    "reference_edges": list(record_r.temporal_edges),
                },
            )
        )
    if sorted(marked_k.temporal_edges) != sorted(marked_r.temporal_edges):
        divergences.append(
            Divergence(
                oracle="embed_paths",
                design=design.name,
                seed=seed,
                detail="marked designs carry different temporal edges",
                data={
                    "kernel": sorted(marked_k.temporal_edges),
                    "reference": sorted(marked_r.temporal_edges),
                },
            )
        )
    return divergences


def oracle_embed_paths(base_seed: int, trial: int) -> List[Divergence]:
    """Kernel-vs-reference embedding oracle, one trial."""
    return embed_paths_trial(derive_seed(base_seed, trial, "embed"))


# ----------------------------------------------------------------------
# incremental windows vs full recompute
# ----------------------------------------------------------------------
def windows_kernel_trial(seed: int) -> List[Divergence]:
    """Insert random feasible temporal edges incrementally; cross-check.

    Two comparisons per trial: the live :class:`IncrementalWindows`
    against a from-scratch recompute on its own (mutated) graph, and
    against a **cold** replay of the same edge sequence on a pristine
    copy — so neither the delta propagation nor the patched view cache
    can drift without being caught.
    """
    rng = random.Random(seed)
    design = trial_design(seed, num_ops=rng.choice((24, 36, 48)))
    horizon = critical_path_length(design) + rng.randint(0, 3)
    pristine = design.copy()
    iw = IncrementalWindows(design, horizon)
    nodes = list(design.schedulable_operations)
    inserted: List[Tuple[str, str]] = []
    attempts = 0
    while len(inserted) < 8 and attempts < 64:
        attempts += 1
        src, dst = rng.sample(nodes, 2)
        if not iw.can_add_edge(src, dst):
            continue
        try:
            iw.add_edge(src, dst)
        except (CDFGError, InfeasibleScheduleError):
            continue
        inserted.append((src, dst))

    divergences: List[Divergence] = []
    # The kernel accepted every inserted edge as feasible; if the
    # reference recompute now proves the mutated graph infeasible, the
    # kernel's feasibility bookkeeping is wrong — that's a divergence,
    # not an error.
    try:
        recomputed = scheduling_windows(design.copy(), horizon)
    except InfeasibleScheduleError as exc:
        return [
            Divergence(
                oracle="windows_kernel",
                design=design.name,
                seed=seed,
                detail=(
                    f"kernel accepted {len(inserted)} edge(s) but the "
                    f"reference proves the result infeasible: {exc}"
                ),
                data={"edges": inserted, "horizon": horizon},
            )
        ]
    live = iw.windows()
    if live != recomputed:
        diffs = {
            n: (live[n], recomputed[n])
            for n in recomputed
            if live[n] != recomputed[n]
        }
        divergences.append(
            Divergence(
                oracle="windows_kernel",
                design=design.name,
                seed=seed,
                detail=(
                    f"incremental windows diverged from full recompute "
                    f"on {len(diffs)} node(s) after {len(inserted)} edges"
                ),
                data={
                    "edges": inserted,
                    "horizon": horizon,
                    "diffs": {n: list(map(list, d)) for n, d in diffs.items()},
                },
            )
        )
    # Cold replay: pristine copy + the same edges, full recompute only.
    for src, dst in inserted:
        pristine.add_temporal_edge(src, dst)
    cold = scheduling_windows(pristine, horizon)
    if live != cold:
        divergences.append(
            Divergence(
                oracle="windows_kernel",
                design=design.name,
                seed=seed,
                detail="incremental windows diverged from a cold replay",
                data={"edges": inserted, "horizon": horizon},
            )
        )
    return divergences


def oracle_windows_kernel(base_seed: int, trial: int) -> List[Divergence]:
    """Incremental-windows oracle, one trial."""
    return windows_kernel_trial(derive_seed(base_seed, trial, "windows"))


# ----------------------------------------------------------------------
# periodic windows: modulo kernel vs unrolled reference
# ----------------------------------------------------------------------
#: Largest design (in nodes) whose simple cycles the periodic oracle
#: enumerates; the cycle count grows exponentially with size.
CYCLE_LEG_MAX_NODES = 40


def periodic_windows_trial(seed: int) -> List[Divergence]:
    """Modulo steady-state windows against honest iteration unrolling.

    One random cyclic design per trial; at the minimum II and two
    looser ones the kernel's O(nodes · sweeps) fixpoint must match the
    O(nodes · Σdistance) unrolled recompute node-for-node, and one II
    below the minimum both sides must refuse.  On designs of at most
    :data:`CYCLE_LEG_MAX_NODES` nodes the minimum II must also equal
    the simple-cycle bound; each such check counts one
    ``verify.periodic_windows.cycle_legs``.
    """
    rng = random.Random(seed)
    design = random_cyclic_cdfg(
        rng.choice((24, 36, 48)),
        seed=seed,
        num_back_edges=rng.randint(1, 6),
        max_distance=rng.randint(1, 3),
    )
    mii = design.view().min_ii()
    divergences: List[Divergence] = []

    def report(detail: str, **data) -> None:
        divergences.append(
            Divergence(
                oracle="periodic_windows",
                design=design.name,
                seed=seed,
                detail=detail,
                data=data,
            )
        )

    if len(design.operations) <= CYCLE_LEG_MAX_NODES:
        PERF.add("verify.periodic_windows.cycle_legs")
        cycle_mii = cycles_ref.reference_cycle_min_ii(design)
        if cycle_mii != mii:
            report(
                f"kernel min II {mii} differs from the simple-cycle "
                f"bound max ceil(L/D) = {cycle_mii}",
                ii=mii,
                cycle_ii=cycle_mii,
            )

    for ii in (mii, mii + 1, mii + rng.randint(2, 5)):
        horizon = periodic_critical_path_length(design, ii) + rng.randint(0, 3)
        kernel = periodic_scheduling_windows(design, horizon, ii)
        try:
            reference = unrolled_reference_windows(design, horizon, ii)
        except InfeasibleScheduleError as exc:
            report(
                f"kernel accepted II={ii} but the unrolled reference "
                f"refused: {exc}",
                ii=ii,
                horizon=horizon,
            )
            continue
        if kernel != reference:
            diffs = {
                n: (kernel[n], reference[n])
                for n in reference
                if kernel[n] != reference[n]
            }
            report(
                f"modulo windows diverged from unrolled reference on "
                f"{len(diffs)} node(s) at II={ii}",
                ii=ii,
                horizon=horizon,
                diffs={n: list(map(list, d)) for n, d in diffs.items()},
            )

    if mii > 1:
        infeasible_ii = mii - 1
        horizon = periodic_critical_path_length(design, mii) + 4
        verdicts = {}
        for label, fn in (
            ("kernel", periodic_scheduling_windows),
            ("unrolled", unrolled_reference_windows),
        ):
            try:
                fn(design, horizon, infeasible_ii)
                verdicts[label] = "accepted"
            except InfeasibleScheduleError:
                verdicts[label] = "refused"
        if len(set(verdicts.values())) != 1 or "accepted" in verdicts.values():
            report(
                f"infeasibility verdicts disagree below min II "
                f"({infeasible_ii} < {mii}): {verdicts}",
                ii=infeasible_ii,
                verdicts=verdicts,
            )
    return divergences


def oracle_periodic_windows(base_seed: int, trial: int) -> List[Divergence]:
    """Periodic-windows oracle, one trial."""
    return periodic_windows_trial(derive_seed(base_seed, trial, "periodic"))


# ----------------------------------------------------------------------
# locality index vs networkx walks
# ----------------------------------------------------------------------
def _outcome(fn, *args):
    """``fn(*args)``, or the name of the error it raised."""
    try:
        return fn(*args)
    except (CDFGError, WatermarkError) as exc:
        return f"raised {type(exc).__name__}"


def _locality_designs(rng: random.Random, seed: int) -> List[CDFG]:
    """An acyclic, a cyclic and a temporally marked design."""
    acyclic = random_layered_cdfg(rng.choice((24, 36, 48)), seed=seed)
    cyclic = random_cyclic_cdfg(
        rng.choice((24, 36, 48)),
        seed=seed + 1,
        num_back_edges=rng.randint(1, 6),
        max_distance=rng.randint(1, 3),
    )
    marked = random_layered_cdfg(rng.choice((24, 36, 48)), seed=seed + 2)
    marked.name += ".temporal"
    order = marked.topological_order()
    for _ in range(len(order)):
        src, dst = sorted(rng.sample(range(len(order)), 2))
        if not marked.graph.has_edge(order[src], order[dst]):
            marked.add_temporal_edge(order[src], order[dst])
    return [acyclic, cyclic, marked]


def locality_trial(seed: int) -> List[Divergence]:
    """Locality queries from the index against per-node networkx walks.

    Per design: every node's fanin cone, the candidate-root list, the
    whole-design WL hashes, and the canonical ordering of a few roots'
    cones must agree exactly.  Temporal edges and positive-distance
    back edges are present so a walk that follows either one diverges.
    """
    rng = random.Random(seed)
    params = DomainParams(
        tau=rng.randint(1, 5), min_domain_size=rng.randint(2, 8)
    )
    divergences: List[Divergence] = []
    for design in _locality_designs(rng, seed):

        def report(detail: str, **data) -> None:
            divergences.append(
                Divergence(
                    oracle="locality",
                    design=design.name,
                    seed=seed,
                    detail=detail,
                    data=data,
                )
            )

        diffs = [
            node
            for node in design.operations
            if design.fanin_tree(node, params.tau)
            != locality_ref.reference_fanin_tree(design, node, params.tau)
        ]
        if diffs:
            report(
                f"fanin cones differ at {len(diffs)} node(s)",
                tau=params.tau,
                nodes=diffs[:10],
            )
        roots = _outcome(candidate_roots, design, params)
        expected = _outcome(
            locality_ref.reference_candidate_roots, design, params
        )
        if roots != expected:
            report(
                "candidate roots differ", production=roots, reference=expected
            )
        universe = set(design.operations)
        if structural_hashes(design, universe) != (
            locality_ref.reference_structural_hashes(design, universe)
        ):
            report("structural hashes differ")
        schedulable = set(design.schedulable_operations)
        for root in rng.sample(sorted(schedulable), min(4, len(schedulable))):
            cone = sorted(
                locality_ref.reference_fanin_tree(design, root, params.tau)
                & schedulable
            )
            ordering = _outcome(order_nodes, design, root, cone)
            expected = _outcome(
                locality_ref.reference_order_nodes, design, root, cone
            )
            if ordering != expected:
                report(
                    f"canonical ordering of {root!r}'s cone differs", root=root
                )
    return divergences


def oracle_locality(base_seed: int, trial: int) -> List[Divergence]:
    """Locality-index oracle, one trial."""
    return locality_trial(derive_seed(base_seed, trial, "locality"))


# ----------------------------------------------------------------------
# heap binding + register sweep vs scans + pairwise check
# ----------------------------------------------------------------------
#: Planted reassignments one binding trial checks verdicts on.
BINDING_PLANTS_PER_TRIAL = 16


def _verdict(verify, binding, design, schedule) -> str:
    """``"ok"``, or which check of a binding verification raised."""
    try:
        verify(binding, design, schedule)
    except SchedulingError as exc:
        return str(exc).split(":", 1)[0]
    return "ok"


def _planted_bindings(
    rng: random.Random, binding: Binding, lifetimes: List[Lifetime]
) -> List[Tuple[str, Binding]]:
    """Reassignments of a valid binding, each on its own copy.

    Unit moves and swaps within a class, register moves and swaps, and
    a merge of two variables born in the same step into the register
    of the longer-lived one — a conflict that only the equal-birth pair
    exhibits.
    """
    ops = sorted(binding.unit_of)
    variables = sorted(binding.register_of)
    units = binding.units_per_class()
    register_of = binding.register_of
    twins = [
        (longer.variable, shorter.variable)
        for longer in lifetimes
        for shorter in lifetimes
        if shorter.birth == longer.birth
        and shorter.death <= longer.death
        and register_of[shorter.variable] != register_of[longer.variable]
    ]
    kinds = ("unit move", "unit swap", "register move", "register swap")
    if twins:
        kinds += ("equal-birth merge",)
    plants: List[Tuple[str, Binding]] = []
    for _ in range(BINDING_PLANTS_PER_TRIAL):
        planted = Binding(dict(binding.unit_of), dict(register_of))
        kind = rng.choice(kinds)
        if kind == "unit move":
            op = rng.choice(ops)
            cls = binding.unit_of[op][0]
            planted.unit_of[op] = (cls, rng.randrange(units[cls]))
        elif kind == "unit swap":
            a = rng.choice(ops)
            cls = binding.unit_of[a][0]
            b = rng.choice([o for o in ops if binding.unit_of[o][0] is cls])
            planted.unit_of[a] = binding.unit_of[b]
            planted.unit_of[b] = binding.unit_of[a]
        elif kind == "register move":
            v, w = rng.choice(variables), rng.choice(variables)
            planted.register_of[v] = register_of[w]
        elif kind == "register swap":
            v, w = rng.choice(variables), rng.choice(variables)
            planted.register_of[v] = register_of[w]
            planted.register_of[w] = register_of[v]
        else:
            longer, shorter = rng.choice(twins)
            planted.register_of[shorter] = register_of[longer]
        plants.append((kind, planted))
    return plants


def binding_trial(seed: int) -> List[Divergence]:
    """Production binding against the reference scans, then verdicts.

    A random design (watermarked when a locality fits) is list
    scheduled, sometimes under unit limits.  :func:`~repro.rtl.binding.bind`
    (which self-verifies) must return exactly the reference's
    ``unit_of`` and ``register_of``.  Then each planted reassignment
    must get the same verdict — ``ok``, ``unit conflict`` or
    ``register conflict`` — from production :meth:`Binding.verify` and
    the pairwise reference.
    """
    rng = random.Random(seed)
    design = trial_design(seed, num_ops=rng.choice((24, 36, 48, 64)))
    embedded = try_embed(design, seed)
    if embedded is not None:
        design = embedded[0]
    resources = UNLIMITED
    if rng.random() < 0.5:
        resources = ResourceSet(
            {
                ResourceClass.ALU: rng.randint(1, 3),
                ResourceClass.MULTIPLIER: rng.randint(1, 2),
            }
        )
    schedule = list_schedule(design, resources=resources)
    divergences: List[Divergence] = []

    def report(detail: str, **data) -> None:
        divergences.append(
            Divergence(
                oracle="binding",
                design=design.name,
                seed=seed,
                detail=detail,
                data=data,
            )
        )

    try:
        binding = bind(design, schedule)
    except SchedulingError as exc:
        report(f"bind rejected its own binding: {exc}")
        return divergences
    expected = binding_ref.reference_bind(design, schedule)
    for name in ("unit_of", "register_of"):
        got, want = getattr(binding, name), getattr(expected, name)
        if got != want:
            diff = sorted(
                n for n in set(got) | set(want) if got.get(n) != want.get(n)
            )
            report(f"{name} differs on {len(diff)} name(s)", names=diff[:8])
    lifetimes = variable_lifetimes(design, schedule)
    for kind, planted in _planted_bindings(rng, binding, lifetimes):
        production = _verdict(Binding.verify, planted, design, schedule)
        reference = _verdict(
            binding_ref.reference_verify, planted, design, schedule
        )
        if production != reference:
            report(
                f"{kind}: production verify says {production!r}, "
                f"reference says {reference!r}",
                kind=kind,
            )
    return divergences


def oracle_binding(base_seed: int, trial: int) -> List[Divergence]:
    """Binding oracle, one trial."""
    return binding_trial(derive_seed(base_seed, trial, "binding"))


# ----------------------------------------------------------------------
# vectorized kernel vs worklist reference
# ----------------------------------------------------------------------
def kernel_vectorized_trial(seed: int) -> List[Divergence]:
    """Array-native kernel against the worklist reference, bit for bit.

    One randomized design, four legs:

    1. cold full sweeps (ASAP / tails / ALAP) on fresh views under each
       forced kernel mode;
    2. the same random temporal-edge insertion sequence driven through
       two lockstep :class:`IncrementalWindows` (one per mode) on twin
       design copies — feasibility verdicts, raised errors, and the
       windows after every accepted edge must all agree;
    3. **warm**-view full sweeps after the mutations, exercising the
       COO extras side list the vectorized sweeps fold in;
    4. bulk feasibility screens vs the per-pair loop, and
       :meth:`delta_tighten` cone deltas under both modes.

    Returns no divergences (a silent pass) when numpy is unavailable.
    """
    from repro.timing.kernel import (
        NUMPY_AVAILABLE,
        CDFGView,
        kernel_mode_override,
    )

    if not NUMPY_AVAILABLE:  # pragma: no cover - numpy ships in CI
        return []
    rng = random.Random(seed)
    design = trial_design(seed, num_ops=rng.choice((24, 36, 48)))
    horizon = critical_path_length(design) + rng.randint(0, 3)
    divergences: List[Divergence] = []

    def report(detail: str, **data) -> None:
        divergences.append(
            Divergence(
                oracle="kernel_vectorized",
                design=design.name,
                seed=seed,
                detail=detail,
                data=data,
            )
        )

    # Leg 1: cold full sweeps on fresh views.
    with kernel_mode_override("reference"):
        ref_view = CDFGView(design)
        cold_ref = (ref_view.asap(), ref_view.tails(), ref_view.alap(horizon))
    with kernel_mode_override("vectorized"):
        vec_view = CDFGView(design)
        cold_vec = (vec_view.asap(), vec_view.tails(), vec_view.alap(horizon))
    for name, r, v in zip(("asap", "tails", "alap"), cold_ref, cold_vec):
        if r != v:
            bad = [i for i, (a, b) in enumerate(zip(r, v)) if a != b]
            report(
                f"vectorized {name} diverged from reference on a cold view "
                f"at {len(bad)} node(s)",
                sweep=name,
                nodes=[ref_view.nodes[i] for i in bad[:8]],
            )

    # Leg 2: lockstep incremental edge insertions on twin copies.
    ref_cdfg = design.copy()
    vec_cdfg = design.copy()
    with kernel_mode_override("reference"):
        ref_iw = IncrementalWindows(ref_cdfg, horizon)
    with kernel_mode_override("vectorized"):
        vec_iw = IncrementalWindows(vec_cdfg, horizon)
    nodes = list(design.schedulable_operations)
    inserted: List[Tuple[str, str]] = []
    attempts = 0
    while len(inserted) < 6 and attempts < 48:
        attempts += 1
        src, dst = rng.sample(nodes, 2)
        with kernel_mode_override("reference"):
            ref_ok = ref_iw.can_add_edge(src, dst)
        with kernel_mode_override("vectorized"):
            vec_ok = vec_iw.can_add_edge(src, dst)
        if ref_ok != vec_ok:
            report(
                f"can_add_edge({src!r}, {dst!r}) disagreed: "
                f"reference={ref_ok}, vectorized={vec_ok}",
                edges=inserted,
            )
            break
        if not ref_ok:
            continue
        outcomes = {}
        for mode, iw in (("reference", ref_iw), ("vectorized", vec_iw)):
            with kernel_mode_override(mode):
                try:
                    iw.add_edge(src, dst)
                    outcomes[mode] = None
                except (CDFGError, InfeasibleScheduleError) as exc:
                    outcomes[mode] = type(exc).__name__
        if outcomes["reference"] != outcomes["vectorized"]:
            report(
                f"add_edge({src!r}, {dst!r}) outcomes disagreed: {outcomes}",
                edges=inserted,
            )
            break
        if outcomes["reference"] is not None:
            continue
        inserted.append((src, dst))
        if ref_iw.windows() != vec_iw.windows():
            report(
                f"windows diverged after inserting edge ({src!r}, {dst!r})",
                edges=inserted,
            )
            break

    # Leg 3: warm full sweeps on the mutated vectorized view — the
    # patched view carries the inserted edges in its extras side list,
    # so both private sweep bodies run over identical adjacency.
    warm = vec_iw.view
    warm_pairs = (
        ("asap", warm._asap_reference(), warm._asap_vectorized()),
        ("tails", warm._tails_reference(), warm._tails_vectorized()),
        ("alap", warm._alap_reference(horizon), warm._alap_vectorized(horizon)),
    )
    for name, r, v in warm_pairs:
        if r != v:
            bad = [i for i, (a, b) in enumerate(zip(r, v)) if a != b]
            report(
                f"warm {name} sweep diverged after {len(inserted)} "
                f"insertion(s) at {len(bad)} node(s)",
                sweep=name,
                edges=inserted,
                nodes=[warm.nodes[i] for i in bad[:8]],
            )

    # Leg 4: bulk screens and cone deltas.
    index = vec_iw.view.index
    name_pairs = [tuple(rng.sample(nodes, 2)) for _ in range(24)]
    with kernel_mode_override("vectorized"):
        bulk = vec_iw.feasible_edges(name_pairs)
    with kernel_mode_override("reference"):
        looped = ref_iw.feasible_edges(name_pairs)
    if bulk != looped:
        report(
            "bulk feasible_edges disagreed with the per-pair loop",
            pairs=[list(p) for p in name_pairs],
            bulk=bulk,
            loop=looped,
        )
    idx_pairs = [(index[u], index[v]) for u, v in name_pairs]
    with kernel_mode_override("vectorized"):
        view_bulk = vec_iw.view.feasible_pairs(horizon, idx_pairs)
    with kernel_mode_override("reference"):
        view_loop = ref_iw.view.feasible_pairs(horizon, idx_pairs)
    if view_bulk != view_loop:
        report("view.feasible_pairs bulk screen disagreed with the loop")

    for _ in range(4):
        node = rng.choice(nodes)
        i = index[node]
        lo, hi = vec_iw.lo[i], vec_iw.hi[i]
        if lo == hi:
            continue
        pin = rng.randint(lo, hi)
        deltas = {}
        for mode, iw in (("reference", ref_iw), ("vectorized", vec_iw)):
            with kernel_mode_override(mode):
                try:
                    deltas[mode] = iw.delta_tighten(node, (pin, pin))
                except InfeasibleScheduleError:
                    deltas[mode] = "infeasible"
        if deltas["reference"] != deltas["vectorized"]:
            report(
                f"delta_tighten({node!r}, ({pin}, {pin})) cone deltas "
                f"disagreed between modes",
                node=node,
                pin=pin,
            )
    return divergences


def oracle_kernel_vectorized(base_seed: int, trial: int) -> List[Divergence]:
    """Vectorized-vs-reference kernel oracle, one trial."""
    return kernel_vectorized_trial(derive_seed(base_seed, trial, "veckernel"))


# ----------------------------------------------------------------------
# order probability: support-only sum vs full-width double loop
# ----------------------------------------------------------------------
#: Poisson rates an order-probability pair draws from.
ORDER_PROBABILITY_LAMBDAS = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 30.0)

#: Widest window per placement model.  The reference loop costs
#: O(w_a·w_b); the Poisson support stops growing long before 3,000
#: steps, but the uniform model keeps every step in production too.
ORDER_PROBABILITY_MAX_WIDTH = {"poisson": 3000, "uniform": 150}

#: How the two windows of a pair sit relative to each other.
ORDER_PROBABILITY_LAYOUTS = ("disjoint", "overlapping", "nested")


def _window_pair(
    rng: random.Random, layout: str, max_width: int
) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """Two windows in *layout*, widths log-uniform in ``1..max_width``."""
    width_a, width_b = (round(max_width ** rng.random()) for _ in range(2))
    lo_a = rng.randint(0, 64)
    if layout == "disjoint":
        gap = rng.randint(0, 8)
        lo_b = (
            lo_a + width_a + gap
            if rng.random() < 0.5
            else lo_a - width_b - gap
        )
    elif layout == "overlapping":
        lo_b = lo_a + rng.randint(1 - width_b, width_a - 1)
    elif width_a >= width_b:
        lo_b = lo_a + rng.randint(0, width_a - width_b)
    else:
        lo_b = lo_a - rng.randint(0, width_b - width_a)
    return (lo_a, lo_a + width_a - 1), (lo_b, lo_b + width_b - 1)


def order_probability_trial(seed: int) -> List[Divergence]:
    """Production order probability against the reference, by ``==``.

    One window pair per layout, each under a random placement model
    and Poisson rate.  Any difference fails, a one-ULP drift included:
    the goldens pin ``log10_pc``, and production claims to add the same
    nonzero terms in the same order as the full double loop.
    """
    rng = random.Random(seed)
    divergences: List[Divergence] = []
    for layout in ORDER_PROBABILITY_LAYOUTS:
        model = rng.choice(("poisson", "poisson", "poisson", "uniform"))
        lam = rng.choice(ORDER_PROBABILITY_LAMBDAS)
        window_a, window_b = _window_pair(
            rng, layout, ORDER_PROBABILITY_MAX_WIDTH[model]
        )
        production = order_probability(window_a, window_b, model, lam)
        reference = poisson_ref.reference_order_probability(
            window_a, window_b, model, lam
        )
        if production != reference:
            divergences.append(
                Divergence(
                    oracle="order_probability",
                    design=f"{layout}:{model}",
                    seed=seed,
                    detail=(
                        f"order probability of {window_a} before {window_b} "
                        f"({model}, lam={lam}): production "
                        f"{production.hex()}, reference {reference.hex()}"
                    ),
                    data={
                        "window_a": list(window_a),
                        "window_b": list(window_b),
                        "model": model,
                        "lam": lam,
                        "production": production,
                        "reference": reference,
                    },
                )
            )
    return divergences


def oracle_order_probability(base_seed: int, trial: int) -> List[Divergence]:
    """Order-probability oracle, one trial."""
    return order_probability_trial(derive_seed(base_seed, trial, "order"))


# ----------------------------------------------------------------------
# exact P_c vs brute-force Monte Carlo
# ----------------------------------------------------------------------
#: Cap on the window-box volume a Monte Carlo trial will sample; above
#: it the acceptance rate is too low for a meaningful estimate and the
#: trial is skipped (counted in the outcome's ``skipped``).
MAX_BOX_VOLUME = 4096

#: Agreement band in standard errors.  6σ two-sided per trial keeps the
#: false-alarm probability below ~1e-8 even across thousands of trials.
SIGMA_BAND = 6.0


def coincidence_trial(seed: int, samples: int = 6000):
    """One exact-vs-Monte-Carlo ``P_c`` trial.

    Returns ``(divergences, skipped)``; *skipped* is True when the
    trial's instance was unsuitable (box too large, no feasible edge,
    enumeration blow-up) rather than checked.
    """
    rng = random.Random(seed)
    design = trial_design(seed, num_ops=rng.choice((7, 8, 9, 10)))
    horizon = critical_path_length(design) + rng.randint(0, 1)
    nodes = list(design.schedulable_operations)
    if window_box_volume(design, horizon, nodes) > MAX_BOX_VOLUME:
        return [], True

    # Pick a temporal-edge pair with genuine freedom: overlapping
    # windows, no existing path either way.
    windows = scheduling_windows(design, horizon)
    candidates = []
    for i, src in enumerate(nodes):
        for dst in nodes[i + 1:]:
            lo_s, hi_s = windows[src]
            lo_d, hi_d = windows[dst]
            if lo_s + design.latency(src) > hi_d:
                continue
            if nx.has_path(design.graph, src, dst):
                continue
            if nx.has_path(design.graph, dst, src):
                continue
            candidates.append((src, dst))
    if not candidates:
        return [], True
    edges = [rng.choice(candidates)]

    try:
        exact = exact_pc(
            design, edges, horizon=horizon, nodes=nodes, limit=500_000
        )
    except EnumerationLimitError:
        return [], True
    if exact.without_constraints == 0:
        return [], True
    mc = monte_carlo_pc(
        design, edges, rng, horizon=horizon, nodes=nodes, samples=samples
    )
    divergences: List[Divergence] = []
    if mc.feasible == 0:
        divergences.append(
            Divergence(
                oracle="coincidence_mc",
                design=design.name,
                seed=seed,
                detail=(
                    f"Monte Carlo found no feasible schedule in {samples} "
                    f"samples, but enumeration counted "
                    f"{exact.without_constraints}"
                ),
            )
        )
        return divergences, False
    tolerance = SIGMA_BAND * mc.standard_error() + 1e-9
    if abs(mc.pc - exact.pc) > tolerance:
        divergences.append(
            Divergence(
                oracle="coincidence_mc",
                design=design.name,
                seed=seed,
                detail=(
                    f"Monte Carlo P_c {mc.pc:.4f} disagrees with exact "
                    f"{exact.pc:.4f} beyond {SIGMA_BAND}σ ({tolerance:.4f})"
                ),
                data={
                    "edges": edges,
                    "exact": [
                        exact.with_constraints, exact.without_constraints,
                    ],
                    "monte_carlo": [mc.satisfying, mc.feasible, mc.samples],
                },
            )
        )
    return divergences, False


def oracle_coincidence_mc(base_seed: int, trial: int):
    """P_c differential oracle, one trial; returns (divergences, skipped)."""
    return coincidence_trial(derive_seed(base_seed, trial, "pc"))


# ----------------------------------------------------------------------
# service attack job vs direct library call
# ----------------------------------------------------------------------
def attack_service_trial(seed: int):
    """One service-vs-library attack trial.

    The arena's fleet dispatch claims the serving engine's ``attack``
    job is a pure transport around :func:`repro.arena.sweep.attack_once`
    — same inputs, bit-identical result dict — with the design, the
    schedule, and the mark records surviving a JSON round trip on the
    way in.  This oracle pins that claim on randomized designs; any
    field-level drift (a lossy serialization, an iteration-order
    dependence in an attack) surfaces as a divergence.

    Returns ``(divergences, skipped)``; *skipped* is True when the
    random design admitted no watermark to attack.
    """
    # Lazy imports: the arena and the serving engine sit above the
    # verify package in the layering; only this oracle needs them.
    from repro.arena.attacks import ATTACKS
    from repro.arena.sweep import attack_once
    from repro.cdfg.io import to_dict as cdfg_to_dict
    from repro.core.records import scheduling_watermark_to_dict
    from repro.scheduling.list_scheduler import list_schedule
    from repro.service.engine import execute_job

    rng = random.Random(seed)
    design = trial_design(seed, num_ops=rng.choice((36, 48)))
    embedded = try_embed(design, seed)
    if embedded is None:
        return [], True
    marked, record = embedded
    suspect = marked.without_temporal_edges()
    schedule = list_schedule(marked)
    attack = rng.choice(sorted(ATTACKS))
    strength = rng.choice((0.25, 0.5, 1.0))
    fault_rate = rng.choice((0.0, 0.0, 0.2))
    tau = VERIFY_PARAMS.domain.tau
    library = attack_once(
        suspect,
        schedule,
        (record,),
        attack=attack,
        strength=strength,
        seed=seed,
        fault_rate=fault_rate,
        fault_kinds=("delete_edges",),
        tau=tau,
    )
    service = execute_job(
        "attack",
        {
            "design": cdfg_to_dict(suspect),
            "schedule": {"start_times": dict(schedule.start_times)},
            "marks": [scheduling_watermark_to_dict(record)],
            "attack": attack,
            "strength": strength,
            "seed": seed,
            "fault_rate": fault_rate,
            "fault_kinds": ["delete_edges"],
            "tau": tau,
        },
    )
    if library == service:
        return [], False
    fields = sorted(
        key
        for key in set(library) | set(service)
        if library.get(key) != service.get(key)
    )
    return [
        Divergence(
            oracle="attack_service",
            design=design.name,
            seed=seed,
            detail=(
                f"service attack job diverged from attack_once for "
                f"{attack!r} (strength {strength}, fault rate "
                f"{fault_rate}) in fields {fields}"
            ),
            data={
                "attack": attack,
                "strength": strength,
                "fault_rate": fault_rate,
                "library": {k: library.get(k) for k in fields},
                "service": {k: service.get(k) for k in fields},
            },
        )
    ], False


def oracle_attack_service(base_seed: int, trial: int):
    """Service-vs-library attack oracle, one trial."""
    return attack_service_trial(derive_seed(base_seed, trial, "attack"))


# ----------------------------------------------------------------------
# Verilog emission vs extraction round trip
# ----------------------------------------------------------------------
def rtl_roundtrip_trial(
    seed: int, design: Optional[CDFG] = None
) -> List[Divergence]:
    """One emit → extract structural-equivalence trial.

    Legs, in order:

    1. emission is byte-deterministic (two renders agree);
    2. the extracted controller/binding equal the synthesized ones;
    3. the schedule recovered from the text equals the input schedule
       (datapath ops directly, IO placeholders via
       :func:`~repro.rtl.controller.recovered_schedule_for`);
    4. scheduling windows computed at the extracted step count equal the
       behavioral ones (same ``P_c`` substrate);
    5. when the design carries a watermark, detection from the
       RTL-recovered schedule must match behavioral detection edge for
       edge — same evidence tuple, same ``log10 P_c`` — and detect.
    """
    from repro.core.detector import detect_from_recovered_schedule
    from repro.rtl.binding import bind
    from repro.rtl.controller import (
        recover_schedule,
        recovered_schedule_for,
        synthesize_controller,
    )
    from repro.rtl.emit import emit_verilog
    from repro.rtl.extract import RTLExtractionError, extract_verilog

    rng = random.Random(seed)
    if design is None:
        design = trial_design(seed, num_ops=rng.choice((24, 36, 48)))
    record: Optional[SchedulingWatermark] = None
    embedded = try_embed(design, seed)
    if embedded is not None:
        design, record = embedded
    schedule = list_schedule(design)
    binding = bind(design, schedule)
    controller = synthesize_controller(design, schedule, binding)
    makespan = schedule.makespan(design)

    divergences: List[Divergence] = []

    def report(detail: str, **data) -> None:
        divergences.append(
            Divergence(
                oracle="rtl_roundtrip",
                design=design.name,
                seed=seed,
                detail=detail,
                data=data,
            )
        )

    rtl = emit_verilog(design, schedule, binding, controller)
    again = emit_verilog(design, schedule, binding, controller)
    if rtl.text != again.text:
        report("emission is not byte-deterministic")
        return divergences

    try:
        extracted = extract_verilog(rtl.text)
    except RTLExtractionError as exc:
        report(f"extraction failed on freshly emitted text: {exc}")
        return divergences

    if extracted.num_steps != makespan:
        report(
            f"extracted {extracted.num_steps} control steps, behavioral "
            f"makespan is {makespan}"
        )
    if extracted.binding.unit_of != binding.unit_of:
        diff = {
            n
            for n in set(binding.unit_of) | set(extracted.binding.unit_of)
            if binding.unit_of.get(n) != extracted.binding.unit_of.get(n)
        }
        report(
            f"unit binding diverged on {len(diff)} operation(s)",
            operations=sorted(diff)[:8],
        )
    if extracted.binding.register_of != binding.register_of:
        diff = {
            n
            for n in set(binding.register_of)
            | set(extracted.binding.register_of)
            if binding.register_of.get(n)
            != extracted.binding.register_of.get(n)
        }
        report(
            f"register binding diverged on {len(diff)} variable(s)",
            variables=sorted(diff)[:8],
        )
    if extracted.controller.as_table() != controller.as_table():
        report("extracted controller table differs from synthesized FSM")

    recovered = recover_schedule(extracted.controller)
    mismatched = [
        n
        for n in design.schedulable_operations
        if recovered.start_times.get(n) != schedule.start(n)
    ]
    if mismatched:
        report(
            f"recovered schedule diverged on {len(mismatched)} "
            f"operation(s)",
            operations=mismatched[:8],
        )
    suspect = design.without_temporal_edges()
    full_rtl = recovered_schedule_for(suspect, recovered)
    full_ctl = recovered_schedule_for(
        suspect, recover_schedule(controller)
    )
    if full_rtl.start_times != full_ctl.start_times:
        report(
            "IO-completed schedules differ between the RTL and the "
            "controller recovery paths"
        )
    if scheduling_windows(suspect, extracted.num_steps) != (
        scheduling_windows(suspect, makespan)
    ):
        report(
            "scheduling windows at the extracted step count differ from "
            "the behavioral ones"
        )

    if record is not None:
        rtl_hit = detect_from_recovered_schedule(suspect, full_rtl, record)
        ctl_hit = detect_from_recovered_schedule(suspect, full_ctl, record)
        if rtl_hit != ctl_hit:
            report(
                "RTL-recovered detection differs from controller-"
                "recovered detection",
                rtl=[rtl_hit.result.satisfied, rtl_hit.result.total],
                controller=[
                    ctl_hit.result.satisfied, ctl_hit.result.total,
                ],
            )
        marker = SchedulingWatermarker(
            AuthorSignature(f"{VERIFY_AUTHOR}-{seed}"), VERIFY_PARAMS
        )
        behavioral = marker.verify(suspect, full_ctl, record)
        if rtl_hit.result != behavioral:
            report(
                "RTL-recovered verdict differs from the behavioral "
                "detector",
                rtl=[
                    rtl_hit.result.satisfied,
                    rtl_hit.result.total,
                    rtl_hit.result.log10_pc,
                ],
                behavioral=[
                    behavioral.satisfied,
                    behavioral.total,
                    behavioral.log10_pc,
                ],
            )
        if not rtl_hit.result.detected:
            report(
                "watermark not detected from the emitted Verilog",
                satisfied=rtl_hit.result.satisfied,
                total=rtl_hit.result.total,
            )
    return divergences


def oracle_rtl_roundtrip(base_seed: int, trial: int) -> List[Divergence]:
    """Emit-vs-extract RTL oracle, one trial."""
    return rtl_roundtrip_trial(derive_seed(base_seed, trial, "rtl"))
