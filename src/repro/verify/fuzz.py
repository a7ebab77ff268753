"""Mutator fuzzer: random CDFG mutation sequences vs. a cold rebuild.

The timing kernel's correctness rests on cache coherence: every CDFG
mutator must bump the mutation counter, and the incremental kernel's
in-place view patching (:meth:`CDFGView.apply_edge` via
:meth:`IncrementalWindows.add_edge`) must leave the cached view
indistinguishable from one rebuilt from scratch.  This fuzzer replays a
seeded random sequence of ``add_operation`` / ``add_edge`` /
``remove_edge`` / ``remove_operation`` / ``set_op`` / ``set_ppo`` /
``set_latency`` calls against a design and, after **every** step,
compares the warm view (``cdfg.view()``) against a cold
``CDFGView(cdfg)`` with :meth:`CDFGView.divergence_from`, and the
memoized locality index (``cdfg.locality_index()``) against a cold
:class:`~repro.cdfg.graph.LocalityIndex` — the skeleton counter must
move on every mutation a locality can see.

Every few steps it also opens an :class:`IncrementalWindows` session,
inserts a handful of feasible temporal edges through the incremental
path (which patches the cached view instead of rebuilding it), runs the
kernel's own :meth:`assert_consistent`, and repeats the warm-vs-cold
comparison — this is the path where a real incremental-update bug
(e.g. an off-by-one in the delta propagation) surfaces.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.cdfg.graph import CDFG, EdgeKind, LocalityIndex
from repro.cdfg.ops import OpType
from repro.errors import CDFGError, InfeasibleScheduleError
from repro.timing.kernel import CDFGView, IncrementalWindows
from repro.timing.windows import critical_path_length
from repro.verify.differential import derive_seed, trial_design
from repro.verify.report import Divergence

#: Operation types the ``set_op`` / ``add_operation`` mutators draw from.
MUTATION_OPS = (
    OpType.ADD,
    OpType.MUL,
    OpType.SUB,
    OpType.CONST_MUL,
    OpType.SHIFT,
    OpType.XOR,
)

#: How often (in mutation steps) an incremental-windows session runs.
KERNEL_SESSION_STRIDE = 10


def _locality_divergence(cdfg: CDFG) -> Optional[str]:
    """Memoized locality index vs. a cold one; ``None`` when coherent.

    Neighbor lists compare as sets: only membership is semantic.
    """
    warm = cdfg.locality_index()
    cold = LocalityIndex(cdfg.graph)
    for attr in ("nodes", "ops", "schedulable", "preds", "succs"):
        mine, theirs = getattr(warm, attr), getattr(cold, attr)
        if attr in ("preds", "succs"):
            mine, theirs = list(map(set, mine)), list(map(set, theirs))
        if mine != theirs:
            return f"locality index {attr} stale"
    return None


def _compare_views(
    cdfg: CDFG, step: int, action: str, seed: int
) -> Optional[Divergence]:
    """Warm (cached) view and locality index vs. cold rebuilds; ``None``
    when coherent."""
    warm = cdfg.view()
    cold = CDFGView(cdfg)
    problem = warm.divergence_from(cold)
    if problem is None:
        problem = _locality_divergence(cdfg)
    if problem is None:
        return None
    return Divergence(
        oracle="view_cache",
        design=cdfg.name,
        seed=seed,
        detail=(
            f"cached view diverged from cold rebuild after step {step} "
            f"({action}): {problem}"
        ),
        data={"step": step, "action": action},
    )


def _mutate_once(
    cdfg: CDFG, rng: random.Random, counter: List[int]
) -> Optional[str]:
    """Apply one random mutation; returns its description or ``None``.

    Mutations that the CDFG legitimately rejects (duplicate edges,
    cycles, unknown nodes after removals) count as no-ops — the point is
    that *whatever* the mutator did, the cache must stay coherent.
    """
    nodes = list(cdfg.operations)
    roll = rng.random()
    try:
        if roll < 0.10 or len(nodes) < 4:
            name = f"fz{counter[0]}"
            counter[0] += 1
            cdfg.add_operation(name, rng.choice(MUTATION_OPS))
            if nodes and rng.random() < 0.8:
                cdfg.add_edge(rng.choice(nodes), name, EdgeKind.DATA)
            return f"add_operation({name})"
        if roll < 0.40:
            src, dst = rng.sample(nodes, 2)
            kind = rng.choice(
                (EdgeKind.DATA, EdgeKind.CONTROL, EdgeKind.TEMPORAL)
            )
            cdfg.add_edge(src, dst, kind)
            return f"add_edge({src}, {dst}, {kind.value})"
        if roll < 0.55:
            edges = cdfg.edges()
            if not edges:
                return None
            src, dst = rng.choice(edges)
            cdfg.remove_edge(src, dst)
            return f"remove_edge({src}, {dst})"
        if roll < 0.65:
            victim = rng.choice(nodes)
            cdfg.remove_operation(victim)
            return f"remove_operation({victim})"
        if roll < 0.80:
            node = rng.choice(nodes)
            cdfg.set_op(node, rng.choice(MUTATION_OPS))
            return f"set_op({node})"
        if roll < 0.90:
            node = rng.choice(nodes)
            cdfg.set_ppo(node, not cdfg.is_ppo(node))
            return f"set_ppo({node})"
        node = rng.choice(nodes)
        cdfg.set_latency(node, rng.randint(0, 3))
        return f"set_latency({node})"
    except CDFGError:
        return None  # legitimately rejected; state must be unchanged


def _kernel_session(
    cdfg: CDFG, rng: random.Random, step: int, seed: int
) -> Tuple[Optional[Divergence], int]:
    """One incremental-windows session; returns (divergence, edges added).

    Exercises the patched-view path: every successful
    :meth:`IncrementalWindows.add_edge` updates the cached view in place
    instead of rebuilding it, so a propagation bug shows up either in
    ``assert_consistent`` (windows vs. full recompute) or in the
    warm-vs-cold view comparison afterwards.
    """
    nodes = list(cdfg.schedulable_operations)
    if len(nodes) < 3:
        return None, 0
    horizon = critical_path_length(cdfg) + rng.randint(0, 2)
    iw = IncrementalWindows(cdfg, horizon)
    added = 0
    for _ in range(6):
        src, dst = rng.sample(nodes, 2)
        if not iw.can_add_edge(src, dst):
            continue
        try:
            iw.add_edge(src, dst)
        except (CDFGError, InfeasibleScheduleError):
            continue
        added += 1
    try:
        iw.assert_consistent()
    except (AssertionError, InfeasibleScheduleError) as exc:
        return (
            Divergence(
                oracle="view_cache",
                design=cdfg.name,
                seed=seed,
                detail=(
                    f"incremental windows inconsistent after kernel "
                    f"session at step {step}: {exc}"
                ),
                data={"step": step, "edges_added": added},
            ),
            added,
        )
    return _compare_views(cdfg, step, "kernel_session", seed), added


def fuzz_design(
    design: CDFG, seed: int, steps: int
) -> Tuple[List[Divergence], int]:
    """Fuzz one design for *steps* mutations; returns (divergences, steps).

    Stops at the first divergence — once the cache is incoherent every
    later comparison would re-report the same corruption.
    """
    rng = random.Random(seed)
    counter = [0]
    executed = 0
    for step in range(steps):
        action = _mutate_once(design, rng, counter)
        executed += 1
        if action is not None:
            divergence = _compare_views(design, step, action, seed)
            if divergence is not None:
                return [divergence], executed
        if step % KERNEL_SESSION_STRIDE == KERNEL_SESSION_STRIDE - 1:
            divergence, _ = _kernel_session(design, rng, step, seed)
            if divergence is not None:
                return [divergence], executed
    return [], executed


def fuzz_trial(seed: int, steps: int) -> Tuple[List[Divergence], int]:
    """Fuzz a fresh random design derived from *seed*."""
    rng = random.Random(seed)
    design = trial_design(seed, num_ops=rng.choice((12, 20, 32)))
    return fuzz_design(design, seed, steps)


def oracle_view_cache(
    base_seed: int, trial: int, steps: int = 25
) -> Tuple[List[Divergence], int]:
    """View-cache fuzz oracle, one trial of *steps* mutation steps."""
    return fuzz_trial(derive_seed(base_seed, trial, "fuzz"), steps)
