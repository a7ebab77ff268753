"""Tests of the benchmark's own machinery: tracing, checks, job mix.

Run with ``python -m pytest e2ebench`` from the root of a checkout; the
two LEC tests take about 15 s each.
"""

from __future__ import annotations

import pytest

import checks
import workloads
from hostclock import HostClock
from tracer import TARGETS, Tracer, layer_metrics

from repro.cdfg.builder import CDFGBuilder


def module_bindings():
    """Identity of every attribute of every loaded ``repro`` module and
    benchmark module, and of every method of the classes the tracer
    patches.  The traced modules are imported first, so that importing
    them (which adds submodule attributes to their packages) is not
    mistaken for patching."""
    import importlib
    import sys

    import repro.cdfg.graph
    import repro.core.scheduling_wm
    import repro.rtl.binding
    import repro.timing.kernel

    for module_name, _, _ in TARGETS:
        importlib.import_module(module_name)

    snapshot = {
        name: {attr: id(value) for attr, value in vars(module).items()}
        for name, module in list(sys.modules.items())
        if name.startswith("repro") or name in ("workloads", "checks")
    }
    for cls in (
        repro.cdfg.graph.CDFG,
        repro.timing.kernel.CDFGView,
        repro.timing.kernel.IncrementalWindows,
        repro.core.scheduling_wm.SchedulingWatermarker,
        repro.rtl.binding.Binding,
    ):
        snapshot[cls.__qualname__] = {
            name: id(value) for name, value in vars(cls).items()
        }
    return snapshot


@pytest.fixture(scope="module")
def one_author_lec():
    """The lec-author workload cut to one author, set up once."""
    workload = workloads.LecAuthor(seed=1)
    workload.authors = workload.authors[:1]
    return workload, workload.setup()


def test_untraced_round_leaves_every_module_attribute_untouched(one_author_lec):
    workload, state = one_author_lec
    before = module_bindings()
    run = workloads.Run(HostClock())
    workload.round_digests(run, state)
    assert module_bindings() == before
    assert run.failed == 0 and not run.incorrect, run.errors


def test_traced_lec_round_sees_every_candidate_roots_call(one_author_lec):
    import repro.core.domain
    import repro.core.scheduling_wm

    workload, state = one_author_lec
    before = module_bindings()
    tracer = Tracer()
    run = workloads.Run(HostClock(), tracer)
    with tracer:
        # scheduling_wm imported candidate_roots by name: its binding
        # must be the wrapper too, or those calls go unseen.
        assert (
            repro.core.scheduling_wm.candidate_roots
            is repro.core.domain.candidate_roots
        )
        assert hasattr(
            repro.core.scheduling_wm.candidate_roots, "__e2ebench_original__"
        )
        # ... and so must the benchmark's own by-name imports.
        assert hasattr(workloads.scan_for_watermark, "__e2ebench_original__")
        workload.round_digests(run, state)
    assert module_bindings() == before
    assert run.failed == 0 and not run.incorrect, run.errors
    metrics = layer_metrics(tracer, rounds=1)
    assert tracer.calls("wm.embed") == 1
    assert metrics["domain.candidate_roots_calls"] == 16
    assert metrics["rtl.lines"] > 40_000
    assert metrics["detector.hits"] >= 1
    assert metrics["scheduling.list_ms"] > 0
    assert metrics["poisson.order_probability_calls"] >= 1


def _chain():
    """x, w -> a -> b -> c -> y, with a and w also feeding b and c."""
    b = CDFGBuilder("chain")
    x, w = b.input("x"), b.input("w")
    a = b.add(x, w, "a")
    m = b.add(a, w, "b")
    b.output(b.add(m, a, "c"), "y")
    return b.build()


def test_schedule_check_catches_a_latency_violation():
    design = _chain()
    good = {n: i for i, n in enumerate(design.topological_order())}
    assert checks.schedule_violations(design, good) == []
    bad = dict(good, c=good["b"])
    assert checks.schedule_violations(design, bad)
    missing = {n: t for n, t in good.items() if n != "a"}
    assert checks.schedule_violations(design, missing)


def test_periodic_check_applies_ii_times_distance():
    design = _chain()
    start = {n: i for i, n in enumerate(design.topological_order())}
    back = [("c", "a", 1)]  # c of iteration k feeds a of iteration k+1
    slack = start["c"] + 1 - start["a"]
    assert checks.schedule_violations(design, start, ii=slack, extra_edges=back) == []
    assert checks.schedule_violations(design, start, ii=slack - 1, extra_edges=back)


def test_verify_scan_rtl_and_digest_checks():
    assert checks.verify_violations(3, 3) == []
    assert checks.verify_violations(2, 3)
    assert checks.verify_violations(0, 0)
    assert checks.scan_violations(["r1", "r2"], "r2") == []
    assert checks.scan_violations(["r1"], "r2")
    assert checks.rtl_violations({"a": 1}, {"a": 1}, ["a"]) == []
    assert checks.rtl_violations({"a": 2}, {"a": 1}, ["a"])
    assert checks.digests_agree([{"a": "x"}, {"a": "x"}]) == []
    assert checks.digests_agree([{"a": "x"}, {"a": "y"}])
    assert checks.digests_agree([{"a": "x"}, {"a": "x", "b": "x"}])
    store = {}
    assert checks.remembered_digest(store, "k", "x") == []
    assert checks.remembered_digest(store, "k", "x") == []
    assert checks.remembered_digest(store, "k", "y")


def test_served_sequence_is_seeded_with_a_quarter_repeats():
    first = workloads.ServedMix(seed=7).sequence(0)
    assert workloads.ServedMix(seed=7).sequence(0) == first
    assert workloads.ServedMix(seed=7).sequence(1) != first
    assert workloads.ServedMix(seed=8).sequence(0) != first
    distinct = set(first)
    assert len(first) == 23 and len(distinct) == 17
    repeated = [spec for spec in distinct if first.count(spec) > 1]
    assert all(spec.fixture not in ("lec", "da") for spec in repeated)
    # concurrent repeats ride right behind their original (coalesced)
    adjacent = sum(1 for a, b in zip(first, first[1:]) if a == b)
    assert adjacent >= len(workloads.ServedMix.REPEATS_CONCURRENT)
    # embeds run with the service's default watermark parameters
    embeds = [spec for spec in distinct if spec.op == "embed"]
    assert embeds and all(dict(spec.extra).keys() == {"author"} for spec in embeds)


def test_every_listed_metric_is_computed():
    import json

    import run
    from tracer import Tracer

    clock = HostClock()
    base, traced = workloads.Run(clock), workloads.Run(clock)
    for one in (base, traced):
        one.rounds.append(workloads.Sample(1.0, 1.0))
    setup = [workloads.Sample(1.0, 1.0)]
    end_to_end = run.end_to_end(base, setup, rss_mb=1.0)
    assert {m["name"] for m in run.listed_metrics("end_to_end")} <= set(end_to_end)
    layers = run.per_layer(base, traced, [(Tracer(), 1)], setup, clock)
    assert {m["name"] for m in run.listed_metrics("per_layer")} <= set(layers)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
