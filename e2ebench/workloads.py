"""The three workloads and the run loop that measures them.

Every workload is a closed loop driven from one process: the next
operation starts when the previous one returned.

``lec-author``
    Table II's largest design, the 6,418-op Long Echo Canceler.  Per
    author: parse the design JSON, ``embed`` (K=8), ``list_schedule``,
    ``verify``, ``scan_for_watermark``, ``emit_verilog`` +
    ``extract_verilog``.
``composite-marks``
    Table I's many-small-marks setup on ``stitched_hyper_composite``
    (20,264 ops): parse, ``embed_until`` a small edge target,
    ``list_schedule``, ``verify`` of each mark; plus one periodic job on
    ``echo-cyclic-bench`` (``min_ii``, periodic embed,
    ``robust_schedule``).
``served-mix``
    A ``ServiceClient`` over a ``JobEngine`` (cache on, one worker)
    with two jobs in flight: verify, detect, schedule and embed jobs on
    small HYPER designs and the D/A Converter, LEC verify and schedule
    jobs, and small periodic jobs; a quarter of them exact repeats.

Authors come from fixed panels wherever their cost differs a lot: on
the LEC, ``verify`` takes 0.09-0.6 s depending on the window widths at
the author's root and the scan finds either 1 or 1,282 hits (2 s or
5 s); on the composite, ``embed_until`` needs 2 to 4 marks.  A run fits
three LEC authors, so seed-drawn authors would make the figures measure
the draw, not the program.  The seed orders the panels, orders every
served round, and draws the periodic jobs' authors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import checks
from hostclock import HostClock
from tracer import Tracer

from repro.cdfg.designs import (
    da_converter,
    fourth_order_parallel_iir,
    hyper_design,
    long_echo_canceler,
    periodic_design,
    stitched_hyper_composite,
)
from repro.cdfg.io import from_json, to_dict, to_json
from repro.core.detector import scan_for_watermark
from repro.core.domain import DomainParams, candidate_roots
from repro.core.records import scheduling_watermark_to_dict
from repro.core.scheduling_wm import SchedulingWatermarker, SchedulingWMParams
from repro.crypto.signature import AuthorSignature
from repro.errors import ReproError
from repro.resilience.pipeline import robust_schedule
from repro.rtl.controller import recover_schedule
from repro.rtl.emit import emit_verilog
from repro.rtl.extract import extract_verilog
from repro.scheduling.list_scheduler import list_schedule

#: Set-up repeats per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

LEC_PANEL = ("lec-author-a", "lec-author-b", "lec-author-c")
LEC_K = 8

COMPOSITE_PANEL = ("composite-author-a", "composite-author-b", "composite-author-c")
COMPOSITE_OPS = 20_000
COMPOSITE_SEED = 20
#: Table I constrains a fixed share of the design; a small target keeps
#: one ``embed_until`` at a few marks (each pays a CDFG copy and a view
#: rebuild, which is what this workload measures).
COMPOSITE_EDGE_TARGET = 6

SERVED_FIXTURE_AUTHOR = "served-fixture-author"
#: Authors of the served embed jobs: one iir4 embed costs 2-22 ms
#: depending on the author, so five drawn authors would make embed_s
#: measure the draw.
SERVED_EMBED_PANEL = tuple(f"served-author-{i}" for i in range(1, 6))
SERVED_IN_FLIGHT = 2


def draw_author(rng: random.Random) -> str:
    return f"author-{rng.getrandbits(32):08x}"


class Refused(Exception):
    """A graded refusal (a ``ReproError``) ended one author's job."""


# ----------------------------------------------------------------------
# run bookkeeping
# ----------------------------------------------------------------------
@dataclass
class Sample:
    raw: float
    factor: float
    #: Index of the round the sample was taken in.
    round: int = -1

    @property
    def norm(self) -> float:
        return self.raw * self.factor


@dataclass
class Run:
    """One run's samples, counts and check results."""

    clock: HostClock
    tracer: Optional[Tracer] = None
    samples: Dict[str, List[Sample]] = field(default_factory=dict)
    jobs: List[Sample] = field(default_factory=list)
    rounds: List[Sample] = field(default_factory=list)
    #: Per round: output digest of each item of the work list.
    digests: List[Dict[str, str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    incorrect: bool = False

    def add(self, metric: str, sample: Sample) -> None:
        sample.round = len(self.rounds)
        self.samples.setdefault(metric, []).append(sample)

    def add_job(self, sample: Sample) -> None:
        sample.round = len(self.rounds)
        self.jobs.append(sample)

    def op(self, job: "JobTimer", metric: str, fn: Callable, *args, **kwargs):
        """One timed, user-visible operation of *job*."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.discard()
        try:
            result, raw, factor = self.clock.time(fn, *args, **kwargs)
        except ReproError as exc:
            self.failed += 1
            self.errors.append(f"{metric}: refused: {exc}")
            raise Refused(str(exc)) from exc
        if self.tracer is not None:
            self.tracer.commit(factor)
        sample = Sample(raw, factor)
        self.add(metric, sample)
        job.add(sample)
        return result

    def check(self, problems: List[str]) -> bool:
        """Record a check; a failed check fails its operation."""
        if problems:
            self.failed += 1
            self.incorrect = True
            self.errors.extend(problems[:3])
            return False
        return True


@dataclass
class JobTimer:
    """Sum of one job's operation times."""

    raw: float = 0.0
    norm: float = 0.0

    def add(self, sample: Sample) -> None:
        self.raw += sample.raw
        self.norm += sample.norm

    def sample(self) -> Sample:
        return Sample(self.raw, self.norm / self.raw if self.raw else 1.0)


def timed_setup(clock: HostClock, build: Callable[[], Any],
                teardown: Callable[[Any], None]):
    """Build the workload's state SETUP_REPEATS times; keep the last."""
    samples: List[Sample] = []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            teardown(state)
        state, raw, factor = clock.time(build)
        samples.append(Sample(raw, factor))
    return state, samples


class Workload:
    """One work list: set-up, rounds, and checks after the rounds."""

    name = ""

    def setup(self) -> Dict[str, Any]:
        raise NotImplementedError

    def teardown(self, state: Dict[str, Any]) -> None:
        pass

    def round(self, run: Run, state: Dict[str, Any]) -> Dict[str, Any]:
        raise NotImplementedError

    def round_digests(self, run: Run, state: Dict[str, Any]) -> Dict[str, str]:
        """Run one round; its time is the sum of its jobs' times.

        Returns one output digest per item of the work list (an author,
        a served job), keyed by what the seed does not change, so that
        runs under other seeds can be compared item by item.
        """
        first = len(run.jobs)
        outputs = self.round(run, state)
        jobs = run.jobs[first:]
        raw = sum(job.raw for job in jobs)
        norm = sum(job.norm for job in jobs)
        run.rounds.append(Sample(raw, norm / raw if raw else 1.0))
        return {item: checks.digest(output) for item, output in outputs.items()}

    def final_checks(self, run: Run, state: Dict[str, Any]) -> None:
        pass

    def replay(self, clock: HostClock, state: Dict[str, Any]) -> Optional[Tracer]:
        """Per-layer times of work the traced rounds cannot see."""
        return None

    def worker_pids(self, state: Dict[str, Any]) -> List[int]:
        return []


# ----------------------------------------------------------------------
# lec-author
# ----------------------------------------------------------------------
def _emit_and_extract(design, schedule):
    rtl = emit_verilog(design, schedule)
    return rtl, extract_verilog(rtl.text)


class LecAuthor(Workload):
    name = "lec-author"

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.authors = list(LEC_PANEL)
        rng.shuffle(self.authors)

    def setup(self) -> Dict[str, Any]:
        return {"json": to_json(long_echo_canceler())}

    def round(self, run: Run, state: Dict[str, Any]) -> Dict[str, Any]:
        outputs = {}
        for author in self.authors:
            job = JobTimer()
            try:
                outputs[author] = self._author(run, job, state, author)
            except Refused as exc:
                outputs[author] = {"refused": str(exc)}
            run.add_job(job.sample())
        return outputs

    def _author(self, run: Run, job: JobTimer, state, author: str):
        signature = AuthorSignature(author)
        design = run.op(job, "parse", from_json, state["json"])
        marker = SchedulingWatermarker(signature, SchedulingWMParams(k=LEC_K))
        marked, record = run.op(job, "embed", marker.embed, design)
        schedule = run.op(job, "schedule", list_schedule, marked)
        run.check(checks.schedule_violations(marked, schedule.start_times))
        verdict = run.op(job, "verify", marker.verify, design, schedule, record)
        run.check(checks.verify_violations(verdict.satisfied, verdict.total))
        hits = run.op(
            job, "detect", scan_for_watermark, design, schedule, record, signature
        )
        roots = [hit.root for hit in hits]
        run.check(checks.scan_violations(roots, record.root))
        rtl, extracted = run.op(job, "rtl", _emit_and_extract, design, schedule)
        recovered = recover_schedule(extracted.controller).start_times
        run.check(checks.rtl_violations(
            recovered, schedule.start_times, design.schedulable_operations
        ))
        return {
            "record": scheduling_watermark_to_dict(record),
            "schedule": checks.digest(schedule.start_times),
            "verify": [verdict.satisfied, verdict.total, verdict.log10_pc],
            "hits": len(roots),
            "top_hits": roots[:8],
            "rtl": checks.digest(rtl.text),
        }


# ----------------------------------------------------------------------
# composite-marks
# ----------------------------------------------------------------------
def _periodic_job(design, marker: SchedulingWatermarker):
    ii = design.view().min_ii()
    target, record = marker.embed(design, ii=ii)
    return target, record, robust_schedule(target, ii=ii)


class CompositeMarks(Workload):
    name = "composite-marks"

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.authors = list(COMPOSITE_PANEL)
        rng.shuffle(self.authors)
        self.periodic_author = draw_author(rng)

    def setup(self) -> Dict[str, Any]:
        composite = stitched_hyper_composite(COMPOSITE_OPS, seed=COMPOSITE_SEED)
        return {
            "composite": to_json(composite),
            "cyclic": to_json(periodic_design("echo-cyclic-bench")),
        }

    def round(self, run: Run, state: Dict[str, Any]) -> Dict[str, Any]:
        outputs: Dict[str, Any] = {}
        for author in self.authors:
            job = JobTimer()
            try:
                outputs[author] = self._marks(run, job, state, author)
            except Refused as exc:
                outputs[author] = {"refused": str(exc)}
            run.add_job(job.sample())
        job = JobTimer()
        periodic = f"periodic:{self.periodic_author}"
        try:
            outputs[periodic] = self._periodic(run, job, state)
        except Refused as exc:
            outputs[periodic] = {"refused": str(exc)}
        run.add_job(job.sample())
        return outputs

    def _marks(self, run: Run, job: JobTimer, state, author: str):
        design = run.op(job, "parse", from_json, state["composite"])
        marker = SchedulingWatermarker(AuthorSignature(author))
        marked, marks = run.op(
            job, "embed", marker.embed_until, design, COMPOSITE_EDGE_TARGET
        )
        schedule = run.op(job, "schedule", list_schedule, marked)
        run.check(checks.schedule_violations(marked, schedule.start_times))
        verdicts = []
        for record in marks:
            verdict = run.op(job, "verify", marker.verify, design, schedule, record)
            run.check(checks.verify_violations(verdict.satisfied, verdict.total))
            verdicts.append([verdict.satisfied, verdict.total, verdict.log10_pc])
        return {
            "marks": [scheduling_watermark_to_dict(record) for record in marks],
            "schedule": checks.digest(schedule.start_times),
            "verify": verdicts,
        }

    def _periodic(self, run: Run, job: JobTimer, state):
        design = run.op(job, "parse", from_json, state["cyclic"])
        marker = SchedulingWatermarker(AuthorSignature(self.periodic_author))
        target, record, result = run.op(job, "periodic", _periodic_job, design, marker)
        run.check(checks.schedule_violations(
            target, result.schedule.start_times, ii=result.ii
        ))
        return {
            "record": scheduling_watermark_to_dict(record),
            "ii": result.ii,
            "schedule": checks.digest(result.schedule.start_times),
        }


# ----------------------------------------------------------------------
# served-mix
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobSpec:
    op: str
    fixture: str
    extra: Tuple[Tuple[str, Any], ...] = ()


def _fixture_record(design, params: SchedulingWMParams, forced: bool):
    """A fixed watermark on *design* for the served verify/detect jobs.

    On the LEC a full embed costs seconds (16 ``candidate_roots``
    passes), so the fixture forces the first candidate root that
    encodes; on small designs it is a normal embed.
    """
    marker = SchedulingWatermarker(AuthorSignature(SERVED_FIXTURE_AUTHOR), params)
    if not forced:
        return marker.embed(design)
    for root in candidate_roots(design, params.domain):
        try:
            return marker.embed(design, forced_root=root)
        except ReproError:
            continue
    raise RuntimeError("no LEC root encodes a fixture watermark")


def _service_params() -> SchedulingWMParams:
    """The watermark parameters a served job uses by default."""
    return SchedulingWMParams(
        domain=DomainParams(tau=5, min_domain_size=5, include_probability=0.75)
    )


class ServedMix(Workload):
    name = "served-mix"

    #: Fixtures of the embed jobs, one per author of
    #: ``SERVED_EMBED_PANEL``.  They run with the service's default
    #: watermark parameters (k chosen by the embedder, tau 5,
    #: include_probability 0.75); a graded refusal counts as failed.
    EMBEDS = ("iir4", "iir4", "iir4", "iir4", "cf_iir")
    #: Three jobs per op, one per size class, so each per-op median is
    #: the middle class's job rather than a mix of two classes.
    VERIFIES = ("modem", "da", "lec")
    DETECTS = ("modem", "linear_ge", "da")
    SCHEDULES = ("wavelet", "da", "lec")
    PERIODICS = ("echo_small", "biquad", "pid")
    #: (op, fixture) of the repeated originals: 17 originals + 6 repeats,
    #: a quarter of the jobs.  The same small jobs repeat under every
    #: seed, so the seed does not change how much work a round holds.
    REPEATS_CONCURRENT = (("embed", "iir4"), ("verify", "modem"), ("periodic", "biquad"))
    REPEATS_LATER = (("detect", "linear_ge"), ("schedule", "wavelet"), ("periodic", "pid"))

    #: Distinct jobs whose served results are compared with a direct
    #: ``execute_job`` call after the rounds.
    DIRECT_SAMPLE = 3

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.seed = seed
        self.originals = self._originals(rng)
        first = {}
        for spec in self.originals:
            first.setdefault((spec.op, spec.fixture), spec)
        self.concurrent = [first[key] for key in self.REPEATS_CONCURRENT]
        self.later = [first[key] for key in self.REPEATS_LATER]
        self.direct_sample = rng.sample(
            range(len(self.originals)), self.DIRECT_SAMPLE
        )
        self.rounds_done = 0

    def _originals(self, rng: random.Random) -> List[JobSpec]:
        originals: List[JobSpec] = []
        for fixture, author in zip(self.EMBEDS, SERVED_EMBED_PANEL):
            originals.append(JobSpec("embed", fixture, (("author", author),)))
        originals += [JobSpec("verify", f) for f in self.VERIFIES]
        originals += [
            JobSpec("detect", f, (("max_hits", 1000),)) for f in self.DETECTS
        ]
        originals += [JobSpec("schedule", f) for f in self.SCHEDULES]
        originals.append(JobSpec(
            "periodic", "echo_small", (("author", draw_author(rng)),)
        ))
        originals += [JobSpec("periodic", f) for f in self.PERIODICS[1:]]
        return originals

    def sequence(self, index: int) -> List[JobSpec]:
        """Round *index*'s submission order.

        With one worker and two jobs in flight, a job's latency includes
        the job it waits behind.  So the small-design jobs and their
        repeats come first, in an order redrawn from the seed every
        round, then the D/A Converter jobs, then the LEC schedule and
        verify: no 10 ms job's latency is decided by whether it drew a
        0.05 s or 0.3 s neighbour.
        """
        rng = random.Random(f"{self.seed}:{index}")
        small = [spec for spec in self.originals if spec.fixture not in ("da", "lec")]
        rng.shuffle(small)
        for spec in self.later:
            # Far enough behind the original that it has finished: a
            # cache hit rather than a coalesced wait.
            first = small.index(spec) + 4
            small.insert(rng.randint(min(first, len(small)), len(small)), spec)
        for spec in self.concurrent:
            small.insert(small.index(spec) + 1, spec)
        da = [spec for spec in self.originals if spec.fixture == "da"]
        rng.shuffle(da)
        lec = [
            spec for op in ("schedule", "verify") for spec in self.originals
            if spec.fixture == "lec" and spec.op == op
        ]
        return small + da + lec

    # -- set-up ---------------------------------------------------------
    def setup(self) -> Dict[str, Any]:
        from repro.service import ServiceClient, ServiceConfig

        designs = {
            "iir4": fourth_order_parallel_iir(),
            "cf_iir": hyper_design("8th Order CF IIR"),
            "modem": hyper_design("Modem Filter"),
            "linear_ge": hyper_design("Linear GE Cntrlr"),
            "wavelet": hyper_design("Wavelet Filter"),
            "da": da_converter(),
            "lec": long_echo_canceler(),
            "echo_small": periodic_design("echo-cyclic-small"),
            "biquad": periodic_design("biquad-cyclic"),
            "pid": periodic_design("pid-cyclic"),
        }
        payloads = {key: to_dict(design) for key, design in designs.items()}
        fixtures: Dict[str, Dict[str, Any]] = {}
        for key in sorted(set(self.VERIFIES) | set(self.DETECTS)):
            marked, record = _fixture_record(
                designs[key], _service_params(), forced=(key == "lec")
            )
            fixtures[key] = {
                "record": scheduling_watermark_to_dict(record),
                "root": record.root,
                "schedule": {"start_times": dict(list_schedule(marked).start_times)},
            }
        client = ServiceClient(ServiceConfig(workers=1, cache_enabled=True))
        warm = client.submit("schedule", {"design": payloads["iir4"]})
        if not warm.ok:
            raise RuntimeError(f"service warm-up failed: {warm.error}")
        return {
            "designs": designs,
            "payloads": payloads,
            "fixtures": fixtures,
            "client": client,
        }

    def teardown(self, state: Dict[str, Any]) -> None:
        close_client(state["client"])

    # -- one round ----------------------------------------------------
    def params_for(self, spec: JobSpec, state, tenant: str) -> Dict[str, Any]:
        payload = state["payloads"][spec.fixture]
        params: Dict[str, Any] = {
            "design": {**payload, "name": f"{payload['name']}@{tenant}"}
        }
        if spec.op in ("verify", "detect"):
            fixture = state["fixtures"][spec.fixture]
            params.update(
                record=fixture["record"],
                schedule=fixture["schedule"],
                author=SERVED_FIXTURE_AUTHOR,
            )
        params.update(dict(spec.extra))
        return params

    def round_digests(self, run: Run, state: Dict[str, Any]) -> Dict[str, str]:
        # A fresh tenant per round: the same work list under new design
        # names, so nothing is a cache hit across rounds.
        tenant = f"tenant-{self.seed}-{self.rounds_done}"
        specs = self.sequence(self.rounds_done)
        self.rounds_done += 1
        batch = [(spec.op, self.params_for(spec, state, tenant)) for spec in specs]
        client = state["client"]
        if run.tracer is not None:
            run.tracer.discard()
        outcomes, raw, factor = run.clock.time(
            client.submit_many, batch, max_pending=SERVED_IN_FLIGHT
        )
        if run.tracer is not None:
            run.tracer.commit(factor)
        digests: Dict[str, str] = {}
        for spec, (op, params), outcome in zip(specs, batch, outcomes):
            run.attempted += 1
            latency = Sample(outcome.wall_ms / 1000.0, factor)
            run.add_job(latency)
            if not outcome.cached and not outcome.coalesced:
                run.add(op, latency)
            run.add("service.engine", latency)
            if outcome.cached:
                run.add("service.cached", latency)
            if outcome.coalesced:
                run.add("service.coalesced", latency)
            if not outcome.ok:
                run.failed += 1
                run.errors.append(f"{op} {spec.fixture}: code {outcome.code}: "
                                  f"{outcome.error}")
                output = {"refused": outcome.code}
            else:
                run.check(self.result_violations(spec, state, outcome.result))
                output = outcome.result
            value = checks.digest(checks.json_text(output).replace(tenant, ""))
            # A repeat (cache hit or coalesced) must return its original's
            # result.
            original = digests.setdefault(repr(spec), value)
            run.check(checks.digests_agree([original, value]))
        run.rounds.append(Sample(raw, factor))
        state["last_round"] = (specs, batch, outcomes)
        return digests

    def result_violations(self, spec: JobSpec, state, result) -> List[str]:
        design = state["designs"][spec.fixture]
        if spec.op == "schedule":
            return checks.schedule_violations(design, result["start_times"])
        if spec.op == "verify":
            return checks.verify_violations(result["satisfied"], result["total"])
        if spec.op == "detect":
            roots = [hit["root"] for hit in result["hits"]]
            return checks.scan_violations(roots, state["fixtures"][spec.fixture]["root"])
        if spec.op == "periodic":
            extra = checks.record_edges(result["record"]) if "record" in result else ()
            return checks.schedule_violations(
                design, result["start_times"], ii=result["ii"], extra_edges=extra
            )
        # embed: the record's edges must be the marked design's temporal edges
        temporal = {
            (edge["src"], edge["dst"])
            for edge in result["marked"]["edges"]
            if edge["kind"] == "temporal"
        }
        recorded = {(u, v) for u, v, _ in checks.record_edges(result["record"])}
        if result["k"] < 1 or recorded != temporal:
            return [f"embed {spec.fixture}: record edges {sorted(recorded)} "
                    f"!= marked temporal edges {sorted(temporal)}"]
        return []

    def distinct_jobs(self, state) -> List[Tuple[str, Dict[str, Any], Any]]:
        """The last round's jobs, each distinct job once, with outcomes,
        in the order of ``self.originals``."""
        specs, batch, outcomes = state["last_round"]
        first = {}
        for spec, (op, params), outcome in zip(specs, batch, outcomes):
            first.setdefault(spec, (op, params, outcome))
        return [first[spec] for spec in self.originals]

    def final_checks(self, run: Run, state: Dict[str, Any]) -> None:
        """A seed-drawn sample of served results equals ``execute_job``
        run in-process."""
        from repro.service import execute_job

        distinct = self.distinct_jobs(state)
        for op, params, outcome in (distinct[i] for i in self.direct_sample):
            if not outcome.ok or outcome.result != execute_job(op, params):
                run.check([f"served {op} result differs from execute_job"])

    def replay(self, clock: HostClock, state: Dict[str, Any]) -> Tracer:
        """Worker-side layers: the traced wrappers do not reach the pool's
        processes, so each distinct job of the last round runs again
        through ``execute_job`` in this process, under the wrappers."""
        from repro.service import execute_job

        tracer = Tracer()
        with tracer:
            for op, params, _ in self.distinct_jobs(state):
                tracer.discard()
                _, _, factor = clock.time(execute_job, op, params)
                tracer.commit(factor)
        return tracer

    def worker_pids(self, state: Dict[str, Any]) -> List[int]:
        pool = getattr(state["client"].engine, "_pool", None)
        return list(getattr(pool, "_processes", None) or {})


def close_client(client) -> None:
    """Close a ServiceClient and wait until its worker processes exit."""
    pool = getattr(client.engine, "_pool", None)
    processes = list((getattr(pool, "_processes", None) or {}).values())
    client.close()
    for process in processes:
        process.join(timeout=10)
        if process.is_alive():
            process.kill()
            process.join(timeout=10)


WORKLOADS = {
    LecAuthor.name: LecAuthor,
    CompositeMarks.name: CompositeMarks,
    ServedMix.name: ServedMix,
}
