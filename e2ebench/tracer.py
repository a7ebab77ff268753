"""Per-layer tracing from outside the program.

:class:`Tracer` wraps public functions of the ``repro`` layers and
records, per layer, calls, inclusive time (outermost call only, so a
layer that calls itself is not counted twice) and self time (minus the
wrapped layers it calls).  ``repro`` is not edited: the wrappers are
installed by rebinding module attributes and removed afterwards.

A function imported by name (``from repro.core.domain import
candidate_roots``) is a separate binding in the importing module, so
patching only the defining module would miss those calls.
:meth:`Tracer.install` therefore rebinds *every* attribute of every
loaded module that holds the original function object, the benchmark's
own modules included.  Methods are patched once, on their class.

Times accumulate raw; :meth:`Tracer.commit` applies the host
normalization factor of the timed call they happened in.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
import types
from typing import Any, Callable, Dict, List, Tuple

#: (module, attribute or Class.method, layer).  Several targets may
#: share a layer; nested calls within one layer count once.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.cdfg.io", "from_dict", "cdfg.parse"),
    ("repro.cdfg.io", "from_json", "cdfg.parse"),
    ("repro.cdfg.io", "to_dict", "cdfg.serialize"),
    ("repro.cdfg.io", "to_json", "cdfg.serialize"),
    ("repro.cdfg.io", "to_canonical_dict", "cdfg.serialize"),
    ("repro.cdfg.io", "to_canonical_json", "cdfg.serialize"),
    ("repro.cdfg.graph", "CDFG.copy", "cdfg.copy"),
    ("repro.core.domain", "candidate_roots", "domain.candidate_roots"),
    ("repro.core.domain", "select_root_and_domain", "domain.select"),
    ("repro.core.ordering", "structural_hashes", "ordering.structural_hashes"),
    ("repro.core.ordering", "order_nodes", "ordering.order_nodes"),
    ("repro.core.detector", "scan_for_watermark", "detector.scan"),
    ("repro.timing.kernel", "CDFGView.__init__", "timing.view_build"),
    ("repro.timing.kernel", "CDFGView.min_ii", "timing.min_ii"),
    ("repro.timing.windows", "asap_schedule", "timing.windows"),
    ("repro.timing.windows", "alap_schedule", "timing.windows"),
    ("repro.timing.windows", "critical_path_length", "timing.windows"),
    ("repro.timing.windows", "periodic_critical_path_length", "timing.windows"),
    ("repro.timing.windows", "scheduling_windows", "timing.windows"),
    ("repro.timing.windows", "periodic_scheduling_windows", "timing.windows"),
    ("repro.timing.kernel", "IncrementalWindows.__init__", "timing.incremental"),
    ("repro.timing.kernel", "IncrementalWindows.add_edge", "timing.incremental"),
    ("repro.timing.kernel", "IncrementalWindows.can_add_edge", "timing.incremental"),
    ("repro.timing.kernel", "IncrementalWindows.feasible_edges", "timing.incremental"),
    ("repro.timing.kernel", "IncrementalWindows.screen_targets", "timing.incremental"),
    ("repro.timing.kernel", "IncrementalWindows.delta_tighten", "timing.incremental"),
    ("repro.timing.kernel", "IncrementalWindows.tighten", "timing.incremental"),
    ("repro.timing.kernel", "IncrementalWindows.windows", "timing.incremental"),
    ("repro.core.scheduling_wm", "SchedulingWatermarker.embed", "wm.embed"),
    ("repro.core.scheduling_wm", "SchedulingWatermarker.embed_until", "wm.embed"),
    ("repro.core.scheduling_wm", "SchedulingWatermarker.embed_many", "wm.embed"),
    ("repro.core.scheduling_wm", "SchedulingWatermarker.verify", "wm.verify"),
    ("repro.scheduling.list_scheduler", "list_schedule", "scheduling.list"),
    ("repro.scheduling.modulo", "modulo_schedule", "scheduling.modulo"),
    ("repro.core.coincidence", "approx_log10_pc", "coincidence.approx_pc"),
    ("repro.analysis.poisson", "order_probability", "poisson.order_probability"),
    ("repro.rtl.binding", "bind", "rtl.bind"),
    ("repro.rtl.binding", "Binding.verify", "rtl.binding_verify"),
    ("repro.rtl.emit", "emit_verilog", "rtl.emit"),
    ("repro.rtl.extract", "extract_verilog", "rtl.extract"),
    ("repro.service.cache", "job_key", "service.job_key"),
)


def _observe_embed(tracer: "Tracer", target: str, args, kwargs, result) -> None:
    marker = args[0]
    if target.endswith(".embed"):
        marks = [result[1]]
        requested = marker.params.k
    else:
        marks = list(result[1])
        requested = (
            args[2] if len(args) > 2 else kwargs.get("target_edges")
        ) if target.endswith("embed_until") else None
    tracer.count("wm.marks", len(marks))
    if requested is not None:
        tracer.count("wm.edges_requested", requested)
        tracer.count("wm.edges_embedded", sum(mark.k for mark in marks))


def _observe_scan(tracer: "Tracer", target: str, args, kwargs, result) -> None:
    tracer.count("detector.hits", len(result))


def _observe_emit(tracer: "Tracer", target: str, args, kwargs, result) -> None:
    tracer.count("rtl.lines", result.lines)


_OBSERVERS: Dict[str, Callable[..., None]] = {
    "wm.embed": _observe_embed,
    "detector.scan": _observe_scan,
    "rtl.emit": _observe_emit,
}


class _Frame:
    __slots__ = ("layer", "child")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.child = 0.0


class Tracer:
    """Layer wrappers with inclusive/self time, calls and counts."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pending_ms: Dict[str, float] = {}
        self.ms: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def _add_ms(self, name: str, ms: float) -> None:
        with self._lock:
            self._pending_ms[name] = self._pending_ms.get(name, 0.0) + ms

    def discard(self) -> None:
        """Drop pending times of work outside a timed call."""
        with self._lock:
            self._pending_ms.clear()

    def commit(self, factor: float) -> None:
        """Fold pending raw times into the totals, host-normalized."""
        with self._lock:
            for name, ms in self._pending_ms.items():
                self.ms[name] = self.ms.get(name, 0.0) + ms * factor
            self._pending_ms.clear()

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, target: str, layer: str, fn: Callable) -> Callable:
        observer = _OBSERVERS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            outermost = all(frame.layer != layer for frame in stack)
            frame = _Frame(layer)
            stack.append(frame)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = (time.perf_counter() - started) * 1000.0
                stack.pop()
                if stack:
                    stack[-1].child += elapsed
                self.count(layer + ".calls")
                self._add_ms(layer + ".self", elapsed - frame.child)
                if outermost:
                    self._add_ms(layer, elapsed)
            if observer is not None:
                observer(self, target, args, kwargs, result)
            return result

        traced.__e2ebench_original__ = fn
        return traced

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Rebind every reference to each target in every loaded module
        (the benchmark's own modules included)."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        functions: Dict[int, Tuple[Callable, Callable]] = {}
        for module_name, attr, layer in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(attr, layer, original))
            else:
                original = getattr(module, attr)
                functions[id(original)] = (original, self._wrap(attr, layer, original))
        for holder in list(sys.modules.values()):
            for name, value in list(getattr(holder, "__dict__", {}).items()):
                entry = functions.get(id(value))
                if entry is not None and value is entry[0]:
                    self._undo.append((holder, name, value))
                    setattr(holder, name, entry[1])

    def uninstall(self) -> None:
        """Restore every rebound attribute, including bindings made by
        modules imported while the tracer was installed."""
        undo, self._undo = self._undo, []
        for holder, name, original in reversed(undo):
            setattr(holder, name, original)
        for holder in list(sys.modules.values()):
            for name, value in list(getattr(holder, "__dict__", {}).items()):
                if isinstance(value, types.FunctionType):
                    original = value.__dict__.get("__e2ebench_original__")
                    if original is not None:
                        setattr(holder, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def layer_ms(self, layer: str) -> float:
        return self.ms.get(layer, 0.0)

    def self_ms(self, layer: str) -> float:
        return self.ms.get(layer + ".self", 0.0)

    def calls(self, layer: str) -> int:
        return self.counts.get(layer + ".calls", 0)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, rounds: int) -> Dict[str, float]:
    """The per-layer metrics, per round of the workload's work list."""
    per = 1.0 / rounds
    embeds = tracer.calls("wm.embed")
    metrics: Dict[str, float] = {
        "cdfg.parse_ms": tracer.layer_ms("cdfg.parse") * per,
        "cdfg.serialize_ms": tracer.layer_ms("cdfg.serialize") * per,
        "cdfg.copies": tracer.calls("cdfg.copy") * per,
        "cdfg.copy_ms": tracer.layer_ms("cdfg.copy") * per,
        "domain.candidate_roots_calls": ratio(
            tracer.calls("domain.candidate_roots"), embeds
        ),
        "domain.candidate_roots_ms": tracer.layer_ms("domain.candidate_roots") * per,
        "domain.select_ms": tracer.layer_ms("domain.select") * per,
        "domain.useful_ratio": ratio(
            tracer.counts.get("wm.marks", 0), tracer.calls("domain.select")
        ),
        "ordering.structural_hashes_ms": tracer.layer_ms(
            "ordering.structural_hashes"
        ) * per,
        "ordering.order_nodes_calls": tracer.calls("ordering.order_nodes") * per,
        "ordering.order_nodes_ms": tracer.layer_ms("ordering.order_nodes") * per,
        "detector.scan_self_ms": tracer.self_ms("detector.scan") * per,
        "detector.hits": tracer.counts.get("detector.hits", 0) * per,
        "timing.view_builds": tracer.calls("timing.view_build") * per,
        "timing.view_build_ms": tracer.layer_ms("timing.view_build") * per,
        "timing.windows_ms": tracer.layer_ms("timing.windows") * per,
        "timing.incremental_ms": tracer.layer_ms("timing.incremental") * per,
        "timing.min_ii_ms": tracer.layer_ms("timing.min_ii") * per,
        "wm.embed_self_ms": tracer.self_ms("wm.embed") * per,
        "wm.edge_yield": ratio(
            tracer.counts.get("wm.edges_embedded", 0),
            tracer.counts.get("wm.edges_requested", 0),
        ),
        "scheduling.list_ms": tracer.layer_ms("scheduling.list") * per,
        "scheduling.modulo_ms": tracer.layer_ms("scheduling.modulo") * per,
        "coincidence.approx_pc_calls": tracer.calls("coincidence.approx_pc") * per,
        "coincidence.approx_pc_ms": tracer.layer_ms("coincidence.approx_pc") * per,
        "poisson.order_probability_calls": tracer.calls(
            "poisson.order_probability"
        ) * per,
        "poisson.order_probability_ms": tracer.layer_ms(
            "poisson.order_probability"
        ) * per,
        "rtl.bind_ms": tracer.layer_ms("rtl.bind") * per,
        "rtl.binding_verify_ms": tracer.layer_ms("rtl.binding_verify") * per,
        "rtl.emit_self_ms": tracer.self_ms("rtl.emit") * per,
        "rtl.extract_ms": tracer.layer_ms("rtl.extract") * per,
        "rtl.lines": tracer.counts.get("rtl.lines", 0) * per,
        "service.job_key_ms": tracer.layer_ms("service.job_key") * per,
    }
    return metrics
