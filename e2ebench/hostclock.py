"""Host-normalized timing: every timed call is bracketed by one fixed
calibration loop, and its raw time is rescaled by how fast the host ran
that loop right beside it.

On a shared VM the speed of the host drifts by tens of percent between
runs, so a median of raw wall time cannot hold a 10% bound.  A fixed
pure-Python dict loop slows down by about as much as the program does,
so ``raw * (REFERENCE_CALIB_S / adjacent calibration time)`` cancels
most of that drift.  The loop lives here, never in ``repro``, so no
change to the program can change the yardstick.
"""

from __future__ import annotations

import gc
import time
from typing import Any, Callable, List, Tuple

#: Iterations of the calibration loop: about 40 ms on an idle 2-core
#: x86 VM.
CALIB_ITERS = 160_000

#: Keys the loop spreads its writes over: a table of about 10 MB, so
#: the loop slows down under memory and cache contention from other
#: tenants as the program's graph walks do, not only under CPU
#: contention.
CALIB_KEYS = 1 << 18

#: Fixed reference time of one calibration loop, in seconds.  A call
#: reported as ``t`` normalized seconds took ``t`` raw seconds on a
#: host that runs the calibration loop in exactly this time.
REFERENCE_CALIB_S = 0.040

#: Untimed work longer than this since the last calibration makes that
#: calibration stale: the next timed call calibrates again first.
ADJACENT_S = 0.002


def calibration_loop(iters: int = CALIB_ITERS) -> int:
    """The fixed yardstick: a pure-Python dict read-modify-write loop
    over scattered keys."""
    table = {}
    mask = CALIB_KEYS - 1
    for i in range(iters):
        key = (i * 2654435761) & mask
        table[key] = table.get(key, 0) + i
    return len(table)


def calibrate() -> float:
    """Seconds one calibration loop takes now, after a full collection."""
    gc.collect()
    started = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - started


class HostClock:
    """Times calls and reports them in host-normalized seconds.

    Calibrations are shared between neighbours: the loop after one call
    is the loop before the next, so every call has a calibration on
    each side and the bracket costs one loop per call.  When untimed
    work (checks, bookkeeping, a refused call) ran since the last loop,
    that loop is no longer adjacent, so the next call calibrates afresh
    before it starts.
    """

    def __init__(self) -> None:
        self.calibrations: List[float] = []
        self._calibrate()

    def _calibrate(self) -> None:
        self._last = calibrate()
        self._last_at = time.perf_counter()
        self.calibrations.append(self._last)

    def time(
        self, fn: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> Tuple[Any, float, float]:
        """Run ``fn``; returns ``(result, raw_s, factor)``, where
        ``raw_s * factor`` is the call's host-normalized time."""
        if time.perf_counter() - self._last_at > ADJACENT_S:
            self._calibrate()
        before = self._last
        started = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            raw = time.perf_counter() - started
            self._calibrate()
        return result, raw, self.factor(before, self._last)

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Scale from raw to normalized seconds for one bracket."""
        return REFERENCE_CALIB_S / ((before + after) / 2.0)
