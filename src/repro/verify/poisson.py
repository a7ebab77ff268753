"""Reference order probability: the full-width pmf and double loop.

Production (:mod:`repro.analysis.poisson`) stops the Poisson recurrence
at the first weight that underflows to exactly ``0.0`` and sums
``pmf_a[ta] * pmf_b[tb]`` over the two supports only, starting each row
at the first later ``b`` step.  This module keeps the original
formulation — every weight of the window, every ``(a, b)`` step pair
tested for ``ta < tb`` — as the slow, independent reference the
``order_probability`` differential oracle compares production with by
float ``==``.  It shares only :func:`~repro.analysis.poisson.uniform_pmf`
with production.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.analysis.poisson import uniform_pmf


def reference_truncated_poisson_pmf(width: int, lam: float) -> List[float]:
    """Poisson(λ) pmf over offsets ``0..width-1``, every weight computed."""
    if width < 1:
        raise ValueError("width must be >= 1")
    if lam <= 0:
        raise ValueError("lam must be positive")
    weights = [1.0]
    for k in range(1, width):
        weights.append(weights[-1] * lam / k)
    total = sum(weights)
    return [w / total for w in weights]


def reference_window_pmf(width: int, model: str, lam: float) -> List[float]:
    """Full-width placement pmf: ``"poisson"`` or ``"uniform"``."""
    if model == "uniform":
        return uniform_pmf(width)
    if model == "poisson":
        return reference_truncated_poisson_pmf(width, lam)
    raise ValueError(f"unknown placement model: {model!r}")


def reference_order_probability(
    window_a: Sequence[int],
    window_b: Sequence[int],
    model: str = "poisson",
    lam: float = 1.0,
) -> float:
    """P(start_a < start_b) by the O(w_a·w_b) row-major double loop."""
    lo_a, hi_a = window_a
    lo_b, hi_b = window_b
    if hi_a < lo_a or hi_b < lo_b:
        raise ValueError("malformed window")
    pmf_a = reference_window_pmf(hi_a - lo_a + 1, model, lam)
    pmf_b = reference_window_pmf(hi_b - lo_b + 1, model, lam)
    probability = 0.0
    for ia, pa in enumerate(pmf_a):
        ta = lo_a + ia
        for ib, pb in enumerate(pmf_b):
            tb = lo_b + ib
            if ta < tb:
                probability += pa * pb
    return min(1.0, max(0.0, probability))
