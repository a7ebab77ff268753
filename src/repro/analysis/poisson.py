"""Truncated-Poisson placement model for scheduling windows.

The paper's approximate coincidence analysis "assume[s] the Poisson
distribution of the operation's asap-alap times": within its window, an
operation is likelier to land near the start (schedulers issue ready
operations greedily), with probability decaying Poisson-like toward the
ALAP bound.

:func:`window_pmf` returns the per-step placement probabilities for a
window of a given width; :func:`order_probability` integrates the joint
probability that one operation starts strictly before another under
independent placement — the per-edge factor of the approximate ``P_c``.

Past its first ~180 steps (at λ = 1) the Poisson weight underflows to
exactly ``0.0``, and every later weight with it, so the recurrence stops
there and :func:`order_probability` sums over the *support* — the steps
whose probability is nonzero — whatever the window width.
:mod:`repro.verify.poisson` keeps the full-width formulation as the
reference both are checked against bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import List, Sequence, Tuple


def _poisson_prefix(width: int, lam: float) -> List[float]:
    """:func:`truncated_poisson_pmf` up to its first zero weight.

    Every weight after one that underflows to ``0.0`` is ``0.0`` too,
    and adding zeros leaves ``sum`` unchanged (compensated or not), so
    the normalizing total — and every entry — equals the full-width one.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    if not math.isfinite(lam):
        raise ValueError("lam must be finite")
    if lam <= 0:
        raise ValueError("lam must be positive")
    # Iterative recurrence (w_k = w_{k-1}·λ/k) — factorials overflow for
    # the window widths large designs produce.
    weights = [1.0]
    for k in range(1, width):
        weight = weights[-1] * lam / k
        if weight == 0.0:
            break
        weights.append(weight)
    total = sum(weights)
    return [w / total for w in weights]


def truncated_poisson_pmf(width: int, lam: float) -> List[float]:
    """Poisson(λ) pmf over offsets ``0..width-1``, renormalized.

    Parameters
    ----------
    width:
        Window width (number of feasible start steps); must be >= 1.
    lam:
        Poisson rate, finite and positive; small λ concentrates mass on
        early steps.
    """
    pmf = _poisson_prefix(width, lam)
    pmf.extend([0.0] * (width - len(pmf)))
    return pmf


def uniform_pmf(width: int) -> List[float]:
    """Uniform pmf over a window of *width* steps."""
    if width < 1:
        raise ValueError("width must be >= 1")
    return [1.0 / width] * width


def window_pmf(width: int, model: str = "poisson", lam: float = 1.0) -> List[float]:
    """Placement pmf for a window: ``"poisson"`` or ``"uniform"``."""
    if model == "uniform":
        return uniform_pmf(width)
    if model == "poisson":
        return truncated_poisson_pmf(width, lam)
    raise ValueError(f"unknown placement model: {model!r}")


def _support(
    window: Sequence[int], model: str, lam: float
) -> Tuple[List[int], List[float]]:
    """Steps of *window* with nonzero placement probability, and those
    probabilities, in step order."""
    lo, hi = window
    width = hi - lo + 1
    if model == "poisson":
        pmf = _poisson_prefix(width, lam)
    else:
        pmf = window_pmf(width, model=model, lam=lam)
    steps = [lo + i for i, p in enumerate(pmf) if p != 0.0]
    return steps, [p for p in pmf if p != 0.0]


def order_probability(
    window_a: Sequence[int],
    window_b: Sequence[int],
    model: str = "poisson",
    lam: float = 1.0,
) -> float:
    """P(start_a < start_b) under independent window placement.

    Sums ``pmf_a[ta] * pmf_b[tb]`` over ``ta < tb`` row by row, visiting
    only the supports: a skipped term is either an exact ``0.0``
    product or fails ``ta < tb``, and the rest are added in step order,
    so the result is float-identical to the full double loop at
    O(support_a · support_b) instead of O(width_a · width_b).

    Parameters
    ----------
    window_a, window_b:
        ``(asap, alap)`` start-step windows of the two operations.

    Returns
    -------
    float
        Probability in [0, 1]; 0.0 when the windows make the order
        impossible, 1.0 when the precedence already always holds.
    """
    if window_a[1] < window_a[0] or window_b[1] < window_b[0]:
        raise ValueError("malformed window")
    steps_a, probs_a = _support(window_a, model, lam)
    steps_b, probs_b = _support(window_b, model, lam)
    probability = 0.0
    for ta, pa in zip(steps_a, probs_a):
        for pb in probs_b[bisect_right(steps_b, ta):]:
            probability += pa * pb
    # Guard against floating-point accumulation drifting past the bounds.
    return min(1.0, max(0.0, probability))
