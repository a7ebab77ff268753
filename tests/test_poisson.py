"""Window placement models: pmf shapes and order probabilities.

Also pins the support-only ``order_probability`` to the full-width
reference in :mod:`repro.verify.poisson` bit for bit, and proves the
``order_probability`` differential oracle has teeth on both sides.
"""

from __future__ import annotations

import math
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import poisson as poisson_mod
from repro.analysis.poisson import (
    order_probability,
    truncated_poisson_pmf,
    uniform_pmf,
    window_pmf,
)
from repro.core.coincidence import approx_edge_log10
from repro.verify import differential
from repro.verify import poisson as poisson_ref
from repro.verify.poisson import (
    reference_order_probability,
    reference_truncated_poisson_pmf,
    reference_window_pmf,
)
from repro.verify.suites import DIFFERENTIAL_ORACLES


class TestPmfs:
    def test_uniform_sums_to_one(self):
        for width in (1, 2, 5, 17):
            assert math.isclose(sum(uniform_pmf(width)), 1.0)

    def test_poisson_sums_to_one(self):
        for width in (1, 2, 5, 17):
            assert math.isclose(
                sum(truncated_poisson_pmf(width, 1.0)), 1.0
            )

    def test_poisson_biases_early_steps(self):
        pmf = truncated_poisson_pmf(6, lam=1.0)
        assert pmf[0] > pmf[3] > pmf[5]

    def test_large_lambda_shifts_mass(self):
        early = truncated_poisson_pmf(8, lam=0.5)
        late = truncated_poisson_pmf(8, lam=4.0)
        assert early[0] > late[0]

    def test_width_one_is_certain(self):
        assert truncated_poisson_pmf(1, 1.0) == [1.0]
        assert uniform_pmf(1) == [1.0]

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            uniform_pmf(0)
        with pytest.raises(ValueError):
            truncated_poisson_pmf(0, 1.0)
        with pytest.raises(ValueError):
            truncated_poisson_pmf(3, 0.0)
        with pytest.raises(ValueError):
            window_pmf(3, model="gaussian")

    def test_window_pmf_dispatch(self):
        assert window_pmf(4, "uniform") == uniform_pmf(4)
        assert window_pmf(4, "poisson", lam=2.0) == truncated_poisson_pmf(
            4, 2.0
        )


class TestOrderProbability:
    def test_symmetric_windows_uniform(self):
        # Same window [0, 1]: P(a < b) = P(a=0, b=1) = 1/4.
        p = order_probability((0, 1), (0, 1), model="uniform")
        assert math.isclose(p, 0.25)

    def test_disjoint_windows_certain(self):
        assert order_probability((0, 1), (5, 6)) == 1.0

    def test_disjoint_windows_impossible(self):
        assert order_probability((5, 6), (0, 1)) == 0.0

    def test_singleton_windows(self):
        assert order_probability((2, 2), (3, 3)) == 1.0
        assert order_probability((3, 3), (2, 2)) == 0.0
        assert order_probability((2, 2), (2, 2)) == 0.0

    def test_malformed_window(self):
        with pytest.raises(ValueError):
            order_probability((3, 1), (0, 2))

    def test_poisson_more_confident_than_uniform_for_early_src(self):
        # src window starts earlier; Poisson concentrates both on their
        # early steps, raising P(src first).
        uniform = order_probability((0, 4), (2, 6), model="uniform")
        poisson = order_probability((0, 4), (2, 6), model="poisson", lam=1.0)
        assert poisson > uniform

    @given(
        st.integers(0, 6),
        st.integers(0, 6),
        st.integers(0, 6),
        st.integers(0, 6),
    )
    @settings(max_examples=60)
    def test_complementarity_property(self, lo_a, wa, lo_b, wb):
        a = (lo_a, lo_a + wa)
        b = (lo_b, lo_b + wb)
        p_ab = order_probability(a, b, model="uniform")
        p_ba = order_probability(b, a, model="uniform")
        # P(a<b) + P(b<a) + P(tie) = 1.
        assert p_ab + p_ba <= 1.0 + 1e-9
        assert 0.0 <= p_ab <= 1.0


class TestNonFiniteLambda:
    """A NaN or infinite rate is refused, not turned into a verdict."""

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_pmf_rejects(self, lam):
        with pytest.raises(ValueError):
            truncated_poisson_pmf(4, lam)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_order_probability_rejects(self, lam):
        # A NaN pmf once made every product NaN, and the clamp turned
        # the NaN sum into 0.0.
        with pytest.raises(ValueError):
            order_probability((0, 3), (1, 4), model="poisson", lam=lam)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_edge_log10_rejects(self, lam):
        # That 0.0 was clamped to the 1e-9 floor: a spurious -9 per edge.
        windows = {"a": (0, 3), "b": (1, 4)}
        with pytest.raises(ValueError):
            approx_edge_log10(windows, "a", "b", lam=lam)

    def test_uniform_model_ignores_lambda(self):
        assert order_probability(
            (0, 3), (1, 4), model="uniform", lam=math.nan
        ) == order_probability((0, 3), (1, 4), model="uniform")


#: Index of the last nonzero pmf entry: at λ = 1 the weight 1/k!
#: underflows past step 177; at λ = 30 the normalized entries reach
#: 0.0 past step 428, before the raw weights do (past step 439).
LAST_NONZERO_STEP = {1.0: 177, 30.0: 428}


class TestExactSupport:
    """Production equals the full-width reference by ``==``."""

    def test_recorded_lec_width_pair(self):
        # Windows about 2,347 steps wide, as on the Long Echo Canceler.
        a, b = (0, 2346), (2, 2346)
        assert order_probability(a, b) == reference_order_probability(a, b)
        assert order_probability(b, a) == reference_order_probability(b, a)

    @pytest.mark.parametrize("lam", sorted(LAST_NONZERO_STEP))
    def test_widths_around_the_last_nonzero_step(self, lam):
        last = LAST_NONZERO_STEP[lam]
        full = reference_truncated_poisson_pmf(last + 40, lam)
        assert full[last] != 0.0 and not any(full[last + 1 :])
        for width in (last, last + 1, last + 2, last + 12):
            pmf = truncated_poisson_pmf(width, lam)
            assert len(pmf) == width
            assert pmf == reference_truncated_poisson_pmf(width, lam)
            assert sum(pmf) == sum(reference_truncated_poisson_pmf(width, lam))
            for a, b in (
                ((0, width - 1), (1, width)),
                ((0, width - 1), (0, width - 1)),
                ((3, width + 2), (0, width - 1)),
            ):
                assert order_probability(
                    a, b, lam=lam
                ) == reference_order_probability(a, b, lam=lam), (width, a, b)

    @pytest.mark.parametrize("lam", [0.5, 1.0])
    def test_width_invariance(self, lam):
        # Steps past the support carry exactly zero mass, so a window a
        # million steps wide gives the same float as one cut to 400 —
        # which the O(w_a·w_b) double loop could not evaluate in time.
        wide = order_probability((0, 10**6 - 1), (2, 10**6 + 1), lam=lam)
        cut = order_probability((0, 399), (2, 401), lam=lam)
        assert wide == cut
        assert cut == reference_order_probability((0, 399), (2, 401), lam=lam)

    def test_uniform_matches_reference(self):
        for a, b in (((0, 149), (3, 40)), ((5, 9), (0, 120)), ((0, 0), (0, 0))):
            assert order_probability(
                a, b, model="uniform"
            ) == reference_order_probability(a, b, model="uniform")

    def test_reference_rejects_what_production_rejects(self):
        with pytest.raises(ValueError):
            reference_window_pmf(3, "gaussian", 1.0)
        with pytest.raises(ValueError):
            reference_order_probability((3, 1), (0, 2))


def _column_major(window_a, window_b, model="poisson", lam=1.0):
    """The reference loop with its two loops swapped: the same terms,
    added in a different order."""
    lo_a, hi_a = window_a
    lo_b, hi_b = window_b
    pmf_a = reference_window_pmf(hi_a - lo_a + 1, model, lam)
    pmf_b = reference_window_pmf(hi_b - lo_b + 1, model, lam)
    probability = 0.0
    for ib, pb in enumerate(pmf_b):
        for ia, pa in enumerate(pmf_a):
            if lo_a + ia < lo_b + ib:
                probability += pa * pb
    return min(1.0, max(0.0, probability))


def _order_divergences(trials: int = 20):
    return [
        d
        for trial in range(trials)
        for d in differential.oracle_order_probability(7, trial)
    ]


class TestOrderProbabilityOracle:
    def test_registered_and_clean(self):
        assert (
            DIFFERENTIAL_ORACLES["order_probability"]
            is differential.oracle_order_probability
        )
        assert _order_divergences(30) == []

    def test_teeth_production_counts_ties(self, monkeypatch):
        # ``ta <= tb``: each row starts at the first b step not earlier.
        monkeypatch.setattr(poisson_mod, "bisect_right", bisect_left)
        assert _order_divergences(), "tied steps went unnoticed"

    def test_teeth_production_drops_last_support_entry(self, monkeypatch):
        support = poisson_mod._support

        def short_support(window, model, lam):
            steps, probs = support(window, model, lam)
            return steps[:-1], probs[:-1]

        monkeypatch.setattr(poisson_mod, "_support", short_support)
        assert _order_divergences(), "a dropped support step went unnoticed"

    def test_teeth_reference_sums_column_major(self, monkeypatch):
        monkeypatch.setattr(
            poisson_ref, "reference_order_probability", _column_major
        )
        divergences = _order_divergences()
        assert divergences, "a reordered reference sum went unnoticed"
        # Only the rounding moved — a few ULPs that any tolerance would
        # forgive: the oracle compares exact floats.
        for d in divergences:
            production, reference = d.data["production"], d.data["reference"]
            assert production != reference
            assert math.isclose(production, reference, rel_tol=1e-12)
