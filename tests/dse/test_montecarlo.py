"""Unit tests for Monte-Carlo verdict sampling."""

from __future__ import annotations

import pytest

from repro.core.classify import Sustainability
from repro.core.design import DesignPoint
from repro.core.errors import ValidationError
from repro.core.scenario import EMBODIED_DOMINATED, E2OWeight
from repro.dse.montecarlo import sample_verdicts


class TestSampleVerdicts:
    def test_probabilities_sum_to_one(self, better_design, baseline):
        probs = sample_verdicts(better_design, baseline, EMBODIED_DOMINATED, samples=500)
        total = probs.strong + probs.weak + probs.less + probs.neutral
        assert total == pytest.approx(1.0)

    def test_robust_design_always_strong(self, better_design, baseline):
        probs = sample_verdicts(better_design, baseline, EMBODIED_DOMINATED, samples=500)
        assert probs.strong == 1.0
        assert probs.most_likely is Sustainability.STRONG

    def test_verdict_flip_inside_band_detected(self, baseline):
        """Design whose NCF crosses 1 inside alpha in [0.7, 0.9]:
        area 1.1, power/energy 0.6 -> boundary at alpha = 0.8."""
        d = DesignPoint("edge", area=1.1, perf=1.0, power=0.6)
        probs = sample_verdicts(d, baseline, EMBODIED_DOMINATED, samples=4000, seed=7)
        assert 0.3 < probs.strong < 0.7
        assert probs.strong + probs.less == pytest.approx(1.0)

    def test_deterministic_given_seed(self, baseline):
        d = DesignPoint("edge", area=1.1, perf=1.0, power=0.6)
        a = sample_verdicts(d, baseline, EMBODIED_DOMINATED, samples=100, seed=3)
        b = sample_verdicts(d, baseline, EMBODIED_DOMINATED, samples=100, seed=3)
        assert a == b

    def test_zero_spread_band_degenerates_to_point(self, baseline, worse_design):
        weight = E2OWeight("point", alpha=0.5)
        probs = sample_verdicts(worse_design, baseline, weight, samples=50)
        assert probs.less == 1.0

    def test_rejects_zero_samples(self, better_design, baseline):
        with pytest.raises(ValidationError):
            sample_verdicts(better_design, baseline, EMBODIED_DOMINATED, samples=0)

    def test_sample_count_recorded(self, better_design, baseline):
        probs = sample_verdicts(better_design, baseline, EMBODIED_DOMINATED, samples=123)
        assert probs.samples == 123

    @pytest.mark.parametrize(
        "knob", [{"workers": 2}, {"resilience": None}], ids=["workers", "resilience"]
    )
    def test_has_no_pool_knobs(self, better_design, baseline, knob):
        # The sampler runs in-process; there is no pool to configure.
        with pytest.raises(TypeError):
            sample_verdicts(
                better_design, baseline, EMBODIED_DOMINATED, samples=10, **knob
            )
