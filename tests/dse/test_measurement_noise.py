"""Unit tests for measurement-uncertainty Monte Carlo (§2)."""

from __future__ import annotations

import pytest

from repro.core.classify import Sustainability
from repro.core.design import DesignPoint
from repro.core.errors import ValidationError
from repro.dse.montecarlo import sample_measurement_noise


class TestMeasurementNoise:
    def test_probabilities_sum_to_one(self, better_design, baseline):
        probs = sample_measurement_noise(
            better_design, baseline, 0.5, samples=500
        )
        assert probs.strong + probs.weak + probs.less + probs.neutral == (
            pytest.approx(1.0)
        )

    def test_zero_noise_is_deterministic(self, better_design, baseline):
        probs = sample_measurement_noise(
            better_design, baseline, 0.5, relative_sigma=0.0, samples=200
        )
        assert probs.strong == 1.0

    def test_robust_margin_survives_noise(self, baseline):
        """A design 40 % better on every axis survives 5 % measurement
        noise essentially always."""
        solid = DesignPoint("solid", area=0.6, perf=1.0, power=0.6)
        probs = sample_measurement_noise(
            solid, baseline, 0.5, relative_sigma=0.05, samples=4000, seed=11
        )
        assert probs.strong > 0.99

    def test_marginal_design_flips_under_noise(self, baseline):
        """A design 2 % better on every axis flips frequently at 10 %
        measurement noise — quantifying why the paper refuses to trust
        small margins."""
        marginal = DesignPoint("marginal", area=0.98, perf=1.0, power=0.98)
        probs = sample_measurement_noise(
            marginal, baseline, 0.5, relative_sigma=0.10, samples=4000, seed=11
        )
        assert probs.strong < 0.9
        assert probs.most_likely in (Sustainability.STRONG, Sustainability.WEAK, Sustainability.LESS)

    def test_more_noise_less_certainty(self, baseline):
        solid = DesignPoint("solid", area=0.8, perf=1.0, power=0.8)
        tight = sample_measurement_noise(
            solid, baseline, 0.5, relative_sigma=0.02, samples=3000, seed=5
        )
        loose = sample_measurement_noise(
            solid, baseline, 0.5, relative_sigma=0.5, samples=3000, seed=5
        )
        assert loose.strong < tight.strong

    def test_seed_reproducible(self, better_design, baseline):
        a = sample_measurement_noise(better_design, baseline, 0.5, samples=100, seed=2)
        b = sample_measurement_noise(better_design, baseline, 0.5, samples=100, seed=2)
        assert a == b

    def test_rejects_bad_inputs(self, better_design, baseline):
        with pytest.raises(ValidationError):
            sample_measurement_noise(better_design, baseline, 0.5, samples=0)
        with pytest.raises(ValidationError):
            sample_measurement_noise(
                better_design, baseline, 0.5, relative_sigma=-0.1
            )
        # The sampler runs in-process; there is no pool to configure.
        for knob in ({"workers": 2}, {"resilience": None}):
            with pytest.raises(TypeError):
                sample_measurement_noise(
                    better_design, baseline, 0.5, samples=10, **knob
                )
