"""Property-based tests for the multicore laws."""

from __future__ import annotations

from hypothesis import assume, given
from hypothesis import strategies as st

from repro.amdahl.asymmetric import AsymmetricMulticore
from repro.amdahl.dynamic import DynamicMulticore
from repro.amdahl.pollack import big_core_design
from repro.amdahl.symmetric import SymmetricMulticore

cores = st.integers(min_value=1, max_value=256)
fractions = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
leakages = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestSymmetricInvariants:
    @given(cores, fractions, leakages)
    def test_speedup_bounds(self, n, f, gamma):
        s = SymmetricMulticore(n, f, gamma).speedup
        assert 1.0 - 1e-12 <= s <= n + 1e-9

    @given(cores, fractions, leakages)
    def test_power_energy_speedup_identity(self, n, f, gamma):
        mc = SymmetricMulticore(n, f, gamma)
        assert abs(mc.power - mc.energy * mc.speedup) < 1e-9 * max(1.0, mc.power)

    @given(cores, fractions, leakages)
    def test_energy_at_least_one(self, n, f, gamma):
        """Idle leakage can only add to the baseline unit energy."""
        assert SymmetricMulticore(n, f, gamma).energy >= 1.0 - 1e-12

    @given(cores, fractions, leakages)
    def test_power_bounded_by_all_cores_active(self, n, f, gamma):
        """Average power can never exceed N (all cores at full power)."""
        assert SymmetricMulticore(n, f, gamma).power <= n + 1e-9

    @given(cores, fractions)
    def test_zero_leakage_power_at_most_cores(self, n, f):
        mc = SymmetricMulticore(n, f, leakage=0.0)
        assert mc.power <= n + 1e-9
        assert abs(mc.energy - 1.0) < 1e-12

    @given(st.integers(min_value=2, max_value=128), fractions, leakages)
    def test_speedup_monotone_in_cores(self, n, f, gamma):
        smaller = SymmetricMulticore(n - 1, f, gamma).speedup
        larger = SymmetricMulticore(n, f, gamma).speedup
        assert larger >= smaller - 1e-12


class TestAsymmetricInvariants:
    @st.composite
    @staticmethod
    def asym_configs(draw):
        total = draw(st.integers(min_value=2, max_value=256))
        big = draw(st.integers(min_value=1, max_value=total - 1))
        f = draw(fractions)
        gamma = draw(leakages)
        return AsymmetricMulticore(total, big, f, gamma)

    @given(asym_configs())
    def test_power_energy_identity(self, mc):
        assert abs(mc.power - mc.energy * mc.speedup) < 1e-9 * max(1.0, mc.power)

    @given(asym_configs())
    def test_speedup_positive_and_bounded(self, mc):
        """Speedup is at least min(sqrt(M),1) on serial-only code and at
        most N on fully parallel code."""
        assert mc.speedup > 0.0
        assert mc.speedup <= mc.total_bces + 1e-9

    @given(asym_configs())
    def test_power_between_leakage_floor_and_all_active(self, mc):
        assert 0.0 < mc.power <= mc.total_bces + 1e-9

    @given(asym_configs())
    def test_one_bce_big_core_closed_form(self, mc):
        """With a 1-BCE big core the Hill-Marty asymmetric speedup is
        1 / ((1-f) + f/(N-1)): the big core runs serial code at unit
        speed and *idles* during the parallel phase (Woo-Lee's model),
        so only N-1 cores run parallel code — NOT the symmetric chip."""
        assume(mc.big_core_bces == 1)
        f = mc.parallel_fraction
        expected = 1.0 / ((1.0 - f) + f / (mc.total_bces - 1))
        assert abs(mc.speedup - expected) < 1e-9 * expected


class TestDynamicInvariants:
    @given(cores, fractions, leakages)
    def test_dominates_symmetric_performance(self, n, f, gamma):
        dyn = DynamicMulticore(n, f, gamma).speedup
        sym = SymmetricMulticore(n, f, gamma).speedup
        assert dyn >= sym - 1e-9

    @given(cores, fractions)
    def test_speedup_at_most_n(self, n, f):
        assert DynamicMulticore(n, f).speedup <= n + 1e-9

    @given(cores)
    def test_pollack_limit_serial(self, n):
        """Fully serial code on a dynamic chip is the big-core case."""
        dyn = DynamicMulticore(n, 0.0)
        assert abs(dyn.speedup - big_core_design(n).perf) < 1e-9
