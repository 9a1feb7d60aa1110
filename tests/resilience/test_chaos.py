"""Chaos suite: real faults, real pools, byte-identical recoveries.

Every test here injects genuine failures — worker processes dying via
``os._exit``, workers oversleeping a chunk timeout, factories raising
mid-shard — and asserts the recovered sweep is *identical* to the
fault-free reference, down to the NCF bit patterns and cache contents.
The faults fire inside ``batch_arrays`` (``FaultPlan.wrap_vector``), so
every sweep here runs on the parallel-columnar pool.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.resilience import FaultPlan, RetryPolicy

pytestmark = pytest.mark.chaos


@pytest.fixture
def reference(make_explorer, grid):
    return make_explorer().explore_arrays(grid)


def assert_identical(result, reference):
    assert result.params == reference.params
    assert tuple(result.designs) == tuple(reference.designs)
    assert np.array_equal(result.ncf_fixed_work, reference.ncf_fixed_work)
    assert np.array_equal(result.ncf_fixed_time, reference.ncf_fixed_time)
    assert np.array_equal(result.codes, reference.codes)


class TestWorkerCrash:
    def test_injected_crash_recovers_identically(
        self, make_explorer, grid, factory, tmp_path, fast_policy, reference
    ):
        plan = FaultPlan.plan(grid, seed=11, state_dir=tmp_path, crashes=1)
        explorer = make_explorer(
            factory=plan.wrap_vector(factory), workers=2, resilience=fast_policy
        )
        result = explorer.explore_arrays(grid)
        assert_identical(result, reference)
        stats = explorer.last_supervision
        assert stats is not None
        assert stats.crashes >= 1
        assert stats.respawns >= 1

    def test_crash_without_supervision_breaks_the_sweep(
        self, make_explorer, grid, factory, tmp_path
    ):
        """The control experiment: the same fault without the
        resilience layer aborts (which is why the layer exists)."""
        from concurrent.futures.process import BrokenProcessPool

        plan = FaultPlan.plan(grid, seed=11, state_dir=tmp_path, crashes=1)
        explorer = make_explorer(factory=plan.wrap_vector(factory), workers=2)
        with pytest.raises(BrokenProcessPool):
            explorer.explore_arrays(grid)


class TestChunkTimeout:
    def test_injected_hang_recovers_identically(
        self, make_explorer, grid, factory, tmp_path, reference
    ):
        plan = FaultPlan.plan(
            grid, seed=13, state_dir=tmp_path, hangs=1, hang_s=30.0
        )
        policy = RetryPolicy(
            max_retries=2, backoff_base_s=0.001, chunk_timeout_s=2.0
        )
        explorer = make_explorer(
            factory=plan.wrap_vector(factory), workers=2, resilience=policy
        )
        result = explorer.explore_arrays(grid)
        assert_identical(result, reference)
        stats = explorer.last_supervision
        assert stats.timeouts >= 1
        assert stats.respawns >= 1


class TestTransientError:
    def test_injected_errors_recover_identically(
        self, make_explorer, grid, factory, tmp_path, fast_policy, reference
    ):
        plan = FaultPlan.plan(grid, seed=17, state_dir=tmp_path, errors=2)
        explorer = make_explorer(
            factory=plan.wrap_vector(factory), workers=2, resilience=fast_policy
        )
        result = explorer.explore_arrays(grid)
        assert_identical(result, reference)
        assert explorer.last_supervision.transient_errors >= 1


class TestKillThenResume:
    def test_crash_mid_sweep_then_resume_identical(
        self, make_explorer, grid, factory, tmp_path, reference
    ):
        """The full story: a sweep dies (unsupervised worker crash)
        partway with a checkpoint, a fresh run resumes and finishes —
        byte-identical to never having crashed."""
        from concurrent.futures.process import BrokenProcessPool

        ckpt = tmp_path / "sweep.ckpt"
        plan = FaultPlan.plan(grid, seed=19, state_dir=tmp_path, crashes=1)
        doomed = make_explorer(factory=plan.wrap_vector(factory), workers=2)
        with pytest.raises(BrokenProcessPool):
            doomed.explore_arrays(grid, checkpoint=ckpt)
        # The fault fired once; the resumed run evaluates clean. It may
        # restart cold (crash before the first save) or resume partway —
        # the output must be identical either way.
        resumed = make_explorer(factory=plan.wrap_vector(factory), workers=2)
        result = resumed.explore_arrays(grid, checkpoint=ckpt, resume=True)
        assert_identical(result, reference)


class TestFaultFreeSupervision:
    def test_supervised_clean_run_identical_and_quiet(
        self, make_explorer, grid, factory, fast_policy, reference
    ):
        explorer = make_explorer(
            factory=factory, workers=2, resilience=fast_policy
        )
        result = explorer.explore_arrays(grid)
        assert_identical(result, reference)
        stats = explorer.last_supervision
        assert stats.faults == 0
        assert stats.summary() == ""
