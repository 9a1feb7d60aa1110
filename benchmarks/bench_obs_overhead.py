"""Benchmark gate: observability must be free when switched off.

Times the PR 1 10k-point warm re-sweep (the batch engine's designed
operating point) three ways —

* **uninstrumented**: a faithful copy of the pre-observability
  ``BatchExplorer.count_categories`` path, reproduced here exactly as
  ``bench_dse_engine`` reproduces the scalar engine;
* **disabled**: the shipped instrumented path with tracing and metrics
  off (the default everyone runs);
* **enabled**: the same path with tracing + metrics recording.

A second operating point covers the parallel-columnar engine: the
shipped ``eval_shard`` (which carries the worker-event capture hooks)
is timed against its pre-telemetry form (same resident-grid reads and
shared-block writes) on the same worker pool, with event capture
disabled and enabled.
Numerical parity is asserted at both operating points — instrumented
results (traced or not, and under injected worker faults) are
bit-identical to the uninstrumented engine. The module writes
``BENCH_obs.json`` at the repo root and **gates** the
disabled-instrumentation overhead at < 5% for both operating points.

Each gate is a paired measurement: every round times the baseline and
the shipped path back to back (which goes first alternates), each
timing repeats its call until it lasts at least ``MIN_TIMING_S``, and
the gated figure is the median over rounds of the per-round ratio. A
slow phase of a shared host then hits both sides of a pair instead of
one side of a min-of-rounds comparison.
"""

from __future__ import annotations

import json
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from repro.core.batch import category_counts, classify_arrays
from repro.core.design import DesignPoint
from repro.core.errors import ConfigurationError
from repro.core.scenario import EMBODIED_DOMINATED
from repro.dse import parallel
from repro.dse.batch import BatchExplorer, FactoryCache
from repro.dse.factories import IterativeFixedPointFactory
from repro.dse.grid import ParameterGrid, linear_range
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

GRID = ParameterGrid(
    {
        "cores": list(range(1, 101)),
        "f": linear_range(0.50, 0.99, 100),
    }
)  # 10,000 points — the PR 1 sweep
BASELINE = DesignPoint.baseline("1-BCE single core")
OVERHEAD_GATE = 0.05  # disabled instrumentation must cost < 5%

#: The parallel-columnar operating point: the PR 5 shard kernel on a
#: live pool, small enough to round-trip in seconds on a busy CI box
#: but heavy enough (fixed-point iterations) that shard compute — not
#: pool startup — dominates each timed pass.
PARALLEL_GRID = ParameterGrid(
    {
        "cores": [float(c) for c in range(1, 101)],
        "f": linear_range(0.50, 0.99, 100),
    }
)  # 10,000 points
PARALLEL_WORKERS = 2
PARALLEL_CHUNK = 512
PARALLEL_ITERS = 500

#: Paired timing: rounds per comparison, and the least wall time one
#: timing (a block of repeated calls) may last.
ROUNDS = 21
MIN_TIMING_S = 0.1

TRAJECTORY_PATH = Path(__file__).resolve().parent.parent / "BENCH_obs.json"

_RESULTS: dict[str, object] = {
    "grid_points": len(GRID),
    "overhead_gate": OVERHEAD_GATE,
    "parallel_grid_points": len(PARALLEL_GRID),
    "parallel_workers": PARALLEL_WORKERS,
    "parallel_iters": PARALLEL_ITERS,
    "note": (
        "warm 10k-point re-sweep; 'uninstrumented' replicates the "
        "pre-observability count_categories path on the same cache, "
        "'disabled' is the shipped path with obs off, 'enabled' with "
        "tracing + metrics on; 'parallel_*' keys time the shipped "
        "eval_shard against its pre-telemetry form on one shared pool; "
        "*_s keys are per-call medians and overhead_* keys the median "
        "per-round ratio of paired, alternating timings"
    ),
}


def factory(params):
    from repro.amdahl.symmetric import SymmetricMulticore

    return SymmetricMulticore(
        cores=params["cores"], parallel_fraction=params["f"]
    ).design_point()


def uninstrumented_count_categories(explorer: BatchExplorer, grid: ParameterGrid):
    """``BatchExplorer.count_categories`` exactly as shipped in PR 1,
    before the observability hooks existed (same cache, same kernels)."""
    from repro.core.errors import DomainError

    cache = explorer.cache
    entries = cache._entries
    names = list(grid.axes)
    slots = sorted(range(len(names)), key=names.__getitem__)
    designs = []
    hits = 0
    misses = 0
    for combo in product(*(grid.axes[name] for name in names)):
        key = tuple([(names[i], combo[i]) for i in slots])
        outcome = entries.get(key)
        if outcome is None:
            misses += 1
            try:
                outcome = explorer.factory(dict(zip(names, combo)))
            except DomainError as exc:
                outcome = exc
            entries[key] = outcome
        else:
            hits += 1
        if not isinstance(outcome, DomainError):
            designs.append(outcome)
    cache.record(hits=hits, misses=misses)
    _, ncf_fw, ncf_ft = explorer._ncf_arrays(designs)
    counts = category_counts(classify_arrays(ncf_fw, ncf_ft))
    return {category: n for category, n in counts.items() if n}


@pytest.fixture(scope="module")
def explorer():
    """One explorer with a fully warm cache, shared by every timing."""
    obs_trace.reset()
    obs_metrics.reset()
    exp = BatchExplorer(
        factory=factory,
        baseline=BASELINE,
        weight=EMBODIED_DOMINATED,
        cache=FactoryCache(factory),
    )
    exp.explore_arrays(GRID)  # fill the cache once
    yield exp
    obs_trace.reset()
    obs_metrics.reset()


def _paired(plain, shipped, rounds: int = ROUNDS) -> dict[str, float]:
    """Time *plain* and *shipped* back to back in every round.

    Both sides of a round repeat their call the same number of times,
    enough for a *plain* block to last ``MIN_TIMING_S``; the side that
    goes first alternates between rounds. Returns the per-call medians
    and ``overhead``, the median per-round ``shipped / plain`` ratio
    minus one.
    """
    once = min(_timed(plain, 1) for _ in range(3))
    reps = max(1, -int(-MIN_TIMING_S // max(once, 1e-9)))
    plain_s: list[float] = []
    shipped_s: list[float] = []
    for index in range(rounds):
        if index % 2:
            shipped_s.append(_timed(shipped, reps))
            plain_s.append(_timed(plain, reps))
        else:
            plain_s.append(_timed(plain, reps))
            shipped_s.append(_timed(shipped, reps))
    ratios = [s / p for s, p in zip(shipped_s, plain_s)]
    return {
        "plain_s": statistics.median(plain_s) / reps,
        "shipped_s": statistics.median(shipped_s) / reps,
        "overhead": statistics.median(ratios) - 1.0,
        "calls_per_timing": reps,
    }


def _timed(fn, reps: int) -> float:
    begin = time.perf_counter()
    for _ in range(reps):
        fn()
    return time.perf_counter() - begin


def _gate(key: str, label: str, pair: dict[str, float]) -> None:
    overhead = pair["overhead"]
    _RESULTS[key] = overhead
    assert overhead < OVERHEAD_GATE, (
        f"{label} overhead {overhead:.2%} (median of {ROUNDS} paired "
        f"rounds) exceeds the {OVERHEAD_GATE:.0%} gate"
    )


@pytest.fixture(scope="module", autouse=True)
def write_trajectory():
    """Emit BENCH_obs.json once every timing has run."""
    yield
    TRAJECTORY_PATH.write_text(json.dumps(_RESULTS, indent=2, default=str) + "\n")


def test_parity_instrumented_vs_uninstrumented(explorer, emit):
    """Numerical parity gate: tracing on or off never changes results."""
    expected = uninstrumented_count_categories(explorer, GRID)
    assert explorer.count_categories(GRID) == expected

    plain = explorer.explore_arrays(GRID)
    obs_trace.enable()
    obs_metrics.enable()
    try:
        traced = explorer.explore_arrays(GRID)
        assert explorer.count_categories(GRID) == expected
    finally:
        obs_trace.reset()
        obs_metrics.reset()
    assert traced.params == plain.params
    assert np.array_equal(traced.ncf_fixed_work, plain.ncf_fixed_work)
    assert np.array_equal(traced.ncf_fixed_time, plain.ncf_fixed_time)
    assert np.array_equal(traced.codes, plain.codes)
    _RESULTS["parity"] = "bit-exact (traced == untraced == uninstrumented)"
    emit(f"parity: {len(GRID)} points, verdicts {_counts_str(expected)}")


def _counts_str(counts) -> str:
    return ", ".join(f"{cat.value}={n}" for cat, n in counts.items())


def test_resweep_overhead_disabled(benchmark, explorer, emit):
    """Gate: with tracing and metrics off, the shipped warm re-sweep
    costs < 5% over the pre-observability path."""
    assert not obs_trace.is_enabled()
    assert not obs_metrics.get_registry().enabled
    plain = lambda: uninstrumented_count_categories(explorer, GRID)
    shipped = lambda: explorer.count_categories(GRID)
    assert sum(shipped().values()) == len(GRID)
    pair = benchmark.pedantic(_paired, args=(plain, shipped), rounds=1, iterations=1)
    _RESULTS["uninstrumented_s"] = pair["plain_s"]
    _RESULTS["disabled_s"] = pair["shipped_s"]
    emit(
        f"warm re-sweep: uninstrumented {pair['plain_s'] * 1e3:.2f} ms, "
        f"instrumented (disabled) {pair['shipped_s'] * 1e3:.2f} ms, "
        f"overhead {pair['overhead']:+.2%} (median of {ROUNDS} pairs, "
        f"{pair['calls_per_timing']} calls per timing)"
    )
    _gate("overhead_disabled", "disabled-instrumentation", pair)


def test_resweep_instrumentation_enabled(benchmark, explorer, emit):
    """The same pairing with tracing + metrics recording — priced in
    the trajectory, not gated (tracing is opt-in)."""
    plain = lambda: uninstrumented_count_categories(explorer, GRID)
    obs_trace.enable()
    obs_metrics.enable()
    tracer = obs_trace.get_tracer()
    try:
        shipped = lambda: (tracer.clear(), explorer.count_categories(GRID))[1]
        assert sum(shipped().values()) == len(GRID)
        pair = benchmark.pedantic(
            _paired, args=(plain, shipped), rounds=1, iterations=1
        )
    finally:
        obs_trace.reset()
        obs_metrics.reset()
    _RESULTS["enabled_s"] = pair["shipped_s"]
    _RESULTS["overhead_enabled"] = pair["overhead"]
    emit(
        f"instrumented (enabled) re-sweep: {pair['shipped_s'] * 1e3:.2f} ms, "
        f"overhead {pair['overhead']:+.2%}"
    )


# ----------------------------------------------------------------------
# Parallel-columnar operating point: the PR 5 shard kernel
# ----------------------------------------------------------------------
def uninstrumented_eval_shard(job):
    """``eval_shard`` as it was before worker-event telemetry existed —
    the baseline the shipped kernel is gated against. Runs on the same
    pool/worker state (resident grid arena, shared block) the shipped
    kernel uses, so the only delta between the two timings is the
    telemetry hook itself."""
    start, stop, _ = job
    factory = parallel._STATE["factory"]
    begin = time.perf_counter()
    arrays = factory.batch_arrays(parallel._STATE["grid"].columns(start, stop))
    busy = time.perf_counter() - begin
    if len(arrays) != stop - start:
        raise ConfigurationError(
            f"batch_arrays returned {len(arrays)} rows for a "
            f"{stop - start}-point shard"
        )
    parallel._STATE["block"].write(
        start, stop, arrays.area, arrays.perf, arrays.power, arrays.valid
    )
    return (start, stop, busy, None)


def _shard_jobs(grid, chunk_size, workers):
    """The ``(lo, hi, seq)`` jobs a parallel-columnar sweep of *grid*
    would dispatch (same planner)."""
    spans = parallel.plan_steal_runs([(0, len(grid))], chunk_size, workers)
    return [(lo, hi, seq) for seq, (lo, hi) in enumerate(spans)]


def _columnar_pool(factory, grid, capture):
    """A live worker pool attached to a fresh shared block and a
    published grid arena."""
    total = len(grid)
    block = parallel.ColumnarBlock.allocate(total)
    arena = parallel.GridArena.publish(BatchExplorer._axis_columns(grid)(0, total))
    pool = ProcessPoolExecutor(
        max_workers=PARALLEL_WORKERS,
        initializer=parallel.init_columnar_worker,
        initargs=(
            factory,
            block.name,
            total,
            (arena.name, arena.layout, arena.total),
            capture,
            None,
        ),
    )
    return pool, block, arena


@pytest.fixture(scope="module")
def parallel_rig():
    """One capture-disabled pool + jobs, shared by the paired timing."""
    factory = IterativeFixedPointFactory(iters=PARALLEL_ITERS)
    jobs = _shard_jobs(PARALLEL_GRID, PARALLEL_CHUNK, PARALLEL_WORKERS)
    pool, block, arena = _columnar_pool(factory, PARALLEL_GRID, capture=False)
    yield pool, jobs
    pool.shutdown()
    block.release()
    arena.release()


def _drain(pool, fn, jobs) -> list:
    return list(pool.map(fn, jobs))


def test_parallel_shard_overhead_disabled(benchmark, parallel_rig, emit):
    """Gate: with capture off, the shipped eval_shard costs < 5% over
    its pre-telemetry form, both timed on the same pool."""
    pool, jobs = parallel_rig
    replies = _drain(pool, parallel.eval_shard, jobs)  # warm the pool
    assert all(events is None for *_, events in replies)  # capture is off
    pair = benchmark.pedantic(
        _paired,
        args=(
            lambda: _drain(pool, uninstrumented_eval_shard, jobs),
            lambda: _drain(pool, parallel.eval_shard, jobs),
        ),
        rounds=1,
        iterations=1,
    )
    _RESULTS["parallel_uninstrumented_s"] = pair["plain_s"]
    _RESULTS["parallel_disabled_s"] = pair["shipped_s"]
    emit(
        f"parallel shards ({len(jobs)} shards x {len(PARALLEL_GRID)} pts): "
        f"pre-telemetry {pair['plain_s'] * 1e3:.2f} ms, shipped (capture "
        f"off) {pair['shipped_s'] * 1e3:.2f} ms, overhead "
        f"{pair['overhead']:+.2%} (median of {ROUNDS} pairs)"
    )
    _gate("overhead_parallel_disabled", "parallel disabled-instrumentation", pair)


def test_parallel_shard_capture_enabled(benchmark, emit):
    """The same pairing with worker-event capture armed — priced in the
    trajectory, not gated (capture is opt-in)."""
    factory = IterativeFixedPointFactory(iters=PARALLEL_ITERS)
    jobs = _shard_jobs(PARALLEL_GRID, PARALLEL_CHUNK, PARALLEL_WORKERS)
    pool, block, arena = _columnar_pool(factory, PARALLEL_GRID, capture=True)
    try:
        replies = _drain(pool, parallel.eval_shard, jobs)  # warm the pool
        assert all(events for *_, events in replies)  # every shard reported
        pair = benchmark.pedantic(
            _paired,
            args=(
                lambda: _drain(pool, uninstrumented_eval_shard, jobs),
                lambda: _drain(pool, parallel.eval_shard, jobs),
            ),
            rounds=1,
            iterations=1,
        )
    finally:
        pool.shutdown()
        block.release()
        arena.release()
    _RESULTS["parallel_enabled_s"] = pair["shipped_s"]
    _RESULTS["overhead_parallel_enabled"] = pair["overhead"]
    emit(
        f"parallel shards (capture on): {pair['shipped_s'] * 1e3:.2f} ms, "
        f"overhead {pair['overhead']:+.2%}"
    )


@pytest.mark.chaos
def test_parallel_parity_telemetry_and_faults(tmp_path, emit):
    """Telemetry never changes parallel results: explore_arrays output
    is byte-identical with capture off, capture on, and capture on
    while injected worker faults force retries and a pool respawn."""
    from repro.resilience import FaultPlan, RetryPolicy

    grid = ParameterGrid(
        {
            "cores": [float(c) for c in range(1, 25)],
            "f": linear_range(0.50, 0.99, 10),
        }
    )
    factory = IterativeFixedPointFactory(iters=150)
    policy = RetryPolicy(max_retries=3, backoff_base_s=0.001)

    def sweep(factory, resilience=None):
        return BatchExplorer(
            factory=factory,
            baseline=BASELINE,
            weight=EMBODIED_DOMINATED,
            chunk_size=32,
            workers=PARALLEL_WORKERS,
            resilience=resilience,
        ).explore_arrays(grid)

    obs_trace.reset()
    obs_metrics.reset()
    obs_events.reset()
    reference = sweep(factory)
    obs_trace.enable()
    obs_metrics.enable()
    obs_events.enable()
    try:
        with obs_trace.get_tracer().span("parity"):
            captured = sweep(factory)
            plan = FaultPlan.plan(
                grid, seed=11, state_dir=tmp_path, crashes=1, errors=1
            )
            faulted = sweep(plan.wrap_vector(factory), resilience=policy)
        observed = len(obs_events.get_log())
    finally:
        obs_trace.reset()
        obs_metrics.reset()
        obs_events.reset()
    for result in (captured, faulted):
        assert result.params == reference.params
        assert np.array_equal(result.ncf_fixed_work, reference.ncf_fixed_work)
        assert np.array_equal(result.ncf_fixed_time, reference.ncf_fixed_time)
        assert np.array_equal(result.codes, reference.codes)
    assert observed > 0  # the captured sweeps really produced events
    _RESULTS["parallel_parity"] = (
        "bit-exact (capture off == capture on == capture on + faults)"
    )
    emit(
        f"parallel parity: {len(grid)} pts bit-exact across capture "
        f"off/on/faulted ({observed} events captured)"
    )
