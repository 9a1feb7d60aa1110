"""The parallel-columnar engine must be invisible in the results:
byte-identical sweep output, identical cache contents and identical
category counts versus both the single-process columnar path and the
scalar path — at every grid/chunk geometry, falling back to the
in-process columnar path when no shared-memory segment can be made,
and with nothing (workers, shm segments, module state) left behind
afterwards."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.scenario import EMBODIED_DOMINATED
from repro.dse import parallel
from repro.dse.batch import (
    BatchExplorer,
    FactoryCache,
    params_key,
    params_keys,
)
from repro.dse.factories import (
    AsymmetricMulticoreFactory,
    SymmetricMulticoreFactory,
)
from repro.dse.grid import ParameterGrid, linear_range

GRID = ParameterGrid({"cores": [1, 2, 4, 8, 16], "f": linear_range(0.5, 0.99, 7)})
#: n <= m corners raise DomainError scalar-side, are masked vector-side.
ASYM_GRID = ParameterGrid({"n": [2, 3, 4, 8, 16], "m": [1, 4, 8]})


def _explorer(factory, baseline, **kwargs) -> BatchExplorer:
    return BatchExplorer(
        factory=factory, baseline=baseline, weight=EMBODIED_DOMINATED, **kwargs
    )


def assert_same_entries(cache, reference_cache) -> None:
    """Cache equality that copes with DomainError's identity compare."""
    entries = dict(cache._entries)
    reference = dict(reference_cache._entries)
    assert entries.keys() == reference.keys()
    for key, outcome in entries.items():
        expected = reference[key]
        if isinstance(expected, Exception):
            assert type(outcome) is type(expected)
            assert str(outcome) == str(expected)
        else:
            assert outcome == expected


def assert_same_sweep(result, reference) -> None:
    assert result.params == reference.params
    assert tuple(result.designs) == tuple(reference.designs)
    assert np.array_equal(result.ncf_fixed_work, reference.ncf_fixed_work)
    assert np.array_equal(result.ncf_fixed_time, reference.ncf_fixed_time)
    assert np.array_equal(result.codes, reference.codes)


class TestKeyUnification:
    def test_params_keys_match_params_key(self):
        chunk = list(GRID)[:7]
        assert params_keys(chunk) == [params_key(params) for params in chunk]

    def test_store_many_routes_through_shared_keys(self, baseline):
        factory = SymmetricMulticoreFactory()
        cache = FactoryCache(factory)
        chunk = list(GRID)[:5]
        outcomes = [factory(params) for params in chunk]
        cache.store_many(params_keys(chunk), outcomes, misses=len(chunk))
        assert len(cache) == len(chunk)
        assert cache.misses == len(chunk)
        for params, outcome in zip(chunk, outcomes):
            assert cache.lookup(params_key(params)) is outcome

    def test_store_many_length_mismatch_raises(self):
        from repro.core.errors import ValidationError

        cache = FactoryCache(SymmetricMulticoreFactory())
        with pytest.raises(ValidationError):
            cache.store_many([("a", 1)], [])


class TestParity:
    def test_matches_columnar_and_scalar(self, baseline):
        columnar = _explorer(SymmetricMulticoreFactory(), baseline)
        reference = columnar.explore_arrays(GRID)
        par = _explorer(SymmetricMulticoreFactory(), baseline, workers=2)
        result = par.explore_arrays(GRID)
        assert par.last_sweep.mode == "parallel-columnar"
        assert_same_sweep(result, reference)
        assert dict(par.cache._entries) == dict(columnar.cache._entries)
        assert par.cache.stats() == columnar.cache.stats()

    def test_invalid_corners_capture_domain_errors(self, baseline):
        columnar = _explorer(
            AsymmetricMulticoreFactory(parallel_fraction=0.9), baseline
        )
        reference = columnar.explore_arrays(ASYM_GRID)
        par = _explorer(
            AsymmetricMulticoreFactory(parallel_fraction=0.9),
            baseline,
            workers=2,
            chunk_size=4,
        )
        result = par.explore_arrays(ASYM_GRID)
        assert_same_sweep(result, reference)
        # Skips really happened, and the invalid corners were memoized
        # as genuine DomainError objects, like the scalar path stores.
        assert 0 < len(result.params) < len(ASYM_GRID)
        assert_same_entries(par.cache, columnar.cache)

    def test_category_counts_identical(self, baseline):
        serial = _explorer(SymmetricMulticoreFactory(), baseline)
        par = _explorer(SymmetricMulticoreFactory(), baseline, workers=2)
        assert (
            par.explore_arrays(GRID).category_counts()
            == serial.explore_arrays(GRID).category_counts()
        )


class TestEdgeGeometry:
    """Shard planning must cover every degenerate chunk/grid shape."""

    @pytest.mark.parametrize(
        "chunk_size,axes",
        [
            (1, {"cores": [1, 2, 4], "f": [0.3, 0.9]}),  # chunk_size=1
            (64, {"cores": [1, 2, 4], "f": [0.3, 0.9]}),  # grid < one chunk
            (4, {"cores": [2], "f": [0.5]}),  # single-point grid
            (3, {"cores": [1, 2, 4, 8, 16], "f": [0.25, 0.75]}),  # ragged tail
        ],
        ids=["chunk1", "chunk-bigger-than-grid", "single-point", "partial-tail"],
    )
    def test_bit_exact_vs_scalar(self, baseline, chunk_size, axes):
        grid = ParameterGrid(axes)
        reference = _explorer(
            SymmetricMulticoreFactory(), baseline, chunk_size=chunk_size
        ).explore_arrays(grid)
        result = _explorer(
            SymmetricMulticoreFactory(),
            baseline,
            chunk_size=chunk_size,
            workers=2,
        ).explore_arrays(grid)
        assert_same_sweep(result, reference)

    def test_final_partial_chunk_entirely_invalid(self, baseline):
        # 4 points at chunk_size=2: the last chunk is [m=8]x{n=4 is
        # valid? no:] — axes chosen so the trailing partial chunk holds
        # only n <= m corners, which the kernel masks invalid and the
        # parent re-evaluates to genuine DomainErrors.
        grid = ParameterGrid({"n": [4], "m": [1, 2, 8, 16]})
        factory = AsymmetricMulticoreFactory(parallel_fraction=0.9)
        reference = _explorer(
            factory, baseline, chunk_size=2
        ).explore_arrays(grid)
        par = _explorer(
            AsymmetricMulticoreFactory(parallel_fraction=0.9),
            baseline,
            chunk_size=2,
            workers=2,
        )
        result = par.explore_arrays(grid)
        assert_same_sweep(result, reference)
        assert len(result.params) == 2  # m=1, m=2 survive; m=8, m=16 do not


class TestSharedMemoryFallback:
    def test_no_shared_backing_runs_columnar(self, baseline, monkeypatch):
        # A host with no usable shared segments at all: neither the
        # result block nor the grid arena can be created, so the pool
        # cannot run and the sweep resolves to the in-process columnar
        # path — bit-exact, and with nothing left registered.
        monkeypatch.setattr(parallel, "_create_segment", lambda nbytes: None)
        reference = _explorer(
            SymmetricMulticoreFactory(), baseline
        ).explore_arrays(GRID)
        par = _explorer(SymmetricMulticoreFactory(), baseline, workers=2)
        result = par.explore_arrays(GRID)
        assert_same_sweep(result, reference)
        assert par.last_sweep.mode == "columnar"
        assert par.last_sweep.workers == 0
        assert par.last_sweep.shm_bytes == 0
        assert parallel.live_blocks() == frozenset()
        assert parallel._STATE == {}

    def test_arena_without_backing_releases_the_block(
        self, baseline, monkeypatch
    ):
        # The block got a segment but the grid arena did not: the
        # block must be released before the sweep runs in-process.
        monkeypatch.setattr(
            parallel.GridArena,
            "publish",
            classmethod(lambda cls, columns: None),
        )
        reference = _explorer(
            SymmetricMulticoreFactory(), baseline
        ).explore_arrays(GRID)
        par = _explorer(SymmetricMulticoreFactory(), baseline, workers=2)
        assert_same_sweep(par.explore_arrays(GRID), reference)
        assert par.last_sweep.mode == "columnar"
        assert parallel.live_blocks() == frozenset()

    def test_shm_bytes_reported_when_backed(self, baseline):
        par = _explorer(SymmetricMulticoreFactory(), baseline, workers=2)
        par.explore_arrays(GRID)
        assert par.last_sweep.shm_bytes >= len(GRID) * parallel.BYTES_PER_POINT


class TestSharedBlockContract:
    """The allocate/attach/write/rows/release contract workers rely on."""

    def test_write_rows_roundtrip_through_attach(self):
        total = 32
        parent = parallel.ColumnarBlock.allocate(total)
        try:
            area = np.arange(total, dtype=np.float64)
            perf = area * 2.0
            power = area * 3.0
            valid = np.ones(total, dtype=np.bool_)
            # A second attachment of the same segment (what a worker does).
            attached = parallel.ColumnarBlock.attach(parent.name, total)
            try:
                attached.write(0, total, area, perf, power, valid)
            finally:
                attached.release()
            got = parent.rows(0, total)
            assert np.array_equal(got[0], area)
            assert np.array_equal(got[1], perf)
            assert np.array_equal(got[2], power)
            assert np.array_equal(got[3], valid)
        finally:
            parent.release()

    def test_arena_serves_readonly_views(self):
        columns = {
            "cores": np.array([1, 2, 4, 8], dtype=np.int64),
            "f": np.array([0.5, 0.9, 0.95, 0.99]),
        }
        arena = parallel.GridArena.publish(columns)
        try:
            assert arena is not None
            assert arena.nbytes > 0
            attached = parallel.GridArena.attach(
                arena.name, arena.layout, arena.total
            )
            try:
                views = attached.columns(1, 3)
                assert np.array_equal(views["cores"], [2, 4])
                assert np.array_equal(views["f"], [0.9, 0.95])
                with pytest.raises(ValueError):
                    views["cores"][0] = 99
                del views  # a live view would pin the mapping open
            finally:
                attached.release()
        finally:
            if arena is not None:
                arena.release()
        assert parallel.live_blocks() == frozenset()

    def test_release_idempotent_and_unlinks(self):
        from multiprocessing import shared_memory

        block = parallel.ColumnarBlock.allocate(8)
        name = block.name
        assert name in parallel.live_blocks()
        probe = shared_memory.SharedMemory(name=name)  # the segment exists
        probe.close()
        block.release()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
        block.release()  # second call is a no-op, not an error
        assert parallel.live_blocks() == frozenset()

    def test_non_numeric_axes_refuse_residency(self):
        assert (
            parallel.GridArena.publish({"name": np.array(["a", "b"])}) is None
        )
        assert parallel.GridArena.publish({}) is None


class TestHygiene:
    def test_no_leaked_segments_or_state_after_sweep(self, baseline):
        par = _explorer(SymmetricMulticoreFactory(), baseline, workers=2)
        par.explore_arrays(GRID)
        assert parallel.live_blocks() == frozenset()
        assert parallel._STATE == {}

    def test_block_release_is_idempotent(self):
        block = parallel.ColumnarBlock.allocate(8)
        name = block.name
        block.release()
        block.release()
        assert parallel.live_blocks() == frozenset()
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
