"""The chunk pipeline's reuse sources, alone and in combination.

Every chunk of ``BatchExplorer.explore_arrays`` first reuses the rows it
already knows — checkpoint records, stored rows, ledger-known poison
markers — and evaluates only the rest. Each cell sweeps a 1,000-point
grid at chunk 64 through one combination of sources in one engine mode
and checks the result byte for byte against the scalar ``Explorer``
(ledger-known points excluded), plus the point accounting
``fresh + memo + store + restored + quarantined == grid``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.amdahl.symmetric import SymmetricMulticore
from repro.core.design import DesignPoint
from repro.core.scenario import EMBODIED_DOMINATED
from repro.dse.batch import BatchExplorer
from repro.dse.explorer import Explorer
from repro.dse.factories import AsymmetricMulticoreFactory, SymmetricMulticoreFactory
from repro.dse.grid import ParameterGrid, linear_range
from repro.resilience import QuarantineLedger
from repro.resilience.checkpoint import describe_factory

BASELINE = DesignPoint.baseline("1-BCE single core")
CHUNK = 64
#: Chunks the interrupted run leaves in the checkpoint journal.
RESUME_CHUNKS = 5
#: Grid index of the ledger-known poison point (chunk 7, after the
#: restored prefix).
POISON = 453

SYM_GRID = ParameterGrid(
    {"cores": list(range(1, 41)), "f": linear_range(0.5, 0.99, 25)}
)
#: Asymmetric multicores: corners with m >= n are invalid rows.
ASYM_GRID = ParameterGrid(
    {
        "n": [2, 4, 6, 8, 10, 12, 14, 16, 18, 20],
        "m": [1, 2, 4, 8, 16],
        "f": linear_range(0.5, 0.99, 20),
    }
)


def scalar_factory(params):
    """A scalar-only factory (no ``batch_arrays``)."""
    return SymmetricMulticore(
        cores=params["cores"], parallel_fraction=params["f"]
    ).design_point()


#: mode -> (factory, grid, workers)
MODES = {
    "scalar": (scalar_factory, SYM_GRID, 0),
    "columnar": (AsymmetricMulticoreFactory(), ASYM_GRID, 0),
    "parallel-columnar": (SymmetricMulticoreFactory(), SYM_GRID, 2),
}
SOURCES = (
    "none",
    "resume",
    "store-warm",
    "store-delta",
    "ledger",
    "ledger+store",
    "ledger+store+resume",
)
CELLS = [(mode, source) for mode in ("scalar", "columnar") for source in SOURCES]
CELLS += [
    ("parallel-columnar", source)
    for source in ("none", "store-delta", "ledger", "ledger+store+resume")
]


def _explorer(factory, workers: int = 0) -> BatchExplorer:
    return BatchExplorer(
        factory=factory,
        baseline=BASELINE,
        weight=EMBODIED_DOMINATED,
        chunk_size=CHUNK,
        workers=workers,
    )


def _delta_seed(grid: ParameterGrid) -> ParameterGrid:
    """A quarter of the grid: every other value of the last axis over
    the first half of the first axis, so the first half's chunks are
    partly stored and the second half's not at all."""
    first, *middle, last = grid.axes
    axes = {first: grid.axes[first][: len(grid.axes[first]) // 2]}
    axes.update({name: grid.axes[name] for name in middle})
    axes[last] = grid.axes[last][::2]
    return ParameterGrid(axes)


def _sweep(factory, grid, workers: int, source: str, tmp_path):
    """Prepare *source*'s reuse state, then sweep once; returns the
    explorer, the result, the restored point count and the poison."""
    kwargs: dict = {}
    poison = None
    if "store" in source:
        seed = _delta_seed(grid) if source == "store-delta" else grid
        _explorer(factory).explore_arrays(seed, store=tmp_path / "store")
        kwargs["store"] = tmp_path / "store"
    if "ledger" in source:
        poison = list(grid)[POISON]
        QuarantineLedger(tmp_path / "ledger.json").record(
            describe_factory(factory), poison, kind="crash", reason="known poison"
        )
        kwargs["quarantine"] = tmp_path / "ledger.json"
    restored = 0
    if "resume" in source:
        ckpt = tmp_path / "sweep.ckpt"
        _explorer(factory).explore_arrays(
            grid, checkpoint=ckpt, quarantine=kwargs.get("quarantine")
        )
        # A run killed after RESUME_CHUNKS chunks: the header record plus
        # one journal record per completed chunk.
        records = ckpt.read_bytes().splitlines(keepends=True)
        ckpt.write_bytes(b"".join(records[: 1 + RESUME_CHUNKS]))
        kwargs.update(checkpoint=ckpt, resume=True)
        restored = RESUME_CHUNKS * CHUNK
    explorer = _explorer(factory, workers)
    return explorer, explorer.explore_arrays(grid, **kwargs), restored, poison


@pytest.mark.parametrize(("mode", "source"), CELLS)
def test_reuse_sources(mode, source, tmp_path):
    factory, grid, workers = MODES[mode]
    explorer, result, restored, poison = _sweep(
        factory, grid, workers, source, tmp_path
    )
    stats = explorer.last_sweep

    reference = [
        row
        for row in Explorer(
            factory=factory, baseline=BASELINE, weight=EMBODIED_DOMINATED
        ).explore(grid)
        if row.params != poison
    ]
    assert result.results() == reference
    for name in ("perf", "ncf_fixed_work", "ncf_fixed_time"):
        expected = np.array([getattr(row, name) for row in reference])
        assert getattr(result, name).tobytes() == expected.tobytes()
    assert list(result.quarantined) == ([] if poison is None else [poison])

    assert stats.mode == mode
    assert (
        stats.fresh_points
        + stats.memo_points
        + stats.store_points
        + restored
        + stats.quarantined_points
        == len(grid)
    )
    known = restored + stats.quarantined_points
    if "store" in source and source != "store-delta":
        # Every row the ledger and checkpoint left comes from the store.
        assert stats.fresh_points == 0
        assert stats.store_points == len(grid) - known
    elif source == "store-delta":
        assert 0 < stats.store_points < len(grid)
        assert stats.delta_chunks > 0
    else:
        assert stats.fresh_points == len(grid) - known


def test_known_poison_chunk_reads_its_clean_rows_from_the_store(tmp_path):
    """A chunk holding a ledger-known poison point probes the store like
    any other chunk instead of recomputing its clean rows."""
    explorer, _, _, _ = _sweep(
        SymmetricMulticoreFactory(), SYM_GRID, 0, "ledger+store", tmp_path
    )
    stats = explorer.last_sweep
    assert (stats.fresh_points, stats.store_points) == (0, len(SYM_GRID) - 1)
    assert stats.quarantined_points == 1


@dataclass
class RowCountingFactory:
    """A vector factory that counts the rows ``batch_arrays`` sees."""

    inner: SymmetricMulticoreFactory = field(default_factory=SymmetricMulticoreFactory)
    rows: list = field(default_factory=list)

    def __call__(self, params):
        return self.inner(params)

    def batch_arrays(self, columns):
        arrays = self.inner.batch_arrays(columns)
        self.rows.append(len(arrays))
        return arrays

    def design_points(self, chunk, arrays):
        return self.inner.design_points(chunk, arrays)


class TestAutoCalibration:
    @pytest.mark.parametrize("method", ["count_categories", "explore_arrays"])
    def test_declined_pool_runs_each_row_once(self, method, monkeypatch):
        """When ``workers="auto"`` declines the pool, the calibration
        chunk's kernels serve chunk 0 — no row is evaluated twice — and
        the calibration arrays are dropped when the sweep ends."""
        monkeypatch.setattr(
            BatchExplorer, "_auto_decision", staticmethod(lambda est, cpus: 0)
        )
        factory = RowCountingFactory()
        explorer = BatchExplorer(
            factory=factory,
            baseline=BASELINE,
            weight=EMBODIED_DOMINATED,
            chunk_size=256,
            workers="auto",
        )
        getattr(explorer, method)(SYM_GRID)
        assert explorer.last_sweep.workers == 0
        assert sum(factory.rows) == len(SYM_GRID)
        assert explorer._cal is None
