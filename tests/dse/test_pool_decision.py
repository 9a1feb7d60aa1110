"""The pool decision table: one rule for every ``workers`` setting.

A sweep runs on worker processes only when it is a cold sweep of a
:class:`~repro.dse.batch.VectorFactory`, every axis can live in a
:class:`~repro.dse.parallel.GridArena`, and both shared segments get a
backing. Every other sweep resolves to ``workers=0`` and runs
in-process — for an explicit worker count and for ``"auto"`` alike
(auto is forced to *want* the pool here, so the rule alone decides).
Whatever the resolution, results are byte-identical to the scalar
:class:`~repro.dse.explorer.Explorer`.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.amdahl.symmetric import SymmetricMulticore
from repro.core.scenario import EMBODIED_DOMINATED
from repro.dse import parallel
from repro.dse.batch import BatchExplorer, FactoryCache
from repro.dse.explorer import Explorer
from repro.dse.factories import SymmetricMulticoreFactory
from repro.dse.grid import ParameterGrid, linear_range

FRACTIONS = linear_range(0.5, 0.99, 7)
GRID = ParameterGrid({"cores": [1, 2, 4, 8, 16], "f": FRACTIONS})


def scalar_factory(params):
    """A plain (scalar-only) factory: no ``batch_arrays``."""
    return SymmetricMulticore(
        cores=params["cores"], parallel_fraction=params["f"]
    ).design_point()


@dataclass(frozen=True)
class LabelledFactory:
    """A vector factory over a grid with a string ``label`` axis the
    kernels ignore — a string column cannot live in a GridArena."""

    inner: SymmetricMulticoreFactory = field(
        default_factory=SymmetricMulticoreFactory
    )

    def __call__(self, params):
        return self.inner({"cores": params["cores"], "f": params["f"]})

    def batch_arrays(self, columns):
        return self.inner.batch_arrays(
            {"cores": columns["cores"], "f": columns["f"]}
        )


#: case -> (factory, grid, points pre-warmed into the cache, expected mode)
CASES = {
    "cold-vector": (SymmetricMulticoreFactory(), GRID, None, "parallel-columnar"),
    "warm-cache": (SymmetricMulticoreFactory(), GRID, GRID, "scalar"),
    "half-warm-cache": (
        SymmetricMulticoreFactory(),
        GRID,
        ParameterGrid({"cores": [1, 2, 4, 8, 16], "f": FRACTIONS[:3]}),
        "scalar",
    ),
    "scalar-only-factory": (scalar_factory, GRID, None, "scalar"),
    "non-numeric-axis": (
        LabelledFactory(),
        ParameterGrid(
            {"cores": [1, 2, 4, 8, 16], "f": FRACTIONS, "label": ["a", "b"]}
        ),
        None,
        "columnar",
    ),
    "no-shared-backing": (SymmetricMulticoreFactory(), GRID, None, "columnar"),
}


def _explorer(factory, cache, workers) -> BatchExplorer:
    from repro.core.design import DesignPoint

    return BatchExplorer(
        factory=factory,
        baseline=DesignPoint.baseline("baseline"),
        weight=EMBODIED_DOMINATED,
        chunk_size=8,
        workers=workers,
        cache=cache,
    )


class TestPoolDecision:
    @pytest.mark.parametrize("workers", [2, "auto"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_decision_table(self, case, workers, monkeypatch, pool_spawns):
        factory, grid, warm, mode = CASES[case]
        if case == "no-shared-backing":
            monkeypatch.setattr(parallel, "_create_segment", lambda nbytes: None)
        monkeypatch.setattr(
            BatchExplorer, "_auto_decision", staticmethod(lambda est, cpus: 2)
        )
        cache = FactoryCache(factory)
        if warm is not None:
            _explorer(factory, cache, 0).explore(warm)
        explorer = _explorer(factory, cache, workers)

        sweep = explorer.explore_arrays(grid)

        stats = explorer.last_sweep
        pooled = mode == "parallel-columnar"
        assert stats.mode == mode
        assert stats.workers == (2 if pooled else 0)
        reference = Explorer(
            factory=factory,
            baseline=explorer.baseline,
            weight=explorer.weight,
        ).explore(grid)
        assert sweep.results() == reference
        for name in ("ncf_fixed_work", "ncf_fixed_time"):
            expected = np.array([getattr(r, name) for r in reference])
            assert getattr(sweep, name).tobytes() == expected.tobytes()
        assert len(pool_spawns) == (1 if pooled else 0)
        assert parallel.live_blocks() == frozenset()
        if not pooled:
            assert multiprocessing.active_children() == []
