"""Property-based store reuse: whatever chunking, worker count or grid
slicing the writer and reader pick, a store round-trip is bit-exact and
the reader evaluates exactly the points the writer never stored."""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.design import DesignPoint
from repro.core.scenario import EMBODIED_DOMINATED
from repro.dse.batch import BatchExplorer
from repro.dse.factories import SymmetricMulticoreFactory
from repro.dse.grid import ParameterGrid, linear_range
from repro.dse.store import ResultStore, chunk_keys

BASELINE = DesignPoint.baseline("1-BCE single core")
FRACTIONS = linear_range(0.5, 0.99, 6)


def _explorer(chunk_size: int) -> BatchExplorer:
    return BatchExplorer(
        factory=SymmetricMulticoreFactory(),
        baseline=BASELINE,
        weight=EMBODIED_DOMINATED,
        chunk_size=chunk_size,
    )


def _grid(cores: list[int]) -> ParameterGrid:
    return ParameterGrid({"cores": [float(c) for c in cores], "f": FRACTIONS})


@settings(max_examples=20, deadline=None)
@given(
    writer_chunk=st.integers(min_value=1, max_value=40),
    reader_chunk=st.integers(min_value=1, max_value=40),
    cores=st.lists(
        st.integers(min_value=1, max_value=64),
        min_size=1,
        max_size=8,
        unique=True,
    ),
)
def test_reader_chunking_never_changes_results(
    writer_chunk, reader_chunk, cores
):
    grid = _grid(cores)
    with tempfile.TemporaryDirectory() as root:
        cold = _explorer(writer_chunk).explore_arrays(
            grid, store=ResultStore(root)
        )
        reader = _explorer(reader_chunk)
        warm = reader.explore_arrays(grid, store=ResultStore(root))
        engine = reader.last_sweep
        assert engine.fresh_points == 0
        assert engine.store_points == len(grid)
        assert warm.designs == cold.designs
        assert warm.perf.tobytes() == cold.perf.tobytes()
        assert warm.ncf_fixed_work.tobytes() == cold.ncf_fixed_work.tobytes()
        assert warm.ncf_fixed_time.tobytes() == cold.ncf_fixed_time.tobytes()


@settings(max_examples=15, deadline=None)
@given(
    writer_chunk=st.integers(min_value=1, max_value=40),
    reader_chunk=st.integers(min_value=1, max_value=40),
    stored_cores=st.lists(
        st.integers(min_value=1, max_value=64),
        min_size=1,
        max_size=6,
        unique=True,
    ),
    swept_cores=st.lists(
        st.integers(min_value=1, max_value=64),
        min_size=1,
        max_size=6,
        unique=True,
    ),
)
def test_delta_sweep_evaluates_exactly_the_new_points(
    writer_chunk, reader_chunk, stored_cores, swept_cores
):
    """Arbitrarily overlapping grids: fresh evaluations == points the
    first sweep never saw, and the union run matches a cold sweep."""
    with tempfile.TemporaryDirectory() as root:
        _explorer(writer_chunk).explore_arrays(
            _grid(stored_cores), store=ResultStore(root)
        )
        swept = _grid(swept_cores)
        reader = _explorer(reader_chunk)
        delta = reader.explore_arrays(swept, store=ResultStore(root))
        new_cores = set(swept_cores) - set(stored_cores)
        assert reader.last_sweep.fresh_points == len(new_cores) * len(
            FRACTIONS
        )
        cold = _explorer(writer_chunk).explore_arrays(swept)
        assert delta.designs == cold.designs
        assert delta.ncf_fixed_work.tobytes() == cold.ncf_fixed_work.tobytes()
        assert delta.ncf_fixed_time.tobytes() == cold.ncf_fixed_time.tobytes()


@given(
    params=st.dictionaries(
        st.sampled_from(["cores", "f", "mode", "flag", "none"]),
        st.one_of(
            st.booleans(),
            st.integers(min_value=-10, max_value=10),
            st.floats(allow_nan=False),
            st.text(max_size=8),
            st.none(),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_point_keys_are_axis_order_free(params):
    reordered = dict(reversed(list(params.items())))
    assert chunk_keys([params]) == chunk_keys([reordered])
