"""The result store's journals: crash consistency and linear cost.

Crash consistency is a property: whatever prefix of a sweep or
Monte-Carlo journal survives a crash — every record boundary, seeded
random byte offsets — the next run must give exactly the result of a
run without any store (the scalar ``Explorer``, the plain serial
sampler), serve exactly the whole records of that prefix, and leave the
journal byte-identical to an uninterrupted one. Each random property
carries an explicit Hypothesis seed and deadline, so a failure
reproduces from the one line Hypothesis prints.

Cost is a property too: the bytes one ``put`` adds, and the bytes a
session open reads per stored point, must not grow with the number of
chunks already stored.
"""

from __future__ import annotations

import shutil
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core.design import DesignPoint
from repro.core.scenario import BALANCED
from repro.dse.batch import BatchExplorer
from repro.dse.explorer import Explorer
from repro.dse.factories import AsymmetricMulticoreFactory
from repro.dse.grid import ParameterGrid
from repro.dse.montecarlo import sample_verdicts
from repro.dse.store import ResultStore

BASELINE = DesignPoint.baseline("1-BCE single core")
DESIGN = DesignPoint("candidate", area=1.2, perf=1.4, power=1.1)
FACTORY = AsymmetricMulticoreFactory()
#: 48 points (the M >= N corners are DomainErrors) in six 8-point chunks.
SWEEP_GRID = ParameterGrid({"n": [2, 3, 4, 5, 6, 7], "m": [1, 2, 3, 4], "f": [0.5, 0.9]})
CHUNK = 8
#: 3000 samples in six 500-sample segments.
MC_SAMPLES, MC_EVERY = 3000, 500
#: Per-example deadline of the random-offset properties.
DEADLINE = timedelta(seconds=10)


def _sweep(root: Path):
    """(result, rows served by the store) of a stored sweep, with the
    result in the scalar ``Explorer``'s terms."""
    explorer = BatchExplorer(
        baseline=BASELINE, weight=BALANCED, factory=FACTORY, chunk_size=CHUNK
    )
    result = explorer.explore_arrays(SWEEP_GRID, store=ResultStore(root))
    engine = explorer.last_sweep
    assert engine.store_points + engine.fresh_points == len(SWEEP_GRID)
    rows = (
        tuple(result.params),
        tuple(result.designs),
        result.perf.tolist(),
        result.ncf_fixed_work.tobytes(),
        result.ncf_fixed_time.tobytes(),
    )
    return rows, engine.store_points


def _scalar_sweep():
    results = Explorer(FACTORY, BASELINE, BALANCED).explore(SWEEP_GRID)
    return (
        tuple(r.params for r in results),
        tuple(r.design for r in results),
        [r.perf for r in results],
        np.array([r.ncf_fixed_work for r in results]).tobytes(),
        np.array([r.ncf_fixed_time for r in results]).tobytes(),
    )


def _verdicts(root: Path | None):
    store = ResultStore(root) if root is not None else None
    result = sample_verdicts(
        DESIGN, BASELINE, BALANCED, samples=MC_SAMPLES, seed=9,
        checkpoint_every=MC_EVERY, store=store,
    )
    return result, store.stats().hits if store is not None else 0


RUNS = {"sweep": (_sweep, CHUNK), "verdicts": (_verdicts, MC_EVERY)}


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    """Per workload: the store-free reference result, the store root an
    uninterrupted stored run wrote, and its journal's relative path."""
    references = {"sweep": _scalar_sweep(), "verdicts": _verdicts(None)[0]}
    out = {}
    for name, (run, _) in RUNS.items():
        root = tmp_path_factory.mktemp(f"store-{name}")
        result, served = run(root)
        assert result == references[name] and served == 0
        (journal,) = root.glob("*/*.journal")
        out[name] = (references[name], root, journal.relative_to(root))
    return out


def _boundaries(journal: bytes) -> list[int]:
    """Byte offsets just past each line (header and every record)."""
    return [i + 1 for i, byte in enumerate(journal) if byte == ord("\n")]


def _rerun_from(name, cut: int, uninterrupted, root: Path) -> None:
    """Truncate a copy of the store's journal at *cut*, run again, and
    demand the store-free result, exactly the surviving whole records
    served, and the uninterrupted journal bytes."""
    reference, source, relative = uninterrupted[name]
    run, per_record = RUNS[name]
    shutil.copytree(source, root)
    journal = (source / relative).read_bytes()
    (root / relative).write_bytes(journal[:cut])
    whole_records = max(0, sum(1 for end in _boundaries(journal) if end <= cut) - 1)
    result, served = run(root)
    assert result == reference
    assert served == whole_records * per_record
    assert (root / relative).read_bytes() == journal


@pytest.mark.parametrize("name", sorted(RUNS))
class TestCrashConsistency:
    def test_journal_has_one_record_per_chunk(self, name, uninterrupted):
        _, root, relative = uninterrupted[name]
        assert len(_boundaries((root / relative).read_bytes())) == 1 + 6

    def test_truncation_at_every_record_boundary(self, name, uninterrupted, tmp_path):
        _, root, relative = uninterrupted[name]
        for cut in [0, *_boundaries((root / relative).read_bytes())]:
            _rerun_from(name, cut, uninterrupted, tmp_path / str(cut))


def _random_cut_property(name: str):
    @seed(20241014 + len(name))
    @settings(max_examples=32, deadline=DEADLINE)
    @given(position=st.integers(min_value=0, max_value=2**32))
    def check(uninterrupted, tmp_path_factory, position):
        _, root, relative = uninterrupted[name]
        cut = position % (root / relative).stat().st_size
        _rerun_from(name, cut, uninterrupted, tmp_path_factory.mktemp("cut") / "store")

    return check


test_sweep_truncated_at_random_offsets = _random_cut_property("sweep")
test_verdicts_truncated_at_random_offsets = _random_cut_property("verdicts")


# ----------------------------------------------------------------------
# Linear cost: per-put bytes and per-point open bytes stay flat
# ----------------------------------------------------------------------
def _chunks(count: int, size: int = 32) -> list[list[dict]]:
    # Random fractions keep every chunk's record about equally long.
    rng = np.random.default_rng(5)
    fractions = rng.uniform(0.1, 0.9, size=count * size).tolist()
    return [
        [{"cores": 16.0, "f": f} for f in fractions[i * size:(i + 1) * size]]
        for i in range(count)
    ]


def _outcomes(chunk: list[dict]) -> list[DesignPoint]:
    return [
        DesignPoint(f"p f={p['f']!r}", area=16.0, perf=1.0 + p["f"], power=9.0)
        for p in chunk
    ]


def _factory(params):  # the sweeps' identity; never called
    raise AssertionError("not evaluated")


def _sweep_costs(root: Path, count: int) -> tuple[list[int], float]:
    """Bytes written per put (the first, which creates the journal, left
    out; the session's final flush charged to the last put), and bytes
    a fresh session open reads per stored point."""
    store = ResultStore(root)
    session = store.sweep_session(_factory)
    added = []
    chunks = _chunks(count)
    for number, chunk in enumerate(chunks):
        before = store.stats().bytes_written
        session.put(chunk, _outcomes(chunk))
        if number == len(chunks) - 1:
            session.flush()
        if number:
            added.append(store.stats().bytes_written - before)
    reader = ResultStore(root)
    reader.sweep_session(_factory)
    return added, reader.stats().bytes_read / sum(map(len, chunks))


def _segment_costs(root: Path, count: int) -> tuple[list[int], float]:
    fingerprint = {"sampler": "scaling"}
    store = ResultStore(root)
    rng = np.random.default_rng(3)
    added = []
    for number in range(count):
        before = store.stats().bytes_written
        codes = rng.integers(0, 4, size=MC_EVERY).astype(np.int8)
        state = {"state": int(rng.integers(2**62)) * 2**64 + 2**127, "inc": 7}
        store.save_segment(fingerprint, number * MC_EVERY, MC_EVERY, codes, state)
        if number:
            added.append(store.stats().bytes_written - before)
    reader = ResultStore(root)
    assert reader.load_segment(fingerprint, 0, MC_EVERY) is not None
    return added, reader.stats().bytes_read / (count * MC_EVERY)


def _assert_flat(short: list[int], long: list[int]) -> None:
    mean_short = sum(short) / len(short)
    for value in (sum(long) / len(long), long[-1]):
        assert abs(value / mean_short - 1.0) <= 0.05, (mean_short, value)


@pytest.mark.parametrize("costs", [_sweep_costs, _segment_costs], ids=["sweep", "segments"])
def test_store_cost_is_flat_in_the_chunk_count(costs, tmp_path):
    (short_puts, short_open), (long_puts, long_open) = (
        costs(tmp_path / str(count), count) for count in (16, 64)
    )
    assert len(long_puts) == 4 * (len(short_puts) + 1) - 1
    _assert_flat(short_puts, long_puts)
    assert abs(long_open / short_open - 1.0) <= 0.05, (short_open, long_open)
