"""The append-only checkpoint journal: crash consistency and linear cost.

Crash consistency is a property: whatever prefix of a journal survives a
crash — every record boundary, seeded random byte offsets, a flipped
byte in the last record — resuming must reproduce both the result and
the final journal bytes of an uninterrupted run. Each random property
carries an explicit Hypothesis seed and deadline, so a failure
reproduces from the one line Hypothesis prints.

Cost is a property too: the bytes one save adds must not grow with the
number of chunks already saved.
"""

from __future__ import annotations

import errno
import os
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core.design import DesignPoint
from repro.core.errors import CheckpointError
from repro.core.scenario import BALANCED
from repro.dse.batch import BatchExplorer
from repro.dse.factories import SymmetricMulticoreFactory
from repro.dse.grid import ParameterGrid
from repro.dse.montecarlo import sample_verdicts
from repro.obs import metrics as _metrics
from repro.resilience import CheckpointStore, set_disk_fault_hook

FP = {"sampler": "test", "seed": 1}
BASELINE = DesignPoint.baseline("1-BCE single core")
DESIGN = DesignPoint("candidate", area=1.2, perf=1.4, power=1.1)
#: 48 points in six 8-point chunks: a header plus six records.
SWEEP_GRID = ParameterGrid({"cores": list(range(1, 25)), "f": [0.5, 0.9]})
#: 3000 samples in six 500-sample segments.
MC_SAMPLES, MC_EVERY = 3000, 500
#: Per-example deadline of the random-offset properties.
DEADLINE = timedelta(seconds=10)


def _sweep(path: Path, *, resume: bool = False, grid=SWEEP_GRID):
    explorer = BatchExplorer(
        baseline=BASELINE,
        weight=BALANCED,
        factory=SymmetricMulticoreFactory(),
        chunk_size=8,
    )
    result = explorer.explore_arrays(grid, checkpoint=path, resume=resume)
    return (
        tuple(result.params),
        tuple(result.designs),
        result.codes.tobytes(),
        result.ncf_fixed_work.tobytes(),
        result.ncf_fixed_time.tobytes(),
    )


def _verdicts(path: Path, *, resume: bool = False, samples: int = MC_SAMPLES):
    return sample_verdicts(
        DESIGN, BASELINE, BALANCED, samples=samples, seed=9,
        checkpoint=path, resume=resume, checkpoint_every=MC_EVERY,
    )


RUNS = {"sweep": _sweep, "verdicts": _verdicts}


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    """Per workload: the fault-free result and its journal bytes."""
    root = tmp_path_factory.mktemp("journal")
    out = {}
    for name, run in RUNS.items():
        path = root / f"{name}.ckpt"
        out[name] = (run(path), path.read_bytes())
    return out


def _boundaries(journal: bytes) -> list[int]:
    """Byte offsets just past each line (header and every record)."""
    return [i + 1 for i, byte in enumerate(journal) if byte == ord("\n")]


def _resume_from(name, damaged: bytes, uninterrupted, path: Path) -> None:
    """Write *damaged* as the journal, resume, and demand the fault-free
    result and journal bytes."""
    reference, journal = uninterrupted[name]
    path.write_bytes(damaged)
    assert RUNS[name](path, resume=True) == reference
    assert path.read_bytes() == journal


@pytest.mark.parametrize("name", sorted(RUNS))
class TestCrashConsistency:
    def test_journal_has_one_record_per_chunk(self, name, uninterrupted):
        _, journal = uninterrupted[name]
        assert len(_boundaries(journal)) == 1 + 6

    def test_truncation_at_every_record_boundary(
        self, name, uninterrupted, tmp_path
    ):
        _, journal = uninterrupted[name]
        for cut in [0, *_boundaries(journal)]:
            _resume_from(name, journal[:cut], uninterrupted, tmp_path / f"{cut}.ckpt")

    @pytest.mark.parametrize("where", ["digest", "separator", "body", "newline"])
    def test_flipped_byte_in_last_record(
        self, name, where, uninterrupted, tmp_path
    ):
        _, journal = uninterrupted[name]
        start, end = _boundaries(journal)[-2:]
        offset = {
            "digest": start,
            "separator": start + 64,
            "body": (start + end) // 2,
            "newline": end - 1,
        }[where]
        damaged = bytearray(journal)
        damaged[offset] ^= 0x01
        _resume_from(name, bytes(damaged), uninterrupted, tmp_path / "flip.ckpt")

    def test_torn_tail_is_truncated_and_resumed_not_restarted(
        self, name, uninterrupted, tmp_path, monkeypatch
    ):
        """A crash mid-append costs one chunk, not the whole run."""
        _, journal = uninterrupted[name]
        path = tmp_path / "torn.ckpt"
        cut = _boundaries(journal)[-1] - 7
        path.write_bytes(journal[:cut])
        with pytest.raises(CheckpointError, match="torn"):
            CheckpointStore(path).load(kind="x", fingerprint={})
        saves = []
        real_save = CheckpointStore.save

        def counting(self, **kwargs):
            saves.append(kwargs)
            real_save(self, **kwargs)

        monkeypatch.setattr(CheckpointStore, "save", counting)
        RUNS[name](path, resume=True)
        assert len(saves) == 1
        assert path.read_bytes() == journal


def _random_cut_property(name: str):
    @seed(20240427 + len(name))
    @settings(max_examples=32, deadline=DEADLINE)
    @given(position=st.integers(min_value=0, max_value=2**32))
    def check(uninterrupted, tmp_path_factory, position):
        _, journal = uninterrupted[name]
        cut = position % len(journal)
        path = tmp_path_factory.mktemp("cut") / f"{name}-{cut}.ckpt"
        _resume_from(name, journal[:cut], uninterrupted, path)

    return check


test_sweep_truncated_at_random_offsets = _random_cut_property("sweep")
test_verdicts_truncated_at_random_offsets = _random_cut_property("verdicts")


# ----------------------------------------------------------------------
# Linear cost: the bytes one save adds stay flat as chunks accumulate
# ----------------------------------------------------------------------
def _bytes_added_per_save(monkeypatch, run) -> list[int]:
    """Bytes each save puts on disk beyond the file's unchanged prefix.

    An appending save adds exactly its record; a save that rewrites the
    file adds (almost) the whole file, because the new content diverges
    from the old one early on. The first save, which creates the file,
    is left out.
    """
    added: list[int] = []
    real_save = CheckpointStore.save

    def measured(self, **kwargs):
        before = self.path.read_bytes() if self.path.exists() else None
        real_save(self, **kwargs)
        after = self.path.read_bytes()
        if before is not None:
            added.append(len(after) - len(os.path.commonprefix([before, after])))

    monkeypatch.setattr(CheckpointStore, "save", measured)
    run()
    monkeypatch.undo()
    return added


def _assert_flat(short: list[int], long: list[int]) -> None:
    assert len(long) == 4 * (len(short) + 1) - 1
    mean_short = sum(short) / len(short)
    for value in (sum(long) / len(long), long[-1]):
        assert abs(value / mean_short - 1.0) <= 0.05, (mean_short, value)


class TestSaveCostIsFlat:
    CHUNKS = 8

    def _sweep_grid(self, chunks: int) -> ParameterGrid:
        # Random fractions keep every row's encoding about equally long.
        rng = np.random.default_rng(5)
        return ParameterGrid(
            {
                "cores": [4, 16],
                "f": [float(f) for f in rng.uniform(0.1, 0.9, size=4 * chunks)],
            }
        )

    def test_sweep(self, monkeypatch, tmp_path):
        sizes = [
            _bytes_added_per_save(
                monkeypatch,
                lambda c=chunks: _sweep(
                    tmp_path / f"{c}.ckpt", grid=self._sweep_grid(c)
                ),
            )
            for chunks in (self.CHUNKS, 4 * self.CHUNKS)
        ]
        _assert_flat(*sizes)

    def test_verdicts(self, monkeypatch, tmp_path):
        sizes = [
            _bytes_added_per_save(
                monkeypatch,
                lambda c=chunks: _verdicts(
                    tmp_path / f"{c}.ckpt", samples=c * MC_EVERY
                ),
            )
            for chunks in (self.CHUNKS, 4 * self.CHUNKS)
        ]
        _assert_flat(*sizes)


# ----------------------------------------------------------------------
# Journal mechanics
# ----------------------------------------------------------------------
@pytest.fixture
def store(tmp_path) -> CheckpointStore:
    return CheckpointStore(tmp_path / "run.ckpt")


@pytest.fixture
def clear_hook():
    yield
    set_disk_fault_hook(None)


class TestJournal:
    def test_lists_concatenate_and_scalars_are_last_wins(self, store):
        store.save(kind="mc", fingerprint=FP, state={"codes": [1, 2], "rng": 1})
        store.save(kind="mc", fingerprint=FP, state={"codes": [3], "rng": 2})
        assert store.load(kind="mc", fingerprint=FP) == {
            "codes": [1, 2, 3],
            "rng": 2,
        }

    def test_each_save_appends_one_line(self, store):
        store.save(kind="mc", fingerprint=FP, state={"codes": [1]})
        first = store.path.read_bytes()
        store.save(kind="mc", fingerprint=FP, state={"codes": [2]})
        second = store.path.read_bytes()
        assert second.startswith(first)
        assert second.count(b"\n") == first.count(b"\n") + 1

    def test_fresh_store_replaces_an_existing_journal(self, store):
        store.save(kind="mc", fingerprint=FP, state={"codes": [1]})
        again = CheckpointStore(store.path)
        again.save(kind="mc", fingerprint=FP, state={"codes": [2]})
        assert again.load(kind="mc", fingerprint=FP) == {"codes": [2]}

    def test_resumed_store_appends_after_the_valid_prefix(self, store):
        store.save(kind="mc", fingerprint=FP, state={"codes": [1]})
        store.save(kind="mc", fingerprint=FP, state={"codes": [2]})
        whole = store.path.read_bytes()
        store.path.write_bytes(whole[:-3])
        resumed = CheckpointStore(store.path)
        assert resumed.load_or_restart(kind="mc", fingerprint=FP) == {"codes": [1]}
        resumed.save(kind="mc", fingerprint=FP, state={"codes": [2]})
        assert store.path.read_bytes() == whole

    def test_header_only_journal_is_a_cold_start(self, store):
        store.save(kind="mc", fingerprint=FP, state={"codes": [1]})
        header = store.path.read_bytes().split(b"\n")[0] + b"\n"
        store.path.write_bytes(header + b"deadbeef {")
        assert store.load_or_restart(kind="mc", fingerprint=FP) is None
        assert store.path.read_bytes() == header

    def test_old_rewrite_format_restarts_cold_with_a_warning(self, store):
        _metrics.reset()
        _metrics.enable()
        try:
            store.path.write_text(
                '{"format": "focal-checkpoint/1", "sha256": "00", '
                '"payload": {"kind": "mc", "fingerprint": {}, "state": {}}}'
            )
            assert store.load_or_restart(kind="mc", fingerprint=FP) is None
            counter = _metrics.get_registry().counter(
                "focal_checkpoint_corrupt_total"
            )
            assert counter.value == 1
        finally:
            _metrics.reset()

    def test_mismatch_in_a_damaged_journal_still_raises(self, store):
        store.save(kind="mc", fingerprint=FP, state={"codes": [1]})
        with open(store.path, "ab") as handle:
            handle.write(b"torn")
        with pytest.raises(CheckpointError, match="fingerprint mismatch"):
            store.load_or_restart(kind="mc", fingerprint={"other": 1})


class TestDiskFaults:
    def test_partial_append_is_truncated_before_the_retry(
        self, store, clear_hook
    ):
        reference = CheckpointStore(store.path.with_name("ref.ckpt"))
        for target in (reference, store):
            target.save(kind="mc", fingerprint=FP, state={"codes": [1]})
        fires = {"left": 2}

        def torn_write(path):
            # A failing write that already put half a record on disk.
            if fires["left"] and Path(path) == store.path:
                fires["left"] -= 1
                with open(path, "ab") as handle:
                    handle.write(b"0123 {\"codes\":")
                raise OSError(errno.EIO, "io error")

        set_disk_fault_hook(torn_write)
        store.save(kind="mc", fingerprint=FP, state={"codes": [2]})
        set_disk_fault_hook(None)
        reference.save(kind="mc", fingerprint=FP, state={"codes": [2]})
        assert fires["left"] == 0
        assert store.path.read_bytes() == reference.path.read_bytes()

    def test_persistent_fault_raises_and_leaves_the_prefix(
        self, store, clear_hook
    ):
        store.save(kind="mc", fingerprint=FP, state={"codes": [1]})
        before = store.path.read_bytes()

        def full(path):
            with open(path, "ab") as handle:
                handle.write(b"partial")
            raise OSError(errno.ENOSPC, "forever full")

        set_disk_fault_hook(full)
        with pytest.raises(CheckpointError, match="could not be written"):
            store.save(kind="mc", fingerprint=FP, state={"codes": [2]})
        set_disk_fault_hook(None)
        assert store.path.read_bytes() == before
        assert store.load(kind="mc", fingerprint=FP) == {"codes": [1]}

    def test_dead_checkpoint_does_not_kill_the_sweep(self, tmp_path, clear_hook):
        reference = _sweep(tmp_path / "ref.ckpt")

        def dead(path):
            raise OSError(errno.EACCES, "read-only volume")

        set_disk_fault_hook(dead)
        assert _sweep(tmp_path / "dead.ckpt") == reference

    def test_unwritable_damaged_journal_resumes_without_checkpointing(
        self, tmp_path, monkeypatch, clear_hook
    ):
        reference = _sweep(tmp_path / "ref.ckpt")
        path = tmp_path / "ro.ckpt"
        path.write_bytes((tmp_path / "ref.ckpt").read_bytes()[:-5])

        def refuse(*_args):
            raise OSError(errno.EACCES, "read-only volume")

        monkeypatch.setattr("os.truncate", refuse)
        set_disk_fault_hook(refuse)
        assert _sweep(path, resume=True) == reference


@pytest.mark.parametrize("name", sorted(RUNS))
def test_one_store_reused_for_two_fresh_runs_starts_over(name, tmp_path):
    """A run without resume never appends to an earlier run's journal."""
    RUNS[name](tmp_path / "ref.ckpt")
    store = CheckpointStore(tmp_path / "reused.ckpt")
    RUNS[name](store)
    RUNS[name](store)
    assert store.path.read_bytes() == (tmp_path / "ref.ckpt").read_bytes()
