"""The persistent result store: keys, tiers, durability, maintenance."""

from __future__ import annotations

import base64
import errno
import json
import os

import numpy as np
import pytest

from repro.core.design import DesignPoint
from repro.core.errors import DomainError, ValidationError
from repro.dse.store import (
    MARKER_NAME,
    ChunkProbe,
    ResultStore,
    chunk_keys,
)
from repro.resilience.checkpoint import frame, set_disk_fault_hook


def _chunk(n: int, offset: int = 0) -> list[dict]:
    return [{"cores": float(i + offset + 1), "f": 0.5} for i in range(n)]


def _outcomes(chunk: list[dict]) -> list:
    return [
        DesignPoint(
            f"c{params['cores']:g}",
            area=params["cores"],
            perf=params["cores"] ** 0.5,
            power=params["cores"] * 0.9,
        )
        for params in chunk
    ]


def _session(store: ResultStore):
    return store.sweep_session(lambda params: None)


def _identity(params: dict):
    """A point's store identity: its key columns' signature and row."""
    keys = chunk_keys([params])
    return keys.signature, keys.rows()[0]


def _lines(path) -> list[bytes]:
    return path.read_bytes().splitlines(keepends=True)


class TestPointKeys:
    def test_axis_order_free(self):
        assert chunk_keys([{"a": 1.0, "b": 2.0}]) == chunk_keys(
            [{"b": 2.0, "a": 1.0}]
        )
        assert _identity({"a": 1, "b": "x"}) == _identity({"b": "x", "a": 1})

    def test_type_tags_never_alias(self):
        values = [2, 2.0, "2", True, None, np.int64(2), np.uint64(2)]
        identities = {_identity({"x": value}) for value in values}
        digests = {chunk_keys([{"x": value}]).digest for value in values}
        # int and np.int64 share the i8 column; everything else differs.
        assert len(identities) == len(digests) == len(values) - 1
        # Same bits, different type: int 2**62 vs the float with that bit
        # pattern never alias either.
        bits = np.array([2.0]).view("<i8")[0]
        assert _identity({"x": int(bits)}) != _identity({"x": 2.0})

    def test_floats_are_bit_exact(self):
        nudged = float(np.nextafter(0.1, 1.0))
        assert _identity({"x": 0.1}) != _identity({"x": nudged})
        assert _identity({"x": -0.0}) != _identity({"x": 0.0})
        assert _identity({"x": 0.5}) == _identity({"x": 0.5})
        assert _identity({"x": np.float32(0.5)}) == _identity({"x": 0.5})

    def test_chunk_key_depends_on_order(self):
        chunk = [{"x": 1.0}, {"x": 2.0}]
        assert chunk_keys(chunk).digest != chunk_keys(chunk[::-1]).digest

    def test_mixed_axis_sets_are_not_keyed(self):
        assert chunk_keys([{"x": 1.0}, {"y": 1.0}]) is None
        assert chunk_keys([{"x": 1.0}, {"x": 1.0, "y": 2.0}]) is None


class TestMarkerSafety:
    def test_fresh_directory_is_fine(self, tmp_path):
        ResultStore(tmp_path / "new")
        ResultStore(tmp_path)  # empty existing dir

    def test_refuses_foreign_nonempty_directory(self, tmp_path):
        (tmp_path / "precious.txt").write_text("hands off")
        with pytest.raises(ValidationError, match="refusing"):
            ResultStore(tmp_path)

    def test_reopens_marked_store(self, tmp_path):
        store = ResultStore(tmp_path)
        session = _session(store)
        session.put(_chunk(3), _outcomes(_chunk(3)))
        session.flush()
        assert (tmp_path / MARKER_NAME).exists()
        ResultStore(tmp_path)  # no complaint second time

    def test_coerce(self, tmp_path):
        store = ResultStore(tmp_path)
        assert ResultStore.coerce(None) is None
        assert ResultStore.coerce(store) is store
        assert ResultStore.coerce(tmp_path).root == store.root

    def test_negative_lru_bound_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            ResultStore(tmp_path, max_memory_entries=-1)


class TestSweepSession:
    def test_unknown_chunk_all_missing(self, tmp_path):
        probe = _session(ResultStore(tmp_path)).probe(_chunk(4))
        assert probe.missing == [0, 1, 2, 3]
        assert not probe.complete
        assert probe.hit_points == 0

    def test_roundtrip_same_chunking_memory_tier(self, tmp_path):
        store = ResultStore(tmp_path)
        session = _session(store)
        chunk = _chunk(5)
        outcomes = _outcomes(chunk)
        session.put(chunk, outcomes)
        probe = session.probe(chunk)
        assert probe.complete
        assert probe.memory_points == 5
        assert probe.outcomes == outcomes

    def test_roundtrip_fresh_process_disk_tier(self, tmp_path):
        chunk = _chunk(5)
        outcomes = _outcomes(chunk)
        writer = _session(ResultStore(tmp_path))
        writer.put(chunk, outcomes)
        writer.flush()
        store = ResultStore(tmp_path)  # empty LRU: must come from disk
        probe = _session(store).probe(chunk)
        assert probe.complete
        assert probe.disk_points == 5
        assert probe.outcomes == outcomes
        assert store.stats().disk_hits == 5

    def test_cross_chunking_per_point_lookup(self, tmp_path):
        """Points stored at one chunking are found at any other."""
        chunk = _chunk(10)
        writer = _session(ResultStore(tmp_path))
        writer.put(chunk[:6], _outcomes(chunk[:6]))
        writer.put(chunk[6:], _outcomes(chunk[6:]))
        writer.flush()
        reader = _session(ResultStore(tmp_path))
        probe = reader.probe(chunk[3:9])  # straddles both stored objects
        assert probe.complete
        assert probe.outcomes == _outcomes(chunk[3:9])

    def test_partial_probe_reports_missing_rows(self, tmp_path):
        chunk = _chunk(6)
        writer = _session(ResultStore(tmp_path))
        writer.put(chunk[:3], _outcomes(chunk[:3]))
        writer.flush()
        probe = _session(ResultStore(tmp_path)).probe(chunk)
        assert probe.missing == [3, 4, 5]
        assert probe.hit_points == 3
        assert probe.outcomes[:3] == _outcomes(chunk[:3])
        assert probe.outcomes[3:] == [None, None, None]

    def test_identical_chunks_dedupe_to_one_object(self, tmp_path):
        store = ResultStore(tmp_path)
        chunk = _chunk(4)
        outcomes = _outcomes(chunk)
        first = _session(store)
        first.put(chunk, outcomes)
        first.flush()
        (journal,) = tmp_path.glob("sweeps/*.journal")
        before = journal.read_bytes()
        second = _session(store)
        second.put(chunk, outcomes)  # journal holds the chunk: no append
        second.flush()
        third = _session(ResultStore(tmp_path))
        third.put(chunk, outcomes)  # ... nor after a fresh replay
        assert journal.read_bytes() == before
        assert len(_lines(journal)) == 2  # header + one record
        assert store.stats().objects_written == 1

    def test_error_outcomes_roundtrip(self, tmp_path):
        chunk = _chunk(2)
        outcomes = [_outcomes(chunk)[0], DomainError("cores must be >= 1")]
        writer = _session(ResultStore(tmp_path))
        writer.put(chunk, outcomes)
        writer.flush()
        probe = _session(ResultStore(tmp_path)).probe(chunk)
        assert probe.complete
        assert probe.outcomes[0] == outcomes[0]
        assert isinstance(probe.outcomes[1], DomainError)
        assert str(probe.outcomes[1]) == "cores must be >= 1"

    def test_different_factories_never_share(self, tmp_path):
        store = ResultStore(tmp_path)
        chunk = _chunk(3)

        def factory_a(params):
            return None

        class FactoryB:
            def __call__(self, params):
                return None

        session_a = store.sweep_session(factory_a)
        session_a.put(chunk, _outcomes(chunk))
        session_a.flush()
        probe = store.sweep_session(FactoryB()).probe(chunk)
        assert not probe.hit_points


class TestCorruption:
    def _populated(self, tmp_path, chunks: int = 1) -> list[list[dict]]:
        stored = [_chunk(4, offset=10 * i) for i in range(chunks)]
        session = _session(ResultStore(tmp_path))
        for chunk in stored:
            session.put(chunk, _outcomes(chunk))
        session.flush()
        return stored

    def test_truncated_object_recomputes_not_errors(self, tmp_path):
        (chunk,) = self._populated(tmp_path)
        (journal,) = tmp_path.glob("sweeps/*.journal")
        whole = journal.read_bytes()
        journal.write_bytes(whole[: len(whole) - len(_lines(journal)[-1]) // 2])
        store = ResultStore(tmp_path)
        session = _session(store)
        probe = session.probe(chunk)
        assert probe.missing == [0, 1, 2, 3]  # recompute, never a wrong answer
        assert store.stats().corrupt == 1
        # The next append cuts the torn tail off before writing.
        session.put(chunk, _outcomes(chunk), probe)
        assert journal.read_bytes() == whole

    def test_torn_tail_longer_than_the_next_record_is_cut_off(self, tmp_path):
        long_chunk = _chunk(40)
        session = _session(ResultStore(tmp_path))
        session.put(long_chunk, _outcomes(long_chunk))
        (journal,) = tmp_path.glob("sweeps/*.journal")
        header, record = _lines(journal)
        journal.write_bytes(header + record[:-10])
        short_chunk = _chunk(2, offset=100)
        _session(ResultStore(tmp_path)).put(short_chunk, _outcomes(short_chunk))
        header_again, short_record = _lines(journal)
        assert header_again == header and len(short_record) < len(record) - 10
        probe = _session(ResultStore(tmp_path)).probe(short_chunk)
        assert probe.complete and probe.outcomes == _outcomes(short_chunk)

    def test_checksum_mismatch_detected(self, tmp_path):
        (chunk,) = self._populated(tmp_path)
        (journal,) = tmp_path.glob("sweeps/*.journal")
        header, record = _lines(journal)
        digest, body = record.rstrip(b"\n").split(b" ", 1)
        document = json.loads(body)
        area = np.frombuffer(base64.b64decode(document["area"]), "<f8").copy()
        area[0] = 0.25  # flip a value, keep the old checksum
        document["area"] = base64.b64encode(area.tobytes()).decode()
        journal.write_bytes(
            header + digest + b" " + json.dumps(document).encode() + b"\n"
        )
        store = ResultStore(tmp_path)
        probe = _session(store).probe(chunk)
        assert probe.missing == [0, 1, 2, 3]
        assert store.stats().corrupt == 1

    def test_malformed_record_with_a_valid_checksum_recomputes(self, tmp_path):
        (chunk,) = self._populated(tmp_path)
        (journal,) = tmp_path.glob("sweeps/*.journal")
        header, record = _lines(journal)
        document = json.loads(record.split(b" ", 1)[1])
        document["text"] = document["text"][:-1]  # one name short
        journal.write_bytes(header + frame(document))
        store = ResultStore(tmp_path)
        session = _session(store)
        assert session.probe(chunk).missing == [0, 1, 2, 3]
        assert session.probe(chunk[1:]).missing == [0, 1, 2]  # per point too
        assert store.stats().corrupt == 1  # counted once, then skipped
        session.put(chunk, _outcomes(chunk))  # the chunk is stored afresh
        assert _session(ResultStore(tmp_path)).probe(chunk).outcomes == _outcomes(chunk)

    def test_record_after_a_damaged_one_is_still_served(self, tmp_path):
        first, second = self._populated(tmp_path, chunks=2)
        (journal,) = tmp_path.glob("sweeps/*.journal")
        header, damaged, intact = _lines(journal)
        damaged = damaged[:80] + bytes([damaged[80] ^ 0x01]) + damaged[81:]
        journal.write_bytes(header + damaged + intact)
        store = ResultStore(tmp_path)
        session = _session(store)
        assert session.probe(first).missing == [0, 1, 2, 3]
        probe = session.probe(second)
        assert probe.complete and probe.disk_points == 4
        assert probe.outcomes == _outcomes(second)
        assert store.stats().corrupt == 1

    def test_damaged_header_goes_cold_then_recreates(self, tmp_path):
        store = ResultStore(tmp_path)  # the writer reopens its own journal
        chunk = _chunk(4)
        _session(store).put(chunk, _outcomes(chunk))
        store.reset()
        (journal,) = tmp_path.glob("sweeps/*.journal")
        whole = journal.read_bytes()
        journal.write_bytes(b"ni!" + whole[3:])
        session = _session(store)
        probe = session.probe(chunk)
        assert probe.missing == [0, 1, 2, 3]
        assert store.stats().corrupt == 1
        session.put(chunk, _outcomes(chunk), probe)
        assert journal.read_bytes() == whole  # rewritten from scratch


class TestDiskFaults:
    @pytest.fixture(autouse=True)
    def _clear_hook(self):
        yield
        set_disk_fault_hook(None)

    def test_torn_append_is_truncated_before_the_retry(self, tmp_path):
        chunk = _chunk(4)
        reference = tmp_path / "reference"
        _session(ResultStore(reference)).put(chunk, _outcomes(chunk))
        store = ResultStore(tmp_path / "faulty")
        session = _session(store)
        session.put(_chunk(2, offset=50), _outcomes(_chunk(2, offset=50)))
        fires = {"left": 1}

        def torn(path):
            if fires["left"] and path.suffix == ".journal":
                fires["left"] -= 1
                with open(path, "ab") as handle:
                    handle.write(b"0123 {\"keys\":")
                raise OSError(errno.EIO, "io error")

        set_disk_fault_hook(torn)
        session.put(chunk, _outcomes(chunk))
        assert fires["left"] == 0 and not store.stats().disk_fallback
        (journal,) = (tmp_path / "faulty").glob("sweeps/*.journal")
        (clean,) = reference.glob("sweeps/*.journal")
        assert _lines(journal)[-1] == _lines(clean)[-1]  # no torn bytes left
        fresh = ResultStore(tmp_path / "faulty")
        assert _session(fresh).probe(chunk).complete
        assert fresh.stats().corrupt == 0

    def test_persistent_fault_falls_back_to_memory(self, tmp_path):
        def full(path):
            raise OSError(errno.ENOSPC, "forever full")

        set_disk_fault_hook(full)
        store = ResultStore(tmp_path)
        session = _session(store)
        chunk = _chunk(3)
        session.put(chunk, _outcomes(chunk))  # never raises
        assert store.stats().disk_fallback
        assert store.stats().objects_written == 0
        assert session.probe(chunk).complete  # still served from memory
        assert not list(tmp_path.glob("sweeps/*.journal"))


class TestMemoryTier:
    def test_lru_bound_counts_evictions(self, tmp_path):
        store = ResultStore(tmp_path, max_memory_entries=1)
        session = _session(store)
        for start in (0, 10, 20):
            chunk = _chunk(2, offset=start)
            session.put(chunk, _outcomes(chunk))
        assert store.stats().memory_evictions == 2

    def test_zero_bound_disables_memory_tier(self, tmp_path):
        store = ResultStore(tmp_path, max_memory_entries=0)
        session = _session(store)
        chunk = _chunk(2)
        session.put(chunk, _outcomes(chunk))
        probe = session.probe(chunk)
        assert probe.complete
        assert probe.disk_points == 2  # served from disk even in-process

    def test_stats_reset_keeps_contents(self, tmp_path):
        store = ResultStore(tmp_path)
        session = _session(store)
        chunk = _chunk(2)
        session.put(chunk, _outcomes(chunk))
        store.reset()
        assert store.stats().lookups == 0
        assert session.probe(chunk).complete  # memory tier survived


class TestSegments:
    FP = {"sampler": "test", "seed": 7}

    def test_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        codes = np.array([0, 1, 2, 3], dtype=np.int8)
        state = {"bit_generator": "PCG64", "state": {"state": 1, "inc": 2}}
        store.save_segment(self.FP, 0, 4, codes, state)
        fresh = ResultStore(tmp_path)
        loaded = fresh.load_segment(self.FP, 0, 4)
        assert loaded is not None
        got_codes, got_state = loaded
        assert np.array_equal(got_codes, codes)
        assert got_state == state
        assert fresh.stats().disk_hits == 4

    def test_wrong_position_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save_segment(self.FP, 0, 4, np.zeros(4, dtype=np.int8), {"s": 1})
        fresh = ResultStore(tmp_path)
        assert fresh.load_segment(self.FP, 4, 4) is None
        assert fresh.load_segment(self.FP, 0, 8) is None
        assert fresh.load_segment({"other": True}, 0, 4) is None
        assert fresh.stats().misses == 16

    def test_corrupt_segment_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save_segment(self.FP, 0, 4, np.zeros(4, dtype=np.int8), {"s": 1})
        store.save_segment(self.FP, 4, 4, np.ones(4, dtype=np.int8), {"s": 2})
        (journal,) = tmp_path.glob("mc/*.journal")
        header, first, second = _lines(journal)
        journal.write_bytes(header + first.replace(b"start", b"strat") + second)
        fresh = ResultStore(tmp_path)
        assert fresh.load_segment(self.FP, 0, 4) is None
        assert fresh.stats().corrupt == 1
        codes, state = fresh.load_segment(self.FP, 4, 4)  # still served
        assert codes.tolist() == [1, 1, 1, 1] and state == {"s": 2}

    def test_each_segment_is_one_appended_record(self, tmp_path):
        store = ResultStore(tmp_path)
        for start in (0, 4, 8):
            store.save_segment(
                self.FP, start, 4, np.zeros(4, dtype=np.int8), {"s": start}
            )
        store.save_segment(self.FP, 4, 4, np.zeros(4, dtype=np.int8), {"s": 4})
        (journal,) = tmp_path.glob("mc/*.journal")
        assert len(_lines(journal)) == 1 + 3  # the repeat appended nothing
        assert store.stats().segments_written == 3


class TestMaintenance:
    def _populate(self, tmp_path) -> ResultStore:
        store = ResultStore(tmp_path)
        session = _session(store)
        chunk = _chunk(4)
        session.put(chunk, _outcomes(chunk))
        session.flush()
        store.save_segment(
            {"sampler": "x"}, 0, 3, np.zeros(3, dtype=np.int8), {"s": 1}
        )
        return store

    def test_ls_and_stat(self, tmp_path):
        store = self._populate(tmp_path)
        rows = store.ls()
        assert {row["kind"] for row in rows} == {"sweep", "mc"}
        info = store.stat()
        assert info["fingerprints"] == 2
        assert info["sweep_fingerprints"] == 1
        assert info["mc_fingerprints"] == 1
        assert info["bytes"] > 0

    def test_ls_on_missing_dir_is_empty(self, tmp_path):
        assert ResultStore(tmp_path / "absent").ls() == []

    def test_gc_removes_tmp_litter_and_damaged_records(self, tmp_path):
        store = self._populate(tmp_path)
        (journal,) = (tmp_path / "sweeps").glob("*.journal")
        whole = journal.read_bytes()
        (tmp_path / "sweeps" / f"{journal.name}.tmp.999").write_text("litter")
        header, record = _lines(journal)
        garbage = frame({"keys": []}).replace(b"keys", b"kyes")
        torn = frame({"keys": []})[:-5]
        journal.write_bytes(header + garbage + record + torn)
        past = journal.stat().st_mtime - 3600
        os.utime(journal, (past, past))
        report = store.gc()
        assert report["removed_tmp"] == 1
        assert report["removed_corrupt"] == 2  # the damaged record + torn tail
        assert journal.read_bytes() == whole  # compacted to the valid records
        assert journal.stat().st_mtime == past  # last use kept for eviction
        assert not list(tmp_path.rglob("*.tmp.*"))
        fresh = ResultStore(tmp_path)
        assert _session(fresh).probe(_chunk(4)).complete
        assert fresh.stats().corrupt == 0

    def test_gc_drops_a_journal_with_a_damaged_header(self, tmp_path):
        store = self._populate(tmp_path)
        (journal,) = (tmp_path / "sweeps").glob("*.journal")
        journal.write_bytes(b"x" + journal.read_bytes()[1:])
        report = store.gc()
        assert report["removed_corrupt"] == 1
        assert not journal.exists()
        assert [row["kind"] for row in store.ls()] == ["mc"]

    def test_gc_refuses_foreign_directory(self, tmp_path):
        foreign = tmp_path / "foreign"
        foreign.mkdir()
        (foreign / "data.txt").write_text("keep me")
        store = ResultStore(tmp_path / "elsewhere")
        store.root = foreign  # dodge the init guard; gc has its own
        with pytest.raises(ValidationError, match="refusing to gc"):
            store.gc()
        assert (foreign / "data.txt").exists()

    def test_gc_max_bytes_evicts_oldest_first_without_leaks(self, tmp_path):
        import os
        import time as time_module

        store = self._populate(tmp_path)
        (sweep_journal,) = (tmp_path / "sweeps").glob("*.journal")
        (mc_journal,) = (tmp_path / "mc").glob("*.journal")
        # Make the sweep fingerprint the older of the two.
        past = time_module.time() - 3600
        os.utime(sweep_journal, (past, past))
        before = store.stat()["bytes"]
        report = store.gc(max_bytes=1)
        assert report["evicted_fingerprints"] == [
            f"sweeps/{sweep_journal.stem}",
            f"mc/{mc_journal.stem}",
        ]
        assert not sweep_journal.exists()
        assert not mc_journal.exists()
        marker = (tmp_path / MARKER_NAME).stat().st_size
        assert report["freed_bytes"] == before - marker
        assert report["bytes"] == marker
        # Hygiene: only the marker survives, and the store still works.
        leftovers = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert [p.name for p in leftovers] == [MARKER_NAME]
        session = _session(store)
        chunk = _chunk(2)
        session.put(chunk, _outcomes(chunk))
        assert session.probe(chunk).complete

    def test_gc_evicts_only_until_the_budget_fits(self, tmp_path):
        import time as time_module

        store = self._populate(tmp_path)
        (sweep_journal,) = (tmp_path / "sweeps").glob("*.journal")
        (mc_journal,) = (tmp_path / "mc").glob("*.journal")
        past = time_module.time() - 3600
        os.utime(mc_journal, (past, past))  # the Monte-Carlo one is older
        budget = store.stat()["bytes"] - mc_journal.stat().st_size
        report = store.gc(max_bytes=budget)
        assert report["evicted_fingerprints"] == [f"mc/{mc_journal.stem}"]
        assert report["bytes"] == budget
        assert sweep_journal.exists()

    def test_gc_under_budget_evicts_nothing(self, tmp_path):
        store = self._populate(tmp_path)
        report = store.gc(max_bytes=10**9)
        assert report["evicted_fingerprints"] == []
        assert store.ls()

    def test_gc_empty_store_is_a_noop(self, tmp_path):
        report = ResultStore(tmp_path / "absent").gc(max_bytes=1)
        assert report["freed_bytes"] == 0


class TestLegacyLayout:
    """A ``focal-store/1`` directory (``index.json`` plus ``objects/``)
    is never read, is listed as ``legacy`` and is removed by ``gc``."""

    def _legacy(self, tmp_path, chunk) -> None:
        from repro.resilience.checkpoint import canonical_json, sha256_hex

        def document(payload) -> str:
            body = canonical_json(payload)
            return canonical_json(
                {"format": "focal-store/1", "sha256": sha256_hex(body), "payload": payload}
            )

        factory = _session(ResultStore(tmp_path)).factory  # reads nothing yet
        fp = sha256_hex(canonical_json({"factory": factory}))[:16]
        assert fp == _session(ResultStore(tmp_path)).journal.path.stem
        (tmp_path / MARKER_NAME).write_text(document({"marker": "focal-store/1"}))
        sweep = tmp_path / "sweeps" / fp
        (sweep / "objects").mkdir(parents=True)
        # Deliberately wrong outcomes: reading them would be a wrong answer.
        rows = [["d", "wrong", (9.0).hex(), (9.0).hex(), (9.0).hex()] for _ in chunk]
        (sweep / "objects" / ("a" * 64 + ".json")).write_text(
            document({"factory": factory, "keys": ["k"] * len(chunk), "outcomes": rows})
        )
        (sweep / "index.json").write_text(
            document({"factory": factory, "points": {"k": ["a" * 64, 0]}, "chunks": {}})
        )
        segments = tmp_path / "mc" / "0123456789abcdef"
        segments.mkdir(parents=True)
        (segments / "meta.json").write_text(document({"fingerprint": {}}))
        (segments / "0-4.json").write_text(document({"start": 0, "count": 4}))

    def test_reads_go_cold_ls_lists_and_gc_removes(self, tmp_path):
        chunk = _chunk(4)
        self._legacy(tmp_path, chunk)
        store = ResultStore(tmp_path)
        session = _session(store)
        assert session.probe(chunk).missing == [0, 1, 2, 3]
        assert store.load_segment({}, 0, 4) is None
        assert store.stats().corrupt == 0
        rows = store.ls()
        assert sorted(row["kind"] for row in rows) == ["legacy", "legacy"]
        assert store.stat()["fingerprints"] == 2
        # Writing next to a legacy directory works and re-marks the store.
        session.put(chunk, _outcomes(chunk))
        assert json.loads((tmp_path / MARKER_NAME).read_text()) == {
            "format": "focal-store/2"
        }
        report = store.gc()
        assert report["removed_legacy"] == 2
        assert not list(tmp_path.rglob("index.json"))
        assert not list(tmp_path.rglob("objects"))
        assert [row["kind"] for row in store.ls()] == ["sweep"]
        probe = _session(ResultStore(tmp_path)).probe(chunk)
        assert probe.complete and probe.outcomes == _outcomes(chunk)


class TestChunkProbe:
    def test_complete_and_hit_points(self):
        probe = ChunkProbe(
            keys=["a", "b"],
            chunk_hash="h",
            outcomes=[object(), object()],
            missing=[],
            memory_points=1,
            disk_points=1,
        )
        assert probe.complete
        assert probe.hit_points == 2
