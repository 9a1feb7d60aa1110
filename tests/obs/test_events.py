"""The cross-process event layer: buffers, the merged log, spill files."""

from __future__ import annotations

import json
import os

from repro.obs import events
from repro.obs.events import SPILL_PREFIX, EventBuffer, EventLog


class TestEventBuffer:
    def test_disabled_by_default_and_add_is_noop(self):
        buf = EventBuffer()
        assert not buf.enabled
        buf.add("shard", lo=0, hi=10)
        assert buf.events == []
        assert buf.drain() == []

    def test_add_records_name_worker_seq_and_attrs(self):
        buf = EventBuffer()
        buf.enable()
        buf.add("shard", lo=0, hi=10)
        buf.add("heartbeat")
        (shard, beat) = buf.events
        assert shard["name"] == "shard"
        assert shard["worker"] == os.getpid()
        assert shard["seq"] == 0
        assert shard["attrs"] == {"lo": 0, "hi": 10}
        assert shard["dur_s"] is None
        assert beat["seq"] == 1
        assert "attrs" not in beat

    def test_now_is_monotonic_and_wall_anchored(self):
        import time

        buf = EventBuffer()
        buf.enable()
        first = buf.now()
        second = buf.now()
        assert second >= first
        assert abs(first - time.time()) < 5.0  # anchored to the wall clock

    def test_explicit_start_and_duration(self):
        buf = EventBuffer()
        buf.enable()
        t0 = buf.now()
        buf.add("compute", start=t0, dur_s=0.25)
        event = buf.events[0]
        assert event["t_wall"] == t0
        assert event["dur_s"] == 0.25

    def test_drain_hands_over_and_keeps_sequence(self):
        buf = EventBuffer()
        buf.enable()
        buf.add("a")
        first = buf.drain()
        buf.add("b")
        second = buf.drain()
        assert [e["name"] for e in first] == ["a"]
        assert [e["name"] for e in second] == ["b"]
        assert second[0]["seq"] == 1  # counter survives the drain
        assert buf.events == []

    def test_disable_drops_buffered_events(self):
        buf = EventBuffer()
        buf.enable()
        buf.add("a")
        buf.disable()
        assert buf.events == []
        assert not buf.enabled

    def test_spill_write_through(self, tmp_path):
        buf = EventBuffer()
        buf.enable(tmp_path)
        buf.add("shard", lo=0, hi=4)
        # written through immediately, before any drain
        spill = tmp_path / f"{SPILL_PREFIX}{os.getpid()}.jsonl"
        rows = [json.loads(line) for line in spill.read_text().splitlines()]
        assert rows[0]["name"] == "shard"
        assert rows[0]["attrs"] == {"lo": 0, "hi": 4}
        buf.disable()

    def test_unwritable_spill_dir_degrades_to_memory_only(self, tmp_path):
        buf = EventBuffer()
        buf.enable(tmp_path / "does" / "not" / "exist")
        buf.add("shard")
        assert len(buf.events) == 1  # recording still works


class TestEventLog:
    def test_disabled_log_ignores_everything(self):
        log = EventLog()
        log.record("pool.retry")
        assert log.extend([{"name": "shard", "worker": 1, "seq": 0}]) == 0
        assert len(log) == 0

    def test_extend_dedups_on_worker_seq(self):
        log = EventLog()
        log.enable()
        reply = [{"name": "shard", "worker": 7, "seq": 0, "t_wall": 1.0}]
        assert log.extend(reply) == 1
        assert log.extend(reply) == 0  # same event via the spill transport
        assert len(log) == 1

    def test_extend_skips_malformed_rows(self):
        log = EventLog()
        log.enable()
        added = log.extend(
            [{"worker": 1, "seq": 0}, "not a dict", {"name": "ok", "seq": 1}]
        )
        assert added == 1
        assert log.events()[0]["name"] == "ok"

    def test_record_tags_parent_events(self):
        log = EventLog()
        log.enable()
        log.record("pool.respawn", track="supervisor", respawns=1)
        (event,) = log.events()
        assert event["track"] == "supervisor"
        assert event["seq"] == "parent-0"
        assert event["attrs"] == {"respawns": 1}

    def test_collect_spill_reads_files_and_skips_torn_line(self, tmp_path):
        log = EventLog()
        log.enable()
        good = {"name": "shard", "worker": 5, "seq": 0, "t_wall": 2.0}
        (tmp_path / f"{SPILL_PREFIX}5.jsonl").write_text(
            json.dumps(good) + "\n" + '{"name": "shard", "worker": 5, "se'
        )
        assert log.collect_spill(tmp_path) == 1
        assert log.events()[0]["worker"] == 5

    def test_collect_spill_dedups_against_replies(self, tmp_path):
        log = EventLog()
        log.enable()
        event = {"name": "shard", "worker": 5, "seq": 0, "t_wall": 2.0}
        log.extend([event])
        (tmp_path / f"{SPILL_PREFIX}5.jsonl").write_text(json.dumps(event) + "\n")
        assert log.collect_spill(tmp_path) == 0
        assert len(log) == 1

    def test_events_sorted_by_timestamp(self):
        log = EventLog()
        log.enable()
        log.extend(
            [
                {"name": "late", "worker": 1, "seq": 1, "t_wall": 9.0},
                {"name": "early", "worker": 1, "seq": 0, "t_wall": 1.0},
            ]
        )
        assert [e["name"] for e in log.events()] == ["early", "late"]

    def test_as_dicts_adds_t_rel_against_trace_origin(self):
        log = EventLog()
        log.enable()
        log.extend([{"name": "shard", "worker": 1, "seq": 0, "t_wall": 101.5}])
        rows = log.as_dicts(started_at=100.0)
        assert rows[0]["t_rel"] == 1.5
        # without an anchor there is no t_rel claim
        assert "t_rel" not in log.as_dicts()[0]

    def test_workers_lists_distinct_ids(self):
        log = EventLog()
        log.enable()
        log.extend(
            [
                {"name": "a", "worker": 3, "seq": 0},
                {"name": "b", "worker": 1, "seq": 0},
                {"name": "c", "worker": 3, "seq": 1},
            ]
        )
        assert log.workers() == [1, 3]


class TestGlobalState:
    def test_module_enable_disable_reset(self):
        assert not events.is_enabled()
        events.enable()
        assert events.is_enabled()
        events.record("pool.retry", track="supervisor")
        assert len(events.get_log()) == 1
        events.reset()
        assert not events.is_enabled()
        assert len(events.get_log()) == 0

    def test_init_worker_arms_and_disarms_the_buffer(self, tmp_path):
        events.init_worker(True, str(tmp_path))
        assert events.get_buffer().enabled
        events.get_buffer().add("shard")
        events.init_worker(False)
        assert not events.get_buffer().enabled

    def test_spill_dir_lifecycle(self):
        path = events.make_event_dir()
        assert os.path.isdir(path)
        events.remove_event_dir(path)
        assert not os.path.exists(path)
        events.remove_event_dir(path)  # idempotent
