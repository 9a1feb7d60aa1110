"""Cross-process worker event capture for sweep timelines.

The span tracer (:mod:`repro.obs.trace`) lives entirely in the parent
process: a parallel-columnar sweep shows one ``kernels`` span covering
the whole pool phase and nothing about what each worker did inside it.
This module closes that gap with *events* — flat, timestamped records
cheap enough to capture inside pool workers:

* each worker process owns one :class:`EventBuffer`, armed (or left
  disabled) by the pool initializer via :func:`init_worker`. Recording
  while disabled is a single attribute check; the disabled path is the
  default everyone runs;
* events ride back to the parent with shard results (the worker drains
  its buffer into the reply), **and** every event is written through to
  a per-worker spill file as it is recorded — so a worker that crashes
  mid-shard still leaves its partial timeline on disk for the parent to
  collect. The parent deduplicates the two transports by
  ``(worker, seq)``;
* the parent merges everything into the process-global
  :class:`EventLog`, which the run report (:func:`repro.obs.manifest.
  build_report`), the Chrome-trace exporter (:mod:`repro.obs.chrome`)
  and the bottleneck profiler (:mod:`repro.obs.profile`) consume.

Clock alignment: ``perf_counter`` readings are process-local, so raw
monotonic timestamps from different processes cannot be merged. Each
buffer therefore anchors itself once at arm time — it pairs one
``time.time()`` reading with one ``time.perf_counter()`` reading — and
stamps every event as ``anchor_wall + (perf_counter() - anchor_perf)``:
monotonic *within* a process, aligned *across* processes through the
host's shared wall clock. The parent's tracer keeps the matching
anchor (``Tracer.started_at``/``origin_s``), so worker events and
parent spans land on one timeline.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from pathlib import Path
from typing import Iterable

__all__ = [
    "EventBuffer",
    "EventLog",
    "get_buffer",
    "get_log",
    "record",
    "init_worker",
    "is_enabled",
    "enable",
    "disable",
    "reset",
    "make_event_dir",
    "remove_event_dir",
    "SPILL_PREFIX",
]

#: Spill files are named ``events-<pid>.jsonl`` inside the sweep's
#: event directory.
SPILL_PREFIX = "events-"


class EventBuffer:
    """The per-process event recorder (worker side).

    Disabled by default; while disabled, :meth:`add` is one attribute
    check and an early return. When armed, events accumulate in memory
    (drained into shard replies by the caller) and are simultaneously
    written through to the spill file, line-buffered, so a crash loses
    at most the event being written.
    """

    __slots__ = (
        "enabled",
        "events",
        "_seq",
        "_anchor_wall",
        "_anchor_perf",
        "_spill",
    )

    def __init__(self) -> None:
        self.enabled = False
        self.events: list[dict] = []
        self._seq = 0
        self._anchor_wall = 0.0
        self._anchor_perf = 0.0
        self._spill = None

    def enable(self, event_dir: str | os.PathLike | None = None) -> None:
        """Arm the buffer, stamping the clock anchor; optionally open a
        write-through spill file under *event_dir*."""
        self.disable()
        self.enabled = True
        self.events = []
        self._anchor_wall = time.time()
        self._anchor_perf = time.perf_counter()
        if event_dir is not None:
            try:
                path = Path(event_dir) / f"{SPILL_PREFIX}{os.getpid()}.jsonl"
                self._spill = open(path, "a", buffering=1)
            except OSError:
                self._spill = None

    def disable(self) -> None:
        """Disarm; buffered events are dropped and the spill is closed."""
        self.enabled = False
        self.events = []
        if self._spill is not None:
            try:
                self._spill.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
            self._spill = None

    def now(self) -> float:
        """An anchored wall-clock reading (monotonic within process)."""
        if self.enabled:
            return self._anchor_wall + (time.perf_counter() - self._anchor_perf)
        return time.time()

    def add(
        self,
        name: str,
        *,
        start: float | None = None,
        dur_s: float | None = None,
        **attrs: object,
    ) -> None:
        """Record one event (no-op while disabled).

        *start* is an anchored timestamp from :meth:`now` (defaults to
        the current reading); *dur_s* turns the event into a duration
        span, ``None`` marks an instant. Extra keywords become the
        event's attributes.
        """
        if not self.enabled:
            return
        event: dict = {
            "name": name,
            "worker": os.getpid(),
            "seq": self._seq,
            "t_wall": self.now() if start is None else start,
            "dur_s": dur_s,
        }
        if attrs:
            event["attrs"] = attrs
        self._seq += 1
        self.events.append(event)
        if self._spill is not None:
            try:
                self._spill.write(json.dumps(event, default=str) + "\n")
            except OSError:  # pragma: no cover - disk full etc.
                pass

    def drain(self) -> list[dict]:
        """Hand the buffered events over (the reply transport) and keep
        the sequence counter running so spill dedup stays correct."""
        events, self.events = self.events, []
        return events


class EventLog:
    """The parent-side merged collection of one observed run's events.

    Events arrive from shard replies (:meth:`extend`), from crash spill
    files (:meth:`collect_spill`) and from parent-side instrumentation
    such as the pool supervisor (:meth:`record`). Both worker
    transports deliver the same events, so the log deduplicates on
    ``(worker, seq)``.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._events: list[dict] = []
        self._seen: set[tuple] = set()
        self._seq = 0

    def __len__(self) -> int:
        return len(self._events)

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        self._events.clear()
        self._seen.clear()
        self._seq = 0

    def record(
        self,
        name: str,
        *,
        track: str | None = None,
        dur_s: float | None = None,
        **attrs: object,
    ) -> None:
        """A parent-origin event (supervisor actions and the like)."""
        if not self.enabled:
            return
        event: dict = {
            "name": name,
            "worker": os.getpid(),
            "seq": f"parent-{self._seq}",
            "t_wall": time.time(),
            "dur_s": dur_s,
        }
        if track is not None:
            event["track"] = track
        if attrs:
            event["attrs"] = attrs
        self._seq += 1
        self._events.append(event)

    def extend(self, events: Iterable[dict]) -> int:
        """Merge worker events, skipping duplicates and malformed rows;
        returns how many were actually added."""
        if not self.enabled:
            return 0
        added = 0
        for event in events:
            if not isinstance(event, dict) or "name" not in event:
                continue
            key = (event.get("worker"), event.get("seq"))
            if key in self._seen:
                continue
            self._seen.add(key)
            self._events.append(event)
            added += 1
        return added

    def collect_spill(self, event_dir: str | os.PathLike) -> int:
        """Read every spill file under *event_dir* into the log.

        A torn final line (the worker died mid-write) is silently
        skipped — that is the crash contract: everything fully written
        before the crash survives. Returns how many events were new.
        """
        added = 0
        try:
            paths = sorted(Path(event_dir).glob(f"{SPILL_PREFIX}*.jsonl"))
        except OSError:  # pragma: no cover - spill dir vanished
            return 0
        for path in paths:
            try:
                lines = path.read_text().splitlines()
            except OSError:  # pragma: no cover - race with cleanup
                continue
            rows = []
            for line in lines:
                try:
                    rows.append(json.loads(line))
                except json.JSONDecodeError:
                    continue  # torn write from a crashed worker
            added += self.extend(rows)
        return added

    def events(self) -> list[dict]:
        """The merged events, sorted by timestamp."""
        return sorted(self._events, key=lambda e: e.get("t_wall", 0.0))

    def as_dicts(self, *, started_at: float | None = None) -> list[dict]:
        """JSON-ready rows for the run report.

        With *started_at* (the tracer's wall-clock enable time) each row
        additionally carries ``t_rel`` — seconds since trace start, the
        same origin parent span ``start_s`` values use — so consumers
        can merge spans and events without clock arithmetic.
        """
        rows = []
        for event in self.events():
            row = dict(event)
            if started_at is not None and isinstance(
                row.get("t_wall"), (int, float)
            ):
                row["t_rel"] = float(row["t_wall"]) - started_at
            rows.append(row)
        return rows

    def workers(self) -> list[int]:
        """Distinct worker ids (parent pid included if it recorded)."""
        return sorted({e.get("worker") for e in self._events if "worker" in e})


_BUFFER = EventBuffer()
_LOG = EventLog()


def get_buffer() -> EventBuffer:
    """This process's event buffer (worker-side recording)."""
    return _BUFFER


def get_log() -> EventLog:
    """The process-global parent event log."""
    return _LOG


def record(name: str, **kwargs: object) -> None:
    """Record onto the parent log (see :meth:`EventLog.record`)."""
    _LOG.record(name, **kwargs)  # type: ignore[arg-type]


def init_worker(capture: bool, event_dir: str | None = None) -> None:
    """Pool-initializer hook: arm (or disarm) this process's buffer.

    Shipped as ``initializer=init_worker, initargs=(capture, spill)``
    on worker pools; also called by the parent (without a spill) so
    in-process degradation records events exactly like a worker would.
    """
    if capture:
        _BUFFER.enable(event_dir)
    else:
        _BUFFER.disable()


def is_enabled() -> bool:
    """Whether the parent log is collecting (the capture switch sweeps
    consult when deciding whether to arm worker buffers)."""
    return _LOG.enabled


def enable() -> None:
    """Enable the parent event log."""
    _LOG.enable()


def disable() -> None:
    """Disable the parent event log (collected events are kept)."""
    _LOG.disable()


def reset() -> None:
    """Disable and clear the log and this process's buffer."""
    _LOG.disable()
    _LOG.clear()
    _BUFFER.disable()


def make_event_dir() -> str:
    """A fresh private directory for one sweep's spill files; the
    caller's ``finally`` removes it via :func:`remove_event_dir`."""
    return tempfile.mkdtemp(prefix="focal-events-")


def remove_event_dir(event_dir: str | os.PathLike) -> None:
    """Remove an event directory and everything in it (best-effort)."""
    shutil.rmtree(event_dir, ignore_errors=True)
