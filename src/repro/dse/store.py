"""Persistent fingerprint-keyed result store with chunk-granular reuse.

:class:`~repro.dse.batch.FactoryCache` memoizes within one process and
:class:`~repro.resilience.checkpoint.CheckpointStore` resumes one
interrupted run; both forget everything the moment the process exits or
the grid changes shape. This module is the third tier: a persistent
store of factory outcomes that any later sweep of the same factory can
read — a warm re-sweep loads byte-identical outcomes from disk instead
of recomputing, and a **delta sweep** over a grid that merely
*overlaps* a stored one evaluates only the new points and stitches the
rest from the store.

Keying follows the checkpoint fingerprints: the factory's identity is
:func:`~repro.resilience.checkpoint.describe_factory`, and a chunk's
points are identified column by column (:func:`chunk_keys`): one key
column per axis, sorted by axis name, holding the values' raw
little-endian bit patterns under a type tag — ``f8`` when every value
is a float, ``i8`` when every value is an int, else ``o``: a JSON list
of per-value tagged strings (``b1``, ``i2``, ``sname``, ``n``,
``f<float.hex>``). Two points collide exactly when the factory would
compute bit-identical outcomes for them: int ``2`` never aliases float
``2.0`` and ``-0.0`` never aliases ``0.0`` (a conservative miss, never a
wrong answer). Nothing else enters the key — not chunk size, not worker
count, not baseline or weight — so a store written at
``chunk_size=4096, workers=4`` serves a reader at ``chunk_size=100,
workers=0`` bit-exactly (outcomes depend only on ``factory(params)``).

Two tiers: an in-process LRU over decoded outcome chunks (bounded,
stats-instrumented like :class:`~repro.dse.batch.CacheStats`), and
append-only journals on disk, one per fingerprint, framed like
checkpoint journals (:class:`~repro.resilience.checkpoint.Journal`):
a header line written temp → ``fsync`` → rename, then one
``<sha256-hex> <canonical-json>`` line per record. Storing a chunk
appends and fsyncs exactly one record; nothing is ever rewritten.
Damage is never an error and never a wrong answer: a record that fails
its checksum is skipped and counted in ``focal_store_corrupt_total``
(its points recompute), a torn tail is cut off by the next append, and
``gc`` compacts damaged records away.

On-disk layout under the store root::

    focal-store.json       # marker: {"format": "focal-store/2"}
    sweeps/<fp>.journal    # header {"format", "kind": "sweep", "factory"}
                           # + one record per stored chunk
    mc/<fp>.journal        # header {"format", "kind": "mc", "fingerprint"}
                           # + one record per sampler segment

``<fp>`` is a hash prefix of the factory description (sweeps) or the
sampler fingerprint (Monte-Carlo). A sweep record is columnar::

    {"keys": [[axis, tag, b64], ...],   # key columns (see above)
     "status": b64 int8,                # 0 = DesignPoint, 1 = DomainError
     "area"|"perf"|"power": b64 <f8,    # design fields, 0.0 for errors
     "text": [...]}                     # design name or error message

and a Monte-Carlo record is ``{"start", "count", "codes": b64 int8,
"rng_state"}``. Opening a session replays its journal once and maps
chunks and points to records from the key columns alone; outcome
columns are decoded on first use. One writer per fingerprint at a time
is the supported model. Directories left by the ``focal-store/1``
layout (``index.json`` plus ``objects/``) are never read: ``ls`` lists
them as ``legacy`` and ``gc`` removes them.
"""

from __future__ import annotations

import base64
import contextlib
import dataclasses
import hashlib
import json
import os
import shutil
from collections import OrderedDict
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ..core.design import DesignPoint
from ..core.errors import DomainError, QuarantinedPoint, ValidationError
from ..obs import metrics as _metrics
from ..obs.log import get_logger, kv
from ..resilience.checkpoint import (
    TRANSIENT_DISK_ERRNOS,
    Journal,
    atomic_write_text,
    canonical_json,
    describe_factory,
    frame,
    sha256_hex,
    unframe,
)

__all__ = [
    "STORE_FORMAT",
    "StoreStats",
    "ResultStore",
    "SweepStoreSession",
    "ChunkProbe",
    "ChunkKeys",
    "chunk_keys",
]

#: Format tag of the marker file and of every journal header.
STORE_FORMAT = "focal-store/2"

#: Name of the marker file identifying a directory as a result store
#: (``gc`` refuses to delete anything from a directory without it).
MARKER_NAME = "focal-store.json"


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _unb64(text: str) -> bytes:
    return base64.b64decode(text, validate=True)


#: What decoding a checksum-valid but malformed record can raise.
_DAMAGE = (KeyError, TypeError, ValueError)


def _fingerprint_hash(payload: object) -> str:
    return sha256_hex(canonical_json(payload))[:16]


# ----------------------------------------------------------------------
# Key columns
# ----------------------------------------------------------------------
def _tagged(value: object) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "b1" if value else "b0"
    if isinstance(value, (int, np.integer)):
        return f"i{int(value)}"
    if isinstance(value, str):
        return f"s{value}"
    if value is None:
        return "n"
    return "f" + float(value).hex()


def _key_column(values: list) -> tuple[str, bytes]:
    """``(tag, raw bytes)`` of one axis: little-endian bit patterns when
    every value is a float (``f8``) or a signed int (``i8``), else the
    tagged fallback (``o``)."""
    types = set(map(type, values))
    if all(issubclass(t, (float, np.floating)) for t in types):
        return "f8", np.array(values, dtype="<f8").tobytes()
    if all(
        issubclass(t, (int, np.signedinteger)) and not issubclass(t, bool)
        for t in types
    ):
        with contextlib.suppress(OverflowError):
            return "i8", np.array(values, dtype="<i8").tobytes()
    return "o", canonical_json([_tagged(value) for value in values]).encode()


@dataclass(frozen=True)
class ChunkKeys:
    """The bit-exact identity of one chunk's points, one key column per
    (sorted) axis; ``digest`` hashes them all — the fast path a warm
    re-sweep with unchanged chunking hits (one probe, not N)."""

    names: tuple[str, ...]
    tags: tuple[str, ...]
    columns: tuple[bytes, ...]
    size: int
    digest: str

    @classmethod
    def of(cls, names, tags, columns, size: int) -> "ChunkKeys":
        if any(t != "o" and len(c) != 8 * size for t, c in zip(tags, columns)):
            raise ValueError("key column length does not match the chunk")
        digest = hashlib.sha256(canonical_json([names, tags]).encode())
        for column in columns:
            digest.update(len(column).to_bytes(8, "little"))
            digest.update(column)
        return cls(tuple(names), tuple(tags), tuple(columns), size, digest.hexdigest())

    @property
    def signature(self) -> tuple:
        return self.names, self.tags

    def rows(self) -> list[tuple]:
        """One hashable identity per point (within one signature)."""
        columns = [
            json.loads(column) if tag == "o" else np.frombuffer(column, "<u8").tolist()
            for tag, column in zip(self.tags, self.columns)
        ]
        if any(len(column) != self.size for column in columns):
            raise ValueError("key column length does not match the chunk")
        return list(zip(*columns)) if columns else [()] * self.size


def chunk_keys(chunk: Sequence[Mapping[str, object]]) -> ChunkKeys | None:
    """The key columns of *chunk*, or ``None`` when its points do not
    share one axis set (such a chunk is never stored or served)."""
    names = tuple(sorted(chunk[0])) if chunk else ()
    if any(len(params) != len(names) for params in chunk):
        return None
    try:
        columns = [_key_column([params[name] for params in chunk]) for name in names]
    except KeyError:
        return None
    return ChunkKeys.of(
        names,
        tuple(tag for tag, _ in columns),
        tuple(data for _, data in columns),
        len(chunk),
    )


# ----------------------------------------------------------------------
# Outcome columns
# ----------------------------------------------------------------------
def _encode_outcomes(outcomes: Sequence[DesignPoint | DomainError]) -> dict:
    errors = [isinstance(outcome, DomainError) for outcome in outcomes]
    fields = [
        (0.0, 0.0, 0.0) if error else (outcome.area, outcome.perf, outcome.power)
        for outcome, error in zip(outcomes, errors)
    ]
    columns = np.array(fields, dtype="<f8").reshape(len(outcomes), 3).T
    return {
        "status": _b64(bytes(errors)),
        "area": _b64(columns[0].tobytes()),
        "perf": _b64(columns[1].tobytes()),
        "power": _b64(columns[2].tobytes()),
        "text": [
            str(outcome) if error else outcome.name
            for outcome, error in zip(outcomes, errors)
        ],
    }


def _decode_outcomes(record: Mapping, size: int) -> list[DesignPoint | DomainError]:
    status = _unb64(record["status"])
    area, perf, power = (
        np.frombuffer(_unb64(record[name]), "<f8").tolist()
        for name in ("area", "perf", "power")
    )
    text = record["text"]
    if not size == len(status) == len(area) == len(perf) == len(power) == len(text):
        raise ValueError("outcome columns disagree on the chunk length")
    return [
        DomainError(t) if s else DesignPoint(t, a, p, w)
        for s, t, a, p, w in zip(status, text, area, perf, power)
    ]


def _record_keys(record: Mapping) -> ChunkKeys:
    names, tags, columns = zip(*record["keys"]) if record["keys"] else ((), (), ())
    return ChunkKeys.of(
        names, tags, [_unb64(c) for c in columns], len(_unb64(record["status"]))
    )


# ----------------------------------------------------------------------
# Stats
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StoreStats:
    """One consistent snapshot of a :class:`ResultStore`'s counters.

    Hits and misses count *entries served* — grid points for sweep
    probes, samples for Monte-Carlo segments — mirroring how
    :class:`~repro.dse.batch.CacheStats` counts lookups.
    """

    memory_hits: int
    disk_hits: int
    misses: int
    corrupt: int
    memory_evictions: int
    objects_written: int
    segments_written: int
    bytes_read: int
    bytes_written: int
    disk_fallback: bool = False

    @property
    def hits(self) -> int:
        """Entries served from either tier."""
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Hits over lookups; 0.0 before any lookup happened."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, object]:
        return {**dataclasses.asdict(self), "hit_ratio": self.hit_ratio}


@dataclass
class ChunkProbe:
    """What the store knows about one grid chunk.

    ``outcomes`` has one slot per chunk row — a decoded outcome for
    stored points, ``None`` for rows the sweep must still evaluate
    (their indices are in ``missing``). ``keys`` is the chunk's
    :class:`ChunkKeys` (``None`` for a chunk that cannot be keyed) and
    ``chunk_hash`` their digest.
    """

    keys: ChunkKeys | None
    chunk_hash: str
    outcomes: list[DesignPoint | DomainError | None]
    missing: list[int]
    memory_points: int = 0
    disk_points: int = 0

    @property
    def hit_points(self) -> int:
        return self.memory_points + self.disk_points

    @property
    def complete(self) -> bool:
        """Every row of the chunk came from the store."""
        return not self.missing


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class ResultStore:
    """A persistent, journaled store of factory outcomes.

    Parameters
    ----------
    root:
        Store directory (created on first write). Refuses a non-empty
        directory that is not a store — the marker file guards ``gc``
        and plain writes alike from clobbering unrelated data.
    max_memory_entries:
        LRU bound of the in-process tier, in decoded chunk records /
        Monte-Carlo segments (not points).
    """

    def __init__(
        self, root: str | os.PathLike, *, max_memory_entries: int = 64
    ) -> None:
        if max_memory_entries < 0:
            raise ValidationError(
                f"max_memory_entries must be >= 0, got {max_memory_entries}"
            )
        self.root = Path(root)
        self.max_memory_entries = max_memory_entries
        self._memory: OrderedDict[tuple, object] = OrderedDict()
        self._journals: dict[Path, Journal] = {}
        self._segments: dict[str, dict[tuple[int, int], dict]] = {}
        self._memory_hits = 0
        self._disk_hits = 0
        self._misses = 0
        self._corrupt = 0
        self._memory_evictions = 0
        self._objects_written = 0
        self._segments_written = 0
        self._bytes_read = 0
        self._bytes_written = 0
        self._disk_disabled = False
        self._marked = False
        if self.root.exists():
            marker = self.root / MARKER_NAME
            if not marker.exists() and any(self.root.iterdir()):
                raise ValidationError(
                    f"{self.root} exists, is not empty and has no "
                    f"{MARKER_NAME} marker — refusing to treat it as a "
                    "result store"
                )

    @classmethod
    def coerce(
        cls, value: "ResultStore | str | os.PathLike | None"
    ) -> "ResultStore | None":
        """``None`` passes through; paths become stores."""
        if value is None or isinstance(value, cls):
            return value
        return cls(value)

    # -- stats ---------------------------------------------------------
    def stats(self) -> StoreStats:
        """Snapshot of the per-process counters."""
        return StoreStats(
            memory_hits=self._memory_hits,
            disk_hits=self._disk_hits,
            misses=self._misses,
            corrupt=self._corrupt,
            memory_evictions=self._memory_evictions,
            objects_written=self._objects_written,
            segments_written=self._segments_written,
            bytes_read=self._bytes_read,
            bytes_written=self._bytes_written,
            disk_fallback=self._disk_disabled,
        )

    def reset(self) -> None:
        """Zero the counters (keeps the memory tier)."""
        self._memory_hits = self._disk_hits = self._misses = 0
        self._corrupt = self._memory_evictions = 0
        self._objects_written = self._segments_written = 0
        self._bytes_read = self._bytes_written = 0

    def _count_hits(self, tier: str, n: int) -> None:
        if not n:
            return
        if tier == "memory":
            self._memory_hits += n
        else:
            self._disk_hits += n
        registry = _metrics.get_registry()
        if registry.enabled:
            registry.counter(
                "focal_store_hits_total",
                "result-store entries served, by tier",
                labels={"tier": tier},
            ).inc(n)

    def _count_misses(self, n: int) -> None:
        if not n:
            return
        self._misses += n
        registry = _metrics.get_registry()
        if registry.enabled:
            registry.counter(
                "focal_store_misses_total",
                "result-store entries that had to be computed",
            ).inc(n)

    def _note_corrupt(self, path: Path, reason: str) -> None:
        self._corrupt += 1
        get_logger().warning(
            kv("store.corrupt", path=str(path), reason=reason)
        )
        registry = _metrics.get_registry()
        if registry.enabled:
            registry.counter(
                "focal_store_corrupt_total",
                "damaged result-store records skipped (recomputed)",
            ).inc()

    # -- memory tier ---------------------------------------------------
    def _memory_get(self, key: tuple):
        entry = self._memory.get(key)
        if entry is not None:
            self._memory.move_to_end(key)
        return entry

    def _memory_put(self, key: tuple, value: object) -> None:
        if self.max_memory_entries == 0:
            return
        self._memory[key] = value
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)
            self._memory_evictions += 1
            registry = _metrics.get_registry()
            if registry.enabled:
                registry.counter(
                    "focal_store_memory_evictions_total",
                    "decoded entries evicted from the store's LRU tier",
                ).inc()

    # -- disk tier -----------------------------------------------------
    def _journal(self, path: Path) -> Journal:
        """The one :class:`Journal` per file, so every session of this
        store appends at the same offset."""
        return self._journals.setdefault(path, Journal(path))

    def _append(self, journal: Journal, header: Mapping, record: bytes) -> bool:
        """Append *record* (creating the journal and the store marker
        first when needed). Transient disk faults (EIO/ENOSPC) are
        retried inside :class:`~repro.resilience.checkpoint.Journal`;
        when the retry budget is exhausted the store degrades to
        memory-only for the rest of the process instead of failing the
        sweep — reads keep working, writes become no-ops (returning
        ``False``), and the degradation is visible in stats and
        ``focal_store_disk_fallback_total``.
        """
        if self._disk_disabled:
            return False
        written = len(record)
        try:
            if not self._marked:
                marker = self.root / MARKER_NAME
                text = canonical_json({"format": STORE_FORMAT})
                if not marker.exists() or marker.read_text("utf-8") != text:
                    self.root.mkdir(parents=True, exist_ok=True)
                    atomic_write_text(marker, text)
                self._marked = True
            if journal.end is None:
                journal.create(header)
                written += journal.end
            journal.append(record)
        except OSError as exc:
            if exc.errno not in TRANSIENT_DISK_ERRNOS:
                raise
            self._disk_disabled = True
            get_logger().warning(
                kv(
                    "store.disk_fallback",
                    path=str(journal.path),
                    error=str(exc),
                    action="store degraded to memory-only tier",
                )
            )
            registry = _metrics.get_registry()
            if registry.enabled:
                registry.counter(
                    "focal_store_disk_fallback_total",
                    "result stores degraded to memory-only after disk faults",
                ).inc()
            return False
        self._bytes_written += written
        registry = _metrics.get_registry()
        if registry.enabled:
            registry.counter(
                "focal_store_bytes_written_total",
                "bytes written to result-store files",
            ).inc(written)
        return True

    def _scan(self, path: Path) -> tuple[list[tuple[bytes, dict]], int, int]:
        """Replay one journal: ``(lines, end, damaged)``. *lines* holds
        the valid ``(line, record)`` pairs, header first — empty when
        the header is missing or damaged, which voids the rest; *end* is
        the offset after the last whole line; *damaged* counts skipped
        records (a torn tail included), each noted as corrupt."""
        try:
            lines, tail = Journal(path).lines()
        except FileNotFoundError:
            return [], 0, 0
        except OSError as exc:
            self._note_corrupt(path, f"unreadable: {exc}")
            return [], 0, 1
        self._bytes_read += sum(map(len, lines)) + len(lines) + len(tail)
        header = unframe(lines[0]) if lines else None
        if header is None or header.get("format") != STORE_FORMAT:
            self._note_corrupt(path, "damaged or foreign journal header")
            return [], 0, 1
        valid, end, damaged = [(lines[0], header)], len(lines[0]) + 1, 0
        for number, line in enumerate(lines[1:], start=1):
            end += len(line) + 1
            record = unframe(line)
            if record is None:
                damaged += 1
                self._note_corrupt(path, f"record {number} failed its checksum")
            else:
                valid.append((line, record))
        if tail:
            damaged += 1
            self._note_corrupt(path, "torn tail (crash mid-append?)")
        return valid, end, damaged

    def _open(self, journal: Journal, header: Mapping) -> list[tuple[str, dict]]:
        """The ``(record id, record)`` pairs of *journal* if its header
        is *header*; positions the journal to append after its last whole
        line (a damaged or foreign journal is recreated on first append)."""
        lines, end, _ = self._scan(journal.path)
        if not lines or canonical_json(lines[0][1]) != canonical_json(header):
            if lines:
                self._note_corrupt(journal.path, "journal header names another run")
            journal.end = None
            return []
        journal.end = end
        return [(line[:64].decode("ascii"), record) for line, record in lines[1:]]

    # -- sweep tier ----------------------------------------------------
    def sweep_session(self, factory: object) -> "SweepStoreSession":
        """Open (or create) the per-factory sweep journal for one sweep."""
        return SweepStoreSession(self, describe_factory(factory))

    # -- Monte-Carlo rng-stream segments -------------------------------
    def _segment_journal(self, fingerprint: Mapping):
        fp = _fingerprint_hash(fingerprint)
        header = {"format": STORE_FORMAT, "kind": "mc", "fingerprint": dict(fingerprint)}
        journal = self._journal(self.root / "mc" / f"{fp}.journal")
        index = self._segments.get(fp)
        if index is None:
            index = self._segments[fp] = {
                (record.get("start"), record.get("count")): record
                for _, record in self._open(journal, header)
            }
        return fp, journal, header, index

    def load_segment(
        self, fingerprint: Mapping, start: int, count: int
    ) -> tuple[np.ndarray, dict] | None:
        """One stored sampler segment: ``(codes, post-segment rng
        state)``, or ``None`` when the store has nothing usable."""
        fp, journal, _, index = self._segment_journal(fingerprint)
        memo_key = ("mc", fp, start, count)
        cached = self._memory_get(memo_key)
        if cached is not None:
            self._count_hits("memory", count)
            codes, state = cached
            return np.array(codes), state
        record = index.get((start, count))
        if record is not None:
            try:
                codes = np.frombuffer(_unb64(record["codes"]), np.int8)
                state = record["rng_state"]
                if len(codes) != count or not isinstance(state, dict):
                    raise ValueError("segment does not match its position")
            except _DAMAGE as exc:
                self._note_corrupt(journal.path, f"undecodable segment: {exc}")
                del index[(start, count)]
            else:
                self._memory_put(memo_key, (codes, state))
                self._count_hits("disk", count)
                return np.array(codes), state
        self._count_misses(count)
        return None

    def save_segment(
        self,
        fingerprint: Mapping,
        start: int,
        count: int,
        codes: np.ndarray,
        rng_state: Mapping,
    ) -> None:
        """Persist one sampler segment plus the rng state that follows
        it (required: the draw is data-dependent, so a later segment
        can only continue from a restored state, never by skip-ahead)."""
        fp, journal, header, index = self._segment_journal(fingerprint)
        codes = np.asarray(codes, dtype=np.int8)
        if (start, count) not in index:
            record = {
                "start": start,
                "count": count,
                "codes": _b64(codes.tobytes()),
                "rng_state": dict(rng_state),
            }
            if self._append(journal, header, frame(record)):
                self._segments_written += 1
            index[(start, count)] = record
        self._memory_put(("mc", fp, start, count), (codes, dict(rng_state)))

    # -- maintenance ---------------------------------------------------
    def _require_marker(self, verb: str) -> bool:
        """Whether maintenance may proceed: an absent/empty root is a
        no-op, a foreign directory is an error."""
        if not self.root.exists():
            return False
        if (self.root / MARKER_NAME).exists():
            return True
        if any(self.root.iterdir()):
            raise ValidationError(
                f"refusing to {verb} {self.root}: no {MARKER_NAME} marker, "
                "this is not a focal result store"
            )
        return False

    def _entries(self) -> list[Path]:
        """Every fingerprint path: journals and legacy directories."""
        return [
            path
            for kind in ("sweeps", "mc")
            for path in sorted((self.root / kind).glob("*"))
            if path.is_dir() or path.suffix == ".journal"
        ]

    def ls(self) -> list[dict]:
        """One row per stored fingerprint (sweep and Monte-Carlo
        journals, ``legacy`` focal-store/1 directories), oldest first."""
        if not self._require_marker("list"):
            return []
        rows: list[dict] = []
        for path in self._entries():
            kind = path.parent.name
            row = {"fingerprint": path.stem, "last_used": path.stat().st_mtime}
            if path.is_dir():
                row.update(kind="legacy", what=f"focal-store/1 {kind}", entries=0,
                           files=sum(1 for p in path.rglob("*") if p.is_file()),
                           bytes=_tree_bytes(path))
            else:
                lines, _, _ = self._scan(path)
                header = lines[0][1] if lines else {}
                fingerprint = header.get("fingerprint", {})
                row.update(
                    kind="sweep" if kind == "sweeps" else "mc",
                    what=header.get("factory") or str(
                        fingerprint.get("kind", fingerprint.get("factory", "?"))
                    ),
                    entries=sum(
                        len(record.get("text", ())) if kind == "sweeps" else 1
                        for _, record in lines[1:]
                    ),
                    files=1,
                    bytes=path.stat().st_size,
                )
            rows.append(row)
        rows.sort(key=lambda row: row["last_used"])
        return rows

    def stat(self) -> dict:
        """Aggregate store totals plus this process's counters."""
        rows = self.ls()
        return {
            "root": str(self.root),
            "fingerprints": len(rows),
            "sweep_fingerprints": sum(1 for r in rows if r["kind"] == "sweep"),
            "mc_fingerprints": sum(1 for r in rows if r["kind"] == "mc"),
            "entries": sum(r["entries"] for r in rows),
            "files": sum(r["files"] for r in rows),
            "bytes": _tree_bytes(self.root) if self.root.exists() else 0,
            "session": self.stats().as_dict(),
        }

    def gc(self, *, max_bytes: int | None = None) -> dict:
        """Collect garbage; with *max_bytes*, also evict whole
        fingerprints oldest-first until the store fits the budget.

        Removes temp-file litter from interrupted writes and legacy
        ``focal-store/1`` directories; compacts every journal holding
        damaged records (temp → ``fsync`` → rename, keeping its last-use
        time) and drops a journal whose header is damaged. Never
        touches files outside the store root, and refuses to run on a
        directory without the store marker.
        """
        report = dict.fromkeys(("removed_tmp", "removed_legacy", "removed_corrupt",
                                "freed_bytes", "bytes"), 0)
        report["evicted_fingerprints"] = evicted = []
        if not self._require_marker("gc"):
            return report
        before = _tree_bytes(self.root)
        for tmp in self.root.rglob("*.tmp.*"):
            tmp.unlink(missing_ok=True)
            report["removed_tmp"] += 1
        journals: dict[Path, os.stat_result] = {}
        for path in self._entries():
            if path.is_dir():
                shutil.rmtree(path, ignore_errors=True)
                report["removed_legacy"] += 1
                continue
            lines, _, damaged = self._scan(path)
            report["removed_corrupt"] += damaged
            if not lines:
                path.unlink(missing_ok=True)
                continue
            if damaged:
                used = path.stat().st_mtime
                atomic_write_text(
                    path, b"".join(line + b"\n" for line, _ in lines).decode("utf-8")
                )
                os.utime(path, (used, used))
            journals[path] = path.stat()
        total = _tree_bytes(self.root)
        if max_bytes is not None:
            for path in sorted(journals, key=lambda p: journals[p].st_mtime):
                if total <= max_bytes:
                    break
                path.unlink(missing_ok=True)
                total -= journals.pop(path).st_size
                evicted.append(f"{path.parent.name}/{path.stem}")
        # Re-position every journal this process appends to.
        for path, journal in self._journals.items():
            journal.end = journals[path].st_size if path in journals else None
        self._segments.clear()
        self._memory.clear()
        report.update(freed_bytes=max(0, before - total), bytes=total)
        return report


def _tree_bytes(root: Path) -> int:
    return sum(
        path.stat().st_size for path in root.rglob("*") if path.is_file()
    )


# ----------------------------------------------------------------------
# Sweep sessions
# ----------------------------------------------------------------------
class SweepStoreSession:
    """One sweep's view of the store, bound to one factory identity.

    Opening replays the factory's journal once and maps chunk digests to
    records; the point → (record, row) map for cross-chunking lookups is
    built from the key columns on the first chunk-digest miss. Probes
    decode outcome columns per record through the store's LRU; every
    newly evaluated chunk is appended as one record.
    """

    def __init__(self, store: ResultStore, factory_desc: str) -> None:
        self.store = store
        self.factory = factory_desc
        fp = _fingerprint_hash({"factory": factory_desc})
        self.journal = store._journal(store.root / "sweeps" / f"{fp}.journal")
        self._header = {"format": STORE_FORMAT, "kind": "sweep", "factory": factory_desc}
        self._records: list[tuple[str, ChunkKeys, dict]] = []
        self._chunks: dict[str, int] = {}
        self._points: dict[tuple, dict[tuple, tuple[int, int]]] | None = None
        self._bad: set[int] = set()
        self._probed = False
        for record_id, record in store._open(self.journal, self._header):
            try:
                keys = _record_keys(record)
            except _DAMAGE as exc:
                store._note_corrupt(self.journal.path, f"unreadable key columns: {exc}")
                continue
            self._add(record_id, keys, record)

    def _add(self, record_id: str, keys: ChunkKeys, record: dict) -> None:
        index = len(self._records)
        self._records.append((record_id, keys, record))
        self._chunks[keys.digest] = index
        if self._points is not None:
            self._index_points(index)

    def _index_points(self, index: int) -> None:
        keys = self._records[index][1]
        try:
            rows = keys.rows()
        except ValueError as exc:
            self._discard(index, f"unreadable key columns: {exc}")
            return
        self._points.setdefault(keys.signature, {}).update(
            zip(rows, zip(repeat(index), range(len(rows))))
        )

    def _discard(self, index: int, reason: str) -> None:
        self.store._note_corrupt(self.journal.path, reason)
        self._bad.add(index)
        digest = self._records[index][1].digest
        if self._chunks.get(digest) == index:
            del self._chunks[digest]

    # -- reading -------------------------------------------------------
    def probe(self, chunk: Sequence[Mapping[str, object]]) -> ChunkProbe:
        """What the store holds for *chunk* (never raises; a fully
        unknown chunk comes back with every row missing)."""
        self._probed = True
        keys = chunk_keys(chunk)
        outcomes: list = [None] * len(chunk)
        memory = disk = 0
        if keys is not None and self._records:
            index = self._chunks.get(keys.digest)
            cached = self._outcomes(index) if index is not None else None
            if cached is not None and len(cached[0]) == len(chunk):
                data, tier = cached
                outcomes = list(data)
                memory, disk = (len(chunk), 0) if tier == "memory" else (0, len(chunk))
            else:
                memory, disk = self._gather(keys, outcomes)
        missing = [row for row, outcome in enumerate(outcomes) if outcome is None]
        self.store._count_hits("memory", memory)
        self.store._count_hits("disk", disk)
        self.store._count_misses(len(missing))
        return ChunkProbe(
            keys=keys,
            chunk_hash=keys.digest if keys is not None else "",
            outcomes=outcomes,
            missing=missing,
            memory_points=memory,
            disk_points=disk,
        )

    def _gather(self, keys: ChunkKeys, outcomes: list) -> tuple[int, int]:
        """Fill *outcomes* point by point from any stored chunk;
        ``(memory, disk)`` rows filled."""
        if self._points is None:
            self._points = {}
            for index in range(len(self._records)):
                self._index_points(index)
        table = self._points.get(keys.signature)
        if not table:
            return 0, 0
        wanted: dict[int, list[tuple[int, int]]] = {}
        for row, key in enumerate(keys.rows()):
            entry = table.get(key)
            if entry is not None:
                wanted.setdefault(entry[0], []).append((row, entry[1]))
        memory = disk = 0
        for index, rows in wanted.items():
            cached = self._outcomes(index)
            if cached is None:
                continue
            data, tier = cached
            for row, source in rows:
                outcomes[row] = data[source]
            if tier == "memory":
                memory += len(rows)
            else:
                disk += len(rows)
        return memory, disk

    def _outcomes(self, index: int):
        """``(decoded outcomes, tier)`` of one record, LRU'd per
        process; ``None`` for a record that does not decode."""
        if index in self._bad:
            return None
        record_id, keys, record = self._records[index]
        cached = self.store._memory_get(("sweep", record_id))
        if cached is not None:
            return cached, "memory"
        try:
            outcomes = _decode_outcomes(record, keys.size)
        except _DAMAGE as exc:
            self._discard(index, f"undecodable outcomes: {exc}")
            return None
        self.store._memory_put(("sweep", record_id), outcomes)
        return outcomes, "disk"

    # -- writing -------------------------------------------------------
    def put(
        self,
        chunk: Sequence[Mapping[str, object]],
        outcomes: Sequence[DesignPoint | DomainError],
        probe: ChunkProbe | None = None,
    ) -> None:
        """Store one fully evaluated chunk as one appended record
        (idempotent: a chunk the journal already holds is not appended).

        Chunks holding quarantined points are not stored: a
        :class:`~repro.core.errors.QuarantinedPoint` is containment
        state (the quarantine ledger's job), not a factory outcome, and
        must not be served to a later sweep running without the ledger.
        """
        if any(isinstance(outcome, QuarantinedPoint) for outcome in outcomes):
            return
        keys = probe.keys if probe is not None else chunk_keys(chunk)
        if keys is None or keys.digest in self._chunks:
            return
        record = {
            "keys": [
                [name, tag, _b64(column)]
                for name, tag, column in zip(keys.names, keys.tags, keys.columns)
            ],
            **_encode_outcomes(outcomes),
        }
        line = frame(record)
        if self.store._append(self.journal, self._header, line):
            self.store._objects_written += 1
        record_id = line[:64].decode("ascii")
        self._add(record_id, keys, record)
        self.store._memory_put(("sweep", record_id), list(outcomes))

    def flush(self) -> None:
        """Freshen the journal's mtime after a sweep that read it, so
        ``gc`` eviction ordering sees the use (every stored chunk is
        already durable: ``put`` appends and fsyncs it)."""
        if self._probed:
            with contextlib.suppress(OSError):
                os.utime(self.journal.path)
