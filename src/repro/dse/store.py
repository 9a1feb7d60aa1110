"""Persistent fingerprint-keyed result store with chunk-granular reuse.

:class:`~repro.dse.batch.FactoryCache` memoizes within one process and
:class:`~repro.resilience.checkpoint.CheckpointStore` resumes one
interrupted run; both forget everything the moment the process exits or
the grid changes shape. This module is the third tier: a persistent,
content-addressed store of factory outcomes that any later sweep of the
same factory can read — a warm re-sweep loads byte-identical outcomes
from disk instead of recomputing, and a **delta sweep** over a grid that
merely *overlaps* a stored one evaluates only the new points and
stitches the rest from the store.

Keying follows the checkpoint fingerprints: the factory's identity is
:func:`~repro.resilience.checkpoint.describe_factory`, and every grid
point is reduced to a canonical key string with ``float.hex`` encoding
for floats, so two parameter dicts collide exactly when the factory
would compute bit-identical outcomes for them. Nothing else enters the
key — not chunk size, not worker count, not baseline or weight — so a
store written at ``chunk_size=4096, workers=4`` serves a reader at
``chunk_size=100, workers=0`` bit-exactly (outcomes depend only on
``factory(params)``).

Two tiers:

* an in-process LRU over decoded outcome chunks (bounded,
  stats-instrumented like :class:`~repro.dse.batch.CacheStats`), so
  repeated probes within one process never touch disk twice;
* an atomic on-disk tier: every file is written
  temp → ``fsync`` → ``os.replace`` and carries a SHA-256 checksum over
  its canonical payload. Corruption is never an error and never a wrong
  answer — a damaged file is discarded, counted in
  ``focal_store_corrupt_total``, and the affected points recompute.

On-disk layout under the store root::

    focal-store.json                    # marker: {"format": "focal-store/1"}
    sweeps/<fp>/index.json              # point-key -> object row map
    sweeps/<fp>/objects/<sha256>.json   # one stored chunk of outcomes
    mc/<fp>/meta.json                   # the segment stream's fingerprint
    mc/<fp>/<start>-<count>.json        # Monte-Carlo rng-stream segment

``<fp>`` is a hash prefix of the factory description (sweeps) or the
sampler fingerprint (Monte-Carlo). Objects are content-addressed by the
SHA-256 of their canonical payload, so identical chunks written twice
dedupe into one file. ``ResultStore.gc`` removes temp litter, orphaned
objects and corrupt files, and with ``max_bytes`` evicts whole
fingerprints oldest-first until the store fits the budget.
"""

from __future__ import annotations

import json
import os
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ..core.design import DesignPoint
from ..core.errors import DomainError, QuarantinedPoint, ValidationError
from ..obs import metrics as _metrics
from ..obs.log import get_logger, kv
from ..resilience.checkpoint import (
    TRANSIENT_DISK_ERRNOS,
    atomic_write_text,
    canonical_json,
    decode_outcomes,
    describe_factory,
    encode_outcomes,
    sha256_hex,
)

__all__ = [
    "STORE_FORMAT",
    "StoreStats",
    "ResultStore",
    "SweepStoreSession",
    "ChunkProbe",
    "point_store_key",
    "chunk_store_key",
]

#: Format tag written into (and required from) every store document.
STORE_FORMAT = "focal-store/1"

#: Name of the marker file identifying a directory as a result store
#: (``gc`` refuses to delete anything from a directory without it).
MARKER_NAME = "focal-store.json"

#: Sweep sessions persist their index after this many newly stored
#: chunks (and once more at sweep end), bounding data loss on a crash.
FLUSH_EVERY_CHUNKS = 16


# ----------------------------------------------------------------------
# Point/chunk keys
#
# A point key must be equal exactly when the factory would compute the
# identical outcome: floats go through float.hex (bit-exact, like the
# checkpoint fingerprints), other JSON scalars keep their type tag so
# int 2 and float 2.0 never alias (a conservative miss, never a wrong
# answer).
# ----------------------------------------------------------------------
def _encode_value(value: object) -> str:
    if isinstance(value, bool):
        return "b1" if value else "b0"
    if isinstance(value, (int, np.integer)):
        return f"i{int(value)}"
    if isinstance(value, str):
        return f"s{value}"
    if value is None:
        return "n"
    return "f" + float(value).hex()


def point_store_key(params: Mapping[str, object]) -> str:
    """The canonical store key of one grid point (axis-order free)."""
    return "\x1e".join(
        f"{name}={_encode_value(params[name])}" for name in sorted(params)
    )


def chunk_store_key(keys: Sequence[str]) -> str:
    """One hash for a whole chunk of point keys — the fast path a warm
    re-sweep with unchanged chunking hits (one probe, not N)."""
    return sha256_hex("\x1f".join(keys))


def _fingerprint_hash(payload: object) -> str:
    return sha256_hex(canonical_json(payload))[:16]


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
    recovered_objects: int = 0
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
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "hit_ratio": self.hit_ratio,
            "corrupt": self.corrupt,
            "memory_evictions": self.memory_evictions,
            "objects_written": self.objects_written,
            "segments_written": self.segments_written,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "recovered_objects": self.recovered_objects,
            "disk_fallback": self.disk_fallback,
        }


@dataclass
class ChunkProbe:
    """What the store knows about one grid chunk.

    ``outcomes`` has one slot per chunk row — a decoded outcome for
    stored points, ``None`` for rows the sweep must still evaluate
    (their indices are in ``missing``).
    """

    keys: list[str]
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
    """A persistent, content-addressed store of factory outcomes.

    Parameters
    ----------
    root:
        Store directory (created on first write). Refuses a non-empty
        directory that is not a store — the marker file guards ``gc``
        and plain writes alike from clobbering unrelated data.
    max_memory_entries:
        LRU bound of the in-process tier, in decoded chunk objects /
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
        self._memory_hits = 0
        self._disk_hits = 0
        self._misses = 0
        self._corrupt = 0
        self._memory_evictions = 0
        self._objects_written = 0
        self._segments_written = 0
        self._bytes_read = 0
        self._bytes_written = 0
        self._recovered_objects = 0
        self._disk_disabled = False
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
            recovered_objects=self._recovered_objects,
            disk_fallback=self._disk_disabled,
        )

    def reset(self) -> None:
        """Zero the counters (keeps the memory tier)."""
        self._memory_hits = self._disk_hits = self._misses = 0
        self._corrupt = self._memory_evictions = 0
        self._objects_written = self._segments_written = 0
        self._bytes_read = self._bytes_written = 0
        self._recovered_objects = 0

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
                "corrupt result-store files discarded (recomputed)",
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
    def _ensure_root(self) -> None:
        marker = self.root / MARKER_NAME
        if not marker.exists():
            self._write_document(marker, {"marker": STORE_FORMAT})

    def _write_document(self, path: Path, payload: object) -> bool:
        """Atomic checksummed write (temp → fsync → rename), the same
        durability contract checkpoint journal headers carry.

        Transient disk faults (EIO/ENOSPC) are retried inside
        :func:`~repro.resilience.checkpoint.atomic_write_text`; when the
        retry budget is exhausted the store degrades to memory-only for
        the rest of the process instead of failing the sweep — reads
        keep working, writes become no-ops (returning ``False``), and
        the degradation is visible in stats and
        ``focal_store_disk_fallback_total``.
        """
        if self._disk_disabled:
            return False
        body = canonical_json(payload)
        document = canonical_json(
            {"format": STORE_FORMAT, "sha256": sha256_hex(body), "payload": payload}
        )
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_text(path, document)
        except OSError as exc:
            if exc.errno not in TRANSIENT_DISK_ERRNOS:
                raise
            self._disk_disabled = True
            get_logger().warning(
                kv(
                    "store.disk_fallback",
                    path=str(path),
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
        self._bytes_written += len(document)
        registry = _metrics.get_registry()
        if registry.enabled:
            registry.counter(
                "focal_store_bytes_written_total",
                "bytes written to result-store files",
            ).inc(len(document))
        return True

    def _count_recovered(self, n: int) -> None:
        if not n:
            return
        self._recovered_objects += n
        registry = _metrics.get_registry()
        if registry.enabled:
            registry.counter(
                "focal_store_recovered_total",
                "stored objects re-indexed after a lost/stale index",
            ).inc(n)

    def _read_document(self, path: Path) -> dict | None:
        """The verified payload, or ``None`` (missing file is a plain
        miss; damage is counted, logged and the file deleted so the
        recomputed object can be rewritten cleanly)."""
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError as exc:
            self._note_corrupt(path, f"unreadable: {exc}")
            return None
        self._bytes_read += len(text)
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            self._discard_corrupt(path, f"not valid JSON: {exc}")
            return None
        if (
            not isinstance(document, dict)
            or document.get("format") != STORE_FORMAT
            or not isinstance(document.get("payload"), dict)
        ):
            self._discard_corrupt(path, "not a focal-store document")
            return None
        payload = document["payload"]
        if sha256_hex(canonical_json(payload)) != document.get("sha256"):
            self._discard_corrupt(path, "content checksum mismatch")
            return None
        return payload

    def _discard_corrupt(self, path: Path, reason: str) -> None:
        self._note_corrupt(path, reason)
        try:
            path.unlink()
        except OSError:  # pragma: no cover - already gone / readonly dir
            pass

    # -- sweep tier ----------------------------------------------------
    def sweep_session(self, factory: object) -> "SweepStoreSession":
        """Open (or create) the per-factory sweep index for one sweep."""
        return SweepStoreSession(self, describe_factory(factory))

    # -- Monte-Carlo rng-stream segments -------------------------------
    def _segment_dir(self, fingerprint: Mapping) -> tuple[Path, str]:
        fp = _fingerprint_hash(fingerprint)
        return self.root / "mc" / fp, fp

    def load_segment(
        self, fingerprint: Mapping, start: int, count: int
    ) -> tuple[np.ndarray, dict] | None:
        """One stored sampler segment: ``(codes, post-segment rng
        state)``, or ``None`` when the store has nothing usable."""
        directory, fp = self._segment_dir(fingerprint)
        memo_key = ("mc", fp, start, count)
        cached = self._memory_get(memo_key)
        if cached is not None:
            self._count_hits("memory", count)
            codes, state = cached
            return np.array(codes), state
        payload = self._read_document(directory / f"{start}-{count}.json")
        if (
            payload is None
            or payload.get("start") != start
            or payload.get("count") != count
            or not isinstance(payload.get("codes"), list)
            or len(payload["codes"]) != count
            or not isinstance(payload.get("rng_state"), dict)
        ):
            self._count_misses(count)
            return None
        codes = np.asarray(payload["codes"], dtype=np.int8)
        state = payload["rng_state"]
        self._memory_put(memo_key, (codes, state))
        self._count_hits("disk", count)
        return np.array(codes), state

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
        self._ensure_root()
        directory, fp = self._segment_dir(fingerprint)
        meta = directory / "meta.json"
        if not meta.exists():
            self._write_document(meta, {"fingerprint": dict(fingerprint)})
        self._write_document(
            directory / f"{start}-{count}.json",
            {
                "start": start,
                "count": count,
                "codes": [int(code) for code in codes],
                "rng_state": dict(rng_state),
            },
        )
        self._segments_written += 1
        codes = np.asarray(codes, dtype=np.int8)
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

    def ls(self) -> list[dict]:
        """One row per stored fingerprint (sweep indexes and
        Monte-Carlo segment streams), oldest first."""
        if not self._require_marker("list"):
            return []
        rows: list[dict] = []
        for directory in sorted((self.root / "sweeps").glob("*")):
            if not directory.is_dir():
                continue
            index = self._read_document(directory / "index.json") or {}
            rows.append(
                {
                    "kind": "sweep",
                    "fingerprint": directory.name,
                    "what": index.get("factory", "?"),
                    "entries": len(index.get("points", {})),
                    "files": sum(
                        1 for _ in directory.glob("objects/*.json")
                    ),
                    "bytes": _tree_bytes(directory),
                    "last_used": _tree_mtime(directory),
                }
            )
        for directory in sorted((self.root / "mc").glob("*")):
            if not directory.is_dir():
                continue
            meta = self._read_document(directory / "meta.json") or {}
            fingerprint = meta.get("fingerprint", {})
            segments = [
                p for p in directory.glob("*.json") if p.name != "meta.json"
            ]
            rows.append(
                {
                    "kind": "mc",
                    "fingerprint": directory.name,
                    "what": str(
                        fingerprint.get("kind", fingerprint.get("factory", "?"))
                    ),
                    "entries": len(segments),
                    "files": len(segments),
                    "bytes": _tree_bytes(directory),
                    "last_used": _tree_mtime(directory),
                }
            )
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

        Removes: temp-file litter from interrupted writes, objects no
        index references, corrupt indexes/objects/segments (and, for a
        corrupt index, the whole fingerprint — its objects would all be
        orphans). Never touches files outside the store root, and
        refuses to run on a directory without the store marker.
        """
        removed_tmp = removed_orphans = removed_corrupt = 0
        evicted: list[str] = []
        if not self._require_marker("gc"):
            return {
                "removed_tmp": 0,
                "removed_orphans": 0,
                "removed_corrupt": 0,
                "recovered_objects": 0,
                "evicted_fingerprints": [],
                "freed_bytes": 0,
                "bytes": 0,
            }
        recovered_before = self._recovered_objects
        before = _tree_bytes(self.root)
        for tmp in self.root.rglob("*.tmp.*"):
            tmp.unlink(missing_ok=True)
            removed_tmp += 1
        for directory in sorted((self.root / "sweeps").glob("*")):
            if not directory.is_dir():
                continue
            corrupt_before = self._corrupt
            index = self._read_document(directory / "index.json")
            if index is None:
                # No (valid) index — but objects are self-describing, so
                # a lost index is rebuildable from the surviving valid
                # objects; only a fingerprint with nothing valid left is
                # actually unreachable and removed.
                removed_corrupt += self._corrupt - corrupt_before
                index = self._rebuild_index(directory)
                if index is None:
                    _remove_tree(directory)
                    continue
            referenced = {entry[0] for entry in index.get("points", {}).values()}
            referenced.update(index.get("chunks", {}).values())
            for obj in directory.glob("objects/*.json"):
                if obj.stem not in referenced:
                    obj.unlink(missing_ok=True)
                    removed_orphans += 1
        for directory in sorted((self.root / "mc").glob("*")):
            if not directory.is_dir():
                continue
            for segment in directory.glob("*.json"):
                corrupt_before = self._corrupt
                if self._read_document(segment) is None:
                    removed_corrupt += self._corrupt - corrupt_before
        if max_bytes is not None:
            candidates = [
                directory
                for parent in ("sweeps", "mc")
                for directory in (self.root / parent).glob("*")
                if directory.is_dir()
            ]
            candidates.sort(key=_tree_mtime)
            while candidates and _tree_bytes(self.root) > max_bytes:
                victim = candidates.pop(0)
                evicted.append(f"{victim.parent.name}/{victim.name}")
                _remove_tree(victim)
        after = _tree_bytes(self.root)
        self._memory.clear()
        return {
            "recovered_objects": self._recovered_objects - recovered_before,
            "removed_tmp": removed_tmp,
            "removed_orphans": removed_orphans,
            "removed_corrupt": removed_corrupt,
            "evicted_fingerprints": evicted,
            "freed_bytes": max(0, before - after),
            "bytes": after,
        }

    def _rebuild_index(self, directory: Path) -> dict | None:
        """Rebuild a sweep index from its surviving object files.

        Objects are self-describing (factory description, point keys,
        outcomes), so a lost or corrupt index never strands committed
        work — this is the same recovery
        :class:`SweepStoreSession` performs on open, shared with ``gc``.
        Returns ``None`` when no valid object survives.
        """
        points: dict[str, list] = {}
        chunks: dict[str, str] = {}
        factory = None
        for path in sorted(directory.glob("objects/*.json")):
            payload = self._read_document(path)
            if payload is None:
                continue
            keys = payload.get("keys")
            outcomes = payload.get("outcomes")
            if (
                not isinstance(keys, list)
                or not isinstance(outcomes, list)
                or len(keys) != len(outcomes)
                or not isinstance(payload.get("factory"), str)
            ):
                continue
            if factory is None:
                factory = payload["factory"]
            elif payload["factory"] != factory:
                continue
            chunks.setdefault(chunk_store_key(keys), path.stem)
            for row, key in enumerate(keys):
                points.setdefault(key, [path.stem, row])
        if not chunks:
            return None
        index = {"factory": factory, "points": points, "chunks": chunks}
        if self._write_document(directory / "index.json", index):
            self._count_recovered(len(chunks))
            get_logger().warning(
                kv(
                    "store.index_rebuilt",
                    directory=str(directory),
                    objects=len(chunks),
                )
            )
        return index


def _tree_bytes(root: Path) -> int:
    return sum(
        path.stat().st_size for path in root.rglob("*") if path.is_file()
    )


def _tree_mtime(root: Path) -> float:
    """Last-use time of a fingerprint directory: newest file mtime
    (sessions touch their index on read-only use)."""
    times = [path.stat().st_mtime for path in root.rglob("*") if path.is_file()]
    return max(times, default=0.0)


def _remove_tree(root: Path) -> None:
    for path in sorted(root.rglob("*"), reverse=True):
        if path.is_file():
            path.unlink(missing_ok=True)
        else:
            try:
                path.rmdir()
            except OSError:  # pragma: no cover - non-empty race
                pass
    try:
        root.rmdir()
    except OSError:  # pragma: no cover
        pass


# ----------------------------------------------------------------------
# Sweep sessions
# ----------------------------------------------------------------------
class SweepStoreSession:
    """One sweep's view of the store, bound to one factory identity.

    The session loads the factory's point index once, answers chunk
    probes from it (memory tier first, then content-addressed object
    files), collects newly evaluated chunks, and persists the merged
    index atomically — every :data:`FLUSH_EVERY_CHUNKS` stored chunks
    and once at :meth:`flush` from the sweep's ``finally``.
    """

    def __init__(self, store: ResultStore, factory_desc: str) -> None:
        self.store = store
        self.factory = factory_desc
        fp = _fingerprint_hash({"factory": factory_desc})
        self.directory = store.root / "sweeps" / fp
        index = store._read_document(self.directory / "index.json") or {}
        points = index.get("points", {})
        chunks = index.get("chunks", {})
        self._points: dict[str, list] = points if isinstance(points, dict) else {}
        self._chunks: dict[str, str] = chunks if isinstance(chunks, dict) else {}
        self._bad_objects: set[str] = set()
        self._dirty = 0
        self._probed = False
        self._recover_unindexed()

    def _recover_unindexed(self) -> None:
        """Re-index committed objects the index does not reference.

        The index is flushed only every :data:`FLUSH_EVERY_CHUNKS`
        stored chunks, so a crash between flushes (or a corrupt index)
        leaves valid, fully written object files behind that the loaded
        index has never heard of. Objects are self-describing, so they
        are folded back in here — a resumed sweep re-reads them instead
        of recomputing. The rebuilt entries flush with the next index
        write.
        """
        objects_dir = self.directory / "objects"
        if not objects_dir.is_dir():
            return
        referenced = {
            entry[0]
            for entry in self._points.values()
            if isinstance(entry, (list, tuple)) and entry
        }
        referenced.update(self._chunks.values())
        recovered = 0
        for path in sorted(objects_dir.glob("*.json")):
            if path.stem in referenced:
                continue
            payload = self.store._read_document(path)
            if payload is None or payload.get("factory") != self.factory:
                continue
            keys = payload.get("keys")
            outcomes = payload.get("outcomes")
            if (
                not isinstance(keys, list)
                or not isinstance(outcomes, list)
                or len(keys) != len(outcomes)
            ):
                continue
            self._chunks.setdefault(chunk_store_key(keys), path.stem)
            for row, key in enumerate(keys):
                self._points.setdefault(key, [path.stem, row])
            recovered += 1
        if recovered:
            self._dirty += 1
            self.store._count_recovered(recovered)
            get_logger().info(
                kv(
                    "store.recovered",
                    factory=self.factory,
                    objects=recovered,
                )
            )

    # -- reading -------------------------------------------------------
    def probe(self, chunk: Sequence[Mapping[str, object]]) -> ChunkProbe:
        """What the store holds for *chunk* (never raises; a fully
        unknown chunk comes back with every row missing)."""
        self._probed = True
        keys = [point_store_key(params) for params in chunk]
        chunk_hash = chunk_store_key(keys)
        object_id = self._chunks.get(chunk_hash)
        if object_id is not None:
            outcomes, tier = self._load_object(object_id)
            if outcomes is not None and len(outcomes) == len(chunk):
                self.store._count_hits(tier, len(chunk))
                return ChunkProbe(
                    keys=keys,
                    chunk_hash=chunk_hash,
                    outcomes=list(outcomes),
                    missing=[],
                    memory_points=len(chunk) if tier == "memory" else 0,
                    disk_points=len(chunk) if tier != "memory" else 0,
                )
            self._chunks.pop(chunk_hash, None)
        outcomes: list = [None] * len(chunk)
        wanted: dict[str, list[tuple[int, int]]] = {}
        for row, key in enumerate(keys):
            entry = self._points.get(key)
            if (
                isinstance(entry, (list, tuple))
                and len(entry) == 2
                and entry[0] not in self._bad_objects
            ):
                wanted.setdefault(entry[0], []).append((row, int(entry[1])))
        memory = disk = 0
        for object_id, rows in wanted.items():
            data, tier = self._load_object(object_id)
            if data is None:
                continue
            for row, source in rows:
                if 0 <= source < len(data):
                    outcomes[row] = data[source]
                    if tier == "memory":
                        memory += 1
                    else:
                        disk += 1
        missing = [row for row, outcome in enumerate(outcomes) if outcome is None]
        self.store._count_hits("memory", memory)
        self.store._count_hits("disk", disk)
        self.store._count_misses(len(missing))
        return ChunkProbe(
            keys=keys,
            chunk_hash=chunk_hash,
            outcomes=outcomes,
            missing=missing,
            memory_points=memory,
            disk_points=disk,
        )

    def _load_object(self, object_id: str):
        """Decoded outcomes of one stored chunk, LRU'd per process."""
        memo_key = ("sweep", object_id)
        cached = self.store._memory_get(memo_key)
        if cached is not None:
            return cached, "memory"
        payload = self.store._read_document(
            self.directory / "objects" / f"{object_id}.json"
        )
        if payload is None or not isinstance(payload.get("outcomes"), list):
            self._bad_objects.add(object_id)
            return None, "disk"
        try:
            outcomes = decode_outcomes(payload["outcomes"])
        except Exception as exc:
            self.store._note_corrupt(
                self.directory / "objects" / f"{object_id}.json",
                f"undecodable outcomes: {exc}",
            )
            self._bad_objects.add(object_id)
            return None, "disk"
        self.store._memory_put(memo_key, outcomes)
        return outcomes, "disk"

    # -- writing -------------------------------------------------------
    def put(
        self,
        chunk: Sequence[Mapping[str, object]],
        outcomes: Sequence[DesignPoint | DomainError],
        probe: ChunkProbe | None = None,
    ) -> None:
        """Store one fully evaluated chunk (idempotent: a chunk the
        index already covers in full is not rewritten).

        Chunks holding quarantined points are not stored: a
        :class:`~repro.core.errors.QuarantinedPoint` is containment
        state (the quarantine ledger's job), not a factory outcome, and
        must not be served to a later sweep running without the ledger.
        """
        if any(isinstance(outcome, QuarantinedPoint) for outcome in outcomes):
            return
        if probe is not None:
            keys, chunk_hash = probe.keys, probe.chunk_hash
        else:
            keys = [point_store_key(params) for params in chunk]
            chunk_hash = chunk_store_key(keys)
        if self._chunks.get(chunk_hash) is not None:
            return
        payload = {
            "factory": self.factory,
            "keys": keys,
            "outcomes": encode_outcomes(outcomes),
        }
        object_id = sha256_hex(canonical_json(payload))
        self.store._ensure_root()
        path = self.directory / "objects" / f"{object_id}.json"
        if not path.exists() and self.store._write_document(path, payload):
            self.store._objects_written += 1
        for row, key in enumerate(keys):
            self._points[key] = [object_id, row]
        self._chunks[chunk_hash] = object_id
        self._bad_objects.discard(object_id)
        self.store._memory_put(("sweep", object_id), list(outcomes))
        self._dirty += 1
        if self._dirty >= FLUSH_EVERY_CHUNKS:
            self.flush()

    def flush(self) -> None:
        """Persist the index (merged over any concurrent writer's), or
        just freshen its mtime after a read-only sweep so ``gc``
        eviction ordering sees the use."""
        index_path = self.directory / "index.json"
        if not self._dirty:
            if self._probed and index_path.exists():
                os.utime(index_path, (time.time(), time.time()))
            return
        on_disk = self.store._read_document(index_path) or {}
        points = on_disk.get("points", {})
        chunks = on_disk.get("chunks", {})
        if not isinstance(points, dict):
            points = {}
        if not isinstance(chunks, dict):
            chunks = {}
        points.update(self._points)
        chunks.update(self._chunks)
        self.store._ensure_root()
        self.store._write_document(
            index_path,
            {"factory": self.factory, "points": points, "chunks": chunks},
        )
        self._points, self._chunks = points, chunks
        self._dirty = 0
