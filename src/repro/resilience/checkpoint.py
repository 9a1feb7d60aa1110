"""Crash-safe checkpoint journals: append-only, checksummed, resumable.

A checkpoint is a journal of lines ``<sha256-hex> <canonical-json>\n``:

* a **header** ``{"format", "kind", "fingerprint"}``: the producer
  (``"sweep"``, ``"montecarlo"``) and everything the run's identity
  depends on (grid axes, chunk size, baseline, weight, factory, sampler
  arguments). Resume refuses a mismatched fingerprint, so a stale file
  can never silently contaminate results;
* one **delta** record per completed chunk (its encoded outcomes, or a
  Monte-Carlo segment's codes plus the RNG state after it). Loading
  folds them in order — lists concatenate, other values are last-wins.

The header is written write-temp → ``fsync`` → atomic rename; each save
appends and fsyncs one record, costing its own chunk, not the run so
far. A crash mid-append leaves a torn line the checksum exposes:
:meth:`CheckpointStore.load` raises on it; :meth:`CheckpointStore.
load_or_restart` logs it, truncates it and resumes from the valid
prefix, so the final output and journal bytes match a fault-free run.

The framing (:func:`frame`/:func:`unframe`) and the durable file
operations (:class:`Journal`) are shared with the result store's
journals in :mod:`repro.dse.store`.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import json
import os
import time
from pathlib import Path
from typing import Callable, Mapping, Sequence

from ..core.design import DesignPoint
from ..core.errors import (
    CheckpointError,
    ConfigurationError,
    DomainError,
    QuarantinedPoint,
)
from ..obs import metrics as _metrics
from ..obs.log import get_logger, kv

__all__ = [
    "CHECKPOINT_FORMAT",
    "CheckpointStore",
    "Journal",
    "frame",
    "unframe",
    "sweep_fingerprint",
    "encode_outcomes",
    "decode_outcomes",
    "describe_factory",
    "canonical_json",
    "sha256_hex",
    "atomic_write_text",
    "set_disk_fault_hook",
    "TRANSIENT_DISK_ERRNOS",
]

#: Format tag written into (and required from) every journal header.
CHECKPOINT_FORMAT = "focal-checkpoint/2"

#: ``OSError`` errnos treated as transient disk faults: a wedged I/O
#: path (EIO) or a momentarily full volume (ENOSPC) often clears within
#: milliseconds; anything else (EACCES, EROFS, ...) is configuration
#: and propagates immediately.
TRANSIENT_DISK_ERRNOS = (errno.EIO, errno.ENOSPC)

#: Bounded retry budget for transient disk faults, and the backoff base
#: between attempts (doubled each retry).
DISK_RETRIES = 3
DISK_BACKOFF_S = 0.01

# Chaos hook: when set (FaultPlan.disk_hook), every durable write calls
# it first so the fault suite can inject OSError deterministically.
_disk_fault_hook: Callable[[Path], None] | None = None


def set_disk_fault_hook(hook: Callable[[Path], None] | None) -> None:
    """Install (or clear, with ``None``) the durable-write fault hook:
    the test-only seam :class:`repro.resilience.faults.FaultPlan` uses
    to fire deterministic ``OSError`` faults inside every durable write
    (:func:`atomic_write_text`, journal appends) without mocking."""
    global _disk_fault_hook
    _disk_fault_hook = hook


def _durably(path: Path, write: Callable[[], None], undo: Callable[[], None],
             sleep: Callable[[float], None] = time.sleep) -> None:
    """Run the durable *write* of *path*; *undo* clears a failed try.

    Transient disk faults (:data:`TRANSIENT_DISK_ERRNOS`) are retried
    up to :data:`DISK_RETRIES` times with doubling backoff, counting
    ``focal_disk_retry_total`` per retry; a persistent fault — or any
    non-transient ``OSError`` — propagates to the caller, which decides
    whether the write is essential (checkpoints raise
    :class:`CheckpointError`) or shed-able (the result store falls back
    to its memory tier).
    """
    for attempt in range(DISK_RETRIES + 1):
        try:
            if _disk_fault_hook is not None:
                _disk_fault_hook(path)
            write()
            return
        except OSError as exc:
            with contextlib.suppress(OSError):
                undo()
            transient = exc.errno in TRANSIENT_DISK_ERRNOS
            if not transient or attempt >= DISK_RETRIES:
                raise
            get_logger().warning(kv(
                "disk.retry", path=str(path), errno=exc.errno,
                attempt=attempt + 1, error=str(exc),
            ))
            registry = _metrics.get_registry()
            if registry.enabled:
                registry.counter(
                    "focal_disk_retry_total",
                    "transient OSError retries on durable writes",
                ).inc()
            sleep(DISK_BACKOFF_S * (2.0**attempt))


def atomic_write_text(path: Path, text: str, *,
                      sleep: Callable[[float], None] = time.sleep) -> None:
    """Durably write *text* to *path*: write-temp, fsync, atomic rename,
    with the transient-fault retries of :func:`_durably`."""
    path = Path(path)
    temp = path.with_name(f"{path.name}.tmp.{os.getpid()}")

    def write() -> None:
        with open(temp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)

    _durably(path, write, temp.unlink, sleep)


class _CorruptCheckpoint(CheckpointError):
    """Internal marker: the file is damaged, which ``load_or_restart``
    recovers from (vs. a kind/fingerprint mismatch, a configuration
    error that always propagates as a plain :class:`CheckpointError`)."""


def canonical_json(payload: object) -> str:
    """The canonical serialization checksums are computed over, shared
    with :mod:`repro.dse.store` so every durable FOCAL file hashes the
    same byte stream for the same payload."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)


def sha256_hex(text: str) -> str:
    """Hex SHA-256 of *text* (the content-checksum primitive)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def frame(payload: object) -> bytes:
    """One journal line: ``<sha256-hex> <canonical-json>\n`` (the
    checksum is computed once, over exactly the body bytes written)."""
    body = canonical_json(payload).encode("utf-8")
    return hashlib.sha256(body).hexdigest().encode("ascii") + b" " + body + b"\n"


def unframe(line: bytes) -> dict | None:
    """The record on one journal line (sans newline); ``None`` if damaged."""
    digest, _, body = line.partition(b" ")
    if hashlib.sha256(body).hexdigest().encode("ascii") != digest:
        return None
    try:
        record = json.loads(body)
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


class Journal:
    """One append-only file of :func:`frame` lines. :meth:`create`
    writes the header temp → ``fsync`` → rename; :meth:`append` writes
    one record at :attr:`end`, cuts off whatever followed it (a torn
    tail) and fsyncs, truncating a failed try back before its retry.
    ``OSError`` from a fault that persists propagates to the caller."""

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self.end: int | None = None  # append offset; None = no journal yet

    def lines(self) -> tuple[list[bytes], bytes]:
        """The newline-terminated lines (sans newline) and the torn
        tail after the last one (``b""`` when the last append finished)."""
        *lines, tail = self.path.read_bytes().split(b"\n")
        return lines, tail

    def create(self, header: Mapping) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(self.path, frame(header).decode("utf-8"))
        # Durability of the rename (best-effort: not every platform
        # opens directories).
        with contextlib.suppress(OSError):
            fd = os.open(self.path.parent, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        self.end = self.path.stat().st_size

    def append(self, record: bytes) -> None:
        start = self.end

        def write() -> None:
            with open(self.path, "r+b") as handle:
                handle.seek(start)
                handle.write(record)
                handle.truncate()
                handle.flush()
                os.fsync(handle.fileno())

        _durably(self.path, write, lambda: os.truncate(self.path, start))
        self.end = start + len(record)


class CheckpointStore:
    """One checkpoint journal with appending saves and checksum-verified
    loads. A store appends to the journal it last saved to or resumed
    (:meth:`load_or_restart`); otherwise its next save starts afresh."""

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self._journal = Journal(self.path)

    @classmethod
    def coerce(
        cls, value: "CheckpointStore | str | os.PathLike | None"
    ) -> "CheckpointStore | None":
        """``None`` passes through; paths become stores."""
        if value is None or isinstance(value, cls):
            return value
        return cls(value)

    @classmethod
    def open(
        cls,
        value: "CheckpointStore | str | os.PathLike | None",
        *,
        resume: bool,
        kind: str,
        fingerprint: Mapping | None,
    ) -> "tuple[CheckpointStore | None, dict | None]":
        """*value* coerced for one run, with the state to resume from:
        :meth:`load_or_restart`'s under *resume*, else ``None`` after
        removing any old journal (the run starts afresh). Resuming
        without a checkpoint is a :class:`ConfigurationError`."""
        store = cls.coerce(value)
        if store is None:
            if resume:
                raise ConfigurationError(
                    "resume=True requires a checkpoint path to resume from"
                )
            return None, None
        if not resume:
            store.remove()
            return store, None
        return store, store.load_or_restart(kind=kind, fingerprint=fingerprint)

    def exists(self) -> bool:
        return self.path.exists()

    def remove(self) -> None:
        """Delete the checkpoint file if present; the next save starts afresh."""
        self._journal.end = None
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass

    # ------------------------------------------------------------------
    # Saving
    # ------------------------------------------------------------------
    def save(self, *, kind: str, fingerprint: Mapping, state: Mapping) -> None:
        """Append *state* — one chunk's delta — as a checksummed record,
        after atomically writing a new journal's header. A transient disk
        fault truncates the append back to its start and retries; a write
        that still fails raises :class:`CheckpointError`, so callers can
        continue without checkpointing rather than abort the run."""
        record = frame(state)
        try:
            if self._journal.end is None:
                self._journal.create({"format": CHECKPOINT_FORMAT, "kind": kind,
                                      "fingerprint": fingerprint})
            self._journal.append(record)
        except OSError as exc:
            raise CheckpointError(
                f"checkpoint {self.path} could not be written: {exc}"
            ) from exc

    def save_or_warn(self, *, kind: str, fingerprint: Mapping, state: Mapping) -> bool:
        """:meth:`save`, but a failure is logged and returned as
        ``False``: a dead checkpoint must not kill a live run, which
        continues without checkpointing."""
        try:
            self.save(kind=kind, fingerprint=fingerprint, state=state)
        except CheckpointError as exc:
            get_logger().warning(
                kv("checkpoint.disabled", path=str(self.path), error=str(exc))
            )
            return False
        return True

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def load(self, *, kind: str, fingerprint: Mapping) -> dict:
        """The folded state, or :class:`CheckpointError` on any problem
        (missing file, damaged record, wrong kind, fingerprint mismatch)."""
        return self._verify(self._read_payload(), kind, fingerprint)["state"]

    def _verify(self, payload: dict, kind: str, fingerprint: Mapping) -> dict:
        if payload.get("kind") != kind:
            raise CheckpointError(
                f"checkpoint {self.path} holds a {payload.get('kind')!r} "
                f"run, expected {kind!r}"
            )
        if canonical_json(payload.get("fingerprint")) != canonical_json(fingerprint):
            raise CheckpointError(
                f"checkpoint {self.path} was written by a different run "
                "configuration (grid/chunk-size/baseline/weight/factory "
                "fingerprint mismatch); delete it or point --checkpoint "
                "at a fresh path"
            )
        return payload

    def load_or_restart(self, *, kind: str, fingerprint: Mapping) -> dict | None:
        """Resume-friendly load: ``None`` means "start cold" (missing
        file, damaged or unknown-format header such as an old
        ``focal-checkpoint/1`` file, or no whole record). A torn or
        corrupt tail is logged, counted and truncated away; the valid
        prefix is returned and the store appends after it. A *kind or
        fingerprint mismatch* still raises: that is a configuration
        error the user must resolve, not damage."""
        if not self.path.exists():
            return None
        try:
            payload, end, damage = self._replay()
        except _CorruptCheckpoint as exc:
            self._note_corrupt(str(exc))
            return None
        self._verify(payload, kind, fingerprint)
        if damage is not None:
            self._note_corrupt(damage)
            # An unwritable journal is left as is: its next save fails
            # and the run continues without checkpointing.
            with contextlib.suppress(OSError):
                os.truncate(self.path, end)
        self._journal.end = end
        return payload["state"] or None

    def _note_corrupt(self, reason: str) -> None:
        get_logger().warning(kv("checkpoint.corrupt", path=str(self.path), reason=reason))
        registry = _metrics.get_registry()
        if registry.enabled:
            registry.counter(
                "focal_checkpoint_corrupt_total",
                "damaged checkpoint journals repaired or discarded on resume",
            ).inc()

    def _read_payload(self) -> dict:
        payload, _, damage = self._replay()  # strict: no damage allowed
        if damage is not None:
            raise _CorruptCheckpoint(damage)
        return payload

    def _replay(self) -> tuple[dict, int, str | None]:
        """Fold the valid prefix: ``(payload, end offset, damage)``;
        *damage* names the first bad record. A bad header raises."""
        try:
            lines, tail = self._journal.lines()
        except FileNotFoundError:
            raise CheckpointError(f"checkpoint {self.path} does not exist")
        except OSError as exc:
            raise CheckpointError(f"checkpoint {self.path} unreadable: {exc}")
        header = unframe(lines[0]) if lines else None
        if header is None or header.get("format") != CHECKPOINT_FORMAT:
            raise _CorruptCheckpoint(f"checkpoint {self.path} does not start with a "
                                     f"{CHECKPOINT_FORMAT!r} header (older format, or damaged)")
        state: dict = {}
        end, damage = len(lines[0]) + 1, None
        for number, line in enumerate(lines[1:], start=1):
            record = unframe(line)
            if record is None:
                damage = f"record {number} failed its checksum (corrupted)"
                break
            for key, value in record.items():
                if isinstance(value, list):
                    state.setdefault(key, []).extend(value)
                else:
                    state[key] = value
            end += len(line) + 1
        else:
            damage = f"record {len(lines)} is torn (crash mid-append?)" if tail else None
        header["state"] = state
        return header, end, damage


# ----------------------------------------------------------------------
# Sweep-specific encoding
#
# Design points are serialized with float hex so a resumed sweep rebuilds
# arrays and cache entries bit-for-bit; DomainError outcomes keep their
# message (the one observable the engine relies on).
# ----------------------------------------------------------------------
def describe_factory(factory: object) -> str:
    """A run-stable identity string for a design factory.

    Functions are named by module + qualname (their ``repr`` embeds a
    memory address, which would make every fingerprint unique); class
    instances use ``repr``, which for the stock frozen-dataclass
    factories encodes their configuration values.
    """
    qualname = getattr(factory, "__qualname__", None)
    if qualname is not None:
        return f"{getattr(factory, '__module__', '?')}.{qualname}"
    return repr(factory)


def _jsonable_axis(values: Sequence[object]) -> list:
    out = []
    for value in values:
        if isinstance(value, (bool, int, str)) or value is None:
            out.append(value)
        else:
            # numpy scalars and plain floats: shortest-repr JSON floats
            # roundtrip bit-exactly, so float() is identity-preserving.
            out.append(float(value))
    return out


def sweep_fingerprint(
    *,
    axes: Mapping[str, Sequence[object]],
    chunk_size: int,
    baseline: DesignPoint,
    alpha: float,
    factory: object,
) -> dict:
    """Everything a sweep's results depend on, as a JSON-able mapping."""
    return {
        "axes": {name: _jsonable_axis(values) for name, values in axes.items()},
        "chunk_size": chunk_size,
        "baseline": {
            "name": baseline.name,
            "area": baseline.area.hex(),
            "perf": baseline.perf.hex(),
            "power": baseline.power.hex(),
        },
        "alpha": float(alpha).hex(),
        "factory": describe_factory(factory),
    }


def encode_outcomes(outcomes: Sequence[DesignPoint | DomainError]) -> list[list]:
    """One JSON row per outcome: designs as float hex, errors by message.

    Quarantined points get their own tag (``"q"``) so a resumed sweep
    restores them as :class:`QuarantinedPoint` — still an excluded
    outcome, but one the engine keeps reporting as quarantined.
    """
    rows: list[list] = []
    for outcome in outcomes:
        if isinstance(outcome, QuarantinedPoint):
            rows.append(["q", str(outcome)])
        elif isinstance(outcome, DomainError):
            rows.append(["e", str(outcome)])
        else:
            rows.append(["d", outcome.name, outcome.area.hex(),
                         outcome.perf.hex(), outcome.power.hex()])
    return rows


def decode_outcomes(rows: Sequence[Sequence]) -> list[DesignPoint | DomainError]:
    """Invert :func:`encode_outcomes` (bit-exact design fields)."""
    outcomes: list[DesignPoint | DomainError] = []
    for row in rows:
        try:
            tag = row[0]
            if tag == "d":
                _, name, area, perf, power = row
                outcomes.append(DesignPoint(
                    name=name, area=float.fromhex(area),
                    perf=float.fromhex(perf), power=float.fromhex(power),
                ))
            elif tag == "e":
                outcomes.append(DomainError(row[1]))
            elif tag == "q":
                outcomes.append(QuarantinedPoint(row[1]))
            else:
                raise ValueError(f"unknown outcome tag {tag!r}")
        except (ValueError, TypeError, IndexError) as exc:
            raise CheckpointError(
                f"checkpoint outcome row {row!r} is undecodable: {exc}"
            ) from exc
    return outcomes
