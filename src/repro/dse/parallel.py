"""Shared-memory shard dispatch for the parallel columnar sweep path.

A FOCAL design point costs microseconds, so the only sweep a process
pool pays on is a whole cold columnar sweep. This module provides the
plumbing for that one pool path of :class:`~repro.dse.batch.
BatchExplorer`:

* :class:`ColumnarBlock` — one flat buffer holding the sweep's
  area/perf/power/valid columns for *every* grid point, backed by a
  ``multiprocessing.shared_memory`` segment;
* :class:`GridArena` — the sweep's *input* grid columns published once
  into a read-only sibling segment, so a shard job shrinks to
  ``(lo, hi, seq)`` and workers slice the resident columns locally;
* :func:`plan_steal_runs` — contiguous, chunk-aligned ``[lo, hi)``
  spans of the grid, geometrically shrinking toward the tail so one
  future per shard on the executor's shared call queue behaves like a
  work-stealing scheduler — idle workers pull the next shard, and
  stragglers can at most hold one tail-sized shard;
* worker-side state and entry points — the factory and the shared
  segments ship **once per pool** through :func:`init_columnar_worker`;
  a job is an ``(lo, hi, seq)`` index triple and its results land in
  the shared block. No ``DesignPoint`` ever crosses the process
  boundary.

When either shared-memory segment cannot be created (no ``/dev/shm``,
size limits, sandboxing), :meth:`ColumnarBlock.allocate` /
:meth:`GridArena.publish` return ``None`` and the sweep runs
in-process columnar instead.

Everything here is byte-neutral: the kernels run unchanged, the parent
re-reads the same float64/bool columns the single-process path would
have produced, and invalid rows are still re-evaluated scalar in the
parent to capture genuine ``DomainError`` objects.

The parent process mirrors the worker initialization via
:func:`set_worker_state` so :class:`~repro.resilience.supervisor.
SupervisedPool` degradation (jobs re-run in-process) evaluates the same
module-level functions the workers do.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Mapping, Sequence

import numpy as np

from ..core.errors import ConfigurationError
from ..obs import events as _events
from ..resilience import containment as _containment

__all__ = [
    "ColumnarBlock",
    "GridArena",
    "hostable",
    "plan_steal_runs",
    "live_blocks",
    "set_worker_state",
    "clear_worker_state",
    "init_columnar_worker",
    "eval_shard",
    "split_shard_job",
    "shard_job_point",
]

#: Bytes per grid point in a :class:`ColumnarBlock`:
#: three float64 result columns plus one bool validity flag.
BYTES_PER_POINT = 3 * 8 + 1

#: Guided-scheduling divisor for :func:`plan_steal_runs`: each shard
#: takes ``remaining_chunks // (workers * STEAL_FACTOR)`` chunks, so
#: early shards are large (low dispatch overhead) and tail shards
#: shrink geometrically down to one chunk (a straggler can only hold
#: the queue for one chunk's worth of work).
STEAL_FACTOR = 2

#: Shared-memory segment names this process created and has not yet
#: unlinked — the leak detector the interrupt-hygiene tests assert on.
_LIVE_NAMES: set[str] = set()

#: Per-process worker state, installed once per pool by the initializers
#: (and mirrored in the parent for in-process degradation).
_STATE: dict = {}


def live_blocks() -> frozenset[str]:
    """Shared-memory segment names created here and not yet unlinked."""
    return frozenset(_LIVE_NAMES)


def _create_segment(nbytes: int):
    """A new shared-memory segment, or ``None`` when none can be
    created — the sweep then runs in-process."""
    try:
        from multiprocessing import shared_memory

        return shared_memory.SharedMemory(create=True, size=nbytes)
    except Exception:
        return None


def _attach_segment(name: str):
    """Attach to a parent-created shared-memory segment by name.

    On Python < 3.13 shm attachment re-registers the segment with the
    ``resource_tracker`` (python/cpython#82300). Pool workers are
    children of the sweep's parent and share its tracker process, where
    registrations collapse into one set entry — so the re-register is
    harmless, and explicitly unregistering here would be wrong: it
    would strip the *parent's* registration and make its ``unlink``
    complain about an unknown name.
    """
    from multiprocessing import shared_memory

    return shared_memory.SharedMemory(name=name)


class ColumnarBlock:
    """The sweep's result columns over one flat buffer.

    Layout over ``total`` points: ``area``/``perf``/``power`` as
    consecutive float64 columns, then ``valid`` as a bool column. The
    buffer is a shared-memory segment: workers write their shard rows
    directly.
    """

    def __init__(self, total: int, shm, owner: bool) -> None:
        self.total = total
        self._shm = shm
        self._owner = owner
        buf = shm.buf
        self.area = np.frombuffer(buf, dtype=np.float64, count=total, offset=0)
        self.perf = np.frombuffer(
            buf, dtype=np.float64, count=total, offset=8 * total
        )
        self.power = np.frombuffer(
            buf, dtype=np.float64, count=total, offset=16 * total
        )
        self.valid = np.frombuffer(
            buf, dtype=np.bool_, count=total, offset=24 * total
        )

    @classmethod
    def allocate(cls, total: int) -> "ColumnarBlock | None":
        """A new shared-memory block, or ``None`` when none can be
        created (no /dev/shm, size limits, sandboxing), in which case
        the sweep runs in-process."""
        shm = _create_segment(max(1, total * BYTES_PER_POINT))
        if shm is None:
            return None
        _LIVE_NAMES.add(shm.name)
        return cls(total, shm, owner=True)

    @classmethod
    def attach(cls, name: str, total: int) -> "ColumnarBlock":
        """Attach to the parent's segment (worker-side)."""
        return cls(total, _attach_segment(name), owner=False)

    @property
    def name(self) -> str:
        """The shared-memory segment name."""
        return self._shm.name

    @property
    def nbytes(self) -> int:
        """Shared-memory bytes backing the block."""
        return self._shm.size

    def write(
        self,
        start: int,
        stop: int,
        area: np.ndarray,
        perf: np.ndarray,
        power: np.ndarray,
        valid: np.ndarray,
    ) -> None:
        """Fill rows ``[start, stop)`` — idempotent, so re-dispatched
        shards (retry, respawn, degradation) may write twice."""
        self.area[start:stop] = area
        self.perf[start:stop] = perf
        self.power[start:stop] = power
        self.valid[start:stop] = valid

    def rows(
        self, start: int, stop: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Copies of rows ``[start, stop)`` — copies, not views, so the
        segment can be unlinked while results are still referenced."""
        return (
            np.array(self.area[start:stop]),
            np.array(self.perf[start:stop]),
            np.array(self.power[start:stop]),
            np.array(self.valid[start:stop]),
        )

    def release(self) -> None:
        """Drop the buffer views, close the mapping and (as the owner)
        unlink the segment. Safe to call more than once."""
        shm, self._shm = self._shm, None
        self.area = self.perf = self.power = self.valid = None  # type: ignore[assignment]
        if shm is None:
            return
        try:
            shm.close()
        except BufferError:  # pragma: no cover - stray exported view
            pass
        if self._owner:
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            _LIVE_NAMES.discard(shm.name)


#: Axis dtypes a :class:`GridArena` can host: bool, signed/unsigned
#: integer, float. A sweep over anything else (strings, objects) runs
#: in-process.
_ARENA_KINDS = "biuf"


def hostable(axes: Mapping[str, Sequence]) -> bool:
    """Whether every axis of a grid can live in a :class:`GridArena`
    (1-D numeric values) — the precondition of a pooled sweep."""
    return _arena_layout(axes) is not None


def _arena_layout(
    columns: Mapping[str, np.ndarray],
) -> tuple[list[tuple[str, str, int]], int] | None:
    """Pack axis columns into ``(name, dtype, offset)`` triples plus the
    total byte size, or ``None`` when a column cannot be hosted."""
    layout: list[tuple[str, str, int]] = []
    offset = 0
    for name, col in columns.items():
        arr = np.asarray(col)
        if arr.ndim != 1 or arr.dtype.kind not in _ARENA_KINDS:
            return None
        offset = -(-offset // 16) * 16  # 16-byte align every column
        layout.append((name, arr.dtype.str, offset))
        offset += arr.nbytes
    return layout, max(1, offset)


class GridArena:
    """The sweep's *input* grid columns, resident in one shared segment.

    Published once per sweep by the parent; workers attach through the
    pool initializer and slice ``[lo, hi)`` locally, so a shard job is
    three integers instead of a pickled column dict. Views handed out
    by :meth:`columns` are read-only — a factory scribbling on its
    inputs would otherwise corrupt every other shard's rows.
    """

    def __init__(
        self,
        segment,
        layout: list[tuple[str, str, int]],
        total: int,
        owner: bool,
    ) -> None:
        self._seg = segment
        self._owner = owner
        self.layout = layout
        self.total = total
        self._cols: dict[str, np.ndarray] = {}
        for name, dtype, offset in layout:
            view = np.frombuffer(
                segment.buf, dtype=np.dtype(dtype), count=total, offset=offset
            )
            self._cols[name] = view

    @classmethod
    def publish(cls, columns: Mapping[str, np.ndarray]) -> "GridArena | None":
        """Copy *columns* into a new shared segment, or ``None`` when
        the columns cannot be hosted (non-numeric axes) or no shared
        backing is available — the sweep then runs in-process."""
        if not columns:
            return None
        packed = _arena_layout(columns)
        if packed is None:
            return None
        layout, nbytes = packed
        total = len(next(iter(columns.values()))) if columns else 0
        segment = _create_segment(nbytes)
        if segment is None:
            return None
        _LIVE_NAMES.add(segment.name)
        arena = cls(segment, layout, total, owner=True)
        for name, col in columns.items():
            arena._cols[name][:] = np.asarray(col)
        return arena

    @classmethod
    def attach(
        cls, name: str, layout: list[tuple[str, str, int]], total: int
    ) -> "GridArena":
        """Attach to the parent's published grid (worker-side)."""
        return cls(_attach_segment(name), layout, total, owner=False)

    @property
    def name(self) -> str:
        return self._seg.name

    @property
    def nbytes(self) -> int:
        """Shared-memory bytes backing the arena."""
        return self._seg.size

    def columns(self, lo: int, hi: int) -> dict[str, np.ndarray]:
        """Read-only views of rows ``[lo, hi)`` of every axis column."""
        out: dict[str, np.ndarray] = {}
        for name, view in self._cols.items():
            sliced = view[lo:hi]
            sliced.flags.writeable = False
            out[name] = sliced
        return out

    def release(self) -> None:
        """Drop the views, close the mapping and (as the owner) unlink
        the segment. Safe to call more than once."""
        seg, self._seg = self._seg, None
        self._cols = {}
        if seg is None:
            return
        try:
            seg.close()
        except BufferError:  # pragma: no cover - stray exported view
            pass
        if self._owner:
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            _LIVE_NAMES.discard(seg.name)


def plan_steal_runs(
    runs: list[tuple[int, int]], chunk_size: int, workers: int
) -> list[tuple[int, int]]:
    """Guided shard spans for the work-stealing scheduler.

    Checkpoint resume skips a prefix, and a persistent result store can
    satisfy *any* subset of chunks — what remains to evaluate is a list
    of contiguous ``[lo, hi)`` point *runs*. Spans are chunk-aligned and
    never straddle two runs (the gap between them is already-known work
    whose block rows must stay untouched), and sized geometrically:
    each successive shard takes ``remaining_chunks // (workers *
    STEAL_FACTOR)`` chunks (never less than one). Early shards are
    large — few task messages
    while every worker is busy anyway — and tail shards shrink toward
    single chunks, so when the queue drains, no worker can be left
    holding more than one chunk of work while the others idle. One
    executor future per span turns the pool's shared call queue into
    the steal queue: whichever worker goes idle first pulls the next
    span.
    """
    pending: list[tuple[int, int, int]] = []
    remaining = 0
    for lo, hi in runs:
        if hi > lo:
            chunks = -(-(hi - lo) // chunk_size)
            pending.append((lo, hi, chunks))
            remaining += chunks
    divisor = max(1, workers) * STEAL_FACTOR
    spans: list[tuple[int, int]] = []
    for lo, hi, chunks in pending:
        cursor = lo
        left = chunks
        while left > 0:
            take = min(left, max(1, remaining // divisor))
            span_hi = min(cursor + take * chunk_size, hi)
            spans.append((cursor, span_hi))
            cursor = span_hi
            left -= take
            remaining -= take
    return spans


# ----------------------------------------------------------------------
# Worker-side state and entry points
# ----------------------------------------------------------------------
def set_worker_state(
    factory: Callable,
    block: ColumnarBlock | None,
    grid: GridArena | None = None,
) -> None:
    """Install this process's sweep state (factory + shared segments).

    Called by the pool initializer in each worker and by the parent
    before dispatch, so in-process degradation and thread-pool
    executors evaluate exactly what worker processes would.
    """
    _STATE["factory"] = factory
    _STATE["block"] = block
    _STATE["grid"] = grid


def clear_worker_state() -> None:
    """Drop the sweep state (parent-side, after the pool is gone)."""
    _STATE.clear()
    _events.get_buffer().disable()


def init_columnar_worker(
    factory: Callable,
    shm_name: str,
    total: int,
    grid: tuple[str, list[tuple[str, str, int]], int],
    capture: bool = False,
    event_dir: str | None = None,
) -> None:
    """Pool initializer: factory plus one attachment each to the
    parent's result block and published grid arena. *grid* is a
    ``(name, layout, total)`` descriptor — three small values,
    shipped once per worker.

    With *capture* the worker's event buffer is armed first, so the
    shared-memory attach itself lands on the timeline (``worker.init``).
    """
    _events.init_worker(capture, event_dir)
    buf = _events.get_buffer()
    t0 = buf.now()
    block = ColumnarBlock.attach(shm_name, total)
    arena = GridArena.attach(*grid)
    buf.add(
        "worker.init",
        start=t0,
        dur_s=buf.now() - t0,
        attach_s=buf.now() - t0,
    )
    set_worker_state(factory, block, arena)


def eval_shard(job):
    """Run the vector kernel over one shard's rows of the resident grid.

    ``job`` is ``(start, stop, seq)``: the worker slices its columns
    from the process-resident :class:`GridArena`, and the factory's
    ``batch_arrays`` output lands in the shared block's rows
    ``[start, stop)``. The reply is ``(start, stop, busy_seconds,
    worker_pid, events-or-None)`` — compact numbers, never DesignPoint
    objects.

    When this worker's event buffer is armed (pool initializer with
    ``capture=True``) the shard leaves a ``heartbeat`` instant plus
    ``shard``/``factory.compute``/``shm.write`` duration events, drained
    into the reply so the parent can merge them without extra IPC. The
    ``shard`` event carries the kernel's wall seconds (``compute_s``)
    and its thread CPU seconds (``cpu_s``): on an oversubscribed host
    only the latter measures work done.
    """
    _containment.beat()
    start, stop, seq = job
    arena = _STATE.get("grid")
    if arena is None:
        raise ConfigurationError(
            "shard job dispatched to a worker without a grid arena"
        )
    columns = arena.columns(start, stop)
    factory = _STATE["factory"]
    buf = _events.get_buffer()
    capture = buf.enabled
    if capture:
        t0 = buf.now()
        buf.add("heartbeat", start=t0, lo=start, hi=stop)
    cpu_begin = time.thread_time()
    begin = time.perf_counter()
    arrays = factory.batch_arrays(columns)
    busy = time.perf_counter() - begin
    cpu_s = time.thread_time() - cpu_begin
    if len(arrays) != stop - start:
        raise ConfigurationError(
            f"batch_arrays returned {len(arrays)} rows for a "
            f"{stop - start}-point shard"
        )
    shm_begin = time.perf_counter()
    _STATE["block"].write(
        start, stop, arrays.area, arrays.perf, arrays.power, arrays.valid
    )
    shm_s = time.perf_counter() - shm_begin
    if capture:
        end = buf.now()
        buf.add("factory.compute", start=end - shm_s - busy, dur_s=busy)
        buf.add("shm.write", start=end - shm_s, dur_s=shm_s)
        buf.add(
            "shard",
            start=t0,
            dur_s=end - t0,
            lo=start,
            hi=stop,
            seq=seq,
            points=stop - start,
            compute_s=busy,
            cpu_s=cpu_s,
            shm_s=shm_s,
        )
    return (start, stop, busy, os.getpid(), buf.drain() if capture else None)


def split_shard_job(job):
    """Halve one shard job for quarantine bisection, or ``None``.

    ``job`` is the ``(start, stop, seq)`` triple :func:`eval_shard`
    takes; halves split by index arithmetic alone, so bisection probes
    evaluate exactly the rows the original shard would have. A
    single-row shard is atomic (returns ``None``) — that row *is* the
    candidate poison point.
    """
    start, stop, seq = job
    if stop - start <= 1:
        return None
    mid = start + (stop - start) // 2
    return ((start, mid, seq), (mid, stop, seq))


def shard_job_point(job):
    """The grid-point parameters of a single-row shard job (for the
    quarantine ledger), or ``None`` for a multi-row shard."""
    start, stop, _ = job
    if stop - start != 1:
        return None
    columns = _STATE["grid"].columns(start, stop)
    return {name: col[0].item() for name, col in columns.items()}
