"""The vectorized batch-evaluation engine for design-space sweeps.

:class:`~repro.dse.explorer.Explorer` evaluates one grid point at a
time; every NCF and every verdict is a scalar Python call. This module
provides the production path for large sweeps:

* :class:`BatchExplorer` streams grid points in chunks, evaluates the
  design factory, collects
  the area/energy/power ratios into arrays, and computes all NCFs,
  classifications and category histograms in single vectorized passes
  over :mod:`repro.core.batch` kernels;
* :class:`FactoryCache` memoizes factory evaluations on parameter
  tuples, so ``subgrid`` and tornado re-sweeps never re-evaluate a
  design (invalid corners — ``DomainError`` — are memoized too);
* :class:`VectorFactory` is the columnar protocol for the *cold* path:
  a factory that additionally maps a whole grid chunk (one NumPy
  column per axis) to :class:`DesignArrays` in a few vectorized
  passes. A cold sweep of such a factory never evaluates the scalar
  substrate point-by-point (see :mod:`repro.dse.factories` for the
  stock implementations); warm sweeps keep the scalar + cache path,
  which is already a dict probe per point;
* with ``workers > 0`` a cold vector-factory sweep runs
  **parallel-columnar**: the grid's axis columns are published once
  into shared memory, sharded into contiguous, chunk-aligned spans
  (one job per span, never per point), and workers run
  ``batch_arrays`` over their shard and write the result columns into
  one shared block (see :mod:`repro.dse.parallel`). The factory ships
  once per pool via an initializer; no DesignPoint ever crosses the
  process boundary. The parent then materializes points, re-evaluates
  invalid rows scalar to capture genuine ``DomainError`` objects, and
  fills the cache — byte-identical to ``workers=0``. Every other
  sweep (warm cache, scalar-only factory, non-numeric axis, no shared
  backing) runs in-process whatever ``workers`` says: a design point
  costs microseconds, so only a whole cold columnar sweep repays a pool;
* :class:`BatchSweepResult` holds the sweep as arrays and converts back
  to the scalar :class:`~repro.dse.explorer.ExplorationResult` objects
  on demand.

``BatchExplorer.explore`` is byte-identical to ``Explorer.explore``:
same point ordering, same skip semantics for invalid corners, and
bit-exact NCF values (the kernels perform the same IEEE-754 operations
as the scalar path).

Resilience (:mod:`repro.resilience`) is layered on without touching the
numbers: handing the explorer a
:class:`~repro.resilience.policy.RetryPolicy` routes worker dispatch
through a :class:`~repro.resilience.supervisor.SupervisedPool` (crash
recovery, chunk timeouts, bounded retry, in-process degradation), and
``explore_arrays(..., checkpoint=..., resume=True)`` persists
chunk-granular progress through an append-only, checksummed
:class:`~repro.resilience.checkpoint.CheckpointStore` journal (one
record per completed chunk) so a killed sweep
resumes bit-exactly — same result arrays, same cache contents — from
the last completed chunk.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from itertools import product
from typing import (
    Callable,
    Iterable,
    Iterator,
    Mapping,
    Protocol,
    Sequence,
    runtime_checkable,
)

import numpy as np

from ..core.batch import (
    CATEGORIES,
    categories_from_codes,
    category_counts,
    classify_arrays,
    ncf_values,
)
from ..core.classify import Sustainability
from ..core.design import DesignPoint
from ..core.errors import (
    CheckpointError,
    ConfigurationError,
    DomainError,
    QuarantinedPoint,
    ValidationError,
)
from ..core.scenario import E2OWeight
from ..obs import events as _events
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..obs.log import get_logger, kv
from ..obs.manifest import usable_cpus
from ..resilience.checkpoint import (
    CheckpointStore,
    decode_outcomes,
    describe_factory,
    encode_outcomes,
    sweep_fingerprint,
)
from ..resilience.containment import (
    INCOMPLETE,
    BisectOutcome,
    FailureReport,
    QuarantineLedger,
    QuarantineSession,
)
from ..resilience.policy import RetryPolicy, SupervisionStats
from ..resilience.supervisor import SupervisedPool
from . import parallel as _parallel
from .explorer import DesignFactory, ExplorationResult
from .grid import ParameterGrid
from .store import ChunkProbe, ResultStore, SweepStoreSession

__all__ = [
    "params_key",
    "params_keys",
    "CacheStats",
    "FactoryCache",
    "DesignArrays",
    "VectorFactory",
    "is_vector_factory",
    "SweepEngineStats",
    "BatchSweepResult",
    "BatchExplorer",
]


def params_key(params: Mapping[str, object]) -> tuple:
    """Hashable cache key for one grid point: sorted ``(name, value)``
    pairs, so dict insertion order never splits the cache. Plain tuple
    sort is safe — axis names are unique, so values never compare."""
    return tuple(sorted(params.items()))


def params_keys(chunk: Sequence[Mapping[str, object]]) -> list[tuple]:
    """:func:`params_key` for every point of one grid chunk.

    Chunks of one grid share a single axis set, so the sorted name
    order is computed once for the whole chunk — the only difference
    from mapping :func:`params_key` over the points, and one the
    test suite pins down: the keys are identical, so the scalar,
    columnar and restore paths can never drift apart on key shape.
    """
    names = sorted(chunk[0])
    return [
        tuple([(name, params[name]) for name in names]) for params in chunk
    ]


@dataclass(frozen=True)
class CacheStats:
    """One consistent snapshot of a :class:`FactoryCache`'s counters."""

    hits: int
    misses: int
    size: int

    @property
    def lookups(self) -> int:
        """Total lookups observed (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Hits over lookups; 0.0 before any lookup happened."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": self.hit_ratio,
            "size": self.size,
        }


class FactoryCache:
    """Memoizes a design factory on parameter tuples.

    A sweep engine re-visits grid points constantly — ``subgrid`` pins,
    tornado re-sweeps, chart re-draws — and factories are pure functions
    of their parameters, so each distinct point needs evaluating exactly
    once. ``DomainError`` outcomes (invalid corners the explorer skips)
    are memoized as well.

    The cache is shareable: hand the same instance to several
    :class:`BatchExplorer` objects sweeping the same factory.
    Effectiveness is reported through :meth:`stats` (hits, misses, hit
    ratio, size); every path that bumps the counters goes through the
    single :meth:`record` choke point.
    """

    def __init__(self, factory: DesignFactory) -> None:
        self.factory = factory
        self._entries: dict[tuple, DesignPoint | DomainError] = {}
        self._hits = 0
        self._misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hits(self) -> int:
        """Lookups served from memo (read-only; see :meth:`record`)."""
        return self._hits

    @property
    def misses(self) -> int:
        """Lookups that ran the factory (read-only)."""
        return self._misses

    def record(self, *, hits: int = 0, misses: int = 0) -> None:
        """Bump the counters — the one place they change, so batched
        hot loops and single-point lookups can't drift apart."""
        self._hits += hits
        self._misses += misses

    def stats(self) -> CacheStats:
        """Snapshot of hits, misses, hit ratio and entry count."""
        return CacheStats(hits=self._hits, misses=self._misses, size=len(self._entries))

    def reset(self) -> None:
        """Zero the hit/miss counters (keeps memoized entries)."""
        self._hits = 0
        self._misses = 0

    def clear(self) -> None:
        """Drop all memoized evaluations (keeps hit/miss counters)."""
        self._entries.clear()

    def lookup(self, key: tuple) -> DesignPoint | DomainError | None:
        """The memoized outcome for *key*, or ``None`` when unseen."""
        return self._entries.get(key)

    def store(self, key: tuple, outcome: DesignPoint | DomainError) -> None:
        """Memoize a factory *outcome* (a design or a ``DomainError``)."""
        self._entries[key] = outcome

    def store_many(
        self,
        keys: Sequence[tuple],
        outcomes: Sequence[DesignPoint | DomainError],
        *,
        hits: int = 0,
        misses: int = 0,
    ) -> None:
        """Bulk-memoize a chunk's outcomes under its :func:`params_key`
        keys, bumping the counters once.

        The public API the batched paths (columnar, parallel-columnar,
        checkpoint restore) store through, so they share key
        construction with the scalar path instead of poking
        ``_entries`` with hand-rolled tuples.
        """
        if len(keys) != len(outcomes):
            raise ValidationError(
                f"store_many got {len(keys)} keys for {len(outcomes)} outcomes"
            )
        entries = self._entries
        for key, outcome in zip(keys, outcomes):
            entries[key] = outcome
        self.record(hits=hits, misses=misses)

    def evaluate(self, params: Mapping[str, object]) -> DesignPoint | DomainError:
        """Evaluate (or recall) one point; returns rather than raises
        the ``DomainError`` so batch paths can branch without except."""
        key = params_key(params)
        outcome = self._entries.get(key)
        if outcome is not None:
            self.record(hits=1)
            return outcome
        self.record(misses=1)
        try:
            outcome = self.factory(params)
        except DomainError as exc:
            outcome = exc
        self._entries[key] = outcome
        return outcome

    def __call__(self, params: Mapping[str, object]) -> DesignPoint:
        """Drop-in memoized factory: raises the memoized ``DomainError``
        for invalid corners, exactly like the wrapped factory."""
        outcome = self.evaluate(params)
        if isinstance(outcome, DomainError):
            raise outcome
        return outcome


class _SalvageAbort(Exception):
    """Internal: the supervisor salvaged an irrecoverable pool — stop
    the chunk loop, keep the completed prefix, report the failure."""


def _chunked(
    points: Iterable[Mapping[str, object]], size: int
) -> Iterator[list[Mapping[str, object]]]:
    chunk: list[Mapping[str, object]] = []
    for point in points:
        chunk.append(point)
        if len(chunk) >= size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


@dataclass
class _StoreUse:
    """Per-sweep tally of what the persistent store contributed.

    ``memo_points``/``fresh_points`` are *not* here — those fall out of
    the cache-counter deltas (store- and checkpoint-served points bump
    neither counter, exactly like checkpoint restore always worked).
    The fields are named as in :class:`SweepEngineStats`.
    """

    store_chunks: int = 0
    delta_chunks: int = 0
    store_memory_points: int = 0
    store_disk_points: int = 0


class _ParallelPlan:
    """Execution state of one parallel-columnar sweep.

    Holds the shared result block, the worker pool and the
    chunk-aligned shard spans over the *planned* chunks — those with no
    row to reuse (no checkpoint record, store row or known poison
    point) and no calibration arrays; every other chunk's block rows
    are never written or read. The kernel-phase timing fields feed the
    ``focal_parallel_*`` gauges.
    """

    def __init__(
        self,
        chunk_size: int,
        block: "_parallel.ColumnarBlock",
        pool,
        spans: list[tuple[int, int]],
        planned: set[int],
        event_dir: str | None = None,
        arena: "_parallel.GridArena | None" = None,
    ) -> None:
        self.chunk_size = chunk_size
        self.block = block
        self.pool = pool
        self.spans = spans
        #: Chunk indices whose block rows the kernel phase fills —
        #: only these may be read back via :meth:`chunk_arrays`.
        self.planned = planned
        #: Chunk indices covered by shards the supervisor salvaged as
        #: INCOMPLETE — their block rows were never written and the
        #: chunk loop must stop (salvage) when it reaches them.
        self.failed: set[int] = set()
        #: Crash-spill directory for worker events (None when telemetry
        #: is off) — collected and removed when the sweep winds down.
        self.event_dir = event_dir
        #: The published input-grid columns (None when nothing is
        #: dispatched).
        self.arena = arena
        #: Captured at setup — the segments are released before stats
        #: are cut.
        self.shm_bytes = block.nbytes + (arena.nbytes if arena else 0)
        self.kernel_wall = 0.0
        self.busy = 0.0
        #: The largest and the smallest (tail) dispatched span, in points.
        self.shard_points = max((hi - lo for lo, hi in spans), default=0)
        self.tail_shard_points = min((hi - lo for lo, hi in spans), default=0)

    def chunk_arrays(self, index: int, points: int) -> DesignArrays:
        """The kernel columns of chunk *index* (*points* rows), copied out
        of the block (so the segment can be unlinked before results are
        dropped)."""
        lo = index * self.chunk_size
        return DesignArrays(*self.block.rows(lo, lo + points))

    def close(self) -> None:
        """Shut the pool down, release the segments and collect what
        dead workers spilled but never replied with."""
        if self.pool is not None:
            self.pool.shutdown(cancel_futures=True)
        self.block.release()
        if self.arena is not None:
            self.arena.release()
        if self.event_dir is not None:
            _events.get_log().collect_spill(self.event_dir)
            _events.remove_event_dir(self.event_dir)
        _parallel.clear_worker_state()


@dataclass
class _ChunkReuse:
    """What one chunk already knows before anything is evaluated.

    ``outcomes`` has one slot per row: a reused outcome, or ``None`` for
    the rows listed in ``missing`` (the evaluate phase fills them).
    ``restored`` marks a chunk replayed from the checkpoint and
    ``probe`` is the store probe over the rows the ledger left.
    """

    outcomes: list
    missing: Sequence[int]
    restored: bool = False
    probe: ChunkProbe | None = None


class _SweepRun:
    """One :meth:`BatchExplorer.explore_arrays` run: its execution mode
    and pool plan, its reuse sources, its commit sinks and the rows it
    has collected so far.

    A chunk's rows are reused from, in order: its checkpoint record (a
    restored chunk reuses every row), the quarantine ledger (known
    poison gets its marker) and the store (probed for the rows the
    ledger left). Committing memoizes the reused rows without counting
    them, stores a chunk that evaluated rows or was restored, and
    appends one checkpoint record per chunk that was not restored.
    """

    def __init__(
        self,
        explorer: "BatchExplorer",
        grid: ParameterGrid,
        mode: str,
        checkpoint: "CheckpointStore | str | os.PathLike | None",
        resume: bool,
        store: "ResultStore | str | os.PathLike | None",
        quarantine: "QuarantineLedger | str | os.PathLike | None",
    ) -> None:
        factory = explorer.factory
        self.cache = explorer.cache
        self.mode = mode
        self.plan: _ParallelPlan | None = None
        self.failure: FailureReport | None = None
        self.fingerprint: dict | None = None
        if checkpoint is not None:
            self.fingerprint = sweep_fingerprint(
                axes=grid.axes,
                chunk_size=explorer.chunk_size,
                baseline=explorer.baseline,
                alpha=explorer.weight.alpha,
                factory=factory,
            )
        self.ckpt, state = CheckpointStore.open(
            checkpoint, resume=resume, kind="sweep", fingerprint=self.fingerprint
        )
        self.restored: list = list(state.get("chunks", [])) if state else []
        result_store = ResultStore.coerce(store)
        self.session: SweepStoreSession | None = None
        self.use: _StoreUse | None = None
        if result_store is not None:
            self.session = result_store.sweep_session(factory)
            self.use = _StoreUse()
        ledger = QuarantineLedger.coerce(quarantine)
        self.qsession: QuarantineSession | None = None
        if ledger is not None:
            self.qsession = ledger.session(describe_factory(factory))
        self.params: list[Mapping[str, object]] = []
        self.designs: list[DesignPoint] = []
        self.quarantined: list[Mapping[str, object]] = []
        self.chunks_done = 0
        self.start_s = 0.0
        self.cache_before = self.cache.stats()

    def reuse(self, index: int, chunk: Sequence[Mapping[str, object]]) -> _ChunkReuse:
        """Chunk *index*'s known rows and the list of missing ones."""
        if index < len(self.restored):
            rows = self.restored[index]
            if len(rows) != len(chunk):
                raise CheckpointError(
                    f"checkpoint {self.ckpt.path} records {len(rows)} outcomes "
                    f"for a {len(chunk)}-point chunk; the file does not "
                    "match this grid"
                )
            return _ChunkReuse(decode_outcomes(rows), [], restored=True)
        outcomes: list = [None] * len(chunk)
        missing: Sequence[int] = range(len(chunk))
        if self.qsession is not None and self.qsession.known_count:
            outcomes = [self.qsession.marker(params) for params in chunk]
            missing = [row for row, outcome in enumerate(outcomes) if outcome is None]
        probe = None
        if self.session is not None and missing:
            if len(missing) == len(chunk):
                probe = self.session.probe(chunk)
                outcomes, missing = probe.outcomes, probe.missing
            else:
                probe = self.session.probe([chunk[row] for row in missing])
                for row, outcome in zip(missing, probe.outcomes):
                    outcomes[row] = outcome
                missing = [missing[row] for row in probe.missing]
        return _ChunkReuse(outcomes, missing, probe=probe)

    def commit(self, chunk: Sequence[Mapping[str, object]], reuse: _ChunkReuse) -> None:
        """Memoize the reused rows, store and checkpoint the chunk."""
        outcomes = reuse.outcomes
        if len(reuse.missing) < len(chunk):
            # The evaluate phase memoized (and counted) the missing rows;
            # storing them again with the reused ones changes no entry.
            self.cache.store_many(params_keys(chunk), outcomes)
        probe = reuse.probe
        if probe is not None and probe.hit_points:
            if reuse.missing:
                self.use.delta_chunks += 1
            else:
                self.use.store_chunks += 1
            self.use.store_memory_points += probe.memory_points
            self.use.store_disk_points += probe.disk_points
        if self.session is not None and (reuse.restored or reuse.missing):
            # Resumed work is stored too: the next process should not
            # recompute it. (Chunks holding quarantine markers are not.)
            self.session.put(chunk, outcomes, probe)
        if (
            self.ckpt is not None
            and not reuse.restored
            and not self.ckpt.save_or_warn(
                kind="sweep",
                fingerprint=self.fingerprint,
                state={"chunks": [encode_outcomes(outcomes)]},
            )
        ):
            self.ckpt = None

    def collect(self, chunk: Sequence[Mapping[str, object]], outcomes: list) -> int:
        """Sort the chunk's rows into results, quarantined points and
        skipped invalid corners; returns the valid-row count."""
        add_params, add_design = self.params.append, self.designs.append
        valid = 0
        for params, outcome in zip(chunk, outcomes):
            if not isinstance(outcome, DomainError):
                add_params(params)
                add_design(outcome)
                valid += 1
            elif isinstance(outcome, QuarantinedPoint):
                self.quarantined.append(params)
        self.chunks_done += 1
        return valid

    def salvage(self, exc: Exception, grid_points: int, chunk_size: int) -> None:
        """Report the salvaged partial run (completed prefix kept).

        The sweep stops before an unfinished chunk, so every completed
        chunk is a full one."""
        done = self.chunks_done * chunk_size
        self.failure = failure = FailureReport(
            reason="irrecoverable worker pool; completed prefix salvaged",
            error=str(exc),
            completed_chunks=self.chunks_done,
            total_chunks=-(-grid_points // chunk_size),
            completed_points=done,
            pending_points=grid_points - done,
            checkpoint=str(self.ckpt.path) if self.ckpt is not None else None,
        )
        _events.record("sweep.salvage", track="supervisor")
        _metrics.get_registry().counter(
            "focal_salvage_runs_total", "sweeps salvaged as partial results"
        ).inc()
        get_logger().warning(kv("sweep.salvage", **failure.as_dict()))

    def close(self) -> None:
        """Freshen the store's journal and wind the pool plan down."""
        if self.session is not None:
            self.session.flush()
        if self.plan is not None:
            self.plan.close()


@dataclass(frozen=True)
class DesignArrays:
    """One grid chunk evaluated as columns instead of objects.

    ``area``/``perf``/``power`` hold the would-be
    :class:`~repro.core.design.DesignPoint` fields for each row of the
    chunk; ``valid`` marks rows the scalar factory would return for
    (``False`` rows are the corners it would reject with
    :class:`~repro.core.errors.DomainError`, and their area/perf/power
    values are placeholders that must never be read).
    """

    area: np.ndarray
    perf: np.ndarray
    power: np.ndarray
    valid: np.ndarray

    def __post_init__(self) -> None:
        area = np.asarray(self.area, dtype=np.float64)
        perf = np.asarray(self.perf, dtype=np.float64)
        power = np.asarray(self.power, dtype=np.float64)
        valid = np.asarray(self.valid, dtype=bool)
        if area.ndim != 1 or {perf.shape, power.shape, valid.shape} != {area.shape}:
            raise ValidationError(
                "DesignArrays columns must be 1-D arrays of one common "
                f"length, got shapes area={area.shape}, perf={perf.shape}, "
                f"power={power.shape}, valid={valid.shape}"
            )
        object.__setattr__(self, "area", area)
        object.__setattr__(self, "perf", perf)
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "valid", valid)

    def __len__(self) -> int:
        return int(self.area.shape[0])


@runtime_checkable
class VectorFactory(Protocol):
    """A design factory that can also evaluate whole chunks columnar.

    A vector factory is first of all an ordinary
    :data:`~repro.dse.explorer.DesignFactory` — ``factory(params)``
    returns one :class:`~repro.core.design.DesignPoint` or raises
    :class:`~repro.core.errors.DomainError`. On top of that it maps a
    whole parameter-grid chunk, presented as one NumPy column per axis,
    to :class:`DesignArrays` in a handful of vectorized passes.

    The contract that makes the fast path safe to take silently:

    * ``batch_arrays`` must be **bit-exact** with the scalar call — for
      every valid row, the columns equal the scalar design's
      area/perf/power fields to the last bit (build on the
      ``repro.*.batch`` kernels, which guarantee this);
    * ``valid`` must be ``True`` exactly where the scalar call returns
      instead of raising ``DomainError`` (skip semantics);
    * optionally, a ``design_points(chunk, arrays)`` method may
      materialize the named :class:`DesignPoint` objects for a chunk
      (``None`` for invalid rows); without it the engine falls back to
      the scalar call per point when point objects are required.
    """

    def __call__(self, params: Mapping[str, object]) -> DesignPoint: ...

    def batch_arrays(self, columns: Mapping[str, np.ndarray]) -> DesignArrays: ...


def is_vector_factory(factory: object) -> bool:
    """Whether *factory* implements the :class:`VectorFactory` protocol."""
    return isinstance(factory, VectorFactory)


#: The two engine modes that run the columnar kernels.
COLUMNAR_MODES = ("columnar", "parallel-columnar")

# ``workers="auto"`` calibration knobs. The heuristic projects the
# serial sweep time from one in-process chunk and engages the pool only
# when dispatch can win by a clear margin — the cost model is
# deliberately pessimistic about the pool (spawn cost per worker,
# margin over break-even), so a wrong guess errs toward the serial
# columnar path, which is never slower than itself.
#: Projected serial seconds below which a pool can never pay off.
AUTO_MIN_SERIAL_S = 0.5
#: Assumed process spawn + initializer cost per worker, seconds.
AUTO_SPAWN_S = 0.06
#: The projected parallel time must beat serial by this factor.
AUTO_MARGIN = 1.3
#: Auto never picks more workers than this (diminishing returns).
AUTO_MAX_WORKERS = 8


@dataclass(frozen=True)
class SweepEngineStats:
    """How the engine executed the last sweep (one immutable snapshot).

    ``mode`` names the execution path the engine resolved to:
    ``"parallel-columnar"`` (cold vector factory, worker pool, shard
    dispatch), ``"columnar"`` (cold vector factory, single process) or
    ``"scalar"`` (per-point calls in-process); ``workers`` is the
    resolved worker count (0 for the in-process modes). ``fallback_points``
    counts grid points that were evaluated through the scalar factory
    *although* the factory is vector-capable (warm cache, or rows
    needing point materialization) — the ``focal_vector_fallback_total``
    metric mirrors it. The ``shards``/``shard_points``/``shm_bytes``/
    ``worker_utilization`` fields are populated by parallel-columnar
    sweeps only and feed the ``focal_parallel_*`` gauges.
    """

    mode: str
    grid_points: int
    valid_points: int
    vector_points: int
    fallback_points: int
    seconds: float
    workers: int = 0
    shards: int = 0
    shard_points: int = 0
    shm_bytes: int = 0
    worker_utilization: float = 0.0
    #: The smallest dispatched shard in grid points (the steal tail).
    tail_shard_points: int = 0
    #: True when ``workers="auto"`` resolved this sweep's worker count
    #: (``workers`` then records the calibrated choice).
    auto_workers: bool = False
    #: Point provenance: memo_points came from the FactoryCache,
    #: fresh_points actually ran the factory/kernels this sweep, and
    #: the store_* fields (persistent-store sweeps only; store_used
    #: marks them meaningful) split the rest by store tier.
    memo_points: int = 0
    fresh_points: int = 0
    store_used: bool = False
    store_chunks: int = 0
    delta_chunks: int = 0
    store_memory_points: int = 0
    store_disk_points: int = 0
    #: Failure containment: grid points excluded by quarantine this
    #: sweep (pre-filtered known poison plus freshly bisected), and
    #: whether the sweep ended as a salvaged partial result.
    quarantined_points: int = 0
    salvaged: bool = False

    @property
    def evals_per_s(self) -> float:
        """Grid points evaluated per second (0.0 for an untimed sweep)."""
        return self.grid_points / self.seconds if self.seconds > 0 else 0.0

    @property
    def store_points(self) -> int:
        """Points adopted from the persistent store (either tier)."""
        return self.store_memory_points + self.store_disk_points

    @property
    def store_reuse_ratio(self) -> float:
        """Store-served points over grid points (0.0 without a store)."""
        return self.store_points / self.grid_points if self.grid_points else 0.0

    def summary(self) -> str:
        """One human line for CLI output."""
        line = (
            f"engine: {self.mode} path, {self.grid_points} pts in "
            f"{self.seconds:.3f} s ({self.evals_per_s:,.0f} evals/s)"
        )
        if self.auto_workers:
            line += (
                f", workers auto->{self.workers}"
                if self.workers
                else ", workers auto->serial"
            )
        if self.shards:
            line += (
                f", {self.shards} shards (<= {self.shard_points} pts) "
                f"x {self.workers} workers, "
                f"{self.worker_utilization:.0%} kernel utilization"
            )
        if self.fallback_points:
            line += f", {self.fallback_points} scalar-fallback pts"
        if self.store_used:
            line += (
                f", store reuse: {self.store_reuse_ratio * 100:.1f}% "
                f"({self.store_memory_points} pts memory / "
                f"{self.store_disk_points} pts disk / "
                f"{self.fresh_points} fresh)"
            )
            if self.delta_chunks:
                line += f", {self.delta_chunks} stitched delta chunks"
        if self.quarantined_points:
            line += f", {self.quarantined_points} quarantined pts"
        if self.salvaged:
            line += ", salvaged partial result"
        return line

    def as_dict(self) -> dict[str, object]:
        payload: dict[str, object] = {
            "mode": self.mode,
            "grid_points": self.grid_points,
            "valid_points": self.valid_points,
            "vector_points": self.vector_points,
            "fallback_points": self.fallback_points,
            "seconds": self.seconds,
            "evals_per_s": self.evals_per_s,
            "memo_points": self.memo_points,
            "fresh_points": self.fresh_points,
        }
        if self.auto_workers:
            payload["auto_workers"] = True
            payload["workers"] = self.workers
        if self.shards:
            payload.update(
                workers=self.workers,
                shards=self.shards,
                shard_points=self.shard_points,
                shm_bytes=self.shm_bytes,
                worker_utilization=self.worker_utilization,
                tail_shard_points=self.tail_shard_points,
            )
        if self.store_used:
            payload.update(
                store_chunks=self.store_chunks,
                delta_chunks=self.delta_chunks,
                store_points=self.store_points,
                store_memory_points=self.store_memory_points,
                store_disk_points=self.store_disk_points,
                store_reuse_ratio=self.store_reuse_ratio,
            )
        if self.quarantined_points:
            payload["quarantined_points"] = self.quarantined_points
        if self.salvaged:
            payload["salvaged"] = True
        return payload


@dataclass(frozen=True)
class BatchSweepResult:
    """A whole sweep held as arrays (valid points only, grid order).

    ``quarantined`` lists the grid points failure containment excluded
    (always reported, never silent), and ``failure`` is the
    :class:`~repro.resilience.containment.FailureReport` of a salvaged
    partial run (``None`` for a run that completed).
    """

    params: tuple[Mapping[str, object], ...]
    designs: tuple[DesignPoint, ...]
    perf: np.ndarray
    ncf_fixed_work: np.ndarray
    ncf_fixed_time: np.ndarray
    codes: np.ndarray
    quarantined: tuple[Mapping[str, object], ...] = ()
    failure: "FailureReport | None" = None

    def __len__(self) -> int:
        return len(self.params)

    @property
    def complete(self) -> bool:
        """Whether the sweep covered every non-quarantined point."""
        return self.failure is None

    @property
    def categories(self) -> list[Sustainability]:
        """Per-point sustainability categories, grid order."""
        return categories_from_codes(self.codes)

    def category_counts(self, *, include_empty: bool = False) -> dict[Sustainability, int]:
        """Category histogram (``np.bincount`` over the codes).

        With the default ``include_empty=False`` only observed
        categories appear — the same mapping
        :meth:`Explorer.count_categories` builds.
        """
        counts = category_counts(self.codes)
        if include_empty:
            return counts
        return {category: n for category, n in counts.items() if n}

    def results(self) -> list[ExplorationResult]:
        """The sweep as scalar :class:`ExplorationResult` objects,
        byte-identical to what ``Explorer.explore`` returns."""
        return [
            ExplorationResult(
                params=params,
                design=design,
                perf=float(perf),
                ncf_fixed_work=float(fw),
                ncf_fixed_time=float(ft),
            )
            for params, design, perf, fw, ft in zip(
                self.params, self.designs, self.perf,
                self.ncf_fixed_work, self.ncf_fixed_time,
            )
        ]


@dataclass(frozen=True)
class BatchExplorer:
    """Sweep a design factory over a grid with vectorized evaluation.

    Parameters
    ----------
    factory, baseline, weight:
        As in :class:`~repro.dse.explorer.Explorer`.
    chunk_size:
        Grid points are streamed in chunks of this size, bounding
        memory on huge grids.
    workers:
        When > 0, a cold sweep of a :class:`VectorFactory` over numeric
        axes runs parallel-columnar on a pool of this many worker
        processes (the factory must then be picklable): geometrically
        shrinking chunk-aligned shards, one executor future each, so
        idle workers pull the next shard off the shared call queue.
        Every other sweep — warm or half-warm cache, scalar-only
        factory, non-numeric axis, or no shared-memory backing —
        resolves to 0 and runs in-process; ``last_sweep.workers``
        reports the resolved count. The string ``"auto"`` calibrates
        instead of guessing: the first chunk is timed in-process and
        the pool engages only when the projected serial time is large
        enough for dispatch to win (otherwise the sweep runs the
        columnar ``workers=0`` path — never slower than serial by
        construction). The calibration chunk's arrays are reused, so
        auto costs no extra kernel work on the sweep it serves.
    cache:
        A :class:`FactoryCache` to (re)use; by default a private one is
        created, so repeated sweeps — ``subgrid`` pins, tornado runs —
        never re-evaluate a design.
    resilience:
        A :class:`~repro.resilience.policy.RetryPolicy` to supervise
        worker dispatch with (crash recovery, per-chunk timeouts,
        bounded retry with backoff, in-process degradation). ``None``
        (the default) keeps the bare ``ProcessPoolExecutor`` path.
        Supervision never changes results — it only re-executes pure
        factory calls that failed to come back.
    """

    factory: DesignFactory
    baseline: DesignPoint
    weight: E2OWeight
    chunk_size: int = 1024
    workers: int | str = 0
    cache: FactoryCache = field(default=None)  # type: ignore[assignment]
    resilience: RetryPolicy | None = None
    #: Engine execution snapshot of the most recent sweep (set by
    #: explore_arrays/count_categories; None before the first sweep).
    last_sweep: SweepEngineStats | None = field(
        default=None, init=False, compare=False, repr=False
    )
    #: Supervision counters of the most recent supervised sweep (None
    #: before the first sweep or when resilience is disabled).
    last_supervision: SupervisionStats | None = field(
        default=None, init=False, compare=False, repr=False
    )
    #: Worker count the current/most recent sweep resolved to (equals
    #: ``workers`` unless ``workers="auto"`` calibrated a choice).
    _active_workers: int | None = field(
        default=None, init=False, compare=False, repr=False
    )
    #: Calibration leftovers of an auto sweep: ``(points, arrays)`` of
    #: the first chunk, reused so calibration costs no extra kernels.
    _cal: "tuple[int, DesignArrays] | None" = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.chunk_size < 1:
            raise ValidationError(
                f"chunk_size must be >= 1, got {self.chunk_size}"
            )
        if isinstance(self.workers, str):
            if self.workers != "auto":
                raise ValidationError(
                    f"workers must be an int >= 0 or 'auto', got "
                    f"{self.workers!r}"
                )
        elif self.workers < 0:
            raise ValidationError(f"workers must be >= 0, got {self.workers}")
        if self.cache is None:
            object.__setattr__(self, "cache", FactoryCache(self.factory))

    # ------------------------------------------------------------------
    # Worker-count resolution (the ``workers="auto"`` calibration)
    # ------------------------------------------------------------------
    @property
    def _pool_workers(self) -> int:
        """The worker count in effect: the resolved choice during a
        sweep, else the configured int (0 while ``"auto"`` is
        unresolved — the conservative reading)."""
        if self._active_workers is not None:
            return self._active_workers
        return self.workers if isinstance(self.workers, int) else 0

    @staticmethod
    def _auto_decision(serial_est_s: float, cpus: int) -> int:
        """Workers the calibration picks for a projected serial time."""
        if cpus < 2 or serial_est_s < AUTO_MIN_SERIAL_S:
            return 0
        candidate = min(cpus, AUTO_MAX_WORKERS)
        parallel_est = serial_est_s / candidate + AUTO_SPAWN_S * candidate
        return candidate if serial_est_s > AUTO_MARGIN * parallel_est else 0

    def _activate_workers(self, grid: ParameterGrid) -> int:
        """Resolve ``workers`` for this sweep, calibrating ``"auto"``.

        A pool is only considered for a cold sweep of a
        :class:`VectorFactory` whose axes can all live in a
        :class:`~repro.dse.parallel.GridArena`; every other sweep
        resolves to 0 — a warm cache is already a dict probe per point,
        and a design point costs microseconds, so per-point dispatch
        never pays. (:meth:`explore_arrays` also resolves to 0 when the
        shared segments get no backing.)

        Auto times the first chunk's ``batch_arrays`` in-process and
        projects the serial sweep time; the pool engages only when
        dispatch can win by a margin, so the auto path is never slower
        than ``workers=0`` (when it declines, it *is* the ``workers=0``
        path, and the calibration arrays are reused for the first
        chunk).
        """
        object.__setattr__(self, "_cal", None)
        resolved = 0
        if (
            self.workers
            and len(self.cache) == 0
            and is_vector_factory(self.factory)
            and _parallel.hostable(grid.axes)
        ):
            if self.workers != "auto":
                resolved = self.workers
            else:
                points = min(self.chunk_size, len(grid))
                columns = self._axis_columns(grid)(0, points)
                begin = time.perf_counter()
                arrays = self._kernel_arrays(columns, points)
                serial_est = (time.perf_counter() - begin) / points * len(grid)
                resolved = self._auto_decision(serial_est, usable_cpus())
                object.__setattr__(self, "_cal", (points, arrays))
        object.__setattr__(self, "_active_workers", resolved)
        return resolved

    def _cal_arrays(self, index: int, points: int) -> "DesignArrays | None":
        """The calibration's kernel columns when they cover chunk
        *index* (only ever chunk 0) of *points* rows, else ``None``."""
        cal = self._cal
        if index == 0 and cal is not None and cal[0] == points:
            return cal[1]
        return None

    # ------------------------------------------------------------------
    # Factory evaluation: the one evaluator of missing rows
    # ------------------------------------------------------------------
    def _evaluate(
        self,
        rows: Sequence[Mapping[str, object]],
        mode: str,
        arrays: "DesignArrays | None" = None,
        qsession: "QuarantineSession | None" = None,
    ) -> list[DesignPoint | DomainError]:
        """Evaluate *rows* (a chunk, or the rows of one it could not
        reuse), memoizing every outcome.

        The scalar mode is the memo loop: keys come pre-built by
        params_keys (one name sort per chunk), the per-point work is one
        dict probe, and counters are flushed once through record(). The
        columnar modes materialize from kernel columns — *arrays* when
        the calibration or the pool already computed them, else one
        ``batch_arrays`` pass (elementwise, so a subset is bit-exact) —
        and count every row as a fresh evaluation.
        """
        if mode in COLUMNAR_MODES:
            if arrays is None:
                arrays = self._kernel_arrays(self._chunk_columns(rows), len(rows))
            return self._outcomes_from_arrays(rows, arrays, qsession)
        cache = self.cache
        entries = cache._entries
        factory = self.factory
        outcomes: list[DesignPoint | DomainError] = []
        hits = 0
        misses = 0
        for key, params in zip(params_keys(rows), rows):
            outcome = entries.get(key)
            if outcome is None:
                misses += 1
                try:
                    outcome = factory(params)
                except DomainError as exc:
                    outcome = exc
                entries[key] = outcome
            else:
                hits += 1
            outcomes.append(outcome)
        cache.record(hits=hits, misses=misses)
        return outcomes

    # ------------------------------------------------------------------
    # Columnar (VectorFactory) evaluation
    # ------------------------------------------------------------------
    def _resolve_mode(self) -> str:
        """The execution mode this sweep will run under.

        The columnar kernels engage only on a genuinely cold sweep: a
        vector-capable factory and an empty cache (a warm cache means
        the memoized scalar path is already a dict probe per point,
        which the columnar path cannot beat). With resolved workers the
        cold columnar sweep runs *parallel*-columnar — grid shards
        dispatch to the pool (:mod:`repro.dse.parallel`). Decided once
        at sweep start.
        """
        if len(self.cache) == 0 and is_vector_factory(self.factory):
            return "parallel-columnar" if self._pool_workers else "columnar"
        return "scalar"

    @staticmethod
    def _chunk_columns(
        chunk: Sequence[Mapping[str, object]],
    ) -> dict[str, np.ndarray]:
        """One NumPy column per axis for a chunk of grid-point dicts."""
        return {
            name: np.asarray([params[name] for params in chunk])
            for name in chunk[0]
        }

    def _kernel_arrays(
        self, columns: Mapping[str, np.ndarray], points: int
    ) -> DesignArrays:
        """``batch_arrays`` over *columns*, checked to cover *points* rows."""
        arrays = self.factory.batch_arrays(columns)
        if len(arrays) != points:
            raise ConfigurationError(
                f"batch_arrays returned {len(arrays)} rows for a "
                f"{points}-point chunk"
            )
        return arrays

    def _outcomes_from_arrays(
        self,
        chunk: Sequence[Mapping[str, object]],
        arrays: DesignArrays,
        qsession: "QuarantineSession | None" = None,
    ) -> list[DesignPoint | DomainError]:
        """Materialize one chunk's outcomes from its kernel columns.

        ``design_points`` (when the factory provides it) builds the
        named DesignPoints from the columns. Rows it leaves
        unmaterialized — and every invalid row — fall back to one
        scalar call, which for invalid corners captures the genuine
        ``DomainError``. Outcomes are memoized exactly like the scalar
        path, so a subsequent warm sweep is byte-identical either way.

        Rows the quarantine session knows as poison (including rows the
        supervisor just bisect-quarantined, whose block rows were never
        written) get their :class:`QuarantinedPoint` marker instead of
        the scalar fallback — re-running a poison point in the *parent*
        process would crash the sweep itself.
        """
        factory = self.factory
        builder = getattr(factory, "design_points", None)
        valid = arrays.valid
        points: list | None = None
        if builder is not None:
            if valid.all():
                points = list(builder(chunk, arrays))
            else:
                # Builders may assume every row holds a constructible
                # design (an all-valid factory never sees holes), but
                # quarantined/never-written block rows are zeros — build
                # from the valid subset only and scatter back. The
                # conversions stay elementwise, so this is bit-exact.
                rows = np.flatnonzero(valid)
                sub = DesignArrays(
                    area=arrays.area[rows],
                    perf=arrays.perf[rows],
                    power=arrays.power[rows],
                    valid=valid[rows],
                )
                built = list(builder([chunk[r] for r in rows], sub))
                points = [None] * len(chunk)
                for r, point in zip(rows, built):
                    points[r] = point
        outcomes: list[DesignPoint | DomainError] = []
        for row, params in enumerate(chunk):
            outcome = points[row] if points is not None and valid[row] else None
            if outcome is None and qsession is not None:
                outcome = qsession.marker(params)
            if outcome is None:
                try:
                    outcome = factory(params)
                except DomainError as exc:
                    outcome = exc
            outcomes.append(outcome)
        self.cache.store_many(params_keys(chunk), outcomes, misses=len(chunk))
        return outcomes

    # ------------------------------------------------------------------
    # Parallel-columnar dispatch
    # ------------------------------------------------------------------
    def _make_pool(
        self,
        block: "_parallel.ColumnarBlock",
        arena: "_parallel.GridArena",
        capture: bool,
        event_dir: "str | None",
        quarantine: "QuarantineSession | None",
    ) -> "ProcessPoolExecutor | SupervisedPool":
        """A worker pool whose initializer attaches every worker to the
        sweep's result block and grid arena once.

        The parent mirrors the worker state first (its own factory and
        its own block/arena objects, never a second shm attachment), so
        SupervisedPool in-process degradation — and thread-pool
        executors injected by tests — evaluate exactly what the worker
        processes would. With *capture* the parent's own event buffer
        is armed too (no spill — the parent cannot crash out from under
        itself), so degraded in-process shards leave the same timeline
        events a worker would; workers spill to *event_dir*.
        """
        _parallel.set_worker_state(self.factory, block, arena)
        _events.init_worker(capture, None)
        initargs = (
            self.factory,
            block.name,
            block.total,
            (arena.name, arena.layout, arena.total),
            capture,
            event_dir,
        )
        if self.resilience is not None:
            return SupervisedPool(
                self._pool_workers,
                self.resilience,
                initializer=_parallel.init_columnar_worker,
                initargs=initargs,
                quarantine=quarantine,
            )
        return ProcessPoolExecutor(
            max_workers=self._pool_workers,
            initializer=_parallel.init_columnar_worker,
            initargs=initargs,
        )

    @staticmethod
    def _axis_columns(
        grid: ParameterGrid,
    ) -> Callable[[int, int], dict[str, np.ndarray]]:
        """A function giving the axis columns of grid points ``[lo, hi)``
        by stride arithmetic — shared by the resident grid arena and the
        chunked columnar count.

        Grid iteration is row-major over the cartesian product, so
        point ``i`` takes value ``axis[(i // stride) % len(axis)]``
        where an axis's stride is the product of the later axes' sizes.
        """
        names = list(grid.axes)
        values = [np.asarray(grid.axes[name]) for name in names]
        strides = [1] * len(names)
        for axis in range(len(names) - 2, -1, -1):
            strides[axis] = strides[axis + 1] * values[axis + 1].shape[0]

        def columns(lo: int, hi: int) -> dict[str, np.ndarray]:
            rows = np.arange(lo, hi)
            return {
                name: axis_values[(rows // stride) % axis_values.shape[0]]
                for name, axis_values, stride in zip(names, values, strides)
            }

        return columns

    def _parallel_setup(
        self,
        chunks: list[Sequence[Mapping[str, object]]],
        reuses: list[_ChunkReuse],
        grid: ParameterGrid,
        qsession: "QuarantineSession | None" = None,
    ) -> "_ParallelPlan | None":
        """Allocate the sweep's shared block, publish the input grid
        columns, plan the shard spans over the wholly missing chunks,
        and spawn the pool — or return ``None`` (releasing any segment
        already made) when the block or the arena gets no shared
        backing, in which case the sweep runs in-process columnar.

        A chunk with any reused row (checkpoint record, store row or
        ledger-known poison point, per *reuses*) is never dispatched:
        its missing rows evaluate in the parent, so resume and store
        reuse stay bit-exact and a known poison point never crashes a
        worker again. Neither is a chunk 0 the ``workers="auto"``
        calibration already ran. A sweep with nothing to dispatch gets
        no pool at all.
        """
        total = sum(len(chunk) for chunk in chunks)
        block = _parallel.ColumnarBlock.allocate(total)
        if block is None:
            return None
        planned = {
            index
            for index, (chunk, reuse) in enumerate(zip(chunks, reuses))
            if len(reuse.missing) == len(chunk)
            and self._cal_arrays(index, len(chunk)) is None
        }
        runs: list[tuple[int, int]] = []
        for index in sorted(planned):
            lo = index * self.chunk_size
            hi = lo + len(chunks[index])
            if runs and runs[-1][1] == lo:
                runs[-1] = (runs[-1][0], hi)
            else:
                runs.append((lo, hi))
        spans = _parallel.plan_steal_runs(runs, self.chunk_size, self._pool_workers)
        arena = pool = event_dir = None
        if spans:
            arena = _parallel.GridArena.publish(self._axis_columns(grid)(0, total))
            if arena is None:
                block.release()
                return None
            capture = _events.get_log().enabled
            event_dir = _events.make_event_dir() if capture else None
            pool = self._make_pool(block, arena, capture, event_dir, qsession)
        return _ParallelPlan(
            self.chunk_size, block, pool, spans, planned, event_dir, arena
        )

    def _parallel_kernels(
        self, plan: _ParallelPlan, tracer: _trace.Tracer
    ) -> None:
        """The kernel phase: run ``batch_arrays`` over every pending
        shard span on the pool, landing the result columns in the block.

        One job per span — ``(lo, hi, seq)`` out (workers slice their
        columns from the published arena), a compact acknowledgement
        back. Shard writes are idempotent, so supervised retry/respawn/
        degradation re-runs are safe. Busy seconds accumulate for the
        worker-utilization gauge and, per worker, into the
        ``focal_worker_busy_seconds`` histogram; worker events riding
        the replies merge into the global event log.
        """
        if not plan.spans:
            return
        registry = _metrics.get_registry()
        log = _events.get_log()
        jobs = [(lo, hi, seq) for seq, (lo, hi) in enumerate(plan.spans)]
        with tracer.span(
            "kernels",
            shards=len(jobs),
            shard_points=plan.shard_points,
            workers=self._pool_workers,
            shm_bytes=plan.shm_bytes,
        ):
            begin = time.perf_counter()
            if isinstance(plan.pool, SupervisedPool):
                replies: Iterable = plan.pool.run(
                    _parallel.eval_shard,
                    jobs,
                    splitter=_parallel.split_shard_job,
                    describe=_parallel.shard_job_point,
                )
            else:
                replies = plan.pool.map(_parallel.eval_shard, jobs)
            for job, reply in zip(jobs, replies):
                if reply is INCOMPLETE or reply is None:
                    # Salvaged shard: its block rows were never written;
                    # the chunk loop stops when it reaches them.
                    first = job[0] // self.chunk_size
                    last = -(-job[1] // self.chunk_size)
                    plan.failed.update(range(first, last))
                    continue
                if isinstance(reply, QuarantinedPoint):
                    # A single-row shard isolated as poison: its block
                    # row stays unwritten (valid=False) and the marker
                    # is re-derived from the quarantine session during
                    # materialization.
                    continue
                subreplies = (
                    reply.replies if isinstance(reply, BisectOutcome) else (reply,)
                )
                for _lo, _hi, busy, pid, events in subreplies:
                    plan.busy += busy
                    if events:
                        log.extend(events)
                    if registry.enabled:
                        registry.histogram(
                            "focal_worker_busy_seconds",
                            "kernel busy seconds per shard, by worker process",
                            labels={"worker": str(pid)},
                        ).observe(busy)
            plan.kernel_wall = time.perf_counter() - begin

    # ------------------------------------------------------------------
    # Sweeps
    # ------------------------------------------------------------------
    def explore_arrays(
        self,
        grid: ParameterGrid,
        *,
        checkpoint: "CheckpointStore | str | os.PathLike | None" = None,
        resume: bool = False,
        store: "ResultStore | str | os.PathLike | None" = None,
        quarantine: "QuarantineLedger | str | os.PathLike | None" = None,
    ) -> BatchSweepResult:
        """Sweep *grid* and return the results as arrays.

        Invalid corners (factories raising ``DomainError``) are dropped,
        exactly like ``Explorer.explore``; an all-invalid sweep raises
        :class:`~repro.core.errors.ConfigurationError`. Output
        (ordering, skips, values, cache contents) is byte-identical to
        the scalar explorer whatever the path.

        Each chunk runs the same pipeline (see ``docs/PERFORMANCE.md``):
        **reuse** the rows already known, **evaluate** only the missing
        rows (scalar memo loop, or the columnar kernels, in-process or
        on the pool), **commit** the chunk to memo, store and checkpoint.

        * *checkpoint*: every chunk is appended (fsynced) as one journal
          record; without *resume* an existing file is replaced. With
          *resume* the recorded chunks are replayed without touching
          the factory, bit-exactly; a checkpoint from a different run
          configuration raises :class:`~repro.core.errors.CheckpointError`
          and a torn tail is truncated to the valid prefix.
        * *store* (a :class:`~repro.dse.store.ResultStore` or a
          directory): stored rows are adopted and only the missing rows
          of a chunk run (a **delta sweep**); evaluated chunks are
          stored. A corrupt store file only means recomputation.
        * *quarantine* (a :class:`~repro.resilience.containment.
          QuarantineLedger` or a path): known poison points are excluded
          up front; under a supervised pool a chunk that exhausts its
          retries is bisected to its crashing points, which are recorded
          and reported in ``BatchSweepResult.quarantined``. Under
          ``RetryPolicy(salvage=True, degrade_in_process=False)`` an
          irrecoverable pool ends the sweep with the completed prefix and
          a :class:`~repro.resilience.containment.FailureReport` in
          ``BatchSweepResult.failure``.
        """
        tracer = _trace.get_tracer()
        registry = _metrics.get_registry()
        observing = tracer.enabled or registry.enabled
        workers = self._activate_workers(grid)
        run = _SweepRun(
            self, grid, self._resolve_mode(), checkpoint, resume, store, quarantine
        )
        with tracer.span(
            "sweep",
            grid_points=len(grid),
            chunk_size=self.chunk_size,
            workers=workers,
            mode=run.mode,
        ) as sweep_span:
            run.start_s = time.perf_counter()
            try:
                chunks, reuses = self._plan(grid, run, tracer, sweep_span)
                for index, chunk in enumerate(chunks):
                    if run.plan is not None and index in run.plan.failed:
                        raise _SalvageAbort(
                            f"the shard covering chunk {index} was never "
                            "completed by the worker pool"
                        )
                    with tracer.span(
                        "chunk",
                        index=index,
                        mode=run.mode,
                        restored=index < len(run.restored),
                    ) as chunk_span:
                        if observing:
                            chunk_start = time.perf_counter()
                            before = self.cache.stats()
                        reuse = reuses[index] if reuses else run.reuse(index, chunk)
                        self._fill_missing(index, chunk, reuse, run)
                        run.commit(chunk, reuse)
                        valid = run.collect(chunk, reuse.outcomes)
                        if observing:
                            self._observe_chunk(
                                registry,
                                chunk_span,
                                points=len(chunk),
                                valid=valid,
                                seconds=time.perf_counter() - chunk_start,
                                before=before,
                            )
            except _SalvageAbort as exc:
                run.salvage(exc, len(grid), self.chunk_size)
            finally:
                run.close()
                object.__setattr__(self, "_cal", None)
            return self._assemble(run, grid, sweep_span, observing)

    def _plan(
        self,
        grid: ParameterGrid,
        run: _SweepRun,
        tracer: _trace.Tracer,
        sweep_span,
    ) -> "tuple[Iterable, list[_ChunkReuse] | None]":
        """The plan phase: the grid's chunk stream and, for a pooled
        sweep, every chunk's reuse, listed up front so that only wholly
        missing chunks are dispatched (``None`` while streaming — each
        chunk's reuse is then looked up as it arrives)."""
        chunks = _chunked(iter(grid), self.chunk_size)
        if run.mode != "parallel-columnar":
            return chunks, None
        chunks = list(chunks)
        reuses = [run.reuse(index, chunk) for index, chunk in enumerate(chunks)]
        run.plan = self._parallel_setup(chunks, reuses, grid, run.qsession)
        if run.plan is None:
            # No shared backing: the pool cannot run, so the sweep
            # resolves to the in-process columnar path.
            object.__setattr__(self, "_active_workers", 0)
            run.mode = "columnar"
            sweep_span.set(workers=0, mode=run.mode)
        else:
            self._parallel_kernels(run.plan, tracer)
        return chunks, reuses

    def _fill_missing(
        self,
        index: int,
        chunk: Sequence[Mapping[str, object]],
        reuse: _ChunkReuse,
        run: _SweepRun,
    ) -> None:
        """The evaluate phase: run only *reuse*'s missing rows through
        :meth:`_evaluate` and stitch them into its outcomes.

        A wholly missing chunk takes kernel columns already computed
        for it — the ``workers="auto"`` calibration's (chunk 0) or the
        pool's block rows — and evaluates exactly as an uncached chunk
        always did; a partly reused one evaluates its missing rows as
        their own smaller chunk.
        """
        missing = reuse.missing
        if len(missing) == len(chunk):
            arrays = self._cal_arrays(index, len(chunk))
            if arrays is None and run.plan is not None and index in run.plan.planned:
                arrays = run.plan.chunk_arrays(index, len(chunk))
            reuse.outcomes = self._evaluate(chunk, run.mode, arrays, run.qsession)
        elif missing:
            rows = [chunk[row] for row in missing]
            fresh = self._evaluate(rows, run.mode, None, run.qsession)
            for row, outcome in zip(missing, fresh):
                reuse.outcomes[row] = outcome

    def _assemble(
        self, run: _SweepRun, grid: ParameterGrid, sweep_span, observing: bool
    ) -> BatchSweepResult:
        """The assemble phase: classify the collected designs, publish
        :attr:`last_sweep` (and telemetry) and build the result."""
        self._record_supervision(
            run.plan.pool if run.plan is not None else None, sweep_span
        )
        if not run.designs and run.failure is None:
            raise ConfigurationError("exploration produced no valid design points")
        with _trace.get_tracer().span("classify", points=len(run.designs)):
            perf, ncf_fw, ncf_ft = self._ncf_arrays(run.designs)
            codes = classify_arrays(ncf_fw, ncf_ft)
        cache_after = self.cache.stats()
        stats = self._engine_stats(
            mode=run.mode,
            grid_points=len(grid),
            valid_points=len(run.params),
            seconds=time.perf_counter() - run.start_s,
            plan=run.plan,
            use=run.use,
            memo_points=cache_after.hits - run.cache_before.hits,
            fresh_points=cache_after.misses - run.cache_before.misses,
            quarantined_points=len(run.quarantined),
            salvaged=run.failure is not None,
        )
        if observing:
            self._observe_sweep(_metrics.get_registry(), sweep_span, stats)
        return BatchSweepResult(
            params=tuple(run.params),
            designs=tuple(run.designs),
            perf=perf,
            ncf_fixed_work=ncf_fw,
            ncf_fixed_time=ncf_ft,
            codes=codes,
            quarantined=tuple(run.quarantined),
            failure=run.failure,
        )

    def _record_supervision(
        self, pool: "ProcessPoolExecutor | SupervisedPool | None", sweep_span
    ) -> None:
        """Publish the sweep's supervision counters (supervised runs
        only): :attr:`last_supervision` always, span attributes when a
        recovery action actually happened."""
        if not isinstance(pool, SupervisedPool):
            return
        stats = pool.stats
        object.__setattr__(self, "last_supervision", stats)
        acted = (
            stats.faults
            or stats.quarantined
            or stats.watchdog_reaps
            or stats.salvaged
        )
        if sweep_span is not _trace.NULL_SPAN and acted:
            sweep_span.set(
                retries=stats.retries,
                worker_crashes=stats.crashes,
                chunk_timeouts=stats.timeouts,
                transient_errors=stats.transient_errors,
                pool_respawns=stats.respawns,
                degraded_batches=stats.degraded_batches,
                pool_degraded=stats.pool_degraded,
                quarantined=stats.quarantined,
                watchdog_reaps=stats.watchdog_reaps,
                salvaged_batches=stats.salvaged,
            )

    def _observe_chunk(
        self,
        registry: _metrics.MetricsRegistry,
        chunk_span,
        *,
        points: int,
        valid: int,
        seconds: float,
        before: CacheStats,
    ) -> None:
        """Per-chunk telemetry (only called while observing): timing,
        throughput and cache effectiveness."""
        after = self.cache.stats()
        evaluated = after.misses - before.misses
        cached = after.hits - before.hits
        if chunk_span is not _trace.NULL_SPAN:
            chunk_span.set(
                points=points,
                valid=valid,
                invalid=points - valid,
                evaluated=evaluated,
                cached=cached,
                evals_per_s=points / seconds if seconds > 0 else float("inf"),
            )
        if registry.enabled:
            registry.counter(
                "focal_evaluations_total", "factory evaluations (cache misses)"
            ).inc(evaluated)
            registry.counter(
                "focal_cache_hits_total", "factory cache hits"
            ).inc(cached)
            registry.histogram(
                "focal_chunk_seconds", "wall time per evaluated chunk"
            ).observe(seconds)

    def _engine_stats(
        self,
        *,
        mode: str,
        grid_points: int,
        valid_points: int,
        seconds: float,
        plan: "_ParallelPlan | None" = None,
        use: "_StoreUse | None" = None,
        memo_points: int = 0,
        fresh_points: int = 0,
        quarantined_points: int = 0,
        salvaged: bool = False,
    ) -> SweepEngineStats:
        """Snapshot how the sweep executed and publish it as
        :attr:`last_sweep` (recorded unconditionally — the CLI summary
        line must not require observability to be enabled)."""
        vector = mode in COLUMNAR_MODES
        fallback = (
            grid_points if not vector and is_vector_factory(self.factory) else 0
        )
        extras: dict[str, object] = {}
        if self.workers == "auto":
            extras["auto_workers"] = True
            extras["workers"] = self._pool_workers
        if plan is not None and plan.spans:
            wall = plan.kernel_wall * self._pool_workers
            extras.update(
                workers=self._pool_workers,
                shards=len(plan.spans),
                shard_points=plan.shard_points,
                shm_bytes=plan.shm_bytes,
                worker_utilization=(
                    min(1.0, plan.busy / wall) if wall > 0 else 0.0
                ),
                tail_shard_points=plan.tail_shard_points,
            )
        if use is not None:
            extras.update(store_used=True, **asdict(use))
        stats = SweepEngineStats(
            mode=mode,
            grid_points=grid_points,
            valid_points=valid_points,
            vector_points=grid_points if vector else 0,
            fallback_points=fallback,
            seconds=seconds,
            memo_points=memo_points,
            fresh_points=fresh_points,
            quarantined_points=quarantined_points,
            salvaged=salvaged,
            **extras,  # type: ignore[arg-type]
        )
        object.__setattr__(self, "last_sweep", stats)
        return stats

    def _observe_sweep(
        self,
        registry: _metrics.MetricsRegistry,
        sweep_span,
        engine: SweepEngineStats,
    ) -> None:
        """Sweep-level telemetry: cache effectiveness, throughput and
        the vector/scalar execution split."""
        points = engine.valid_points
        seconds = engine.seconds
        stats = self.cache.stats()
        if sweep_span is not _trace.NULL_SPAN:
            sweep_span.set(
                valid_points=points,
                seconds=seconds,
                evals_per_s=points / seconds if seconds > 0 else float("inf"),
                cache_hits=stats.hits,
                cache_misses=stats.misses,
                cache_hit_ratio=stats.hit_ratio,
                cache_size=stats.size,
            )
            if engine.mode in COLUMNAR_MODES:
                sweep_span.set(vector_evals_per_s=engine.evals_per_s)
            if engine.quarantined_points or engine.salvaged:
                sweep_span.set(
                    quarantined_points=engine.quarantined_points,
                    salvaged=engine.salvaged,
                )
            if engine.store_used:
                sweep_span.set(
                    store_chunks=engine.store_chunks,
                    delta_chunks=engine.delta_chunks,
                    store_points=engine.store_points,
                    store_memory_points=engine.store_memory_points,
                    store_disk_points=engine.store_disk_points,
                    store_reuse_ratio=engine.store_reuse_ratio,
                    memo_points=engine.memo_points,
                    fresh_points=engine.fresh_points,
                )
        if registry.enabled:
            registry.gauge(
                "focal_cache_hit_ratio", "factory cache hits / lookups"
            ).set(stats.hit_ratio)
            registry.gauge(
                "focal_sweep_evals_per_s", "valid grid points per second, last sweep"
            ).set(points / seconds if seconds > 0 else 0.0)
            if engine.vector_points:
                registry.counter(
                    "focal_vector_evaluations_total",
                    "grid points evaluated through the columnar path",
                ).inc(engine.vector_points)
                registry.gauge(
                    "focal_vector_evals_per_s",
                    "columnar grid points per second, last vector sweep",
                ).set(engine.evals_per_s)
            if engine.fallback_points:
                registry.counter(
                    "focal_vector_fallback_total",
                    "points a vector-capable factory evaluated scalar "
                    "(warm cache)",
                ).inc(engine.fallback_points)
            if engine.shards:
                registry.counter(
                    "focal_parallel_shards_total",
                    "column shards dispatched to worker pools",
                ).inc(engine.shards)
                registry.gauge(
                    "focal_parallel_shard_points",
                    "largest shard of the last parallel-columnar sweep, "
                    "in grid points",
                ).set(engine.shard_points)
                registry.gauge(
                    "focal_parallel_shm_bytes",
                    "shared-memory bytes backing the last parallel-columnar "
                    "sweep",
                ).set(engine.shm_bytes)
                registry.gauge(
                    "focal_parallel_worker_utilization",
                    "worker busy seconds / (kernel wall x workers), "
                    "last parallel-columnar sweep",
                ).set(engine.worker_utilization)
                registry.counter(
                    "focal_steal_shards_total",
                    "shards dispatched through the work-stealing "
                    "queue scheduler",
                ).inc(engine.shards)
                registry.gauge(
                    "focal_steal_tail_shard_points",
                    "smallest (tail) shard of the last work-stealing "
                    "sweep, in grid points",
                ).set(engine.tail_shard_points)
            if engine.store_used:
                registry.counter(
                    "focal_store_sweep_points_total",
                    "grid points adopted from the persistent result store",
                ).inc(engine.store_points)
                if engine.delta_chunks:
                    registry.counter(
                        "focal_store_delta_chunks_total",
                        "partially stored chunks stitched by delta sweeps",
                    ).inc(engine.delta_chunks)
                registry.gauge(
                    "focal_store_reuse_ratio",
                    "store-served points / grid points, last store-backed "
                    "sweep",
                ).set(engine.store_reuse_ratio)

    def _ncf_arrays(
        self, designs: Sequence[DesignPoint]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Perf ratios and both NCF arrays for *designs* vs the baseline.

        Same IEEE-754 operations, in the same order, as the scalar
        ratio properties on DesignPoint — the values are bit-exact.
        """
        area = np.array([design.area for design in designs], dtype=np.float64)
        perf = np.array([design.perf for design in designs], dtype=np.float64)
        power = np.array([design.power for design in designs], dtype=np.float64)
        return self._ncf_from_columns(area, perf, power)

    def _ncf_from_columns(
        self, area: np.ndarray, perf: np.ndarray, power: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ratio/NCF arithmetic shared by the object and columnar
        paths — one definition, so they cannot drift apart."""
        base = self.baseline
        area_ratio = area / base.area
        energy_ratio = (power / perf) / base.energy
        power_ratio = power / base.power
        alpha = self.weight.alpha
        return (
            perf / base.perf,
            ncf_values(area_ratio, energy_ratio, alpha),
            ncf_values(area_ratio, power_ratio, alpha),
        )

    def explore(
        self,
        grid: ParameterGrid,
        *,
        checkpoint: "CheckpointStore | str | os.PathLike | None" = None,
        resume: bool = False,
        store: "ResultStore | str | os.PathLike | None" = None,
        quarantine: "QuarantineLedger | str | os.PathLike | None" = None,
    ) -> list[ExplorationResult]:
        """Drop-in replacement for ``Explorer.explore`` (same ordering,
        same skips, bit-exact values) on the vectorized engine.
        ``checkpoint``/``resume``/``store``/``quarantine`` behave as in
        :meth:`explore_arrays`."""
        return self.explore_arrays(
            grid,
            checkpoint=checkpoint,
            resume=resume,
            store=store,
            quarantine=quarantine,
        ).results()

    def count_categories(self, grid: ParameterGrid) -> dict[Sustainability, int]:
        """Sweep *grid* and histogram the verdicts in one lean pass.

        The aggregate-only fast path: identical counts to
        ``Explorer.count_categories(Explorer.explore(grid))``, but
        per-point params/result objects are never materialized — cache
        keys are built straight from the cartesian product, so a warm
        re-sweep is a dict probe and a few vector ops per chunk.

        On a cold sweep of a :class:`VectorFactory` this goes fully
        columnar: axis columns are built from the grid's cartesian
        structure by stride arithmetic, chunks flow through
        ``batch_arrays``, and verdicts accumulate via ``np.bincount`` —
        no per-point dicts, DesignPoints or cache writes at all (the
        cache stays cold; use :meth:`explore_arrays` to warm it).
        """
        if self._activate_workers(grid):
            return self.explore_arrays(grid).category_counts()
        tracer = _trace.get_tracer()
        registry = _metrics.get_registry()
        observing = tracer.enabled or registry.enabled
        mode = self._resolve_mode()
        with tracer.span(
            "sweep.count", grid_points=len(grid), mode=mode
        ) as sweep_span:
            start_s = time.perf_counter()
            cache_before = self.cache.stats()
            if mode == "columnar":
                try:
                    codes_hist, valid = self._count_columnar(grid, tracer)
                finally:
                    object.__setattr__(self, "_cal", None)
            else:
                designs = self._designs_only(grid)
                valid = len(designs)
                codes_hist = np.zeros(len(CATEGORIES), dtype=np.int64)
                if designs:
                    _, ncf_fw, ncf_ft = self._ncf_arrays(designs)
                    codes_hist = np.bincount(
                        classify_arrays(ncf_fw, ncf_ft), minlength=len(CATEGORIES)
                    )
            if not valid:
                raise ConfigurationError(
                    "exploration produced no valid design points"
                )
            cache_after = self.cache.stats()
            stats = self._engine_stats(
                mode=mode,
                grid_points=len(grid),
                valid_points=valid,
                seconds=time.perf_counter() - start_s,
                memo_points=cache_after.hits - cache_before.hits,
                fresh_points=cache_after.misses - cache_before.misses,
            )
            if observing:
                self._observe_sweep(registry, sweep_span, stats)
        return {
            category: int(codes_hist[code])
            for code, category in enumerate(CATEGORIES)
            if codes_hist[code]
        }

    def _count_columnar(
        self, grid: ParameterGrid, tracer: _trace.Tracer
    ) -> tuple[np.ndarray, int]:
        """The pure columnar cold count: per-category histogram and
        valid-point total, with no per-point Python objects.

        Axis columns for each chunk are computed straight from the
        cartesian structure (:meth:`_axis_columns`), one chunk at a
        time, so memory stays bounded by the chunk size; chunk 0 reuses
        the ``workers="auto"`` calibration's columns when it ran.
        """
        columns_of = self._axis_columns(grid)
        total = len(grid)
        histogram = np.zeros(len(CATEGORIES), dtype=np.int64)
        valid_total = 0
        for index, start in enumerate(range(0, total, self.chunk_size)):
            with tracer.span("chunk", index=index, mode="columnar") as chunk_span:
                stop = min(start + self.chunk_size, total)
                arrays = self._cal_arrays(index, stop - start)
                if arrays is None:
                    arrays = self._kernel_arrays(columns_of(start, stop), stop - start)
                mask = arrays.valid
                area, perf, power = arrays.area, arrays.perf, arrays.power
                if not mask.all():
                    area, perf, power = area[mask], perf[mask], power[mask]
                if chunk_span is not _trace.NULL_SPAN:
                    chunk_span.set(points=stop - start, valid=int(area.shape[0]))
                if not area.shape[0]:
                    continue
                _, ncf_fw, ncf_ft = self._ncf_from_columns(area, perf, power)
                histogram += np.bincount(
                    classify_arrays(ncf_fw, ncf_ft), minlength=len(CATEGORIES)
                )
                valid_total += int(area.shape[0])
        return histogram, valid_total

    def _designs_only(self, grid: ParameterGrid) -> list[DesignPoint]:
        """Evaluate every grid point, skipping params materialization
        for cached points (the dominant cost of a warm re-sweep).

        Deliberately uninstrumented inside the loop — the caller
        observes at sweep granularity, so a disabled-observability run
        pays nothing per point.
        """
        cache = self.cache
        entries = cache._entries
        factory = self.factory
        names = list(grid.axes)
        slots = sorted(range(len(names)), key=names.__getitem__)
        designs: list[DesignPoint] = []
        hits = 0
        misses = 0
        for combo in product(*(grid.axes[name] for name in names)):
            key = tuple([(names[i], combo[i]) for i in slots])
            outcome = entries.get(key)
            if outcome is None:
                misses += 1
                try:
                    outcome = factory(dict(zip(names, combo)))
                except DomainError as exc:
                    outcome = exc
                entries[key] = outcome
            else:
                hits += 1
            if not isinstance(outcome, DomainError):
                designs.append(outcome)
        cache.record(hits=hits, misses=misses)
        return designs
