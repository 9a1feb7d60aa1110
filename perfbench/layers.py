"""Per-layer timing for the traced benchmark run.

A :class:`Recorder` keeps one stack of open spans. Every span belongs to
a *bucket* (``"factories.batch_arrays"``, ``"checkpoint.save"``, ...)
and its self time — duration minus the time its child spans cover — is
added to that bucket, so the bucket self times of one operation always
sum to the operation's wall time. The benchmark opens the outer spans
itself (one ``op`` root per timed call, plus the ``batch`` or
``montecarlo`` span around the public API call); :func:`instrument`
temporarily wraps the public functions each layer exposes so calls into
them open child spans.

The wrappers only time and count: they call the original with the same
arguments and return its result, patch class attributes (so instances
pickle by reference exactly as before), and are removed again after each
traced repetition, leaving the untraced repetitions on pristine code.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from typing import Callable, Iterator

_clock = time.perf_counter

#: The bucket of the benchmark's own span around one timed operation.
ROOT = "op"


class Recorder:
    """Self-time buckets, counters and checkpoint sizes of one traced
    repetition (create one per repetition)."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        #: Bytes of every checkpoint save, per checkpoint path.
        self.save_sizes: dict[str, list[int]] = defaultdict(list)
        self.wall_s = 0.0
        #: Open spans as [bucket, start, child seconds]. Forked pool
        #: workers inherit a copy; what they record never reaches the
        #: parent's figures.
        self._stack: list[list] = []

    def enter(self, bucket: str) -> list | None:
        """Open a *bucket* span; pass the result to :meth:`exit`.

        Only ``op`` spans may open at the root, so layer calls the
        benchmark makes outside a timed operation (its own checks) are
        not recorded.
        """
        if not self._stack and bucket != ROOT:
            return None
        frame = [bucket, _clock(), 0.0]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list | None) -> None:
        if frame is None:
            return
        duration = _clock() - frame[1]
        self._stack.pop()
        self.self_s[frame[0]] += duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.wall_s += duration

    @contextmanager
    def span(self, bucket: str) -> Iterator[None]:
        frame = self.enter(bucket)
        try:
            yield
        finally:
            self.exit(frame)

    def leaf(self, bucket: str, seconds: float) -> bool:
        """Charge *seconds* measured inside the current span to
        *bucket*; False (nothing charged) outside any span."""
        if not self._stack:
            return False
        self.self_s[bucket] += seconds
        self._stack[-1][2] += seconds
        return True

    def count(self, name: str, amount: float = 1) -> None:
        if self._stack:
            self.counts[name] += amount

    def attributed_s(self) -> float:
        return sum(self.self_s.values())


def _timed(
    recorder: Recorder,
    bucket: str,
    after: Callable | None = None,
    calls: str | None = None,
):
    """Decorator factory: run the wrapped call inside a *bucket* span,
    count it under *calls* (raising calls too), then
    ``after(args, result)`` for counting what it returned."""

    def make(original: Callable) -> Callable:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            frame = recorder.enter(bucket)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.exit(frame)
                if calls is not None and frame is not None:
                    recorder.counts[calls] += 1
            if after is not None and frame is not None:
                after(args, result)
            return result

        return wrapper

    return make


def _timed_iter(recorder: Recorder, bucket: str):
    """Wrap a generator method: each ``next`` is charged to *bucket*
    (the consumer's work between items stays with the consumer)."""

    def make(original: Callable) -> Callable:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            inner = original(*args, **kwargs)
            while True:
                begin = _clock()
                try:
                    item = next(inner)
                except StopIteration:
                    recorder.leaf(bucket, _clock() - begin)
                    return
                if recorder.leaf(bucket, _clock() - begin):
                    recorder.counts["grid.points"] += 1
                yield item

        return wrapper

    return make


class _Patches:
    """Attribute replacements, undone in reverse order by :meth:`undo`."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner: object, name: str, make: Callable) -> None:
        raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._saved.append((owner, name, raw))
        setattr(owner, name, replacement)

    def undo(self) -> None:
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)


@contextmanager
def instrument(recorder: Recorder) -> Iterator[Recorder]:
    """Wrap every layer's public entry points for the duration of the
    block (one traced repetition)."""
    from repro.dse import batch as dse_batch
    from repro.dse import montecarlo
    from repro.dse.factories import (
        AsymmetricMulticoreFactory,
        SymmetricMulticoreFactory,
    )
    from repro.dse.grid import ParameterGrid
    from repro.dse.parallel import ColumnarBlock, GridArena
    from repro.dse.store import ResultStore, SweepStoreSession
    from repro.resilience.checkpoint import CheckpointStore
    from repro.resilience.supervisor import SupervisedPool

    rec = recorder

    def rows_of_result(name: str):
        return lambda args, result: rec.count(name, len(result))

    def rows_of_classify(args, result):
        rec.count("core_batch.points", len(result))

    def checkpoint_saved(args, result):
        path = os.fspath(args[0].path)
        rec.save_sizes[path].append(os.path.getsize(path))

    patches = _Patches()
    try:
        patches.wrap(ParameterGrid, "__iter__", _timed_iter(rec, "grid.iter"))
        for factory in (SymmetricMulticoreFactory, AsymmetricMulticoreFactory):
            patches.wrap(
                factory,
                "batch_arrays",
                _timed(rec, "factories.batch_arrays", rows_of_result("factories.batch_rows")),
            )
            patches.wrap(
                factory,
                "design_points",
                _timed(rec, "factories.design_points", rows_of_result("factories.design_rows")),
            )
            patches.wrap(
                factory,
                "__call__",
                _timed(rec, "factories.scalar", calls="factories.scalar_fallback_points"),
            )
        patches.wrap(dse_batch, "ncf_values", _timed(rec, "core_batch.classify"))
        patches.wrap(
            dse_batch, "classify_arrays", _timed(rec, "core_batch.classify", rows_of_classify)
        )

        def drawn_segment(args, result):
            rows_of_classify(args, result)
            rec.count("montecarlo.segments")

        patches.wrap(
            montecarlo, "classify_arrays", _timed(rec, "core_batch.classify", drawn_segment)
        )
        patches.wrap(dse_batch.FactoryCache, "store_many", _timed(rec, "batch.memo_store"))
        patches.wrap(dse_batch, "encode_outcomes", _timed(rec, "checkpoint.codec"))
        patches.wrap(dse_batch, "decode_outcomes", _timed(rec, "checkpoint.codec"))
        patches.wrap(
            CheckpointStore,
            "save",
            _timed(rec, "checkpoint.save", checkpoint_saved),
        )
        patches.wrap(CheckpointStore, "load_or_restart", _timed(rec, "checkpoint.load"))
        patches.wrap(ResultStore, "sweep_session", _timed(rec, "store.probe"))
        patches.wrap(SweepStoreSession, "probe", _timed(rec, "store.probe"))
        patches.wrap(SweepStoreSession, "put", _timed(rec, "store.put"))
        patches.wrap(SweepStoreSession, "flush", _timed(rec, "store.flush"))

        def replayed_segment(args, result):
            if result is not None:
                rec.count("montecarlo.segments")

        patches.wrap(ResultStore, "load_segment", _timed(rec, "store.probe", replayed_segment))
        patches.wrap(ResultStore, "save_segment", _timed(rec, "store.put"))
        patches.wrap(ColumnarBlock, "allocate", _timed(rec, "parallel.setup"))
        patches.wrap(GridArena, "publish", _timed(rec, "parallel.setup"))
        # Pool processes start on the executor's first submit (fork
        # start method), so submit time is the pool spawn.
        patches.wrap(ProcessPoolExecutor, "submit", _timed(rec, "parallel.setup"))
        patches.wrap(SupervisedPool, "run", _timed(rec, "parallel.wait"))
        patches.wrap(SupervisedPool, "shutdown", _timed(rec, "parallel.teardown"))
        patches.wrap(ColumnarBlock, "release", _timed(rec, "parallel.teardown"))
        patches.wrap(GridArena, "release", _timed(rec, "parallel.teardown"))
        yield rec
    finally:
        patches.undo()
