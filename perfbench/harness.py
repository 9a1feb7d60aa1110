"""Timing, checking and resource bookkeeping shared by every workload.

A workload's repetition calls :meth:`Harness.op` once per timed
operation. The harness times the call (one client, one call at a time),
catches what it raises, and snapshots the explorer's cache, engine and
supervision counters before and after — outside the timed region.
Outputs are not compared on the spot: workloads hand a digest to
:meth:`Harness.observe`, and :meth:`Harness.verify` compares every
digest with the oracle once measuring is over, so the oracle's own
memory and time never mix with the measured figures.

Every mismatch, exception, accounting error and resource leak marks
its operation failed; nothing aborts the run.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from typing import Callable

import calibrate
from layers import ROOT, Recorder, instrument

#: Tolerance on ``|sum of layer self times - traced wall| / traced wall``.
ATTRIBUTION_TOLERANCE = 0.01
#: Worker CPU over what the usable CPUs could deliver while the pool ran
#: may exceed 1 by this much (clock granularity) before the attribution
#: counts as impossible.
UTILIZATION_TOLERANCE = 0.10

#: Operation phases: "cold" computes every result from scratch, "reuse"
#: is served from the memo, a checkpoint or the result store.
PHASES = ("cold", "reuse")


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def pool_workers() -> int:
    """Pool size of the pooled workload: two, never more than the CPUs."""
    return min(2, cpu_count())


def _tracker_pid() -> int | None:
    from multiprocessing import resource_tracker

    return getattr(resource_tracker._resource_tracker, "_pid", None)


def stop_resource_tracker() -> None:
    """End multiprocessing's shared-memory tracker and wait for it: the
    one helper process that outlives a sweep by design."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def child_pids() -> list[int]:
    """Live child processes of this process (all threads), except
    multiprocessing's resource tracker."""
    pids: list[int] = []
    try:
        tasks = os.listdir("/proc/self/task")
    except OSError:  # pragma: no cover - no procfs
        import multiprocessing

        return [p.pid for p in multiprocessing.active_children()]
    for task in tasks:
        try:
            with open(f"/proc/self/task/{task}/children") as handle:
                pids.extend(int(pid) for pid in handle.read().split())
        except OSError:
            continue
    tracker = _tracker_pid()
    return [pid for pid in pids if pid != tracker]


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Rep:
    """Figures of one repetition."""

    def __init__(self, traced: bool) -> None:
        self.recorder = Recorder() if traced else None
        #: metric name -> [items, seconds] summed over its operations.
        self.ops: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
        self.phases: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
        #: The same with op seconds in calibration units (op seconds /
        #: calibration kernel seconds).
        self.phases_cal: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
        self.calibration_s: list[float] = []
        self.counts: dict[str, float] = defaultdict(float)

    @property
    def timed_cal(self) -> float:
        """Timed operation wall, in calibration units."""
        return sum(units for _, units in self.phases_cal.values())


class Harness:
    """Runs repetitions, holds their figures and the run's failures."""

    def __init__(self, work_root: Path, temp_root: Path) -> None:
        #: Where repetitions create their checkpoint and store dirs.
        self.work_root = work_root
        #: ``tempfile``'s directory while the program runs: anything
        #: left here after a repetition is a leak.
        self.temp_root = temp_root
        self.reps: list[Rep] = []
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.leaks = 0
        self.messages: list[str] = []
        #: (operation id, label, digest) awaiting the oracle.
        self.observed: list[tuple[int, str, object]] = []
        self._op_id = -1
        self._calibrated_at = -calibrate.REFRESH_S
        self._cal_s = 0.0
        #: Timed operations awaiting the calibration after them:
        #: (rep, phase, items, seconds, calibration before).
        self._unsettled: list[tuple[Rep, str, int, float, float]] = []
        self._rep: Rep | None = None
        self._dirs: list[Path] = []

    # -- failures ------------------------------------------------------
    @property
    def failed(self) -> int:
        return len(self.failed_ops) + self.leaks

    def _fail(self, op_id: int, message: str) -> None:
        self.failed_ops.add(op_id)
        self.messages.append(message)

    def expect(self, condition: bool, message: str) -> None:
        """Fail the current operation unless *condition* holds."""
        if not condition:
            self._fail(self._op_id, message)

    def observe(self, label: str, digest: object) -> None:
        """Record the current operation's output digest for *label*."""
        self.observed.append((self._op_id, label, digest))

    def verify(self, expected: dict[str, object]) -> None:
        """Compare every observed digest with the oracle's."""
        for op_id, label, digest in self.observed:
            if digest != expected[label]:
                self._fail(op_id, f"output of {label!r} differs from the oracle")
        self.observed.clear()

    # -- repetitions ---------------------------------------------------
    def tempdir(self, name: str) -> Path:
        """A fresh directory for this repetition, removed after it."""
        path = self.work_root / f"{len(self.reps)}-{name}"
        path.mkdir(parents=True)
        self._dirs.append(path)
        return path

    def run_rep(self, rep_fn: Callable[["Harness"], None], traced: bool) -> Rep:
        rep = Rep(traced)
        self._rep = rep
        scope = instrument(rep.recorder) if traced else nullcontext()
        with scope:
            try:
                rep_fn(self)
            except Exception:  # a workload bug: report, keep running
                self.attempted += 1
                self._op_id += 1
                self._fail(self._op_id, traceback.format_exc())
        self._check_hygiene()
        self.reps.append(rep)
        self._rep = None
        return rep

    def op(
        self,
        metric: str,
        phase: str,
        items: int,
        fn: Callable[[], object],
        *,
        explorer=None,
        layer: str = "batch",
    ):
        """Time one call of *fn*; return its result, or None if it raised."""
        rep = self._rep
        rec = rep.recorder
        self.attempted += 1
        self._op_id += 1
        cache_before = explorer.cache.stats() if explorer is not None else None
        gc.collect()
        cal_before = self._calibrate(rep)
        cpu_before = _children_cpu_s()
        root = rec.enter(ROOT) if rec is not None else None
        begin = time.perf_counter()
        try:
            if rec is not None:
                with rec.span(layer):
                    result = fn()
            else:
                result = fn()
        except Exception:
            self._fail(self._op_id, f"{metric}: {traceback.format_exc()}")
            return None
        finally:
            seconds = time.perf_counter() - begin
            if rec is not None:
                rec.exit(root)
        rep.ops[metric][0] += items
        rep.ops[metric][1] += seconds
        rep.phases[phase][0] += items
        rep.phases[phase][1] += seconds
        self._unsettled.append((rep, phase, items, seconds, cal_before))
        rep.counts["parallel.worker_cpu_s"] += _children_cpu_s() - cpu_before
        if explorer is not None:
            self._engine_counts(rep, explorer, cache_before)
        return result

    def settle(self) -> None:
        """Time the kernel once more so every timed operation has a
        calibration after it (call when measuring is over)."""
        self._calibrate(self.reps[-1], force=True)

    def _calibrate(self, rep: Rep, force: bool = False) -> float:
        """The calibration kernel's current time, re-measured when stale
        (or *force*\ d). A new timing settles the operations timed since
        the previous one: each is divided by the mean of the timings
        just before and just after it."""
        if force or time.perf_counter() - self._calibrated_at >= calibrate.REFRESH_S:
            cal_after = calibrate.seconds()
            rep.calibration_s.append(cal_after)
            self._calibrated_at = time.perf_counter()
            for op_rep, phase, items, seconds, cal_before in self._unsettled:
                op_rep.phases_cal[phase][0] += items
                op_rep.phases_cal[phase][1] += seconds / ((cal_before + cal_after) / 2)
            self._unsettled.clear()
            self._cal_s = cal_after
        return self._cal_s

    def _engine_counts(self, rep: Rep, explorer, before) -> None:
        after = explorer.cache.stats()
        counts = rep.counts
        counts["batch.memo_hits"] += after.hits - before.hits
        counts["batch.memo_lookups"] += after.lookups - before.lookups
        counts["batch.memo_entries"] += after.size - before.size
        sweep = explorer.last_sweep
        if sweep is not None and sweep.store_used:
            counts["store.points"] += sweep.store_points
            counts["store.items"] += sweep.grid_points
        if sweep is not None:
            counts["parallel.shards"] += sweep.shards
            counts["parallel.shm_bytes"] += sweep.shm_bytes
        supervision = explorer.last_supervision
        if supervision is not None:
            counts["supervisor.retries"] += supervision.retries
            counts["supervisor.respawns"] += supervision.respawns

    def account(self, explorer, grid_points: int, restored: int = 0) -> None:
        """Fresh + memo + store + restored points must cover the grid."""
        sweep = explorer.last_sweep
        if sweep is None:
            self.expect(False, "sweep left no engine stats")
            return
        total = sweep.fresh_points + sweep.memo_points + sweep.store_points + restored
        self.expect(
            sweep.grid_points == grid_points and total == grid_points,
            f"point accounting: fresh {sweep.fresh_points} + memo "
            f"{sweep.memo_points} + store {sweep.store_points} + restored "
            f"{restored} != grid {grid_points}",
        )

    def store_stats(self, stats, served_items: int | None = None, items: int = 0) -> None:
        """Fold one :class:`ResultStore`'s counters into this repetition."""
        counts = self._rep.counts
        counts["store.hits"] += stats.hits
        counts["store.lookups"] += stats.lookups
        counts["store.bytes_written"] += stats.bytes_written
        counts["store.objects"] += stats.objects_written + stats.segments_written
        if served_items is not None:
            counts["store.points"] += served_items
            counts["store.items"] += items

    # -- hygiene -------------------------------------------------------
    def _leak(self, message: str) -> None:
        self.leaks += 1
        self.messages.append(f"leak: {message}")

    def _check_hygiene(self) -> None:
        """One attempted check per repetition; each leak found fails."""
        from repro.dse import parallel

        self.attempted += 1
        blocks = parallel.live_blocks()
        if blocks:
            self._leak(f"shared-memory segments still registered: {sorted(blocks)}")
        children = child_pids()
        if children:
            self._leak(f"child processes still running: {children}")
        for path in self._dirs:
            litter = [p.name for p in path.rglob("*") if ".tmp." in p.name]
            if litter:
                self._leak(f"temporary files left in {path.name}: {litter[:5]}")
            shutil.rmtree(path, ignore_errors=True)
            if path.exists():
                self._leak(f"could not remove {path}")
        self._dirs.clear()
        left = list(self.temp_root.iterdir())
        if left:
            self._leak(f"temporary paths left behind: {[p.name for p in left[:5]]}")
            for path in left:
                if path.is_dir():
                    shutil.rmtree(path, ignore_errors=True)
                else:
                    path.unlink(missing_ok=True)

    def check_attribution(self, figures: dict[str, float]) -> None:
        """Fail a traced repetition whose layer times cannot be right:
        self times not summing to the traced wall, or worker CPU beyond
        what the usable CPUs could deliver."""
        self.attempted += 1
        self._op_id += 1
        residual = figures["obs.attribution_residual"]
        self.expect(
            residual <= ATTRIBUTION_TOLERANCE,
            f"layer self times miss the traced wall by {residual:.2%}",
        )
        utilization = figures["parallel.worker_utilization"]
        self.expect(
            utilization <= 1.0 + UTILIZATION_TOLERANCE,
            f"worker CPU is {utilization:.2f}x what the usable CPUs allow",
        )

    def report_failures(self) -> None:
        for message in self.messages:
            print(message, file=sys.stderr)


# ----------------------------------------------------------------------
# Figures
# ----------------------------------------------------------------------
def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def per_s(pair: list[float]) -> float:
    items, seconds = pair
    return items / seconds if seconds > 0 else 0.0


def op_summary(reps: list[Rep]) -> dict[str, dict[str, float]]:
    """Per-operation throughput: median, worst repetition, count."""
    names: list[str] = []
    for rep in reps:
        names.extend(name for name in rep.ops if name not in names)
    summary = {}
    for name in names:
        rates = [per_s(rep.ops[name]) for rep in reps if name in rep.ops]
        summary[name] = {"median": median(rates), "worst": min(rates), "reps": len(rates)}
    return summary


def phase_rate(reps: list[Rep], phase: str, calibrated: bool = True) -> float:
    """Median over *reps* of the phase's items per calibration unit
    (per second when not *calibrated*)."""
    return median(
        [per_s((rep.phases_cal if calibrated else rep.phases)[phase]) for rep in reps if phase in rep.phases]
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_figures(rep: Rep) -> dict[str, float]:
    """The per-layer metrics of one traced repetition."""
    rec = rep.recorder
    counts = {**rec.counts, **rep.counts}

    def secs(bucket: str) -> float:
        return rec.self_s.get(bucket, 0.0)

    def count(name: str) -> float:
        return counts.get(name, 0.0)

    def ns_per(bucket: str, rows: str) -> float:
        return 1e9 * _ratio(secs(bucket), count(rows))

    sizes = [s for s in rec.save_sizes.values() if s]
    # Pool workers can only run between the first submit and teardown,
    # on at most the usable CPUs.
    pool_capacity = (secs("parallel.setup") + secs("parallel.wait")) * pool_workers()
    return {
        "grid.iter_s": secs("grid.iter"),
        "grid.points": count("grid.points"),
        "factories.batch_arrays_s": secs("factories.batch_arrays"),
        "factories.batch_arrays_ns_per_pt": ns_per("factories.batch_arrays", "factories.batch_rows"),
        "factories.design_points_s": secs("factories.design_points"),
        "factories.design_points_ns_per_pt": ns_per("factories.design_points", "factories.design_rows"),
        "factories.scalar_s": secs("factories.scalar"),
        "factories.scalar_fallback_points": count("factories.scalar_fallback_points"),
        "core_batch.classify_s": secs("core_batch.classify"),
        "core_batch.classify_ns_per_pt": ns_per("core_batch.classify", "core_batch.points"),
        "batch.memo_store_s": secs("batch.memo_store"),
        "batch.memo_hit_ratio": _ratio(count("batch.memo_hits"), count("batch.memo_lookups")),
        "batch.memo_lookups": count("batch.memo_lookups"),
        "batch.memo_entries": count("batch.memo_entries"),
        "batch.self_s": secs("batch"),
        "checkpoint.save_s": secs("checkpoint.save"),
        "checkpoint.saves": float(sum(len(s) for s in sizes)),
        "checkpoint.bytes_written": float(sum(sum(s) for s in sizes)),
        "checkpoint.save_growth": max((s[-1] / s[0] for s in sizes), default=0.0),
        "checkpoint.load_s": secs("checkpoint.load"),
        "checkpoint.codec_s": secs("checkpoint.codec"),
        "store.probe_s": secs("store.probe"),
        "store.put_s": secs("store.put"),
        "store.flush_s": secs("store.flush"),
        "store.hit_ratio": _ratio(count("store.hits"), count("store.lookups")),
        "store.reuse_ratio": _ratio(count("store.points"), count("store.items")),
        "store.bytes_written": count("store.bytes_written"),
        "store.objects": count("store.objects"),
        "parallel.setup_s": secs("parallel.setup"),
        "parallel.shards": count("parallel.shards"),
        "parallel.wait_s": secs("parallel.wait"),
        "parallel.teardown_s": secs("parallel.teardown"),
        "parallel.worker_cpu_s": count("parallel.worker_cpu_s"),
        "parallel.worker_utilization": _ratio(count("parallel.worker_cpu_s"), pool_capacity),
        "parallel.shm_bytes": count("parallel.shm_bytes"),
        "supervisor.retries": count("supervisor.retries"),
        "supervisor.respawns": count("supervisor.respawns"),
        "montecarlo.draw_s": secs("montecarlo"),
        "montecarlo.segments": count("montecarlo.segments"),
        "obs.attribution_residual": _ratio(abs(rec.attributed_s() - rec.wall_s), rec.wall_s),
    }
