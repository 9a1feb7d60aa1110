"""The repository benchmark: one seeded workload per run.

Run from the repository root::

    python3 perfbench/run.py --workload sweep_inmem --seed 1 --seconds 24 --trace 0

``--workload all`` runs every workload, each in its own process. The
workload's inputs are built from ``--seed`` (several times, to time
set-up). Then repetitions run back to back, one client and one call at
a time, until the next one would overrun ``--seconds``. Every output is
checked against the workload's oracle after measuring.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones. With ``--trace 1`` untraced and traced
repetitions alternate, and the metrics are the per-layer ones (see
``perfbench/README.md``). The lines before it give the provenance and
every figure by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from harness import (
    PHASES,
    Harness,
    cpu_count,
    layer_figures,
    median,
    op_summary,
    phase_rate,
    stop_resource_tracker,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up is timed this many times; the median is reported.
SETUP_REPS = 5
#: Fewest measured repetitions per run, whatever ``--seconds`` says.
MIN_REPS = 3
MIN_TRACED_REPS = 2  # one untraced, one traced

#: The end-to-end metrics (``--trace 0``), with units.
END_TO_END = {
    "setup_s": "s",
    "cold_items_per_cal": "items/cal",
    "reuse_items_per_cal": "items/cal",
    "peak_rss_mb": "MB",
}

#: Per-operation throughputs, reported on the workloads that run them.
OPERATIONS = {
    "explore_cold_pts_per_s": "pts/s",
    "explore_warm_pts_per_s": "pts/s",
    "count_pts_per_s": "pts/s",
    "checkpoint_sweep_pts_per_s": "pts/s",
    "resume_pts_per_s": "pts/s",
    "store_cold_pts_per_s": "pts/s",
    "store_warm_pts_per_s": "pts/s",
    "delta_pts_per_s": "pts/s",
    "mc_samples_per_s": "samples/s",
    "mc_checkpoint_samples_per_s": "samples/s",
    "mc_store_cold_samples_per_s": "samples/s",
    "mc_store_warm_samples_per_s": "samples/s",
}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ns_per_pt"):
        return "ns/pt"
    if name.endswith("bytes_written") or name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_growth", "_residual", "utilization", "error_rate")):
        return "ratio"
    return "count"


#: The per-layer metrics (``--trace 1``), with units.
PER_LAYER = {
    name: _unit(name)
    for name in (
        "grid.iter_s",
        "grid.points",
        "factories.batch_arrays_s",
        "factories.batch_arrays_ns_per_pt",
        "factories.design_points_s",
        "factories.design_points_ns_per_pt",
        "factories.scalar_s",
        "factories.scalar_fallback_points",
        "core_batch.classify_s",
        "core_batch.classify_ns_per_pt",
        "batch.memo_store_s",
        "batch.memo_hit_ratio",
        "batch.memo_lookups",
        "batch.memo_entries",
        "batch.self_s",
        "checkpoint.save_s",
        "checkpoint.saves",
        "checkpoint.bytes_written",
        "checkpoint.save_growth",
        "checkpoint.load_s",
        "checkpoint.codec_s",
        "store.probe_s",
        "store.put_s",
        "store.flush_s",
        "store.hit_ratio",
        "store.reuse_ratio",
        "store.bytes_written",
        "store.objects",
        "parallel.setup_s",
        "parallel.shards",
        "parallel.wait_s",
        "parallel.teardown_s",
        "parallel.worker_cpu_s",
        "parallel.worker_utilization",
        "parallel.shm_bytes",
        "supervisor.retries",
        "supervisor.respawns",
        "montecarlo.draw_s",
        "montecarlo.segments",
        "cli.import_s",
        "bench.calibration_s",
        "obs.trace_overhead_ratio",
        "obs.attribution_residual",
        "error_rate",
    )
}
PER_LAYER.update(OPERATIONS)


def provenance(seed: int) -> dict[str, object]:
    """Git revision and dirty flag (``unknown`` outside a git checkout),
    interpreter and NumPy versions, usable CPUs and the seed."""
    import numpy

    revision, dirty = "unknown", None
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True, timeout=30,
            ).stdout.strip()
            status = subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True, check=True, timeout=30,
            ).stdout
            dirty = bool(status.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_revision": revision,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": cpu_count(),
        "seed": seed,
    }


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing ``repro.cli``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    begin = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import repro.cli"],
        env=env, cwd=str(ROOT), check=True, timeout=120, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - begin


def run(args: argparse.Namespace, temp: Path) -> dict[str, object]:
    from workloads import WORKLOADS

    work_root, temp_root = temp / "work", temp / "sys"
    work_root.mkdir()
    temp_root.mkdir()
    tempfile.tempdir = str(temp_root)
    print(json.dumps({"provenance": provenance(args.seed), "workload": args.workload}))

    imports, setups = [], []
    for _ in range(SETUP_REPS):
        imported = import_seconds()
        begin = time.perf_counter()
        workload = WORKLOADS[args.workload](args.seed, args.size)
        setups.append(imported + time.perf_counter() - begin)
        imports.append(imported)

    harness = Harness(work_root, temp_root)
    traced = bool(args.trace)
    start = time.perf_counter()
    index = 0
    while True:
        harness.run_rep(workload.rep, traced and index % 2 == 1)
        index += 1
        elapsed = time.perf_counter() - start
        if index >= (MIN_TRACED_REPS if traced else MIN_REPS) and elapsed * (index + 1) / index > args.seconds:
            break
    harness.settle()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    harness.verify(workload.oracle())
    plain = [rep for rep in harness.reps if rep.recorder is None]
    traced_reps = [rep for rep in harness.reps if rep.recorder is not None]
    layer_rows = [layer_figures(rep) for rep in traced_reps]
    for row in layer_rows:
        harness.check_attribution(row)

    name = args.workload
    ops = op_summary(plain)
    for op, figures in ops.items():
        print(
            f"{name} {op} median={figures['median']:.6g} worst={figures['worst']:.6g} "
            f"reps={figures['reps']} unit={OPERATIONS[op]}"
        )
    for phase in PHASES:
        print(f"{name} {phase}_items_per_s={phase_rate(plain, phase, calibrated=False):.6g} items/s (uncalibrated)")
    calibration_s = median([c for rep in harness.reps for c in rep.calibration_s])
    print(f"{name} calibration_s={calibration_s:.6g} s")
    error_rate = harness.failed / harness.attempted
    print(f"{name} error_rate={error_rate:.6g} ({harness.failed}/{harness.attempted})")

    if traced:
        units = PER_LAYER
        metrics = {metric: median([row[metric] for row in layer_rows]) for metric in layer_rows[0]}
        metrics.update(
            {
                "cli.import_s": median(imports),
                "bench.calibration_s": calibration_s,
                "obs.trace_overhead_ratio": median([rep.timed_cal for rep in traced_reps])
                / median([rep.timed_cal for rep in plain]),
                "error_rate": error_rate,
            }
        )
        metrics.update({op: ops[op]["median"] if op in ops else 0.0 for op in OPERATIONS})
    else:
        units = END_TO_END
        metrics = {
            "setup_s": median(setups),
            "cold_items_per_cal": phase_rate(plain, "cold"),
            "reuse_items_per_cal": phase_rate(plain, "reuse"),
            "peak_rss_mb": peak_rss_mb,
        }
    for metric, unit in units.items():
        print(f"{name} {metric}={metrics[metric]:.6g} {unit}")
    harness.report_failures()
    return {
        "correct": harness.failed == 0,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": {metric: {"value": metrics[metric], "unit": unit} for metric, unit in units.items()},
    }


def run_all(args: argparse.Namespace, names: list[str]) -> int:
    """Every workload, each in its own process (so each has its own peak
    RSS); the summary names each metric ``<workload>.<metric>``."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        completed = subprocess.run(
            [
                sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
            ],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if completed.returncode != 0 or not lines:
            print(f"error: workload {name} exited {completed.returncode}", file=sys.stderr)
            return completed.returncode or 1
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2

    temp = ROOT / ".perfbench_tmp" / str(os.getpid())
    temp.mkdir(parents=True)
    try:
        result = run(args, temp)
    finally:
        stop_resource_tracker()
        tempfile.tempdir = None
        shutil.rmtree(temp, ignore_errors=True)
        try:
            temp.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
