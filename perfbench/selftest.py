"""The benchmark's own test: smoke-size runs and a name check.

Run from the repository root::

    python3 perfbench/selftest.py

Every workload runs at smoke size through the real command line, once
untraced and once traced, and must report zero failures (the same
oracles as a full run). The metric names and units each run prints,
and the workload names and their one-line reasons, must equal those in
``BENCHMARK.json`` exactly. The traced runs must show checkpoint and
store activity only on ``sweep_durable`` and ``mc_uncertainty``, pool
activity only on ``sweep_pool``, and no supervisor recovery anywhere.
Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Layers only some workloads may touch: every metric with the prefix
#: must read 0 on the others, and one at least must be non-zero on them.
LAYER_OWNERS = {
    "checkpoint.": {"sweep_durable", "mc_uncertainty"},
    "store.": {"sweep_durable", "mc_uncertainty"},
    "parallel.": {"sweep_pool"},
    "supervisor.": set(),
}


def run_smoke(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", "7", "--seconds", "0",
            "--trace", str(trace), "--size", "smoke",
        ],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600,
    )
    if completed.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {completed.returncode}:\n{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def layer_problems(workload: str, metrics: dict) -> list[str]:
    """Each workload exercises the layers it claims and bypasses the rest."""
    problems = []
    for prefix, owners in LAYER_OWNERS.items():
        values = {name: m["value"] for name, m in metrics.items() if name.startswith(prefix)}
        if workload in owners and not any(values.values()):
            problems.append(f"{workload} never reached the {prefix[:-1]} layer")
        if workload not in owners:
            touched = sorted(name for name, value in values.items() if value)
            if touched:
                problems.append(f"{workload} touched {touched}")
    return problems


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from run import END_TO_END, PER_LAYER
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []

    declared = {w["name"]: w["why"] for w in spec["workloads"]}
    emitted = {name: cls.why for name, cls in WORKLOADS.items()}
    if declared != emitted:
        problems.append(f"workloads differ: BENCHMARK.json {declared} vs code {emitted}")
    for key, metrics in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared_units = {m["name"]: m["unit"] for m in spec[key]}
        if declared_units != metrics:
            problems.append(f"{key} differs: BENCHMARK.json {declared_units} vs code {metrics}")

    for workload in WORKLOADS:
        for trace, metrics in ((0, END_TO_END), (1, PER_LAYER)):
            try:
                result = run_smoke(workload, trace)
            except AssertionError as exc:
                problems.append(str(exc))
                continue
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != metrics:
                problems.append(f"{workload} trace={trace} printed metrics {sorted(units)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{workload} trace={trace} failed: {result}")
            if trace:
                problems.extend(layer_problems(workload, result["metrics"]))
            print(f"{workload} trace={trace}: {result['attempted']} attempted, {result['failed']} failed")

    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    print("selftest passed" if not problems else f"selftest failed ({len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
