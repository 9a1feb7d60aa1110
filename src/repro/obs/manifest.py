"""Run provenance: what ran, where, and how long each phase took.

A :class:`RunManifest` pins down everything needed to replay a traced
run — argv, seed, package version, a node roster (host, platform,
Python/NumPy versions, CPU count) and the per-phase wall-time
breakdown derived from the trace. :func:`build_report` bundles the
manifest with the full span tree and a metrics snapshot into one
JSON document (schema :data:`SCHEMA`), which ``focal trace show``
pretty-prints and :func:`report_from_json` round-trips.
"""

from __future__ import annotations

import json
import os
import platform
import socket
import time
from dataclasses import dataclass, field

from ..core.errors import ValidationError
from .events import EventLog
from .metrics import MetricsRegistry
from .trace import Tracer

__all__ = [
    "SCHEMA",
    "RunManifest",
    "usable_cpus",
    "node_roster",
    "phase_breakdown",
    "build_manifest",
    "build_report",
    "report_to_json",
    "report_from_json",
]

#: Schema tag stamped into every trace report; bump on breaking change.
SCHEMA = "focal-trace/1"


def usable_cpus() -> int:
    """CPUs this process may run on: its scheduler affinity where the
    platform reports one (a container or ``taskset`` can narrow it well
    below ``os.cpu_count()``), else the host's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def node_roster() -> dict[str, object]:
    """The machine identity recorded with every manifest; ``cpu_count``
    is :func:`usable_cpus`, the parallelism a run could actually get."""
    import numpy

    return {
        "hostname": socket.gethostname(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": usable_cpus(),
    }


def phase_breakdown(tracer: Tracer) -> list[dict[str, object]]:
    """Per-phase timing rows from a trace.

    A CLI run has one root span (the command); its direct children are
    the interesting phases, so the breakdown is the root plus its
    children. Multi-root traces report each root as a phase.
    """
    roots = tracer.roots
    spans = list(roots)
    if len(roots) == 1:
        spans.extend(roots[0].children)
    return [
        {"phase": s.name, "seconds": s.duration_s, "spans": 1 + _descendants(s)}
        for s in spans
    ]


def _descendants(span_) -> int:
    return sum(1 + _descendants(child) for child in span_.children)


@dataclass(frozen=True)
class RunManifest:
    """Provenance for one observed run."""

    argv: tuple[str, ...]
    command: str
    seed: int | None
    version: str
    started_at: float
    duration_s: float | None
    node: dict[str, object] = field(default_factory=dict)
    phases: tuple[dict[str, object], ...] = ()

    def as_dict(self) -> dict[str, object]:
        return {
            "argv": list(self.argv),
            "command": self.command,
            "seed": self.seed,
            "version": self.version,
            "started_at": self.started_at,
            "started_at_iso": time.strftime(
                "%Y-%m-%dT%H:%M:%S", time.gmtime(self.started_at)
            )
            + "Z",
            "duration_s": self.duration_s,
            "node": dict(self.node),
            "phases": [dict(p) for p in self.phases],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunManifest":
        try:
            return cls(
                argv=tuple(payload["argv"]),
                command=payload["command"],
                seed=payload.get("seed"),
                version=payload["version"],
                started_at=payload["started_at"],
                duration_s=payload.get("duration_s"),
                node=dict(payload.get("node", {})),
                phases=tuple(dict(p) for p in payload.get("phases", ())),
            )
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed run manifest: {exc}") from exc


def build_manifest(
    argv: tuple[str, ...] | list[str],
    *,
    command: str,
    seed: int | None = None,
    tracer: Tracer | None = None,
    duration_s: float | None = None,
) -> RunManifest:
    """Assemble a manifest for the run the *tracer* observed."""
    from .. import __version__

    started_at = time.time()
    if tracer is not None and tracer.started_at is not None:
        started_at = tracer.started_at
    phases: tuple[dict[str, object], ...] = ()
    if tracer is not None:
        phases = tuple(phase_breakdown(tracer))
        if duration_s is None and tracer.roots:
            durations = [r.duration_s for r in tracer.roots if r.duration_s is not None]
            if durations:
                duration_s = sum(durations)
    return RunManifest(
        argv=tuple(argv),
        command=command,
        seed=seed,
        version=__version__,
        started_at=started_at,
        duration_s=duration_s,
        node=node_roster(),
        phases=phases,
    )


def build_report(
    manifest: RunManifest,
    tracer: Tracer | None = None,
    registry: MetricsRegistry | None = None,
    events: "EventLog | None" = None,
) -> dict[str, object]:
    """The replayable JSON document: manifest + span tree + metrics +
    worker events.

    Event rows carry ``t_rel`` (seconds since trace start, the same
    origin span ``start_s`` values use) when the tracer's wall-clock
    anchor is known, so spans and events merge into one timeline
    without clock arithmetic. Reports written before the events layer
    existed simply lack the key — consumers treat a missing ``events``
    as an empty list.
    """
    rows: list[dict[str, object]] = []
    if events is not None and len(events):
        started_at = tracer.started_at if tracer is not None else None
        rows = events.as_dicts(started_at=started_at)
    return {
        "schema": SCHEMA,
        "manifest": manifest.as_dict(),
        "trace": tracer.as_dicts() if tracer is not None else [],
        "metrics": registry.snapshot() if registry is not None else [],
        "events": rows,
    }


def report_to_json(report: dict[str, object], *, indent: int = 2) -> str:
    """Serialize a report built by :func:`build_report`."""
    return json.dumps(report, indent=indent, default=str)


def report_from_json(text: str) -> dict[str, object]:
    """Parse and validate a trace report; raises
    :class:`~repro.core.errors.ValidationError` on malformed input."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed trace report JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("schema") != SCHEMA:
        raise ValidationError(
            f"not a {SCHEMA} trace report (schema="
            f"{payload.get('schema') if isinstance(payload, dict) else None!r})"
        )
    RunManifest.from_dict(payload.get("manifest", {}))  # validates
    return payload
