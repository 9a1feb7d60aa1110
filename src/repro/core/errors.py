"""Exception hierarchy for the FOCAL reproduction.

All errors raised by this library derive from :class:`ReproError`, so
callers can catch a single base class. Specific subclasses communicate
*why* an input or operation was rejected, which matters in a modeling
library where silent garbage-in/garbage-out would corrupt conclusions.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ValidationError",
    "DomainError",
    "QuarantinedPoint",
    "ConvergenceError",
    "ConfigurationError",
    "UnknownStudyError",
    "ResilienceError",
    "CheckpointError",
    "WorkerPoolError",
]


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class ValidationError(ReproError, ValueError):
    """An input value violates a model precondition.

    Raised at construction time of model objects (e.g. a negative chip
    area, a parallel fraction outside ``[0, 1]``), so that invalid
    designs can never enter a study.
    """


class DomainError(ReproError, ValueError):
    """A function was evaluated outside its mathematical domain.

    Distinguished from :class:`ValidationError` in that the *object* is
    valid but the requested *operation* is not (e.g. asking for the
    speedup of an asymmetric multicore whose big core consumes the whole
    chip, leaving no small cores for the parallel phase).
    """


class QuarantinedPoint(DomainError):
    """A design point isolated by failure containment, not evaluated.

    Subclasses :class:`DomainError` so the sweep engine treats a
    quarantined point exactly like an invalid corner of the design
    space — it is excluded from the result arrays and memoized — while
    remaining distinguishable for reporting (quarantined points are
    surfaced in ``BatchSweepResult.quarantined``, ``SweepEngineStats``
    and the quarantine ledger; see
    :mod:`repro.resilience.containment`).
    """


class ConvergenceError(ReproError, RuntimeError):
    """An iterative solver (bisection, fixed point) failed to converge."""


class ConfigurationError(ReproError, ValueError):
    """A study or sweep was configured inconsistently."""


class UnknownStudyError(ReproError, KeyError):
    """A study name was not found in the study registry."""


class ResilienceError(ReproError, RuntimeError):
    """The resilient execution layer could not complete an operation.

    Base class for failures of the supervision/checkpoint machinery
    itself (as opposed to model errors); see
    :mod:`repro.resilience`.
    """


class CheckpointError(ResilienceError):
    """A checkpoint file is unusable for the requested resume.

    Raised when a checkpoint's fingerprint does not match the run being
    resumed (different grid, chunk size, baseline, sampler, ...) or when
    strict loading encounters a missing/corrupt file. Damage under
    non-strict loading is not an error: the run resumes from the
    journal's valid prefix (or restarts cold if its header is bad).
    """


class WorkerPoolError(ResilienceError):
    """The supervised worker pool exhausted every recovery path.

    Only raised when retries are exhausted *and* in-process degradation
    is disabled by policy; with the default policy the pool degrades
    instead of raising.
    """
