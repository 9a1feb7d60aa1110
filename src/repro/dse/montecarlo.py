"""Monte-Carlo robustness of sustainability verdicts.

Samples the embodied-to-operational weight (and optionally any other
uncertain ratio) from simple distributions and reports the probability
of each sustainability category — a stochastic complement to the exact
interval analysis in :mod:`repro.core.uncertainty`.

Both samplers accept ``checkpoint``/``resume``: samples are then drawn
in chunks of ``checkpoint_every``, each completed chunk appending its
classified codes plus the RNG state after it as one record of a
:class:`~repro.resilience.checkpoint.CheckpointStore` journal. Resume
restores the codes and the generator state and continues drawing —
NumPy ``Generator`` streams are split-invariant, so the chunked,
killed-and-resumed run produces byte-identical probabilities to an
uninterrupted one.

Both samplers also accept ``store``: a persistent
:class:`~repro.dse.store.ResultStore` that keeps classified rng-stream
*segments* keyed by the sampler fingerprint (minus the sample total)
plus the segment's ``(start, count)`` position. A re-run of the same
configuration — even asking for *more* samples — replays the stored
prefix byte-identically (each segment carries the post-segment
generator state, which is the only way to continue a data-dependent
draw like the lognormal ziggurat) and only draws what the store has
never seen. Segments are cut at ``checkpoint_every`` boundaries, so a
reader with a different ``checkpoint_every`` conservatively recomputes
rather than risking a misaligned splice.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.batch import category_counts, classify_arrays
from ..core.classify import Sustainability
from ..core.design import DesignPoint
from ..core.errors import CheckpointError, ValidationError
from ..core.scenario import E2OWeight
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..resilience.checkpoint import CheckpointStore
from .store import ResultStore

__all__ = [
    "CategoryProbabilities",
    "sample_verdicts",
    "sample_measurement_noise",
    "CONVERGENCE_CHECKPOINTS",
]

#: How many running-mix checkpoints a traced sampler records (the
#: sample range is split into this many equal prefixes).
CONVERGENCE_CHECKPOINTS = 10


@dataclass(frozen=True, slots=True)
class CategoryProbabilities:
    """Empirical probability of each sustainability category."""

    samples: int
    strong: float
    weak: float
    less: float
    neutral: float

    @property
    def most_likely(self) -> Sustainability:
        best = max(
            (
                (self.strong, Sustainability.STRONG),
                (self.weak, Sustainability.WEAK),
                (self.less, Sustainability.LESS),
                (self.neutral, Sustainability.NEUTRAL),
            ),
            key=lambda pair: pair[0],
        )
        return best[1]


def _probabilities_from_codes(
    codes: np.ndarray, samples: int
) -> CategoryProbabilities:
    counts = category_counts(codes)
    return CategoryProbabilities(
        samples=samples,
        strong=counts[Sustainability.STRONG] / samples,
        weak=counts[Sustainability.WEAK] / samples,
        less=counts[Sustainability.LESS] / samples,
        neutral=counts[Sustainability.NEUTRAL] / samples,
    )


def _running_mix(
    codes: np.ndarray, checkpoints: int = CONVERGENCE_CHECKPOINTS
) -> list[dict[str, object]]:
    """The running category mix at evenly spaced sample prefixes.

    Convergence telemetry for traced runs: each row holds the empirical
    category probabilities over the first *k* samples, so a trace shows
    whether 100k samples were 10x too many or not nearly enough. Pure
    observation — the final verdict probabilities are untouched.
    """
    samples = int(codes.size)
    checkpoints = max(1, min(checkpoints, samples))
    marks = sorted({round(samples * (i + 1) / checkpoints) for i in range(checkpoints)})
    rows: list[dict[str, object]] = []
    for k in marks:
        prefix = _probabilities_from_codes(codes[:k], k)
        rows.append(
            {
                "samples": k,
                "strong": prefix.strong,
                "weak": prefix.weak,
                "less": prefix.less,
                "neutral": prefix.neutral,
            }
        )
    return rows


def _observed_from_codes(
    codes: np.ndarray,
    samples: int,
    sampler: str,
    start_s: float,
    span_,
    registry: _metrics.MetricsRegistry,
) -> CategoryProbabilities:
    """Histogram pre-classified codes; record throughput + convergence."""
    result = _probabilities_from_codes(codes, samples)
    seconds = time.perf_counter() - start_s
    if span_ is not _trace.NULL_SPAN:
        span_.set(
            seconds=seconds,
            samples_per_s=samples / seconds if seconds > 0 else float("inf"),
            most_likely=result.most_likely.value,
            convergence=_running_mix(codes),
        )
    if registry.enabled:
        labels = {"sampler": sampler}
        registry.counter(
            "focal_mc_samples_total", "Monte-Carlo samples classified", labels
        ).inc(samples)
        registry.gauge(
            "focal_mc_samples_per_s", "samples per second, last sampler call", labels
        ).set(samples / seconds if seconds > 0 else 0.0)
    return result


def _point_fields(point: DesignPoint) -> dict:
    """A design point as bit-exact JSON-able fields (for fingerprints)."""
    return {
        "name": point.name,
        "area": point.area.hex(),
        "perf": point.perf.hex(),
        "power": point.power.hex(),
    }


def _checkpointed_codes(
    draw: Callable[[np.random.Generator, int], np.ndarray],
    *,
    samples: int,
    seed: int,
    checkpoint: "CheckpointStore | str | os.PathLike | None",
    resume: bool,
    checkpoint_every: int,
    fingerprint: dict,
    store: "ResultStore | str | os.PathLike | None" = None,
) -> tuple[np.ndarray, int]:
    """Draw+classify *samples* codes, chunk-checkpointing the stream.

    ``draw(rng, n)`` consumes exactly the generator variates an
    uninterrupted run would for the next *n* samples and returns their
    classification codes. Without a checkpoint or store the whole
    range is one draw; otherwise the stream advances
    ``checkpoint_every`` samples at a time, persisting codes + RNG
    state after each chunk. Either way the concatenated
    codes are identical — NumPy ``Generator`` streams do not depend on
    how the draw is split.

    With a persistent *store*, each segment is first looked up by
    ``(fingerprint minus samples, start, count)``: a hit adopts the
    stored codes and jumps the generator to the stored post-segment
    state instead of drawing; a miss draws and persists the segment.
    Returns ``(codes, store_samples)`` — the second element counts
    samples replayed from the store.
    """
    if checkpoint_every < 1:
        raise ValidationError(
            f"checkpoint_every must be >= 1, got {checkpoint_every}"
        )
    ckpt, state = CheckpointStore.open(
        checkpoint, resume=resume, kind="montecarlo", fingerprint=fingerprint
    )
    result_store = ResultStore.coerce(store)
    segment_fp: dict | None = None
    if result_store is not None:
        # The sample total is deliberately dropped: segments of a
        # 10k-sample run are a bit-exact prefix of a 100k-sample run of
        # the same configuration, so the longer run reuses them.
        segment_fp = {
            key: value for key, value in fingerprint.items() if key != "samples"
        }
        segment_fp["checkpoint_every"] = checkpoint_every
    rng = np.random.default_rng(seed)
    done: list[np.ndarray] = []
    drawn = 0
    reused = 0
    if state is not None:
        codes = state.get("codes")
        if not isinstance(codes, list) or len(codes) > samples:
            raise CheckpointError(
                f"checkpoint {ckpt.path} records "
                f"{len(codes) if isinstance(codes, list) else '?'} codes "
                f"for a {samples}-sample run"
            )
        if codes:
            done.append(np.asarray(codes, dtype=np.int8))
            drawn = len(codes)
            rng.bit_generator.state = state.get("rng_state")
    step = (
        samples if ckpt is None and result_store is None else checkpoint_every
    )
    while drawn < samples:
        count = min(step, samples - drawn)
        segment = (
            result_store.load_segment(segment_fp, drawn, count)
            if result_store is not None
            else None
        )
        if segment is not None:
            codes_arr, rng_state = segment
            rng.bit_generator.state = rng_state
            reused += count
        else:
            codes_arr = draw(rng, count)
            if result_store is not None:
                result_store.save_segment(
                    segment_fp, drawn, count, codes_arr,
                    rng.bit_generator.state,
                )
        done.append(codes_arr)
        drawn += count
        if ckpt is not None and not ckpt.save_or_warn(
            kind="montecarlo",
            fingerprint=fingerprint,
            state={"codes": codes_arr.tolist(), "rng_state": rng.bit_generator.state},
        ):
            ckpt = None
    return (done[0] if len(done) == 1 else np.concatenate(done)), reused


def sample_verdicts(
    design: DesignPoint,
    baseline: DesignPoint,
    weight: E2OWeight,
    *,
    samples: int = 10_000,
    seed: int = 0,
    checkpoint: "CheckpointStore | str | os.PathLike | None" = None,
    resume: bool = False,
    checkpoint_every: int = 4096,
    store: "ResultStore | str | os.PathLike | None" = None,
) -> CategoryProbabilities:
    """Sample alpha uniformly over the weight band and classify.

    For a fixed design pair the verdict only depends on alpha through
    the two NCF values, so this directly measures how often the
    conclusion would flip within the uncertainty band. The draw runs
    in-process.

    ``checkpoint``/``resume``/``checkpoint_every`` enable crash-safe
    chunked sampling, and ``store`` persistent cross-run segment reuse
    (see the module docs); results are bit-identical with or without
    them.
    """
    if samples < 1:
        raise ValidationError(f"samples must be >= 1, got {samples}")
    registry = _metrics.get_registry()
    with _trace.span(
        "mc.sample_verdicts",
        samples=samples,
        seed=seed,
        design=design.name,
        baseline=baseline.name,
        weight=weight.name,
    ) as sp:
        start_s = time.perf_counter()
        lo, hi = weight.band
        area = design.area_ratio(baseline)
        energy = design.energy_ratio(baseline)
        power = design.power_ratio(baseline)

        def draw(rng: np.random.Generator, count: int) -> np.ndarray:
            alphas = (
                rng.uniform(lo, hi, size=count)
                if hi > lo
                else np.full(count, lo)
            )
            ncf_fw = alphas * area + (1.0 - alphas) * energy
            ncf_ft = alphas * area + (1.0 - alphas) * power
            return classify_arrays(ncf_fw, ncf_ft)

        codes, store_samples = _checkpointed_codes(
            draw,
            samples=samples,
            seed=seed,
            checkpoint=checkpoint,
            resume=resume,
            checkpoint_every=checkpoint_every,
            fingerprint={
                "sampler": "sample_verdicts",
                "design": _point_fields(design),
                "baseline": _point_fields(baseline),
                "band": [float(lo).hex(), float(hi).hex()],
                "samples": samples,
                "seed": seed,
            },
            store=store,
        )
        if store is not None and sp is not _trace.NULL_SPAN:
            sp.set(store_samples=store_samples)
        return _observed_from_codes(
            codes, samples, "sample_verdicts", start_s, sp, registry
        )


def sample_measurement_noise(
    design: DesignPoint,
    baseline: DesignPoint,
    alpha: float,
    *,
    relative_sigma: float = 0.1,
    samples: int = 10_000,
    seed: int = 0,
    checkpoint: "CheckpointStore | str | os.PathLike | None" = None,
    resume: bool = False,
    checkpoint_every: int = 4096,
    store: "ResultStore | str | os.PathLike | None" = None,
) -> CategoryProbabilities:
    """Verdict robustness to *measurement* uncertainty (paper §2).

    The paper's whole premise is that inputs are uncertain: area,
    energy and power figures come from McPAT runs, vendor claims and
    annotated die shots. This samples lognormal multiplicative noise of
    the given relative sigma on each of the design's three ratios
    (independently) at a fixed alpha, and reports how often the
    sustainability verdict survives. Like :func:`sample_verdicts` it
    runs in-process.

    ``checkpoint``/``resume``/``checkpoint_every`` enable crash-safe
    chunked sampling, and ``store`` persistent cross-run segment reuse
    (the stored post-segment generator state is what makes this work
    for the ziggurat's data-dependent stream consumption — see the
    module docs); results are bit-identical with or without them.
    """
    if samples < 1:
        raise ValidationError(f"samples must be >= 1, got {samples}")
    if relative_sigma < 0.0:
        raise ValidationError(f"relative_sigma must be >= 0, got {relative_sigma}")
    registry = _metrics.get_registry()
    with _trace.span(
        "mc.sample_measurement_noise",
        samples=samples,
        seed=seed,
        design=design.name,
        baseline=baseline.name,
        alpha=alpha,
        relative_sigma=relative_sigma,
    ) as sp:
        start_s = time.perf_counter()
        # Lognormal with median 1: exp(N(0, sigma_log)). For small sigma the
        # log-sigma approximates the relative sigma.
        sigma_log = np.log1p(relative_sigma)
        area_ratio = design.area_ratio(baseline)
        energy_ratio = design.energy_ratio(baseline)
        power_ratio = design.power_ratio(baseline)

        def draw(rng: np.random.Generator, count: int) -> np.ndarray:
            noise = rng.lognormal(mean=0.0, sigma=sigma_log, size=(count, 3))
            area = area_ratio * noise[:, 0]
            energy = energy_ratio * noise[:, 1]
            power = power_ratio * noise[:, 2]
            ncf_fw = alpha * area + (1.0 - alpha) * energy
            ncf_ft = alpha * area + (1.0 - alpha) * power
            return classify_arrays(ncf_fw, ncf_ft)

        codes, store_samples = _checkpointed_codes(
            draw,
            samples=samples,
            seed=seed,
            checkpoint=checkpoint,
            resume=resume,
            checkpoint_every=checkpoint_every,
            fingerprint={
                "sampler": "sample_measurement_noise",
                "design": _point_fields(design),
                "baseline": _point_fields(baseline),
                "alpha": float(alpha).hex(),
                "relative_sigma": float(relative_sigma).hex(),
                "samples": samples,
                "seed": seed,
            },
            store=store,
        )
        if store is not None and sp is not _trace.NULL_SPAN:
            sp.set(store_samples=store_samples)
        return _observed_from_codes(
            codes, samples, "sample_measurement_noise", start_s, sp, registry
        )
