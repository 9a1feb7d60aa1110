"""The benchmark's workloads: seeded inputs, timed operations, oracles.

Each workload builds its inputs from the seed alone (the program only
ever sees the generated grids and sampler arguments), runs one
repetition of its operations through :class:`harness.Harness`, and
computes its oracle after measuring is over:

* sweep outputs — area/perf/power, perf ratio, both NCFs, category
  codes, design names and the surviving grid points (so skipped
  invalid corners count) — are digested and compared byte for byte
  with the scalar :class:`repro.dse.Explorer` on the same grid;
* Monte-Carlo probabilities are compared with the plain serial,
  unstored, uncheckpointed sampler, and the serial samplers themselves
  with a NumPy re-derivation of the same draw.

Operation metric names (``*_pts_per_s``, ``*_samples_per_s``) are the
per-operation throughputs; each operation is also ``cold`` (computes
every result) or ``reuse`` (served by memo, checkpoint or store), which
gives the end-to-end ``cold_items_per_s`` / ``reuse_items_per_s``.
"""

from __future__ import annotations

import hashlib
from functools import partial
from operator import attrgetter, itemgetter
from pathlib import Path

import numpy as np

from repro.core.batch import CATEGORIES, classify_arrays
from repro.core.classify import Sustainability
from repro.core.design import DesignPoint
from repro.core.scenario import EMBODIED_DOMINATED
from repro.dse import (
    AsymmetricMulticoreFactory,
    BatchExplorer,
    Explorer,
    ParameterGrid,
    ResultStore,
    SymmetricMulticoreFactory,
    sample_measurement_noise,
    sample_verdicts,
)
from repro.resilience import CheckpointStore, RetryPolicy, sweep_fingerprint

from harness import pool_workers

BASELINE = DesignPoint.baseline("1-BCE single core")
WEIGHT = EMBODIED_DOMINATED
#: NCF crosses 1 inside the alpha band, so MC verdicts actually flip.
EDGE_DESIGN = DesignPoint("edge", area=1.1, perf=1.0, power=0.6)
NOISE_SIGMA = 0.1
#: Warm re-sweeps per explorer in a ``sweep_inmem`` repetition, and warm
#: store reads per ``mc_uncertainty`` repetition: each is short, so
#: several keep the reuse figures steady.
WARM_SWEEPS = 2
STORE_READS = 3

#: Input sizes. ``full`` is the benchmark; ``smoke`` is the self-test's.
SIZES = {
    "full": {
        "sym": (400, 250),  # cores x fractions = 100,000 points
        "count_repeat": 10,  # 1,000,000-point count grid
        "asym": (40, 25, 100),  # n x m x f = 100,000 points
        "asym_invalid": (0.24, 0.26),
        "durable": (200, 150),  # 30,000 points, ~30 chunks
        "mc": 1_000_000,
        "mc_checkpoint": 100_000,
    },
    "smoke": {
        "sym": (20, 10),
        "count_repeat": 3,
        "asym": (8, 5, 5),
        "asym_invalid": (0.10, 0.40),
        "durable": (16, 12),
        "mc": 2_000,
        "mc_checkpoint": 1_000,
    },
}


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
def _ints(rng: np.random.Generator, count: int, low: int, high: int) -> list[int]:
    """*count* distinct sorted ints in ``[low, high]``."""
    return sorted(int(v) for v in rng.choice(np.arange(low, high + 1), count, replace=False))


def _fractions(rng: np.random.Generator, count: int, low: float, high: float) -> list[float]:
    """*count* distinct sorted floats in ``[low, high)``."""
    values: set[float] = set()
    while len(values) < count:
        values.update(float(v) for v in rng.uniform(low, high, count - len(values)))
    return sorted(values)


def symmetric_axes(rng: np.random.Generator, cores: int, fractions: int) -> dict:
    return {"cores": _ints(rng, cores, 1, 4096), "f": _fractions(rng, fractions, 0.5, 0.99)}


def asymmetric_axes(
    rng: np.random.Generator, shape: tuple[int, int, int], band: tuple[float, float]
) -> dict:
    """Axes whose invalid (``m >= n``) share of the grid lies in *band*:
    redrawn until it does, so every seed carries the same skip load."""
    n_count, m_count, f_count = shape
    while True:
        totals = _ints(rng, n_count, 2, 256)
        bigs = _ints(rng, m_count, 1, 128)
        invalid = sum(m >= n for n in totals for m in bigs) / (n_count * m_count)
        if band[0] <= invalid <= band[1]:
            return {"n": totals, "m": bigs, "f": _fractions(rng, f_count, 0.5, 0.99)}


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------
def _digest(params, designs, perf, ncf_fw, ncf_ft, codes) -> str:
    h = hashlib.sha256()
    names = list(params[0]) if params else []
    h.update(repr(names).encode())
    point = itemgetter(*names)
    h.update(np.array([point(p) for p in params], dtype=np.float64).tobytes())
    for field in ("area", "perf", "power"):
        value = attrgetter(field)
        h.update(np.fromiter(map(value, designs), dtype=np.float64, count=len(designs)).tobytes())
    for column in (perf, ncf_fw, ncf_ft):
        h.update(np.asarray(column, dtype=np.float64).tobytes())
    h.update(np.asarray(codes, dtype=np.int64).tobytes())
    h.update("\n".join(d.name for d in designs).encode())
    return h.hexdigest()


def sweep_digest(result) -> str | None:
    """Digest of a :class:`BatchSweepResult` (None for a failed op)."""
    if result is None:
        return None
    return _digest(
        result.params,
        result.designs,
        result.perf,
        result.ncf_fixed_work,
        result.ncf_fixed_time,
        result.codes,
    )


def scalar_sweep(factory, grid: ParameterGrid) -> tuple[str, tuple[int, ...]]:
    """The oracle: digest and category histogram of ``Explorer.explore``."""
    results = Explorer(factory, BASELINE, WEIGHT).explore(grid)
    codes = [CATEGORIES.index(r.category) for r in results]
    digest = _digest(
        [r.params for r in results],
        [r.design for r in results],
        [r.perf for r in results],
        [r.ncf_fixed_work for r in results],
        [r.ncf_fixed_time for r in results],
        codes,
    )
    return digest, tuple(int(n) for n in np.bincount(codes, minlength=len(CATEGORIES)))


def histogram(counts) -> tuple[int, ...] | None:
    if counts is None:
        return None
    return tuple(int(counts.get(category, 0)) for category in CATEGORIES)


def probabilities(result) -> tuple | None:
    if result is None:
        return None
    return (result.samples, result.strong, result.weak, result.less, result.neutral)


def _probabilities_of(codes: np.ndarray) -> tuple:
    shares = dict(zip(CATEGORIES, (np.bincount(codes, minlength=len(CATEGORIES)) / codes.size).tolist()))
    return (
        int(codes.size),
        shares[Sustainability.STRONG],
        shares[Sustainability.WEAK],
        shares[Sustainability.LESS],
        shares[Sustainability.NEUTRAL],
    )


def _ratios():
    return (
        EDGE_DESIGN.area_ratio(BASELINE),
        EDGE_DESIGN.energy_ratio(BASELINE),
        EDGE_DESIGN.power_ratio(BASELINE),
    )


def reference_verdicts(samples: int, seed: int) -> tuple:
    """The alpha-band draw of ``sample_verdicts``, re-derived in NumPy."""
    area, energy, power = _ratios()
    lo, hi = WEIGHT.band
    alphas = np.random.default_rng(seed).uniform(lo, hi, size=samples)
    codes = classify_arrays(
        alphas * area + (1.0 - alphas) * energy, alphas * area + (1.0 - alphas) * power
    )
    return _probabilities_of(codes)


def reference_noise(samples: int, seed: int, alpha: float) -> tuple:
    """The lognormal draw of ``sample_measurement_noise``, re-derived."""
    area, energy, power = _ratios()
    noise = np.random.default_rng(seed).lognormal(
        mean=0.0, sigma=np.log1p(NOISE_SIGMA), size=(samples, 3)
    )
    area, energy, power = area * noise[:, 0], energy * noise[:, 1], power * noise[:, 2]
    codes = classify_arrays(
        alpha * area + (1.0 - alpha) * energy, alpha * area + (1.0 - alpha) * power
    )
    return _probabilities_of(codes)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, size: str) -> None:
        self.seed = seed
        self.size = SIZES[size]
        self.rng = np.random.default_rng(seed)

    def explorer(self, factory, **kwargs) -> BatchExplorer:
        return BatchExplorer(factory, BASELINE, WEIGHT, **kwargs)

    def rep(self, h) -> None:
        raise NotImplementedError

    def oracle(self) -> dict[str, object]:
        raise NotImplementedError


class SweepInmem(Workload):
    name = "sweep_inmem"
    why = (
        "cold and warm sweeps of both stock factories plus a 10^6-point count, "
        "in memory: grid, kernels, materialization, memo and classify do the "
        "work; checkpoint, store and pool stay idle"
    )

    def __init__(self, seed: int, size: str) -> None:
        super().__init__(seed, size)
        sym = symmetric_axes(self.rng, *self.size["sym"])
        self.sym_grid = ParameterGrid(sym)
        self.asym_grid = ParameterGrid(
            asymmetric_axes(self.rng, self.size["asym"], self.size["asym_invalid"])
        )
        repeat = self.size["count_repeat"]
        # Each fraction appears `repeat` times, so the count's histogram
        # is exactly `repeat` times the symmetric oracle's.
        self.count_grid = ParameterGrid(
            {"cores": sym["cores"], "f": [f for f in sym["f"] for _ in range(repeat)]}
        )
        self.sym = SymmetricMulticoreFactory()
        self.asym = AsymmetricMulticoreFactory()

    def rep(self, h) -> None:
        for factory, grid, label in ((self.sym, self.sym_grid, "sym"), (self.asym, self.asym_grid, "asym")):
            explorer = self.explorer(factory)
            for metric, phase in (("explore_cold_pts_per_s", "cold"), *[("explore_warm_pts_per_s", "reuse")] * WARM_SWEEPS):
                result = h.op(
                    metric, phase, len(grid), partial(explorer.explore_arrays, grid), explorer=explorer
                )
                h.observe(label, sweep_digest(result))
                h.account(explorer, len(grid))
                del result
        explorer = self.explorer(self.sym)
        grid = self.count_grid
        counts = h.op("count_pts_per_s", "cold", len(grid), partial(explorer.count_categories, grid), explorer=explorer)
        h.observe("count", histogram(counts))
        sweep = explorer.last_sweep
        h.expect(
            sweep is not None and sweep.vector_points == len(grid),
            "count_categories did not run every point through the kernels",
        )

    def oracle(self) -> dict[str, object]:
        sym_digest, sym_hist = scalar_sweep(self.sym, self.sym_grid)
        asym_digest, _ = scalar_sweep(self.asym, self.asym_grid)
        repeat = self.size["count_repeat"]
        return {
            "sym": sym_digest,
            "asym": asym_digest,
            "count": tuple(n * repeat for n in sym_hist),
        }


class SweepDurable(Workload):
    name = "sweep_durable"
    why = (
        "checkpointed sweep, resume, store write, store read and a 50% "
        "delta sweep side by side: checkpoint and store take most of the wall"
    )

    def __init__(self, seed: int, size: str) -> None:
        super().__init__(seed, size)
        cores, fractions = self.size["durable"]
        axes = symmetric_axes(self.rng, cores, fractions)
        self.grid = ParameterGrid(axes)
        half = fractions // 2
        fresh = _fractions(self.rng, fractions - half, 0.2, 0.49)
        # Same cores; half the fractions shared, half new: the delta
        # grid shares exactly 50% of its points with the first grid.
        self.delta_grid = ParameterGrid({"cores": axes["cores"], "f": axes["f"][half:] + fresh})
        self.factory = SymmetricMulticoreFactory()

    def _restored_points(self, path: Path, chunk_size: int) -> int:
        """Rows in the checkpoint *path* — what a resume restores."""
        fingerprint = sweep_fingerprint(
            axes=self.grid.axes,
            chunk_size=chunk_size,
            baseline=BASELINE,
            alpha=WEIGHT.alpha,
            factory=self.factory,
        )
        state = CheckpointStore(path).load(kind="sweep", fingerprint=fingerprint)
        return sum(len(rows) for rows in state["chunks"])

    def rep(self, h) -> None:
        grid, points = self.grid, len(self.grid)
        work = h.tempdir("durable")
        checkpoint = work / "sweep.checkpoint.json"
        store_dir = work / "store"

        explorer = self.explorer(self.factory)
        result = h.op(
            "checkpoint_sweep_pts_per_s", "cold", points,
            partial(explorer.explore_arrays, grid, checkpoint=checkpoint), explorer=explorer,
        )
        h.observe("grid", sweep_digest(result))
        h.account(explorer, points)
        del result

        explorer = self.explorer(self.factory)
        result = h.op(
            "resume_pts_per_s", "reuse", points,
            partial(explorer.explore_arrays, grid, checkpoint=checkpoint, resume=True),
            explorer=explorer,
        )
        h.observe("grid", sweep_digest(result))
        if result is not None:
            h.account(explorer, points, self._restored_points(checkpoint, explorer.chunk_size))
        del result

        for metric, phase, target, label in (
            ("store_cold_pts_per_s", "cold", grid, "grid"),
            ("store_warm_pts_per_s", "reuse", grid, "grid"),
            ("delta_pts_per_s", "reuse", self.delta_grid, "delta"),
        ):
            explorer = self.explorer(self.factory)
            store = ResultStore(store_dir)
            result = h.op(
                metric, phase, len(target),
                partial(explorer.explore_arrays, target, store=store), explorer=explorer,
            )
            h.observe(label, sweep_digest(result))
            h.account(explorer, len(target))
            h.store_stats(store.stats())
            del result

    def oracle(self) -> dict[str, object]:
        return {
            "grid": scalar_sweep(self.factory, self.grid)[0],
            "delta": scalar_sweep(self.factory, self.delta_grid)[0],
        }


class McUncertainty(Workload):
    name = "mc_uncertainty"
    why = (
        "alpha-band and measurement-noise Monte-Carlo at 10^6 samples, then "
        "a checkpointed run, a store write and store reads: many small segments"
    )

    def __init__(self, seed: int, size: str) -> None:
        super().__init__(seed, size)
        self.mc_seed = int(self.rng.integers(2**31))
        lo, hi = WEIGHT.band
        self.alpha = float(self.rng.uniform(lo, hi))

    def _verdicts(self, samples: int, **kwargs):
        return sample_verdicts(
            EDGE_DESIGN, BASELINE, WEIGHT, samples=samples, seed=self.mc_seed, **kwargs
        )

    def rep(self, h) -> None:
        samples = self.size["mc"]
        small = self.size["mc_checkpoint"]
        result = h.op("mc_samples_per_s", "cold", samples, partial(self._verdicts, samples), layer="montecarlo")
        h.observe("verdicts", probabilities(result))
        result = h.op(
            "mc_samples_per_s", "cold", samples,
            lambda: sample_measurement_noise(
                EDGE_DESIGN, BASELINE, self.alpha, relative_sigma=NOISE_SIGMA,
                samples=samples, seed=self.mc_seed,
            ),
            layer="montecarlo",
        )
        h.observe("noise", probabilities(result))
        work = h.tempdir("mc")
        checkpoint = work / "mc.checkpoint.json"
        result = h.op(
            "mc_checkpoint_samples_per_s", "cold", small,
            partial(self._verdicts, small, checkpoint=checkpoint), layer="montecarlo",
        )
        h.observe("small", probabilities(result))
        # One store write, then several reads, each through a fresh
        # ResultStore so every read comes from disk.
        for metric, phase in (
            ("mc_store_cold_samples_per_s", "cold"),
            *[("mc_store_warm_samples_per_s", "reuse")] * STORE_READS,
        ):
            store = ResultStore(work / "store")
            result = h.op(
                metric, phase, small, partial(self._verdicts, small, store=store), layer="montecarlo"
            )
            h.observe("small", probabilities(result))
            stats = store.stats()
            h.store_stats(stats, served_items=stats.hits, items=small)

    def oracle(self) -> dict[str, object]:
        samples = self.size["mc"]
        return {
            "verdicts": reference_verdicts(samples, self.mc_seed),
            "noise": reference_noise(samples, self.mc_seed, self.alpha),
            "small": probabilities(self._verdicts(self.size["mc_checkpoint"])),
        }


class SweepPool(Workload):
    name = "sweep_pool"
    why = (
        "the in-memory symmetric sweep on a supervised two-worker pool, "
        "spawn included, then a warm re-sweep: the only parallel workload"
    )

    def __init__(self, seed: int, size: str) -> None:
        super().__init__(seed, size)
        self.grid = ParameterGrid(symmetric_axes(self.rng, *self.size["sym"]))
        self.factory = SymmetricMulticoreFactory()
        self.workers = pool_workers()

    def rep(self, h) -> None:
        grid = self.grid
        explorer = self.explorer(self.factory, workers=self.workers, resilience=RetryPolicy())
        for metric, phase in (("explore_cold_pts_per_s", "cold"), ("explore_warm_pts_per_s", "reuse")):
            result = h.op(metric, phase, len(grid), partial(explorer.explore_arrays, grid), explorer=explorer)
            h.observe("sym", sweep_digest(result))
            h.account(explorer, len(grid))
            del result

    def oracle(self) -> dict[str, object]:
        return {"sym": scalar_sweep(self.factory, self.grid)[0]}


WORKLOADS = {w.name: w for w in (SweepInmem, SweepDurable, McUncertainty, SweepPool)}
