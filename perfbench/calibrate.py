"""A fixed calibration kernel: how fast is this host right now?

Shared hosts swing in speed by a third over tens of seconds, so raw
items per second from two runs a minute apart differ more than most code
changes do. The benchmark therefore times this kernel around the timed
operations, at most :data:`REFRESH_S` apart, and divides each
operation's seconds by the mean of the kernel timings just before and
just after it. End-to-end throughput is then in *calibration units*:
items processed in the time one run of this kernel takes. Both measures
share the host's current speed, so their ratio cancels it.

The kernel mixes the work the program itself does: tuple-keyed dict
builds and shuffled lookups, small-object allocation, float formatting
and NumPy elementwise passes. It uses nothing from ``repro``, so no
change to the program can move it.
"""

from __future__ import annotations

import time

import numpy as np

#: Re-time the kernel when the last timing is older than this.
REFRESH_S = 1.0

_KEYS = [(("cores", i), ("f", i * 0.37)) for i in range(40_000)]
_ORDER = np.random.default_rng(0).permutation(len(_KEYS)).tolist()
_VALUES = np.random.default_rng(1).uniform(0.5, 1.5, 200_000)


def kernel() -> int:
    table = {key: (i, float(i)) for i, key in enumerate(_KEYS)}
    total = 0
    for index in _ORDER:
        total += table[_KEYS[index]][0]
    names = [f"sym {i}c f={x:g}" for i, x in zip(range(20_000), _VALUES.tolist())]
    y = _VALUES
    for _ in range(10):
        y = np.sqrt(y * 1.0001 + 0.5) / 1.2
    codes = np.bincount((y > 0.9).astype(np.int64) + (y > 1.0), minlength=4)
    return total + len(names) + int(codes[0])


def seconds() -> float:
    """Wall time of one kernel run."""
    begin = time.perf_counter()
    kernel()
    return time.perf_counter() - begin
