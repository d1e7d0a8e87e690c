"""A fixed calibration loop that reads the host's speed of the moment.

The benchmark runs on shared hosts whose speed swings by up to 1.6x
within a minute: the same instructions take longer while the neighbours
are busy, in CPU time as much as in wall time. ``run.py`` times this loop
next to every batch (and after every set-up probe) and multiplies the
batch's times by ``REFERENCE_S / loop time``. A timing then reads what it
would on a host where this loop takes ``REFERENCE_S``: a slower program
still reads slower, while a slower host mostly cancels out. The raw
times go to the record beside the scaled ones.

The loop is the benchmark's own code and never changes with wknn. It
mixes the three kinds of work the workloads do: interpreter steps, many
small numpy calls and one array pass over a few megabytes.
"""
from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# The loop's median time on a 2-core Xeon VM (2.1 GHz, Python 3.11.7,
# numpy 2.4.6) in its usual state; any fixed value would do.
REFERENCE_S = 0.012

_gen = np.random.default_rng(12345)
_SQUARE = _gen.random((60, 60))
_ROWS = _gen.random((1500, 2))
_COLS = _gen.random((200, 2))


def _kernel() -> float:
    total = 0
    for i in range(30_000):
        total += i * i
    for _ in range(30):
        prod = _SQUARE @ _SQUARE
        total += int(np.argmin(prod, axis=1).sum())
    dist = ((_ROWS[:, None, :] - _COLS[None, :, :]) ** 2).sum(axis=-1)
    return total + float(dist.min(axis=1).sum())


def loop_seconds(repeats: int = 3) -> float:
    """Median seconds of the loop over ``repeats`` timed runs, after one untimed run."""
    _kernel()
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        _kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor for times taken between two loop readings."""
    return REFERENCE_S / (0.5 * (before + after))
