"""Reproducible random streams for Monte Carlo work.

Streams are counter-based (Philox, 64-bit words) and split by an explicit
stream id: ``stream(seed, rep)`` keys the generator with the pair
``(seed, rep)``, and by convention the stream id is the replication index.
Results are therefore independent of execution order.

Normal variates are produced by inverse-CDF transform of open-interval
uniforms (Wichura-class inverse normal CDF from scipy), not by rejection
sampling, so every draw consumes a fixed amount of the stream. The first
``standard_normal`` call imports ``scipy.special``; a process that draws
no normal variate never loads it.
"""
from __future__ import annotations

import math

import numpy as np

from .core import _check_int

__all__ = ["stream", "uniform_open", "standard_normal", "indexed_map"]

_DENOM = float(1 << 53)

# Largest seed or stream id: Philox takes two 64-bit key words.
_MAX_KEY = (1 << 64) - 1


def stream(seed: int, stream_id: int) -> np.random.Generator:
    """Independent generator for (seed, stream_id); stream id = replication index."""
    key = np.array([_check_int(seed, "seed", 0, _MAX_KEY),
                    _check_int(stream_id, "stream_id", 0, _MAX_KEY)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def uniform_open(gen: np.random.Generator, size=None) -> np.ndarray:
    """Uniform draws in the open interval (0, 1); safe under inverse-CDF maps."""
    return (gen.integers(0, 1 << 53, size=size).astype(np.float64) + 0.5) / _DENOM


def standard_normal(gen: np.random.Generator, size=None) -> np.ndarray:
    """Standard normal draws via the inverse CDF (|error| far below 1e-9)."""
    from scipy.special import ndtri

    return ndtri(uniform_open(gen, size=size))


def indexed_map(fn, count: int, threads: int = 1) -> list:
    """``[fn(0), ..., fn(count - 1)]``, called in index order on the calling thread.

    ``threads`` is accepted and has no effect: a thread pool measured slower.
    """
    return [fn(i) for i in range(_check_int(count, "count", 0))]


def _mean_stderr(values) -> tuple[float, float]:
    """Mean and standard error of the mean (inf for a single value), summed with fsum."""
    n = len(values)
    mean = math.fsum(values) / n
    if n > 1:
        var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
        stderr = math.sqrt(var / n)
    else:
        stderr = math.inf
    return mean, stderr
