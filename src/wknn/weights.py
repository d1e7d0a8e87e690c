"""Optimal training-sample weights from nearest-neighbor counts.

The weight of training point j is proportional to the number of
(evaluation point, neighbor rank) pairs that select j. Weights are kept
as floats but always derived from the integer counts, so the sum and the
integer-multiple structure survive round-tripping exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DiscreteMeasure, InvalidInputError, Sample
from .core import _as_sample, _check_int, _freeze, _trusted
from .knn import NeighborTable

__all__ = ["WeightVector", "knn_weights", "weighted_measure"]


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Nonnegative weights over m training points, summing to m.

    Every weight is an integer multiple of m/(k*n); ``counts`` holds the
    underlying selection counts (counts.sum() == k*n), and the constructor
    rejects a ``w`` that disagrees with them.
    """

    k: int
    n: int
    m: int
    counts: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        k, n, m = (_check_int(getattr(self, name), name) for name in ("k", "n", "m"))
        counts = np.asarray(self.counts, dtype=np.int64)
        w = np.asarray(self.w, dtype=np.float64)
        if counts.shape != (m,) or w.shape != (m,):
            raise InvalidInputError("counts and w must be length-m vectors")
        if np.any(counts < 0):
            raise InvalidInputError("counts must be nonnegative")
        if int(counts.sum()) != k * n:
            raise InvalidInputError("counts must sum to k*n")
        if not np.allclose(w, counts * (m / (k * n)), rtol=1e-12, atol=0.0):
            raise InvalidInputError("w must equal counts * m/(k*n) within 1e-12 (relative)")
        _freeze(self, k=k, n=n, m=m, counts=counts.copy(), w=w.copy())


def knn_weights(table: NeighborTable, m: int) -> WeightVector:
    """Weight vector induced by a neighbor table over m training points.

    w_j = (m / (k*n)) * #{(i, l) : table row i rank l selects j}. The counts
    come from ``NeighborTable.selection_counts``, so a table with repeated
    rows is counted once per distinct row and never expanded to (n, k).
    """
    m = _check_int(m, "m")
    counts = table.selection_counts(m)
    n = table.n
    w = counts * (m / (table.k * n))
    return _trusted(WeightVector, k=table.k, n=n, m=m, counts=counts, w=w)


def weighted_measure(train: Sample, wv: WeightVector) -> DiscreteMeasure:
    """Weighted empirical measure of the training sample: mass w_j / m on point j."""
    train = _as_sample(train)
    if wv.m != train.size:
        raise InvalidInputError(
            f"weight vector is for m={wv.m} points but the sample has {train.size}"
        )
    # counts/(k*n) equals w/m with one rounding fewer.
    masses = wv.counts / (wv.k * wv.n)
    return _trusted(DiscreteMeasure, points=train, masses=masses)
