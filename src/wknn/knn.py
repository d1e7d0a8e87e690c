"""Exact k-nearest-neighbor queries with deterministic tie handling.

Neighbors of a query point are ordered by (distance, training index)
ascending, so a distance tie always resolves to the lowest training
index. The accelerated index is contractually exact: its output is
bit-identical to the brute-force path (no approximate mode), which the
test suite enforces on random instances including duplicated points.

``neighbor_table`` is the package's one k-NN path. It queries a kd-tree
given at least 2 evaluation rows, at least 32 training points and 2k < m,
and runs the dense brute force otherwise; the tests keep that, and
``knn_query`` (the brute force for one point), as oracles. On the kd-tree
path it is the one place that deduplicates evaluation rows: it queries
each distinct row once, and the ``NeighborTable`` it returns keeps those
answers plus a map from the n rows into them, so repeated rows cost one
answer each until a caller reads the full (n, k) arrays.

The first ``KnnIndex`` imports ``scipy.spatial``; a process that stays on
the brute force never loads it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .core import DEFAULT_NORM, InvalidInputError, Norm, NumericalError, Sample, _trusted, as_point
from .core import _as_sample, _check_dims, _check_int, _finite_array, _freeze, _reduce_norm

__all__ = ["NeighborTable", "knn_query", "neighbor_table", "KnnIndex"]

# Relative width of the window around the k-th distance inside which the
# accelerated index re-checks candidates for ties; far wider than any
# float rounding discrepancy, far narrower than genuine distance gaps.
_TIE_RTOL = 1e-9

# From this training size on, neighbor_table builds the spatial index
# instead of running the dense brute force (identical output either way),
# unless 2k >= m. At n=100, d=2, k=1 the kd-tree overtakes the brute force
# near m=32. Its cost per row grows with k while the brute force's does
# not, so at fixed m it loses once k passes about m/3 (m=64) to m/2
# (m >= 512).
_INDEX_THRESHOLD = 32

# ... and at least this many evaluation rows, repeats included: at m=1000,
# d=2, k=1 one row took about 240 us through a kd-tree and 80 us by brute
# force. Two keeps every caller with more than one row on the kd-tree.
_INDEX_MIN_ROWS = 2

# Cap on the number of floats materialized per brute-force block.
_BLOCK_BUDGET = 4_000_000


@dataclass(frozen=True, eq=False, init=False)
class NeighborTable:
    """Per-evaluation-point neighbor indices and distances.

    Row i of ``indices`` holds the k nearest training indices for evaluation
    point i, ordered by (distance, index); ``distances`` holds their
    distances, nondecreasing along rows. Both are read-only (n, k) arrays.

    A table that ``neighbor_table`` builds from repeated evaluation rows
    stores the answers of the u distinct rows and a length-n map into them.
    ``indices`` and ``distances`` expand that map on first read and keep
    the result; ``selection_counts`` never expands it. A table built by
    this constructor has no map.
    """

    k: int
    _idx: np.ndarray  # (u, k) neighbor indices of the distinct rows
    _dist: np.ndarray  # (u, k) neighbor distances of the distinct rows
    _row_of: Optional[np.ndarray]  # row i's answer is row _row_of[i]; None when u == n

    def __init__(self, k: int, indices, distances):
        idx = np.asarray(indices, dtype=np.int64)
        dist = np.asarray(distances, dtype=np.float64)
        if idx.ndim != 2 or idx.shape != dist.shape:
            raise InvalidInputError("indices and distances must be matching (n, k) arrays")
        k = _check_int(k, "k")
        if idx.shape[1] != k:
            raise InvalidInputError(f"k={k} does not match the table width {idx.shape[1]}")
        if idx.shape[0] == 0:
            raise InvalidInputError("a neighbor table needs at least one row")
        if np.any(np.diff(dist, axis=1) < 0):
            raise InvalidInputError("row distances must be nondecreasing")
        if k > 1 and np.any(np.diff(np.sort(idx, axis=1), axis=1) == 0):
            raise InvalidInputError("each row must hold distinct training indices")
        if np.any(idx < 0):
            raise InvalidInputError("training indices must be nonnegative")
        _freeze(self, k=k, _idx=idx.copy(), _dist=dist.copy(), _row_of=None)

    @property
    def n(self) -> int:
        """Number of evaluation rows, repeats included."""
        return len(self._idx if self._row_of is None else self._row_of)

    @property
    def indices(self) -> np.ndarray:
        return self._idx if self._row_of is None else self._full_idx

    @property
    def distances(self) -> np.ndarray:
        return self._dist if self._row_of is None else self._full_dist

    @cached_property
    def _full_idx(self) -> np.ndarray:
        return self._expand(self._idx)

    @cached_property
    def _full_dist(self) -> np.ndarray:
        return self._expand(self._dist)

    def _expand(self, answers: np.ndarray) -> np.ndarray:
        full = answers[self._row_of]
        full.flags.writeable = False
        return full

    def selection_counts(self, m: int) -> np.ndarray:
        """How many of the n*k (row, rank) pairs select each of m training points.

        Equals ``np.bincount(indices.ravel(), minlength=m)`` as int64, but
        counts each distinct row's k indices once, weighted by how often the
        row repeats. Raises InvalidInputError if an index is not below m.
        """
        m = _check_int(m, "m")
        if np.any(self._idx >= m):
            raise InvalidInputError("neighbor index out of range for m training points")
        if self._row_of is None:
            return np.bincount(self._idx.ravel(), minlength=m).astype(np.int64)
        repeats = np.bincount(self._row_of, minlength=len(self._idx))
        # Float64 sums of integers stay exact below 2**53, far above n*k.
        counts = np.bincount(self._idx.ravel(), weights=np.repeat(repeats, self.k), minlength=m)
        return counts.astype(np.int64)


def _check_finite_kth(kth: np.ndarray) -> None:
    """NumericalError unless every k-th neighbor distance (a row's largest) is finite."""
    if not np.isfinite(kth).all():
        raise NumericalError("k-NN distances overflow float64")


def _brute_table(eval_pts: np.ndarray, train_pts: np.ndarray, k: int, norm: Norm):
    n, d = eval_pts.shape
    m = train_pts.shape[0]
    rows_per_block = max(1, _BLOCK_BUDGET // max(1, m * d))
    idx_out = np.empty((n, k), dtype=np.int64)
    dist_out = np.empty((n, k), dtype=np.float64)
    for start in range(0, n, rows_per_block):
        stop = min(n, start + rows_per_block)
        block = _reduce_norm(eval_pts[start:stop, None, :] - train_pts[None, :, :], norm)
        # A stable sort keeps equal distances in index order, which is the
        # (distance, index) tie rule. At k=1 argmin's first minimum is the
        # same index without the sort (a distance is never NaN).
        if k == 1:
            order = block.argmin(axis=1)[:, None]
        else:
            order = np.argsort(block, axis=1, kind="stable")[:, :k]
        idx_out[start:stop] = order
        dist_out[start:stop] = np.take_along_axis(block, order, axis=1)
    return idx_out, dist_out


def _distinct_rows(pts: np.ndarray):
    """``(unique rows, inverse)`` of a point array, or None if no row repeats.

    Rows are compared by value, so 0.0 and -0.0 fall together; the norm
    reduction maps both to the same distances, so one query serves both.
    """
    n = pts.shape[0]
    order = np.lexsort(pts.T)
    ranked = pts[order]
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.any(ranked[1:] != ranked[:-1], axis=1, out=first[1:])
    if first.all():
        return None
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ranked[first], inverse


def knn_query(query, train: Sample, k: int, norm: Norm = DEFAULT_NORM):
    """Indices and distances of the k nearest training points to ``query``.

    Results are ordered by (distance, index) ascending and are fully
    deterministic. This is the brute-force reference implementation.
    """
    q = as_point(query)
    train = _as_sample(train)
    _check_dims(q.shape[0], train.dim)
    k = _check_int(k, "k", 1, train.size)
    dist = _reduce_norm(q[None, :] - train.points, norm)
    order = np.argsort(dist, kind="stable")[:k].astype(np.int64)
    return order, dist[order]


class KnnIndex:
    """Spatial index over a training sample, exact under the tie rule.

    A kd-tree proposes candidates; distances are then recomputed with the
    package's canonical norm reduction and re-ranked by (distance, index),
    so queries agree bit for bit with the brute force. Immutable after
    construction.
    """

    def __init__(self, train: Sample, norm: Norm = DEFAULT_NORM):
        self._train = _as_sample(train).points
        self._norm = Norm.parse(norm)
        self._p = self._norm.p
        from scipy.spatial import cKDTree

        # Sliding-midpoint splits build faster than median splits and answer
        # queries as fast; the re-ranking below makes the output independent
        # of the tree's shape.
        self._tree = cKDTree(self._train, balanced_tree=False, compact_nodes=False)

    def query_batch(self, points, k: int):
        """(indices, distances) of the k nearest training points, one row per query row.

        Every row is answered, repeated or not; ``neighbor_table`` passes
        only distinct rows. Query rows must be finite; a neighbor distance
        that overflows float64 raises NumericalError.
        """
        pts = _finite_array(points, "query coordinates")
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        _check_dims(pts.shape[1], self._train.shape[1])
        k = _check_int(k, "k", 1, self._train.shape[0])
        kq = k + 1
        d0, i0 = self._tree.query(pts, k=kq, p=self._p)
        d0 = d0.reshape(len(pts), kq)
        i0 = i0.reshape(len(pts), kq)
        # The tree marks a neighbor it cannot place at a finite distance
        # with index m, so check before gathering the candidates.
        _check_finite_kth(d0[:, k - 1])

        cand = self._train[i0[:, :k]]
        dist = _reduce_norm(pts[:, None, :] - cand, norm=self._norm)
        idx = i0[:, :k].astype(np.int64)

        # A row needs the exact tie-resolution pass when the boundary gap
        # falls inside the tie window, or when the recomputed distances are
        # not strictly increasing; otherwise they fix the brute force's order.
        tol = _TIE_RTOL * (1.0 + d0[:, k - 1])
        risky = (d0[:, k] - d0[:, k - 1]) <= tol
        if k > 1:
            risky |= np.any(np.diff(dist, axis=1) <= 0.0, axis=1)
        for row in np.flatnonzero(risky):
            idx[row], dist[row] = self._query_exact(pts[row], k, float(d0[row, k - 1]))
        return idx, dist

    def _query_exact(self, point: np.ndarray, k: int, radius: float):
        r = radius * (1.0 + 2.0 * _TIE_RTOL)
        try:
            cand = np.asarray(self._tree.query_ball_point(point, r, p=self._p), dtype=np.int64)
        except ValueError:
            # scipy refuses a ball query whose p-th powers of distances
            # overflow float64 (1 < p < inf); the full scan below is exact.
            cand = np.empty(0, dtype=np.int64)
        if cand.size < k:
            # Defensive: radius inflation should always retain >= k points.
            cand = np.arange(self._train.shape[0], dtype=np.int64)
        # The full scan may square a far point's difference past float64;
        # the k kept are within the k-th distance, which the caller checked.
        with np.errstate(over="ignore"):
            dist = _reduce_norm(point[None, :] - self._train[cand], norm=self._norm)
        order = np.lexsort((cand, dist))[:k]
        return cand[order], dist[order]


def neighbor_table(
    eval_sample: Sample,
    train: Sample,
    k: int,
    norm: Norm = DEFAULT_NORM,
) -> NeighborTable:
    """Neighbor table over all evaluation points; row i equals knn_query(eval[i]).

    Builds a kd-tree index given at least 2 evaluation rows, at least 32
    training points and 2k < m, and runs the dense brute force otherwise;
    both paths produce identical tables. The index path queries each
    distinct evaluation row once, and the table keeps one answer per
    distinct row (see ``NeighborTable``). Raises NumericalError when a
    neighbor distance overflows float64.
    """
    eval_sample = _as_sample(eval_sample)
    train = _as_sample(train)
    _check_dims(eval_sample.dim, train.dim)
    k = _check_int(k, "k", 1, train.size)
    row_of = None
    if (eval_sample.size >= _INDEX_MIN_ROWS and train.size >= _INDEX_THRESHOLD
            and 2 * k < train.size):
        # A row's neighbors depend only on its own coordinates.
        rows = eval_sample.points
        distinct = _distinct_rows(rows)
        if distinct is not None:
            rows, row_of = distinct
        idx, dist = KnnIndex(train, norm).query_batch(rows, k)
    else:
        with np.errstate(over="ignore"):  # reported by the guard below
            idx, dist = _brute_table(eval_sample.points, train.points, k, norm)
        _check_finite_kth(dist[:, -1])
    return _trusted(NeighborTable, k=k, _idx=idx, _dist=dist, _row_of=row_of)
