"""Transport costs between discrete measures.

Every function here returns the q-th power of the order-q Wasserstein
distance (the quantity all closed forms and bounds are stated in), never
the distance itself; callers wanting W_q take the q-th root.

``exact_wq`` is an exact transportation-LP solver (a network-simplex
specialization), not an entropic approximation: it returns a vertex plan
and certifies optimality through a feasible dual with a relative
complementary-slackness gap below 1e-9.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_NORM,
    DiscreteMeasure,
    InvalidInputError,
    Norm,
    NumericalError,
    Sample,
    _check_q,
    pairwise_distances,
)
from .knn import NeighborTable, neighbor_table

__all__ = [
    "TransportPlan",
    "wq_1nn",
    "wq_knn_bound",
    "knn_transport_cost",
    "exact_wq",
    "wq_1d_uniform_oracle",
]

# Mass/feasibility tolerance for the exact solver, matching its contract.
_FEAS_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """Sparse optimal transport plan: positive entries (i, j, mass) and total cost."""

    entries: tuple
    cost: float


def knn_transport_cost(table: NeighborTable, q: float) -> float:
    """Average q-th power of the table distances: (1/(k n)) sum_i sum_l d_il^q."""
    q = _check_q(q)
    return float(np.mean(table.distances**q))


def wq_1nn(eval_sample: Sample, train: Sample, q: float, norm: Norm = DEFAULT_NORM) -> float:
    """W_q^q of the optimally reweighted coupling: mean q-th power of 1-NN distances.

    This closed form equals the exact transport cost between the
    evaluation empirical measure and the 1-NN weighted training measure.
    """
    return wq_knn_bound(eval_sample, train, 1, q, norm)


def wq_knn_bound(
    eval_sample: Sample, train: Sample, k: int, q: float, norm: Norm = DEFAULT_NORM
) -> float:
    """Upper bound on W_q^q against the k-NN weighted measure (equality at k=1)."""
    table = neighbor_table(eval_sample, train, k, norm)
    return knn_transport_cost(table, q)


def wq_1d_uniform_oracle(a, b, q: float) -> float:
    """Independent 1-D oracle: monotone coupling of two equal-size uniform samples.

    Sorts both lists and averages |a_(i) - b_(i)|^q; optimal for d=1 with
    uniform masses and equal sizes.
    """
    q = _check_q(q)
    av = np.sort(np.asarray(a, dtype=np.float64).ravel())
    bv = np.sort(np.asarray(b, dtype=np.float64).ravel())
    if av.size != bv.size or av.size == 0:
        raise InvalidInputError("oracle needs two nonempty lists of equal size")
    return float(np.mean(np.abs(av - bv) ** q))


# --- exact transportation LP ------------------------------------------------


def _northwest_corner(a: np.ndarray, b: np.ndarray):
    """Initial basic feasible solution on the staircase; exactly n+m-1 cells."""
    n, m = a.size, b.size
    flow = np.zeros((n, m))
    basic: list[tuple[int, int]] = []
    arem = a.copy()
    brem = b.copy()
    i = j = 0
    while True:
        t = min(arem[i], brem[j])
        if t < 0.0:
            t = 0.0
        flow[i, j] = t
        basic.append((i, j))
        arem[i] -= t
        brem[j] -= t
        if i == n - 1 and j == m - 1:
            break
        if j == m - 1:
            i += 1
        elif i == n - 1:
            j += 1
        elif arem[i] <= brem[j]:
            i += 1
        else:
            j += 1
    return flow, basic


def _compute_duals(n, m, C, row_cols, col_rows):
    u = np.full(n, np.nan)
    v = np.full(m, np.nan)
    u[0] = 0.0
    stack = [(0, True)]
    seen = 1
    while stack:
        node, is_row = stack.pop()
        if is_row:
            ui = u[node]
            for j in row_cols[node]:
                if math.isnan(v[j]):
                    v[j] = C[node, j] - ui
                    stack.append((j, False))
                    seen += 1
        else:
            vj = v[node]
            for i in col_rows[node]:
                if math.isnan(u[i]):
                    u[i] = C[i, node] - vj
                    stack.append((i, True))
                    seen += 1
    if seen != n + m:
        raise NumericalError("transport basis lost its spanning-tree structure")
    return u, v


def _tree_path(entering, row_cols, col_rows, n):
    """Cells of the unique basis path from the entering cell's row to its column."""
    p, qc = entering
    # Bipartite BFS: rows are 0..n-1, columns are n..n+m-1.
    start = p
    goal = n + qc
    parent = {start: None}
    frontier = [start]
    while frontier and goal not in parent:
        nxt = []
        for node in frontier:
            if node < n:
                for j in row_cols[node]:
                    other = n + j
                    if other not in parent:
                        parent[other] = (node, (node, j))
                        nxt.append(other)
            else:
                j = node - n
                for i in col_rows[j]:
                    if i not in parent:
                        parent[i] = (node, (i, j))
                        nxt.append(i)
        frontier = nxt
    if goal not in parent:
        raise NumericalError("transport basis lost connectivity")
    cells = []
    node = goal
    while parent[node] is not None:
        prev, cell = parent[node]
        cells.append(cell)
        node = prev
    cells.reverse()
    return cells


def _transport_simplex(a: np.ndarray, b: np.ndarray, C: np.ndarray):
    """Solve min <flow, C> over the transportation polytope (a, b).

    Entering arc: most negative reduced cost, ties to the lowest (i, j);
    after a deterministic iteration budget, falls back to Bland's rule
    (first negative in lexicographic order) which cannot cycle. Leaving
    arc ties also resolve to the lowest (i, j). Fully deterministic.
    """
    n, m = C.shape
    flow, basic = _northwest_corner(a, b)
    in_basis = np.zeros((n, m), dtype=bool)
    row_cols = [set() for _ in range(n)]
    col_rows = [set() for _ in range(m)]
    for (i, j) in basic:
        in_basis[i, j] = True
        row_cols[i].add(j)
        col_rows[j].add(i)

    cost_scale = max(1.0, float(C.max()) if C.size else 1.0)
    eps = 1e-10 * cost_scale
    bland_after = 200 + 50 * (n + m)
    max_iter = 5000 + 400 * (n + m) + 2 * n * m

    for it in range(max_iter):
        u, v = _compute_duals(n, m, C, row_cols, col_rows)
        reduced = C - u[:, None] - v[None, :]
        reduced[in_basis] = np.inf
        if it < bland_after:
            flat = int(np.argmin(reduced))
            if reduced.flat[flat] >= -eps:
                return flow, u, v
        else:
            negatives = np.flatnonzero(reduced.ravel() < -eps)
            if negatives.size == 0:
                return flow, u, v
            flat = int(negatives[0])
        p, qc = divmod(flat, m)

        cells = _tree_path((p, qc), row_cols, col_rows, n)
        minus = cells[0::2]
        plus = cells[1::2]

        delta = math.inf
        leaving = None
        for cell in minus:
            f = flow[cell]
            if f < delta or (f == delta and (leaving is None or cell < leaving)):
                delta = f
                leaving = cell
        if leaving is None:
            raise NumericalError("degenerate transport pivot found no leaving arc")

        flow[p, qc] += delta
        for cell in minus:
            flow[cell] -= delta
        for cell in plus:
            flow[cell] += delta
        flow[leaving] = 0.0

        in_basis[leaving] = False
        row_cols[leaving[0]].discard(leaving[1])
        col_rows[leaving[1]].discard(leaving[0])
        in_basis[p, qc] = True
        row_cols[p].add(qc)
        col_rows[qc].add(p)

    raise NumericalError("transportation simplex exceeded its pivot budget")


def _certify(a, b, C, flow, u, v):
    np.clip(flow, 0.0, None, out=flow)
    row_err = float(np.max(np.abs(flow.sum(axis=1) - a)))
    col_err = float(np.max(np.abs(flow.sum(axis=0) - b)))
    if row_err > _FEAS_TOL or col_err > _FEAS_TOL:
        raise NumericalError(
            f"transport plan infeasible: marginal errors {row_err:g}, {col_err:g}"
        )
    slack = float(np.min(C - u[:, None] - v[None, :]))
    if slack < -_FEAS_TOL * max(1.0, float(C.max())):
        raise NumericalError(f"duals infeasible: reduced cost {slack:g} below tolerance")
    cost = float(np.vdot(flow, C))
    dual = float(np.dot(a, u) + np.dot(b, v))
    gap = abs(cost - dual)
    if gap > _FEAS_TOL * max(1.0, abs(cost)):
        raise NumericalError(f"optimality gap {gap:g} exceeds tolerance")
    return cost


def exact_wq(
    source: DiscreteMeasure,
    target: DiscreteMeasure,
    q: float,
    norm: Norm = DEFAULT_NORM,
) -> tuple[float, TransportPlan]:
    """Exact W_q^q between two discrete measures, with the optimal vertex plan.

    Zero-mass support points are dropped before solving. Raises
    InvalidInputError on a mass mismatch beyond 1e-9 and NumericalError
    if optimality cannot be certified.
    """
    q = _check_q(q)
    if source.points.dim != target.points.dim:
        raise InvalidInputError(
            f"dimension mismatch: {source.points.dim} vs {target.points.dim}"
        )
    sa = float(np.sum(source.masses))
    sb = float(np.sum(target.masses))
    if abs(sa - sb) > _FEAS_TOL:
        raise InvalidInputError(f"mass mismatch: {sa!r} vs {sb!r}")

    keep_a = np.flatnonzero(source.masses > 0.0)
    keep_b = np.flatnonzero(target.masses > 0.0)
    a = source.masses[keep_a].astype(np.float64)
    b = target.masses[keep_b].astype(np.float64)
    # Remove the residual imbalance (<= 1e-9) so the staircase basis closes.
    b = b * (float(np.sum(a)) / float(np.sum(b)))

    pts_a = Sample(source.points.points[keep_a])
    pts_b = Sample(target.points.points[keep_b])
    C = pairwise_distances(pts_a, pts_b, norm) ** q

    flow, u, v = _transport_simplex(a, b, C)
    cost = _certify(a, b, C, flow, u, v)

    ii, jj = np.nonzero(flow > 0.0)
    entries = tuple(
        (int(keep_a[i]), int(keep_b[j]), float(flow[i, j])) for i, j in zip(ii, jj)
    )
    return cost, TransportPlan(entries=entries, cost=cost)
