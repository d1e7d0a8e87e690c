"""Transport costs between discrete measures.

Every function here returns the q-th power of the order-q Wasserstein
distance (the quantity all closed forms and bounds are stated in), never
the distance itself; callers wanting W_q take the q-th root.

``exact_wq`` is an exact transportation-LP solver (a network-simplex
specialization), not an entropic approximation: it returns a vertex plan
and certifies optimality through a feasible dual whose objective is
within 1e-9 of the plan's cost, relative to it, give or take rounding.

The simplex starts from the matrix-minimum basis: repeatedly, the cheapest
cell whose row and column are both still open (ties to the lowest flat
index) ships all it can, and one of its two lines closes. It has two
exits:

- Row minima. The duals u_i = min_j C_ij, v = 0 are feasible for every
  cost matrix (dropping the target marginal leaves sum_i a_i min_j C_ij as
  a lower bound on every coupling's cost). When they certify the start
  under the certificate's rule, the start is returned with them, before
  any pivot. This is the 1-NN case: the start ships every row to
  its nearest column, and the bound is the paper's
  (1/n) sum_i min_j |X_i - X'_j|^q.
- Pivots. Otherwise the basis is kept as a spanning tree over the rows
  and columns, rooted at row 0: a parent, a depth and a potential (dual)
  per node. A pivot finds its cycle by climbing parent pointers from both
  ends of the entering arc, and re-hangs from the entering arc only the
  subtree that the leaving arc cuts off, recomputing the potentials there
  alone. The duals returned are these tree potentials, with u_0 = 0.

Both exits and the certificate judge costs relative to the cost matrix,
never against an absolute floor, so multiplying every cost by a power of
two multiplies the answer by it and changes no verdict, however small the
costs.
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
]

# Mass/feasibility tolerance for the exact solver, matching its contract.
_FEAS_TOL = 1e-9
_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """Sparse optimal transport plan: positive entries (i, j, mass) and total cost."""

    entries: tuple
    cost: float


def knn_transport_cost(table: NeighborTable, q: float) -> float:
    """Average q-th power of the table distances: (1/(k n)) sum_i sum_l d_il^q.

    Raises NumericalError when the average overflows float64.
    """
    q = _check_q(q)
    with np.errstate(over="ignore"):
        cost = float(np.mean(table.distances**q))
    if not math.isfinite(cost):
        raise NumericalError("transport cost overflows float64")
    return cost


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


# --- exact transportation LP ------------------------------------------------


def _matrix_minimum(a: np.ndarray, b: np.ndarray, C: np.ndarray) -> dict:
    """First basic feasible solution by the matrix-minimum rule.

    Takes the cheapest cell whose row and column are both open (ties to
    the lowest flat index) and ships min(arem[i], brem[j]) through it,
    then crosses out its row if arem[i] <= brem[j] and its column
    otherwise. The last open row and the last open column stay open until
    the final cell, so the n+m-1 cells form a spanning tree. Returns the
    flow of each cell by flat index.

    Distinct costs have one sorted order, so the default (unstable, much
    faster) argsort gives it; only when two costs tie does the stable sort
    run, to break the tie by flat index.
    """
    n, m = C.shape
    order = np.argsort(C, axis=None)
    ranked = C.ravel()[order]
    if (ranked[1:] == ranked[:-1]).any():
        order = np.argsort(C, axis=None, kind="stable")
    rows, cols = np.divmod(order, m)
    arem = a.tolist()
    brem = b.tolist()
    row_open = [True] * n
    col_open = [True] * m
    rows_left, cols_left = n, m
    tree_flow = {}
    for i, j in zip(rows.tolist(), cols.tolist()):
        if not (row_open[i] and col_open[j]):
            continue
        t = min(arem[i], brem[j])
        tree_flow[i * m + j] = t
        if rows_left == 1 and cols_left == 1:
            break
        arem[i] -= t
        brem[j] -= t
        if cols_left == 1 or (rows_left > 1 and arem[i] <= brem[j]):
            row_open[i] = False
            rows_left -= 1
        else:
            col_open[j] = False
            cols_left -= 1
    return tree_flow


def _hang(top, up, adj, parent, depth, pot, edge, cost, n, m):
    """Hang the subtree reached from ``top`` below node ``up`` (-1: the root).

    Nodes are rows 0..n-1 and columns n..n+m-1. Sets parent, depth, the
    flat cell of the edge to the parent and the potential, top-down: a
    node's potential is its parent edge's cost minus the parent's
    potential. Returns the number of nodes hung; it raises once that
    exceeds n+m, which only a cycle in ``adj`` can cause.
    """
    parent[top] = up
    if up < 0:
        depth[top] = 0
        edge[top] = -1
        pot[top] = 0.0
    else:
        f = top * m + up - n if top < n else up * m + top - n
        depth[top] = depth[up] + 1
        edge[top] = f
        pot[top] = cost(f) - pot[up]
    total = n + m
    count = 0
    stack = [top]
    while stack:
        x = stack.pop()
        count += 1
        if count > total:
            raise NumericalError("transport basis lost its spanning-tree structure")
        px = parent[x]
        dz = depth[x] + 1
        x_pot = pot[x]
        # Row x owns cells x*m + (z - n); column x owns cells z*m + (x - n).
        base, stride = (x * m - n, 1) if x < n else (x - n, m)
        for z in adj[x]:
            if z != px:
                f = base + z * stride
                parent[z] = x
                depth[z] = dz
                edge[z] = f
                pot[z] = cost(f) - x_pot
                stack.append(z)
    return count


def _flow_matrix(n, m, tree_flow):
    """The n x m flow: the basic cells' flows and 0.0 everywhere else."""
    flow = np.zeros((n, m))
    flow.ravel()[list(tree_flow)] = list(tree_flow.values())
    return flow


def _transport_simplex(a: np.ndarray, b: np.ndarray, C: np.ndarray):
    """Solve min <flow, C> over the transportation polytope (a, b).

    Returns (flow, u, v). First basis: the matrix-minimum rule
    (``_matrix_minimum``), cheapest open cell first with ties to the lowest
    flat index. If the row-minimum duals u = C.min(axis=1), v = 0 (always
    feasible) close the first basis's gap under ``_optimality_gap``, the
    rule ``_certify`` applies, the first basis is returned with them and
    no pivot is made; these duals are not tree potentials (u_0 is row 0's
    minimum, not 0).

    Otherwise the simplex pivots from the same first basis. Entering arc:
    most negative reduced cost below -1e-10 * max(C), ties to the lowest
    (i, j); after a deterministic iteration budget, falls back to Bland's
    rule (first negative in lexicographic order) which cannot cycle.
    Leaving arc ties also resolve to the lowest (i, j). Fully
    deterministic.

    The basis is a spanning tree over rows 0..n-1 and columns n..n+m-1,
    rooted at row 0, kept as a parent, a depth, a parent-edge cell and a
    potential per node (the potentials are the duals: u for rows, v for
    columns). The entering arc's cycle is found by climbing parent
    pointers from both of its ends to their common ancestor. The leaving
    arc cuts off the subtree below it, which contains one end of the
    entering arc; only that subtree is re-hung from the entering arc and
    gets new potentials. A potential depends only on the tree path from
    row 0, so every potential, reduced cost and pivot equals that of a
    full recomputation bit for bit.
    """
    n, m = C.shape
    # Flow of each basic cell by flat index; every other cell carries 0.0.
    tree_flow = _matrix_minimum(a, b, C)
    # Row minima and v = 0 are feasible duals: C - u >= 0 cell by cell.
    # The start's cost is read off its n+m-1 basic cells.
    u = C.min(axis=1)
    v = np.zeros(m)
    cells = np.fromiter(tree_flow, np.intp, len(tree_flow))
    ships = np.fromiter(tree_flow.values(), np.float64, len(tree_flow))
    _, gap, allowed = _optimality_gap(a, b, u, v, C.take(cells), ships)
    if gap <= allowed:
        return _flow_matrix(n, m, tree_flow), u, v

    cost = C.item  # cost(f): the cost of flat cell f as a Python float
    adj = [[] for _ in range(n + m)]
    for f in tree_flow:
        i, j = divmod(f, m)
        adj[i].append(n + j)
        adj[n + j].append(i)
    parent = [-1] * (n + m)
    depth = [0] * (n + m)
    # An array, because it indexes the reduced-cost buffer `red`.
    edge = np.full(n + m, -1, dtype=np.intp)
    pot = [0.0] * (n + m)
    if _hang(0, -1, adj, parent, depth, pot, edge, cost, n, m) != n + m:
        raise NumericalError("transport basis lost its spanning-tree structure")

    # Relative to the largest cost, so that scaling C scales every test.
    eps = 1e-10 * float(C.max())
    bland_after = 200 + 50 * (n + m)
    max_iter = 5000 + 400 * (n + m) + 2 * n * m
    reduced = np.empty_like(C)
    red = reduced.reshape(-1)

    for it in range(max_iter):
        duals = np.fromiter(pot, np.float64, n + m)
        u = duals[:n]
        v = duals[n:]
        np.subtract(C, u[:, None], out=reduced)
        np.subtract(reduced, v[None, :], out=reduced)
        # Row 0 stays the root, so edge[1:] holds every basic cell.
        red[edge[1:]] = np.inf
        if it < bland_after:
            flat = int(red.argmin())
            if red[flat] >= -eps:
                return _flow_matrix(n, m, tree_flow), u, v
        else:
            negatives = np.flatnonzero(red < -eps)
            if negatives.size == 0:
                return _flow_matrix(n, m, tree_flow), u, v
            flat = int(negatives[0])
        p, qc = divmod(flat, m)

        # Cycle: the tree path from row p to column qc, as the nodes whose
        # parent edge it uses; on each side the edge nearest the end is minus.
        x, y = p, n + qc
        side_p, side_q = [], []
        while x != y:
            if depth[x] >= depth[y]:
                side_p.append(x)
                x = parent[x]
            else:
                side_q.append(y)
                y = parent[y]

        delta = math.inf
        leaving = out = -1
        for node in side_p[0::2] + side_q[0::2]:
            f = edge[node]
            g = tree_flow[f]
            if g < delta or (g == delta and f < leaving):
                delta = g
                leaving = f
                out = node
        if leaving < 0:
            raise NumericalError("degenerate transport pivot found no leaving arc")

        tree_flow[flat] = 0.0 + delta  # the entering cell carried 0.0
        for node in side_p[0::2] + side_q[0::2]:
            tree_flow[edge[node]] -= delta
        for node in side_p[1::2] + side_q[1::2]:
            tree_flow[edge[node]] += delta
        del tree_flow[leaving]

        above = parent[out]
        adj[out].remove(above)
        adj[above].remove(out)
        adj[p].append(n + qc)
        adj[n + qc].append(p)
        if out in side_p:
            _hang(p, n + qc, adj, parent, depth, pot, edge, cost, n, m)
        else:
            _hang(n + qc, p, adj, parent, depth, pot, edge, cost, n, m)

    raise NumericalError("transportation simplex exceeded its pivot budget")


def _certify(a, b, C, flow, u, v):
    # Every test is written so that a NaN fails it.
    np.clip(flow, 0.0, None, out=flow)
    row_err = float(np.max(np.abs(flow.sum(axis=1) - a)))
    col_err = float(np.max(np.abs(flow.sum(axis=0) - b)))
    if not (row_err <= _FEAS_TOL and col_err <= _FEAS_TOL):
        raise NumericalError(
            f"transport plan infeasible: marginal errors {row_err:g}, {col_err:g}"
        )
    slack = float(np.min(C - u[:, None] - v[None, :]))
    if not slack >= -_FEAS_TOL * float(C.max()):
        raise NumericalError(f"duals infeasible: reduced cost {slack:g} below tolerance")
    cost, gap, allowed = _optimality_gap(a, b, u, v, C, flow)
    if not gap <= allowed:
        raise NumericalError(f"optimality gap {gap:g} exceeds tolerance {allowed:g}")
    return cost


def _optimality_gap(a, b, u, v, costs, flows):
    """(cost, gap, allowed) of a plan: the one optimality rule, for ``_certify`` and the exit.

    ``costs`` and ``flows`` are the plan's cells, all or only its basic
    ones. With feasible duals, ``gap`` (from the cost to the dual objective)
    bounds how far the plan lies above the optimum. It may hold 1e-9 of the
    cost plus n+m ulps of what rounding leaves over: the unit mass shipped
    at the dearest positive-flow cell, and the dual objective's terms
    a_i |u_i| and b_j |v_j|. All scale with the costs; none has a floor.
    A NaN anywhere fails ``gap <= allowed``.
    """
    cost = float(np.vdot(flows, costs))
    gap = abs(cost - float(np.dot(a, u) + np.dot(b, v)))
    allowed = _FEAS_TOL * abs(cost)
    if not gap <= allowed:  # only then can the rounding terms change the verdict
        dearest = float(costs.max(where=flows > 0.0, initial=0.0))
        size = float(np.dot(a, np.abs(u)) + np.dot(b, np.abs(v)))
        allowed += (len(a) + len(b)) * _EPS * (dearest + size)
    return cost, gap, allowed


def exact_wq(
    source: DiscreteMeasure,
    target: DiscreteMeasure,
    q: float,
    norm: Norm = DEFAULT_NORM,
) -> tuple[float, TransportPlan]:
    """Exact W_q^q between two discrete measures, with the optimal vertex plan.

    Zero-mass support points are dropped before solving. Raises
    InvalidInputError on a mass mismatch beyond 1e-9 and NumericalError
    if a cost overflows or optimality cannot be certified.
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
    # Remove the residual imbalance (<= 1e-9) so the first basis's final
    # cell closes both its row and its column.
    b = b * (float(np.sum(a)) / float(np.sum(b)))

    pa = source.points.points[keep_a]
    pb = target.points.points[keep_b]
    with np.errstate(over="ignore"):  # reported by the check below
        C = pairwise_distances(pa, pb, norm) ** q
    if not np.isfinite(C).all():
        raise NumericalError("transport costs overflow float64")

    flow, u, v = _transport_simplex(a, b, C)
    cost = _certify(a, b, C, flow, u, v)

    ii, jj = np.nonzero(flow > 0.0)
    entries = tuple(
        (int(keep_a[i]), int(keep_b[j]), float(flow[i, j])) for i, j in zip(ii, jj)
    )
    return cost, TransportPlan(entries=entries, cost=cost)
