"""Transport costs between discrete measures.

Every function here returns the q-th power of the order-q Wasserstein
distance (the quantity all closed forms and bounds are stated in), never
the distance itself; callers wanting W_q take the q-th root.

``exact_wq`` is an exact transportation-LP solver (a network-simplex
specialization), not an entropic approximation: it returns a vertex plan
and certifies optimality through a feasible dual with a relative
complementary-slackness gap below 1e-9.

The simplex keeps its basis as a spanning tree over the rows and columns,
rooted at row 0: a parent, a depth and a potential (dual) per node. A
pivot finds its cycle by climbing parent pointers from both ends of the
entering arc, and re-hangs from the entering arc only the subtree that
the leaving arc cuts off, recomputing the potentials there alone.
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


def _flow_matrix(flow, tree_flow):
    """Write the basic cells' flows into ``flow`` and 0.0 everywhere else."""
    flow.fill(0.0)
    flow.ravel()[list(tree_flow)] = list(tree_flow.values())
    return flow


def _transport_simplex(a: np.ndarray, b: np.ndarray, C: np.ndarray):
    """Solve min <flow, C> over the transportation polytope (a, b).

    Entering arc: most negative reduced cost, ties to the lowest (i, j);
    after a deterministic iteration budget, falls back to Bland's rule
    (first negative in lexicographic order) which cannot cycle. Leaving
    arc ties also resolve to the lowest (i, j). Fully deterministic.

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
    flow, basic = _northwest_corner(a, b)
    # Flow of each basic cell by flat index; every other cell carries 0.0.
    tree_flow = {i * m + j: float(flow[i, j]) for (i, j) in basic}
    cost = C.item  # cost(f): the cost of flat cell f as a Python float
    adj = [[] for _ in range(n + m)]
    for (i, j) in basic:
        adj[i].append(n + j)
        adj[n + j].append(i)
    parent = [-1] * (n + m)
    depth = [0] * (n + m)
    edge = np.full(n + m, -1, dtype=np.intp)  # an array: it indexes the mask
    pot = [0.0] * (n + m)
    if _hang(0, -1, adj, parent, depth, pot, edge, cost, n, m) != n + m:
        raise NumericalError("transport basis lost its spanning-tree structure")

    cost_scale = max(1.0, float(C.max()) if C.size else 1.0)
    eps = 1e-10 * cost_scale
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
                return _flow_matrix(flow, tree_flow), u, v
        else:
            negatives = np.flatnonzero(red < -eps)
            if negatives.size == 0:
                return _flow_matrix(flow, tree_flow), u, v
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
    if not slack >= -_FEAS_TOL * max(1.0, float(C.max())):
        raise NumericalError(f"duals infeasible: reduced cost {slack:g} below tolerance")
    cost = float(np.vdot(flow, C))
    dual = float(np.dot(a, u) + np.dot(b, v))
    gap = abs(cost - dual)
    if not gap <= _FEAS_TOL * max(1.0, abs(cost)):
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
    # Remove the residual imbalance (<= 1e-9) so the staircase basis closes.
    b = b * (float(np.sum(a)) / float(np.sum(b)))

    C = pairwise_distances(source.points.points[keep_a], target.points.points[keep_b], norm) ** q
    if not np.isfinite(C).all():
        raise NumericalError("transport costs overflow float64")

    flow, u, v = _transport_simplex(a, b, C)
    cost = _certify(a, b, C, flow, u, v)

    ii, jj = np.nonzero(flow > 0.0)
    entries = tuple(
        (int(keep_a[i]), int(keep_b[j]), float(flow[i, j])) for i, j in zip(ii, jj)
    )
    return cost, TransportPlan(entries=entries, cost=cost)
