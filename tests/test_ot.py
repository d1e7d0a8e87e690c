import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import wknn.ot
from wknn.core import (
    InvalidInputError,
    Norm,
    NumericalError,
    Sample,
    _check_q,
    pairwise_distances,
    uniform_empirical,
    validate_measure,
)
from wknn.knn import neighbor_table
from wknn.ot import (
    _STABLE_SORT_CELLS,
    _certify,
    _flow_matrix,
    _hang,
    _matrix_minimum,
    _transport_simplex,
    exact_wq,
    wq_1nn,
    wq_knn_bound,
)
from wknn.rng import stream, uniform_open
from wknn.weights import knn_weights, weighted_measure


def random_instance(gen, n_max=8, m_max=8, d_max=3):
    n = int(gen.integers(2, n_max + 1))
    m = int(gen.integers(2, m_max + 1))
    d = int(gen.integers(1, d_max + 1))
    return Sample(uniform_open(gen, (n, d))), Sample(uniform_open(gen, (m, d)))


def random_feasible_masses(gen, m):
    e = -np.log(uniform_open(gen, m))
    return e / e.sum()


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


def permutation_oracle(a_pts, b_pts, q, norm=Norm.L2):
    """Minimum over all n! permutation couplings for uniform equal-size measures."""
    cost = pairwise_distances(a_pts, b_pts, norm) ** q
    n = cost.shape[0]
    return min(
        sum(cost[i, p[i]] for i in range(n)) for p in itertools.permutations(range(n))
    ) / n


class TestClosedForms:
    def test_wq_1nn_hand_values(self):
        ev, tr = Sample([1.0, 2.0, 9.0]), Sample([0.0, 10.0])
        assert wq_1nn(ev, tr, 1.0) == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert wq_1nn(ev, tr, 2.0) == pytest.approx(2.0, rel=1e-15)

    def test_self_distance_zero(self):
        gen = stream(31, 0)
        s = Sample(uniform_open(gen, (10, 2)))
        assert wq_1nn(s, s, 2.0) == 0.0

    def test_bound_equals_1nn_at_k1(self):
        gen = stream(32, 0)
        for _ in range(20):
            ev, tr = random_instance(gen)
            q = float(gen.integers(1, 4))
            assert wq_knn_bound(ev, tr, 1, q) == wq_1nn(ev, tr, q)

    def test_bound_hand_value(self):
        assert wq_knn_bound(Sample([1.0, 2.0, 9.0]), Sample([0.0, 10.0]), 2, 1.0) == 5.0

    @pytest.mark.parametrize("k", [1, 2])
    def test_overflowing_cost_raises(self, k):
        # Distances of 3 raised to the power 1000 overflow float64.
        with pytest.raises(NumericalError):
            wq_knn_bound(Sample([0.0, 6.0]), Sample([3.0, 9.0]), k, 1e3)

    def test_q_validation(self):
        ev, tr = Sample([0.0]), Sample([1.0])
        with pytest.raises(InvalidInputError):
            wq_1nn(ev, tr, 0.5)
        # non-integer q >= 1 is allowed
        assert wq_1nn(ev, tr, 1.5) == 1.0


class Test1dOracle:
    def test_identical(self):
        assert wq_1d_uniform_oracle([3.0, 1.0], [1.0, 3.0], 2.0) == 0.0

    def test_shifted_pair(self):
        assert wq_1d_uniform_oracle([0.0, 1.0], [2.0, 3.0], 1.0) == 2.0

    def test_size_mismatch(self):
        with pytest.raises(InvalidInputError):
            wq_1d_uniform_oracle([0.0], [1.0, 2.0], 1.0)

    def test_matches_lp_on_random_1d(self):
        gen = stream(33, 0)
        for _ in range(40):
            n = int(gen.integers(2, 9))
            a = uniform_open(gen, n)
            b = uniform_open(gen, n)
            q = float(gen.integers(1, 4))
            lp, _ = exact_wq(
                validate_measure(a.reshape(-1, 1), np.full(n, 1.0 / n)),
                validate_measure(b.reshape(-1, 1), np.full(n, 1.0 / n)),
                q,
            )
            assert lp == pytest.approx(wq_1d_uniform_oracle(a, b, q), abs=1e-9)


class TestExactWq:
    def test_identical_measures(self):
        m = validate_measure([[0.0], [2.0]], [0.5, 0.5])
        cost, plan = exact_wq(m, m, 2.0)
        assert cost == 0.0
        assert {(i, j) for i, j, _ in plan.entries} == {(0, 0), (1, 1)}

    def test_two_to_one(self):
        src = validate_measure([[0.0], [1.0]], [0.5, 0.5])
        tgt = validate_measure([[0.5]], [1.0])
        cost, plan = exact_wq(src, tgt, 1.0)
        assert cost == pytest.approx(0.5, abs=1e-12)
        assert len(plan.entries) == 2

    def test_mass_mismatch_rejected(self):
        src = validate_measure([[0.0]], [1.0])
        bad = np.array([0.5, 0.5 - 5e-9])
        with pytest.raises(InvalidInputError):
            # bypass measure validation tolerance by direct construction
            tgt = validate_measure([[0.0], [1.0]], bad / bad.sum())
            object.__setattr__(tgt, "masses", bad)
            exact_wq(src, tgt, 1.0)

    def test_zero_mass_points_dropped(self):
        src = validate_measure([[0.0], [5.0]], [1.0, 0.0])
        tgt = validate_measure([[1.0], [9.0]], [1.0, 0.0])
        cost, plan = exact_wq(src, tgt, 1.0)
        assert cost == pytest.approx(1.0, abs=1e-12)
        assert plan.entries == ((0, 0, 1.0),)

    def test_marginals_and_basis_size(self):
        gen = stream(34, 0)
        for _ in range(30):
            ev, tr = random_instance(gen)
            src = validate_measure(ev, random_feasible_masses(gen, ev.size))
            tgt = validate_measure(tr, random_feasible_masses(gen, tr.size))
            q = float(gen.integers(1, 4))
            cost, plan = exact_wq(src, tgt, q)
            assert len(plan.entries) <= ev.size + tr.size - 1
            row = np.zeros(ev.size)
            col = np.zeros(tr.size)
            for i, j, g in plan.entries:
                assert g > 0
                row[i] += g
                col[j] += g
            np.testing.assert_allclose(row, src.masses, atol=1e-9)
            np.testing.assert_allclose(col, tgt.masses, atol=1e-9)
            dist = pairwise_distances(ev, tr)
            recomputed = sum(g * float(dist[i, j]) ** q for i, j, g in plan.entries)
            assert cost == pytest.approx(recomputed, rel=1e-9, abs=1e-12)

    def test_equals_1nn_closed_form(self):
        gen = stream(35, 0)
        for _ in range(40):
            ev, tr = random_instance(gen, 10, 10)
            q = float(gen.integers(1, 4))
            table = neighbor_table(ev, tr, 1)
            wv = knn_weights(table, tr.size)
            cost, _ = exact_wq(uniform_empirical(ev), weighted_measure(tr, wv), q)
            assert cost == pytest.approx(wq_1nn(ev, tr, q), abs=1e-9)

    def test_matches_permutation_oracle(self):
        gen = stream(36, 0)
        for _ in range(15):
            n = int(gen.integers(2, 7))
            d = int(gen.integers(1, 4))
            A = Sample(uniform_open(gen, (n, d)))
            B = Sample(uniform_open(gen, (n, d)))
            q = float(gen.integers(1, 4))
            lp, _ = exact_wq(uniform_empirical(A), uniform_empirical(B), q)
            assert lp == pytest.approx(permutation_oracle(A, B, q), abs=1e-9)

    def test_1nn_weights_optimal_among_random_vectors(self):
        gen = stream(37, 0)
        for _ in range(6):
            ev, tr = random_instance(gen)
            mu = uniform_empirical(ev)
            for q in (1.0, 2.0, 3.0):
                wv = knn_weights(neighbor_table(ev, tr, 1), tr.size)
                best, _ = exact_wq(mu, weighted_measure(tr, wv), q)
                for _ in range(100):
                    masses = random_feasible_masses(gen, tr.size)
                    cost, _ = exact_wq(mu, validate_measure(tr, masses), q)
                    assert best <= cost + 1e-12

    def test_monotone_in_k(self):
        gen = stream(38, 0)
        for _ in range(10):
            ev, tr = random_instance(gen, 8, 8)
            tr = Sample(uniform_open(gen, (6, 2)))
            ev = Sample(uniform_open(gen, (7, 2)))
            mu = uniform_empirical(ev)
            costs = []
            for k in (1, 2, 3, 5):
                wv = knn_weights(neighbor_table(ev, tr, k), tr.size)
                cost, _ = exact_wq(mu, weighted_measure(tr, wv), 2.0)
                bound = wq_knn_bound(ev, tr, k, 2.0)
                assert bound >= cost - 1e-9
                costs.append(cost)
            assert all(c >= costs[0] - 1e-12 for c in costs[1:])

    @pytest.mark.parametrize("lam", [3.7, 1e-6])
    def test_scale_equivariance(self, lam):
        gen = stream(39, 0)
        ev, tr = random_instance(gen)
        for q in (1.0, 2.0):
            base, _ = exact_wq(uniform_empirical(ev), uniform_empirical(tr), q)
            scaled, _ = exact_wq(
                uniform_empirical(Sample(lam * ev.points)),
                uniform_empirical(Sample(lam * tr.points)),
                q,
            )
            # abs=0: approx's default absolute 1e-12 would pass any small cost.
            assert scaled == pytest.approx(lam**q * base, rel=1e-9, abs=0)
            assert wq_1nn(Sample(lam * ev.points), Sample(lam * tr.points), q) == pytest.approx(
                lam**q * wq_1nn(ev, tr, q), rel=1e-12, abs=0
            )

    @pytest.mark.parametrize("norm", list(Norm))
    def test_norms_supported(self, norm):
        gen = stream(40, {"l1": 1, "l2": 2, "linf": 3}[norm.value])
        ev, tr = random_instance(gen)
        table = neighbor_table(ev, tr, 1, norm)
        wv = knn_weights(table, tr.size)
        cost, _ = exact_wq(uniform_empirical(ev), weighted_measure(tr, wv), 2.0, norm)
        assert cost == pytest.approx(wq_1nn(ev, tr, 2.0, norm), abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            exact_wq(
                validate_measure([[0.0]], [1.0]),
                validate_measure([[0.0, 1.0]], [1.0]),
                1.0,
            )


class TestCertificate:
    def test_infeasible_duals_rejected(self):
        # The anti-diagonal plan costs 1 and u=(1, 1), v=0 closes the gap,
        # but C - u - v has -1 on the diagonal: the optimum is 0.
        a = b = np.array([0.5, 0.5])
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        flow = np.array([[0.0, 0.5], [0.5, 0.0]])
        with pytest.raises(NumericalError, match="duals infeasible"):
            _certify(a, b, cost, flow, np.ones(2), np.zeros(2))

    def test_nan_duals_rejected(self):
        a = b = np.array([0.5, 0.5])
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        flow = np.array([[0.5, 0.0], [0.0, 0.5]])
        with pytest.raises(NumericalError):
            _certify(a, b, cost, flow, np.array([0.0, np.nan]), np.zeros(2))

    def test_overflowing_costs_rejected(self):
        # |1e200 - (-1e200)|^2 overflows; the solver must not return a NaN cost.
        src = validate_measure([[0.0], [1e200]], [0.5, 0.5])
        tgt = validate_measure([[1.0], [-1e200]], [0.5, 0.5])
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match="overflow"):
            exact_wq(src, tgt, 2.0)

    def test_optimal_duals_accepted(self):
        a = b = np.array([0.5, 0.5])
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        flow = np.array([[0.5, 0.0], [0.0, 0.5]])
        assert _certify(a, b, cost, flow, np.zeros(2), np.zeros(2)) == 0.0

    # Below unit cost scale: C = delta [[1, 2], [2, 5]], the optimum is the
    # anti-diagonal plan at 2 delta, and u = (delta, 2 delta), v = (0, delta)
    # are its optimal duals.
    DELTA = 1e-10
    SMALL = DELTA * np.array([[1.0, 2.0], [2.0, 5.0]])

    def test_small_scale_diagonal_plan_rejected(self):
        # The diagonal plan costs 3 delta; the row minima bound it by 1.5 delta.
        a = b = np.array([0.5, 0.5])
        flow = np.diag([0.5, 0.5])
        u = self.SMALL.min(axis=1)
        with pytest.raises(NumericalError, match="optimality gap"):
            _certify(a, b, self.SMALL, flow, u, np.zeros(2))

    def test_small_scale_infeasible_duals_rejected(self):
        a = b = np.array([0.5, 0.5])
        flow = np.array([[0.0, 0.5], [0.5, 0.0]])
        u, v = self.DELTA * np.array([1.0, 2.0]), self.DELTA * np.array([0.0, 1.0])
        assert _certify(a, b, self.SMALL, flow.copy(), u, v) == pytest.approx(2 * self.DELTA)
        with pytest.raises(NumericalError, match="duals infeasible"):
            _certify(a, b, self.SMALL, flow, u + 5 * self.DELTA, v)

    def test_far_apart_clusters_certified(self):
        # Every positive flow costs about 1e-6 while the tree's duals reach
        # 1e6, so rounding the dual objective leaves a gap near 1e-11: the
        # rule must allow for the duals' size, not only for the plan's cells.
        src = validate_measure([[0.0], [1000.0]], [0.5, 0.5])
        tgt = validate_measure([[1e-3], [1000.0 + 1e-3], [1000.0 + 2e-3]], [0.5, 0.25, 0.25])
        cost, plan = exact_wq(src, tgt, 2.0)
        assert cost == pytest.approx(1.75e-6, rel=1e-9, abs=0)
        assert {(i, j) for i, j, _ in plan.entries} == {(0, 0), (1, 1), (1, 2)}


@st.composite
def certified_optimum(draw):
    """(a, b, C, flow, u, v): a small instance at unit scale, solved and certified."""
    n, m = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    # No cost between 0 and 2^-20, so that a scale of 2^-40 keeps every
    # cost normal and every product by a power of two exact.
    cost = st.one_of(st.integers(0, 20).map(float), st.floats(2.0**-20, 20.0))
    C = np.array(draw(st.lists(cost, min_size=n * m, max_size=n * m))).reshape(n, m)
    a = np.array(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)), dtype=np.float64)
    b = np.array(draw(st.lists(st.integers(1, 4), min_size=m, max_size=m)), dtype=np.float64)
    a /= a.sum()
    b /= b.sum()
    b *= float(np.sum(a)) / float(np.sum(b))  # as exact_wq balances the masses
    flow, u, v = _transport_simplex(a, b, C)
    _certify(a, b, C, flow, u, v)
    return a, b, C, flow, u, v


def dearest_cycle_push(C, flow):
    """The plan after the largest cost increase that one 4-cycle can make:
    ship t more through (i, l) and (r, j), t less through (i, j) and (r, l)."""
    best, plan = 0.0, None
    cells = list(zip(*np.nonzero(flow > 0.0)))
    for (i, j), (r, l) in itertools.combinations(cells, 2):
        if i == r or j == l:
            continue
        t = min(flow[i, j], flow[r, l])
        rise = t * (C[i, l] + C[r, j] - C[i, j] - C[r, l])
        if rise > best:
            best, plan = rise, flow.copy()
            plan[i, j] -= t
            plan[r, l] -= t
            plan[i, l] += t
            plan[r, j] += t
    return best, plan


class TestCertificateAtEveryScale:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(inst=certified_optimum(), scale=st.integers(-40, 20))
    def test_pushed_optimum_rejected_at_every_scale(self, inst, scale):
        # Pushing mass around a cycle with positive reduced cost keeps the
        # plan feasible and the duals feasible but opens the gap by the
        # cost it adds; scaling by a power of two changes no verdict.
        a, b, C, flow, u, v = inst
        rise, pushed = dearest_cycle_push(C, flow)
        assume(rise > 1e-6 * float(C.max()))
        lam = 2.0**scale
        for factor in (1.0, lam):
            cost = _certify(a, b, factor * C, flow.copy(), factor * u, factor * v)
            assert cost == factor * float(np.vdot(flow, C))
            with pytest.raises(NumericalError, match="optimality gap"):
                _certify(a, b, factor * C, pushed.copy(), factor * u, factor * v)


@st.composite
def degenerate_measure(draw, d):
    """Points on a small integer grid (so duplicates are common), integer masses
    with zeros allowed and at least one positive (a single atom is common)."""
    n = draw(st.integers(1, 7))
    coords = draw(st.lists(st.integers(0, 3), min_size=n * d, max_size=n * d))
    weights = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    weights[draw(st.integers(0, n - 1))] += 1
    w = np.asarray(weights, dtype=np.float64)
    return validate_measure(np.asarray(coords, dtype=np.float64).reshape(n, d), w / w.sum())


@st.composite
def degenerate_pair(draw):
    d = draw(st.integers(1, 2))
    src = draw(degenerate_measure(d))
    tgt = draw(degenerate_measure(d))
    return src, tgt, float(draw(st.integers(1, 3))), draw(st.sampled_from(list(Norm)))


def highs_cost(src, tgt, q, norm, **options):
    """Oracle: the same LP over the positive-mass points, solved by HiGHS
    (``options`` go to linprog, e.g. HiGHS's feasibility tolerances)."""
    ka = np.flatnonzero(src.masses > 0)
    kb = np.flatnonzero(tgt.masses > 0)
    C = pairwise_distances(
        Sample(src.points.points[ka]), Sample(tgt.points.points[kb]), norm
    ) ** q
    n, m = C.shape
    A = np.vstack([np.kron(np.eye(n), np.ones(m)), np.kron(np.ones(n), np.eye(m))])
    b = np.concatenate([src.masses[ka], tgt.masses[kb]])
    res = linprog(
        C.ravel(), A_eq=A, b_eq=b, bounds=(0, None), method="highs", options=options
    )
    assert res.status == 0
    return res.fun


class TestDegenerateInputs:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(pair=degenerate_pair())
    def test_certified_vertex_matches_highs(self, pair):
        src, tgt, q, norm = pair
        cost, plan = exact_wq(src, tgt, q, norm)
        row = np.zeros(src.size)
        col = np.zeros(tgt.size)
        for i, j, g in plan.entries:
            row[i] += g
            col[j] += g
        np.testing.assert_allclose(row, src.masses, rtol=0, atol=1e-9)
        np.testing.assert_allclose(col, tgt.masses, rtol=0, atol=1e-9)
        support = int(np.count_nonzero(src.masses)) + int(np.count_nonzero(tgt.masses))
        assert len(plan.entries) <= support - 1
        oracle = highs_cost(src, tgt, q, norm, primal_feasibility_tolerance=1e-10,
                            dual_feasibility_tolerance=1e-10)
        assert abs(cost - oracle) <= 1e-9 * max(1.0, abs(cost))


@st.composite
def first_basis_instance(draw):
    """(a, b, C): random, tied integer or all-zero costs; masses drawn with a
    residual imbalance up to 1e-9, then rescaled as exact_wq does."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["random", "ties", "zero"]))
    if kind == "random":
        cells = st.floats(0.0, 10.0, allow_nan=False)
    elif kind == "ties":
        cells = st.integers(0, 3)
    else:
        cells = st.just(0.0)
    C = np.asarray(draw(st.lists(cells, min_size=n * m, max_size=n * m)), dtype=np.float64)
    mass = st.one_of(st.integers(1, 4), st.floats(1e-3, 1.0))
    a = np.asarray(draw(st.lists(mass, min_size=n, max_size=n)), dtype=np.float64)
    b = np.asarray(draw(st.lists(mass, min_size=m, max_size=m)), dtype=np.float64)
    a /= a.sum()
    b *= (1.0 + draw(st.floats(-1e-9, 1e-9))) / b.sum()
    return a, b * (a.sum() / b.sum()), C.reshape(n, m)


def stable_matrix_minimum(a, b, C):
    """Reference matrix-minimum start: every cell in stable-sorted order."""
    n, m = C.shape
    arem, brem = a.tolist(), b.tolist()
    row_open, col_open = [True] * n, [True] * m
    rows_left, cols_left = n, m
    tree_flow = {}
    for f in np.argsort(C, axis=None, kind="stable").tolist():
        i, j = divmod(f, m)
        if not (row_open[i] and col_open[j]):
            continue
        t = min(arem[i], brem[j])
        tree_flow[f] = t
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


class TestFirstBasis:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(inst=first_basis_instance())
    def test_matches_stable_sort_reference(self, inst):
        a, b, C = inst
        got = _matrix_minimum(a, b, C)
        assert list(got.items()) == list(stable_matrix_minimum(a, b, C).items())

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(inst=first_basis_instance())
    def test_feasible_spanning_tree(self, inst):
        a, b, C = inst
        n, m = C.shape
        tree_flow = _matrix_minimum(a, b, C)
        assert len(tree_flow) == n + m - 1
        flow = _flow_matrix(n, m, tree_flow)
        assert (flow >= 0.0).all()
        assert np.max(np.abs(flow.sum(axis=1) - a)) <= 1e-12
        assert np.max(np.abs(flow.sum(axis=0) - b)) <= 1e-12
        adj = [[] for _ in range(n + m)]
        for f in tree_flow:
            i, j = divmod(f, m)
            adj[i].append(n + j)
            adj[n + j].append(i)
        parent, depth, pot = [-1] * (n + m), [0] * (n + m), [0.0] * (n + m)
        edge = np.full(n + m, -1, dtype=np.intp)
        # n+m-1 cells that reach all n+m nodes form a spanning tree.
        assert _hang(0, -1, adj, parent, depth, pot, edge, C.item, n, m) == n + m

    @pytest.mark.parametrize("kind", ["random", "ties"])
    @pytest.mark.parametrize(
        "shape", [(1, 1), (8, 8), (12, 12), (1, _STABLE_SORT_CELLS - 1), (_STABLE_SORT_CELLS - 1, 1),
                  (1, _STABLE_SORT_CELLS), (_STABLE_SORT_CELLS, 1), (12, 13), (30, 40)],
    )
    def test_matches_stable_sort_on_both_sides_of_the_size_rule(self, shape, kind):
        n, m = shape
        gen = stream(43, n * 1000 + m)
        C = uniform_open(gen, shape)
        if kind == "ties":
            C = np.floor(4.0 * C)
        a, b = uniform_open(gen, n), uniform_open(gen, m)
        a /= a.sum()
        b *= a.sum() / b.sum()
        got = _matrix_minimum(a, b, C)
        assert list(got.items()) == list(stable_matrix_minimum(a, b, C).items())

    @pytest.mark.parametrize(
        "shape, kinds",
        [((1, _STABLE_SORT_CELLS - 1), ["stable"]), ((8, 8), ["stable"]),
         ((1, _STABLE_SORT_CELLS), [None]), ((30, 40), [None])],
    )
    def test_one_sort_per_start_on_distinct_costs(self, monkeypatch, shape, kinds):
        # Below the size rule one stable sort; from it on one default sort
        # whose tie check finds nothing.
        seen, argsort = [], np.argsort

        def spy(C, axis=-1, kind=None):
            seen.append(kind)
            return argsort(C, axis=axis, kind=kind)

        monkeypatch.setattr(np, "argsort", spy)
        n, m = shape
        C = uniform_open(stream(44, n * m), shape)
        _matrix_minimum(np.full(n, 1.0 / n), np.full(m, 1.0 / m), C)
        assert seen == kinds

    def test_zero_cost_permutation_is_the_first_basis(self):
        # Uniform masses, cost 0 on a permuted diagonal and positive elsewhere:
        # the permutation is the unique optimum, and the cheapest-cell start
        # ships all the mass along it. (The northwest corner starts on the
        # diagonal and would need pivots.)
        n = 6
        perm = np.array([3, 0, 5, 1, 4, 2])
        gen = stream(41, 0)
        C = 1.0 + uniform_open(gen, (n, n))
        C[np.arange(n), perm] = 0.0
        a = b = np.full(n, 1.0 / n)
        optimum = np.zeros((n, n))
        optimum[np.arange(n), perm] = 1.0 / n
        start = _flow_matrix(n, n, _matrix_minimum(a, b, C))
        np.testing.assert_array_equal(start, optimum)
        flow, u, v = _transport_simplex(a, b, C)
        np.testing.assert_array_equal(flow, optimum)
        assert _certify(a, b, C, flow, u, v) == 0.0


def solve_recording(src, tgt, q, norm=Norm.L2):
    """exact_wq's cost, with the number of _hang calls (the first hang of
    the tree plus one per pivot) and the (C, flow, u, v) of its simplex."""
    seen = {"hangs": 0}

    def hang(*args):
        seen["hangs"] += 1
        return _hang(*args)

    def simplex(a, b, C):
        seen["solve"] = (C, *_transport_simplex(a, b, C))
        return seen["solve"][1:]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wknn.ot, "_hang", hang)
        mp.setattr(wknn.ot, "_transport_simplex", simplex)
        cost, _ = exact_wq(src, tgt, q, norm)
    return cost, seen


def knn_measures(ev, tr, k, norm=Norm.L2):
    wv = knn_weights(neighbor_table(ev, tr, k, norm), tr.size)
    return uniform_empirical(ev), weighted_measure(tr, wv)


@st.composite
def knn_lp_instance(draw, k_max):
    """(ev, tr, k, q, norm): coordinates on a small integer grid or in [0, 3],
    so duplicated points and tied distances are common; 1 <= k <= min(k_max, m)."""
    d = draw(st.integers(1, 2))
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 8))
    coord = st.one_of(st.integers(0, 3), st.floats(0.0, 3.0))

    def points(size):
        values = draw(st.lists(coord, min_size=size * d, max_size=size * d))
        return Sample(np.asarray(values, dtype=np.float64).reshape(size, d))

    ev, tr = points(n), points(m)
    k = draw(st.integers(1, min(k_max, m)))
    return ev, tr, k, float(draw(st.integers(1, 3))), draw(st.sampled_from(list(Norm)))


class TestRowMinimumExit:
    """At k=1 the first basis ships every row to its nearest column, and the
    row-minimum duals (u = row minima, v = 0) certify it with no pivot."""

    def check_no_pivot(self, ev, tr, q, norm):
        cost, seen = solve_recording(*knn_measures(ev, tr, 1, norm), q, norm)
        C, _, u, v = seen["solve"]
        assert seen["hangs"] == 0
        np.testing.assert_array_equal(u, C.min(axis=1))
        np.testing.assert_array_equal(v, np.zeros(C.shape[1]))
        assert cost == pytest.approx(wq_1nn(ev, tr, q, norm), rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("norm", list(Norm))
    def test_duplicates_and_ties_take_no_pivot(self, norm):
        # Training points 0 and 2 are each duplicated; evaluation points 1
        # and 3 sit halfway between two training points.
        ev = Sample(np.array([[1.0], [1.0], [3.0], [0.0], [4.0], [2.5]]))
        tr = Sample(np.array([[0.0], [0.0], [2.0], [2.0], [4.0]]))
        for q in (1.0, 2.0, 3.0):
            self.check_no_pivot(ev, tr, q, norm)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(inst=knn_lp_instance(k_max=1))
    # Every 1-NN distance is 0, so the start's whole cost is the ulp-sized
    # mass that rounding leaves over from 5/6 and ships at cost 1.
    @example(inst=(Sample([0.0] * 5 + [1.0]), Sample([0.0, 1.0]), 1, 1.0, Norm.L1))
    def test_1nn_instances_take_no_pivot(self, inst):
        ev, tr, _, q, norm = inst
        self.check_no_pivot(ev, tr, q, norm)

    @pytest.mark.parametrize(
        "q, scales",
        [(1.0, (1e-14, 1e-10, 1.0, 1e6)), (2.0, (1e-8, 1e-5, 1.0)), (3.0, (1e-5, 1e-3, 1.0))],
    )
    def test_start_that_is_not_optimal_pivots_at_every_scale(self, q, scales):
        # Source {0, 3c}, target {c, -2c}: the start pairs 0 with c and 3c
        # with -2c at cost (1 + 5^q) c^q / 2, against the bound
        # (1 + 2^q) c^q / 2 and the crosswise optimum (2c)^q.
        for c in scales:
            src = np.array([0.0, 3.0 * c])
            tgt = np.array([c, -2.0 * c])
            cost, seen = solve_recording(
                uniform_empirical(Sample(src)), uniform_empirical(Sample(tgt)), q
            )
            assert seen["hangs"] > 1
            assert cost == pytest.approx(wq_1d_uniform_oracle(src, tgt, q), rel=1e-12, abs=0)

    def test_k2_start_that_is_not_optimal_still_pivots(self):
        gen = stream(42, 0)
        ev = Sample(uniform_open(gen, (8, 2)))
        tr = Sample(uniform_open(gen, (6, 2)))
        src, tgt = knn_measures(ev, tr, 2)
        cost, seen = solve_recording(src, tgt, 2.0)
        C, _, u, _ = seen["solve"]
        # The first hang builds the tree; every later one is a pivot.
        assert seen["hangs"] > 1
        assert u[0] == 0.0 and not np.array_equal(u, C.min(axis=1))
        assert abs(cost - highs_cost(src, tgt, 2.0, Norm.L2)) <= 1e-9 * max(1.0, cost)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(inst=knn_lp_instance(k_max=3), scale=st.sampled_from([2.0**-40, 1.0, 2.0**20]))
    def test_cost_matches_highs(self, inst, scale):
        ev, tr, k, q, norm = inst
        wv = knn_weights(neighbor_table(ev, tr, k, norm), tr.size)

        def measures(lam):
            return (
                uniform_empirical(Sample(lam * ev.points)),
                weighted_measure(Sample(lam * tr.points), wv),
            )

        # exact_wq solves the instance scaled by a power of two, which
        # scales every cost by scale**q; HiGHS solves it at unit scale,
        # where its absolute tolerances mean something.
        cost = exact_wq(*measures(scale), q, norm)[0] / scale**q
        # HiGHS's default feasibility tolerances (1e-7) are looser than the
        # 1e-9 compared here, and distances as small as 6e-8 occur.
        oracle = highs_cost(
            *measures(1.0), q, norm,
            primal_feasibility_tolerance=1e-10, dual_feasibility_tolerance=1e-10,
        )
        assert abs(cost - oracle) <= 1e-9 * max(1.0, abs(cost))
