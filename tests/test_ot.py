import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from wknn.core import (
    InvalidInputError,
    Norm,
    NumericalError,
    Sample,
    pairwise_distances,
    uniform_empirical,
    validate_measure,
)
from wknn.knn import neighbor_table
from wknn.ot import _certify, exact_wq, wq_1d_uniform_oracle, wq_1nn, wq_knn_bound
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

    def test_scale_equivariance(self):
        gen = stream(39, 0)
        ev, tr = random_instance(gen)
        lam = 3.7
        for q in (1.0, 2.0):
            base, _ = exact_wq(uniform_empirical(ev), uniform_empirical(tr), q)
            scaled, _ = exact_wq(
                uniform_empirical(Sample(lam * ev.points)),
                uniform_empirical(Sample(lam * tr.points)),
                q,
            )
            assert scaled == pytest.approx(lam**q * base, rel=1e-9)
            assert wq_1nn(Sample(lam * ev.points), Sample(lam * tr.points), q) == pytest.approx(
                lam**q * wq_1nn(ev, tr, q), rel=1e-12
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


def highs_cost(src, tgt, q, norm):
    """Oracle: the same LP over the positive-mass points, solved by HiGHS."""
    ka = np.flatnonzero(src.masses > 0)
    kb = np.flatnonzero(tgt.masses > 0)
    C = pairwise_distances(
        Sample(src.points.points[ka]), Sample(tgt.points.points[kb]), norm
    ) ** q
    n, m = C.shape
    A = np.vstack([np.kron(np.eye(n), np.ones(m)), np.kron(np.ones(n), np.eye(m))])
    b = np.concatenate([src.masses[ka], tgt.masses[kb]])
    res = linprog(C.ravel(), A_eq=A, b_eq=b, bounds=(0, None), method="highs")
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
        oracle = highs_cost(src, tgt, q, norm)
        assert abs(cost - oracle) <= 1e-9 * max(1.0, abs(cost))
