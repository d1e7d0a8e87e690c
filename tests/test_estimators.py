import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wknn.core import InvalidInputError, LabeledSample, Norm, Sample
from wknn.estimators import (
    Model,
    Observable,
    knn_regress,
    qi_hat,
    qi_knn,
    qi_tilde,
)
from wknn.experiments import builtin_scenario, generalization_error_mc
from wknn.knn import knn_query, neighbor_table
from wknn.rng import stream, uniform_open
from wknn.weights import knn_weights, weighted_measure

IDENTITY = Observable(fn=lambda y: y[:, 0])
ONE = Observable(fn=lambda y: np.ones(y.shape[0]), sup_bound=1.0)


def hand_weight_vector():
    table = neighbor_table(Sample([1.0, 2.0, 9.0]), Sample([0.0, 10.0]), 1)
    return knn_weights(table, 2)


class TestQiHat:
    def test_hand_value(self):
        assert qi_hat(hand_weight_vector(), np.array([3.0, 6.0]), IDENTITY) == pytest.approx(
            4.0, rel=1e-15
        )

    def test_constant_observable(self):
        gen = stream(41, 0)
        for _ in range(10):
            n, m = int(gen.integers(1, 10)), int(gen.integers(1, 10))
            ev = Sample(uniform_open(gen, (n, 2)))
            tr = Sample(uniform_open(gen, (m, 2)))
            k = int(gen.integers(1, m + 1))
            wv = knn_weights(neighbor_table(ev, tr, k), m)
            assert qi_hat(wv, uniform_open(gen, (m, 1)), ONE) == pytest.approx(1.0, rel=1e-12)

    def test_uniform_weights_are_sample_mean(self):
        gen = stream(42, 0)
        tr = Sample(uniform_open(gen, (8, 1)))
        wv = knn_weights(neighbor_table(tr, tr, 8), 8)  # k=m gives uniform weights
        y = uniform_open(gen, (8, 1))
        assert qi_hat(wv, y, IDENTITY) == pytest.approx(float(y.mean()), rel=1e-12)

    def test_size_mismatch(self):
        with pytest.raises(InvalidInputError):
            qi_hat(hand_weight_vector(), np.zeros((3, 1)), IDENTITY)

    def test_sup_bound_checked(self):
        phi = Observable(fn=lambda y: y[:, 0], sup_bound=0.5)
        with pytest.raises(InvalidInputError):
            qi_hat(hand_weight_vector(), np.array([3.0, 6.0]), phi)

    @pytest.mark.parametrize("bound", [math.nan, math.inf, -1.0, "1"])
    def test_nan_or_negative_sup_bound_rejected(self, bound):
        # A NaN bound would pass every value, a negative one would fail every call.
        with pytest.raises(InvalidInputError, match="sup_bound"):
            Observable(fn=lambda y: y[:, 0], sup_bound=bound)


class TestQiTilde:
    def test_constant_psi(self):
        wv = hand_weight_vector()
        assert qi_tilde(wv, [2.5, 2.5]) == pytest.approx(2.5, rel=1e-15)

    def test_hand_value(self):
        table = neighbor_table(Sample([1.0, 9.0]), Sample([0.0, 10.0]), 1)
        wv = knn_weights(table, 2)  # w = [1, 1]
        assert qi_tilde(wv, [2.0, 4.0]) == pytest.approx(3.0, rel=1e-15)

    def test_noiseless_model_matches_qi_hat(self):
        # when f ignores the parameter draw, psi = phi o f pointwise
        scn = builtin_scenario("diag_uniform_gauss", {"noiseless": True})
        gen = stream(43, 0)
        ev = Sample(scn.x_sampler(gen, 20))
        xp = scn.xp_sampler(gen, 15)
        outs = scn.model.sample_outputs(gen, xp)
        wv = knn_weights(neighbor_table(ev, Sample(xp), 3), 15)
        assert qi_tilde(wv, scn.psi(xp)) == pytest.approx(
            qi_hat(wv, outs, scn.phi), rel=1e-12
        )

    def test_size_mismatch(self):
        with pytest.raises(InvalidInputError):
            qi_tilde(hand_weight_vector(), [1.0, 2.0, 3.0])


class TestKnnRegress:
    def test_nearest_neighbor(self):
        train = LabeledSample(Sample([0.0, 10.0]), np.array([1.0, 5.0]))
        assert knn_regress([1.5], train, 1)[0] == 1.0

    def test_two_neighbor_mean(self):
        train = LabeledSample(Sample([0.0, 10.0]), np.array([1.0, 5.0]))
        assert knn_regress([1.5], train, 2)[0] == 3.0

    def test_k_equals_m_global_mean(self):
        gen = stream(44, 0)
        train = LabeledSample(Sample(uniform_open(gen, (9, 2))), uniform_open(gen, (9, 3)))
        got = knn_regress(uniform_open(gen, 2), train, 9)
        np.testing.assert_allclose(got, train.outputs.mean(axis=0), rtol=1e-12)

    def test_k_out_of_range(self):
        train = LabeledSample(Sample([0.0]), np.array([1.0]))
        with pytest.raises(InvalidInputError):
            knn_regress([0.0], train, 2)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(data=st.data(), m_range=st.sampled_from([(1, 31), (32, 70)]))
    def test_matches_single_point_brute_force(self, data, m_range):
        # Coordinates on a coarse grid: duplicated training points and
        # distance ties are common, under every norm.
        norm = data.draw(st.sampled_from(list(Norm)))
        d = data.draw(st.integers(1, 3))
        m = data.draw(st.integers(*m_range))
        coord = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0])
        inputs = np.array(data.draw(st.lists(st.tuples(*[coord] * d), min_size=m, max_size=m)))
        e = data.draw(st.integers(1, 2))
        outputs = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=m * e,
                                              max_size=m * e))).reshape(m, e)
        x = np.array(data.draw(st.tuples(*[coord] * d)))
        k = data.draw(st.integers(1, m))
        train = LabeledSample(Sample(inputs), outputs)
        idx, _ = knn_query(x, train.inputs, k, norm)
        want = train.outputs[idx].mean(axis=0)
        got = knn_regress(x, train, k, norm)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestQiKnnIdentity:
    def test_matches_qi_hat_exactly(self):
        gen = stream(45, 0)
        for _ in range(30):
            n, m = int(gen.integers(1, 30)), int(gen.integers(2, 25))
            k = int(gen.integers(1, m + 1))
            ev = Sample(uniform_open(gen, (n, 3)))
            xp = uniform_open(gen, (m, 3))
            y = uniform_open(gen, (m, 1))
            train = LabeledSample(Sample(xp), y)
            via_weights = qi_hat(
                knn_weights(neighbor_table(ev, Sample(xp), k), m), y, IDENTITY
            )
            assert qi_knn(ev, train, k, IDENTITY) == pytest.approx(via_weights, abs=1e-12)

    def test_hand_value(self):
        train = LabeledSample(Sample([0.0, 10.0]), np.array([3.0, 6.0]))
        assert qi_knn(Sample([1.0, 2.0, 9.0]), train, 1, IDENTITY) == pytest.approx(
            4.0, rel=1e-15
        )

    def test_constant_phi(self):
        train = LabeledSample(Sample([0.0, 10.0]), np.array([3.0, 6.0]))
        assert qi_knn(Sample([1.0, 2.0, 9.0]), train, 2, ONE) == pytest.approx(1.0)


class TestNoiselessAffineExactness:
    def test_weighted_integral_equals_qi_hat(self):
        # affine phi o f: the estimator equals the measure integral exactly
        gen = stream(46, 0)
        ev = Sample(uniform_open(gen, (12, 1)))
        xp = uniform_open(gen, (9, 1))
        y = 2.0 * xp + 1.0
        wv = knn_weights(neighbor_table(ev, Sample(xp), 2), 9)
        measure = weighted_measure(Sample(xp), wv)
        integral = float(np.dot(measure.masses, (2.0 * xp[:, 0] + 1.0)))
        assert qi_hat(wv, y, IDENTITY) == pytest.approx(integral, rel=1e-12)


class TestNoiseVarianceBound:
    def test_mc_bound_diag_scenario(self):
        # E[(qi_hat - qi_tilde)^2] <= 4 ||phi||_inf^2 / k, with 3-sigma slack
        scn = builtin_scenario("diag_uniform_gauss")
        m, n, k, reps = 128, 64, 4, 2000
        sup = scn.phi.sup_bound
        vals = np.empty(reps)
        for rep in range(reps):
            gen = stream(47, rep)
            ev = Sample(scn.x_sampler(gen, n))
            xp = scn.xp_sampler(gen, m)
            outs = scn.model.sample_outputs(gen, xp)
            wv = knn_weights(neighbor_table(ev, Sample(xp), k), m)
            vals[rep] = (qi_hat(wv, outs, scn.phi) - qi_tilde(wv, scn.psi(xp))) ** 2
        mean = float(vals.mean())
        se = float(vals.std(ddof=1)) / math.sqrt(reps)
        assert mean <= 4.0 * sup * sup / k + 3.0 * se


class TestGeneralizationErrorMc:
    def test_sampler_dimension_mismatch_raises(self):
        model = Model(fn=lambda x, theta: theta, theta_sampler=lambda g, s: np.zeros(s))
        with pytest.raises(InvalidInputError, match="dimension mismatch: 3 vs 2"):
            generalization_error_mc(
                model, lambda g, s: uniform_open(g, (s, 3)), lambda g, s: uniform_open(g, (s, 2)),
                lambda x: x[:, 0], m=5, k=1, n_test=3,
            )

    def test_noiseless_identity_small_error(self):
        scn = builtin_scenario("identity_1d_uniform")
        mse, se = generalization_error_mc(
            scn.model, scn.x_sampler, scn.xp_sampler, scn.psi, m=500, k=1, n_test=400, seed=48
        )
        assert mse < 1e-3

    def test_constant_model_variance_only(self):
        # f(x, theta) = theta: zero bias, error = Var(theta)/k
        model = Model(fn=lambda x, theta: theta, theta_sampler=lambda g, s: uniform_open(g, s) - 0.5)
        var = 1.0 / 12.0
        sampler = lambda g, s: uniform_open(g, (s, 1))
        k = 5
        mse, se = generalization_error_mc(
            model, sampler, sampler, lambda x: np.zeros(x.shape[0]), m=50, k=k,
            n_test=3000, seed=49,
        )
        assert mse == pytest.approx(var / k, abs=4 * se)

    @pytest.mark.parametrize("k", [0, 6])
    def test_k_out_of_range(self, k):
        sampler = lambda g, s: uniform_open(g, (s, 1))
        model = Model(fn=lambda x, theta: theta, theta_sampler=lambda g, s: np.zeros(s))
        with pytest.raises(InvalidInputError, match=f"k must satisfy 1 <= k <= 5, got {k}"):
            generalization_error_mc(model, sampler, sampler, lambda x: x[:, 0], m=5, k=k,
                                    n_test=3)

    def test_k_equals_m_mean_of_noises(self):
        model = Model(fn=lambda x, theta: theta, theta_sampler=lambda g, s: uniform_open(g, s) - 0.5)
        var = 1.0 / 12.0
        sampler = lambda g, s: uniform_open(g, (s, 1))
        m = 40
        mse, se = generalization_error_mc(
            model, sampler, sampler, lambda x: np.zeros(x.shape[0]), m=m, k=m,
            n_test=3000, seed=50,
        )
        assert mse == pytest.approx(var / m, abs=4 * se)
