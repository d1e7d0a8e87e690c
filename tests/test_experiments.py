import dataclasses
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad

from wknn.core import DEFAULT_NORM, InvalidInputError, NumericalError, Sample
from wknn.estimators import Observable
from wknn.experiments import (
    _certify_record,
    atom_consistency_experiment,
    builtin_scenario,
    const_k,
    fit_loglog,
    noisy_rate_experiment,
    power_k,
    qi_experiment,
    scenario_names,
    wasserstein_rate_experiment,
)
from wknn.knn import neighbor_table
from wknn.ot import knn_transport_cost
from wknn.rng import indexed_map, stream, uniform_open


class TestBuiltinScenarios:
    def test_names(self):
        assert set(scenario_names()) == {
            "diag_uniform_gauss",
            "atom_demo",
            "identity_1d_uniform",
            "gauss_gauss",
        }

    def test_unknown_name(self):
        with pytest.raises(InvalidInputError):
            builtin_scenario("nope")

    def test_invalid_override(self):
        with pytest.raises(InvalidInputError):
            builtin_scenario("diag_uniform_gauss", {"wat": 1})

    def test_diag_defaults(self):
        scn = builtin_scenario("diag_uniform_gauss")
        assert scn.params["mu"] == 0.5
        assert scn.params["sigma"] == 0.3
        assert -1.0 < scn.params["s_corr"] < 1.0
        assert scn.qi == 0.5
        assert (scn.d, scn.e) == (2, 1)

    def test_scorr_range_validated(self):
        with pytest.raises(InvalidInputError):
            builtin_scenario("diag_uniform_gauss", {"s_corr": 1.0})

    @pytest.mark.parametrize(
        "name, overrides",
        [
            ("atom_demo", {"x0": (1, 2, 3)}),
            ("atom_demo", {"x0": "ab"}),
            ("atom_demo", {"x0": (0.25, math.inf)}),
            ("gauss_gauss", {"d": "x"}),
            ("gauss_gauss", {"d": 2.5}),
            ("gauss_gauss", {"d": 0}),
            ("gauss_gauss", {"sigma_prime": math.nan}),
            ("diag_uniform_gauss", {"sigma": "abc"}),
            ("diag_uniform_gauss", {"mu": math.nan}),
            ("diag_uniform_gauss", {"sigma": math.inf}),
            ("atom_demo", {"s_corr": None}),
            ("diag_uniform_gauss", {"sigma": 1e100}),  # sigma**4 overflows
            ("diag_uniform_gauss", {"sigma": 1e-200}),  # sigma**4 underflows to 0
            ("gauss_gauss", {"sigma_prime": 1e200}),
            ("gauss_gauss", {"sigma_prime": 1e-200}),
            ("diag_uniform_gauss", {"noiseless": "false"}),  # a truthy string
            ("atom_demo", {"noiseless": None}),
        ],
    )
    def test_bad_override_values_rejected(self, name, overrides):
        with pytest.raises(InvalidInputError):
            builtin_scenario(name, overrides)

    def test_integral_dimension_accepted(self):
        scn = builtin_scenario("gauss_gauss", {"d": 3.0})
        assert scn.d == 3
        assert scn.x_sampler(stream(64, 0), 5).shape == (5, 3)

    def test_diag_qi_by_quadrature(self):
        # E[sin(2 pi U)^2 (1 + Theta)] over U ~ U(0,1), Theta ~ U(-1,1)
        val, _ = dblquad(
            lambda th, u: math.sin(2 * math.pi * u) ** 2 * (1 + th) * 0.5,
            0.0, 1.0, -1.0, 1.0,
        )
        assert builtin_scenario("diag_uniform_gauss").qi == pytest.approx(val, abs=1e-10)

    def test_identity_qi_by_quadrature(self):
        val, _ = quad(lambda u: u, 0.0, 1.0)
        assert builtin_scenario("identity_1d_uniform").qi == pytest.approx(val, abs=1e-12)

    def test_atom_qi_by_quadrature(self):
        scn = builtin_scenario("atom_demo")
        x0 = np.asarray(scn.params["x0"], dtype=float)
        s = math.sin(2 * math.pi * x0[0]) * math.sin(2 * math.pi * x0[1])
        val, _ = quad(lambda th: s * (1 + th) * 0.5, -1.0, 1.0)
        assert scn.qi == pytest.approx(val, abs=1e-10)

    def test_atom_vartheta_positive_by_quadrature(self):
        scn = builtin_scenario("atom_demo")
        x0 = np.asarray(scn.params["x0"], dtype=float).reshape(1, 2)
        s = math.sin(2 * math.pi * x0[0, 0]) * math.sin(2 * math.pi * x0[0, 1])
        second, _ = quad(lambda th: (s * (1 + th)) ** 2 * 0.5, -1.0, 1.0)
        var = second - s * s
        assert var > 0.0
        assert float(scn.vartheta(x0)[0]) == pytest.approx(var, rel=1e-10)

    def test_vartheta_matches_quadrature_at_random_points(self):
        scn = builtin_scenario("diag_uniform_gauss")
        gen = stream(60, 0)
        x = scn.xp_sampler(gen, 5)
        for row, declared in zip(x, scn.vartheta(x)):
            s = math.sin(2 * math.pi * row[0]) * math.sin(2 * math.pi * row[1])
            second, _ = quad(lambda th: (s * (1 + th)) ** 2 * 0.5, -1.0, 1.0)
            assert declared == pytest.approx(second - s * s, rel=1e-9, abs=1e-12)

    def test_gauss_gauss_qi_zero_mean(self):
        scn = builtin_scenario("gauss_gauss")
        gen = stream(61, 0)
        draws = scn.x_sampler(gen, 200000)
        assert scn.qi == 0.0
        assert abs(float(draws[:, 0].mean())) < 0.01

    def test_sampler_moments(self):
        scn = builtin_scenario("diag_uniform_gauss", {"s_corr": 0.7})
        gen = stream(62, 0)
        xp = scn.xp_sampler(gen, 200000)
        assert xp.mean(axis=0) == pytest.approx([0.5, 0.5], abs=5e-3)
        cov = np.cov(xp.T)
        assert cov[0, 0] == pytest.approx(0.09, rel=0.02)
        assert cov[1, 1] == pytest.approx(0.09, rel=0.02)
        assert cov[0, 1] == pytest.approx(0.7 * 0.09, rel=0.03)

    def test_noiseless_override(self):
        scn = builtin_scenario("diag_uniform_gauss", {"noiseless": True})
        gen = stream(63, 0)
        xp = scn.xp_sampler(gen, 50)
        out = scn.model.sample_outputs(gen, xp)
        np.testing.assert_allclose(out[:, 0], scn.psi(xp), rtol=1e-15)
        assert float(scn.vartheta(xp).max()) == 0.0


class TestFitLoglog:
    def test_exact_power_law(self):
        pts = [(m, 3.0 * m**-1.0) for m in (10, 20, 40, 80)]
        fit = fit_loglog(pts)
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
        assert fit.residual_rms == pytest.approx(0.0, abs=1e-12)

    def test_constant(self):
        fit = fit_loglog([(m, 2.5) for m in (10, 100, 1000)])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_noisy_half_power(self):
        gen = stream(64, 0)
        ms = np.geomspace(10, 10000, 12)
        pts = [(m, m**-0.5 * (1.0 + 0.01 * float(gen.standard_normal()))) for m in ms]
        fit = fit_loglog(pts)
        assert fit.slope == pytest.approx(-0.5, abs=0.05)

    def test_nonpositive_rejected(self):
        with pytest.raises(InvalidInputError):
            fit_loglog([(10, 1.0), (20, 0.0)])

    def test_single_abscissa_rejected(self):
        with pytest.raises(InvalidInputError):
            fit_loglog([(10, 1.0), (10, 2.0)])

    @pytest.mark.parametrize(
        "bad",
        [(0, 1.0), (-10, 1.0), (math.inf, 1.0), (math.nan, 1.0),
         (30, math.nan), (30, math.inf)],
    )
    def test_nonfinite_or_nonpositive_point_rejected(self, bad):
        with pytest.raises(InvalidInputError):
            fit_loglog([(10, 1.0), (20, 0.5), bad])


class TestIndexedMap:
    @pytest.mark.parametrize("count", [0, 3, 9])
    @pytest.mark.parametrize("threads", [1, 2, 8])
    def test_serial_in_index_order_on_calling_thread(self, threads, count):
        calls = []

        def fn(i):
            calls.append((i, threading.get_ident()))
            return i * i

        assert indexed_map(fn, count, threads=threads) == [i * i for i in range(count)]
        assert calls == [(i, threading.get_ident()) for i in range(count)]

    def test_negative_count_rejected(self):
        with pytest.raises(InvalidInputError):
            indexed_map(lambda i: i, -1)


class TestStream:
    @pytest.mark.parametrize("seed, stream_id", [(2**64, 0), (0, 2**64), (2**70, 3), (-1, 0)])
    def test_key_outside_64_bits_rejected(self, seed, stream_id):
        with pytest.raises(InvalidInputError):
            stream(seed, stream_id)

    def test_largest_key_accepted(self):
        a = stream(2**64 - 1, 2**64 - 1).integers(0, 1 << 62, 4)
        b = stream(0, 0).integers(0, 1 << 62, 4)
        assert a.tolist() != b.tolist()


class TestRateExperiment:
    def test_deterministic_across_threads_and_reruns(self):
        scn = builtin_scenario("diag_uniform_gauss", {"s_corr": 0.9})
        kwargs = dict(m_grid=[50, 100], n=30, k_rule=const_k(1), q=2.0,
                      replications=16, base_seed=5)
        a = wasserstein_rate_experiment(scn, **kwargs, threads=1)
        b = wasserstein_rate_experiment(scn, **kwargs, threads=4)
        c = wasserstein_rate_experiment(scn, **kwargs, threads=1)
        stats = lambda res: [r.statistic for r in res.records]
        assert stats(a) == stats(b) == stats(c)
        assert [s.mean for s in a.summary] == [s.mean for s in b.summary]
        assert a.fit.slope == b.fit.slope

    def test_monotone_in_m_with_slack(self):
        scn = builtin_scenario("diag_uniform_gauss", {"s_corr": 0.5})
        res = wasserstein_rate_experiment(
            scn, [50, 100, 200, 400], 50, const_k(1), 2.0, 40, 17
        )
        rows = res.summary
        for a, b in zip(rows, rows[1:]):
            assert b.mean <= a.mean + 2.0 * (a.stderr + b.stderr)

    def test_certify_small_run(self):
        scn = builtin_scenario("diag_uniform_gauss")
        res = wasserstein_rate_experiment(
            scn, [20, 40], 10, const_k(1), 2.0, 3, 7, certify=True
        )
        assert "lp_certified" in res.statistic
        res2 = wasserstein_rate_experiment(
            scn, [20, 40], 10, power_k(0.5), 2.0, 3, 7, certify=True
        )
        assert res2.statistic.startswith("knn_bound")

    @pytest.mark.parametrize("k", [1, 3])
    def test_certify_is_relative_at_tiny_scale(self, k):
        # Costs near 1e-14 sit far below any absolute tolerance.
        gen = stream(71, 0)
        x = Sample(1e-6 * uniform_open(gen, (10, 2)))
        xp = Sample(1e-6 * uniform_open(gen, (20, 2)))
        table = neighbor_table(x, xp, k, DEFAULT_NORM)
        stat = knn_transport_cost(table, 2.0)
        assert 0.0 < stat < 1e-12
        _certify_record(x, xp, table, k, 2.0, DEFAULT_NORM, stat)
        # k = 1 must match the cost; k > 1 must not fall below it.
        wrong = 2.0 * stat if k == 1 else 0.5 * stat
        with pytest.raises(NumericalError):
            _certify_record(x, xp, table, k, 2.0, DEFAULT_NORM, wrong)

    def test_identity_rate_near_minus_one(self):
        scn = builtin_scenario("identity_1d_uniform")
        res = wasserstein_rate_experiment(
            scn, [125, 250, 500, 1000], 100, const_k(1), 1.0, 150, 23
        )
        assert res.fit.slope == pytest.approx(-1.0, abs=0.12)

    def test_k_rule_validation(self):
        scn = builtin_scenario("identity_1d_uniform")
        with pytest.raises(InvalidInputError):
            wasserstein_rate_experiment(scn, [10], 5, const_k(20), 1.0, 2, 0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, 1000.0])
    def test_k_rule_without_finite_k(self, alpha):
        with pytest.raises(InvalidInputError):
            power_k(alpha)(100)

    def test_grid_must_increase(self):
        scn = builtin_scenario("identity_1d_uniform")
        with pytest.raises(InvalidInputError):
            wasserstein_rate_experiment(scn, [100, 100], 5, const_k(1), 1.0, 2, 0)


class TestQiExperiment:
    def test_requires_analytic_qi(self):
        scn = builtin_scenario("diag_uniform_gauss")
        broken = dataclasses.replace(scn, qi=None)
        with pytest.raises(InvalidInputError):
            qi_experiment(broken, 10, 10, 1, [0.0], 2, 0)

    def test_constant_observable_zero_error(self):
        scn = builtin_scenario("diag_uniform_gauss")
        one = Observable(fn=lambda y: np.ones(y.shape[0]), sup_bound=1.0)
        flat = dataclasses.replace(scn, phi=one, qi=1.0)
        res = qi_experiment(flat, 40, 30, 2, [scn.params["s_corr"]], 10, 3)
        assert res.summary[0].mean <= 1e-28  # squared rounding noise only

    def test_error_decreasing_in_scorr_noiseless(self):
        scn = builtin_scenario("diag_uniform_gauss", {"noiseless": True})
        res = qi_experiment(scn, 300, 300, 1, [-0.9, 0.0, 0.9], 60, 11)
        means = [row.mean for row in res.summary]
        assert means[0] > means[1] > means[2]

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidInputError):
            qi_experiment(builtin_scenario("diag_uniform_gauss"), 10, 10, 1, [], 2, 0)

    def test_deterministic_across_threads(self):
        scn = builtin_scenario("diag_uniform_gauss")
        a = qi_experiment(scn, 60, 50, 4, [0.0, 0.5], 12, 9, threads=1)
        b = qi_experiment(scn, 60, 50, 4, [0.0, 0.5], 12, 9, threads=3)
        assert [r.statistic for r in a.records] == [r.statistic for r in b.records]


class TestAtomExperiment:
    def test_two_regimes(self):
        res = atom_consistency_experiment([100, 400], 60, 13)
        # 1-NN error does not vanish; growing-k error shrinks with m
        assert res.summary_1nn[-1].mean > 0.2
        assert res.summary_sqrt[-1].mean < res.summary_sqrt[0].mean

    def test_noiseless_variant_both_vanish(self):
        scn = builtin_scenario("atom_demo", {"noiseless": True})
        res = atom_consistency_experiment([100, 400, 1600], 40, 14, scenario=scn)
        # without observation noise both error curves decay with m
        assert res.summary_1nn[-1].mean < 0.02
        assert res.summary_sqrt[-1].mean < 0.5 * res.summary_sqrt[0].mean
        assert res.summary_1nn[-1].mean < res.summary_1nn[0].mean

    def test_record_layout(self):
        res = atom_consistency_experiment([50], 5, 15)
        ks = {r.k for r in res.records}
        assert ks == {1, math.ceil(math.sqrt(50))}

    def test_zero_replications_rejected(self):
        with pytest.raises(InvalidInputError):
            atom_consistency_experiment([50], 0, 15)


class TestNoisyRateExperiment:
    def test_default_k_rule_and_fit(self):
        scn = builtin_scenario("diag_uniform_gauss")
        res, fit = noisy_rate_experiment(scn, [50, 100, 200], 200, 20, 19)
        ks = sorted({r.k for r in res.records})
        assert ks == [math.ceil(50**0.5), math.ceil(100**0.5), math.ceil(200**0.5)]
        assert fit.slope < 0.0

    def test_plateau_in_m_when_k_and_m_fixed(self):
        # with m and k fixed, growing n leaves only the m-term: error stabilizes
        scn = builtin_scenario("diag_uniform_gauss")
        res_small, _ = noisy_rate_experiment(scn, [100, 200], 50, 30, 21, k_rule=const_k(4))
        res_big, _ = noisy_rate_experiment(scn, [100, 200], 2000, 30, 21, k_rule=const_k(4))
        # the n-driven part shrinks: larger n cannot increase the error much
        assert res_big.summary[0].mean <= res_small.summary[0].mean + 3 * (
            res_small.summary[0].stderr + res_big.summary[0].stderr
        )

    def test_requires_analytic_qi(self):
        scn = dataclasses.replace(builtin_scenario("diag_uniform_gauss"), qi=None)
        with pytest.raises(InvalidInputError):
            noisy_rate_experiment(scn, [50, 100], 50, 5, 0)

    def test_zero_replications_rejected(self):
        scn = builtin_scenario("diag_uniform_gauss")
        with pytest.raises(InvalidInputError):
            noisy_rate_experiment(scn, [50, 100], 50, 0, 0)

    def test_noiseless_k1_slope_near_minus_half(self):
        # single-neighbor error at an atom with nonzero surface gradient
        # scales like the neighbor distance, so RMS ~ m^{-1/2} in d=2
        scn = builtin_scenario("atom_demo", {"x0": (0.2, 0.3), "noiseless": True})
        _, fit = noisy_rate_experiment(
            scn, [200, 400, 800, 1600, 3200], 100, 100, 33, k_rule=const_k(1), threads=4
        )
        assert fit.slope == pytest.approx(-0.5, abs=0.15)


# --- byte identity across thread counts ---------------------------------------

_M_GRID = st.lists(st.integers(1, 60), min_size=1, max_size=3, unique=True).map(sorted)
_N = st.integers(1, 8)
_REPS = st.integers(1, 4)
_SEED = st.integers(0, 2**32)


def _emitted(records, *rest) -> str:
    """Every number an experiment emits except the wall-time column, as text."""
    return repr(([dataclasses.replace(r, seconds=0.0) for r in records], rest))


@st.composite
def rate_runs(draw):
    scn = builtin_scenario(draw(st.sampled_from(scenario_names())))
    ms = draw(_M_GRID)
    rule = draw(st.sampled_from([const_k(1), const_k(ms[0]), power_k(0.5)]))
    args = (scn, ms, draw(_N), rule, draw(st.sampled_from([1.0, 2.0, 3.5])), draw(_REPS),
            draw(_SEED))
    certify = draw(st.booleans())

    def run(threads):
        res = wasserstein_rate_experiment(*args, threads=threads, certify=certify)
        return _emitted(res.records, res.summary, res.fit, res.statistic)

    return run


@st.composite
def qi_runs(draw):
    scn = builtin_scenario(draw(st.sampled_from(["diag_uniform_gauss", "atom_demo"])))
    m = draw(st.integers(1, 60))
    s_grid = draw(st.lists(st.sampled_from([-0.9, -0.5, 0.0, 0.5, 0.9]), min_size=1,
                           max_size=3))
    args = (scn, m, draw(_N), draw(st.integers(1, m)), s_grid, draw(_REPS), draw(_SEED))

    def run(threads):
        res = qi_experiment(*args, threads=threads)
        return _emitted(res.records, res.summary)

    return run


@st.composite
def atom_runs(draw):
    scn = builtin_scenario("atom_demo", {"noiseless": draw(st.booleans())})
    args = (draw(_M_GRID), draw(_REPS), draw(_SEED))
    n = draw(_N)

    def run(threads):
        res = atom_consistency_experiment(*args, scenario=scn, n=n, threads=threads)
        return _emitted(res.records, res.summary_1nn, res.summary_sqrt)

    return run


@st.composite
def noisy_runs(draw):
    scn = builtin_scenario(draw(st.sampled_from(["diag_uniform_gauss", "atom_demo"])))
    ms = draw(st.lists(st.integers(2, 60), min_size=2, max_size=3, unique=True).map(sorted))
    args = (scn, ms, draw(_N), draw(_REPS), draw(_SEED))

    def run(threads):
        res, fit = noisy_rate_experiment(*args, threads=threads)
        return _emitted(res.records, res.summary, fit)

    return run


class TestThreadCountProperty:
    """Records (wall time excluded), summaries and fits match at one and two threads."""

    @pytest.mark.parametrize("runs", [rate_runs, qi_runs, atom_runs, noisy_runs],
                             ids=["rate", "qi", "atom", "noisy"])
    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(data=st.data())
    def test_same_bytes_at_one_and_two_threads(self, runs, data):
        run = data.draw(runs())
        assert run(2) == run(1)
