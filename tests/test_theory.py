import math

import numpy as np
import pytest

from wknn.core import InvalidInputError, Norm, NumericalError
from wknn.experiments import builtin_scenario
from wknn.rng import uniform_open
from wknn.theory import (
    cdq,
    gaussian_moment_check,
    inv_density_moment,
    rate_constant,
    unit_ball_volume,
    zador_exponent,
)


class TestUnitBallVolume:
    def test_l2_disk(self):
        assert unit_ball_volume(2, Norm.L2) == pytest.approx(math.pi, rel=1e-15)

    def test_linf_cube(self):
        assert unit_ball_volume(3, Norm.LINF) == 8.0

    def test_l1_cross_polytope(self):
        assert unit_ball_volume(2, Norm.L1) == pytest.approx(2.0, rel=1e-15)

    def test_l2_interval(self):
        assert unit_ball_volume(1, Norm.L2) == pytest.approx(2.0, rel=1e-15)

    def test_l2_ball_3d(self):
        assert unit_ball_volume(3, Norm.L2) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)

    def test_bad_dimension(self):
        with pytest.raises(InvalidInputError):
            unit_ball_volume(0)


class TestRateConstant:
    def test_1d_q1(self):
        rc = rate_constant(1.0, 1, Norm.L2, 1.0)
        assert rc.value == pytest.approx(0.5, rel=1e-15)
        assert rc.v_d == pytest.approx(2.0)

    def test_q_equals_d(self):
        for d in (1, 2, 3):
            rc = rate_constant(float(d), d, Norm.L2, 3.0)
            assert rc.value == pytest.approx(3.0 / unit_ball_volume(d), rel=1e-14)

    def test_q2_d2(self):
        rc = rate_constant(2.0, 2, Norm.L2, 7.0)
        assert rc.value == pytest.approx(7.0 / math.pi, rel=1e-14)

    def test_homogeneous_in_moment(self):
        a = rate_constant(2.0, 3, Norm.L2, 1.5).value
        b = rate_constant(2.0, 3, Norm.L2, 3.0).value
        assert b == pytest.approx(2.0 * a, rel=1e-14)

    def test_value_field_consistent(self):
        rc = rate_constant(2.5, 4, Norm.L1, 1.3)
        expected = math.gamma(1.0 + 2.5 / 4.0) / rc.v_d ** (2.5 / 4.0) * 1.3
        assert rc.value == pytest.approx(expected, rel=1e-14)


class TestCdq:
    def test_k1(self):
        for q, d in ((1.0, 1), (2.0, 2), (3.0, 2)):
            assert cdq(q, d, 1) == pytest.approx(2.0 ** (q / d + 1.0), rel=1e-15)

    def test_infinite_k_q2_d2(self):
        assert cdq(2.0, 2, math.inf) == pytest.approx(2.0, rel=1e-15)

    def test_k2_q2_d2(self):
        assert cdq(2.0, 2, 2) == pytest.approx(3.0, rel=1e-15)

    def test_always_above_one(self):
        for q in (1.0, 1.5, 2.0, 4.0):
            for d in (1, 2, 3, 8):
                for k in (1, 2, 5, 31, 1000, None):
                    assert cdq(q, d, k if k is not None else math.inf) > 1.0

    def test_converges_to_infinite_limit(self):
        for q, d in ((1.0, 1), (2.0, 2), (3.0, 5)):
            limit = cdq(q, d, math.inf)
            assert cdq(q, d, 10**6) == pytest.approx(limit, rel=1e-4)


class TestOverflow:
    """Values beyond float64 raise NumericalError, never OverflowError."""

    @pytest.mark.parametrize("d, norm", [(400, Norm.L2), (200, Norm.L1), (1100, Norm.LINF)])
    def test_unit_ball_volume_large_d(self, d, norm):
        with pytest.raises(NumericalError):
            unit_ball_volume(d, norm)

    @pytest.mark.parametrize("q, d", [(1e3, 1), (1e3, 100)])
    def test_rate_constant_large_q(self, q, d):
        # Gamma(1 + q/d) overflows at d=1; v_d^(q/d) underflows to 0 at d=100.
        with pytest.raises(NumericalError):
            rate_constant(q, d)

    def test_rate_constant_huge_moment(self):
        # Gamma(4) / (4/3)^3 * 1e308 is about 2.5e308.
        with pytest.raises(NumericalError):
            rate_constant(9.0, 3, Norm.L1, 1e308)

    @pytest.mark.parametrize("k", [math.inf, 3])
    def test_cdq_large_q(self, k):
        with pytest.raises(NumericalError):
            cdq(1e4, 1, k)

    def test_gaussian_moment_check_huge_scale(self):
        # sigma'^2 = 1e400 is beyond float64.
        with pytest.raises(NumericalError):
            gaussian_moment_check(1.0, 1e200, 2.0, 1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_inv_density_moment_overflow_without_warning(self):
        # exp(1000) overflows; the caller sees NumericalError and no RuntimeWarning.
        with pytest.raises(NumericalError):
            inv_density_moment(lambda g, n: np.zeros((n, 1)), lambda x: np.full(len(x), -1e3),
                               1.0, 1, 10)


class TestDimensionCheck:
    """Every function that takes a dimension rejects d < 1 the same way."""

    @pytest.mark.parametrize("d", [0, -1])
    @pytest.mark.parametrize(
        "call",
        [
            lambda d: unit_ball_volume(d),
            lambda d: rate_constant(2.0, d),
            lambda d: cdq(2.0, d, 3),
            lambda d: gaussian_moment_check(1.0, 2.0, 2.0, d),
            lambda d: zador_exponent(2.0, d),
            lambda d: inv_density_moment(lambda g, n: np.zeros((n, 1)), lambda x: np.zeros(len(x)),
                                         2.0, d, 10),
        ],
        ids=["unit_ball_volume", "rate_constant", "cdq", "gaussian_moment_check",
             "zador_exponent", "inv_density_moment"],
    )
    def test_d_below_one_rejected(self, call, d):
        with pytest.raises(InvalidInputError, match="d must be a positive integer"):
            call(d)


class TestGaussianMomentCheck:
    def test_equal_scales_fails_strictly(self):
        # sigma'^2 > sigma^2 q/d must be strict: 1 > 1 is false
        assert gaussian_moment_check(1.0, 1.0, 2.0, 2) is False

    def test_wide_synthetic_passes(self):
        assert gaussian_moment_check(1.0, 1.5, 2.0, 4) is True

    def test_huge_synthetic_passes(self):
        assert gaussian_moment_check(1.0, 1e6, 3.0, 1) is True

    def test_narrow_synthetic_fails(self):
        assert gaussian_moment_check(1.0, 0.5, 2.0, 1) is False


class TestZadorExponent:
    def test_q2_d2(self):
        assert zador_exponent(2.0, 2) == 0.5

    def test_q1_d1(self):
        assert zador_exponent(1.0, 1) == 0.5

    def test_high_dimension_limit(self):
        assert zador_exponent(2.0, 10**6) == pytest.approx(1.0, abs=1e-5)

    def test_in_unit_interval(self):
        for q in (1.0, 2.0, 7.0):
            for d in (1, 2, 9):
                assert 0.0 < zador_exponent(q, d) < 1.0


class TestInvDensityMoment:
    def test_uniform_density_gives_one(self):
        def sampler(gen, size):
            return uniform_open(gen, (size, 1))

        est, se = inv_density_moment(sampler, lambda x: np.zeros(x.shape[0]), 1.0, 1, 500, 3)
        assert est == 1.0
        assert se == 0.0

    def test_point_mass(self):
        x0 = np.array([[0.3, 0.7]])
        scn = builtin_scenario("diag_uniform_gauss")
        logp = scn.log_density_xp

        def sampler(gen, size):
            return np.repeat(x0, size, axis=0)

        est, se = inv_density_moment(sampler, logp, 2.0, 2, 100, 4)
        expected = float(np.exp(-logp(x0)[0]))  # q/d = 1
        assert est == pytest.approx(expected, rel=1e-12)
        assert se == pytest.approx(0.0, abs=1e-12)

    def test_matches_quadrature_on_diag_scenario(self):
        # deterministic trapezoid of u -> 1/p((u, u)) with >= 1e4 nodes
        scn = builtin_scenario("diag_uniform_gauss", {"s_corr": 0.5})
        est, se = inv_density_moment(scn.x_sampler, scn.log_density_xp, 2.0, 2, 40000, 5)
        u = np.linspace(0.0, 1.0, 20001)
        diag = np.column_stack([u, u])
        oracle = float(np.trapezoid(np.exp(-scn.log_density_xp(diag)), u))
        assert abs(est - oracle) <= 3.0 * se

    def test_nonpositive_density_fails(self):
        def sampler(gen, size):
            return np.full((size, 1), 5.0)  # outside [0, 1]

        scn = builtin_scenario("identity_1d_uniform")
        with pytest.raises(NumericalError):
            inv_density_moment(sampler, scn.log_density_xp, 1.0, 1, 10, 6)
