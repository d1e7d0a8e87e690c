"""Every public real, array and norm argument follows one rule each.

- A real argument must be a finite Python or numpy real in range: the
  numeric string of a valid value v (such as "2"), None, NaN and infinity
  raise InvalidInputError, and np.float64(v) and int(v) give exactly what
  float(v) gives.
- An array argument numpy cannot convert (strings, ragged lists) or that
  holds a NaN raises InvalidInputError, never a raw ValueError.
- A norm is a Norm or its name in any case, the same norm on every path;
  an unknown name or None raises InvalidInputError.
"""
import dataclasses
import math

import numpy as np
import pytest

from wknn.core import (
    InvalidInputError,
    LabeledSample,
    Norm,
    Sample,
    distance,
    pairwise_distances,
    uniform_empirical,
    validate_measure,
)
from wknn.estimators import Observable, knn_regress, qi_knn
from wknn.experiments import (
    atom_consistency_experiment,
    builtin_scenario,
    const_k,
    fit_loglog,
    generalization_error_mc,
    noisy_rate_experiment,
    power_k,
    qi_experiment,
    wasserstein_rate_experiment,
)
from wknn.knn import KnnIndex, knn_query, neighbor_table
from wknn.ot import exact_wq, knn_transport_cost, wq_1nn, wq_knn_bound
from wknn.rng import stream, uniform_open
from wknn.theory import (
    cdq,
    gaussian_moment_check,
    inv_density_moment,
    rate_constant,
    unit_ball_volume,
    zador_exponent,
)

EV = Sample([[0.1], [0.45], [0.9]])
TR = Sample([[0.0], [0.5], [1.0], [0.25]])
TABLE = neighbor_table(EV, TR, 2)
IDENTITY = builtin_scenario("identity_1d_uniform")
DIAG = builtin_scenario("diag_uniform_gauss")
INDEX = KnnIndex(TR)

# 2-D points off the axes, so the three norms give three different answers;
# 40 training points put neighbor_table on its kd-tree path.
_GEN = np.random.default_rng(7)
EV2 = Sample(_GEN.random((3, 2)))
TR2 = LabeledSample(Sample(_GEN.random((40, 2))), _GEN.random((40, 1)))


def _timeless(result):
    """An experiment result with the measured wall-time column zeroed."""
    records = tuple(dataclasses.replace(r, seconds=0.0) for r in result.records)
    return dataclasses.replace(result, records=records)


def _moment(q):
    return inv_density_moment(lambda g, n: uniform_open(g, (n, 1)), lambda x: np.zeros(len(x)),
                              q, 1, 10)


def _draws(scn):
    """What a scenario samples and evaluates, as plain lists."""
    gen = stream(0, 0)
    return (scn.x_sampler(gen, 3).tolist(), scn.xp_sampler(gen, 3).tolist(),
            scn.log_density_xp(np.zeros((2, scn.d))).tolist(), scn.qi)


def _scenario(name, key):
    return lambda v: _draws(builtin_scenario(name, {key: v}))


def _exact(q, norm=Norm.L2, ev=EV, tr=TR):
    cost, plan = exact_wq(uniform_empirical(ev), uniform_empirical(tr), q, norm)
    return cost, plan.entries


# Each case: (call, a valid whole value v).
REAL_CASES = {
    "knn_transport_cost.q": (lambda v: knn_transport_cost(TABLE, v), 2),
    "wq_1nn.q": (lambda v: wq_1nn(EV, TR, v), 2),
    "wq_knn_bound.q": (lambda v: wq_knn_bound(EV, TR, 2, v), 2),
    "exact_wq.q": (_exact, 2),
    "rate_constant.q": (lambda v: rate_constant(v, 2), 2),
    "rate_constant.inv_density_moment": (lambda v: rate_constant(2.0, 2, inv_density_moment=v), 3),
    "cdq.q": (lambda v: cdq(v, 1, 3), 2),
    "gaussian_moment_check.q": (lambda v: gaussian_moment_check(1.0, 2.0, v, 1), 2),
    "gaussian_moment_check.sigma": (lambda v: gaussian_moment_check(v, 2.0, 2.0, 1), 1),
    "gaussian_moment_check.sigma_prime": (lambda v: gaussian_moment_check(1.0, v, 2.0, 1), 2),
    "zador_exponent.q": (lambda v: zador_exponent(v, 2), 2),
    "inv_density_moment.q": (_moment, 2),
    "wasserstein_rate_experiment.q": (lambda v: _timeless(
        wasserstein_rate_experiment(IDENTITY, [4], 3, const_k(1), v, 2, 0)), 2),
    "qi_experiment.s_corr_grid": (lambda v: _timeless(
        qi_experiment(DIAG, 4, 3, 1, [v], 2, 0)), 0),
    "power_k.alpha": (lambda v: (power_k(v).name, power_k(v)(5)), 1),
    "fit_loglog.abscissa": (lambda v: fit_loglog([(v, 2.0), (4.0, 3.0)]), 2),
    "fit_loglog.ordinate": (lambda v: fit_loglog([(2.0, v), (4.0, 3.0)]), 2),
    "diag_uniform_gauss.mu": (_scenario("diag_uniform_gauss", "mu"), 1),
    "diag_uniform_gauss.sigma": (_scenario("diag_uniform_gauss", "sigma"), 1),
    "diag_uniform_gauss.s_corr": (_scenario("diag_uniform_gauss", "s_corr"), 0),
    "atom_demo.mu": (_scenario("atom_demo", "mu"), 1),
    "atom_demo.sigma": (_scenario("atom_demo", "sigma"), 1),
    "atom_demo.s_corr": (_scenario("atom_demo", "s_corr"), 0),
    "gauss_gauss.sigma": (_scenario("gauss_gauss", "sigma"), 1),
    "gauss_gauss.sigma_prime": (_scenario("gauss_gauss", "sigma_prime"), 2),
}


@pytest.mark.parametrize("call, v", REAL_CASES.values(), ids=REAL_CASES.keys())
def test_real_is_a_finite_number(call, v):
    for bad in (str(v), None, math.nan, math.inf):
        with pytest.raises(InvalidInputError):
            call(bad)
    expected = repr(call(float(v)))
    assert repr(call(np.float64(v))) == expected
    assert repr(call(int(v))) == expected


def test_sup_bound_is_none_or_a_float():
    # The rejected bounds are in test_estimators.py.
    def observed(bound):
        phi = Observable(lambda out: out[:, 0], sup_bound=bound)
        return phi.sup_bound, phi(np.ones((2, 1))).tolist()

    assert repr(observed(np.float64(2.0))) == repr(observed(2)) == repr(observed(2.0))
    assert observed(None) == (None, [1.0, 1.0])


ARRAY_CASES = {
    "Sample": lambda v: Sample(v),
    "as_point": lambda v: distance(v, [0.0]),
    "LabeledSample.outputs": lambda v: LabeledSample(Sample([[0.0]]), v),
    "validate_measure.points": lambda v: validate_measure(v, [1.0]),
    "validate_measure.masses": lambda v: validate_measure([[0.0]], v),
    "KnnIndex.query_batch": lambda v: INDEX.query_batch(v, 1),
    "atom_demo.x0": lambda v: builtin_scenario("atom_demo", {"x0": v}),
}


@pytest.mark.parametrize("call", ARRAY_CASES.values(), ids=ARRAY_CASES.keys())
def test_array_is_finite_and_convertible(call):
    for bad in ([["a"]], [[0.0, 1.0], [2.0]], [[math.nan]]):
        with pytest.raises(InvalidInputError):
            call(bad)


NORM_CASES = {
    "distance": lambda v: distance([0.0, 0.0], [3.0, 4.0], v),
    "pairwise_distances": lambda v: pairwise_distances(EV2, TR2.inputs, v).tolist(),
    "knn_query": lambda v: [a.tolist() for a in knn_query([0.5, 0.5], TR2.inputs, 3, v)],
    "neighbor_table": lambda v: neighbor_table(EV2, TR2.inputs, 3, v).indices.tolist(),
    "KnnIndex": lambda v: [a.tolist() for a in KnnIndex(TR2.inputs, v).query_batch(EV2.points, 3)],
    "knn_regress": lambda v: knn_regress([0.5, 0.5], TR2, 3, v).tolist(),
    "qi_knn": lambda v: qi_knn(EV2, TR2, 3, Observable(lambda out: out[:, 0]), v),
    "wq_1nn": lambda v: wq_1nn(EV2, TR2.inputs, 2.0, v),
    "wq_knn_bound": lambda v: wq_knn_bound(EV2, TR2.inputs, 3, 2.0, v),
    "exact_wq": lambda v: _exact(2.0, v, EV2, Sample(TR2.inputs.points[:5])),
    "unit_ball_volume": lambda v: unit_ball_volume(2, v),
    "rate_constant": lambda v: rate_constant(2.0, 2, v),
    "wasserstein_rate_experiment": lambda v: _timeless(
        wasserstein_rate_experiment(DIAG, [40], 3, const_k(2), 2.0, 2, 0, norm=v)),
    "qi_experiment": lambda v: _timeless(qi_experiment(DIAG, 40, 3, 2, [0.0], 2, 0, norm=v)),
    "atom_consistency_experiment": lambda v: _timeless(
        atom_consistency_experiment([40], 2, 0, n=3, norm=v)),
    "noisy_rate_experiment": lambda v: _timeless(
        noisy_rate_experiment(DIAG, [40, 80], 3, 2, 0, norm=v)[0]),
    "generalization_error_mc": lambda v: generalization_error_mc(
        DIAG.model, DIAG.x_sampler, DIAG.xp_sampler, DIAG.psi, 40, 2, 3, norm=v, seed=5),
}


@pytest.mark.parametrize("call", NORM_CASES.values(), ids=NORM_CASES.keys())
def test_norm_is_a_norm_or_its_name(call):
    for bad in ("l3", None):
        with pytest.raises(InvalidInputError):
            call(bad)
    expected = repr(call(Norm.L1))
    assert repr(call("l1")) == expected
    assert repr(call("L1")) == expected
