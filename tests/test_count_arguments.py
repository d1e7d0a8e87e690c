"""Every public count argument follows one rule: a whole number in range.

Each case calls a public function with the count under test. 1.5, NaN,
infinity and the string "3" must raise InvalidInputError (no truncation,
no raw TypeError from numpy), and the integral float 2.0 must give exactly
what 2 gives, down to the type of every count the result records.
"""
import dataclasses
import math

import numpy as np
import pytest

from wknn.core import InvalidInputError, Sample
from wknn.experiments import (
    KRule,
    atom_consistency_experiment,
    builtin_scenario,
    const_k,
    generalization_error_mc,
    qi_experiment,
    wasserstein_rate_experiment,
)
from wknn.knn import KnnIndex, NeighborTable, knn_query, neighbor_table
from wknn.rng import indexed_map, stream, uniform_open
from wknn.theory import (
    cdq,
    gaussian_moment_check,
    inv_density_moment,
    rate_constant,
    unit_ball_volume,
    zador_exponent,
)
from wknn.weights import WeightVector, knn_weights

EV = Sample([[0.1], [0.45], [0.9]])
TR = Sample([[0.0], [0.5], [1.0], [0.25]])
IDENTITY = builtin_scenario("identity_1d_uniform")
DIAG = builtin_scenario("diag_uniform_gauss")
INDEX = KnnIndex(TR)
TABLE = NeighborTable(1, [[0], [1]], [[0.0], [0.0]])


def _timeless(result):
    """An experiment result with the measured wall-time column zeroed."""
    records = tuple(dataclasses.replace(r, seconds=0.0) for r in result.records)
    return dataclasses.replace(result, records=records)


def _moment(d=1, n_draws=10):
    return inv_density_moment(lambda g, n: uniform_open(g, (n, 1)), lambda x: np.zeros(len(x)),
                              2.0, d, n_draws)


def _gen_error(m=4, k=1, n_test=3):
    return generalization_error_mc(IDENTITY.model, IDENTITY.x_sampler, IDENTITY.xp_sampler,
                                   IDENTITY.psi, m, k, n_test, seed=5)


def _table(t):
    return t.k, t.indices.tolist(), t.distances.tolist()


def _wv(wv):
    return wv.k, wv.n, wv.m, wv.counts.tolist(), wv.w.tolist()


CASES = {
    "neighbor_table.k": lambda v: _table(neighbor_table(EV, TR, v)),
    "knn_query.k": lambda v: [a.tolist() for a in knn_query([0.3], TR, v)],
    "KnnIndex.query_batch.k": lambda v: [a.tolist() for a in INDEX.query_batch(EV.points, v)],
    "NeighborTable.k": lambda v: _table(NeighborTable(v, [[0, 1]], [[0.0, 1.0]])),
    "NeighborTable.selection_counts.m": lambda v: TABLE.selection_counts(v).tolist(),
    "knn_weights.m": lambda v: _wv(knn_weights(TABLE, v)),
    "WeightVector.k": lambda v: _wv(WeightVector(k=v, n=1, m=2, counts=[1, 1], w=[1.0, 1.0])),
    "WeightVector.n": lambda v: _wv(WeightVector(k=1, n=v, m=2, counts=[1, 1], w=[1.0, 1.0])),
    "WeightVector.m": lambda v: _wv(WeightVector(k=1, n=2, m=v, counts=[1, 1], w=[1.0, 1.0])),
    "stream.seed": lambda v: stream(v, 0).integers(0, 1 << 62, 3).tolist(),
    "stream.stream_id": lambda v: stream(0, v).integers(0, 1 << 62, 3).tolist(),
    "indexed_map.count": lambda v: indexed_map(lambda i: i, v),
    "unit_ball_volume.d": lambda v: unit_ball_volume(v),
    "rate_constant.d": lambda v: rate_constant(2.0, v),
    "cdq.d": lambda v: cdq(2.0, v, 3),
    "gaussian_moment_check.d": lambda v: gaussian_moment_check(1.0, 2.0, 2.0, v),
    "zador_exponent.d": lambda v: zador_exponent(2.0, v),
    "inv_density_moment.d": lambda v: _moment(d=v),
    "inv_density_moment.n_draws": lambda v: _moment(n_draws=v),
    "const_k.k": lambda v: (const_k(v).name, const_k(v)(5)),
    "KRule.call": lambda v: KRule("r", lambda m: v)(5),
    "wasserstein_rate_experiment.m_grid": lambda v: _timeless(
        wasserstein_rate_experiment(IDENTITY, [v], 3, const_k(1), 1.0, 2, 0)),
    "wasserstein_rate_experiment.n": lambda v: _timeless(
        wasserstein_rate_experiment(IDENTITY, [4], v, const_k(1), 1.0, 2, 0)),
    "wasserstein_rate_experiment.replications": lambda v: _timeless(
        wasserstein_rate_experiment(IDENTITY, [4], 3, const_k(1), 1.0, v, 0)),
    "qi_experiment.m": lambda v: _timeless(qi_experiment(DIAG, v, 3, 1, [0.0], 2, 0)),
    "qi_experiment.n": lambda v: _timeless(qi_experiment(DIAG, 4, v, 1, [0.0], 2, 0)),
    "qi_experiment.k": lambda v: _timeless(qi_experiment(DIAG, 4, 3, v, [0.0], 2, 0)),
    "atom_consistency_experiment.n": lambda v: _timeless(
        atom_consistency_experiment([4], 2, 0, n=v)),
    "generalization_error_mc.m": lambda v: _gen_error(m=v),
    "generalization_error_mc.k": lambda v: _gen_error(k=v),
    "generalization_error_mc.n_test": lambda v: _gen_error(n_test=v),
    "gauss_gauss.d": lambda v: builtin_scenario("gauss_gauss", {"d": v}).d,
}


@pytest.mark.parametrize("call", CASES.values(), ids=CASES.keys())
def test_count_is_a_whole_number_in_range(call):
    for bad in (1.5, math.nan, math.inf, "3"):
        with pytest.raises(InvalidInputError):
            call(bad)
    assert repr(call(2.0)) == repr(call(2))


def test_cdq_k_limit_is_whole_or_infinite():
    # Infinity (or None) is cdq's documented k -> infinity limit, not a bad count.
    for bad in (1.5, math.nan, 0, "3"):
        with pytest.raises(InvalidInputError):
            cdq(2.0, 1, bad)
    assert repr(cdq(2.0, 1, 2.0)) == repr(cdq(2.0, 1, 2))
    assert cdq(2.0, 1, math.inf) == cdq(2.0, 1, None)
