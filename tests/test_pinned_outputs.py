"""Pinned output bytes of the Monte Carlo experiments, estimators and exact LP.

Each case runs at a small fixed size and hashes every emitted number:
the records without their wall-time column, the summaries and the fit.
The digests were computed before the four experiment loops were merged
into one runner, so a refactor that changes a single bit fails here.
The experiments run at one and at three threads against the same digest.
The exact-LP digest covers the simplex's flow and duals and exact_wq's
cost and plan. A degenerate optimum may end at another vertex or other
duals when the pivot path changes, so each LP instance's optimal cost is
also pinned on its own: those costs were recorded while the simplex still
started from the northwest corner, and hold for any correct start. The
digest was last re-pinned when the simplex began returning its first
basis with the row-minimum duals (u = row minima, v = 0) whenever they
certify it; the instances that exit that way now carry those duals
instead of tree potentials.
"""
import hashlib

import numpy as np
import pytest

from wknn.core import Sample, uniform_empirical, validate_measure
from wknn.experiments import (
    atom_consistency_experiment,
    builtin_scenario,
    const_k,
    generalization_error_mc,
    noisy_rate_experiment,
    power_k,
    qi_experiment,
    wasserstein_rate_experiment,
)
from wknn.knn import neighbor_table
from wknn.ot import _certify, _transport_simplex, exact_wq
from wknn.rng import stream, uniform_open
from wknn.theory import inv_density_moment
from wknn.weights import knn_weights, weighted_measure


def _digest(records=(), summaries=(), extra=()) -> str:
    lines = [
        repr((r.scenario, r.m, r.n, r.k, r.q, r.s_corr, r.rep, r.seed, r.statistic))
        for r in records
    ]
    for rows in summaries:
        lines += [repr((s.key, s.mean, s.stderr, s.count)) for s in rows]
    lines += [repr(value) for value in extra]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _fit(fit):
    return (fit.slope, fit.intercept, fit.residual_rms)


def _rate(rule, certify, threads):
    scn = builtin_scenario("diag_uniform_gauss", {"s_corr": 0.5})
    res = wasserstein_rate_experiment(
        scn, [20, 40, 80], 15, rule, 2.0, 6, 3, threads=threads, certify=certify
    )
    return _digest(res.records, [res.summary], [_fit(res.fit), res.statistic])


def _qi(threads):
    scn = builtin_scenario("diag_uniform_gauss")
    res = qi_experiment(scn, 40, 30, 3, [-0.5, 0.0, 0.5], 6, 4, threads=threads)
    return _digest(res.records, [res.summary])


def _atom(threads):
    res = atom_consistency_experiment([20, 50], 6, 5, n=12, threads=threads)
    return _digest(res.records, [res.summary_1nn, res.summary_sqrt])


def _noisy(threads):
    scn = builtin_scenario("diag_uniform_gauss")
    res, fit = noisy_rate_experiment(scn, [30, 60], 25, 6, 6, threads=threads)
    return _digest(res.records, [res.summary], [_fit(fit)])


EXPERIMENTS = {
    "rate_const1": (
        lambda t: _rate(const_k(1), False, t),
        "083d2a96db2f865eb8679194670e4eb2e212ffa1dbf33d161decefde7a22a5b4",
    ),
    "rate_power_certified": (
        lambda t: _rate(power_k(0.5), True, t),
        "14ea9bf9c3293d89ce430edc347688a3f1bae55091d604bf280a0c372af7c0a1",
    ),
    "qi": (_qi, "8e43d47d99820dcb371c3c0b7ff997426baa3be604551c5edeefa9b61aa3529a"),
    "atom": (_atom, "9b9d85676a467fe98ac6d8816e3435320a65a724f7e89491e1f72e9cd49b6460"),
    "noisy": (_noisy, "4d59aa230f5f27b723a69914a3cbd28b38ad6685dfbaaec32243a64b4b1bfda8"),
}


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_experiment_bytes(name, threads):
    run, expected = EXPERIMENTS[name]
    assert run(threads) == expected


def test_generalization_error_mc_bytes():
    scn = builtin_scenario("diag_uniform_gauss")
    mse, stderr = generalization_error_mc(
        scn.model, scn.x_sampler, scn.xp_sampler, scn.psi, 50, 2, 20, seed=7
    )
    assert _digest(extra=[mse, stderr]) == (
        "1a8bc43c75e19f304f3e3a9331fe59f781edd70753bf757cefcf6ac9855d883f"
    )


def test_inv_density_moment_bytes():
    scn = builtin_scenario("gauss_gauss")
    est, stderr = inv_density_moment(scn.x_sampler, scn.log_density_xp, 2.0, 1, 500, seed=8)
    assert _digest(extra=[est, stderr]) == (
        "e55f7f6a10d5eea1bdb76be9adf241e0f524c1f1c55e074364d6c6eab1b81c72"
    )


def _lp_matrix_instances():
    """(a, b, C) triples: random costs, tied integer costs, n=1, m=1 and 100x100."""
    gen = stream(52, 0)
    for n, m in [(1, 1), (1, 6), (7, 1), (4, 9), (12, 12), (23, 17), (100, 100)]:
        a = -np.log(uniform_open(gen, n))
        b = -np.log(uniform_open(gen, m))
        a /= a.sum()
        b *= a.sum() / b.sum()
        yield a, b, uniform_open(gen, (n, m)) ** 2
        # Integer costs in {0..3} with uniform masses tie on most pivots.
        a = np.full(n, 1.0 / n)
        yield a, np.full(m, 1.0 / m), gen.integers(0, 4, (n, m)).astype(np.float64)


def _lp_measure_instances():
    """exact_wq inputs, most with zero-mass support points (k-NN weights)."""
    gen = stream(53, 0)
    yield (validate_measure([[0.0], [5.0], [2.0]], [0.5, 0.0, 0.5]),
           validate_measure([[1.0], [9.0]], [1.0, 0.0]), 1.0)
    for n, m, k, d in [(9, 14, 1, 2), (15, 11, 2, 1), (30, 40, 4, 2), (20, 60, 1, 3)]:
        ev = Sample(uniform_open(gen, (n, d)))
        tr = Sample(gen.integers(0, 5, (m, d)).astype(np.float64))
        wv = knn_weights(neighbor_table(ev, tr, k), m)
        yield uniform_empirical(ev), weighted_measure(tr, wv), float(gen.integers(1, 4))


# Optimal cost of each instance, matrix instances first, as the simplex
# found them from its northwest-corner start.
LP_COSTS = [
    0.018891151480974432, 3.0, 0.45501252756767413, 0.9999999999999999,
    0.44697933706422793, 1.1428571428571428, 0.18649776529895623,
    0.5555555555555556, 0.01597898931662063, 0.0, 0.026998432367040456,
    0.058823529411764705, 0.0014109552003463996, 0.0,
    1.0, 0.0887794211991647, 0.2638919948843118, 0.20190794561686987,
    0.5047160573935784,
]


def test_exact_lp_costs():
    costs = [
        _certify(a, b, cost, *_transport_simplex(a, b, cost))
        for a, b, cost in _lp_matrix_instances()
    ]
    costs += [exact_wq(src, tgt, q)[0] for src, tgt, q in _lp_measure_instances()]
    assert len(costs) == len(LP_COSTS)
    for got, pinned in zip(costs, LP_COSTS):
        assert abs(got - pinned) <= 1e-12 * max(1.0, abs(pinned))


def test_exact_lp_bytes():
    h = hashlib.sha256()
    for a, b, cost in _lp_matrix_instances():
        for array in _transport_simplex(a, b, cost):
            h.update(array.tobytes())
    for src, tgt, q in _lp_measure_instances():
        cost, plan = exact_wq(src, tgt, q)
        h.update(repr((cost, plan.entries)).encode())
    assert h.hexdigest() == (
        "bec3798147e2f958732aab6d75491974f90ea039a6954cda6499aafe9ad109d3"
    )
