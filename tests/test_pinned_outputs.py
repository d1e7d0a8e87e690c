"""Pinned output bytes of the Monte Carlo experiments and estimators.

Each case runs at a small fixed size and hashes every emitted number:
the records without their wall-time column, the summaries and the fit.
The digests were computed before the four experiment loops were merged
into one runner, so a refactor that changes a single bit fails here.
The experiments run at one and at three threads against the same digest.
"""
import hashlib

import pytest

from wknn.estimators import generalization_error_mc
from wknn.experiments import (
    atom_consistency_experiment,
    builtin_scenario,
    const_k,
    noisy_rate_experiment,
    power_k,
    qi_experiment,
    wasserstein_rate_experiment,
)
from wknn.theory import inv_density_moment


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
