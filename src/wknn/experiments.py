"""Named scenarios and the Monte Carlo harness for convergence experiments.

Reproducibility contract: replication ``rep`` of any experiment draws all
of its randomness from ``stream(base_seed, rep)`` in a fixed order
(evaluation sample, then training sample, then parameter draws), so
results are identical for any thread count and any grid of scenario
parameters shares common random numbers across grid points.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    DEFAULT_NORM,
    InvalidInputError,
    LabeledSample,
    Norm,
    NumericalError,
    Sample,
    _write_table,
    uniform_empirical,
)
from .estimators import Model, Observable, knn_regress, qi_hat
from .knn import _check_k, neighbor_table
from .ot import exact_wq, knn_transport_cost
from .rng import _mean_stderr, indexed_map, standard_normal, stream, uniform_open
from .weights import knn_weights, weighted_measure

__all__ = [
    "Scenario",
    "RunRecord",
    "SummaryRow",
    "RateFit",
    "KRule",
    "const_k",
    "power_k",
    "builtin_scenario",
    "scenario_names",
    "fit_loglog",
    "wasserstein_rate_experiment",
    "qi_experiment",
    "atom_consistency_experiment",
    "noisy_rate_experiment",
    "generalization_error_mc",
    "RateExperimentResult",
    "QiExperimentResult",
    "AtomExperimentResult",
    "write_runs_csv",
    "write_summary_csv",
    "write_ratefit_csv",
]


# --- scenarios ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Scenario:
    """Fully specified experiment: distributions, model, observable, truths.

    ``psi``, ``qi`` and ``vartheta`` are the analytic regression function,
    quantity of interest and conditional observation variance when known
    (None otherwise); ``log_density_xp`` is the log density of the
    training distribution, used by the constants calculators.
    """

    name: str
    d: int
    e: int
    params: dict
    x_sampler: Callable[[np.random.Generator, int], np.ndarray]
    xp_sampler: Callable[[np.random.Generator, int], np.ndarray]
    model: Model
    phi: Observable
    psi: Optional[Callable[[np.ndarray], np.ndarray]]
    qi: Optional[float]
    vartheta: Optional[Callable[[np.ndarray], np.ndarray]]
    log_density_xp: Optional[Callable[[np.ndarray], np.ndarray]]

    def with_params(self, **overrides) -> "Scenario":
        merged = dict(self.params)
        merged.update(overrides)
        return builtin_scenario(self.name, merged)


def _sine_surface(x: np.ndarray) -> np.ndarray:
    return np.sin(2.0 * math.pi * x[:, 0]) * np.sin(2.0 * math.pi * x[:, 1])


def _gaussian_2d_sampler(mu: float, sigma: float, s_corr: float):
    # Cholesky factor of sigma^2 [[1, s], [s, 1]].
    root = math.sqrt(1.0 - s_corr * s_corr)

    def sampler(gen: np.random.Generator, size: int) -> np.ndarray:
        z = standard_normal(gen, (size, 2))
        x1 = mu + sigma * z[:, 0]
        x2 = mu + sigma * (s_corr * z[:, 0] + root * z[:, 1])
        return np.column_stack([x1, x2])

    return sampler


def _gaussian_2d_log_density(mu: float, sigma: float, s_corr: float):
    det = sigma**4 * (1.0 - s_corr * s_corr)
    lognorm = -math.log(2.0 * math.pi) - 0.5 * math.log(det)

    def log_density(x: np.ndarray) -> np.ndarray:
        a = x[:, 0] - mu
        b = x[:, 1] - mu
        quad = (a * a - 2.0 * s_corr * a * b + b * b) / (
            sigma * sigma * (1.0 - s_corr * s_corr)
        )
        return lognorm - 0.5 * quad

    return log_density


def _uniform_theta(gen: np.random.Generator, size: int) -> np.ndarray:
    return 2.0 * uniform_open(gen, size) - 1.0


def _zero_theta(gen: np.random.Generator, size: int) -> np.ndarray:
    return np.zeros(size)


def _first_coordinate(x: np.ndarray) -> np.ndarray:
    return x[:, 0]


def _identity_phi(sup_bound: Optional[float]) -> Observable:
    return Observable(fn=_first_coordinate, sup_bound=sup_bound)


def _real(p: dict, key: str) -> float:
    """Scenario parameter ``key`` as a finite float; overrides are outside input."""
    try:
        value = float(p[key])
    except (TypeError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise InvalidInputError(f"{key} must be a finite real number, got {p[key]!r}")
    return value


def _sine_gauss(name: str, p: dict, x_sampler, qi: float) -> Scenario:
    """Sine-surface model over the correlated 2-D Gaussian training law of ``p``."""
    mu, sigma, s = _real(p, "mu"), _real(p, "sigma"), _real(p, "s_corr")
    if not sigma > 0.0:
        raise InvalidInputError("sigma must be positive")
    if not -1.0 < s < 1.0:
        raise InvalidInputError("s_corr must lie in (-1, 1)")
    noiseless = bool(p["noiseless"])
    # A noiseless draw is theta = 0, which leaves the surface bit for bit.
    model = Model(fn=lambda x, theta: _sine_surface(x) * (1.0 + theta),
                  theta_sampler=_zero_theta if noiseless else _uniform_theta)
    theta_var = 0.0 if noiseless else 1.0 / 3.0
    try:
        log_density = _gaussian_2d_log_density(mu, sigma, s)
    except (OverflowError, ValueError) as exc:  # sigma**4 (1 - s^2) left float64
        raise InvalidInputError(f"sigma={sigma!r}, s_corr={s!r} give no finite density") from exc
    return Scenario(
        name=name, d=2, e=1, params=p, x_sampler=x_sampler,
        xp_sampler=_gaussian_2d_sampler(mu, sigma, s), model=model,
        phi=_identity_phi(1.0 if noiseless else 2.0), psi=_sine_surface, qi=qi,
        vartheta=lambda x: _sine_surface(x) ** 2 * theta_var, log_density_xp=log_density,
    )


def _build_diag_uniform_gauss(p: dict) -> Scenario:
    def x_sampler(gen, size):
        u = uniform_open(gen, size)
        return np.column_stack([u, u])

    return _sine_gauss("diag_uniform_gauss", p, x_sampler, 0.5)


def _build_atom_demo(p: dict) -> Scenario:
    try:
        x0 = np.asarray(p["x0"], dtype=np.float64)
    except (TypeError, ValueError):
        x0 = None
    if x0 is None or x0.shape != (2,) or not np.isfinite(x0).all():
        raise InvalidInputError(f"x0 must be a finite point in R^2, got {p['x0']!r}")

    def x_sampler(gen, size):
        return np.tile(x0, (size, 1))

    return _sine_gauss("atom_demo", p, x_sampler, float(_sine_surface(x0.reshape(1, 2))[0]))


def _first_coordinate_scenario(name, p, d, x_sampler, xp_sampler, sup_bound, qi, log_density):
    """Noiseless model f(x) = x_1, observed through the identity."""
    return Scenario(
        name=name, d=d, e=1, params=p, x_sampler=x_sampler, xp_sampler=xp_sampler,
        model=Model(fn=lambda x, theta: _first_coordinate(x), theta_sampler=_zero_theta),
        phi=_identity_phi(sup_bound), psi=_first_coordinate, qi=qi,
        vartheta=lambda x: np.zeros(x.shape[0]), log_density_xp=log_density,
    )


def _build_identity_1d_uniform(p: dict) -> Scenario:
    def unit_sampler(gen, size):
        return uniform_open(gen, size).reshape(-1, 1)

    def log_density(x):
        inside = np.all((x >= 0.0) & (x <= 1.0), axis=1)
        return np.where(inside, 0.0, -np.inf)

    return _first_coordinate_scenario(
        "identity_1d_uniform", p, 1, unit_sampler, unit_sampler, 1.0, 0.5, log_density
    )


def _build_gauss_gauss(p: dict) -> Scenario:
    d, sigma, sigma_prime = _real(p, "d"), _real(p, "sigma"), _real(p, "sigma_prime")
    if not (d >= 1.0 and d.is_integer() and sigma > 0.0 and sigma_prime > 0.0):
        raise InvalidInputError("gauss_gauss needs an integer d >= 1 and positive scales")
    d = int(d)

    def x_sampler(gen, size):
        return sigma * standard_normal(gen, (size, d))

    def xp_sampler(gen, size):
        return sigma_prime * standard_normal(gen, (size, d))

    try:
        lognorm = -0.5 * d * math.log(2.0 * math.pi * sigma_prime**2)
    except (OverflowError, ValueError) as exc:  # sigma_prime**2 left float64
        raise InvalidInputError(f"sigma_prime={sigma_prime!r} gives no finite density") from exc

    def log_density(x):
        return lognorm - 0.5 * (x * x).sum(axis=1) / sigma_prime**2

    return _first_coordinate_scenario(
        "gauss_gauss", p, d, x_sampler, xp_sampler, None, 0.0, log_density
    )


_BUILDERS: dict[str, tuple[Callable[[dict], Scenario], dict]] = {
    "diag_uniform_gauss": (
        _build_diag_uniform_gauss,
        {"mu": 0.5, "sigma": 0.3, "s_corr": 0.0, "noiseless": False},
    ),
    "atom_demo": (
        _build_atom_demo,
        # The sine surface vanishes at (0.5, 0.5); the atom sits at the
        # surface maximum (0.25, 0.25) so its noise variance is 1/3 > 0.
        {"x0": (0.25, 0.25), "mu": 0.5, "sigma": 0.3, "s_corr": 0.0, "noiseless": False},
    ),
    "identity_1d_uniform": (_build_identity_1d_uniform, {}),
    "gauss_gauss": (_build_gauss_gauss, {"d": 1, "sigma": 1.0, "sigma_prime": 1.5}),
}


def scenario_names() -> tuple:
    return tuple(sorted(_BUILDERS))


def builtin_scenario(name: str, overrides: Optional[dict] = None) -> Scenario:
    """Build a named scenario, optionally overriding its parameters."""
    if name not in _BUILDERS:
        raise InvalidInputError(
            f"unknown scenario {name!r}; expected one of {', '.join(scenario_names())}"
        )
    builder, defaults = _BUILDERS[name]
    params = dict(defaults)
    if overrides:
        unknown = set(overrides) - set(defaults)
        if unknown:
            raise InvalidInputError(
                f"invalid override(s) for {name}: {', '.join(sorted(unknown))}"
            )
        params.update(overrides)
    return builder(params)


# --- records, summaries, fits -------------------------------------------------


@dataclass(frozen=True)
class RunRecord:
    """One replication's outcome, reproducible from (scenario, seed, rep)."""

    scenario: str
    m: int
    n: int
    k: int
    q: float
    s_corr: Optional[float]
    rep: int
    seed: int
    statistic: float
    seconds: float


@dataclass(frozen=True)
class SummaryRow:
    key: float
    mean: float
    stderr: float
    count: int


@dataclass(frozen=True)
class RateFit:
    """Least-squares line through (log m, log statistic) points."""

    points: tuple
    slope: float
    intercept: float
    residual_rms: float


def fit_loglog(points) -> RateFit:
    """OLS fit of log(statistic) against log(abscissa)."""
    pts = [(float(x), float(y)) for x, y in points]
    if any(y <= 0.0 for _, y in pts):
        raise InvalidInputError("log-log fit needs positive ordinates")
    xs = np.array([math.log(x) for x, _ in pts])
    ys = np.array([math.log(y) for _, y in pts])
    if np.unique(xs).size < 2:
        raise InvalidInputError("log-log fit needs at least two distinct abscissae")
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    rms = float(np.sqrt(np.mean(resid**2)))
    return RateFit(
        points=tuple(zip(xs.tolist(), ys.tolist())),
        slope=float(slope),
        intercept=float(intercept),
        residual_rms=rms,
    )


@dataclass(frozen=True)
class KRule:
    """Neighbor-count rule k(m); either a constant or ceil(m^alpha)."""

    name: str
    fn: Callable[[int], int]

    def __call__(self, m: int) -> int:
        try:
            k = int(self.fn(m))
        except (OverflowError, ValueError) as exc:
            raise InvalidInputError(f"k rule {self.name} gave no finite k for m={m}") from exc
        if not 1 <= k <= m:
            raise InvalidInputError(f"k rule {self.name} gave k={k} for m={m}")
        return k


def const_k(k: int) -> KRule:
    k = int(k)
    return KRule(name=f"const:{k}", fn=lambda m: k)


def power_k(alpha: float) -> KRule:
    alpha = float(alpha)
    return KRule(name=f"power:{alpha:g}", fn=lambda m: math.ceil(m**alpha))


# --- experiment harness --------------------------------------------------------


@dataclass(frozen=True)
class RateExperimentResult:
    records: tuple
    summary: tuple
    fit: Optional[RateFit]  # None when the grid has a single size
    statistic: str


@dataclass(frozen=True)
class QiExperimentResult:
    records: tuple
    summary: tuple


@dataclass(frozen=True)
class AtomExperimentResult:
    records: tuple
    summary_1nn: tuple
    summary_sqrt: tuple


def _check_m_grid(m_grid: Sequence[int]) -> list[int]:
    ms = [int(m) for m in m_grid]
    if not ms or ms[0] < 1 or any(b <= a for a, b in zip(ms, ms[1:])):
        raise InvalidInputError("m_grid must be nonempty, positive and strictly increasing")
    return ms


def _run_grid(points, cell, n, replications, base_seed, threads):
    """The one Monte Carlo loop: grid point -> replications -> records -> summaries.

    ``cell(point)`` returns one record label tuple (scenario, m, n, k, q,
    s_corr) per statistic column and a worker mapping a replication index
    to one value per column. Each replication's wall time is split evenly
    across its records; each column gets one summary row per point, keyed
    by the point.
    """
    if replications < 1 or n < 1:
        raise InvalidInputError("replications and n must be positive")
    if len(points) == 0:
        raise InvalidInputError("the grid must not be empty")
    records = []
    point_rows = []
    for point in points:
        labels, worker = cell(point)

        def timed(rep, worker=worker):
            t0 = time.perf_counter()
            stats = worker(rep)
            return stats, time.perf_counter() - t0

        outcomes = indexed_map(timed, replications, threads)
        for rep, (stats, secs) in enumerate(outcomes):
            share = secs / len(stats)
            for label, stat in zip(labels, stats):
                records.append(RunRecord(*label, rep, base_seed, stat, share))
        columns = zip(*(stats for stats, _ in outcomes))
        point_rows.append(
            [SummaryRow(float(point), *_mean_stderr(col), replications) for col in columns]
        )
    return tuple(records), list(zip(*point_rows))


def _draw_labeled(scn: Scenario, base_seed: int, rep: int, n: int, m: int):
    """Replication ``rep``'s evaluation sample, training inputs and training outputs."""
    gen = stream(base_seed, rep)
    x = Sample(scn.x_sampler(gen, n))
    xp_arr = scn.xp_sampler(gen, m)
    return x, xp_arr, scn.model.sample_outputs(gen, xp_arr)


def _squared_qi_error(scn: Scenario, base_seed: int, n: int, m: int, k: int, norm: Norm):
    """Worker: squared error of the k-NN reweighted QI estimate."""

    def worker(rep):
        x, xp_arr, outputs = _draw_labeled(scn, base_seed, rep, n, m)
        table = neighbor_table(x, Sample(xp_arr), k, norm)
        wv = knn_weights(table, m)
        err = qi_hat(wv, outputs, scn.phi) - scn.qi
        return (err * err,)

    return worker


def _certify_record(x: Sample, xp: Sample, table, k, q, norm, stat) -> None:
    wv = knn_weights(table, xp.size)
    cost, _ = exact_wq(uniform_empirical(x), weighted_measure(xp, wv), q, norm)
    tol = 1e-9 * max(1.0, abs(stat))
    if k == 1:
        if abs(cost - stat) > tol:
            raise NumericalError(
                f"closed form {stat!r} disagrees with exact transport cost {cost!r}"
            )
    elif stat < cost - tol:
        raise NumericalError(
            f"k-NN bound {stat!r} fell below the exact transport cost {cost!r}"
        )


def wasserstein_rate_experiment(
    scenario: Scenario,
    m_grid: Sequence[int],
    n: int,
    k_rule: KRule,
    q: float,
    replications: int,
    base_seed: int,
    *,
    norm: Norm = DEFAULT_NORM,
    threads: int = 1,
    certify: bool = False,
) -> RateExperimentResult:
    """Transport-cost decay versus training size m.

    Per replication the statistic is the closed-form 1-NN cost (k=1) or
    the k-NN average-cost bound (k>1), both mean distance^q over the
    neighbor table. With ``certify`` every 100th replication is checked
    against the exact LP value.
    """
    m_grid = _check_m_grid(m_grid)
    s_corr = scenario.params.get("s_corr")

    def cell(m):
        k = k_rule(m)

        def worker(rep):
            gen = stream(base_seed, rep)
            x = Sample(scenario.x_sampler(gen, n))
            xp = Sample(scenario.xp_sampler(gen, m))
            table = neighbor_table(x, xp, k, norm)
            stat = knn_transport_cost(table, q)
            if certify and rep % 100 == 0:
                _certify_record(x, xp, table, k, q, norm, stat)
            return (stat,)

        return [(scenario.name, m, n, k, float(q), s_corr)], worker

    records, (summary,) = _run_grid(m_grid, cell, n, replications, base_seed, threads)
    fit = fit_loglog([(row.key, row.mean) for row in summary]) if len(m_grid) >= 2 else None
    statistic = "closed_form_1nn" if all(r.k == 1 for r in records) else "knn_bound"
    if certify:
        statistic += "+lp_certified"
    return RateExperimentResult(records, summary, fit, statistic)


def qi_experiment(
    scenario: Scenario,
    m: int,
    n: int,
    k: int,
    s_corr_grid: Sequence[float],
    replications: int,
    base_seed: int,
    *,
    norm: Norm = DEFAULT_NORM,
    threads: int = 1,
) -> QiExperimentResult:
    """Squared estimation error of the reweighted estimator per s_corr value."""
    if scenario.qi is None:
        raise InvalidInputError("qi_experiment needs a scenario with an analytic QI")
    (m,) = _check_m_grid([m])

    def cell(s):
        s = float(s)
        scn = scenario if scenario.params.get("s_corr") == s else scenario.with_params(s_corr=s)
        return [(scn.name, m, n, k, 2.0, s)], _squared_qi_error(scn, base_seed, n, m, k, norm)

    records, (summary,) = _run_grid(s_corr_grid, cell, n, replications, base_seed, threads)
    return QiExperimentResult(records, summary)


def atom_consistency_experiment(
    m_grid: Sequence[int],
    replications: int,
    base_seed: int,
    *,
    scenario: Optional[Scenario] = None,
    n: int = 100,
    norm: Norm = DEFAULT_NORM,
    threads: int = 1,
) -> AtomExperimentResult:
    """Absolute estimation error at an atom: fixed k=1 versus k=ceil(sqrt(m)).

    The 1-NN estimator inherits a single parameter draw and stays biased
    by the observation noise; the growing-k estimator averages it out.
    """
    scn = scenario if scenario is not None else builtin_scenario("atom_demo")
    if scn.qi is None:
        raise InvalidInputError("atom experiment needs a scenario with an analytic QI")
    m_grid = _check_m_grid(m_grid)
    s_corr = scn.params.get("s_corr")

    def cell(m):
        k_big = math.ceil(math.sqrt(m))

        def worker(rep):
            x, xp_arr, outputs = _draw_labeled(scn, base_seed, rep, n, m)
            # One table at the larger k serves both estimators: its first
            # column is exactly the 1-NN table under the same tie rule.
            table = neighbor_table(x, Sample(xp_arr), k_big, norm)
            vals = scn.phi(outputs)
            err_big = abs(float(np.mean(vals[table.indices])) - scn.qi)
            err_one = abs(float(np.mean(vals[table.indices[:, :1]])) - scn.qi)
            return err_one, err_big

        labels = [(scn.name, m, n, 1, 1.0, s_corr), (scn.name, m, n, k_big, 1.0, s_corr)]
        return labels, worker

    records, (summary_1nn, summary_sqrt) = _run_grid(m_grid, cell, n, replications, base_seed,
                                                      threads)
    return AtomExperimentResult(records, summary_1nn, summary_sqrt)


def noisy_rate_experiment(
    scenario: Scenario,
    m_grid: Sequence[int],
    n: int,
    replications: int,
    base_seed: int,
    *,
    k_rule: Optional[KRule] = None,
    norm: Norm = DEFAULT_NORM,
    threads: int = 1,
) -> tuple[QiExperimentResult, RateFit]:
    """Decay of the RMS estimation error in m with the balanced k_m schedule.

    Defaults to k_m = ceil(m^{2/(d+2)}); the fit is of log RMS error
    against log m, so the reference exponent is -1/(d+2). Records carry
    q=2 for the squared error.
    """
    if scenario.qi is None:
        raise InvalidInputError("noisy_rate_experiment needs an analytic QI")
    m_grid = _check_m_grid(m_grid)
    rule = k_rule if k_rule is not None else power_k(2.0 / (scenario.d + 2.0))
    s_corr = scenario.params.get("s_corr")

    def cell(m):
        k = rule(m)
        labels = [(scenario.name, m, n, k, 2.0, s_corr)]
        return labels, _squared_qi_error(scenario, base_seed, n, m, k, norm)

    records, (summary,) = _run_grid(m_grid, cell, n, replications, base_seed, threads)
    fit = fit_loglog([(row.key, math.sqrt(row.mean)) for row in summary])
    return QiExperimentResult(records, summary), fit


def generalization_error_mc(
    model: Model,
    x_sampler: Callable[[np.random.Generator, int], np.ndarray],
    xp_sampler: Callable[[np.random.Generator, int], np.ndarray],
    r_true: Callable[[np.ndarray], np.ndarray],
    m: int,
    k: int,
    n_test: int,
    norm: Norm = DEFAULT_NORM,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte Carlo L2 generalization error of k-NN regression under covariate shift.

    Each of the n_test replications draws a fresh training sample of size
    m and one fresh evaluation point, then scores the squared deviation of
    the k-NN prediction from the analytic regression function ``r_true``.
    Returns (mean squared error, standard error of the mean): the summary
    of a one-point grid.
    """
    if m <= 0 or n_test <= 0:
        raise InvalidInputError("m and n_test must be positive")
    k = _check_k(k, m)

    def worker(rep):
        gen = stream(seed, rep)
        x = np.asarray(x_sampler(gen, 1), dtype=np.float64)
        xp = np.asarray(xp_sampler(gen, m), dtype=np.float64)
        train = LabeledSample(Sample(xp), model.sample_outputs(gen, xp))
        pred = knn_regress(x.reshape(-1), train, k, norm)
        diff = np.asarray(r_true(x.reshape(1, -1)), dtype=np.float64).reshape(-1) - pred
        return (float(np.dot(diff, diff)),)

    labels = [("generalization_error", m, 1, k, 2.0, None)]
    _, ((row,),) = _run_grid([m], lambda _: (labels, worker), 1, n_test, seed, 1)
    return row.mean, row.stderr


# --- CSV emitters ----------------------------------------------------------------

_RUNS_COLUMNS = ("scenario", "m", "n", "k", "q", "s_corr", "rep", "seed", "statistic", "seconds")


def write_runs_csv(path, records: Sequence[RunRecord]) -> None:
    rows = (
        (r.scenario, r.m, r.n, r.k, r.q, r.s_corr, r.rep, r.seed, r.statistic,
         f"{r.seconds:.6f}")
        for r in records
    )
    _write_table(path, _RUNS_COLUMNS, rows)


def write_summary_csv(path, rows: Sequence[SummaryRow], key_name: str) -> None:
    _write_table(path, (key_name, "mean", "stderr", "count"),
                 ((row.key, row.mean, row.stderr, row.count) for row in rows))


def write_ratefit_csv(path, fit: RateFit) -> None:
    _write_table(path, ("slope", "intercept", "rms"),
                 [(fit.slope, fit.intercept, fit.residual_rms)])
