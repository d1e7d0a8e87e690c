"""Closed-form asymptotic constants for nearest-neighbor reweighting.

The expected transport cost of the 1-NN reweighting decays like m^{-q/d}
with limiting constant Gamma(1+q/d) / v_d^{q/d} * E[1/p_{X'}(X)^{q/d}];
this module evaluates that constant and its ingredients, plus the
associated k-NN inflation factor and distribution-design quantities.
All checks are advisory diagnostics, never hard failures.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import DEFAULT_NORM, InvalidInputError, Norm, NumericalError, _check_q
from .rng import _mean_stderr, stream

__all__ = [
    "RateConstant",
    "unit_ball_volume",
    "rate_constant",
    "cdq",
    "gaussian_moment_check",
    "zador_exponent",
    "inv_density_moment",
]


@dataclass(frozen=True)
class RateConstant:
    """Limiting constant of m^{q/d} * expected 1-NN transport cost."""

    q: float
    d: int
    v_d: float
    inv_density_moment: float
    value: float


def _finite(what: str, compute: Callable[[], float]) -> float:
    """``compute()`` as a float; NumericalError if a step leaves the float64 range."""
    try:
        value = float(compute())
    except (OverflowError, ZeroDivisionError) as exc:
        raise NumericalError(f"{what} is out of float64 range") from exc
    if not math.isfinite(value):
        raise NumericalError(f"{what} is out of float64 range")
    return value


def _check_d(d: int) -> int:
    """Dimension d as an int; it must be at least 1."""
    d = int(d)
    if d < 1:
        raise InvalidInputError("d must be a positive integer")
    return d


def unit_ball_volume(d: int, norm: Norm = DEFAULT_NORM) -> float:
    """Volume of the unit ball of R^d for the given norm."""
    d = _check_d(d)
    what = f"unit ball volume in dimension {d}"
    if norm is Norm.L2:
        return _finite(what, lambda: math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0))
    if norm is Norm.L1:
        return _finite(what, lambda: 2.0**d / math.factorial(d))
    return _finite(what, lambda: 2.0**d)


def rate_constant(
    q: float, d: int, norm: Norm = DEFAULT_NORM, inv_density_moment: float = 1.0
) -> RateConstant:
    """Constant Gamma(1+q/d)/v_d^{q/d} * moment, homogeneous in the moment."""
    q = _check_q(q)
    d = _check_d(d)
    moment = float(inv_density_moment)
    if moment <= 0.0:
        raise InvalidInputError("inv_density_moment must be positive")
    v_d = unit_ball_volume(d, norm)
    value = _finite("rate constant", lambda: math.gamma(1.0 + q / d) / v_d ** (q / d) * moment)
    return RateConstant(q=q, d=d, v_d=v_d, inv_density_moment=moment, value=value)


def cdq(q: float, d: int, k_limit) -> float:
    """Inflation factor of the k-NN transport-cost rate; always > 1.

    Finite k: (2^{q/d+1}/k) * sum_{l=1}^{k} (l/k)^{q/d}.
    k -> infinity: 2^{q/d+1} / (q/d + 1).
    """
    q = _check_q(q)
    alpha = q / _check_d(d)
    if k_limit is None or k_limit == math.inf:
        return _finite("cdq", lambda: 2.0 ** (alpha + 1.0) / (alpha + 1.0))
    k = int(k_limit)
    if k < 1:
        raise InvalidInputError("k_limit must be a positive integer or infinity")
    grid = np.arange(1, k + 1, dtype=np.float64) / k
    return _finite("cdq", lambda: 2.0 ** (alpha + 1.0) / k * np.sum(grid**alpha))


def gaussian_moment_check(sigma: float, sigma_prime: float, q: float, d: int) -> bool:
    """Moment condition for centered isotropic Gaussians: sigma'^2 > sigma^2 q/d (strict)."""
    sigma = float(sigma)
    sigma_prime = float(sigma_prime)
    if sigma <= 0.0 or sigma_prime <= 0.0:
        raise InvalidInputError("scales must be positive")
    q = _check_q(q)
    d = _check_d(d)
    lhs = _finite("sigma'^2", lambda: sigma_prime**2)
    return lhs > _finite("sigma^2 q/d", lambda: sigma**2 * q / d)


def zador_exponent(q: float, d: int) -> float:
    """Exponent d/(q+d): the variance-minimizing synthetic density is p_X^{d/(q+d)}."""
    q = _check_q(q)
    d = _check_d(d)
    return d / (q + d)


def inv_density_moment(
    x_sampler: Callable[[np.random.Generator, int], np.ndarray],
    log_density_xp: Callable[[np.ndarray], np.ndarray],
    q: float,
    d: int,
    n_draws: int,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte Carlo estimate of E[1/p_{X'}(X)^{q/d}] with its standard error.

    Draws X from ``x_sampler`` and averages exp(-(q/d) * log p_{X'}(X));
    the density must be positive on the support of X.
    """
    q = _check_q(q)
    d = _check_d(d)
    if n_draws < 1:
        raise InvalidInputError("n_draws must be positive")
    gen = stream(seed, 0)
    x = np.asarray(x_sampler(gen, n_draws), dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    logs = np.asarray(log_density_xp(x), dtype=np.float64).reshape(-1)
    with np.errstate(over="ignore"):  # reported by the check below
        vals = np.exp(-(q / d) * logs)
    if not np.all(np.isfinite(vals)):
        raise NumericalError("non-finite density evaluation in moment estimate")
    return _mean_stderr(vals)
