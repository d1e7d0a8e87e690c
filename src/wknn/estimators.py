"""Quantity-of-interest estimators and the k-NN regressor under covariate shift.

All read their neighbors from ``neighbor_table``; the regressor's Monte
Carlo error, ``generalization_error_mc``, runs in ``experiments``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import DEFAULT_NORM, InvalidInputError, LabeledSample, Norm, Sample, _trusted, as_point
from .knn import neighbor_table
from .weights import WeightVector

__all__ = [
    "Observable",
    "Model",
    "qi_hat",
    "qi_tilde",
    "knn_regress",
    "qi_knn",
]


@dataclass(frozen=True)
class Observable:
    """Scalar observable of the model output, optionally with a sup-norm bound.

    ``fn`` maps an (m, e) block of output rows to m scalar values. When a
    bound is declared, evaluations are checked against it opportunistically.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    sup_bound: Optional[float] = None

    def __call__(self, outputs: np.ndarray) -> np.ndarray:
        out = np.asarray(outputs, dtype=np.float64)
        if out.ndim == 1:
            out = out.reshape(-1, 1)
        vals = np.asarray(self.fn(out), dtype=np.float64).reshape(out.shape[0])
        if self.sup_bound is not None:
            top = float(np.max(np.abs(vals))) if vals.size else 0.0
            if top > self.sup_bound * (1.0 + 1e-12):
                raise InvalidInputError(
                    f"observable exceeded its declared bound: {top!r} > {self.sup_bound!r}"
                )
        return vals


@dataclass(frozen=True)
class Model:
    """Output model y = f(x, theta) with a sampler for the parameter draws.

    ``fn`` is deterministic given (x, theta) and maps an (n, d) input block
    plus n parameter draws to an (n, e) output block.
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    theta_sampler: Callable[[np.random.Generator, int], np.ndarray]

    def sample_outputs(self, gen: np.random.Generator, x: np.ndarray) -> np.ndarray:
        theta = self.theta_sampler(gen, x.shape[0])
        out = np.asarray(self.fn(x, theta), dtype=np.float64)
        if out.ndim == 1:
            out = out.reshape(-1, 1)
        return out


def qi_hat(wv: WeightVector, outputs, phi: Observable) -> float:
    """Weighted estimate of E[phi(Y)]: (1/m) sum_j w_j phi(Y'_j)."""
    out = np.asarray(outputs, dtype=np.float64)
    if out.shape[0] != wv.m:
        raise InvalidInputError(
            f"got {out.shape[0]} output rows for m={wv.m} weights"
        )
    vals = phi(out)
    return float(np.dot(wv.w, vals) / wv.m)


def qi_tilde(wv: WeightVector, psi_values) -> float:
    """Weighted average of regression-function values: (1/m) sum_j w_j psi(X'_j).

    Separates transport error from observation noise when an analytic psi
    is available; unavailable otherwise.
    """
    vals = np.asarray(psi_values, dtype=np.float64).ravel()
    if vals.shape[0] != wv.m:
        raise InvalidInputError(f"got {vals.shape[0]} psi values for m={wv.m} weights")
    return float(np.dot(wv.w, vals) / wv.m)


def knn_regress(x, train: LabeledSample, k: int, norm: Norm = DEFAULT_NORM) -> np.ndarray:
    """k-NN regression at a point: average output of the k nearest inputs."""
    # as_point has checked the point; a (1, d) view of it is the evaluation sample.
    table = neighbor_table(_trusted(Sample, points=as_point(x)[None, :]), train.inputs, k, norm)
    return train.outputs[table.indices[0]].mean(axis=0)


def qi_knn(
    eval_sample: Sample,
    train: LabeledSample,
    k: int,
    phi: Observable,
    norm: Norm = DEFAULT_NORM,
) -> float:
    """Plug-in estimate averaging the k-NN regression of phi over evaluation points.

    Algebraically identical to qi_hat applied to the k-NN weight vector;
    the two agree up to summation order.
    """
    table = neighbor_table(eval_sample, train.inputs, k, norm)
    vals = phi(train.outputs)
    return float(np.mean(vals[table.indices]))
