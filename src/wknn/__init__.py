"""Wasserstein-optimal k-NN reweighting of a training sample under covariate shift.

The package computes the nearest-neighbor weight vector that minimizes
the order-q transport cost between the weighted training measure and the
evaluation empirical measure, verifies it against an exact transportation
LP, provides the induced quantity-of-interest estimators and asymptotic
constants, and ships a reproducible Monte Carlo harness plus a batch CLI.
"""

__version__ = "0.1.0"

from .core import (
    DEFAULT_NORM,
    DiscreteMeasure,
    InvalidInputError,
    LabeledSample,
    Norm,
    NumericalError,
    Sample,
    distance,
    pairwise_distances,
    read_sample_csv,
    uniform_empirical,
    validate_measure,
    write_sample_csv,
)
from .estimators import (
    Model,
    Observable,
    knn_regress,
    qi_hat,
    qi_knn,
    qi_tilde,
)
from .experiments import (
    KRule,
    RateFit,
    RunRecord,
    Scenario,
    SummaryRow,
    atom_consistency_experiment,
    builtin_scenario,
    const_k,
    fit_loglog,
    generalization_error_mc,
    noisy_rate_experiment,
    power_k,
    qi_experiment,
    scenario_names,
    wasserstein_rate_experiment,
)
from .knn import KnnIndex, NeighborTable, knn_query, neighbor_table
from .ot import TransportPlan, exact_wq, wq_1nn, wq_knn_bound
from .rng import standard_normal, stream, uniform_open
from .theory import (
    RateConstant,
    cdq,
    gaussian_moment_check,
    inv_density_moment,
    rate_constant,
    unit_ball_volume,
    zador_exponent,
)
from .weights import WeightVector, knn_weights, weighted_measure

__all__ = [name for name in dir() if not name.startswith("_")]
