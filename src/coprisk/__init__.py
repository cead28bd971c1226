"""Dependent competing risks via the Clayton copula-graphic estimator.

The package recovers the latent survival distribution of a single risk of
interest, without modelling the remaining risks, by combining stratified
nonparametric first-stage estimates with a copula-graphic plug-in and a
minimum-distance search over the dependence parameter.
"""

from .copula import (
    generator,
    generator_inverse,
    generator_inverse_deriv,
    tau_from_theta,
    theta_from_tau,
)
from .data import Dataset, load_csv, pool_risks, stratify
from .errors import CopriskError, DataError, EstimationError
from .estimators import (
    FitResult2SE,
    FitResult3SE,
    fgls_fit,
    fit_2se,
    fit_3se,
    three_stage_point,
    two_stage_point,
)
from .inference import BootstrapResult, bootstrap
from .marginals import AftModel, PhModel, inverse_survival, survival
from .simulate import DgpSpec, McReport, generate_dataset, monte_carlo, sample_pair

__version__ = "0.1.0"

__all__ = [
    "AftModel",
    "BootstrapResult",
    "CopriskError",
    "DataError",
    "Dataset",
    "DgpSpec",
    "EstimationError",
    "FitResult2SE",
    "FitResult3SE",
    "McReport",
    "PhModel",
    "bootstrap",
    "fgls_fit",
    "fit_2se",
    "fit_3se",
    "generate_dataset",
    "generator",
    "generator_inverse",
    "generator_inverse_deriv",
    "inverse_survival",
    "load_csv",
    "monte_carlo",
    "pool_risks",
    "sample_pair",
    "stratify",
    "survival",
    "tau_from_theta",
    "theta_from_tau",
    "three_stage_point",
    "two_stage_point",
]
