"""Dependent competing risks via the Clayton copula-graphic estimator.

The package recovers the latent survival distribution of a single risk of
interest, without modelling the remaining risks, by combining stratified
nonparametric first-stage estimates with a copula-graphic plug-in and a
minimum-distance search over the dependence parameter.
"""

from .cge import copula_graphic
from .copula import (
    conditional_v_given_u,
    generator,
    generator_inverse,
    generator_inverse_deriv,
    tau_from_theta,
    theta_from_tau,
)
from .data import Dataset, StrataIndex, load_csv, pool_risks, stratify
from .errors import ConvergenceError, CopriskError, DataError, EstimationError
from .estimators import (
    FitResult2SE,
    FitResult3SE,
    fgls_fit,
    fit_2se,
    fit_3se,
    three_stage_point,
    two_stage_point,
)
from .first_stage import StepFunction, overall_survival, sub_distribution
from .inference import BootstrapResult, bootstrap
from .marginals import (
    AftModel,
    PhModel,
    cumulative_hazard,
    inverse_survival,
    survival,
    sw_inverse,
    sw_survival,
)
from .simulate import DgpSpec, McReport, generate_dataset, monte_carlo, sample_pair

__version__ = "0.1.0"

__all__ = [
    "AftModel",
    "BootstrapResult",
    "ConvergenceError",
    "CopriskError",
    "DataError",
    "Dataset",
    "DgpSpec",
    "EstimationError",
    "FitResult2SE",
    "FitResult3SE",
    "McReport",
    "PhModel",
    "StepFunction",
    "StrataIndex",
    "bootstrap",
    "conditional_v_given_u",
    "copula_graphic",
    "cumulative_hazard",
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
    "overall_survival",
    "pool_risks",
    "sample_pair",
    "stratify",
    "sub_distribution",
    "survival",
    "sw_inverse",
    "sw_survival",
    "tau_from_theta",
    "theta_from_tau",
    "three_stage_point",
    "two_stage_point",
]
