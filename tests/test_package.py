"""The public surface: adding or removing a name in ``coprisk.__all__`` is a
deliberate change that updates this list."""

import coprisk

EXPECTED = {
    # data and first stage
    "Dataset", "StrataIndex", "load_csv", "pool_risks", "stratify",
    "StepFunction", "overall_survival", "sub_distribution",
    # copula
    "conditional_v_given_u", "generator", "generator_inverse",
    "generator_inverse_deriv", "tau_from_theta", "theta_from_tau",
    # copula-graphic curves
    "copula_graphic",
    # marginals
    "AftModel", "PhModel", "cumulative_hazard", "inverse_survival",
    "survival", "sw_inverse", "sw_survival",
    # estimators
    "FitResult2SE", "FitResult3SE", "fgls_fit", "fit_2se", "fit_3se",
    "three_stage_point", "two_stage_point",
    # inference and simulation
    "BootstrapResult", "bootstrap", "DgpSpec", "McReport", "generate_dataset",
    "monte_carlo", "sample_pair",
    # errors
    "ConvergenceError", "CopriskError", "DataError", "EstimationError",
}


def test_all_is_sorted():
    assert coprisk.__all__ == sorted(coprisk.__all__)


def test_all_names_resolve():
    missing = [name for name in coprisk.__all__ if not hasattr(coprisk, name)]
    assert missing == []


def test_all_is_the_expected_surface():
    assert len(EXPECTED) == 40
    assert len(coprisk.__all__) == len(set(coprisk.__all__))
    assert set(coprisk.__all__) == EXPECTED
