"""The public surface: adding or removing a name in ``coprisk.__all__`` is a
deliberate change that updates this list."""

import re
from pathlib import Path

import coprisk

ROOT = Path(__file__).resolve().parents[1]

# Every public name is used by one of these; result and error types are
# public because callers receive or catch them.
USERS = ("README.md", "src/coprisk/cli.py", "tests/test_acceptance.py")
RETURNED_OR_RAISED = {"BootstrapResult", "McReport", "CopriskError"}

EXPECTED = {
    # data and first stage
    "Dataset", "load_csv", "pool_risks", "stratify",
    "StepFunction", "overall_survival", "sub_distribution",
    # copula
    "generator", "generator_inverse", "generator_inverse_deriv",
    "tau_from_theta", "theta_from_tau",
    # copula-graphic curves
    "copula_graphic",
    # marginals
    "AftModel", "PhModel", "inverse_survival", "survival",
    # estimators
    "FitResult2SE", "FitResult3SE", "fgls_fit", "fit_2se", "fit_3se",
    "three_stage_point", "two_stage_point",
    # inference and simulation
    "BootstrapResult", "bootstrap", "DgpSpec", "McReport", "generate_dataset",
    "monte_carlo", "sample_pair",
    # errors
    "CopriskError", "DataError", "EstimationError",
}


def test_all_is_sorted():
    assert coprisk.__all__ == sorted(coprisk.__all__)


def test_all_names_resolve():
    missing = [name for name in coprisk.__all__ if not hasattr(coprisk, name)]
    assert missing == []


def test_all_is_the_expected_surface():
    assert len(EXPECTED) == 34
    assert len(coprisk.__all__) == len(set(coprisk.__all__))
    assert set(coprisk.__all__) == EXPECTED


def test_every_public_name_has_a_user():
    text = "\n".join((ROOT / path).read_text(encoding="utf-8") for path in USERS)
    unused = [
        name for name in coprisk.__all__
        if name not in RETURNED_OR_RAISED and not re.search(rf"\b{name}\b", text)
    ]
    assert unused == []
