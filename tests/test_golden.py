"""Recorded outputs of both fits, pinned so that a refactor cannot move them.

Each case fits one seeded sample and compares tau_hat, the fitted
parameters, the objective trace and the diagnostics with ``golden_fits.json``
at 1e-12 relative.  The file was written by running this module as a script
(``PYTHONPATH=src python tests/test_golden.py``); re-record it only with a
change that means to move the fits, and say by how much.
"""

import json
import pathlib

import numpy as np
import pytest

from coprisk.errors import EstimationError
from coprisk.estimators import fit_2se, fit_3se
from coprisk.marginals import AftModel
from coprisk.simulate import DgpSpec, generate_dataset

from test_estimators import six_strata_dataset

GOLDEN = pathlib.Path(__file__).with_name("golden_fits.json")


def benchmark_sample(n, seed):
    model = AftModel("weibull", 1.0, [1.0], 1.5)
    return generate_dataset(DgpSpec(n=n, tau=0.8, model_t=model, model_c=model), seed)


DATASETS = {
    "bench-n400": lambda: benchmark_sample(400, 1),
    "bench-n2000": lambda: benchmark_sample(2000, 2),
    "six-strata": six_strata_dataset,
}
FITS = {
    **{f"3se-aft-{family}": (lambda ds, family=family: fit_3se(ds, family))
       for family in ("exponential", "weibull", "loglogistic", "lognormal")},
    "3se-ph": lambda ds: fit_3se(ds, "weibull", model_kind="ph"),
    "2se": fit_2se,
}
CASES = [f"{data}/{fit}" for data in DATASETS for fit in FITS]


def summary(case: str) -> dict:
    """Every output of the case's fit as named lists of numbers, or its error."""
    data, fit = case.split("/")
    try:
        res = FITS[fit](DATASETS[data]())
    except EstimationError as exc:
        return {"error": str(exc)}
    if fit == "2se":
        params = {"beta": res.beta_hat.tolist(), "x_star": [res.x_star],
                  "x_double_star": [res.x_double_star]}
    else:
        params = {"alpha": [res.model.alpha], "beta": res.model.beta.tolist(),
                  "sigma": [res.model.sigma]}
    out = {"tau_hat": [res.tau_hat], "theta_hat": [res.theta_hat],
           "kept_n": [res.kept_n], **params,
           "objective_trace": [v for pair in res.objective_trace for v in pair]}
    for name, value in res.diagnostics.items():
        out[f"diagnostics.{name}"] = np.atleast_1d(np.asarray(value, dtype=float)).tolist()
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", CASES)
def test_fit_matches_recorded_values(golden, case):
    expected = golden[case]
    got = summary(case)
    assert got.keys() == expected.keys()
    if "error" in expected:
        assert got == expected
        return
    for name, values in expected.items():
        np.testing.assert_allclose(got[name], values, rtol=1e-12, atol=0, err_msg=name)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({case: summary(case) for case in CASES}, indent=1) + "\n")
