"""Both fits at the edges of the data: tiny samples, tied durations, strata
without cause-1 rows, a single cause-1 row, all-censored and all-event
samples.

Each fit must either raise EstimationError or return a finite dependence and
finite parameters.  The suite turns every warning into an error, so a numpy
warning on the way fails the test as well.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from coprisk.data import Dataset
from coprisk.errors import EstimationError
from coprisk.estimators import fit_2se, fit_3se

GRID = np.linspace(-0.9, 0.9, 7)
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
FITS_3SE = [(family, "aft") for family in
            ("exponential", "weibull", "loglogistic", "lognormal")] + [("weibull", "ph")]


@st.composite
def tiny_datasets(draw):
    n = draw(st.integers(2, 40))
    k = draw(st.integers(0, 2))
    if draw(st.booleans()):
        # few distinct values, so most durations are tied
        x = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    else:
        x = draw(st.lists(st.floats(0.01, 10.0), min_size=n, max_size=n))
    z = draw(st.lists(st.lists(st.integers(0, 1), min_size=k, max_size=k),
                      min_size=n, max_size=n))
    events = draw(st.sampled_from(["mixed", "one event", "all censored", "all events"]))
    if events == "mixed":
        delta = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    else:
        delta = np.full(n, int(events == "all events"))
        if events == "one event":
            delta[draw(st.integers(0, n - 1))] = 1
    z = np.array(z, dtype=float).reshape(n, k)
    if k and draw(st.booleans()):
        delta[z[:, 0] == 1] = 0  # a stratum without cause-1 rows
    return Dataset(np.array(x, dtype=float), delta, z)


def all_finite(*values):
    return all(math.isfinite(float(v)) for v in values)


@given(tiny_datasets())
@SETTINGS
def test_fit_3se_fails_cleanly_or_is_finite(ds):
    for family, model_kind in FITS_3SE:
        try:
            res = fit_3se(ds, family, model_kind=model_kind, tau_grid=GRID)
        except EstimationError:
            continue
        model = res.model
        assert all_finite(res.tau_hat, model.alpha, model.sigma, *model.beta), (
            family, model_kind, res)


@given(tiny_datasets())
@SETTINGS
def test_fit_2se_fails_cleanly_or_is_finite(ds):
    try:
        res = fit_2se(ds, tau_grid=GRID)
    except EstimationError:
        return
    assert all_finite(res.tau_hat, *res.beta_hat), res
