"""Tests for the parametric marginal families."""

import numpy as np
import pytest

from coprisk.marginals import (
    FAMILIES,
    AftModel,
    PhModel,
    cumulative_hazard,
    inverse_survival,
    survival,
    sw_inverse,
    sw_survival,
)


def model(family, alpha=1.0, beta=(1.0,), sigma=None):
    if sigma is None:
        sigma = 1.0 if family == "exponential" else 1.5
    return AftModel(family, alpha, list(beta), sigma)


def test_hazard_examples():
    weib = AftModel("weibull", 1.0, [0.0], 1.5)
    assert cumulative_hazard(weib, 1.0, [0.0]) == pytest.approx(1.0, abs=1e-12)
    expo = AftModel("exponential", 2.0, [])
    assert cumulative_hazard(expo, 3.0, []) == pytest.approx(6.0, abs=1e-12)
    for family in FAMILIES:
        assert cumulative_hazard(model(family), 0.0, [0.0]) == 0.0


def test_hazard_strictly_increasing():
    t = np.linspace(0.01, 5.0, 200)
    for family in FAMILIES:
        lam = cumulative_hazard(model(family), t, np.zeros((t.size, 1)))
        assert np.all(np.diff(lam) > 0)
        assert np.all(np.isfinite(lam))


def test_survival_examples():
    weib = AftModel("weibull", 1.0, [], 1.0)
    assert survival(weib, 0.0, []) == 1.0
    assert survival(weib, 1.0, []) == pytest.approx(np.exp(-1.0), abs=1e-14)


def test_survival_noise_scale_identity():
    # survival(t|z) equals S_W at the log-linear noise value, every family
    rng = np.random.default_rng(3)
    t = rng.uniform(0.05, 4.0, 60)
    z = rng.integers(0, 2, (60, 1)).astype(float)
    for family in FAMILIES:
        m = model(family, alpha=0.8, beta=(0.7,))
        w = m.sigma * (np.log(m.alpha) + np.log(t) + 0.7 * z[:, 0])
        assert np.allclose(survival(m, t, z), sw_survival(family, w), atol=1e-14)


def test_sw_inverse_examples():
    assert sw_inverse("weibull", np.exp(-1.0)) == pytest.approx(0.0, abs=1e-12)
    assert sw_inverse("loglogistic", 0.5) == pytest.approx(0.0, abs=1e-12)
    assert sw_inverse("lognormal", 0.5) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
def test_sw_inverse_round_trip_and_decreasing(family):
    s = np.linspace(0.01, 0.99, 99)
    w = sw_inverse(family, s)
    assert np.all(np.diff(w) < 0)
    assert np.max(np.abs(sw_survival(family, w) - s)) <= 1e-10


def test_sw_inverse_domain_errors():
    for family in FAMILIES:
        for bad in (0.0, 1.0):
            with pytest.raises(ValueError):
                sw_inverse(family, bad)


def test_inverse_survival_closed_form():
    weib = AftModel("weibull", 1.0, [], 1.0)
    assert inverse_survival(weib, np.exp(-1.0), []) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
def test_inverse_survival_round_trip(family):
    rng = np.random.default_rng(11)
    aft = model(family, alpha=1.3, beta=(0.5,))
    u = rng.uniform(0.005, 0.995, 80)
    z = rng.integers(0, 2, (80, 1)).astype(float)
    for m in (aft, PhModel(aft.family, aft.alpha, aft.beta, aft.sigma)):
        t = inverse_survival(m, u, z)
        assert np.all(t > 0)
        assert np.max(np.abs(survival(m, t, z) - u)) <= 1e-10


def test_inverse_survival_boundary():
    m = model("weibull")
    # u -> 1 sends the duration to 0
    assert inverse_survival(m, 1.0 - 1e-12, [0.0]) < 1e-6


def test_ph_survival_basics():
    m = PhModel("weibull", 1.0, [0.8], 1.5)
    assert survival(m, 0.0, [1.0]) == 1.0
    # z = 0 reduces to the baseline
    base = AftModel("weibull", 1.0, [], 1.5)
    t = np.linspace(0.1, 3.0, 20)
    assert np.allclose(survival(m, t, np.zeros((20, 1))), survival(base, t, np.zeros((20, 0))))


def test_ph_aft_weibull_identity():
    # weibull PH with beta_ph equals weibull AFT with beta_ph / sigma
    sigma, beta_ph = 1.5, 0.9
    mph = PhModel("weibull", 1.2, [beta_ph], sigma)
    maft = AftModel("weibull", 1.2, [beta_ph / sigma], sigma)
    rng = np.random.default_rng(8)
    t = rng.uniform(0.05, 4.0, 50)
    z = rng.integers(0, 2, (50, 1)).astype(float)
    assert np.max(np.abs(survival(mph, t, z) - survival(maft, t, z))) <= 1e-12


def test_ph_cumulative_hazard_scales():
    m = PhModel("loglogistic", 0.7, [0.4], 1.2)
    t = np.array([0.5, 1.0, 2.0])
    lam0 = cumulative_hazard(m, t, np.zeros((3, 1)))
    lam1 = cumulative_hazard(m, t, np.ones((3, 1)))
    assert np.allclose(lam1, lam0 * np.exp(0.4))


def test_model_validation():
    with pytest.raises(ValueError):
        AftModel("gompertz", 1.0, [])
    with pytest.raises(ValueError):
        AftModel("weibull", -1.0, [])
    with pytest.raises(ValueError):
        AftModel("weibull", 1.0, [], -0.5)
    with pytest.raises(ValueError):
        AftModel("exponential", 1.0, [], 2.0)  # sigma fixed at 1
