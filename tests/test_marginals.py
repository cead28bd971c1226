"""Tests for the parametric marginal families."""

import numpy as np
import pytest

from scipy.special import ndtri

from coprisk.estimators import S_CLAMP
from coprisk.marginals import (
    FAMILIES,
    AftModel,
    PhModel,
    _sw_inverse,
    inverse_survival,
    survival,
    sw_survival,
)


def model(family, alpha=1.0, beta=(1.0,), sigma=None):
    if sigma is None:
        sigma = 1.0 if family == "exponential" else 1.5
    return AftModel(family, alpha, list(beta), sigma)


def cumulative_hazard(m, t, z):
    return -np.log(survival(m, t, z))


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


def test_survival_rejects_negative_time():
    # a comparison with NaN is false, so NaN fails the check too
    for bad in ([1.0, -0.5], [1.0, np.nan]):
        with pytest.raises(ValueError, match="t must be >= 0"):
            survival(model("weibull"), bad, np.zeros((2, 1)))
    with pytest.raises(ValueError, match="t must be >= 0"):
        survival(model("weibull"), np.nan, [0.0])


def test_survival_examples():
    weib = AftModel("weibull", 1.0, [], 1.0)
    assert survival(weib, 0.0, []) == 1.0
    assert survival(weib, 1.0, []) == pytest.approx(np.exp(-1.0), abs=1e-14)


def test_survival_noise_scale_identity():
    # an AftModel's survival(t|z) is S_W at the log-linear noise value, to
    # the bit, in every family
    rng = np.random.default_rng(3)
    t = rng.uniform(0.05, 4.0, 60)
    z = rng.integers(0, 2, (60, 1)).astype(float)
    for family in FAMILIES:
        m = model(family, alpha=0.8, beta=(0.7,))
        w = m.sigma * (np.log(m.alpha) + np.log(t) + z @ m.beta)
        assert survival(m, t, z).tobytes() == sw_survival(family, w).tobytes()
        ph = PhModel(family, m.alpha, m.beta, m.sigma)
        for form in (m, ph):
            # a scalar t gives a float, and t = 0 gives one
            assert type(survival(form, t[0], z[0])) is float
            assert survival(form, 0.0, [1.0]) == 1.0


def test_sw_inverse_examples():
    s = np.array([np.exp(-1.0), 0.5])
    assert _sw_inverse("weibull", s)[0] == pytest.approx(0.0, abs=1e-12)
    assert _sw_inverse("loglogistic", s)[1] == pytest.approx(0.0, abs=1e-12)
    assert _sw_inverse("lognormal", s)[1] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
def test_sw_inverse_round_trip_and_decreasing(family):
    s = np.linspace(0.01, 0.99, 99)
    w = _sw_inverse(family, s)
    assert np.all(np.diff(w) < 0)
    assert np.max(np.abs(sw_survival(family, w) - s)) <= 1e-10


def test_inverse_survival_domain_errors():
    # the check applies to the value inverted: a PhModel's u ** exp(-z'beta)
    for family in FAMILIES:
        for m in (model(family), PhModel(family, 1.0, [1.0], model(family).sigma)):
            for bad in (0.0, 1.0, [0.5, 1.5], np.nan, [0.5, np.nan]):
                with pytest.raises(ValueError, match="inverse_survival argument u"):
                    inverse_survival(m, bad, [0.0])


@pytest.mark.parametrize("family", FAMILIES)
def test_sw_inverse_core_has_the_bits_of_the_formula(family):
    # the unchecked core, which the three-stage kernel calls on clamped
    # values, computes the formula in one array; NaN passes through
    s = np.concatenate([np.random.default_rng(5).uniform(0.0, 1.0, 500),
                        [S_CLAMP, 1.0 - S_CLAMP, 0.5, np.nextafter(1.0, 0.0), 1e-300]])
    expected = {
        "exponential": lambda: np.log(-np.log(s)),
        "weibull": lambda: np.log(-np.log(s)),
        "loglogistic": lambda: np.log((1.0 - s) / s),
        "lognormal": lambda: -ndtri(s),
    }[family]()
    assert _sw_inverse(family, s).tobytes() == expected.tobytes()
    assert np.isnan(_sw_inverse(family, np.array([np.nan, 0.5]))[0])


def test_inverse_survival_closed_form():
    weib = AftModel("weibull", 1.0, [], 1.0)
    assert inverse_survival(weib, np.exp(-1.0), []) == pytest.approx(1.0, abs=1e-12)
    for family in FAMILIES:
        t = inverse_survival(model(family), 0.5, [0.0])
        assert type(t) is float
        assert t == np.exp(_sw_inverse(family, np.array(0.5)) / model(family).sigma)


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
    t = np.array([0.5, 1.0, 2.0])
    for family in FAMILIES:
        m = PhModel(family, 0.7, [0.4], model(family).sigma)
        lam0 = cumulative_hazard(m, t, np.zeros((3, 1)))
        lam1 = cumulative_hazard(m, t, np.ones((3, 1)))
        assert np.allclose(lam1, lam0 * np.exp(0.4), rtol=1e-13, atol=0.0)


def test_model_validation():
    with pytest.raises(ValueError):
        AftModel("gompertz", 1.0, [])
    with pytest.raises(ValueError):
        AftModel("weibull", -1.0, [])
    with pytest.raises(ValueError):
        AftModel("weibull", 1.0, [], -0.5)
    with pytest.raises(ValueError):
        AftModel("exponential", 1.0, [], 2.0)  # sigma fixed at 1
    with pytest.raises(ValueError, match="^beta must be a 1-d coefficient vector$"):
        AftModel("weibull", 1.0, [[1.0]], 1.5)


@pytest.mark.parametrize("cls", [AftModel, PhModel])
@pytest.mark.parametrize("alpha, beta, sigma, message", [
    (1.0, [np.nan], 1.5, r"beta must be finite, got \[nan\]"),
    (1.0, [np.inf], 1.5, r"beta must be finite, got \[inf\]"),
    (np.inf, [0.0], 1.5, "alpha must be finite and > 0, got inf"),
    (np.nan, [0.0], 1.5, "alpha must be finite and > 0, got nan"),
    (1.0, [0.0], np.inf, "sigma must be finite and > 0, got inf"),
    (1.0, [0.0], np.nan, "sigma must be finite and > 0, got nan"),
])
def test_model_rejects_non_finite_parameters(cls, alpha, beta, sigma, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        cls("weibull", alpha, beta, sigma)
