"""Unit tests for the Clayton generator, its inverse, and conditional sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coprisk.copula import (
    THETA_ZERO_TOL,
    _log_generator,
    conditional_v_given_u,
    generator,
    generator_inverse,
    generator_inverse_deriv,
    tau_from_theta,
    theta_from_tau,
)
from oracles import clayton_conditional_cdf

THETAS = [-1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 8.0]


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------


def test_generator_at_zero_is_one():
    assert generator(0.0, 3.7) == 1.0
    assert generator(0.0, 8.0) == 1.0


def test_generator_independence_branch():
    assert generator(1.0, 0.0) == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_generator_unit_theta():
    # (1 + 1)^-1
    assert generator(1.0, 1.0) == pytest.approx(0.5, abs=1e-12)


def test_generator_perfect_negative_dependence():
    # linear generator 1 - u, clamped at zero
    assert generator(0.3, -1.0) == pytest.approx(0.7, abs=1e-12)
    assert generator(2.0, -1.0) == 0.0


def test_generator_domain_errors():
    with pytest.raises(ValueError):
        generator(-0.1, 1.0)
    with pytest.raises(ValueError):
        generator(1.0, -1.5)
    with pytest.raises(ValueError):
        generator(1.0, -2.0)


@pytest.mark.parametrize("theta", THETAS)
def test_generator_nonincreasing_and_convex(theta):
    u = np.linspace(0.0, 3.0, 61)
    phi = generator(u, theta)
    assert np.all(np.diff(phi) <= 1e-15)
    mid = generator(0.5 * (u[:-2] + u[2:]), theta)
    assert np.all(mid <= 0.5 * (phi[:-2] + phi[2:]) + 1e-12)


# ---------------------------------------------------------------------------
# generator_inverse and its derivative
# ---------------------------------------------------------------------------


def test_inverse_examples():
    assert generator_inverse(1.0, 2.3) == 0.0
    assert generator_inverse(1.0, 8.0) == 0.0
    assert generator_inverse(0.5, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert generator_inverse(0.5, 0.0) == pytest.approx(math.log(2.0), abs=1e-12)


def test_inverse_domain_errors():
    for bad in (0.0, -0.2, 1.0001, np.nan, [0.5, np.nan]):
        for f in (generator_inverse, generator_inverse_deriv):
            with pytest.raises(ValueError, match="argument s must lie in"):
                f(bad, 1.0)
    for f in (generator_inverse, generator_inverse_deriv):
        with pytest.raises(ValueError, match=r"^theta must be a finite number >= -1, got -2.0$"):
            f(0.5, -2.0)


@pytest.mark.parametrize("theta", THETAS)
def test_round_trip(theta):
    s = np.arange(0.01, 1.0, 0.01)
    back = generator(generator_inverse(s, theta), theta)
    assert np.max(np.abs(back - s)) <= 1e-10


def test_deriv_examples():
    assert generator_inverse_deriv(1.0, 0.0) == pytest.approx(-1.0, abs=1e-12)
    assert generator_inverse_deriv(0.5, 1.0) == pytest.approx(-4.0, abs=1e-12)
    assert generator_inverse_deriv(0.25, 0.0) == pytest.approx(-4.0, abs=1e-12)


@pytest.mark.parametrize("theta", THETAS)
def test_deriv_matches_finite_differences(theta):
    s = np.arange(0.05, 1.0, 0.05)
    h = 1e-6
    fd = (generator_inverse(s + h, theta) - generator_inverse(s - h, theta)) / (2 * h)
    exact = generator_inverse_deriv(s, theta)
    assert np.max(np.abs(fd / exact - 1.0)) < 1e-6


def test_deriv_ratio_strictly_increasing():
    # deriv(s, t1) / deriv(s, t2) = s**(t2 - t1), increasing on (0, 1] for t1 < t2
    s = np.linspace(0.05, 1.0, 40)
    for t1, t2 in [(-1.0, 0.0), (0.0, 1.0), (1.0, 8.0), (-0.5, 2.0)]:
        ratio = generator_inverse_deriv(s, t1) / generator_inverse_deriv(s, t2)
        assert np.all(np.diff(ratio) > 0)
        assert np.allclose(ratio, s ** (t2 - t1), rtol=1e-10)


# ---------------------------------------------------------------------------
# tau map
# ---------------------------------------------------------------------------


def test_tau_examples():
    assert tau_from_theta(8.0) == pytest.approx(0.8, abs=1e-12)
    assert theta_from_tau(0.8) == pytest.approx(8.0, abs=1e-12)
    assert tau_from_theta(0.0) == 0.0
    assert tau_from_theta(-1.0) == -1.0


def test_tau_round_trip_and_monotone():
    thetas = np.array(THETAS)
    taus = np.array([tau_from_theta(t) for t in thetas])
    assert np.all(np.diff(taus) > 0)
    for t in thetas:
        assert theta_from_tau(tau_from_theta(t)) == pytest.approx(t, abs=1e-12)


def test_tau_domain_error():
    with pytest.raises(ValueError):
        theta_from_tau(1.0)
    with pytest.raises(ValueError, match=r"^theta must be a finite number >= -1, got nan$"):
        tau_from_theta(math.nan)


@given(st.floats(min_value=-0.999, max_value=0.999))
@settings(max_examples=50, deadline=None)
def test_tau_round_trip_fuzz(tau):
    assert theta_from_tau(tau) >= -1.0
    assert tau_from_theta(theta_from_tau(tau)) == pytest.approx(tau, abs=1e-12)


# ---------------------------------------------------------------------------
# conditional sampling transform
# ---------------------------------------------------------------------------


def test_conditional_independence():
    assert conditional_v_given_u(0.4, 0.7, 0.0) == 0.7


def test_conditional_comonotone_limit():
    assert conditional_v_given_u(0.37, 0.9, 1e4) == pytest.approx(0.37, abs=1e-2)


@pytest.mark.parametrize("theta", [-0.9, -0.5, -0.1, 0.5, 2.0, 8.0])
def test_conditional_resubstitution(theta):
    u = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    w = np.array([0.2, 0.3, 0.5, 0.6, 0.5, 0.2, 0.8, 0.9, 0.95])
    v = conditional_v_given_u(u, w, theta)
    back = clayton_conditional_cdf(u, v, theta)
    assert np.max(np.abs(back - w)) < 1e-8


def test_conditional_countermonotone():
    # theta = -1 forces v = 1 - u regardless of w
    v = conditional_v_given_u(0.3, 0.51, -1.0)
    assert v == pytest.approx(0.7, abs=1e-9)


def test_conditional_domain_errors():
    # NaN fails the check before numpy could warn about it
    for u, w in ((0.0, 0.5), (0.5, 1.0), (np.nan, 0.5), (0.5, np.nan), ([0.5, np.nan], 0.5)):
        with pytest.raises(ValueError, match="open interval"):
            conditional_v_given_u(u, w, 1.0)


@given(
    st.floats(min_value=-0.95, max_value=8.0),
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=0.01, max_value=0.99),
)
@settings(max_examples=60, deadline=None)
def test_conditional_fuzz_in_unit_interval(theta, u, w):
    v = conditional_v_given_u(u, w, theta)
    assert 0.0 < v < 1.0



@pytest.mark.parametrize("thetas", [
    [-1.0, -0.5, 1e-9, 0.0, -1e-9, 2.0, 30.0],  # with the exp(-u) branch
    [-1.0, -0.5, 0.3, 2.0, 30.0],               # without it
])
def test_generator_core_equals_the_checked_formula(thetas):
    # the unchecked log-scale core, on a column of thetas against a 2-d u,
    # has the bits of the formula with the theta = 0 limit applied per
    # element, and the checked generator those of its exp
    u = np.random.default_rng(3).exponential(1.0, (1, 200)) * np.array([[1.0]] * len(thetas))
    u[:, :3] = [0.0, 0.5, 4.0]
    col = np.array(thetas).reshape(-1, 1)
    zero = np.abs(col) < THETA_ZERO_TOL
    safe = np.where(zero, 1.0, col)
    with np.errstate(divide="ignore"):
        log_expected = -np.log(np.maximum(1.0 + safe * u, 0.0)) / safe
    log_expected = np.where(zero, -u, log_expected)
    assert _log_generator(u, col).tobytes() == log_expected.tobytes()
    got = generator(u, col)
    assert got.tobytes() == np.exp(log_expected).tobytes()
    assert got[0, 2] == 0.0  # theta = -1 clamps at zero from u = 1 on
