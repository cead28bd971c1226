"""Tests for the copula-graphic curve and the support trimming rules."""

import numpy as np
import pytest

from coprisk.cge import copula_graphic, curve_basis, trim_support
from coprisk.data import Dataset
from coprisk.errors import EstimationError
from coprisk.first_stage import StepFunction, overall_survival, sub_distribution

from oracles import mixed_risk_sample, nelson_aalen_survival, study_design_sample


def curve_from_sample(x, delta, theta):
    return copula_graphic(overall_survival(x), sub_distribution(x, delta), theta)


def basis_from_sample(x, delta):
    return curve_basis(overall_survival(x), sub_distribution(x, delta))


def test_hand_example_independence():
    # one event at 1 out of two observations: S(1) = exp(-1/2)
    curve = curve_from_sample([1.0, 2.0], [1, 0], theta=0.0)
    assert curve(1.0) == pytest.approx(np.exp(-0.5), abs=1e-14)
    assert curve(0.99) == 1.0


def test_no_events_curve_is_one():
    curve = curve_from_sample([1.0, 2.0, 3.0], [0, 0, 0], theta=2.0)
    assert curve(100.0) == 1.0
    assert curve.jump_times.size == 0


def test_matches_nelson_aalen_oracle_at_independence():
    rng = np.random.default_rng(17)
    for _ in range(25):
        x, delta = mixed_risk_sample(rng, int(rng.integers(4, 31)))
        curve = curve_from_sample(x, delta, 0.0)
        grid = np.concatenate([x, x * 0.5, x * 1.5])
        worst = max(
            abs(curve(t) - nelson_aalen_survival(x, delta, t)) for t in grid
        )
        assert worst <= 1e-12


def test_evaluate_lookup_conventions():
    curve = curve_from_sample([1.0, 2.0, 3.0], [1, 1, 0], theta=1.0)
    assert curve(0.5) == 1.0
    at_jump = curve(1.0)
    assert at_jump < 1.0  # right-continuous: includes the jump at 1
    assert curve(100.0) == curve.final_value


def test_theta_ordering_on_study_design_samples():
    # pointwise nonincreasing in theta; strict somewhere in each sample
    rng = np.random.default_rng(99)
    thetas = [-0.5, 0.0, 1.0, 4.0, 8.0]
    for _ in range(15):
        x, delta = study_design_sample(rng)
        pi_hat = overall_survival(x)
        ft_hat = sub_distribution(x, delta)
        grid = np.sort(np.concatenate([x, x * 0.5, x * 1.5]))
        prev = None
        strict = False
        for theta in thetas:
            vals = copula_graphic(pi_hat, ft_hat, theta)(grid)
            if prev is not None:
                assert np.all(vals <= prev + 1e-12)
                strict = strict or bool(np.any(vals < prev - 1e-12))
            prev = vals
        assert strict


def test_dominates_observable_survival():
    rng = np.random.default_rng(3)
    for _ in range(10):
        x, delta = mixed_risk_sample(rng, 25)
        pi_hat = overall_survival(x)
        grid = np.sort(np.concatenate([x, x * 1.2]))
        for theta in (-0.5, 0.0, 2.0, 8.0):
            curve = copula_graphic(pi_hat, sub_distribution(x, delta), theta)
            assert np.all(curve(grid) >= pi_hat(grid) - 1e-12)


def test_nonstrict_generator_clamps_at_zero():
    # once the accumulated sum crosses the generator's support boundary
    # (-1/theta for theta < 0) the curve clamps at exactly zero
    pi_hat = StepFunction(np.array([1.0, 2.0]), np.array([0.1, 0.05]), initial_value=1.0)
    ft_hat = StepFunction(np.array([1.0, 2.0]), np.array([0.5, 1.0]), initial_value=0.0)
    curve = copula_graphic(pi_hat, ft_hat, -0.9)
    assert curve(1.0) > 0.0
    assert curve(2.0) == 0.0
    assert curve.final_value == 0.0


def test_diverging_integrand_reported():
    # inconsistent inputs: the overall survival hits 0 before an event time
    pi_hat = StepFunction(np.array([1.0]), np.array([0.0]), initial_value=1.0)
    ft_hat = StepFunction(np.array([1.0, 2.0]), np.array([0.25, 0.5]), initial_value=0.0)
    with pytest.raises(EstimationError, match="2.0"):
        copula_graphic(pi_hat, ft_hat, 1.0)


def _two_strata_dataset():
    # stratum z=0 events at {1, 2}; stratum z=1 events at {1.5, 3}
    x = np.array([1.0, 2.0, 2.5, 1.5, 3.0, 3.5])
    delta = np.array([1, 1, 0, 1, 1, 0])
    z = np.array([[0.0], [0.0], [0.0], [1.0], [1.0], [1.0]])
    return Dataset(x, delta, z)


def test_trim_support_rules():
    ds = _two_strata_dataset()
    basis_a = basis_from_sample(ds.x[:3], ds.delta[:3])
    basis_b = basis_from_sample(ds.x[3:], ds.delta[3:])
    trim = trim_support([basis_a, basis_b], ds)
    assert trim.x_star == 2.0  # stratum A plateaus after its last event
    assert trim.x_double_star == 1.5  # stratum B's curve is 1 before 1.5
    assert sorted(ds.x[trim.kept]) == [1.5, 2.0]


def test_trim_x_double_star_at_common_minimum():
    x = np.array([1.0, 2.0, 1.0, 3.0])
    delta = np.array([1, 1, 1, 1])
    ds = Dataset(x, delta, [[0.0], [0.0], [1.0], [1.0]])
    basis_a = basis_from_sample(x[:2], delta[:2])
    basis_b = basis_from_sample(x[2:], delta[2:])
    trim = trim_support([basis_a, basis_b], ds)
    assert trim.x_double_star == 1.0


def test_trim_requires_events_everywhere():
    ds = _two_strata_dataset()
    basis_a = basis_from_sample(ds.x[:3], ds.delta[:3])
    basis_none = basis_from_sample(ds.x[3:], [0, 0, 0])
    with pytest.raises(EstimationError, match="no cause-1 events"):
        trim_support([basis_a, basis_none], ds)


def test_trim_disjoint_supports():
    x = np.array([1.0, 1.2, 5.0, 6.0])
    delta = np.array([1, 1, 1, 1])
    ds = Dataset(x, delta, [[0.0], [0.0], [1.0], [1.0]])
    basis_a = basis_from_sample(x[:2], delta[:2])
    basis_b = basis_from_sample(x[2:], delta[2:])
    with pytest.raises(EstimationError, match="do not overlap"):
        trim_support([basis_a, basis_b], ds)


def test_all_events_incidence_complements_survivor():
    # without censoring the incidence jumps reconstruct the survivor exactly
    x = np.array([0.4, 1.1, 2.2, 3.3])
    delta = np.ones(4, dtype=int)
    pi_hat = overall_survival(x)
    ft_hat = sub_distribution(x, delta)
    grid = np.linspace(0.1, 4.0, 23)
    assert np.allclose(ft_hat(grid), 1.0 - pi_hat(grid), atol=1e-15)


def test_curve_is_immutable_value_object():
    curve = curve_from_sample([1.0, 2.0], [1, 0], 0.5)
    assert isinstance(curve, StepFunction)
    with pytest.raises(ValueError):
        curve.values[0] = 0.5
