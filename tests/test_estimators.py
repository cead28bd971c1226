"""Tests for the regression stage, the distance criteria, and both fitters."""

import functools

import numpy as np
import pytest

from coprisk.cge import copula_graphic
from coprisk.data import Dataset, stratify
from coprisk.errors import EstimationError
from coprisk.estimators import (
    FglsFit,
    _b_matrix,
    _coef_variance,
    _cvm_plan,
    _cvm_value,
    _kept_log_hazards,
    _pair_structure,
    _regression,
    _row_values,
    _search_tau,
    _smooth_window,
    _solve,
    _variance_plan,
    fgls_fit,
    fit_2se,
    fit_3se,
    smooth_curve_values,
    three_stage_point,
    two_stage_point,
)
from coprisk.first_stage import StepFunction, overall_survival, sub_distribution
from coprisk.inference import substream_rng
from coprisk.marginals import AftModel, PhModel, inverse_survival, survival
from coprisk.simulate import DgpSpec, generate_dataset

from oracles import padded_window_mean, semiparam_b

BENCH = dict(alpha=1.0, beta=[1.0], sigma=1.5)


def noiseless_dataset(family, n=240, seed=42, alpha=1.0, beta=1.0, sigma=None):
    """Durations whose exact survival values are known and clamp-safe."""
    if sigma is None:
        sigma = 1.0 if family == "exponential" else 1.5
    model = AftModel(family, alpha, [beta], sigma)
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.002, 0.998, n)
    z = rng.integers(0, 2, (n, 1)).astype(float)
    x = inverse_survival(model, u, z)
    return Dataset(x, np.ones(n, dtype=int), z), u, model


# ---------------------------------------------------------------------------
# regression stage
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", ["exponential", "weibull", "loglogistic", "lognormal"])
def test_fgls_noiseless_recovery(family):
    ds, s_exact, model = noiseless_dataset(family)
    fitted = fgls_fit(ds, s_exact, family).model()
    assert fitted.alpha == pytest.approx(model.alpha, abs=1e-8)
    assert fitted.beta[0] == pytest.approx(model.beta[0], abs=1e-8)
    assert fitted.sigma == pytest.approx(model.sigma, abs=1e-8)


def test_fgls_two_point_exponential():
    # intercept-only line fit through two exact points of s = exp(-2x)
    x = np.array([1.0, 2.0])
    ds = Dataset(x, [1, 1])
    fit = fgls_fit(ds, np.exp(-2.0 * x), "exponential")
    assert fit.model().alpha == pytest.approx(2.0, abs=1e-10)


def test_fgls_rank_deficiency():
    ds, _, _ = noiseless_dataset("weibull", n=30)
    with pytest.raises(EstimationError, match="rank deficient"):
        fgls_fit(ds, np.full(ds.n, 0.5), "weibull")


def test_fgls_scale_consistency():
    ds, s_exact, _ = noiseless_dataset("weibull")
    base = fgls_fit(ds, s_exact, "weibull").model()
    scaled_ds = Dataset(3.0 * ds.x, ds.delta, ds.z)
    scaled = fgls_fit(scaled_ds, s_exact, "weibull").model()
    assert scaled.alpha == pytest.approx(base.alpha / 3.0, abs=1e-10)
    assert scaled.beta[0] == pytest.approx(base.beta[0], abs=1e-10)
    assert scaled.sigma == pytest.approx(base.sigma, abs=1e-10)


def test_fgls_clamp_diagnostic():
    ds, s_exact, _ = noiseless_dataset("weibull")
    s = s_exact.copy()
    s[:3] = 1.0 - 1e-9  # outside the clamp bounds
    fit = fgls_fit(ds, s, "weibull")
    assert fit.n_clamped == 3


def test_ph_weibull_noiseless_recovery():
    # the PH form of the regression kernel, as the three-stage plan runs it
    model = PhModel("weibull", 1.0, [0.8], 1.5)
    rng = np.random.default_rng(7)
    x = rng.uniform(0.05, 3.0, 200)
    z = rng.integers(0, 2, (200, 1)).astype(float)
    s = survival(model, x, z)
    coef = _solve(_regression("weibull", "ph", np.log(x), z), s)
    fitted = FglsFit("weibull", "ph", coef, 0).model()
    assert isinstance(fitted, PhModel)
    assert fitted.alpha == pytest.approx(1.0, abs=1e-8)
    assert fitted.beta[0] == pytest.approx(0.8, abs=1e-8)
    assert fitted.sigma == pytest.approx(1.5, abs=1e-8)


# ---------------------------------------------------------------------------
# distance criterion
# ---------------------------------------------------------------------------


def test_cvm_perfect_fit_is_zero():
    # per-row curve values equal to the true survival fit the model exactly
    ds, _, model = noiseless_dataset("weibull", n=120)
    plan = _cvm_plan(ds, "weibull", "aft", smooth_knots=0)
    s_exact = survival(model, ds.x, ds.z)
    value, _, _, _ = _cvm_value(plan, s_exact, False)
    assert value <= 1e-18


def test_cvm_trace_is_finite_on_simulated_data():
    spec = DgpSpec(
        n=400,
        tau=0.5,
        model_t=AftModel("weibull", **BENCH),
        model_c=AftModel("weibull", **BENCH),
    )
    ds = generate_dataset(spec, 11)
    res = fit_3se(ds, "weibull", tau_grid=np.linspace(-0.9, 0.9, 13))
    values = np.array([v for _, v in res.objective_trace])
    assert np.all(np.isfinite(values))


def one_event_dataset():
    """30 rows in two strata, only one of them a cause-1 failure."""
    rng = np.random.default_rng(3)
    delta = np.zeros(30, dtype=int)
    delta[4] = 1
    return Dataset(rng.uniform(0.1, 3.0, 30), delta, (np.arange(30) % 2).astype(float))


@pytest.mark.parametrize("model_kind", ["aft", "ph"])
def test_single_cause1_row_is_an_estimation_error(model_kind):
    # a one-row regression is an estimation failure that the bootstrap and the
    # Monte Carlo harness skip, not a malformed dataset
    with pytest.raises(EstimationError, match="criterion failed at every grid point: "
                       "regression needs more than 3 rows, got 1"):
        fit_3se(one_event_dataset(), "weibull", model_kind=model_kind)


# ---------------------------------------------------------------------------
# presmoothing
# ---------------------------------------------------------------------------


def noisy_curve(size, seed, tail=1e-3):
    """A nonincreasing curve in [0, 1] that stays near 1 at first and falls
    to about tail, with plug-in-like noise and exact zeros in its last knots."""
    rng = np.random.default_rng(seed)
    steps = np.cumsum(rng.exponential(1.0, size))
    log_values = np.log(tail) * (steps / steps[-1]) ** 3 + rng.normal(0.0, 1e-3, size)
    values = np.minimum.accumulate(np.exp(np.minimum(log_values, 0.0)))
    values[-max(1, size // 200):] = 0.0
    return values


@pytest.mark.parametrize("size, window", [
    (40, 0), (40, 1), (2, 5), (1, 5),     # returned unchanged
    (40, 2), (40, 3), (40, 7), (40, 8),   # even and odd windows
    (40, 40), (40, 41), (40, 400),        # window at or past the curve's size
    (3, 2), (3, 3), (4, 9),
])
def test_smoother_matches_padded_window_mean(size, window):
    values = noisy_curve(size, seed=size)
    smoothed = smooth_curve_values(values, window)
    np.testing.assert_allclose(smoothed, padded_window_mean(values, window), rtol=0, atol=1e-12)
    if window <= 1 or size < 3:
        assert smoothed is values


@pytest.mark.parametrize("window", [459, 4684])
def test_smoother_matches_padded_window_mean_on_a_long_curve(window):
    # 35128 knots is the largest stratum of the n = 100000 benchmark sample;
    # its default window is 459, and 4684 without the cap.  The running sums
    # reach about 12000, so each difference of two carries an absolute
    # rounding error of a few 1e-12, divided by the window.
    values = noisy_curve(35_128, seed=window, tail=1e-8)
    smoothed = smooth_curve_values(values, window)
    expected = padded_window_mean(values, window)
    np.testing.assert_allclose(smoothed, expected, rtol=0, atol=1e-12)
    assert 0.0 < expected[-1] < 1e-7
    assert np.all(np.diff(smoothed) <= 0.0)


@pytest.mark.parametrize("n_knots, smooth_knots, window", [
    (761, None, 101),     # largest n = 2000 benchmark stratum: 2K/15, uncapped
    (1076, None, 143),    # 2K/15 = 14 K^(1/3) near here; both round to 143
    (1083, None, 144),
    (1084, None, 144),    # first capped: round(2K/15) = 145
    (35_128, None, 459),  # largest n = 100000 stratum: 14 K^(1/3), not 4684
    (35_128, 4684, 4684),  # an explicit window is not capped
    (35_128, 0, 1),
    (5, None, 1),
])
def test_smooth_window(n_knots, smooth_knots, window):
    assert _smooth_window(n_knots, smooth_knots) == window


# ---------------------------------------------------------------------------
# dependence search
# ---------------------------------------------------------------------------


def two_minimum_criterion(fail_at=()):
    """Minima at tau = -0.2 (value 0.05) and tau = 0.6 (value 0)."""

    def criterion(tau):
        if any(abs(tau - t) < 1e-9 for t in fail_at):
            raise EstimationError("fails here")
        return min((tau + 0.2) ** 2 + 0.05, (tau - 0.6) ** 2)

    return criterion


def test_search_tau_reports_grid_local_minima():
    grid = np.linspace(-0.9, 0.9, 19)
    criterion = two_minimum_criterion(fail_at=(0.2,))
    tau_hat, _, n_failed, minima = _search_tau(criterion, grid)
    assert tau_hat == pytest.approx(0.6, abs=1e-4)
    assert n_failed == 1
    assert minima == pytest.approx((-0.2, 0.6), abs=1e-12)
    # a failed neighbour hides a minimum: it is not below both finite neighbours
    _, _, _, minima = _search_tau(two_minimum_criterion(fail_at=(0.5,)), grid)
    assert minima == pytest.approx((-0.2,), abs=1e-12)


# ---------------------------------------------------------------------------
# three-stage fitter
# ---------------------------------------------------------------------------


def test_fit_3se_recovers_benchmark_dependence():
    spec = DgpSpec(
        n=2000,
        tau=0.8,
        model_t=AftModel("weibull", **BENCH),
        model_c=AftModel("weibull", **BENCH),
    )
    ds = generate_dataset(spec, substream_rng(1, 0))
    res = fit_3se(ds, "weibull")
    assert abs(res.tau_hat - 0.8) < 0.25
    assert abs(res.model.beta[0] - 1.0) < 0.25
    assert res.theta_hat == pytest.approx(2 * res.tau_hat / (1 - res.tau_hat))
    assert -0.9 <= res.tau_hat <= 0.9
    assert res.kept_n == ds.n
    assert set(res.diagnostics) == {
        "n_clamped", "mean_gap", "n_grid_failed", "grid_local_minima"
    }
    assert all(-0.9 < t < 0.9 for t in res.diagnostics["grid_local_minima"])


def test_fit_3se_deterministic():
    spec = DgpSpec(
        n=500,
        tau=0.3,
        model_t=AftModel("weibull", **BENCH),
        model_c=AftModel("weibull", **BENCH),
    )
    ds = generate_dataset(spec, 5)
    first = fit_3se(ds, "weibull")
    second = fit_3se(ds, "weibull")
    assert first.tau_hat == second.tau_hat
    assert first.objective_trace == second.objective_trace
    assert first.model.alpha == second.model.alpha


def test_fit_3se_all_censored_fails():
    x = np.linspace(0.5, 5.0, 40)
    ds = Dataset(x, np.zeros(40, dtype=int))
    with pytest.raises(EstimationError, match="every grid point"):
        fit_3se(ds, "weibull")


def test_fit_3se_grid_validation():
    ds, s_exact, _ = noiseless_dataset("weibull", n=40)
    with pytest.raises(ValueError):
        fit_3se(ds, "weibull", tau_grid=[])
    with pytest.raises(ValueError):
        fit_3se(ds, "weibull", tau_grid=[0.0, 1.0])
    with pytest.raises(ValueError):
        fit_3se(ds, "loglogistic", model_kind="ph", tau_grid=[0.0])  # family mismatch
    with pytest.raises(ValueError):
        fit_3se(ds, "weibull", model_kind="median")


def test_fit_3se_ph_variant_runs():
    spec = DgpSpec(
        n=800,
        tau=0.5,
        model_t=AftModel("weibull", **BENCH),
        model_c=AftModel("weibull", **BENCH),
    )
    ds = generate_dataset(spec, 21)
    res = fit_3se(ds, "weibull", model_kind="ph", tau_grid=np.linspace(-0.6, 0.8, 8))
    assert isinstance(res.model, PhModel)
    assert res.model.sigma > 0


def test_survival_of_a_ph_model_is_the_ph_closed_form():
    # survival reads the hazard form from the model type: exp(-(alpha t)^sigma e^{z'b})
    def closed_form(m, t, z):
        return np.exp(-((m.alpha * t) ** m.sigma) * np.exp(z @ m.beta))

    t = np.linspace(0.05, 3.0, 40)
    z = (np.arange(40) % 2).astype(float).reshape(-1, 1)
    model = PhModel("weibull", 0.8, [0.9], 1.4)
    np.testing.assert_allclose(survival(model, t, z), closed_form(model, t, z),
                               rtol=1e-12, atol=0)
    spec = DgpSpec(n=2000, tau=0.8, model_t=AftModel("weibull", **BENCH),
                   model_c=AftModel("weibull", **BENCH))
    res = fit_3se(generate_dataset(spec, 1), "weibull", model_kind="ph")
    np.testing.assert_allclose(survival(res.model, t, z), closed_form(res.model, t, z),
                               rtol=1e-12, atol=0)


def test_fit_3se_mse_shrinks_with_sample_size():
    spec_small = DgpSpec(
        n=500,
        tau=0.8,
        model_t=AftModel("weibull", **BENCH),
        model_c=AftModel("weibull", **BENCH),
    )
    spec_large = DgpSpec(
        n=2000,
        tau=0.8,
        model_t=AftModel("weibull", **BENCH),
        model_c=AftModel("weibull", **BENCH),
    )
    errs = {}
    for label, spec in (("small", spec_small), ("large", spec_large)):
        taus = []
        for r in range(12):
            ds = generate_dataset(spec, substream_rng(77, r))
            taus.append(fit_3se(ds, "weibull").tau_hat)
        errs[label] = float(np.mean((np.array(taus) - 0.8) ** 2))
    assert errs["large"] < errs["small"]


def test_fit_3se_identifies_dependence_without_covariates():
    """The parametric model is identified without a covariate.

    At n = 2000 (100 replicates, seed 20250809) the default fit's RMS error
    of tau around 0.5 is 0.188 and of sigma around 1.5 is 0.075.  Scaled by
    sqrt(2000 / 20000) and tripled, rounded up to the next hundredth, they
    give the tolerances.  A fixed fraction-of-knots presmoothing window
    picked a second minimum near tau = 0 here, with sigma about 1.24.
    """
    model = AftModel("weibull", 1.0, [], 1.5)
    spec = DgpSpec(n=20_000, tau=0.5, model_t=model, model_c=model)
    for r in range(2):
        res = fit_3se(generate_dataset(spec, substream_rng(20250809, r)), "weibull")
        assert abs(res.tau_hat - 0.5) <= 0.18
        assert abs(res.model.sigma - 1.5) <= 0.08
        assert res.model.beta.size == 0


def test_three_stage_point_keys():
    ds = generate_dataset(
        DgpSpec(
            n=400,
            tau=0.5,
            model_t=AftModel("weibull", **BENCH),
            model_c=AftModel("weibull", **BENCH),
        ),
        3,
    )
    out = three_stage_point(ds, "weibull", tau_grid=np.linspace(-0.5, 0.8, 6))
    assert set(out) == {"tau", "alpha", "sigma", "beta1"}


# ---------------------------------------------------------------------------
# two-stage fitter
# ---------------------------------------------------------------------------


def ph_power_curves(beta=0.7, z1=0.0, z2=1.0):
    """Two stratum curves satisfying the exact PH power relation."""
    times = np.array([0.5, 1.0, 1.5, 2.0, 2.5])
    s1 = np.array([0.9, 0.75, 0.6, 0.45, 0.3])
    s2 = s1 ** np.exp(beta * (z2 - z1))
    return StepFunction(times, s1, 1.0), StepFunction(times, s2, 1.0)


def test_semiparam_b_ph_identity():
    c1, c2 = ph_power_curves(beta=0.7)
    assert semiparam_b(1.2, c1, c2, 0.0, 1.0) == pytest.approx(0.7, abs=1e-12)


def test_semiparam_b_equal_curves():
    c1, _ = ph_power_curves()
    assert semiparam_b(1.2, c1, c1, 0.0, 1.0) == 0.0


def test_semiparam_b_boundary_error():
    c1, c2 = ph_power_curves()
    with pytest.raises(EstimationError, match="undefined"):
        semiparam_b(0.1, c1, c2, 0.0, 1.0)  # both curves still at 1
    with pytest.raises(ValueError):
        semiparam_b(1.2, c1, c2, 1.0, 1.0)  # equal covariate values


def stratum_curves(ds, theta):
    """{level: copula_graphic curve} built the direct, per-theta way."""
    return {
        level: copula_graphic(
            overall_survival(ds.x[idx]), sub_distribution(ds.x[idx], ds.delta[idx]), theta
        )
        for level, idx in stratify(ds).items()
    }


def test_plan_values_equal_curve_lookups():
    model = AftModel("weibull", **BENCH)
    spec = DgpSpec(n=900, tau=0.8, model_t=model, model_c=model, p_z=0.4)
    ds2 = generate_dataset(spec, 31)
    # a third stratum, z = 2, without cause-1 events
    rng = np.random.default_rng(5)
    ds3 = Dataset(
        np.concatenate([ds2.x, rng.uniform(0.1, 3.0, 40)]),
        np.concatenate([ds2.delta, np.zeros(40, dtype=int)]),
        np.concatenate([ds2.z, np.full((40, 1), 2.0)]),
    )
    strata3 = stratify(ds3)
    strata2 = stratify(ds2)
    ref, others, _ = _pair_structure(strata2)
    plan2 = _variance_plan(ds2, strata2)
    x_kept = ds2.x[plan2.trim.kept]
    for theta in (-0.5, 0.0, 2.0, 8.0):
        curves = stratum_curves(ds3, theta)
        for smooth_knots in (None, 25, 0):
            rows = _row_values(_cvm_plan(ds3, "weibull", "aft", smooth_knots), theta)
            for level, idx in strata3.items():
                step = curves[level]
                values = step.values
                if smooth_knots is None or smooth_knots > 1:
                    window = _smooth_window(values.size, smooth_knots)
                    values = smooth_curve_values(values, window)
                smoothed = StepFunction(step.jump_times, values, 1.0)
                assert np.all(rows[idx] == smoothed.left_limit(ds3.x[idx]))
            assert np.all(rows[strata3.indices[2]] == 1.0)
        curves = stratum_curves(ds2, theta)
        log_l = _kept_log_hazards(plan2, theta)
        for j, values in zip((ref, *others), log_l):
            with np.errstate(divide="ignore"):
                expected = np.log(-np.log(curves[strata2.levels[j]](x_kept)))
            assert np.all(values == expected)


@pytest.mark.parametrize("p_z", [0.3, 0.7])  # reference stratum z = 0, then z = 1
def test_b_matrix_rows_equal_scalar_semiparam_b(p_z):
    model = AftModel("weibull", **BENCH)
    ds = generate_dataset(
        DgpSpec(n=1500, tau=0.8, model_t=model, model_c=model, p_z=p_z), 21
    )
    strata = stratify(ds)
    ref, _, _ = _pair_structure(strata)
    assert strata.levels[ref] == ((0.0,) if p_z < 0.5 else (1.0,))
    plan = _variance_plan(ds, strata)
    x_kept = ds.x[plan.trim.kept]
    for theta in (-0.5, 0.0, 2.0, 8.0):
        curves = stratum_curves(ds, theta)
        log_l = _kept_log_hazards(plan, theta)
        b = _b_matrix(log_l, plan.diffs_pinv, plan.contrasts, plan.b)
        assert b.shape == (x_kept.size, 1)
        expected = [
            semiparam_b(x, curves[(0.0,)], curves[(1.0,)], 0.0, 1.0)
            for x in x_kept
        ]
        np.testing.assert_allclose(b[:, 0], expected, rtol=0, atol=1e-12)


def _variance_fixture(b_values):
    # two strata's log cumulative hazards at three kept rows whose
    # coefficients are exactly b_values; the single contrast z1 - z0 = 1
    log_l0 = np.log([0.2, 0.4, 0.6])
    log_l = np.stack([log_l0, log_l0 + np.asarray(b_values)])
    return log_l, np.linalg.pinv(np.array([[1.0]])), np.empty((3, 1)), np.empty((3, 1))


def test_variance_objective_hand_value():
    b = _b_matrix(*_variance_fixture([1.0, 2.0, 3.0]))
    assert _coef_variance(b) == pytest.approx(1.0, abs=1e-10)


def test_b_matrix_rejects_curve_value_one():
    # log(-log 1) = -inf: a kept row where a curve has not left 1
    log_l, *rest = _variance_fixture([1.0, 2.0, 3.0])
    log_l[1, 0] = -np.inf
    with pytest.raises(EstimationError, match="undefined"):
        _b_matrix(log_l, *rest)


def test_variance_objective_zero_for_ph_curves():
    b = _b_matrix(*_variance_fixture([0.7, 0.7, 0.7]))
    assert _coef_variance(b) <= 1e-20


def test_variance_objective_single_row_error():
    # the z = 0 stratum's only event at 2 is the z = 1 stratum's first-event
    # bound and its own last-event bound, so the window [2, 2] keeps one row
    x = np.array([2.0, 4.0, 1.0, 3.0])
    delta = np.array([1, 0, 1, 1])
    ds = Dataset(x, delta, [[0.0], [0.0], [1.0], [1.0]])
    with pytest.raises(EstimationError, match="fewer than 2"):
        fit_2se(ds)


def test_fit_2se_runs_and_is_deterministic():
    spec = DgpSpec(
        n=1200,
        tau=0.3,
        model_t=AftModel("weibull", **BENCH),
        model_c=AftModel("weibull", **BENCH),
    )
    ds = generate_dataset(spec, 13)
    first = fit_2se(ds)
    second = fit_2se(ds)
    assert first.tau_hat == second.tau_hat
    assert np.array_equal(first.beta_hat, second.beta_hat)
    assert first.x_double_star <= first.x_star
    assert 0 < first.kept_n <= ds.n
    assert first.beta_hat.shape == (1,)
    assert -0.9 <= first.tau_hat <= 0.9
    assert set(first.diagnostics) == {"n_grid_failed", "grid_local_minima"}


def test_fit_2se_requires_covariate_variation():
    x = np.linspace(0.2, 4.0, 60)
    delta = np.tile([1, 0], 30)
    with pytest.raises(EstimationError, match="covariate"):
        fit_2se(Dataset(x, delta))  # k = 0
    constant_z = np.ones((60, 1))
    with pytest.raises(EstimationError, match="covariate"):
        fit_2se(Dataset(x, delta, constant_z))


def test_two_stage_point_keys():
    ds = generate_dataset(
        DgpSpec(
            n=600,
            tau=0.5,
            model_t=AftModel("weibull", **BENCH),
            model_c=AftModel("weibull", **BENCH),
        ),
        9,
    )
    out = two_stage_point(ds, tau_grid=np.linspace(-0.5, 0.8, 6))
    assert set(out) == {"tau", "beta1"}
