"""Tests for the regression stage, the distance criteria, and both fitters."""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coprisk import cli, estimators
from coprisk.cge import (
    CURVE_OVERFLOW,
    CurveTable,
    TrimBounds,
    curves,
    log_curves,
    sorted_table,
)
from coprisk.data import Dataset, stratify
from coprisk.errors import EstimationError
from coprisk.estimators import (
    S_CLAMP,
    TAU_TOL,
    _GOLDEN,
    FglsFit,
    _brent,
    _covariate_term,
    _cvm_kernel,
    _cvm_plan,
    _cvm_value,
    _model_survival,
    _pair_structure,
    _regression,
    _row_values,
    _search_tau,
    _smooth_window,
    _solve,
    _thetas,
    _variance_plan,
    _variance_value,
    _VariancePlan,
    fgls_fit,
    fit_2se,
    fit_3se,
    smooth_curve_values,
    three_stage_point,
    two_stage_point,
)
from coprisk.inference import substream_rng
from coprisk.marginals import AftModel, PhModel, inverse_survival, survival
from coprisk.simulate import DgpSpec, generate_dataset

from oracles import (
    bounded_minimum,
    first_stage_table,
    lstsq_regression,
    padded_window_mean,
    semiparam_b,
    step_value,
)

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
    # the AFT layout of every family: (log alpha, beta', 1/sigma), here fixed
    assert fit.coef.shape == (2,) and fit.coef[-1] == 1.0
    assert fit.model().sigma == 1.0


def test_fgls_rank_deficiency():
    ds, _, _ = noiseless_dataset("weibull", n=30)
    with pytest.raises(EstimationError, match="rank deficient"):
        fgls_fit(ds, np.full(ds.n, 0.5), "weibull")


@pytest.mark.parametrize("family", ["exponential", "weibull"])
@pytest.mark.parametrize("value", [-0.1, 1.5, np.nan, np.inf, -np.inf])
def test_fgls_rejects_s_hat_outside_the_unit_interval(family, value):
    ds, s_exact, _ = noiseless_dataset(family, n=30)
    s = s_exact.copy()
    s[3] = value
    with pytest.raises(ValueError, match=r"^s_hat values must lie in \[0, 1\]$"):
        fgls_fit(ds, s, family)
    # the ends of the interval are clamped, not rejected
    s[3] = 0.0
    s[4] = 1.0
    assert fgls_fit(ds, s, family).n_clamped == 2


def test_fgls_rejects_a_wrong_length_s_hat():
    ds, s_exact, _ = noiseless_dataset("weibull", n=30)
    with pytest.raises(ValueError, match="^s_hat must supply one survival value per dataset row$"):
        fgls_fit(ds, s_exact[:-1], "weibull")


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
    coef, errors = _solve(_regression("weibull", "ph", np.log(x), z), s[None, :])
    assert errors == [None]
    fitted = FglsFit("weibull", "ph", coef[0], 0).model()
    assert isinstance(fitted, PhModel)
    assert fitted.alpha == pytest.approx(1.0, abs=1e-8)
    assert fitted.beta[0] == pytest.approx(0.8, abs=1e-8)
    assert fitted.sigma == pytest.approx(1.5, abs=1e-8)


def test_zero_slope_fails_its_theta_alone():
    # a theta whose fitted 1/sigma is exactly 0 gets a NaN survival row and
    # its own message; the other thetas' rows are those of one-theta calls
    rng = np.random.default_rng(5)
    log_x = np.log(rng.uniform(0.1, 3.0, 50))
    z = rng.integers(0, 2, (50, 1)).astype(float)
    strata = stratify(Dataset(np.exp(log_x), np.ones(50, dtype=int), z))
    levels = np.array(strata.levels, dtype=float)
    reg = _regression("weibull", "aft", log_x, z)
    coef = np.array([[0.1, 0.5, 0.8], [0.2, -0.3, 0.0], [-0.1, 0.4, 1.2]])
    errors = [None] * 3
    rows = _model_survival(reg, coef, log_x, levels, strata.codes, errors)
    assert errors == [None, "zero inverse shape in the fitted regression", None]
    assert np.isnan(rows[1]).all() and np.isfinite(rows[[0, 2]]).all()
    for i in (0, 2):
        one_errors = [None]
        one = _model_survival(reg, coef[i:i + 1], log_x, levels, strata.codes, one_errors)
        assert one_errors == [None]
        np.testing.assert_array_equal(rows[i], one[0])


REGRESSION_FORMS = [("exponential", "aft"), ("weibull", "aft"), ("loglogistic", "aft"),
                    ("lognormal", "aft"), ("weibull", "ph")]
SHAPE_FAMILIES = ["weibull", "loglogistic", "lognormal"]
RANK_DEFICIENT = ("design matrix is rank deficient (e.g. constant transformed "
                  "curve values or collinear covariates)")


def regression_sample(family, model_kind, m=300, seed=4):
    """log durations, two covariates and three rows of noisy survival values
    (a chunk of three thetas), so that the regression leaves residuals."""
    rng = np.random.default_rng(seed)
    z = np.column_stack([rng.integers(0, 2, m), rng.normal(0.0, 1.0, m)])
    sigma = 1.0 if family == "exponential" else 1.4
    model = (PhModel if model_kind == "ph" else AftModel)(family, 1.7, [0.6, -1.1], sigma)
    x = rng.uniform(0.05, 3.0, m)
    s = np.array([survival(model, x, z) * np.exp(rng.normal(0.0, scale, m))
                  for scale in (0.02, 0.05, 0.1)])
    return np.log(x), z, np.clip(s, 1e-6, 1.0 - 1e-6)


@pytest.mark.parametrize("family, model_kind", REGRESSION_FORMS)
def test_qr_solve_matches_lstsq_oracle(family, model_kind):
    log_x, z, s = regression_sample(family, model_kind)
    coef, errors = _solve(_regression(family, model_kind, log_x, z), s)
    assert errors == [None] * 3
    for row, c in zip(s, coef):
        np.testing.assert_allclose(c, lstsq_regression(family, model_kind, log_x, z, row),
                                   rtol=1e-10, atol=0)


@pytest.mark.parametrize("family", SHAPE_FAMILIES)
def test_qr_solve_fails_a_constant_curve_row_alone(family):
    # a constant transformed curve duplicates the intercept column; lstsq and
    # the residual-norm rule both call it rank deficient, and only its row fails
    log_x, z, s = regression_sample(family, "aft")
    s[1] = 0.5
    coef, errors = _solve(_regression(family, "aft", log_x, z), s)
    assert errors == [None, RANK_DEFICIENT, None]
    assert np.all(np.isnan(coef[1]))
    with pytest.raises(EstimationError, match="^design matrix is rank deficient"):
        lstsq_regression(family, "aft", log_x, z, s[1])
    for i in (0, 2):
        np.testing.assert_allclose(coef[i], lstsq_regression(family, "aft", log_x, z, s[i]),
                                   rtol=1e-10, atol=0)


@pytest.mark.parametrize("family", SHAPE_FAMILIES)
def test_qr_solve_fails_near_collinear_rows_as_lstsq_does(family):
    # curve rows ever closer to a constant (the intercept column) beside a
    # covariate of scale 1e6, so that the fixed columns' norm, not |v|, sets
    # lstsq's cut-off; a row's relative spread is 10^-2 ... 10^-15
    rng = np.random.default_rng(5)
    m = 200
    log_x = rng.normal(0.0, 1.0, m)
    z = np.column_stack([rng.integers(0, 2, m), 1e6 * rng.normal(0.0, 1.0, m)])
    spreads = 10.0 ** -np.arange(2, 16)
    s = 0.5 * (1.0 + spreads[:, None] * rng.normal(0.0, 1.0, (spreads.size, m)))
    coef, errors = _solve(_regression(family, "aft", log_x, z), s)
    oracle_errors = []
    for row, c in zip(s, coef):
        try:
            oracle = lstsq_regression(family, "aft", log_x, z, row)
        except EstimationError as exc:
            oracle_errors.append(str(exc))
            continue
        oracle_errors.append(None)
        # the rows near the cut-off are ill-conditioned
        np.testing.assert_allclose(c, oracle, rtol=1e-6, atol=0)
    assert errors == oracle_errors
    assert errors[:3] == [None] * 3 and errors[-3:] == [RANK_DEFICIENT] * 3


@pytest.mark.parametrize("family, model_kind", REGRESSION_FORMS)
def test_qr_solve_rejects_collinear_covariates(family, model_kind):
    log_x, z, s = regression_sample(family, model_kind)
    z = np.column_stack([z[:, 0], 2.0 * z[:, 0]])
    with pytest.raises(EstimationError) as ours:
        _solve(_regression(family, model_kind, log_x, z), s)
    with pytest.raises(EstimationError) as oracle:
        lstsq_regression(family, model_kind, log_x, z, s[0])
    assert str(ours.value) == str(oracle.value) == RANK_DEFICIENT


@pytest.mark.parametrize("family, model_kind", REGRESSION_FORMS)
def test_qr_solve_needs_more_rows_than_columns(family, model_kind):
    # two covariates: 4 columns in the PH and shape-family forms, 3 for the
    # exponential family
    p = 3 if family == "exponential" else 4
    log_x, z, s = regression_sample(family, model_kind, m=p)
    with pytest.raises(EstimationError) as ours:
        _solve(_regression(family, model_kind, log_x, z), s)
    with pytest.raises(EstimationError) as oracle:
        lstsq_regression(family, model_kind, log_x, z, s[0])
    assert str(ours.value) == str(oracle.value) == (
        f"regression needs more than {p} rows, got {p}")


# ---------------------------------------------------------------------------
# distance criterion
# ---------------------------------------------------------------------------


def test_cvm_perfect_fit_is_zero():
    # per-row curve values equal to the true survival fit the model exactly
    ds, _, model = noiseless_dataset("weibull", n=120)
    plan = _cvm_plan(ds, "weibull", "aft")
    s_exact = survival(model, ds.x, ds.z)
    values, errors, _, _ = _cvm_value(plan, s_exact[None, :])
    assert errors == [None]
    assert values[0] <= 1e-18


def signed_zeros(ds, first_negative):
    """ds with every other 0.0 of its first covariate column made -0.0,
    starting at the first zero if first_negative, else at the second."""
    z = ds.z.copy()
    zeros = np.flatnonzero(z[:, 0] == 0.0)
    z[zeros[0 if first_negative else 1::2], 0] = -0.0
    return Dataset(ds.x, ds.delta, z)


@pytest.mark.parametrize("make", [
    lambda: Dataset(batch_dataset().x, batch_dataset().delta),      # k = 0
    lambda: signed_zeros(batch_dataset(), first_negative=False),    # k = 1
    lambda: signed_zeros(batch_dataset(), first_negative=True),
    lambda: signed_zeros(six_strata_dataset(n=300, seed=2), first_negative=True),  # k = 2
])
@pytest.mark.parametrize("thetas", [16, 1])
def test_covariate_term_has_the_bits_of_the_row_product(make, thetas):
    # each row reads z'beta from its stratum's level, which keeps the sign of
    # the stratum's first zero; the row product sums from +0.0, so -0.0 and
    # 0.0 give the same bits
    ds = make()
    plan = _cvm_plan(ds, "weibull", "aft")
    assert plan.levels.shape == (stratify(ds).n_strata, ds.k)
    if ds.k:
        assert np.any(np.signbit(ds.z[:, 0]) & (ds.z[:, 0] == 0.0))
        assert np.any(~np.signbit(ds.z[:, 0]) & (ds.z[:, 0] == 0.0))
    coef = np.random.default_rng(thetas).normal(0.0, 2.0, (thetas, ds.k + 2))
    for beta in (coef[:, 1:-1], coef[:, 2:]):  # the AFT and the PH form
        term = _covariate_term(beta, plan.levels, plan.codes)
        assert term.shape == (thetas, ds.n)
        assert term.tobytes() == (beta @ ds.z.T).tobytes()


def test_cvm_trace_is_finite_on_simulated_data():
    spec = DgpSpec(
        n=400,
        tau=0.5,
        model_t=AftModel("weibull", **BENCH),
        model_c=AftModel("weibull", **BENCH),
    )
    ds = generate_dataset(spec, 11)
    res = fit_3se(ds, "weibull")
    values = np.array([v for _, v in res.objective_trace])
    assert np.all(np.isfinite(values))


def one_event_dataset():
    """30 rows in two strata, only one of them a cause-1 failure."""
    rng = np.random.default_rng(3)
    delta = np.zeros(30, dtype=int)
    delta[4] = 1
    return Dataset(rng.uniform(0.1, 3.0, 30), delta, (np.arange(30) % 2).astype(float))


def counted_curve_calls(monkeypatch) -> list:
    """Each thetas argument of the fits' curves calls, in call order."""
    calls = []

    def counted(table, thetas):
        calls.append(thetas)
        return curves(table, thetas)

    monkeypatch.setattr("coprisk.estimators.curves", counted)
    return calls


@pytest.mark.parametrize("model_kind", ["aft", "ph"])
def test_single_cause1_row_is_an_estimation_error(monkeypatch, model_kind):
    # a one-row regression is an estimation failure that the bootstrap and the
    # Monte Carlo harness skip, not a malformed dataset; it does not depend on
    # theta, so the fit stops while its plan is built, before any curve
    calls = counted_curve_calls(monkeypatch)
    with pytest.raises(EstimationError, match="^regression needs more than 3 rows, got 1$"):
        fit_3se(one_event_dataset(), "weibull", model_kind=model_kind)
    assert calls == []


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
    # a (curves x knots) array is smoothed row by row
    rows = smooth_curve_values(np.stack([values, 0.5 * values]), window)
    np.testing.assert_array_equal(rows[0], smoothed)
    np.testing.assert_array_equal(rows[1], smooth_curve_values(0.5 * values, window))


def always_projected(values, window):
    """The presmoother with its running minimum on every curve: the window
    means from the same running sums, clipped into [0, 1] and projected."""
    size = values.shape[-1]
    if window <= 1 or size < 3:
        return values
    window = min(window, size)
    left = 1 + window // 2
    padded = np.concatenate([
        np.zeros(values.shape[:-1] + (1,)),
        np.repeat(values[..., :1], left - 1, axis=-1),
        values,
        np.repeat(values[..., -1:], window - left, axis=-1),
    ], axis=-1)
    sums = np.cumsum(padded, axis=-1)
    means = (sums[..., window:] - sums[..., :-window]) / window
    return np.minimum.accumulate(np.clip(means, 0.0, 1.0), axis=-1)


@st.composite
def smoother_inputs(draw):
    """One curve or a (curves x knots) array, each curve nonincreasing,
    with a rise somewhere, or all NaN, and a window from 1 to size + 2."""
    size = draw(st.integers(1, 30))
    n_rows = draw(st.sampled_from([None, 1, 2, 4]))
    rows = []
    for _ in range(n_rows or 1):
        kind = draw(st.sampled_from(["nonincreasing", "rising", "nan"]))
        if kind == "nan":
            rows.append(np.full(size, np.nan))
            continue
        values = np.array(draw(st.lists(st.floats(-0.25, 1.25), min_size=size, max_size=size)))
        if kind == "nonincreasing":
            values = np.sort(values)[::-1]
        rows.append(values)
    values = rows[0] if n_rows is None else np.array(rows)
    return values, draw(st.integers(1, size + 2))


@given(smoother_inputs())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_smoother_equals_the_always_projected_reference(case):
    # the running minimum is skipped on curves that never rise, where it is
    # the identity, so the result keeps the reference's bits
    values, window = case
    expected = always_projected(values, window)
    smoothed = smooth_curve_values(values, window)
    assert smoothed.shape == values.shape
    assert smoothed.tobytes() == expected.tobytes()


@pytest.mark.parametrize("window", [459, 4684])
def test_smoother_matches_padded_window_mean_on_a_long_curve(window):
    # 35128 knots is the largest stratum of the n = 100000 benchmark sample;
    # 4684 is its window of 2K/15 without a cap.  The running sums
    # reach about 12000, so each difference of two carries an absolute
    # rounding error of a few 1e-12, divided by the window.
    values = noisy_curve(35_128, seed=window, tail=1e-8)
    smoothed = smooth_curve_values(values, window)
    expected = padded_window_mean(values, window)
    np.testing.assert_allclose(smoothed, expected, rtol=0, atol=1e-12)
    assert 0.0 < expected[-1] < 1e-7
    assert np.all(np.diff(smoothed) <= 0.0)


SMOOTH_WINDOW_CASES = [
    (761, 101),     # largest n = 2000 benchmark stratum: 2K/15, uncapped
    (762, 101),     # first capped: round(2K/15) = 102
    (1076, 101),    # capped: round(2K/15) = 143, 144 and 145
    (1083, 101),
    (1084, 101),
    (35_128, 101),  # largest n = 100000 stratum: 101, not 4684
    (5, 1),
]


# each case keeps the id it had when a second argument, None for the rule,
# could fix the window
@pytest.mark.parametrize("n_knots, window", SMOOTH_WINDOW_CASES,
                         ids=[f"{k}-None-{w}" for k, w in SMOOTH_WINDOW_CASES])
def test_smooth_window(n_knots, window):
    assert _smooth_window(n_knots) == window


# ---------------------------------------------------------------------------
# dependence search
# ---------------------------------------------------------------------------


def two_minimum_kernel(fail_at=(), failures=None):
    """Minima at tau = -0.2 (value 0.05) and tau = 0.6 (value 0), scored
    for an array of thetas as the kernels do; each failed tau is appended to
    failures."""

    def kernel(thetas):
        taus = thetas / (thetas + 2.0)
        errors = ["fails here" if any(abs(tau - t) < 1e-9 for t in fail_at) else None
                  for tau in taus]
        values = np.minimum((taus + 0.2) ** 2 + 0.05, (taus - 0.6) ** 2)
        values[[e is not None for e in errors]] = np.nan
        if failures is not None:
            failures.extend(tau for tau, e in zip(taus, errors) if e is not None)
        return values, errors, -values

    return kernel


def test_search_tau_reports_grid_local_minima():
    grid = np.linspace(-0.9, 0.9, 19)
    for chunk in (1, 4, 19):
        failures = []
        tau_hat, _, (output,), diagnostics = _search_tau(
            two_minimum_kernel(fail_at=(0.2,), failures=failures), grid, chunk)
        assert tau_hat == pytest.approx(0.6, abs=1e-4)
        assert output == pytest.approx(-((tau_hat - 0.6) ** 2), abs=1e-15)
        assert failures == [pytest.approx(0.2, abs=1e-12)]
        assert diagnostics["n_grid_failed"] == 1
        assert diagnostics["grid_local_minima"] == pytest.approx((-0.2, 0.6), abs=1e-12)
        # a failed neighbour hides a minimum: it is not below both finite neighbours
        _, _, _, diagnostics = _search_tau(two_minimum_kernel(fail_at=(0.5,)), grid, chunk)
        assert diagnostics["grid_local_minima"] == pytest.approx((-0.2,), abs=1e-12)


def bowl(t):
    return (t - 0.3137) ** 2


# each case: f, the scored points a grid pass would seed (best first, then
# the bracket's other ends by value) and the minimiser (None: every point)
BRENT_CASES = {
    "quadratic": (bowl, (0.3, 0.35, 0.25), 0.3137),
    "quartic": (lambda t: (t - 0.3137) ** 4, (0.3, 0.35, 0.25), 0.3137),
    "asymmetric": (lambda t: math.exp(40.0 * (t - 0.2863)) - 40.0 * (t - 0.2863),
                   (0.3, 0.25, 0.35), 0.2863),
    "left edge": (lambda t: t, (0.25, 0.3), 0.25),
    "right edge": (lambda t: -t, (0.35, 0.3), 0.35),
    "failed above": (lambda t: math.inf if t > 0.33 else bowl(t), (0.3, 0.25, 0.35), 0.3137),
    "failed below": (lambda t: math.inf if t < 0.29 else (t - 0.2963) ** 2,
                     (0.3, 0.35, 0.25), 0.2963),
    "constant": (lambda t: 1.0, (0.3, 0.25, 0.35), None),
}


@pytest.mark.parametrize("seeded", [False, True], ids=["cold", "seeded"])
@pytest.mark.parametrize("case", BRENT_CASES)
def test_brent_matches_bounded_fminbound(case, seeded):
    f, points, minimiser = BRENT_CASES[case]
    lo, hi = min(points), max(points)
    evaluated = []

    def counted(t):
        evaluated.append(t)
        return f(t)

    if seeded:
        start = [(t, f(t)) for t in points]
    else:
        # a cold start: three copies of the bracket's golden-section point,
        # whose evaluation counts
        g = lo + _GOLDEN * (hi - lo)
        start = [(g, counted(g))] * 3
    x, fx = _brent(counted, lo, hi, start)
    oracle_x, oracle_fx, oracle_evals = bounded_minimum(f, lo, hi, TAU_TOL)
    assert fx == f(x) and lo <= x <= hi
    assert all(lo < t < hi for t in evaluated)
    if minimiser is not None:
        assert abs(x - minimiser) <= TAU_TOL
        assert abs(x - oracle_x) <= TAU_TOL
    else:
        assert fx == oracle_fx
    if seeded:
        # a seeded start takes no more evaluations than a cold one, and at
        # most 12 except where no parabola fits (a flat function): there
        # golden-section steps shrink the bracket by only 0.618 each
        assert len(evaluated) <= oracle_evals
        assert len(evaluated) <= (14 if case == "constant" else 12)
    else:
        # a cold start is fminbound itself
        assert x == pytest.approx(oracle_x, abs=1e-9)
        assert len(evaluated) == oracle_evals


def scratch_kernel(f, calls):
    """Scores taus by f, as the kernels score thetas.  Its output, each
    tau's (tau, value), is a view of one scratch array that the next call
    overwrites, as the 2SE contrasts are; each call's taus go to calls."""
    scratch = np.empty((64, 2))

    def kernel(thetas):
        taus = thetas / (thetas + 2.0)
        calls.append(taus)
        values = np.array([f(t) for t in taus])
        out = scratch[:taus.size]
        out[:, 0], out[:, 1] = taus, values
        return values, [None] * taus.size, out

    return kernel


@pytest.mark.parametrize("chunk", [1, 16, 37])
@pytest.mark.parametrize("f, tau_hat", [
    (bowl, None),                          # between grid points: a refinement probe
    (lambda t: (t - 0.3) ** 2, 0.3),       # on a grid point, inside a chunk of 16
    (lambda t: t, -0.9),                   # at the grid's lower edge
    (lambda t: -t, 0.9),                   # at the upper edge, a chunk of 5 at 16
], ids=["probe", "grid-point", "lower-edge", "upper-edge"])
def test_search_keeps_the_best_evaluation(f, tau_hat, chunk):
    grid = np.linspace(-0.9, 0.9, 37)
    calls = []
    found, trace, (output,), _ = _search_tau(scratch_kernel(f, calls), grid, chunk)
    grid_calls = -(-grid.size // chunk)
    probes = [tau for tau, _ in trace if tau not in grid]
    # the grid pass, then one call per refinement probe and nothing after
    assert [c.size for c in calls[:grid_calls]] == [
        grid[s:s + chunk].size for s in range(0, grid.size, chunk)]
    assert len(calls) == grid_calls + len(probes) == grid_calls + len(trace) - grid.size
    assert all(c.size == 1 for c in calls[grid_calls:])
    assert sorted(c[0] for c in calls[grid_calls:]) == pytest.approx(sorted(probes), abs=1e-15)
    if tau_hat is None:
        assert abs(found - 0.3137) <= TAU_TOL and found in probes
    else:
        assert found == grid[np.argmin(np.abs(grid - tau_hat))]
    assert dict(trace)[found] == min(v for _, v in trace)
    # a kernel of its own, so that its call does not overwrite the output
    (fresh,) = scratch_kernel(f, [])(_thetas([found]))[2]
    np.testing.assert_allclose(output, fresh, rtol=1e-12, atol=0)


def test_a_failed_refinement_probe_is_nan_in_the_trace():
    # the criterion's minimum at tau = 0.62 lies where it fails, (0.6, 0.7),
    # so the refinement's probes above the grid point 0.6 fail; each is NaN
    # in the trace, as a failed grid point is, and none is tau_hat
    grid = np.linspace(-0.9, 0.9, 19)

    def kernel(thetas):
        taus = thetas / (thetas + 2.0)
        failed = (taus > 0.6 + 1e-9) & (taus < 0.7 - 1e-9)
        values = np.where(failed, np.nan, (taus - 0.62) ** 2)
        return values, ["fails here" if f else None for f in failed], -values

    tau_hat, trace, (output,), diagnostics = _search_tau(kernel, grid, 4)
    assert tau_hat == grid[15] and output == -dict(trace)[tau_hat]
    assert diagnostics["n_grid_failed"] == 0
    failed = [v for tau, v in trace if 0.6 < tau < 0.7]
    assert len(failed) >= 2 and all(math.isnan(v) for v in failed)
    assert all(math.isfinite(v) for tau, v in trace if not 0.6 < tau < 0.7)


@pytest.mark.parametrize("kind", ["3se", "2se"])
def test_search_returns_the_kernel_outputs_at_tau_hat(kind):
    ds = batch_dataset()
    grid = np.linspace(-0.9, 0.9, 37)

    def kernel_of(plan):
        if kind == "2se":
            return functools.partial(_variance_value, plan)
        return functools.partial(_cvm_kernel, plan)

    def plan_of():
        return _variance_plan(ds) if kind == "2se" else _cvm_plan(ds, "weibull", "aft")

    plan = plan_of()
    kernel, calls = kernel_of(plan), []

    def counted(thetas):
        calls.append(thetas.size)
        return kernel(thetas)

    tau_hat, trace, outputs, _ = _search_tau(counted, grid, 16)
    assert calls[:3] == [16, 16, 5] and calls[3:] == [1] * (len(trace) - grid.size)
    assert len(trace) <= grid.size + 8
    # a fresh plan: the 2SE contrasts are a view of its plan's scratch array
    _, (error,), *fresh = kernel_of(plan_of())(_thetas([tau_hat]))
    assert error is None
    for got, expected in zip(outputs, fresh):
        np.testing.assert_allclose(got, expected[0], rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# batched kernels: each row of a chunk is its own evaluation
# ---------------------------------------------------------------------------

# tau = 0 takes the generator's theta = 0 branch; in an amplified() table the
# curves at tau = -0.5 and -0.2 clamp at zero
BATCH_TAUS = np.array([-0.9, -0.5, -0.2, 0.0, 0.4, 0.8])
UNDEFINED = ("a curve value of 0 or 1 inside the trimmed window makes the "
             "coefficient undefined")


def amplified(table, power=4.0):
    """The curve table with pi_hat(u-) raised to a power.  Its curves at
    negative theta leave the generator's support and clamp at zero, which
    curves of a sample's own first stage never do."""
    return dataclasses.replace(table, log_pi_left=power * table.log_pi_left)


def batch_dataset():
    model = AftModel("weibull", **BENCH)
    return generate_dataset(DgpSpec(n=400, tau=0.8, model_t=model, model_c=model), 3)


def overflow_dataset():
    """The n = 2000 sample of `coprisk gen --seed 1`, whose larger stratum's
    curve overflows at tau = 0.98 and no lower grid tau."""
    model = AftModel("weibull", **BENCH)
    return generate_dataset(DgpSpec(n=2000, tau=0.8, model_t=model, model_c=model), 1)


def amplified_plan(plan):
    """The plan with its curve table amplified."""
    return dataclasses.replace(plan, table=amplified(plan.table))


def stratum_rows(strata):
    """Each stratum's rows, in ascending order."""
    return [np.flatnonzero(strata.codes == j) for j in range(strata.n_strata)]


def assert_rows_equal(batched, single):
    np.testing.assert_allclose(batched, single, rtol=1e-12, atol=0)


def test_curve_kernel_rows_equal_one_theta_calls():
    thetas = _thetas(BATCH_TAUS)
    assert thetas[3] == 0.0
    table = amplified_plan(_variance_plan(batch_dataset())).table
    batch = curves(table, thetas)
    assert batch.shape == (thetas.size, table.times.size)
    for i in range(thetas.size):
        assert_rows_equal(batch[i], curves(table, thetas[i:i + 1])[0])
    for span in table.spans:
        np.testing.assert_array_equal(batch[:, span.start], 1.0)
        assert np.any(batch[1, span] == 0.0) and np.any(batch[2, span] == 0.0)
        # a curve's values do not depend on the other curves of its table
        alone = CurveTable((slice(0, span.stop - span.start),), table.times[span],
                           table.log_pi_left[span], table.jumps[span])
        np.testing.assert_array_equal(batch[:, span], curves(alone, thetas))


def test_curve_kernel_rows_equal_copula_graphic():
    # one kernel over every stratum's curve gives each stratum's own
    # copula-graphic curve, one theta at a time from its first stage alone
    ds = six_strata_dataset(n=600)
    strata = stratify(ds)
    table, _ = sorted_table(ds, strata)
    thetas = _thetas(BATCH_TAUS)
    batch = curves(table, thetas)
    for idx, span in zip(stratum_rows(strata), table.spans):
        alone = first_stage_table(ds.x[idx], ds.delta[idx])
        np.testing.assert_array_equal(table.times[span], alone.times)
        for theta, row in zip(thetas, batch):
            assert row[span.start] == 1.0
            np.testing.assert_array_equal(row[span], curves(alone, [theta])[0])


@pytest.mark.parametrize("family, model_kind", [
    ("weibull", "aft"), ("lognormal", "aft"), ("exponential", "aft"), ("weibull", "ph"),
])
def test_cvm_kernel_rows_equal_one_theta_calls(family, model_kind):
    plan = amplified_plan(_cvm_plan(batch_dataset(), family, model_kind))
    assert plan.chunk >= BATCH_TAUS.size
    thetas = _thetas(BATCH_TAUS)
    rows, clamped = _row_values(plan, thetas)
    batch = _cvm_value(plan, rows)
    assert clamped[1] > 2 and clamped[2] > 2  # rows read a curve clamped at zero
    for i in range(thetas.size):
        one_rows, n_clamped = _row_values(plan, thetas[i:i + 1])
        assert_rows_equal(rows[i], one_rows[0])
        values, errors, coef, mean_gap = _cvm_value(plan, one_rows)
        assert errors == [None] and batch[1][i] is None
        assert_rows_equal(batch[0][i], values[0])
        assert_rows_equal(batch[2][i], coef[0])
        assert_rows_equal(batch[3][i], mean_gap[0])
        assert clamped[i] == n_clamped[0]


def test_table_clamp_equals_row_clamp():
    # the kernel clamps the table and then gathers the rows; clamping the
    # gathered rows instead gives the same values, and the plan's column
    # counts give the same numbers of clamped rows
    plan = amplified_plan(_cvm_plan(batch_dataset(), "weibull", "aft"))
    thetas = _thetas(BATCH_TAUS)
    rows, n_clamped = _row_values(plan, thetas)
    table = curves(plan.table, thetas)
    for span, window in zip(plan.table.spans, plan.windows):
        table[:, span.start + 1:span.stop] = smooth_curve_values(
            table[:, span.start + 1:span.stop], window)
    unclamped = np.take(table, plan.gather, axis=1)
    expected = np.clip(unclamped, S_CLAMP, 1.0 - S_CLAMP)
    assert rows.tobytes() == expected.tobytes()
    clamped = (unclamped < S_CLAMP) | (unclamped > 1.0 - S_CLAMP)
    np.testing.assert_array_equal(n_clamped, np.count_nonzero(clamped, axis=1))
    assert n_clamped.min() > 0 and n_clamped[1] > 2
    np.testing.assert_array_equal(plan.counts, np.bincount(plan.gather,
                                                           minlength=plan.table.times.size))


def test_variance_kernel_rows_equal_one_theta_calls():
    plan = amplified_plan(_variance_plan(batch_dataset()))
    assert plan.chunk >= BATCH_TAUS.size
    thetas = _thetas(BATCH_TAUS)
    values, errors, contrasts = _variance_value(plan, thetas)
    # the curves that clamp at zero read 0 inside the window
    assert errors == [None, UNDEFINED, UNDEFINED, None, None, None]
    assert np.all(np.isnan(values[1:3]))
    for i in (0, 3, 4, 5):
        one_values, one_errors, one_contrasts = _variance_value(plan, thetas[i:i + 1])
        assert one_errors == [None]
        assert_rows_equal(values[i], one_values[0])
        assert_rows_equal(contrasts[i], one_contrasts[0])


def test_underflowing_curve_scores_a_finite_value():
    # at theta = 0 exp(-u) underflows to a curve value of 0 inside the
    # trimmed window, which used to fail the theta; its log, -u, is finite
    plan = amplified_plan(_variance_plan(batch_dataset()))
    thetas = _thetas(BATCH_TAUS)
    assert thetas[3] == 0.0
    underflowed = curves(plan.table, thetas[3:4])[0][plan.columns] == 0.0
    log_s = log_curves(plan.table, thetas[3:4])[0][plan.columns]
    assert underflowed.any() and np.all(log_s[underflowed] < np.log(np.nextafter(0.0, 1.0)))
    values, errors, contrasts = _variance_value(plan, thetas)
    row = contrasts[3].copy()
    assert errors[3] is None and np.isfinite(values[3]) and np.all(np.isfinite(row))
    (one,), one_errors, (one_contrasts,) = _variance_value(plan, thetas[3:4])
    assert one_errors == [None]
    assert_rows_equal(values[3], one)
    assert_rows_equal(row, one_contrasts)


def test_failed_theta_keeps_its_chunk_mates():
    # 2SE: two thetas of one chunk fail in the curve transform
    plan = amplified_plan(_variance_plan(batch_dataset()))
    single = {tau: _variance_value(plan, _thetas([tau]))[0][0] for tau in BATCH_TAUS}
    grid_errors = _variance_value(plan, _thetas(BATCH_TAUS))[1]
    assert grid_errors == [None, UNDEFINED, UNDEFINED, None, None, None]
    _, trace, _, diagnostics = _search_tau(
        functools.partial(_variance_value, plan), BATCH_TAUS, BATCH_TAUS.size)
    assert diagnostics["n_grid_failed"] == 2
    on_grid = dict(t for t in trace if t[0] in single)
    for tau, value in single.items():
        np.testing.assert_allclose(on_grid[tau], value, rtol=1e-12, atol=0)

    # 3SE: one theta's transformed curve is constant, a rank deficient design
    plan = _cvm_plan(batch_dataset(), "weibull", "aft")

    theta_04 = _thetas([0.4])[0]

    def kernel(thetas):
        rows, _ = _row_values(plan, thetas)
        rows[thetas == theta_04] = 0.5
        return _cvm_value(plan, rows)

    single = {tau: kernel(_thetas([tau]))[0][0] for tau in BATCH_TAUS}
    grid_errors = kernel(_thetas(BATCH_TAUS))[1]
    assert grid_errors == [None, None, None, None, RANK_DEFICIENT, None]
    _, trace, _, diagnostics = _search_tau(kernel, BATCH_TAUS, BATCH_TAUS.size)
    assert diagnostics["n_grid_failed"] == 1
    assert np.isnan(single[0.4])
    on_grid = dict(t for t in trace if t[0] in single)
    for tau, value in single.items():
        np.testing.assert_allclose(on_grid[tau], value, rtol=1e-12, atol=0)


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


def test_fits_keep_their_recorded_values():
    # values recorded with the Brent refinement, exact: a faster plan or
    # kernel must not move a fit by one bit.  The 3SE half recorded with the
    # regression slope's einsum
    model = AftModel("weibull", **BENCH)
    ds = generate_dataset(DgpSpec(n=20000, tau=0.8, model_t=model, model_c=model), 3)
    res = fit_3se(ds, family="weibull")
    assert (res.tau_hat, res.theta_hat) == (0.796090269687223, 7.808261709395628)
    assert (res.model.alpha, res.model.beta[0], res.model.sigma) == (
        0.9996486546725295, 1.000031273080891, 1.4820087308036223)
    assert min(v for _, v in res.objective_trace) == 8.648566870162328e-06
    assert res.diagnostics["n_clamped"] == 2
    assert res.diagnostics["mean_gap"] == 0.0010236608585418709
    # the 2SE half recorded with the log-scale kernel (cge.log_curves)
    res = fit_2se(ds)
    assert (res.tau_hat, res.theta_hat) == (0.7919888230389316, 7.614867956707548)
    assert res.beta_hat.tolist() == [1.481387853181028]
    assert min(v for _, v in res.objective_trace) == 0.001462919714478048
    assert (res.x_star, res.x_double_star, res.kept_n) == (
        1.653704311476632, 0.0005584877074101576, 18422)


def assert_plan_columns_equal_searchsorted(ds, two_stage=True):
    """Both plans' table columns equal the curve's first column plus
    np.searchsorted over its knots: at the left limit of each row's own
    stratum (3SE), and right-continuously in every stratum at each kept
    row (2SE)."""
    strata = stratify(ds)
    plan = _cvm_plan(ds, "weibull", "aft")
    assert plan.gather.dtype == np.intp and plan.gather.shape == (ds.n,)
    for idx, span in zip(stratum_rows(strata), plan.table.spans):
        knots = plan.table.times[span.start + 1:span.stop]
        np.testing.assert_array_equal(
            plan.gather[idx], span.start + np.searchsorted(knots, ds.x[idx], side="left"))
    if not two_stage:
        return
    ref, others, _ = _pair_structure(strata)
    plan = _variance_plan(ds)
    x_kept = ds.x[plan.trim.kept]
    assert plan.columns.dtype == np.intp
    assert plan.columns.shape == (strata.n_strata, x_kept.size)
    for columns, j in zip(plan.columns, (ref, *others)):
        span = plan.table.spans[j]
        knots = plan.table.times[span.start + 1:span.stop]
        np.testing.assert_array_equal(
            columns, span.start + np.searchsorted(knots, x_kept, side="right"))


def test_knot_positions_equal_plain_searchsorted():
    rng = np.random.default_rng(8)
    knots = np.unique(rng.integers(1, 60, 25)).astype(float)
    assert knots.size == 23
    knot_sets = (knots, knots[:1], knots[:0], knots[5:9])  # 23, 1, 0 and 4 knots
    # each stratum's events on its knots; censored durations on every knot,
    # tied with each other, between and outside them
    censored = np.concatenate([knots, knots[::3], rng.integers(1, 62, 200) / 1.0,
                               rng.uniform(0.1, 65.0, 200), [0.5, 0.5, 70.0, 70.0]])
    parts = [(np.concatenate([k, censored]), np.repeat([1, 0], [k.size, censored.size]),
              np.full(k.size + censored.size, float(j))) for j, k in enumerate(knot_sets)]
    x, delta, z = (np.concatenate(column) for column in zip(*parts))
    order = rng.permutation(x.size)
    ds = Dataset(x[order], delta[order], z[order])
    table, _ = sorted_table(ds, stratify(ds))
    for span, k in zip(table.spans, knot_sets):
        np.testing.assert_array_equal(table.times[span], np.concatenate(([0.0], k)))
    assert_plan_columns_equal_searchsorted(ds, two_stage=False)
    # a stratum without knots has no curve to compare, so the two-stage
    # plan takes the strata with 23 and 4 knots
    assert_plan_columns_equal_searchsorted(ds.subset(np.flatnonzero(z[order] % 3 == 0)))


def rounded_dataset():
    """Durations rounded up to 0.1, so events and censorings tie within
    and across strata."""
    ds = overflow_dataset()
    return Dataset(np.ceil(ds.x * 10.0) / 10.0, ds.delta, ds.z)


def resampled_dataset():
    ds = overflow_dataset()
    return ds.subset(np.random.default_rng(4).integers(0, ds.n, ds.n))


def tied_first_dataset():
    """Two strata; each one's smallest duration is a censoring tied with an
    event, listed before it."""
    rng = np.random.default_rng(6)
    x = np.concatenate([[0.05, 0.05], rng.uniform(0.1, 2.0, 60),
                        [0.02, 0.02, 0.02], rng.uniform(0.1, 2.5, 60)])
    delta = np.concatenate([[0, 1], rng.integers(0, 2, 60), [0, 0, 1], rng.integers(0, 2, 60)])
    z = np.repeat([0.0, 1.0], [62, 63])
    return Dataset(x, delta, z)


LAYOUT_CASES = {
    "continuous": overflow_dataset,
    "resampled": resampled_dataset,
    "rounded": rounded_dataset,
    "six-strata": lambda: six_strata_dataset(),  # defined below
    "tied-first": tied_first_dataset,
}


@pytest.mark.parametrize("make", LAYOUT_CASES.values(), ids=LAYOUT_CASES.keys())
def test_stratum_table_equals_the_first_stage_table(make):
    # the one-sort table has the bits of each stratum's first stage, counted
    # one knot at a time
    ds = make()
    strata = stratify(ds)
    table, _ = sorted_table(ds, strata)
    expected = [first_stage_table(ds.x[idx], ds.delta[idx]) for idx in stratum_rows(strata)]
    stop = 0
    for span, curve in zip(table.spans, expected):
        assert span == slice(stop, stop + curve.times.size)
        stop = span.stop
    assert len(table.spans) == len(expected)
    for name in ("times", "log_pi_left", "jumps"):
        got = getattr(table, name)
        want = np.concatenate([getattr(curve, name) for curve in expected])
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("make", LAYOUT_CASES.values(), ids=LAYOUT_CASES.keys())
def test_plan_columns_equal_plain_searchsorted(make):
    assert_plan_columns_equal_searchsorted(make())


def test_tied_first_stratum_starts_with_its_knot():
    # the tied censoring does not count as below the first event: the
    # curve's first knot has pi_hat(t-) = 1
    ds = tied_first_dataset()
    table, _ = sorted_table(ds, stratify(ds))
    for span, first in zip(table.spans, (0.05, 0.02)):
        assert table.times[span.start + 1] == first
        assert table.log_pi_left[span.start + 1] == 0.0


def test_fit_3se_all_censored_fails(monkeypatch):
    ds = Dataset(np.linspace(0.5, 5.0, 40), np.zeros(40, dtype=int))
    calls = counted_curve_calls(monkeypatch)
    with pytest.raises(EstimationError, match="^regression needs more than 2 rows, got 0$"):
        fit_3se(ds, "weibull")
    assert calls == []


def test_fit_3se_validates_model_kind():
    ds, _, _ = noiseless_dataset("weibull", n=40)
    with pytest.raises(ValueError):
        fit_3se(ds, "loglogistic", model_kind="ph")  # family mismatch
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
    res = fit_3se(ds, "weibull", model_kind="ph")
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
    out = three_stage_point(ds, "weibull")
    assert set(out) == {"tau", "alpha", "sigma", "beta1"}


# ---------------------------------------------------------------------------
# two-stage fitter
# ---------------------------------------------------------------------------


def ph_power_curves(beta=0.7, z1=0.0, z2=1.0):
    """Two stratum curves satisfying the exact PH power relation, as
    right-continuous lookups."""
    times = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5])
    s1 = np.array([1.0, 0.9, 0.75, 0.6, 0.45, 0.3])
    s2 = s1 ** np.exp(beta * (z2 - z1))
    return functools.partial(step_value, times, s1), functools.partial(step_value, times, s2)


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


def stratum_curves(ds, theta, head=curves):
    """{level: (knot times, curve values)} of every stratum at one theta,
    from the one-sort table, for a searchsorted lookup; with
    head=log_curves the values are log S."""
    strata = stratify(ds)
    table, _ = sorted_table(ds, strata)
    (row,) = head(table, [theta])
    return {level: (table.times[span], row[span])
            for level, span in zip(strata.levels, table.spans)}


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
    plan3 = _cvm_plan(ds3, "weibull", "aft")
    # the rule's windows, then fixed windows of 25 and of 1 (no presmoothing)
    plans3 = {None: plan3} | {
        window: dataclasses.replace(plan3, windows=(window,) * len(plan3.windows))
        for window in (25, 1)
    }
    strata2 = stratify(ds2)
    ref, others, _ = _pair_structure(strata2)
    plan2 = _variance_plan(ds2)
    x_kept = ds2.x[plan2.trim.kept]
    for theta in (-0.5, 0.0, 2.0, 8.0):
        by_level = stratum_curves(ds3, theta)
        for window, plan in plans3.items():
            rows = _row_values(plan, np.array([theta]))[0][0]
            for level, idx in zip(strata3.levels, stratum_rows(strata3)):
                times, values = by_level[level]
                knot_window = _smooth_window(values.size - 1) if window is None else window
                values = np.append(1.0, smooth_curve_values(values[1:], knot_window))
                left = step_value(times, values, ds3.x[idx], side="left")
                assert np.all(rows[idx] == np.clip(left, S_CLAMP, 1.0 - S_CLAMP))
            assert np.all(rows[strata3.codes == 2] == 1.0 - S_CLAMP)
        by_level = stratum_curves(ds2, theta, head=log_curves)
        log_l = [np.log(-step_value(*by_level[strata2.levels[j]], x_kept))
                 for j in (ref, *others)]
        contrasts = _variance_value(plan2, np.array([theta]))[2][0]
        for values, expected in zip(contrasts, log_l[1:]):
            assert np.all(values == expected - log_l[0])


@pytest.mark.parametrize("p_z", [0.3, 0.7])  # reference stratum z = 0, then z = 1
def test_b_matrix_rows_equal_scalar_semiparam_b(p_z):
    model = AftModel("weibull", **BENCH)
    ds = generate_dataset(
        DgpSpec(n=1500, tau=0.8, model_t=model, model_c=model, p_z=p_z), 21
    )
    strata = stratify(ds)
    ref, _, _ = _pair_structure(strata)
    assert strata.levels[ref] == ((0.0,) if p_z < 0.5 else (1.0,))
    plan = _variance_plan(ds)
    x_kept = ds.x[plan.trim.kept]
    for theta in (-0.5, 0.0, 2.0, 8.0):
        by_level = stratum_curves(ds, theta)
        # each kept row's coefficients, as fit_2se averages them into beta_hat
        b = _variance_value(plan, np.array([theta]))[2][0].T @ plan.diffs_pinv.T
        assert b.shape == (x_kept.size, 1)
        expected = [
            semiparam_b(x, functools.partial(step_value, *by_level[(0.0,)]),
                        functools.partial(step_value, *by_level[(1.0,)]), 0.0, 1.0)
            for x in x_kept
        ]
        np.testing.assert_allclose(b[:, 0], expected, rtol=0, atol=1e-12)


def six_strata_dataset(n=3000, seed=11):
    """Two covariates (three by two levels) with PH-type dependence on z."""
    rng = np.random.default_rng(seed)
    z = np.column_stack([rng.integers(0, 3, n), rng.integers(0, 2, n)]).astype(float)
    scale = np.exp(-(z @ np.array([0.5, 1.0])) / 1.5)
    t = rng.weibull(1.5, n) * scale
    c = rng.weibull(1.5, n) * scale * 1.1
    return Dataset(np.minimum(t, c), (t <= c).astype(int), z)


@pytest.mark.parametrize("make", [batch_dataset, overflow_dataset, six_strata_dataset,
                                  lambda: six_strata_dataset(n=300, seed=2)])
def test_variance_plan_columns_lie_inside_their_curves(make):
    # the kernel gathers with mode="clip", which would hide a bad column
    ds = make()
    strata = stratify(ds)
    ref, others, _ = _pair_structure(strata)
    plan = _variance_plan(ds)
    assert plan.columns.dtype == np.intp
    assert plan.columns.shape == (strata.n_strata, plan.trim.kept.size)
    assert np.all((plan.columns >= 0) & (plan.columns < plan.table.times.size))
    for row, j in zip(plan.columns, (ref, *others)):
        span = plan.table.spans[j]
        assert np.all((row >= span.start) & (row < span.stop))


def test_weights_score_the_summed_row_coefficients():
    # the criterion's weighted sum over the other strata is each row's
    # coefficient vector summed, on a design with five contrasts and two
    # coefficients
    plan = _variance_plan(six_strata_dataset())
    assert plan.diffs_pinv.shape == (2, 5)
    for theta in (-0.5, 0.5, 3.0):
        (value,), _, (contrasts,) = _variance_value(plan, np.array([theta]))
        b = contrasts.T @ plan.diffs_pinv.T
        np.testing.assert_allclose(plan.weights @ contrasts, b.sum(axis=1),
                                   rtol=1e-12, atol=1e-12)
        assert value == pytest.approx(float(np.var(b.sum(axis=1), ddof=1)), rel=1e-12)


def test_two_strata_row_sums_have_the_bits_of_the_matmul():
    # with one contrast the kernel's sum is w * c, which BLAS's w * c + 0
    # rounds to the same bits
    plan = _variance_plan(batch_dataset())
    assert plan.weights.shape == (1,)
    thetas = _thetas(BATCH_TAUS)
    values, _, contrasts = _variance_value(plan, thetas)
    assert np.all(np.isfinite(values))
    assert values.tobytes() == np.var(plan.weights @ contrasts, ddof=1, axis=-1).tobytes()


def hand_variance_value(b_values):
    """The two-stage criterion at theta = 0 on a hand-made plan of two
    strata whose three kept rows have coefficients b_values: at theta = 0
    with pi_hat = 1 a curve's cumulative hazard is the running sum of its
    jumps, 0.2, 0.4 and 0.6 at the rows in the reference stratum and
    exp(b) times that in the other, and the single contrast is z1 - z0 = 1."""
    hazards = np.array([[0.2, 0.4, 0.6]]) * np.exp([[0.0], [1.0]] * np.asarray(b_values))
    with_start = np.pad(hazards, ((0, 0), (1, 0)))  # each curve's first column is 0
    table = CurveTable(spans=(slice(0, 4), slice(4, 8)), times=np.tile([0.0, 1.0, 2.0, 3.0], 2),
                       log_pi_left=np.zeros(8),
                       jumps=np.diff(with_start, prepend=0.0, axis=1).ravel())
    plan = _VariancePlan(trim=TrimBounds(3.0, 1.0, np.arange(3)), table=table,
                         columns=np.array([[1, 2, 3], [5, 6, 7]]), diffs_pinv=np.eye(1),
                         weights=np.ones(1), log_l=np.empty((1, 2, 3)), chunk=1)
    (value,), (error,), _ = _variance_value(plan, np.array([0.0]))
    assert error is None
    return value


def test_variance_objective_hand_value():
    assert hand_variance_value([1.0, 2.0, 3.0]) == pytest.approx(1.0, abs=1e-10)


def test_b_matrix_rejects_curve_value_one():
    # log(-log 1) = -inf: a kept row that reads a curve before its first event
    ds = generate_dataset(DgpSpec(n=400, tau=0.5, model_t=AftModel("weibull", **BENCH),
                                  model_c=AftModel("weibull", **BENCH)), 3)
    plan = _variance_plan(ds)
    columns = plan.columns.copy()
    columns[0, 0] = plan.table.spans[1].start  # the second stratum's column of ones
    values, errors, _ = _variance_value(dataclasses.replace(plan, columns=columns),
                                        np.array([1.0]))
    assert np.isnan(values[0]) and "undefined" in errors[0]


def test_variance_objective_zero_for_ph_curves():
    assert hand_variance_value([0.7, 0.7, 0.7]) <= 1e-20


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
    out = two_stage_point(ds)
    assert set(out) == {"tau", "beta1"}


OVERFLOW_TAUS = np.array([0.9, 0.98, 0.94])


@pytest.mark.parametrize("kind", ["3se", "2se"])
def test_overflowing_theta_fails_alone_in_its_chunk(kind):
    ds = overflow_dataset()
    if kind == "3se":
        kernel = functools.partial(_cvm_kernel, _cvm_plan(ds, "weibull", "aft"))
    else:
        kernel = functools.partial(_variance_value, _variance_plan(ds))
    values, errors, *_ = kernel(_thetas(OVERFLOW_TAUS))
    assert errors == [None, CURVE_OVERFLOW, None]
    assert np.isnan(values[1])
    for i in (0, 2):
        (one,), *_ = kernel(_thetas(OVERFLOW_TAUS[i:i + 1]))
        np.testing.assert_allclose(values[i], one, rtol=1e-12, atol=0)


def test_fits_skip_an_overflowing_grid_point(monkeypatch):
    ds = overflow_dataset()
    grid = np.arange(0.5, 0.99, 0.04)
    assert grid[-1] == pytest.approx(0.98)
    for fit in (functools.partial(fit_3se, family="weibull"), fit_2se):
        monkeypatch.setattr(estimators, "DEFAULT_TAU_GRID", grid)
        result = fit(ds)
        assert result.diagnostics["n_grid_failed"] == 1
        assert np.isnan(dict(result.objective_trace)[grid[-1]])
        assert result.tau_hat < 0.98
        monkeypatch.setattr(estimators, "DEFAULT_TAU_GRID", np.array([0.98]))
        with pytest.raises(EstimationError, match="every grid point.*overflows"):
            fit(ds)


# ---------------------------------------------------------------------------
# the fit path: one sort of the durations per plan
# ---------------------------------------------------------------------------


def counted_float_sorts(monkeypatch) -> list:
    """Record the size of each float np.argsort."""
    float_sorts = []
    argsort = np.argsort

    def counted_argsort(a, *args, **kwargs):
        a = np.asarray(a)
        if a.dtype.kind == "f":
            float_sorts.append(a.size)
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", counted_argsort)
    return float_sorts


@pytest.mark.parametrize("fit", [functools.partial(fit_3se, family="weibull"), fit_2se],
                         ids=["3se", "2se"])
def test_fit_builds_no_step_function_and_sorts_the_durations_once(monkeypatch, fit):
    ds = six_strata_dataset(n=600)
    float_sorts = counted_float_sorts(monkeypatch)
    fit(ds)
    assert float_sorts == [ds.n]


def test_curve_dump_builds_no_step_function_and_sorts_the_durations_once(
        monkeypatch, tmp_path, capsys):
    path = tmp_path / "sample.csv"
    assert cli.main(["gen", "--seed", "1", "--n", "400", "--output", str(path)]) == 0
    float_sorts = counted_float_sorts(monkeypatch)
    assert cli.main(["curve", "--input", str(path), "--tau-list", "0,0.5"]) == 0
    assert float_sorts == [400]
    assert capsys.readouterr().out.startswith("stratum,tau,t,survival")


@pytest.mark.parametrize("model_kind, coef, log_alpha", [
    ("aft", [800.0, 1.0, 0.5], "800"),      # exp overflows
    ("aft", [-800.0, 1.0, 0.5], "-800"),    # exp underflows to 0
    ("ph", [1600.0, 2.0, 1.0], "800"),
    ("ph", [-1600.0, 2.0, 1.0], "-800"),
])
def test_model_rejects_an_alpha_outside_the_float_range(model_kind, coef, log_alpha):
    fit = FglsFit("weibull", model_kind, np.array(coef), 0)
    with pytest.raises(EstimationError, match=f"^estimated log alpha = {log_alpha} puts alpha"):
        fit.model()


@pytest.mark.parametrize("sigma", [0.0, -1.0, np.inf, np.nan])
def test_model_rejects_a_ph_shape_that_is_not_positive(sigma):
    fit = FglsFit("weibull", "ph", np.array([0.5, sigma, 1.0]), 0)
    with pytest.raises(EstimationError, match="^estimated baseline shape .* is not positive"):
        fit.model()


@pytest.mark.parametrize("model_kind, coef", [
    ("aft", [0.0, np.nan, 0.5]), ("aft", [0.0, -np.inf, 0.5]),
    ("ph", [0.5, 2.0, np.nan]), ("ph", [0.5, 2.0, np.inf]),
])
def test_model_rejects_a_beta_that_is_not_finite(model_kind, coef):
    fit = FglsFit("weibull", model_kind, np.array(coef), 0)
    with pytest.raises(EstimationError, match=r"^estimated beta = \[\S+\] is not finite$"):
        fit.model()


@pytest.mark.parametrize("inv_sigma", [-1.0, 0.0])
def test_model_rejects_a_slope_that_is_not_positive(inv_sigma):
    fit = FglsFit("weibull", "aft", np.array([0.0, 1.0, inv_sigma]), 0)
    with pytest.raises(EstimationError,
                       match=r"^estimated inverse shape 1/sigma = \S+ is not positive"):
        fit.model()


def copied_covariate_dataset():
    """The benchmark sample of batch_dataset with its covariate repeated as
    a second column: two strata for two coefficients."""
    ds = batch_dataset()
    return Dataset(ds.x, ds.delta, np.column_stack([ds.z, ds.z]))


def test_2se_rejects_level_contrasts_that_do_not_span():
    ds = copied_covariate_dataset()
    assert (ds.k, stratify(ds).n_strata) == (2, 2)
    with pytest.raises(EstimationError, match="level contrasts do not span"):
        fit_2se(ds)


@pytest.mark.parametrize("inv_sigma", [1e-320, 5e-324, np.inf])
def test_model_rejects_a_slope_whose_inverse_overflows(inv_sigma):
    # 1 / inv_sigma is inf (0 for an infinite slope); the suite turns numpy's
    # overflow warning into an error, so the decode must not compute it in numpy
    fit = FglsFit("weibull", "aft", np.array([0.0, 1.0, inv_sigma]), 0)
    with pytest.raises(EstimationError,
                       match=r"^estimated inverse shape 1/sigma = \S+ puts sigma outside"):
        fit.model()
