"""Minimum-distance estimation of the risk dependence and the marginal model.

Two procedures are provided.  The parametric three-stage estimator (3SE)
computes, for each candidate dependence parameter, the stratified
copula-graphic curves, regresses log-durations on the transformed curve values
to recover the marginal parameters, and picks the dependence minimising the
mean squared gap between the implied parametric survival and the curves.  The
semiparametric two-stage estimator (2SE) picks the dependence at which the
per-observation proportional-hazards coefficients implied by pairs of stratum
curves have minimal variance; their mean at the minimiser is the coefficient
estimate.  The variance is of each row's summed coefficients, which is one
fixed linear combination of the strata's log cumulative hazards.

Both searches run on a Kendall's-tau grid followed by golden-section
refinement inside the winning bracket, so local minima away from the global
one are handled; the grid pass's local minima are reported in the fit's
diagnostics.  Estimation is deterministic: no randomness is involved.

Each fit builds one plan per dataset before its search: every stratum's
theta-free curve basis and each row's knot index for its curve lookup.  The
three-stage plan also holds the regression design over the cause-1 rows and
the log durations; the two-stage plan holds the weights of that linear
combination.  A criterion call then only runs the per-theta curve kernel
(``cge.curve_values``), a gather, and one least-squares solve or one weighted
sum of log cumulative hazard differences.  ``fgls_fit`` runs the same
regression on its own.

Numerical policy of the three-stage fit (all measured on simulated benchmark
designs; see the package README for the summary):

* Curve values for an observation are read at the left limit of its duration,
  which excludes the observation's own jump.  Reading the post-jump value
  correlates each regressor with its own noise and destabilises the
  dependence search.
* The regression runs on the cause-1 rows; the criterion averages over all
  rows.  The log-duration identity holds at any duration, but anchoring the
  regression at failure times is markedly more stable under resampling.
* Before the decreasing transform, each curve is presmoothed by a moving
  average over its jump knots (monotonicity restored by a running minimum).
  The transform is convex near 1 and near 0, so plug-in noise otherwise
  translates into a systematic distortion of the fitted shape parameter that
  tilts the dependence search.  The default window for K knots is
  min(round(K * SMOOTH_KNOT_FRACTION), round(SMOOTH_KNOT_CAP * K^(1/3))).
  Padding with the end values biases the curve's ends by order window / K;
  the cap makes that bias o(K^(-1/2)), so it vanishes faster than the
  root-n noise.  A window that stays a fixed fraction of the knots keeps the
  bias of order one; on the benchmark design it pinned the dependence search
  at the grid edge for n >= 20000.  ``smooth_knots`` fixes the window (not
  capped) or, at 0, disables presmoothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cge import CurveBasis, TrimBounds, curve_values, stratum_bases, trim_support
from .copula import theta_from_tau
from .data import Dataset, StrataIndex, stratify
from .errors import EstimationError
from .marginals import AftModel, PhModel, _check_family, sw_inverse, sw_survival

# Curve values are clamped into [S_CLAMP, 1 - S_CLAMP] before the decreasing
# transform S_W^{-1}, which diverges at 0 and 1.  Clamped rows are counted and
# reported as a diagnostic.
S_CLAMP = 1e-6

# 37 points from -0.90 to 0.90; the criterion can have secondary local minima,
# so a global grid pass precedes the local refinement.
DEFAULT_TAU_GRID = np.linspace(-0.9, 0.9, 37)

# Default presmoothing window of the three-stage fit for K jump knots:
# round(K * SMOOTH_KNOT_FRACTION), capped at round(SMOOTH_KNOT_CAP * K^(1/3))
# (see module docstring).  The fraction is simulation-calibrated at n = 2000.
# The cap's constant is not derived from theory: it is chosen so that the cap
# binds only from 1084 knots on, above every n = 2000 benchmark stratum (at
# most 761 knots), which keeps the n = 2000 fits unchanged.
SMOOTH_KNOT_FRACTION = 2.0 / 15.0
SMOOTH_KNOT_CAP = 14.0

GOLDEN_TOL = 1e-4
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# Stage 2: regression recovery of marginal parameters at a fixed dependence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FglsFit:
    """Least-squares fit of the stage-2 duration regression.

    For model_kind 'aft', coef holds chi = (log alpha, beta', 1/sigma) from
    log(x) = -log(alpha) - z'beta + (1/sigma) * S_W^{-1}(s) in every family;
    the exponential family's 1/sigma is the fixed unit slope 1.0, not an
    estimate.  For 'ph' (Weibull
    baseline), coef holds (sigma*log alpha, sigma, beta') from
    log(-log s) = sigma*log(alpha) + sigma*log(x) + z'beta.
    """

    family: str
    model_kind: str
    coef: np.ndarray
    n_clamped: int

    def model(self) -> AftModel:
        """Decode (alpha, beta, sigma); fails if the implied shape is not positive."""
        c = self.coef
        if self.model_kind == "ph":
            sigma = c[1]
            if not sigma > 0:
                raise EstimationError(
                    f"estimated baseline shape {sigma:.6g} is not positive"
                )
            return PhModel("weibull", math.exp(c[0] / sigma), c[2:], sigma)
        inv_sigma = c[-1]
        if not inv_sigma > 0:
            raise EstimationError(
                f"estimated inverse shape 1/sigma = {inv_sigma:.6g} is not positive; "
                "the regression slope on the transformed curve is degenerate"
            )
        return AftModel(self.family, math.exp(c[0]), c[1:-1], 1.0 / inv_sigma)


@dataclass(frozen=True)
class _Regression:
    """The theta-free half of the duration regression over a set of rows.

    design holds the columns that do not depend on the curve: [-1, -z] plus a
    last slot for S_W^{-1}(s) in the AFT form (no slot for the exponential
    family, whose unit-slope transform moves to the response), or
    [1, log x, z] in the PH form.  log_x holds the rows' log durations.
    Each solve overwrites the slot, so a regression serves one search at a
    time.
    """

    family: str
    model_kind: str
    design: np.ndarray
    log_x: np.ndarray


def _regression(family: str, model_kind: str, log_x: np.ndarray,
                z: np.ndarray) -> _Regression:
    ones = np.ones(log_x.size)
    if model_kind == "ph":
        design = np.column_stack([ones, log_x, z])
    elif family == "exponential":
        design = np.column_stack([-ones, -z])
    else:
        design = np.column_stack([-ones, -z, ones])
    return _Regression(family, model_kind, design, log_x)


def _clamp_curve_values(s_hat: np.ndarray) -> tuple[np.ndarray, int]:
    clamped = (s_hat < S_CLAMP) | (s_hat > 1.0 - S_CLAMP)
    return np.clip(s_hat, S_CLAMP, 1.0 - S_CLAMP), int(np.count_nonzero(clamped))


def _solve(reg: _Regression, s: np.ndarray) -> np.ndarray:
    """Regression coefficients from the rows' clamped curve values s; the
    exponential family's end in its fixed unit slope."""
    n, p = reg.design.shape
    if n <= p:
        raise EstimationError(f"regression needs more than {p} rows, got {n}")
    if reg.model_kind == "ph":
        y = np.log(-np.log(s))
    elif reg.family == "exponential":
        y = reg.log_x - sw_inverse(reg.family, s)
    else:
        reg.design[:, -1] = sw_inverse(reg.family, s)
        y = reg.log_x
    coef, _, rank, _ = np.linalg.lstsq(reg.design, y, rcond=None)
    if rank < p:
        raise EstimationError(
            "design matrix is rank deficient (e.g. constant transformed curve "
            "values or collinear covariates)"
        )
    if reg.model_kind == "aft" and reg.family == "exponential":
        return np.append(coef, 1.0)
    return coef


def _model_survival(reg: _Regression, coef: np.ndarray, log_x: np.ndarray,
                    z: np.ndarray) -> np.ndarray:
    """Survival the fitted regression implies at rows (log x, z); robust to a
    negative fitted slope (the criterion then simply scores poorly)."""
    if reg.model_kind == "ph":
        return sw_survival(reg.family, coef[0] + coef[1] * log_x + z @ coef[2:])
    inv_sigma = coef[-1]
    if inv_sigma == 0.0:
        raise EstimationError("zero inverse shape in the fitted regression")
    return sw_survival(reg.family, (log_x + coef[0] + z @ coef[1:-1]) / inv_sigma)


def fgls_fit(ds: Dataset, s_hat, family: str) -> FglsFit:
    """Recover chi = (log alpha, beta', 1/sigma) from per-row survival values.

    Fits log(x_i) = -log(alpha) - z_i'beta + (1/sigma) * S_W^{-1}(s_i) by
    ordinary least squares over the supplied rows.  For the exponential
    family the known unit slope moves the transform to the left hand side
    and sigma is fixed at 1, so coef ends in 1.0.  The three-stage fit runs
    the same regression from its plan.
    """
    _check_family(family)
    s_hat = np.asarray(s_hat, dtype=float)
    if s_hat.shape != (ds.n,):
        raise ValueError("s_hat must supply one survival value per dataset row")
    s_cl, n_clamped = _clamp_curve_values(s_hat)
    coef = _solve(_regression(family, "aft", np.log(ds.x), ds.z), s_cl)
    return FglsFit(family, "aft", coef, n_clamped)


# ---------------------------------------------------------------------------
# Fit plans: the theta-free pieces, built once per dataset
# ---------------------------------------------------------------------------


def smooth_curve_values(values: np.ndarray, window: int) -> np.ndarray:
    """Moving average over the jump knots, then a monotone projection.

    The curve is padded with window // 2 copies of its first value and
    window - 1 - window // 2 of its last; each window mean is a difference of
    running sums, so a call costs O(knots) at any window.
    """
    if window <= 1 or values.size < 3:
        return values
    window = min(int(window), values.size)
    pad_l = np.full(window // 2, values[0])
    pad_r = np.full(window - 1 - window // 2, values[-1])
    c = np.cumsum(np.concatenate([[0.0], pad_l, values, pad_r]))
    smoothed = (c[window:] - c[:-window]) / window
    return np.minimum.accumulate(np.clip(smoothed, 0.0, 1.0))


def _smooth_window(n_knots: int, smooth_knots) -> int:
    if smooth_knots is None:
        return max(1, min(int(round(n_knots * SMOOTH_KNOT_FRACTION)),
                          int(round(SMOOTH_KNOT_CAP * n_knots ** (1.0 / 3.0)))))
    return max(1, int(smooth_knots))


@dataclass(frozen=True)
class _CvmPlan:
    """What the three-stage criterion needs that does not depend on theta.

    strata holds, per stratum, its curve basis, its row indices, each row's
    knot index for the left-limit lookup (0 = before the first event) and
    the presmoothing window (1 for none).  regression holds the design over
    the cause-1 rows (events); log_x and z cover all rows, for the model's
    survival.
    """

    strata: tuple[tuple[CurveBasis, np.ndarray, np.ndarray, int], ...]
    events: np.ndarray
    regression: _Regression
    log_x: np.ndarray
    z: np.ndarray


def _cvm_plan(ds: Dataset, family: str, model_kind: str, smooth_knots=None) -> _CvmPlan:
    strata = stratify(ds)
    parts = []
    for basis, idx in zip(stratum_bases(ds, strata), strata.indices):
        times = basis.event_times
        pos = np.searchsorted(times, ds.x[idx], side="left")
        parts.append((basis, idx, pos, _smooth_window(times.size, smooth_knots)))
    events = np.flatnonzero(ds.delta == 1)
    log_x = np.log(ds.x)
    regression = _regression(family, model_kind, log_x[events], ds.z[events])
    return _CvmPlan(strata=tuple(parts), events=events, regression=regression,
                    log_x=log_x, z=ds.z)


def _row_values(plan: _CvmPlan, theta: float) -> np.ndarray:
    """Per-row curve values at the left limit of each observed duration."""
    s = np.empty(plan.log_x.size)
    for basis, idx, pos, window in plan.strata:
        values = smooth_curve_values(curve_values(basis, theta), window)
        s[idx] = np.concatenate(([1.0], values))[pos]
    return s


def _cvm_value(plan: _CvmPlan, s_hat: np.ndarray, events_only: bool):
    """Criterion from per-row curve values.

    Returns (value, regression coefficients, mean gap, number of clamped rows).
    """
    s_cl, n_clamped = _clamp_curve_values(s_hat)
    coef = _solve(plan.regression, s_cl[plan.events])
    gap = _model_survival(plan.regression, coef, plan.log_x, plan.z) - s_cl
    if events_only:
        gap = gap[plan.events]
    value = float(np.mean(gap**2))
    if not np.isfinite(value):
        raise EstimationError("criterion evaluated to a non-finite value")
    return value, coef, float(np.mean(gap)), n_clamped


def _pair_structure(strata: StrataIndex):
    # reference stratum = the largest (ties resolved lexicographically); the
    # remaining strata each contribute one contrast row z_j - z_ref
    sizes = strata.sizes
    ref = int(np.argmax(sizes))
    ref_level = np.asarray(strata.levels[ref], dtype=float)
    others = [j for j in range(strata.n_strata) if j != ref]
    diffs = np.array(
        [np.asarray(strata.levels[j], dtype=float) - ref_level for j in others]
    )
    k = ref_level.shape[0]
    if np.linalg.matrix_rank(diffs) < k:
        raise EstimationError(
            "covariate level contrasts do not span the coefficient space; "
            "more distinct covariate vectors are needed"
        )
    return ref, others, np.linalg.pinv(diffs)


@dataclass(frozen=True)
class _VariancePlan:
    """What the two-stage criterion needs that does not depend on theta.

    bases and pos run over the reference stratum first, then the others;
    pos holds each kept row's knot index for the right-continuous lookup.
    A row's coefficients are diffs_pinv applied to its other strata's log
    cumulative hazard differences from the reference; the criterion reads
    only their sum, weights = diffs_pinv.sum(axis=0) applied to the same
    differences.  log_l (strata x kept rows) is the one scratch array, which
    every evaluation overwrites, so a plan serves one search at a time.
    """

    trim: TrimBounds
    bases: tuple[CurveBasis, ...]
    pos: tuple[np.ndarray, ...]
    diffs_pinv: np.ndarray
    weights: np.ndarray
    log_l: np.ndarray


def _variance_plan(ds: Dataset) -> _VariancePlan:
    strata = stratify(ds)
    if ds.k < 1 or strata.n_strata < 2:
        raise EstimationError(
            "the semiparametric fit needs at least one covariate taking two or "
            "more values in the sample; a single stratum is not identified"
        )
    ref, others, diffs_pinv = _pair_structure(strata)
    bases = stratum_bases(ds, strata)
    # the trimmed window depends only on each stratum's event times
    trim = trim_support(bases, ds)
    x_kept = ds.x[trim.kept]
    if x_kept.size < 2:
        raise EstimationError("fewer than 2 rows survive trimming")
    bases = tuple(bases[j] for j in (ref, *others))
    pos = tuple(np.searchsorted(b.event_times, x_kept, side="right") for b in bases)
    return _VariancePlan(
        trim=trim, bases=bases, pos=pos, diffs_pinv=diffs_pinv,
        weights=diffs_pinv.sum(axis=0), log_l=np.empty((len(bases), x_kept.size)),
    )


def _kept_contrasts(plan: _VariancePlan, theta: float) -> np.ndarray:
    """Each other stratum's log(-log S) minus the reference's at the kept
    durations: a view of plan.log_l (other strata x kept rows).

    The transform runs over each stratum's knots, which are fewer than the
    kept rows, and the rows then gather from it.
    """
    log_l = plan.log_l
    for basis, pos, out in zip(plan.bases, plan.pos, log_l):
        full = np.concatenate(([1.0], curve_values(basis, theta)))
        with np.errstate(divide="ignore"):
            np.log(np.negative(np.log(full, out=full), out=full), out=full)
        np.take(full, pos, out=out)
    if not np.all(np.isfinite(log_l)):
        raise EstimationError(
            "a curve value of 0 or 1 inside the trimmed window makes the "
            "coefficient undefined"
        )
    log_l[1:] -= log_l[0]
    return log_l[1:]


def _coef_variance(row_sums: np.ndarray) -> float:
    """Sample variance of the rows' summed coefficients."""
    value = float(np.var(row_sums, ddof=1))
    if not np.isfinite(value):
        raise EstimationError("criterion evaluated to a non-finite value")
    return value


# ---------------------------------------------------------------------------
# Grid search with golden-section refinement
# ---------------------------------------------------------------------------


def _golden_section(
    f: Callable[[float], float], lo: float, hi: float, tol: float
) -> list[tuple[float, float]]:
    evals: list[tuple[float, float]] = []

    def probe(x: float) -> float:
        y = f(x)
        evals.append((x, y))
        return y

    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    yc, yd = probe(c), probe(d)
    while hi - lo > tol:
        if yc < yd:
            hi, d, yd = d, c, yc
            c = hi - _INV_PHI * (hi - lo)
            yc = probe(c)
        else:
            lo, c, yc = c, d, yd
            d = lo + _INV_PHI * (hi - lo)
            yd = probe(d)
    probe(0.5 * (lo + hi))
    return evals


def _validate_tau_grid(tau_grid) -> np.ndarray:
    grid = DEFAULT_TAU_GRID if tau_grid is None else np.asarray(tau_grid, dtype=float)
    grid = np.sort(np.unique(grid))
    if grid.size == 0:
        raise ValueError("tau_grid must be nonempty")
    if grid[0] <= -1.0 or grid[-1] >= 1.0:
        raise ValueError("tau_grid values must lie strictly inside (-1, 1)")
    return grid


def _search_tau(criterion: Callable[[float], float], grid: np.ndarray):
    """Grid pass, then golden-section inside the best bracket.

    Criterion failures (EstimationError) are recorded as NaN and skipped; the
    search fails only if every grid point fails, with the points' own
    messages.  Returns (tau_hat, trace, number of failed grid points, grid
    local minima): the last are the grid taus whose finite value lies below
    both finite neighbours, so a criterion with several modes shows them all.
    """
    trace: list[tuple[float, float]] = []
    values = np.full(grid.size, np.nan)
    failures: dict[str, None] = {}  # distinct messages, in order of appearance
    for i, tau in enumerate(grid):
        try:
            values[i] = criterion(float(tau))
        except EstimationError as exc:
            failures[str(exc)] = None
        trace.append((float(tau), float(values[i])))
    if not np.any(np.isfinite(values)):
        raise EstimationError(
            "criterion failed at every grid point: " + "; ".join(failures)
        )
    n_failed = int(np.count_nonzero(~np.isfinite(values)))
    best = int(np.nanargmin(values))
    lo = float(grid[max(best - 1, 0)])
    hi = float(grid[min(best + 1, grid.size - 1)])
    # a comparison with NaN is false, so failed points never count
    mid = values[1:-1]
    is_min = (mid < values[:-2]) & (mid < values[2:])
    minima = tuple(float(t) for t in grid[1:-1][is_min])

    def safe(tau: float) -> float:
        try:
            return criterion(tau)
        except EstimationError:
            return math.inf

    if hi > lo:
        trace.extend(_golden_section(safe, lo, hi, GOLDEN_TOL))
    finite = [(t, v) for t, v in trace if np.isfinite(v)]
    tau_hat, _ = min(finite, key=lambda tv: (tv[1], tv[0]))
    trace.sort(key=lambda tv: tv[0])
    return tau_hat, tuple(trace), n_failed, minima


# ---------------------------------------------------------------------------
# Three-stage parametric estimator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitResult3SE:
    """Outcome of the parametric three-stage fit."""

    tau_hat: float
    theta_hat: float
    model: AftModel
    objective_trace: tuple[tuple[float, float], ...]
    kept_n: int
    diagnostics: dict


def fit_3se(
    ds: Dataset,
    family: str,
    model_kind: str = "aft",
    tau_grid=None,
    events_only: bool = False,
    smooth_knots=None,
) -> FitResult3SE:
    """Three-stage fit: stratified curves, marginal regression, dependence search.

    model_kind 'aft' fits the chosen family on the acceleration scale; 'ph'
    fits the Weibull-baseline proportional-hazards form (the only baseline
    supported on the hazard scale).  smooth_knots=None applies the default
    presmoothing window, an integer fixes it, and 0 disables presmoothing.
    """
    _check_family(family)
    if model_kind not in ("aft", "ph"):
        raise ValueError(f"unknown model_kind {model_kind!r}; use 'aft' or 'ph'")
    if model_kind == "ph" and family != "weibull":
        raise ValueError("model_kind 'ph' supports only the weibull baseline")
    grid = _validate_tau_grid(tau_grid)
    plan = _cvm_plan(ds, family, model_kind, smooth_knots)

    def evaluate(tau: float):
        return _cvm_value(plan, _row_values(plan, theta_from_tau(tau)), events_only)

    tau_hat, trace, n_failed, minima = _search_tau(lambda tau: evaluate(tau)[0], grid)
    _, coef, mean_gap, n_clamped = evaluate(tau_hat)
    return FitResult3SE(
        tau_hat=tau_hat,
        theta_hat=theta_from_tau(tau_hat),
        model=FglsFit(family, model_kind, coef, n_clamped).model(),
        objective_trace=trace,
        kept_n=ds.n,
        diagnostics={
            "n_clamped": n_clamped,
            "mean_gap": mean_gap,
            "n_grid_failed": n_failed,
            "grid_local_minima": minima,
        },
    )


# ---------------------------------------------------------------------------
# Two-stage semiparametric estimator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitResult2SE:
    """Outcome of the semiparametric two-stage fit."""

    tau_hat: float
    theta_hat: float
    beta_hat: np.ndarray
    objective_trace: tuple[tuple[float, float], ...]
    x_star: float
    x_double_star: float
    kept_n: int
    diagnostics: dict


def fit_2se(ds: Dataset, tau_grid=None) -> FitResult2SE:
    """Two-stage fit: dependence by minimum coefficient variance, then the mean.

    Requires at least one covariate with two observed levels; the coefficient
    contrasts are taken against the largest stratum.  The coefficient is on
    the proportional-hazards scale.
    """
    grid = _validate_tau_grid(tau_grid)
    plan = _variance_plan(ds)
    tau_hat, trace, n_failed, minima = _search_tau(
        lambda tau: _coef_variance(plan.weights @ _kept_contrasts(plan, theta_from_tau(tau))),
        grid,
    )
    contrasts = _kept_contrasts(plan, theta_from_tau(tau_hat))
    return FitResult2SE(
        tau_hat=tau_hat,
        theta_hat=theta_from_tau(tau_hat),
        beta_hat=(contrasts.T @ plan.diffs_pinv.T).mean(axis=0),
        objective_trace=trace,
        x_star=plan.trim.x_star,
        x_double_star=plan.trim.x_double_star,
        kept_n=int(plan.trim.kept.size),
        diagnostics={"n_grid_failed": n_failed, "grid_local_minima": minima},
    )


# ---------------------------------------------------------------------------
# Flat parameter views (used by the bootstrap, the simulation harness, the CLI)
# ---------------------------------------------------------------------------


def three_stage_point(
    ds: Dataset,
    family: str,
    model_kind: str = "aft",
    tau_grid=None,
    events_only: bool = False,
) -> dict[str, float]:
    """fit_3se reduced to a flat {name: value} parameter map."""
    res = fit_3se(
        ds, family, model_kind=model_kind, tau_grid=tau_grid, events_only=events_only
    )
    out = {"tau": res.tau_hat, "alpha": res.model.alpha, "sigma": res.model.sigma}
    for j, bj in enumerate(res.model.beta, start=1):
        out[f"beta{j}"] = float(bj)
    return out


def two_stage_point(ds: Dataset, tau_grid=None) -> dict[str, float]:
    """fit_2se reduced to a flat {name: value} parameter map."""
    res = fit_2se(ds, tau_grid=tau_grid)
    out = {"tau": res.tau_hat}
    for j, bj in enumerate(res.beta_hat, start=1):
        out[f"beta{j}"] = float(bj)
    return out
