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

Both searches run on one Kendall's-tau grid, DEFAULT_TAU_GRID (-0.9 to 0.9
in steps of 0.05), followed by a bounded Brent refinement inside the
winning bracket, seeded with the grid's best point and its neighbours, so
local minima away from the global one are handled; the grid pass's local
minima are reported in the fit's diagnostics.  The fit
reports the kernel's outputs at its best evaluation, so no evaluation
follows the refinement.  Estimation is deterministic: no randomness is
involved.

Both fits have one failure policy.  A failure that does not depend on theta
raises its own EstimationError while the plan is built, before any curve is
computed: a single stratum, level contrasts that do not span the
coefficients or fewer than 2 rows left by the trimming (2SE), and a
regression with too few cause-1 rows or rank-deficient fixed columns (3SE).
A failure at one theta makes that theta's value NaN with that theta's
message and counts in the diagnostics' n_grid_failed.  No kernel raises, so
the search catches nothing; it fails only if every grid point fails.

Each fit builds one plan per dataset before its search, from one sort of
the durations (``cge.sorted_table``, the first stage).  Both plans hold one
``cge.CurveTable`` of every stratum's curve (strata from ``stratify``) and
the table columns that the rows read: each row's own stratum at its
left limit (3SE, ``cge.left_columns``), or each kept row in every stratum,
right-continuously (2SE, ``cge.kept_columns``), both from running counts
over the sorted rows, not a search of the knots.  The three-stage plan
scores all rows; it holds a thin QR of the regression's theta-free columns
over the cause-1 rows, how many rows read each column, and each row's
stratum code with the strata's levels; the two-stage plan holds that
combination's weights.
The criterion is one kernel that scores a chunk of thetas at once: it
fills the table (one row per theta) and presmooths and clamps the curves
(3SE, ``cge.curves``) or takes log(-log S) of their logs (2SE,
``cge.log_curves``, so no exp is taken and then undone), gathers the rows
with one take, and then runs either the regression from the QR or one
weighted sum of log cumulative hazard differences, summed over the other
strata in their order with no matmul over the rows.  The grid pass hands
it chunks of up to GRID_CHUNK_ELEMENTS / rows thetas; the Brent refinement
hands it one at a time.  No evaluation calls LAPACK on the rows.  In the three-stage
kernel, the model's z'beta is a (thetas x strata) product that each row
reads by its stratum code, the presmoother runs its running minimum only
on curves that rise, and the regression transforms the clamped values
with the unchecked ``marginals._sw_inverse``; each has the bits of the
plain form.  ``fgls_fit`` runs the same regression on its own.

The regression has at most one theta-dependent column, S_W^{-1}(s) in the
AFT families with a shape parameter.  Its slope comes from the
Frisch-Waugh-Lovell theorem: the column and log x are residualised against
the fixed columns through the QR, and the slope is the ratio of two dot
products.  In the exponential AFT family (unit slope) and in the PH form
only the response varies, so the QR alone gives the coefficients.

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
  average over its jump knots (monotonicity restored by a running minimum
  where the average rises).
  The transform is convex near 1 and near 0, so plug-in noise otherwise
  translates into a systematic distortion of the fitted shape parameter that
  tilts the dependence search.  The window for K knots is
  min(round(K * SMOOTH_KNOT_FRACTION), SMOOTH_WINDOW_CAP).  Padding with the
  end values biases the curve's ends by order window / K; the constant cap
  makes that bias O(1/K), so it vanishes faster than the root-n noise.  A
  window that stays a fixed fraction of the knots keeps the bias of order
  one; on the benchmark design it pinned the dependence search at the grid
  edge for n >= 20000.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .cge import (
    CURVE_OVERFLOW,
    CurveTable,
    TrimBounds,
    curves,
    kept_columns,
    left_columns,
    log_curves,
    sorted_table,
    trim_support,
)
from .copula import theta_from_tau
from .data import Dataset, StrataIndex, stratify
from .errors import EstimationError
from .marginals import AftModel, PhModel, _check_family, _sw_inverse, sw_survival

# Curve values are clamped into [S_CLAMP, 1 - S_CLAMP] before the decreasing
# transform S_W^{-1}, which diverges at 0 and 1.  Clamped rows are counted and
# reported as a diagnostic.
S_CLAMP = 1e-6

# The grid both fits search: 37 points from -0.90 to 0.90 in steps of 0.05.
# The criterion can have secondary local minima, so a global grid pass
# precedes the local refinement.  The fits read this constant at call time,
# so a scratch experiment sets estimators.DEFAULT_TAU_GRID to try another
# grid (sorted, distinct, strictly inside (-1, 1)).
DEFAULT_TAU_GRID = np.linspace(-0.9, 0.9, 37)

# Presmoothing window of the three-stage fit for K jump knots:
# round(K * SMOOTH_KNOT_FRACTION), capped at SMOOTH_WINDOW_CAP (see module
# docstring).  The fraction is simulation-calibrated at n = 2000; the cap
# binds from 762 knots on, above every n = 2000 benchmark stratum.
SMOOTH_KNOT_FRACTION = 2.0 / 15.0
SMOOTH_WINDOW_CAP = 101

# The grid pass evaluates max(1, GRID_CHUNK_ELEMENTS // rows) thetas per
# kernel call, so its (thetas x rows) arrays stay cache-sized: 16 thetas at
# n = 2000, single thetas from n = 32768 on.  On a 2-core Xeon (4 MiB L2),
# this budget's chunks took 0.46 (3SE) and 0.33 (2SE) of the single-theta
# grid pass's time at n = 2000 and 0.83-0.85 at n = 15000, while chunks of
# two thetas at n = 100000 took 1.5 times as long.
GRID_CHUNK_ELEMENTS = 2**15

# Tolerance of the Brent refinement.  It stops once both ends of its
# bracket lie within 2 * (sqrt(eps) |tau| + TAU_TOL / 3) of its best tau, so
# where the criterion has one minimum in the bracket, tau_hat is within
# about 2/3 TAU_TOL of it.
TAU_TOL = 1e-4
_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0
_SQRT_EPS = math.sqrt(np.finfo(float).eps)


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
        """Decode (alpha, beta, sigma); fails unless beta is finite and the
        shape and alpha = exp(log alpha) are positive finite floats."""
        c = self.coef
        beta = c[2:] if self.model_kind == "ph" else c[1:-1]
        if not np.all(np.isfinite(beta)):
            raise EstimationError(f"estimated beta = {beta.tolist()} is not finite")
        if self.model_kind == "ph":
            sigma = c[1]
            # a comparison with NaN is false
            if not 0.0 < sigma < math.inf:
                raise EstimationError(
                    f"estimated baseline shape {sigma:.6g} is not positive and finite"
                )
            return PhModel("weibull", _alpha(c[0] / sigma), beta, sigma)
        inv_sigma = float(c[-1])
        if not inv_sigma > 0:
            raise EstimationError(
                f"estimated inverse shape 1/sigma = {inv_sigma:.6g} is not positive; "
                "the regression slope on the transformed curve is degenerate"
            )
        # a Python float division overflows to inf, or underflows to 0 for
        # an infinite slope, without a warning
        sigma = 1.0 / inv_sigma
        if not 0.0 < sigma < math.inf:
            raise EstimationError(
                f"estimated inverse shape 1/sigma = {inv_sigma:.6g} puts sigma "
                "outside the floating-point range; the regression slope on the "
                "transformed curve is degenerate"
            )
        return AftModel(self.family, _alpha(c[0]), beta, sigma)


def _alpha(log_alpha: float) -> float:
    try:
        alpha = math.exp(log_alpha)
    except OverflowError:
        alpha = math.inf
    if not 0.0 < alpha < math.inf:
        raise EstimationError(
            f"estimated log alpha = {log_alpha:.6g} puts alpha = exp(log alpha) "
            "outside the floating-point range; rescale the durations"
        )
    return alpha


RANK_DEFICIENT = (
    "design matrix is rank deficient (e.g. constant transformed curve "
    "values or collinear covariates)"
)


@dataclass(frozen=True)
class _Regression:
    """The theta-free half of the duration regression over a set of rows.

    The fixed columns are [-1, -z] in the AFT form, followed in the families
    with a shape parameter by the varying column S_W^{-1}(s), or
    [1, log x, z] in the PH form.  q and r_inv are the fixed columns' thin
    QR factor and the inverse of its triangle; q_log_x is q' log x and
    log_x_resid is log x minus its projection on the fixed columns.
    rcond = eps * max(rows, columns) is lstsq's default cut-off for a
    singular value relative to the largest; fixed_norm is the fixed
    columns' largest singular value.  Fixed columns that cannot be fitted
    (too few rows, or rank deficient) fail every theta alike, so
    ``_regression`` raises their EstimationError while the plan is built.
    """

    family: str
    model_kind: str
    q: np.ndarray
    r_inv: np.ndarray
    q_log_x: np.ndarray
    log_x_resid: np.ndarray
    rcond: float
    fixed_norm: float


def _regression(family: str, model_kind: str, log_x: np.ndarray,
                z: np.ndarray) -> _Regression:
    ones = np.ones(log_x.size)
    if model_kind == "ph":
        fixed = np.column_stack([ones, log_x, z])
    else:
        fixed = np.column_stack([-ones, -z])
    varying = model_kind == "aft" and family != "exponential"
    m, p = fixed.shape[0], fixed.shape[1] + varying
    rcond = np.finfo(float).eps * max(m, p)
    if m <= p:
        raise EstimationError(f"regression needs more than {p} rows, got {m}")
    q, r = np.linalg.qr(fixed)
    # r has the fixed columns' singular values; dropping the varying column
    # can only raise the smallest and lower the largest, so lstsq would call
    # the whole design rank deficient too
    sv = np.linalg.svd(r, compute_uv=False)
    if not sv[-1] > rcond * sv[0]:
        raise EstimationError(RANK_DEFICIENT)
    q_log_x = log_x @ q
    return _Regression(family, model_kind, q, np.linalg.inv(r), q_log_x,
                       log_x - q @ q_log_x, rcond, sv[0])


def _clamp_curve_values(s_hat: np.ndarray, out=None,
                        counts=None) -> tuple[np.ndarray, np.ndarray]:
    """Clamped values (into out if given) and the number of clamped values
    along the last axis, each counted counts[i] times if counts is given."""
    clamped = (s_hat < S_CLAMP) | (s_hat > 1.0 - S_CLAMP)
    n_clamped = np.count_nonzero(clamped, axis=-1) if counts is None else clamped @ counts
    return np.clip(s_hat, S_CLAMP, 1.0 - S_CLAMP, out=out), n_clamped


def _mark(errors: list, failed: np.ndarray, message: str) -> None:
    """Record message for each failed theta that has no message yet."""
    for i in np.flatnonzero(failed):
        if errors[i] is None:
            errors[i] = message


def _solve(reg: _Regression, s: np.ndarray) -> tuple[np.ndarray, list]:
    """Regression coefficients for each row of s, one theta's clamped curve
    values at the regression rows, and each theta's failure message or None.

    A failed theta's coefficients are NaN.  Every AFT family's coefficients
    end in the slope 1/sigma, which is 1.0 for the exponential family.  The
    transform ``_sw_inverse`` checks nothing: clamped values lie inside
    (0, 1), and an overflowed curve's NaN maps to NaN.
    """
    errors: list = [None] * s.shape[0]
    v = _sw_inverse(reg.family, s)
    qv = v @ reg.q
    if reg.model_kind == "ph":
        return qv @ reg.r_inv.T, errors
    if reg.family == "exponential":
        slope = np.ones(s.shape[0])
    else:
        # Frisch-Waugh-Lovell: the slope of log x on v is that of the
        # residualised log x on the residualised v.  The design's smallest
        # singular value is at most |resid|, its largest at least
        # max(|v|, fixed_norm); so where |resid| <= rcond * max(|v|,
        # fixed_norm), lstsq with its default rcond calls the design rank
        # deficient too.  The rule is one-sided: just above its cut-off,
        # lstsq can still fail a theta that it passes.
        resid = v - qv @ reg.q.T
        ss = np.einsum("ij,ij->i", resid, resid)
        scale = np.maximum(np.einsum("ij,ij->i", v, v), reg.fixed_norm**2)
        deficient = ~(ss > reg.rcond**2 * scale)
        if deficient.any():
            _mark(errors, deficient, RANK_DEFICIENT)
            ss[deficient] = np.nan
        # an einsum, not a matmul: OpenBLAS's (1 x m) product sums in an
        # order that depends on its thread count
        slope = np.einsum("ij,j->i", resid, reg.log_x_resid) / ss
    coef = np.empty((s.shape[0], reg.q.shape[1] + 1))
    coef[:, :-1] = (reg.q_log_x - slope[:, None] * qv) @ reg.r_inv.T
    coef[:, -1] = slope
    return coef, errors


def _covariate_term(beta: np.ndarray, levels: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """z'beta at each row for each row of beta, one row per theta: the
    (thetas x strata) products of beta with the strata's levels, each row
    reading its stratum's.  A row's z equals its stratum's level (up to the
    sign of a zero, which a product summed from +0.0 drops), so this has the
    bits of ``beta @ z.T`` without a product as wide as the rows."""
    return np.take(beta @ levels.T, codes, axis=1)


def _model_survival(reg: _Regression, coef: np.ndarray, log_x: np.ndarray,
                    levels: np.ndarray, codes: np.ndarray, errors: list) -> np.ndarray:
    """Survival each row of coef implies at rows (log x, z), with z given as
    the strata's levels and each row's stratum code; robust to a negative
    fitted slope (the criterion then simply scores poorly).  A zero slope
    fails its theta."""
    if reg.model_kind == "ph":
        eta = coef[:, :1] + coef[:, 1:2] * log_x
        eta += _covariate_term(coef[:, 2:], levels, codes)
        return sw_survival(reg.family, eta)
    inv_sigma = coef[:, -1:]
    zero = inv_sigma[:, 0] == 0.0
    if zero.any():
        _mark(errors, zero, "zero inverse shape in the fitted regression")
        inv_sigma = np.where(inv_sigma == 0.0, np.nan, inv_sigma)
    eta = log_x + coef[:, :1]
    eta += _covariate_term(coef[:, 1:-1], levels, codes)
    eta /= inv_sigma
    return sw_survival(reg.family, eta)


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
    # a comparison with NaN is false
    if not np.all((s_hat >= 0.0) & (s_hat <= 1.0)):
        raise ValueError("s_hat values must lie in [0, 1]")
    s_cl, n_clamped = _clamp_curve_values(s_hat)
    coef, errors = _solve(_regression(family, "aft", np.log(ds.x), ds.z), s_cl[None, :])
    if errors[0] is not None:
        raise EstimationError(errors[0])
    return FglsFit(family, "aft", coef[0], int(n_clamped))


# ---------------------------------------------------------------------------
# Fit plans: the theta-free pieces, built once per dataset
# ---------------------------------------------------------------------------


def smooth_curve_values(values: np.ndarray, window: int) -> np.ndarray:
    """Moving average over the jump knots, then a monotone projection.

    values is one curve or a (curves x knots) array.  Each curve is padded
    with window // 2 copies of its first value and window - 1 - window // 2
    of its last; each window mean is a difference of running sums, so a call
    costs O(knots) per curve at any window.  The means are clipped into
    [0, 1] and projected by a running minimum, which is the identity on a
    curve that never rises, so only a curve with a rise (or a NaN) runs it.
    """
    size = values.shape[-1]
    if window <= 1 or size < 3:
        return values
    window = min(int(window), size)
    left = 1 + window // 2
    c = np.empty(values.shape[:-1] + (size + window,))
    c[..., 0] = 0.0
    c[..., 1:left] = values[..., :1]
    c[..., left:left + size] = values
    c[..., left + size:] = values[..., -1:]
    np.cumsum(c, axis=-1, out=c)
    # mean i overwrites running sum i, which only mean i reads
    smoothed = np.subtract(c[..., window:], c[..., :size], out=c[..., :size])
    smoothed /= window
    np.clip(smoothed, 0.0, 1.0, out=smoothed)
    # a comparison with NaN is false, so a curve holding one is projected
    rises = ~np.all(smoothed[..., 1:] <= smoothed[..., :-1], axis=-1)
    if rises.any():
        smoothed[rises] = np.minimum.accumulate(smoothed[rises], axis=-1)
    return smoothed


def _smooth_window(n_knots: int) -> int:
    return max(1, min(round(n_knots * SMOOTH_KNOT_FRACTION), SMOOTH_WINDOW_CAP))


def _grid_chunk(rows: int) -> int:
    return max(1, GRID_CHUNK_ELEMENTS // max(rows, 1))


@dataclass(frozen=True)
class _CvmPlan:
    """What the three-stage criterion needs that does not depend on theta.

    table holds every stratum's curve and windows each curve's presmoothing
    window (1 for none).  gather (each row's column in the table, for the
    left-limit lookup), log_x and codes (each row's stratum, whose levels,
    strata x k, give its covariates) cover all rows, which the criterion
    scores.  regression holds the QR over the cause-1 rows, at positions
    events.  chunk is the number of thetas per grid-pass call.  counts[c]
    is the number of rows that read column c, so clamped table values
    count as clamped rows.
    """

    table: CurveTable
    windows: tuple[int, ...]
    gather: np.ndarray
    counts: np.ndarray
    events: np.ndarray
    regression: _Regression
    log_x: np.ndarray
    levels: np.ndarray
    codes: np.ndarray
    chunk: int


def _cvm_plan(ds: Dataset, family: str, model_kind: str) -> _CvmPlan:
    strata = stratify(ds)
    table, sample = sorted_table(ds, strata)
    gather = left_columns(table, sample)
    del sample  # see _variance_plan
    windows = tuple(_smooth_window(span.stop - span.start - 1) for span in table.spans)
    events = np.flatnonzero(ds.delta == 1)
    log_x = np.log(ds.x)
    regression = _regression(family, model_kind, log_x[events], ds.z[events])
    counts = np.bincount(gather, minlength=table.times.size)  # after the QR: lower peak RSS
    return _CvmPlan(table=table, windows=windows, gather=gather, counts=counts,
                    events=events, regression=regression, log_x=log_x,
                    levels=np.array(strata.levels, dtype=float),
                    codes=strata.codes, chunk=_grid_chunk(ds.n))


def _row_values(plan: _CvmPlan, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Curve values at the left limit of each row's duration,
    clamped, one row per theta, and each theta's number of clamped rows.

    The table is clamped before the rows are gathered from it: clipping
    commutes with a gather, and the table has fewer columns than there are
    rows.
    """
    values = curves(plan.table, thetas)
    for span, window in zip(plan.table.spans, plan.windows):
        knots = values[:, span.start + 1:span.stop]
        knots[...] = smooth_curve_values(knots, window)
    _, n_clamped = _clamp_curve_values(values, out=values, counts=plan.counts)
    return np.take(values, plan.gather, axis=1), n_clamped


def _cvm_value(plan: _CvmPlan, s_cl: np.ndarray):
    """Criterion from the rows' clamped values, one row of s_cl per theta.

    Returns (values, failure messages, regression coefficients, mean gaps),
    one entry per theta; a failed theta's value is NaN and its message is in
    the list, which holds None for the others.  The (thetas x rows)
    temporaries are updated in place: at n = 100000 each one is 800 kB per
    theta, and fewer of them keep the evaluation's memory inside what the
    allocator already holds.
    """
    coef, errors = _solve(plan.regression, np.take(s_cl, plan.events, axis=1))
    gap = _model_survival(plan.regression, coef, plan.log_x, plan.levels, plan.codes, errors)
    gap -= s_cl
    mean_gap = np.mean(gap, axis=1)
    values = np.mean(np.square(gap, out=gap), axis=1)
    # a theta that failed above has NaN coefficients, hence a NaN value
    failed = ~np.isfinite(values)
    if failed.any():
        # only an overflowed curve (see cge.curves) puts NaN in s_hat; the
        # regression then fails under another name, which this one replaces
        overflow = np.isnan(s_cl).any(axis=1)
        errors = [CURVE_OVERFLOW if o else e for o, e in zip(overflow, errors)]
        _mark(errors, failed, "criterion evaluated to a non-finite value")
        values[failed] = np.nan
    return values, errors, coef, mean_gap


def _cvm_kernel(plan: _CvmPlan, thetas: np.ndarray):
    """The three-stage criterion at each theta of a chunk: _cvm_value's
    outputs and each theta's number of clamped rows."""
    s_cl, n_clamped = _row_values(plan, thetas)
    return (*_cvm_value(plan, s_cl), n_clamped)


def _pair_structure(strata: StrataIndex):
    # reference stratum = the largest (ties resolved lexicographically); the
    # remaining strata each contribute one contrast row z_j - z_ref
    ref = int(np.argmax(strata.sizes))
    others = [j for j in range(strata.n_strata) if j != ref]
    levels = np.array(strata.levels, dtype=float)
    diffs = levels[others] - levels[ref]
    if np.linalg.matrix_rank(diffs) < levels.shape[1]:
        raise EstimationError(
            "covariate level contrasts do not span the coefficient space; "
            "more distinct covariate vectors are needed"
        )
    return ref, others, np.linalg.pinv(diffs)


@dataclass(frozen=True)
class _VariancePlan:
    """What the two-stage criterion needs that does not depend on theta.

    table holds every stratum's curve; columns (strata x kept rows) holds
    each kept row's column in every curve for the right-continuous lookup,
    the reference stratum's row first and then the others (see
    ``cge.kept_columns``).  A row's coefficients are diffs_pinv applied to
    its other strata's log cumulative hazard differences from the
    reference; the criterion reads only their sum, weights =
    diffs_pinv.sum(axis=0) applied to the same differences.
    log_l (chunk x strata x kept rows) is the one scratch array, which every
    evaluation overwrites, so a plan serves one search at a time; chunk is
    the number of thetas per grid-pass call.
    """

    trim: TrimBounds
    table: CurveTable
    columns: np.ndarray
    diffs_pinv: np.ndarray
    weights: np.ndarray
    log_l: np.ndarray
    chunk: int


def _variance_plan(ds: Dataset) -> _VariancePlan:
    strata = stratify(ds)
    if ds.k < 1 or strata.n_strata < 2:
        raise EstimationError(
            "the semiparametric fit needs at least one covariate taking two or "
            "more values in the sample; a single stratum is not identified"
        )
    ref, others, diffs_pinv = _pair_structure(strata)
    table, sample = sorted_table(ds, strata)
    # the plan's n-row arrays are freed as soon as they are read (the sort
    # once the columns are), so that building it grows the heap little
    # beyond what the kernel holds
    del strata
    # the trimmed window depends only on each stratum's event times
    trim = trim_support(table, ds)
    if trim.kept.size < 2:
        raise EstimationError("fewer than 2 rows survive trimming")
    columns = kept_columns(ds, table, sample, trim.kept, (ref, *others))
    del sample
    chunk = _grid_chunk(trim.kept.size)
    return _VariancePlan(
        trim=trim, table=table, columns=columns, diffs_pinv=diffs_pinv,
        weights=diffs_pinv.sum(axis=0), log_l=np.empty((chunk, *columns.shape)), chunk=chunk,
    )


def _variance_value(plan: _VariancePlan, thetas: np.ndarray):
    """The two-stage criterion at each theta of a chunk.

    Returns (values, failure messages, contrasts) as _cvm_value does; the
    contrasts, a view of plan.log_l (thetas x other strata x kept rows), are
    each other stratum's log cumulative hazard log(-log S) minus the
    reference's.  log S comes from the curves' log-scale head
    (``cge.log_curves``), so no exp is taken and undone, and the transform
    runs over the table, which has fewer columns than there are kept rows.
    A curve value of 1 (log S = 0) or a clamped curve value of 0
    (log S = -inf) makes it infinite and only an overflowed curve makes it
    NaN.  Each row's weighted sum runs over the other strata in their order,
    with no matmul over the rows.  A non-finite contrast makes its theta's
    value non-finite, so the contrasts are checked only then.
    """
    table = log_curves(plan.table, thetas)
    with np.errstate(divide="ignore"):
        np.log(np.negative(table, out=table), out=table)
    # numpy buffers a take into out unless mode is "clip" or "wrap"; the
    # plan's columns all lie inside the table, so clipping changes nothing
    log_l = np.take(table, plan.columns, axis=1, out=plan.log_l[:thetas.size], mode="clip")
    contrasts = log_l[:, 1:]
    with np.errstate(invalid="ignore"):
        contrasts -= log_l[:, :1]
        row_sums = plan.weights[0] * contrasts[:, 0]
        for j in range(1, plan.weights.size):
            row_sums += plan.weights[j] * contrasts[:, j]
        # the sample variance of the rows' summed coefficients
        values = np.var(row_sums, ddof=1, axis=-1)
    errors: list = [None] * thetas.size
    failed = ~np.isfinite(values)
    if failed.any():
        _mark(errors, np.isnan(table).any(axis=1), CURVE_OVERFLOW)
        _mark(errors, ~np.all(np.isfinite(contrasts), axis=(1, 2)),
              "a curve value of 0 or 1 inside the trimmed window makes the "
              "coefficient undefined")
        _mark(errors, failed, "criterion evaluated to a non-finite value")
        values[failed] = np.nan
    return values, errors, contrasts


# ---------------------------------------------------------------------------
# Grid search with Brent refinement
# ---------------------------------------------------------------------------


def _brent(f: Callable[[float], float], lo: float, hi: float,
           start: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Bounded Brent minimisation of f on [lo, hi], in fminbound's form:
    parabolic steps through the three best points x, w and v, with a
    golden-section step wherever the parabola is rejected.  Returns the best
    point found and its value.

    start holds two or three (point, value) pairs in [lo, hi] that are
    already scored, best first: they seed x, w and v (v = w if there are
    two), and the previous two steps count as the bracket's width, so the
    first step can be parabolic.  A value may be inf (a failed point); a
    parabola through it is rejected.  The search stops when both ends of the
    bracket lie within 2 * (sqrt(eps) |x| + TAU_TOL / 3) of x.
    """
    a, b = lo, hi
    (x, fx), (w, fw), *rest = start
    v, fv = rest[0] if rest else (w, fw)
    e = step = b - a
    while True:
        mid = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + TAU_TOL / 3.0
        tol2 = 2.0 * tol1
        if abs(x - mid) <= tol2 - 0.5 * (b - a):
            return x, fx
        parabolic = False
        if abs(e) > tol1:
            # through (x, fx), (w, fw) and (v, fv); an inf value makes p
            # and q infinite or NaN, which fails the acceptance test
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e, last = step, e
            if abs(p) < abs(0.5 * q * last) and q * (a - x) < p < q * (b - x):
                parabolic = True
                step = p / q
                if (x + step) - a < tol2 or b - (x + step) < tol2:
                    step = tol1 if mid >= x else -tol1
        if not parabolic:
            e = a - x if x >= mid else b - x
            step = _GOLDEN * e
        u = x + (tol1 if step >= 0.0 else -tol1) if abs(step) < tol1 else x + step
        fu = f(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def _thetas(taus: np.ndarray) -> np.ndarray:
    return np.array([theta_from_tau(t) for t in taus])


def _search_tau(kernel: Callable, grid: np.ndarray, chunk: int):
    """Grid pass in chunks of up to chunk taus, then Brent refinement inside
    the best bracket one tau at a time, seeded with its three grid points.

    kernel maps an array of thetas to (values, failure messages, *outputs)
    as the kernels do; it never raises, it sets a failed theta's value to
    NaN with its own message, and its outputs may be views of scratch memory
    that its next call overwrites.  Every call goes through one scoring
    step, which records each tau's value in the trace (a failed one as NaN)
    and keeps a copy of the kernel's outputs at the evaluated tau with the
    least finite value (the lower tau on a tie), tau_hat, so no evaluation
    follows the refinement.  A non-finite value is a failure and is skipped;
    the search fails only if every grid point fails, with the points'
    distinct messages.  Returns (tau_hat, trace, the kernel's outputs at
    tau_hat, diagnostics): n_grid_failed counts the failed grid points and
    grid_local_minima holds the grid taus whose finite value lies below both
    finite neighbours, so a criterion with several modes shows them all.
    """
    best = (math.inf, math.inf, None)  # value, tau, outputs
    trace: list = []

    def score(taus: np.ndarray):
        nonlocal best
        values, errors, *outputs = kernel(_thetas(taus))
        ok = np.isfinite(values)
        if ok.any():
            i = int(np.flatnonzero(ok)[np.argmin(values[ok])])
            if (values[i], taus[i]) < best[:2]:
                best = (float(values[i]), float(taus[i]), [out[i].copy() for out in outputs])
        trace.extend(zip(taus.tolist(), values.tolist()))
        return values, errors

    values = np.empty(grid.size)
    errors: list = []
    for start in range(0, grid.size, chunk):
        values[start:start + chunk], chunk_errors = score(grid[start:start + chunk])
        errors.extend(chunk_errors)
    failed = [e for e in errors if e is not None]
    if best[2] is None:
        messages = dict.fromkeys(failed)  # distinct, in grid order
        raise EstimationError("criterion failed at every grid point: " + "; ".join(messages))
    # a comparison with NaN is false, so failed points never count
    mid = values[1:-1]
    is_min = (mid < values[:-2]) & (mid < values[2:])
    minima = tuple(float(t) for t in grid[1:-1][is_min])

    def value(tau: float) -> float:
        (y,), _ = score(np.array([tau]))
        return float(y) if math.isfinite(y) else math.inf

    # the best grid point first, then its neighbours by value; a failed
    # point enters the refinement as inf
    scores = np.where(np.isfinite(values), values, math.inf)
    i = int(np.argmin(scores))
    lo, hi = max(i - 1, 0), min(i + 1, grid.size - 1)
    if hi > lo:
        seeds = sorted({i, lo, hi}, key=lambda j: (j != i, scores[j]))
        _brent(value, float(grid[lo]), float(grid[hi]),
               [(float(grid[j]), float(scores[j])) for j in seeds])
    trace.sort(key=lambda tv: tv[0])
    _, tau_hat, outputs = best
    diagnostics = {"n_grid_failed": len(failed), "grid_local_minima": minima}
    return tau_hat, tuple(trace), outputs, diagnostics


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


def fit_3se(ds: Dataset, family: str, model_kind: str = "aft") -> FitResult3SE:
    """Three-stage fit: stratified curves, marginal regression, dependence search.

    model_kind 'aft' fits the chosen family on the acceleration scale; 'ph'
    fits the Weibull-baseline proportional-hazards form (the only baseline
    supported on the hazard scale).
    """
    _check_family(family)
    if model_kind not in ("aft", "ph"):
        raise ValueError(f"unknown model_kind {model_kind!r}; use 'aft' or 'ph'")
    if model_kind == "ph" and family != "weibull":
        raise ValueError("model_kind 'ph' supports only the weibull baseline")
    plan = _cvm_plan(ds, family, model_kind)
    tau_hat, trace, (coef, mean_gap, n_clamped), search = _search_tau(
        functools.partial(_cvm_kernel, plan), DEFAULT_TAU_GRID, plan.chunk)
    return FitResult3SE(
        tau_hat=tau_hat,
        theta_hat=theta_from_tau(tau_hat),
        model=FglsFit(family, model_kind, coef, int(n_clamped)).model(),
        objective_trace=trace,
        kept_n=ds.n,
        diagnostics={"n_clamped": int(n_clamped), "mean_gap": float(mean_gap), **search},
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


def fit_2se(ds: Dataset) -> FitResult2SE:
    """Two-stage fit: dependence by minimum coefficient variance, then the mean.

    Requires at least one covariate with two observed levels; the coefficient
    contrasts are taken against the largest stratum.  The coefficient is on
    the proportional-hazards scale.
    """
    plan = _variance_plan(ds)
    tau_hat, trace, (contrasts,), diagnostics = _search_tau(
        functools.partial(_variance_value, plan), DEFAULT_TAU_GRID, plan.chunk)
    return FitResult2SE(
        tau_hat=tau_hat,
        theta_hat=theta_from_tau(tau_hat),
        beta_hat=(contrasts.T @ plan.diffs_pinv.T).mean(axis=0),
        objective_trace=trace,
        x_star=plan.trim.x_star,
        x_double_star=plan.trim.x_double_star,
        kept_n=int(plan.trim.kept.size),
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# Flat parameter views (used by the bootstrap, the simulation harness, the CLI)
# ---------------------------------------------------------------------------


def three_stage_point(ds: Dataset, family: str, model_kind: str = "aft") -> dict[str, float]:
    """fit_3se reduced to a flat {name: value} parameter map."""
    res = fit_3se(ds, family, model_kind=model_kind)
    out = {"tau": res.tau_hat, "alpha": res.model.alpha, "sigma": res.model.sigma}
    for j, bj in enumerate(res.model.beta, start=1):
        out[f"beta{j}"] = float(bj)
    return out


def two_stage_point(ds: Dataset) -> dict[str, float]:
    """fit_2se reduced to a flat {name: value} parameter map."""
    res = fit_2se(ds)
    out = {"tau": res.tau_hat}
    for j, bj in enumerate(res.beta_hat, start=1):
        out[f"beta{j}"] = float(bj)
    return out
