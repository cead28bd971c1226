"""Copula-graphic recovery of a latent marginal survival curve.

Given the stratum's empirical overall survival ``pi_hat`` and cause-1
cumulative incidence ``f_t_hat``, the curve at dependence ``theta`` is

    S(x) = phi_theta[ -sum_{event times u <= x} phi_inv_deriv(pi_hat(u-)) * dF(u) ]

where ``pi_hat(u-)`` is the left limit (the at-risk fraction just before u)
and ``dF(u)`` the incidence jump.  Evaluating the integrand at the left limit
keeps the first event well defined and treats same-time events as occurring
before same-time censorings.

Only the generator depends on theta.  ``curve_basis`` builds a stratum's
theta-free pieces once (``stratum_bases`` does so for every stratum of a
dataset); ``curve_values`` is the kernel that the estimators' searches call,
on one theta or on a chunk of them at once; ``copula_graphic`` composes the
two into a step function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .copula import generator, _validate_theta
from .data import Dataset, StrataIndex
from .errors import EstimationError
from .first_stage import StepFunction, overall_survival, sub_distribution

CURVE_OVERFLOW = (
    "the copula-graphic integrand pi_hat(u-)**-(theta+1) overflows; the "
    "dependence is too strong for this sample's at-risk fractions"
)


@dataclass(frozen=True)
class TrimBounds:
    """Duration window on which every stratum curve is informative.

    x_star: beyond it at least one curve has plateaued (improper tail).
    x_double_star: below it at least one curve is still exactly 1.
    kept: indices of rows with x_double_star <= x_i <= x_star.
    """

    x_star: float
    x_double_star: float
    kept: np.ndarray


@dataclass(frozen=True)
class CurveBasis:
    """The theta-free part of one stratum's copula-graphic curve.

    event_times: the cause-1 knot times; jumps: the incidence jumps dF there;
    log_pi_left: log pi_hat(t-) at each knot.
    """

    event_times: np.ndarray
    jumps: np.ndarray
    log_pi_left: np.ndarray


def curve_basis(pi_hat: StepFunction, f_t_hat: StepFunction) -> CurveBasis:
    """Precompute the pieces of the curve that do not depend on theta.

    pi_hat and f_t_hat must come from the same stratum.
    """
    times = f_t_hat.jump_times
    jumps = np.diff(np.concatenate(([f_t_hat.initial_value], f_t_hat.values)))
    pi_left = pi_hat.left_limit(times)
    bad = pi_left <= 0.0
    if np.any(bad):
        t_bad = times[np.argmax(bad)]
        raise EstimationError(
            f"overall survival vanishes at event time {t_bad}; the curve "
            "integrand diverges there"
        )
    return CurveBasis(event_times=times, jumps=jumps, log_pi_left=np.log(pi_left))


def stratum_bases(ds: Dataset, strata: StrataIndex) -> list[CurveBasis]:
    """One curve basis per stratum, in the order of strata.indices."""
    return [
        curve_basis(
            overall_survival(ds.x[idx]), sub_distribution(ds.x[idx], ds.delta[idx])
        )
        for idx in strata.indices
    ]


def curve_values(basis: CurveBasis, theta) -> np.ndarray:
    """Curve values at the basis's event times for dependence theta.

    theta is one dependence, giving one curve, or a 1-d array of them,
    giving a (thetas x knots) array with one curve per row.  The integrand
    -phi_inv_deriv(pi_hat(u-)) is pi_hat(u-)**-(theta+1).  For theta < 0 the
    curve clamps at zero once the accumulated sum leaves the generator's
    support.  Where that sum overflows, one theta raises EstimationError
    and a theta of an array gets a row of NaN.
    """
    thetas = np.asarray(theta, dtype=float)
    col = thetas.reshape(-1, 1)
    with np.errstate(over="ignore"):
        running = np.cumsum(np.exp(-(col + 1.0) * basis.log_pi_left) * basis.jumps, axis=1)
        # the terms are positive, so an overflowed sum ends at inf, and one
        # sum over the last column tests every theta
        overflow = math.isinf(running[:, -1:].sum())
        if overflow:
            if thetas.ndim == 0:
                raise EstimationError(f"{CURVE_OVERFLOW} (theta = {float(thetas):g})")
            rows = np.isinf(running[:, -1])
            running[rows] = 0.0
        values = generator(running, col)
    if overflow:
        values[rows] = np.nan
    return values[0] if thetas.ndim == 0 else values


def copula_graphic(pi_hat: StepFunction, f_t_hat: StepFunction, theta: float) -> StepFunction:
    """Plug-in survival curve for cause 1 at dependence parameter theta.

    pi_hat and f_t_hat must come from the same stratum.  The curve is 1
    before the first cause-1 event and steps at each of them.
    """
    theta = _validate_theta(theta)
    basis = curve_basis(pi_hat, f_t_hat)
    return StepFunction(basis.event_times, curve_values(basis, theta), initial_value=1.0)


def trim_support(bases: Iterable[CurveBasis], ds: Dataset) -> TrimBounds:
    """Support window for estimators that compare curves across strata.

    Only each stratum's event times are used, so the window does not depend
    on theta.

    x_star is the smallest last-event time across strata (each curve plateaus
    after its own last cause-1 event), x_double_star the largest first-event
    time (each curve equals 1 before its own first event).
    """
    bases = list(bases)
    if not bases:
        raise EstimationError("trim_support needs at least one curve")
    if any(basis.event_times.size == 0 for basis in bases):
        raise EstimationError("a stratum has no cause-1 events; its curve never leaves 1")
    x_star = float(min(basis.event_times[-1] for basis in bases))
    x_double_star = float(max(basis.event_times[0] for basis in bases))
    kept = np.flatnonzero((ds.x >= x_double_star) & (ds.x <= x_star))
    if kept.size == 0:
        raise EstimationError(
            f"no observations inside the trimmed window [{x_double_star}, {x_star}]; "
            "strata event supports do not overlap"
        )
    return TrimBounds(x_star=x_star, x_double_star=x_double_star, kept=kept)
