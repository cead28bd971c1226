"""Clayton Archimedean copula: generator, inverse, derivative and sampling helpers.

The generator is ``phi(u) = (1 + theta*u)_+ ** (-1/theta)`` for ``theta != 0``
and ``phi(u) = exp(-u)`` at ``theta = 0``.  The admissible dependence range is
``theta in [-1, inf)``; ``theta = -1`` is perfect negative dependence, ``0`` is
independence, and ``theta -> inf`` approaches comonotonicity.  Kendall's tau is
``theta / (theta + 2)``.

All functions accept scalars or numpy arrays and are pure (thread-safe).
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError

# Below this magnitude the exponential/logarithmic limit branch is used to
# avoid catastrophic cancellation in (1+u*theta)**(-1/theta).
THETA_ZERO_TOL = 1e-8

THETA_MIN = -1.0

_BISECT_TOL = 1e-10


def _validate_theta(theta: float) -> float:
    theta = float(theta)
    if not np.isfinite(theta) or theta < THETA_MIN:
        raise ValueError(f"theta must be a finite number >= -1, got {theta}")
    return theta


def _ret(out: np.ndarray, scalar: bool):
    return float(out) if scalar else out


def generator(u, theta: float):
    """Generator phi_theta(u) on u >= 0, with values in [0, 1].

    For theta < 0 the generator is non-strict and clamps at zero once
    ``1 + theta*u <= 0``.
    """
    theta = _validate_theta(theta)
    u = np.asarray(u, dtype=float)
    scalar = u.ndim == 0
    if np.any(u < 0) or not np.all(np.isfinite(u)):
        raise ValueError("generator argument u must be finite and >= 0")
    if abs(theta) < THETA_ZERO_TOL:
        return _ret(np.exp(-u), scalar)
    base = 1.0 + theta * u
    safe = np.where(base > 0.0, base, 1.0)
    out = np.where(base > 0.0, np.exp(-np.log(safe) / theta), 0.0)
    return _ret(out, scalar)


def generator_inverse(s, theta: float):
    """Quasi-inverse phi_theta^{-1}(s) on s in (0, 1]."""
    theta = _validate_theta(theta)
    s = np.asarray(s, dtype=float)
    scalar = s.ndim == 0
    if np.any(s <= 0.0) or np.any(s > 1.0):
        raise ValueError("generator_inverse argument s must lie in (0, 1]")
    if abs(theta) < THETA_ZERO_TOL:
        return _ret(-np.log(s), scalar)
    # (s**-theta - 1)/theta, computed via expm1 for stability near theta = 0
    out = np.expm1(-theta * np.log(s)) / theta
    return _ret(out, scalar)


def generator_inverse_deriv(s, theta: float):
    """First derivative of the quasi-inverse: -s**-(theta+1), strictly negative."""
    theta = _validate_theta(theta)
    s = np.asarray(s, dtype=float)
    scalar = s.ndim == 0
    if np.any(s <= 0.0) or np.any(s > 1.0):
        raise ValueError("generator_inverse_deriv argument s must lie in (0, 1]")
    out = -np.exp(-(theta + 1.0) * np.log(s))
    return _ret(out, scalar)


def tau_from_theta(theta: float) -> float:
    """Kendall's tau implied by theta: theta/(theta+2), in [-1, 1)."""
    theta = _validate_theta(theta)
    return theta / (theta + 2.0)


def theta_from_tau(tau: float) -> float:
    """Dependence parameter for a given Kendall's tau: 2*tau/(1-tau)."""
    tau = float(tau)
    if not np.isfinite(tau) or tau < -1.0 or tau >= 1.0:
        raise ValueError(f"tau must lie in [-1, 1), got {tau}")
    return 2.0 * tau / (1.0 - tau)


def _conditional_cdf(u: np.ndarray, v: np.ndarray, theta: float) -> np.ndarray:
    # P(V <= v | U = u) = dK/du; zero on the copula's zero region (theta < 0).
    base = np.exp(-theta * np.log(u)) + np.exp(-theta * np.log(v)) - 1.0
    safe = np.where(base > 0.0, base, 1.0)
    with np.errstate(over="ignore"):
        out = np.exp(-(theta + 1.0) * np.log(u)) * np.exp(
            (-1.0 / theta - 1.0) * np.log(safe)
        )
    return np.where(base > 0.0, out, 0.0)


def conditional_v_given_u(u, w, theta: float):
    """Solve dK_theta(u, v)/du = w for v, the conditional quantile of V given U=u.

    Closed form for theta > 0; bisection (tolerance 1e-10) for theta in [-1, 0)
    where the copula has a zero region; identity at theta = 0.
    """
    theta = _validate_theta(theta)
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    scalar = u.ndim == 0 and w.ndim == 0
    u, w = np.broadcast_arrays(u, w)
    if np.any(u <= 0.0) or np.any(u >= 1.0) or np.any(w <= 0.0) or np.any(w >= 1.0):
        raise ValueError("conditional_v_given_u requires u, w in the open interval (0, 1)")

    if abs(theta) < THETA_ZERO_TOL:
        return _ret(w.copy(), scalar)

    if theta > 0.0:
        # v = ((w**(-theta/(1+theta)) - 1) * u**(-theta) + 1) ** (-1/theta),
        # evaluated in log space so that large theta does not overflow.
        a = -theta / (1.0 + theta) * np.log(w)
        log_term = np.log(np.expm1(a)) - theta * np.log(u)
        v = np.exp(-np.logaddexp(log_term, 0.0) / theta)
        return _ret(v, scalar)

    lo = np.full(u.shape, 1e-15)
    hi = np.full(u.shape, 1.0 - 1e-15)
    if np.any(_conditional_cdf(u, hi, theta) < w - 1e-9):
        raise ConvergenceError("conditional inversion failed to bracket the target")
    while np.max(hi - lo) > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        above = _conditional_cdf(u, mid, theta) >= w
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    v = 0.5 * (lo + hi)
    return _ret(v, scalar)
