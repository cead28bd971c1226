"""Clayton Archimedean copula: generator, inverse, derivative and conditional sampling.

The generator is ``phi(u) = (1 + theta*u)_+ ** (-1/theta)`` for ``theta != 0``
and ``phi(u) = exp(-u)`` at ``theta = 0``.  The admissible dependence range is
``theta in [-1, inf)``; ``theta = -1`` is perfect negative dependence, ``0`` is
independence, and ``theta -> inf`` approaches comonotonicity.  Kendall's tau is
``theta / (theta + 2)``.

Pairs are sampled by the conditional method: ``conditional_v_given_u`` maps
a uniform ``w`` to V given U = u through one closed form valid on the whole
range, with the independence and countermonotone limits as their own branches.

All functions accept scalars or numpy arrays and are pure (thread-safe).
"""

from __future__ import annotations

import numpy as np

# Below this magnitude the exponential/logarithmic limit branch is used to
# avoid catastrophic cancellation in (1+u*theta)**(-1/theta).
THETA_ZERO_TOL = 1e-8

THETA_MIN = -1.0


def _validate_theta(theta: float) -> float:
    theta = float(theta)
    if not np.isfinite(theta) or theta < THETA_MIN:
        raise ValueError(f"theta must be a finite number >= -1, got {theta}")
    return theta


def _ret(out: np.ndarray, scalar: bool):
    return float(out) if scalar else out


def generator(u, theta):
    """Generator phi_theta(u) on u >= 0, with values in [0, 1].

    theta is one dependence, or an array that broadcasts against u, such as
    a column holding one theta per row of a 2-d u.  For theta < 0 the
    generator is non-strict and clamps at zero once ``1 + theta*u <= 0``;
    a theta within THETA_ZERO_TOL of 0 gives exp(-u).
    """
    theta = np.asarray(theta, dtype=float)
    if not (np.isfinite(theta) & (theta >= THETA_MIN)).all():
        raise ValueError(f"theta must be a finite number >= -1, got {theta}")
    u = np.asarray(u, dtype=float)
    if not ((u >= 0).all() and np.isfinite(u).all()):
        raise ValueError("generator argument u must be finite and >= 0")
    out = _log_generator(u, theta)
    return _ret(np.exp(out, out=out), u.ndim == 0)


def _log_generator(u: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """log phi_theta(u), ``log(max(1 + theta*u, 0)) / -theta``, without
    checks, for callers whose u is finite and >= 0 and whose theta is
    admissible by construction.  Where 1 + theta*u <= 0 it is -inf, and
    where theta lies within THETA_ZERO_TOL of 0 it is -u."""
    zero = np.abs(theta) < THETA_ZERO_TOL
    near_zero = zero.any()
    if near_zero:
        theta = np.where(zero, 1.0, theta)
    out = np.asarray(theta * u)
    out += 1.0
    np.maximum(out, 0.0, out=out)
    with np.errstate(divide="ignore"):
        np.log(out, out=out)
    out /= -theta
    if near_zero:
        np.negative(u, out=out, where=zero)
    return out


def generator_inverse(s, theta: float):
    """Quasi-inverse phi_theta^{-1}(s) on s in (0, 1]."""
    theta = _validate_theta(theta)
    s = np.asarray(s, dtype=float)
    scalar = s.ndim == 0
    if not np.all((s > 0.0) & (s <= 1.0)):
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
    if not np.all((s > 0.0) & (s <= 1.0)):
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


def conditional_v_given_u(u, w, theta: float):
    """Conditional quantile of V given U = u: the v with dK_theta(u, v)/du = w.

    One closed form on theta in (-1, 0) and (0, inf),
    ``v = (1 + u**-theta * (w**(-theta/(1+theta)) - 1)) ** (-1/theta)``,
    plus its two limits: ``v = w`` at independence (``|theta| < THETA_ZERO_TOL``)
    and ``v = 1 - u`` at perfect negative dependence (``theta = -1``).
    """
    theta = _validate_theta(theta)
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    scalar = u.ndim == 0 and w.ndim == 0
    u, w = np.broadcast_arrays(u, w)
    if not np.all((u > 0.0) & (u < 1.0) & (w > 0.0) & (w < 1.0)):
        raise ValueError("conditional_v_given_u requires u, w in the open interval (0, 1)")

    if abs(theta) < THETA_ZERO_TOL:
        return _ret(w.copy(), scalar)
    if theta == THETA_MIN:
        return _ret(1.0 - u, scalar)

    a = -theta / (1.0 + theta) * np.log(w)
    if theta > 0.0:
        # in log space, so that large theta does not overflow
        log_term = np.log(np.expm1(a)) - theta * np.log(u)
        v = np.exp(-np.logaddexp(log_term, 0.0) / theta)
    else:
        # u**-theta * expm1(a) lies in (-1, 0) here, where log1p keeps precision
        v = np.exp(-np.log1p(np.exp(-theta * np.log(u)) * np.expm1(a)) / theta)
    return _ret(v, scalar)
