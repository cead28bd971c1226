"""Parametric marginal survival families (AFT and proportional-hazards forms).

Each family is a log-linear duration model
``log(x) = -log(alpha) - z'beta + (1/sigma) * W`` with a known survival
distribution S_W for the noise term W:

    exponential   S_W(w) = exp(-exp(w)), sigma fixed at 1
    weibull       S_W(w) = exp(-exp(w))
    loglogistic   S_W(w) = 1 / (1 + exp(w))
    lognormal     S_W(w) = 1 - Phi(w)

An ``AftModel`` accelerates time: Lambda(t|z) = -log S_W(sigma * log(alpha t e^{z'b})).
A ``PhModel`` scales the baseline Lambda(t|0) by exp(z'beta) instead.
``cumulative_hazard``, ``survival`` and ``inverse_survival`` read the form from
the model's type.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit, ndtr, ndtri

FAMILIES = ("exponential", "weibull", "loglogistic", "lognormal")


def _check_family(family: str) -> str:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose one of {FAMILIES}")
    return family


def _as_beta(beta) -> np.ndarray:
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    if beta.ndim != 1:
        raise ValueError("beta must be a 1-d coefficient vector")
    return beta


@dataclass(frozen=True)
class AftModel:
    """Accelerated failure time model with parameters (alpha, beta, sigma)."""

    family: str
    alpha: float
    beta: np.ndarray = field(default_factory=lambda: np.empty(0))
    sigma: float = 1.0

    def __post_init__(self):
        _check_family(self.family)
        beta = _as_beta(self.beta)
        beta.flags.writeable = False
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "sigma", float(self.sigma))
        if not self.alpha > 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if self.family == "exponential" and self.sigma != 1.0:
            raise ValueError("the exponential family fixes sigma = 1")

    @property
    def k(self) -> int:
        return self.beta.shape[0]


@dataclass(frozen=True)
class PhModel(AftModel):
    """Proportional hazards model: beta acts on the hazard scale.

    The baseline cumulative hazard is the family's AFT hazard at z = 0 with
    the same (alpha, sigma); the type selects this form in ``survival``.
    """


def _zb(model: AftModel, z):
    # z is a k-vector or an (n, k) matrix; for k = 0 this is identically zero
    z = np.asarray(z, dtype=float)
    return z @ model.beta


def sw_survival(family: str, w):
    """Noise survival S_W(w) of the family, on the whole real line."""
    _check_family(family)
    w = np.asarray(w, dtype=float)
    scalar = w.ndim == 0
    if family in ("exponential", "weibull"):
        with np.errstate(over="ignore"):
            out = np.exp(-np.exp(w))
    elif family == "loglogistic":
        out = expit(-w)
    else:
        out = ndtr(-w)
    return float(out) if scalar else out


def sw_inverse(family: str, s):
    """Inverse of S_W on s in (0, 1), strictly decreasing."""
    _check_family(family)
    s = np.asarray(s, dtype=float)
    scalar = s.ndim == 0
    if np.any(s <= 0.0) or np.any(s >= 1.0):
        raise ValueError("sw_inverse argument s must lie strictly inside (0, 1)")
    if family in ("exponential", "weibull"):
        out = np.log(-np.log(s))
    elif family == "loglogistic":
        out = np.log((1.0 - s) / s)
    else:
        out = -ndtri(s)
    return float(out) if scalar else out


def cumulative_hazard(model: AftModel, t, z):
    """Cumulative hazard Lambda(t|z); zero at t = 0, increasing in t.

    An AftModel enters z'beta inside the time scale; a PhModel multiplies the
    baseline Lambda(t|0) by exp(z'beta).
    """
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    if np.any(t < 0):
        raise ValueError("time t must be >= 0")
    ph = isinstance(model, PhModel)
    # log(alpha * t * exp(z'beta)), or log(alpha * t) for the PH baseline;
    # t = 0 maps to -inf and is set to zero hazard below
    with np.errstate(divide="ignore"):
        log_m = np.log(model.alpha) + np.log(t)
    if not ph:
        log_m = log_m + _zb(model, z)
    w = model.sigma * log_m
    if model.family in ("exponential", "weibull"):
        out = np.exp(w)
    elif model.family == "loglogistic":
        with np.errstate(over="ignore"):
            out = np.logaddexp(0.0, w)  # log(1 + exp(w))
    else:
        with np.errstate(divide="ignore"):
            out = -np.log(ndtr(-w))
    out = np.where(t == 0.0, 0.0, out)
    if ph:
        out = out * np.exp(_zb(model, z))
    return float(out) if scalar else out


def survival(model: AftModel, t, z):
    """Marginal survival exp(-Lambda(t|z)); S_W(sigma log(alpha t e^{z'b})) for an AftModel."""
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    out = np.exp(-cumulative_hazard(model, t, z))
    return float(out) if scalar else out


def inverse_survival(model: AftModel, u, z):
    """Duration t solving survival(model, t, z) = u, for u in (0, 1).

    All four families invert through t = exp(S_W^{-1}(u)/sigma) / (alpha e^{z'b});
    a PhModel inverts its baseline at u ** exp(-z'beta) instead.
    """
    u = np.asarray(u, dtype=float)
    scalar = u.ndim == 0
    zb = _zb(model, z)
    if isinstance(model, PhModel):
        u, zb = u ** np.exp(-zb), 0.0
    w = sw_inverse(model.family, u)
    out = np.exp(np.asarray(w) / model.sigma - np.log(model.alpha) - zb)
    return float(out) if scalar else out
