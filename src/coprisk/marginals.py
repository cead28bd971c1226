"""Parametric marginal survival families (AFT and proportional-hazards forms).

Each family is a log-linear duration model
``log(x) = -log(alpha) - z'beta + (1/sigma) * W`` with a known survival
distribution S_W for the noise term W:

    exponential   S_W(w) = exp(-exp(w)), sigma fixed at 1
    weibull       S_W(w) = exp(-exp(w))
    loglogistic   S_W(w) = 1 / (1 + exp(w))
    lognormal     S_W(w) = 1 - Phi(w)

An ``AftModel`` accelerates time: S(t|z) = S_W(sigma * log(alpha t e^{z'b})).
A ``PhModel`` scales the baseline cumulative hazard -log S(t|0) by exp(z'beta)
instead.  ``survival`` and ``inverse_survival`` read the form from the model's
type; the families themselves are written out only in ``sw_survival`` (S_W)
and ``_sw_inverse`` (its inverse).

The loglogistic and lognormal branches import ``expit``, ``ndtr`` and ``ndtri``
from ``scipy.special`` on first use; exponential and weibull need only numpy,
so a fit in those families never loads scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

FAMILIES = ("exponential", "weibull", "loglogistic", "lognormal")


def _check_family(family: str) -> str:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose one of {FAMILIES}")
    return family


def _as_beta(beta) -> np.ndarray:
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    if beta.ndim != 1:
        raise ValueError("beta must be a 1-d coefficient vector")
    if not np.all(np.isfinite(beta)):
        raise ValueError(f"beta must be finite, got {beta.tolist()}")
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
        # a comparison with NaN is false
        if not 0.0 < self.alpha < np.inf:
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")
        if not 0.0 < self.sigma < np.inf:
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma}")
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
        # exp(-exp(w)), in one array
        out = np.empty_like(w)
        with np.errstate(over="ignore"):
            np.exp(w, out=out)
        np.exp(np.negative(out, out=out), out=out)
    elif family == "loglogistic":
        from scipy.special import expit
        out = expit(-w)
    else:
        from scipy.special import ndtr
        out = ndtr(-w)
    return float(out) if scalar else out


def _sw_inverse(family: str, s: np.ndarray) -> np.ndarray:
    """Inverse of S_W, strictly decreasing, in one array.  It checks nothing:
    callers pass s inside (0, 1), and NaN maps to NaN."""
    out = np.empty_like(s)
    if family in ("exponential", "weibull"):
        # log(-log(s))
        np.log(s, out=out)
        np.log(np.negative(out, out=out), out=out)
    elif family == "loglogistic":
        # log((1 - s) / s)
        np.subtract(1.0, s, out=out)
        out /= s
        np.log(out, out=out)
    else:
        from scipy.special import ndtri
        np.negative(ndtri(s, out=out), out=out)
    return out


def survival(model: AftModel, t, z):
    """Marginal survival S(t|z); one at t = 0, decreasing in t.

    An AftModel gives S_W(sigma log(alpha t e^{z'b})); a PhModel raises its
    baseline S(t|0) to the power exp(z'beta).
    """
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0):
        raise ValueError("time t must be >= 0")
    ph = isinstance(model, PhModel)
    zb = _zb(model, z)
    # log(alpha t e^{z'b}), or log(alpha t) for the PH baseline; t = 0 gives -inf
    with np.errstate(divide="ignore"):
        log_m = np.log(model.alpha) + np.log(t)
    out = sw_survival(model.family, model.sigma * (log_m if ph else log_m + zb))
    if ph:
        out = out ** np.exp(zb)
    return float(out) if t.ndim == 0 else out


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
    if not np.all((u > 0.0) & (u < 1.0)):
        raise ValueError("inverse_survival argument u must lie strictly inside (0, 1)")
    w = _sw_inverse(model.family, u)
    out = np.exp(w / model.sigma - np.log(model.alpha) - zb)
    return float(out) if scalar else out
