"""Nonparametric first-stage estimators on a covariate stratum.

``overall_survival`` is the empirical survivor of the observed duration X
(fully observed, so no risk adjustment is involved), and ``sub_distribution``
is the empirical cumulative incidence of cause 1.  Both are right-continuous
step functions, the first stage of ``cge.copula_graphic``.  The fits and the
CLI's curve dump do not build them: ``cge.sorted_table`` performs the same
operations on one sort of a dataset's durations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous piecewise-constant function on [0, inf).

    Takes ``initial_value`` on [0, jump_times[0]) and ``values[i]`` on
    [jump_times[i], jump_times[i+1]).  ``jump_times`` must be strictly
    increasing and positive; it may be empty (constant function).
    """

    jump_times: np.ndarray
    values: np.ndarray
    initial_value: float

    def __post_init__(self):
        jt = np.asarray(self.jump_times, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if jt.ndim != 1 or vals.ndim != 1 or jt.shape != vals.shape:
            raise ValueError("jump_times and values must be 1-d arrays of equal length")
        if jt.size and (np.any(np.diff(jt) <= 0) or jt[0] <= 0):
            raise ValueError("jump_times must be positive and strictly increasing")
        jt.flags.writeable = False
        vals.flags.writeable = False
        object.__setattr__(self, "jump_times", jt)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "initial_value", float(self.initial_value))

    def __call__(self, t):
        """Right-continuous lookup: the value at t includes any jump at t."""
        return self._lookup(t, "right")

    def left_limit(self, t):
        """Left limit at t: the value just before any jump at t."""
        return self._lookup(t, "left")

    def _lookup(self, t, side: str):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.jump_times, t, side=side)
        out = np.concatenate(([self.initial_value], self.values))[idx]
        return float(out) if t.ndim == 0 else out

    @property
    def final_value(self) -> float:
        return float(self.values[-1]) if self.values.size else self.initial_value


def overall_survival(x) -> StepFunction:
    """Empirical survivor of X on a stratum: S(t) = #{x_i > t} / n."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError("stratum is empty")
    xs = np.sort(x)
    times = np.unique(xs)
    n = xs.size
    surv = 1.0 - np.searchsorted(xs, times, side="right") / n
    return StepFunction(jump_times=times, values=surv, initial_value=1.0)


def sub_distribution(x, delta) -> StepFunction:
    """Empirical cause-1 cumulative incidence: F(t) = #{x_i <= t, delta_i = 1} / n.

    n is the full stratum size, so the curve saturates at the cause-1 fraction.
    """
    x = np.asarray(x, dtype=float)
    delta = np.asarray(delta, dtype=int)
    if x.size == 0:
        raise ValueError("stratum is empty")
    if x.shape != delta.shape:
        raise ValueError("x and delta must have equal length")
    n = x.size
    ex = np.sort(x[delta == 1])
    if ex.size == 0:
        return StepFunction(
            jump_times=np.empty(0), values=np.empty(0), initial_value=0.0
        )
    times, counts = np.unique(ex, return_counts=True)
    cum = np.cumsum(counts) / n
    return StepFunction(jump_times=times, values=cum, initial_value=0.0)
