"""Independent brute-force oracles and shared sample generators for the tests.

Everything here is deliberately written with plain loops and set counting so
it cannot share a code path (or a bug) with the package's vectorised
implementations.
"""

import numpy as np

from coprisk.errors import EstimationError


def nelson_aalen_survival(x, delta, t):
    """exp(-cause-1 Nelson-Aalen cumulative hazard) at time t, by set counting."""
    x = np.asarray(x, dtype=float)
    delta = np.asarray(delta, dtype=int)
    hazard = 0.0
    for u in sorted(set(x[delta == 1])):
        if u <= t:
            died = int(np.sum((x == u) & (delta == 1)))
            at_risk = int(np.sum(x >= u))
            hazard += died / at_risk
    return float(np.exp(-hazard))


def mixed_risk_sample(rng, n):
    """A plain mixed-risk sample: both labels present, no support conditions."""
    while True:
        x = rng.exponential(1.0, n)
        delta = rng.integers(0, 2, n)
        if 0 < delta.sum() < n:
            return x, delta


def study_design_sample(rng, n=60, cap=0.7):
    """Mixed-risk sample from an early-dropout plus end-of-study design.

    Failure times are Weibull; censoring is an early dropout with probability
    0.3 or otherwise administrative at the study end.  Draws are rejected
    until both risks are present and at least one censored observation
    precedes the first failure: the latent survival then strictly dominates
    the observable one on the evaluated range, the regime in which the
    dependence-ordering of the recovered curves is meaningful (see the
    curve-ordering tests).
    """
    while True:
        t = rng.weibull(1.3, n)
        c = np.where(rng.random(n) < 0.3, rng.exponential(1.0 / 8.0, n), cap)
        x = np.minimum(t, c)
        delta = (t < c).astype(int)
        if delta.sum() == 0 or delta.sum() == n:
            continue
        first_event = x[delta == 1].min()
        if np.any((x < first_event) & (delta == 0)):
            return x, delta


def semiparam_b(x_i, curve_z1, curve_z2, z1, z2):
    """Per-observation PH coefficient from one pair of stratum curves (k = 1),
    both recovered at the same dependence.

    Scalar reference for the two-stage fit's vectorised coefficient rows.
    """
    z1, z2 = float(z1), float(z2)
    if z1 == z2:
        raise ValueError("z1 and z2 must differ")
    s1 = float(curve_z1(x_i))
    s2 = float(curve_z2(x_i))
    if not (0.0 < s1 < 1.0) or not (0.0 < s2 < 1.0):
        raise EstimationError(
            f"curve value at x = {x_i} is 0 or 1; the coefficient is undefined "
            "there (trim the support first)"
        )
    return float(np.log(np.log(s2) / np.log(s1)) / (z2 - z1))


def clayton_conditional_cdf(u, v, theta):
    """P(V <= v | U = u) = dK_theta(u, v)/du of the Clayton copula, theta != 0.

    Zero on the copula's zero region (theta < 0).  Round-trip reference for
    the conditional sampler, which inverts this in v.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    base = u ** -theta + v ** -theta - 1.0
    safe = np.where(base > 0.0, base, 1.0)
    with np.errstate(over="ignore"):
        out = u ** -(theta + 1.0) * safe ** (-1.0 / theta - 1.0)
    return np.where(base > 0.0, out, 0.0)


def padded_window_mean(values, window):
    """The presmoother by brute force: the mean of each window of the curve
    padded with window // 2 copies of its first value and window - 1 -
    window // 2 of its last, then clipped into [0, 1] and made nonincreasing.

    Reference for the running-sum smoother; a window of 1 or a curve of fewer
    than 3 knots is returned unchanged, and a window longer than the curve is
    cut to its length.
    """
    values = np.asarray(values, dtype=float)
    if window <= 1 or values.size < 3:
        return values
    window = min(int(window), values.size)
    padded = np.concatenate(
        [np.full(window // 2, values[0]), values, np.full(window - 1 - window // 2, values[-1])]
    )
    means = np.array([padded[i:i + window].mean() for i in range(values.size)])
    return np.minimum.accumulate(np.clip(means, 0.0, 1.0))
