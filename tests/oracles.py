"""Independent brute-force oracles and shared sample generators for the tests.

Everything here is deliberately written with plain loops and set counting so
it cannot share a code path (or a bug) with the package's vectorised
implementations.
"""

import csv
import warnings

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import ndtri

from coprisk.cge import CurveTable
from coprisk.data import MAX_STRATA, Dataset, StrataIndex
from coprisk.errors import DataError, EstimationError


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


def first_stage_table(x, delta):
    """The curve table of one sample, by set counting over its cause-1
    event times.

    Reference for the one-sort table: at each event time u (a knot),
    pi_hat(u-) = 1.0 - (durations below u) / n, and the incidence jumps are
    np.diff(cumsum(events at each knot) / n, prepend=0), the arithmetic of
    the empirical survivor and cause-1 incidence step functions.
    """
    x = np.asarray(x, dtype=float)
    delta = np.asarray(delta, dtype=int)
    n = x.size
    knots = sorted(set(x[delta == 1]))
    pi_left, counts = [], []
    for u in knots:
        pi_left.append(1.0 - int(np.sum(x < u)) / n)
        counts.append(int(np.sum((x == u) & (delta == 1))))
    times = np.array([0.0, *knots])
    log_pi_left = np.concatenate(([0.0], np.log(np.array(pi_left, dtype=float))))
    jumps = np.concatenate(([0.0], np.diff(np.cumsum(np.array(counts, dtype=np.intp)) / n,
                                           prepend=0.0)))
    return CurveTable((slice(0, times.size),), times, log_pi_left, jumps)


def step_value(times, values, t, side="right"):
    """A step function at t > 0, from its knot times (times[0] = 0) and its
    value from each knot on: right-continuous, or its left limit with
    side="left"."""
    return np.asarray(values)[np.searchsorted(times, t, side=side) - 1]


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


def bounded_minimum(f, lo, hi, tol):
    """scipy's bounded Brent minimiser (fminbound) on [lo, hi] with xatol
    tol, started cold: (minimiser, value, number of evaluations).

    Its numpy arithmetic warns on a parabola through inf values, which it
    then rejects, as the package's minimiser does silently.
    """
    with warnings.catch_warnings(), np.errstate(invalid="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)
        res = minimize_scalar(f, bounds=(lo, hi), method="bounded", options={"xatol": tol})
    return float(res.x), float(res.fun), int(res.nfev)


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


def lstsq_regression(family, model_kind, log_x, z, s):
    """Stage-2 regression coefficients by one least-squares solve of the
    whole design, with lstsq's default rcond.

    Reference for the three-stage plan's QR solve: the AFT design is
    [-1, -z, S_W^{-1}(s)] with response log x, except for the exponential
    family, whose unit slope moves the transform to the response and whose
    coefficients end in that fixed 1.0; the PH design is [1, log x, z] with
    response log(-log s).  Fails with the package's messages.
    """
    s = np.asarray(s, dtype=float)
    ones = np.ones(log_x.size)
    if family in ("exponential", "weibull"):
        w = np.log(-np.log(s))
    elif family == "loglogistic":
        w = np.log((1.0 - s) / s)
    else:
        w = -ndtri(s)
    if model_kind == "ph":
        design, y = np.column_stack([ones, log_x, z]), w
    elif family == "exponential":
        design, y = np.column_stack([-ones, -z]), log_x - w
    else:
        design, y = np.column_stack([-ones, -z, w]), log_x
    n, p = design.shape
    if n <= p:
        raise EstimationError(f"regression needs more than {p} rows, got {n}")
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < p:
        raise EstimationError(
            "design matrix is rank deficient (e.g. constant transformed curve "
            "values or collinear covariates)"
        )
    if model_kind == "aft" and family == "exponential":
        return np.append(coef, 1.0)
    return coef


def dict_reader_load(path, x_col="x", delta_col="delta", z_cols=None):
    """A CSV dataset read one row at a time through csv.DictReader, with a
    float() call and the row checks per row.

    Reference for the column loader; a row's line number counts the header
    as line 1 and then each non-blank row.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty file (header row required)")
        header = reader.fieldnames = [name.strip() for name in reader.fieldnames]
        if x_col not in header or delta_col not in header:
            raise DataError(
                f"{path}: required columns '{x_col}' and '{delta_col}' not both present"
            )
        if z_cols is None:
            z_cols = []
            j = 1
            while f"z{j}" in header:
                z_cols.append(f"z{j}")
                j += 1
        xs, deltas, zs = [], [], []
        for lineno, rec in enumerate(reader, start=2):
            try:
                xval = float(rec[x_col])
                dfloat = float(rec[delta_col])
                zrow = [float(rec[c]) for c in z_cols]
            except (TypeError, ValueError, KeyError) as exc:
                raise DataError(f"{path}: line {lineno}: unparseable row ({exc})") from exc
            if not np.isfinite(xval) or xval <= 0.0:
                raise DataError(f"{path}: line {lineno}: duration x must be > 0, got {xval}")
            if not dfloat.is_integer():
                raise DataError(
                    f"{path}: line {lineno}: delta must be a whole number, got {dfloat}"
                )
            dval = int(dfloat)
            if dval < 0:
                raise DataError(f"{path}: line {lineno}: delta must be >= 0, got {dval}")
            bad_z = [v for v in zrow if not np.isfinite(v)]
            if bad_z:
                raise DataError(
                    f"{path}: line {lineno}: covariates z must be finite, got {bad_z[0]}"
                )
            xs.append(xval)
            deltas.append(dval)
            zs.append(zrow)
    if not xs:
        raise DataError(f"{path}: no data rows")
    z = np.asarray(zs, dtype=float) if z_cols else None
    return Dataset(xs, deltas, z)


def csv_writer_rows(path, x, delta, z):
    """A dataset written one row at a time through csv.writer, x and z at
    12 significant digits; reference for the column writer of coprisk gen."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "delta"] + [f"z{j + 1}" for j in range(z.shape[1])])
        for xi, di, zi in zip(x, delta, z):
            writer.writerow([f"{xi:.12g}", int(di)] + [f"{v:.12g}" for v in zi])


def unique_rows_stratify(ds):
    """Strata from one np.unique over whole covariate rows, with one
    flatnonzero scan per stratum for its size.

    Reference for stratify's column codes: the same levels (compared as
    numbers), the same row codes and sizes, and the same error.
    """
    if ds.k == 0:
        return StrataIndex(levels=((),), codes=np.zeros(ds.n, dtype=np.intp), sizes=(ds.n,))
    levels, inverse = np.unique(ds.z, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    if levels.shape[0] > MAX_STRATA:
        raise DataError(
            f"{levels.shape[0]} distinct covariate vectors exceed the supported "
            f"maximum of {MAX_STRATA}; discrete covariates are required"
        )
    sizes = tuple(np.flatnonzero(inverse == s).size for s in range(levels.shape[0]))
    return StrataIndex(levels=tuple(tuple(row) for row in levels), codes=inverse,
                       sizes=sizes)
