"""Copula-graphic recovery of a latent marginal survival curve.

Given the stratum's empirical overall survival ``pi_hat`` and cause-1
cumulative incidence ``f_t_hat``, the curve at dependence ``theta`` is

    S(x) = phi_theta[ -sum_{event times u <= x} phi_inv_deriv(pi_hat(u-)) * dF(u) ]

where ``pi_hat(u-)`` is the left limit (the at-risk fraction just before u)
and ``dF(u)`` the incidence jump.  Evaluating the integrand at the left limit
keeps the first event well defined and treats same-time events as occurring
before same-time censorings.

Only the generator depends on theta.  A ``CurveTable`` lays the theta-free
pieces of one or more curves out as the columns of one table.
``sorted_table`` builds the table of every stratum of a dataset from one
sort of its durations, the whole first stage, and returns the sort and
each knot's run end, from which ``left_columns`` gives each row's
left-limit column for the three-stage fit and ``kept_columns`` each kept
row's right-continuous column in every stratum for the two-stage fit.
One kernel fills a table at a chunk of thetas: ``log_curves`` forms each
curve's running sum and applies the generator's log-scale step, log S,
which the two-stage criterion transforms without an exp and log round
trip.  ``curves`` is its exp, taken in place, and serves the three-stage
search and the CLI's curve dump.  The step runs without the generator's
input checks: the running sums are finite and >= 0 by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .copula import _log_generator
from .data import Dataset, StrataIndex
from .errors import EstimationError

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
class CurveTable:
    """The theta-free part of one or more copula-graphic curves, laid out
    as the columns of one table.

    spans[j] is curve j's slice of the columns.  Its first column holds 0 in
    all three arrays: time 0, where the curve is 1.  The others hold the
    curve's cause-1 knot times, log pi_hat(t-) at each knot and the
    incidence jumps dF there.
    """

    spans: tuple[slice, ...]
    times: np.ndarray
    log_pi_left: np.ndarray
    jumps: np.ndarray


@dataclass(frozen=True)
class SortedStrata:
    """A dataset's rows sorted once by duration, and its strata's knots in
    that order.

    order holds the rows by ascending duration, and rows holds them by
    stratum and then by duration: stratum j's rows are rows[slices[j]], with
    strata in the order of strata.levels.  Tied durations come in no set
    order, which no count depends on.  knot_ends[j] holds, for each knot of
    stratum j, the end of its run of tied durations within the stratum's
    slice.
    """

    order: np.ndarray
    rows: np.ndarray
    slices: tuple[slice, ...]
    knot_ends: tuple[np.ndarray, ...]


def sorted_table(ds: Dataset, strata: StrataIndex) -> tuple[CurveTable, SortedStrata]:
    """The table of every stratum's curve, in the order of strata.levels,
    and the sort it was built from.

    The durations are sorted once and the rows then stably by stratum, so
    each stratum's rows are a slice in ascending duration, which
    ``_stratum_curve`` reads with linear passes.
    """
    order = np.argsort(ds.x)
    # MAX_STRATA codes fit a byte, and numpy sorts bytes stably by radix
    codes = strata.codes.astype(np.uint8)
    rows = order[np.argsort(codes[order], kind="stable")]
    del codes  # the plans' n-row temporaries are freed as soon as they are read
    is_event = ds.delta == 1
    stops = np.cumsum(strata.sizes)
    slices = tuple(slice(stop - size, stop) for stop, size in zip(stops, strata.sizes))
    spans, knot_ends, times, log_pi_left, jumps = [], [], [], [], []
    start = 0
    for part in slices:
        ends, *curve = _stratum_curve(ds.x[rows[part]], is_event[rows[part]])
        spans.append(slice(start, start + 1 + ends.size))
        knot_ends.append(ends)
        for pieces, piece in zip((times, log_pi_left, jumps), curve):
            pieces += [[0.0], piece]
        start += 1 + ends.size
    table = CurveTable(tuple(spans), np.concatenate(times), np.concatenate(log_pi_left),
                       np.concatenate(jumps))
    return table, SortedStrata(order, rows, slices, tuple(knot_ends))


def _stratum_curve(x: np.ndarray, events: np.ndarray):
    """One stratum's knots from its durations in ascending order and their
    cause-1 flags.

    Returns the end of each knot's run of tied durations, and the curve's
    knot times, log pi_hat(t-) and jumps dF.  A run with a cause-1 event is
    a knot, and its start counts the stratum's durations below it.  At a
    knot, pi_hat(t-) is 1 - (durations below) / n and F(t) is (events up to
    the knot) / n: the empirical survivor of the durations and the
    empirical cause-1 incidence.
    """
    n = x.size
    # the runs' starts, then n
    edges = np.empty(n + 1, dtype=bool)
    edges[0] = edges[n] = True
    np.not_equal(x[1:], x[:-1], out=edges[1:n])
    edges = np.flatnonzero(edges)
    knots = np.flatnonzero(np.logical_or.reduceat(events, edges[:-1]))
    below, ends = edges[knots], edges[knots + 1]
    del edges, knots
    # no event lies between knot runs, so the sums from each knot's start to
    # the next knot's are its events
    cum_events = np.cumsum(np.add.reduceat(events, below, dtype=np.intp))
    return (ends, x[below], np.log(1.0 - below / n),
            np.diff(cum_events / n, prepend=0.0))


def left_columns(table: CurveTable, sample: SortedStrata) -> np.ndarray:
    """Each row's column in its own stratum's curve at the left limit of its
    duration: the curve's first column plus the number of its knots below
    the duration, which is the number of knot runs that end before the row.
    """
    left = np.empty(sample.rows.size, dtype=np.intp)
    for span, part, ends in zip(table.spans, sample.slices, sample.knot_ends):
        # one mark where each knot run ends; the first is the curve's first column
        marks = np.zeros(part.stop - part.start + 1, dtype=np.intp)
        marks[ends] = 1
        marks[0] = span.start
        left[sample.rows[part]] = np.cumsum(marks[:-1], out=marks[:-1])
    return left


def kept_columns(ds: Dataset, table: CurveTable, sample: SortedStrata, kept: np.ndarray,
                 strata: tuple) -> np.ndarray:
    """Each kept row's column in the curve of each of the given strata, one
    row per stratum: the curve's first column plus the number of its knots
    at or below the row's duration.

    The counts run over the durations in ascending order.  Each run of tied
    durations gets a number, each curve's knots are marked at the runs of
    the knots' last rows, and a kept row reads the running count of marks
    at its own run.
    """
    order = sample.order
    x = ds.x[order]
    new = np.empty(ds.n, dtype=bool)
    new[0] = True
    np.not_equal(x[1:], x[:-1], out=new[1:])
    del x
    run = np.empty(ds.n, dtype=np.intp)
    run[order] = np.cumsum(new, dtype=np.intp)  # numbered from 1
    n_runs = int(run[order[-1]])
    kept_runs = run[kept]
    knot_runs = [run[sample.rows[sample.slices[j]][sample.knot_ends[j] - 1]] for j in strata]
    del run
    columns = np.empty((len(strata), kept.size), dtype=np.intp)
    knots = np.empty(n_runs + 1, dtype=np.intp)
    for out, j, runs in zip(columns, strata, knot_runs):
        knots[:] = 0
        knots[0] = table.spans[j].start
        knots[runs] = 1
        # numpy buffers a take into out unless mode is "clip" or "wrap"; the
        # run numbers all lie inside knots, so clipping changes nothing
        np.take(np.cumsum(knots, out=knots), kept_runs, out=out, mode="clip")
    return columns


def log_curves(table: CurveTable, thetas: np.ndarray) -> np.ndarray:
    """The log of the table's curves at each theta of a 1-d array, one row
    per theta, from the generator's log-scale step, so a curve value that
    exp would round to 0 keeps its finite log.

    The integrand -phi_inv_deriv(pi_hat(u-)) is pi_hat(u-)**-(theta+1), and
    each curve's sum runs over its own span.  Each curve's first column is
    +-0, a curve clamped at zero (theta < 0, once its sum leaves the
    generator's support) is -inf, and a theta at which any curve's sum
    overflows gets a row of NaN.
    """
    col = np.asarray(thetas, dtype=float).reshape(-1, 1)
    with np.errstate(over="ignore"):
        running = np.exp(-(col + 1.0) * table.log_pi_left)
        running *= table.jumps
        for span in table.spans:
            np.cumsum(running[:, span], axis=1, out=running[:, span])
        # the terms are positive, so an overflowed sum ends its span at inf
        failed = np.isinf(running[:, [span.stop - 1 for span in table.spans]]).any(axis=1)
        running[failed] = 0.0
        values = _log_generator(running, col)
    values[failed] = np.nan
    return values


def curves(table: CurveTable, thetas: np.ndarray) -> np.ndarray:
    """The table's curves at each theta of a 1-d array, one row per theta:
    exp of ``log_curves``, so a curve clamped at zero is 0 and a theta at
    which any curve's sum overflows gets a row of NaN.
    """
    values = log_curves(table, thetas)
    return np.exp(values, out=values)


def trim_support(table: CurveTable, ds: Dataset) -> TrimBounds:
    """Support window for estimators that compare curves across strata.

    Only each curve's knot times are used, so the window does not depend
    on theta.

    x_star is the smallest last-event time across the table's curves (each
    curve plateaus after its own last cause-1 event), x_double_star the
    largest first-event time (each curve equals 1 before its own first
    event).
    """
    if any(span.stop - span.start == 1 for span in table.spans):
        raise EstimationError("a stratum has no cause-1 events; its curve never leaves 1")
    x_star = float(min(table.times[span.stop - 1] for span in table.spans))
    x_double_star = float(max(table.times[span.start + 1] for span in table.spans))
    kept = np.flatnonzero((ds.x >= x_double_star) & (ds.x <= x_star))
    if kept.size == 0:
        raise EstimationError(
            f"no observations inside the trimmed window [{x_double_star}, {x_star}]; "
            "strata event supports do not overlap"
        )
    return TrimBounds(x_star=x_star, x_double_star=x_double_star, kept=kept)
