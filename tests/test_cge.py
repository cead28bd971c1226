"""Tests for the copula-graphic curve and the support trimming rules."""

import numpy as np
import pytest

from coprisk.cge import CurveTable, curves, log_curves, sorted_table, trim_support
from coprisk.copula import THETA_ZERO_TOL
from coprisk.data import Dataset, stratify
from coprisk.errors import EstimationError
from coprisk.inference import substream_rng
from coprisk.marginals import AftModel
from coprisk.simulate import DgpSpec, generate_dataset

from oracles import mixed_risk_sample, nelson_aalen_survival, step_value, study_design_sample
from test_estimators import six_strata_dataset


def sample_curves(x, delta, thetas):
    """One sample's knot times and its curve at each theta, one row each."""
    ds = Dataset(x, delta)
    table, _ = sorted_table(ds, stratify(ds))
    return table.times, curves(table, thetas)


def hand_table(*curve_pieces):
    """The table of curves given as (knot times, log pi_hat(t-), jumps)."""
    spans, start = [], 0
    for times, _, _ in curve_pieces:
        spans.append(slice(start, start + 1 + len(times)))
        start = spans[-1].stop
    times, log_pi_left, jumps = (
        np.concatenate([[0.0, *pieces[i]] for pieces in curve_pieces]) for i in range(3))
    return CurveTable(tuple(spans), times, log_pi_left, jumps)


def observable_survival(x, t):
    """The fraction of durations above each t."""
    return np.mean(np.asarray(x)[None, :] > np.asarray(t)[:, None], axis=1)


def test_hand_example_independence():
    # one event at 1 out of two observations: S(1) = exp(-1/2)
    times, (curve,) = sample_curves([1.0, 2.0], [1, 0], [0.0])
    assert step_value(times, curve, 1.0) == pytest.approx(np.exp(-0.5), abs=1e-14)
    assert step_value(times, curve, 0.99) == 1.0


def test_no_events_curve_is_one():
    times, (curve,) = sample_curves([1.0, 2.0, 3.0], [0, 0, 0], [2.0])
    assert step_value(times, curve, 100.0) == 1.0
    assert times.size == 1


def test_matches_nelson_aalen_oracle_at_independence():
    rng = np.random.default_rng(17)
    for _ in range(25):
        x, delta = mixed_risk_sample(rng, int(rng.integers(4, 31)))
        times, (curve,) = sample_curves(x, delta, [0.0])
        grid = np.concatenate([x, x * 0.5, x * 1.5])
        worst = max(
            abs(step_value(times, curve, t) - nelson_aalen_survival(x, delta, t)) for t in grid
        )
        assert worst <= 1e-12


def test_evaluate_lookup_conventions():
    times, (curve,) = sample_curves([1.0, 2.0, 3.0], [1, 1, 0], [1.0])
    assert step_value(times, curve, 0.5) == 1.0
    at_jump = step_value(times, curve, 1.0)
    assert at_jump < 1.0  # right-continuous: includes the jump at 1
    assert step_value(times, curve, 100.0) == curve[-1]


def test_theta_ordering_on_study_design_samples():
    # pointwise nonincreasing in theta; strict somewhere in each sample
    rng = np.random.default_rng(99)
    thetas = [-0.5, 0.0, 1.0, 4.0, 8.0]
    for _ in range(15):
        x, delta = study_design_sample(rng)
        times, rows = sample_curves(x, delta, thetas)
        grid = np.sort(np.concatenate([x, x * 0.5, x * 1.5]))
        prev = None
        strict = False
        for row in rows:
            vals = step_value(times, row, grid)
            if prev is not None:
                assert np.all(vals <= prev + 1e-12)
                strict = strict or bool(np.any(vals < prev - 1e-12))
            prev = vals
        assert strict


def test_dominates_observable_survival():
    rng = np.random.default_rng(3)
    for _ in range(10):
        x, delta = mixed_risk_sample(rng, 25)
        grid = np.sort(np.concatenate([x, x * 1.2]))
        pi_hat = observable_survival(x, grid)
        times, rows = sample_curves(x, delta, [-0.5, 0.0, 2.0, 8.0])
        for row in rows:
            assert np.all(step_value(times, row, grid) >= pi_hat - 1e-12)


def test_nonstrict_generator_clamps_at_zero():
    # once the accumulated sum crosses the generator's support boundary
    # (-1/theta for theta < 0) the curve clamps at exactly zero; pi_hat(t-)
    # is 1 and 0.1 at the knots 1 and 2, and F jumps by 0.5 at each
    table = hand_table(([1.0, 2.0], [0.0, np.log(0.1)], [0.5, 0.5]))
    (curve,) = curves(table, [-0.9])
    assert curve[1] > 0.0
    assert curve[2] == 0.0


def test_overflowing_theta_fails_alone():
    # pi_hat(u-) = e^-10 at the second knot: at theta = 100 its term is
    # e^1010, past the float range, while theta = 1 and 2 stay finite
    def pieces(log_pi):
        return [1.0, 2.0], [-1.0, log_pi], [0.1, 0.1]

    table = hand_table(pieces(-10.0))
    values = curves(table, np.array([1.0, 100.0, 2.0]))
    assert np.all(np.isnan(values[1]))
    for row, theta in zip(values[[0, 2]], (1.0, 2.0)):
        assert row[0] == 1.0
        np.testing.assert_array_equal(row, curves(table, [theta])[0])
        assert np.all((row[1:] > 0.0) & (row[1:] < 1.0))
    # a theta at which one curve of a table overflows fails the whole row
    pair = hand_table(pieces(-1.0), pieces(-10.0))
    values = curves(pair, np.array([1.0, 100.0]))
    assert np.all(np.isnan(values[1])) and not np.any(np.isnan(values[0]))
    # at e^-7 the largest term, e^707 / 10, is huge but inside the float
    # range: a curve like any other
    (near,) = curves(hand_table(pieces(-7.0)), [100.0])
    terms = np.exp(101.0 * np.array([1.0, 7.0])) * 0.1
    np.testing.assert_allclose(near[1:], (1.0 + 100.0 * np.cumsum(terms)) ** -0.01,
                               rtol=1e-12)


def _two_strata_dataset(delta=(1, 1, 0, 1, 1, 0)):
    # stratum z=0 events at {1, 2}; stratum z=1 events at {1.5, 3}
    x = np.array([1.0, 2.0, 2.5, 1.5, 3.0, 3.5])
    z = np.array([[0.0], [0.0], [0.0], [1.0], [1.0], [1.0]])
    return Dataset(x, np.array(delta), z)


def table_of(ds):
    return sorted_table(ds, stratify(ds))[0]


def test_trim_support_rules():
    ds = _two_strata_dataset()
    trim = trim_support(table_of(ds), ds)
    assert trim.x_star == 2.0  # stratum A plateaus after its last event
    assert trim.x_double_star == 1.5  # stratum B's curve is 1 before 1.5
    assert sorted(ds.x[trim.kept]) == [1.5, 2.0]


def test_trim_x_double_star_at_common_minimum():
    ds = Dataset([1.0, 2.0, 1.0, 3.0], [1, 1, 1, 1], [[0.0], [0.0], [1.0], [1.0]])
    assert trim_support(table_of(ds), ds).x_double_star == 1.0


def test_trim_requires_events_everywhere():
    ds = _two_strata_dataset(delta=(1, 1, 0, 0, 0, 0))
    with pytest.raises(EstimationError, match="no cause-1 events"):
        trim_support(table_of(ds), ds)


def test_trim_disjoint_supports():
    ds = Dataset([1.0, 1.2, 5.0, 6.0], [1, 1, 1, 1], [[0.0], [0.0], [1.0], [1.0]])
    with pytest.raises(EstimationError, match="do not overlap"):
        trim_support(table_of(ds), ds)


def test_all_events_incidence_complements_survivor():
    # without censoring the incidence jumps reconstruct the survivor exactly
    x = np.array([0.4, 1.1, 2.2, 3.3])
    ds = Dataset(x, np.ones(4, dtype=int))
    table = table_of(ds)
    grid = np.linspace(0.1, 4.0, 23)
    incidence = step_value(table.times, np.cumsum(table.jumps), grid)
    assert np.allclose(incidence, 1.0 - observable_survival(x, grid), atol=1e-15)


# ---------------------------------------------------------------------------
# the log-scale head: log S without the exp and log round trip
# ---------------------------------------------------------------------------

HEAD_THETAS = np.array([-0.5, 0.0, 2.0, 8.0])


def benchmark_design_sample():
    model = AftModel("weibull", 1.0, [1.0], 1.5)
    spec = DgpSpec(n=2000, tau=0.8, model_t=model, model_c=model)
    return generate_dataset(spec, substream_rng(1, 0))


@pytest.mark.parametrize("make", [benchmark_design_sample, six_strata_dataset])
def test_log_head_equals_the_log_of_the_curves(make):
    table = table_of(make())
    s = curves(table, HEAD_THETAS)
    log_s = log_curves(table, HEAD_THETAS)
    inside = (s > 1e-300) & (s < 1.0 - 1e-6)
    assert np.all(inside.sum(axis=1) > table.times.size // 2)
    np.testing.assert_allclose(np.log(-log_s[inside]), np.log(-np.log(s[inside])),
                               rtol=1e-12, atol=0)
    with np.errstate(divide="ignore"):
        log_l = np.log(-log_s)
    # log(-log S) is -inf where a curve is 1, at each curve's first column
    for span in table.spans:
        assert np.all(log_l[:, span.start] == -np.inf)
        assert np.all(s[:, span.start] == 1.0)


def test_log_head_is_inf_where_a_curve_clamps_at_zero():
    # the table of test_nonstrict_generator_clamps_at_zero
    table = hand_table(([1.0, 2.0], [0.0, np.log(0.1)], [0.5, 0.5]))
    (s,), (log_s,) = curves(table, [-0.9]), log_curves(table, [-0.9])
    assert s[2] == 0.0 and log_s[2] == -np.inf
    with np.errstate(divide="ignore"):
        log_l = np.log(-log_s)
    assert (log_l[0], log_l[2]) == (-np.inf, np.inf)
    assert log_l[1] == pytest.approx(np.log(-np.log(s[1])), rel=1e-12)


def test_log_head_fails_an_overflowing_theta_alone():
    # the table of test_overflowing_theta_fails_alone: theta = 100 overflows
    table = hand_table(([1.0, 2.0], [-1.0, -10.0], [0.1, 0.1]))
    thetas = np.array([1.0, 100.0, 2.0])
    log_s = log_curves(table, thetas)
    assert np.all(np.isnan(log_s[1]))
    np.testing.assert_allclose(log_s[[0, 2]], np.log(curves(table, thetas[[0, 2]])),
                               rtol=1e-15, atol=0)


@pytest.mark.parametrize("theta", [0.0, THETA_ZERO_TOL / 2, -THETA_ZERO_TOL / 2])
def test_log_head_near_independence_is_minus_the_running_sum(theta):
    table = table_of(six_strata_dataset(n=600))
    (log_s,) = log_curves(table, [theta])
    u = np.exp(-(theta + 1.0) * table.log_pi_left) * table.jumps
    for span in table.spans:
        u[span] = np.cumsum(u[span])
    assert log_s.tobytes() == (-u).tobytes()
    with np.errstate(divide="ignore"):
        assert np.log(-log_s).tobytes() == np.log(u).tobytes()
