"""Tests for the first stage: the empirical survivor and cause-1 incidence
that the one-sort curve table holds at each knot."""

import numpy as np
import pytest

from coprisk.cge import sorted_table
from coprisk.data import Dataset, stratify

from oracles import step_value


def table_of(x, delta, z=None):
    ds = Dataset(x, delta, z)
    return sorted_table(ds, stratify(ds))[0]


def test_overall_survival_hand_example():
    # pi_hat(t-) at each knot: the fraction of durations not below it
    table = table_of([1.0, 2.0, 3.0], [1, 1, 1])
    np.testing.assert_array_equal(table.times, [0.0, 1.0, 2.0, 3.0])
    assert table.log_pi_left[1] == 0.0
    assert np.exp(table.log_pi_left[2:]) == pytest.approx([2 / 3, 1 / 3])


def test_overall_survival_single_observation():
    # a stratum of one row: its one knot has nothing below it
    table = table_of([5.0, 1.0], [1, 1], [[0.0], [1.0]])
    first = table.spans[0]
    np.testing.assert_array_equal(table.times[first], [0.0, 5.0])
    np.testing.assert_array_equal(table.log_pi_left[first], [0.0, 0.0])
    np.testing.assert_array_equal(table.jumps[first], [0.0, 1.0])


def test_overall_survival_ties():
    # a censoring tied with an event is not below it
    table = table_of([1.0, 1.0, 2.0], [0, 1, 1])
    assert table.log_pi_left[1] == 0.0
    assert np.exp(table.log_pi_left[2]) == pytest.approx(1 / 3)


def test_sub_distribution_hand_example():
    table = table_of([1.0, 2.0, 3.0], [1, 0, 1])
    np.testing.assert_array_equal(table.times, [0.0, 1.0, 3.0])
    assert table.jumps[1:] == pytest.approx([1 / 3, 1 / 3])
    incidence = np.cumsum(table.jumps)
    assert step_value(table.times, incidence, 2.0) == pytest.approx(1 / 3)
    assert step_value(table.times, incidence, 3.0) == pytest.approx(2 / 3)
    assert step_value(table.times, incidence, 0.2) == 0.0


def test_sub_distribution_no_events():
    table = table_of([1.0, 2.0], [0, 0])
    assert table.spans == (slice(0, 1),)
    np.testing.assert_array_equal(table.jumps, [0.0])


def test_all_events_complementary_identity():
    # without censoring, F(t-) = 1 - pi_hat(t-) at every knot
    table = table_of([0.5, 1.5, 2.5, 4.0], [1, 1, 1, 1])
    incidence_left = np.cumsum(table.jumps)[:-1]
    assert np.allclose(incidence_left, 1.0 - np.exp(table.log_pi_left[1:]))


def test_total_probability_identity():
    # at each knot of either cause: F1(t-) + F0(t-) = 1 - pi_hat(t-)
    rng = np.random.default_rng(5)
    x = rng.uniform(0.1, 3.0, 40)
    delta = rng.integers(0, 2, 40)
    tables = table_of(x, delta), table_of(x, 1 - delta)
    for table in tables:
        knots = table.times[1:]
        left = [step_value(t.times, np.cumsum(t.jumps), knots, side="left") for t in tables]
        assert np.allclose(sum(left), 1.0 - np.exp(table.log_pi_left[1:]), atol=1e-12)


def test_row_order_invariance():
    x = np.array([2.0, 1.0, 3.0, 1.5])
    d = np.array([0, 1, 1, 0])
    perm = [2, 0, 3, 1]
    table, permuted = table_of(x, d), table_of(x[perm], d[perm])
    for name in ("times", "log_pi_left", "jumps"):
        assert getattr(table, name).tobytes() == getattr(permuted, name).tobytes()
