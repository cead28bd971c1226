"""Tests for the nonparametric bootstrap."""

import numpy as np
import pytest

from coprisk.data import Dataset
from coprisk.errors import EstimationError
from coprisk.inference import bootstrap, substream_rng


def make_dataset(n=120, seed=2):
    rng = np.random.default_rng(seed)
    x = rng.lognormal(0.0, 0.6, n)
    delta = rng.integers(0, 2, n)
    return Dataset(x, delta)


def mean_duration(ds):
    return {"mean_x": float(ds.x.mean())}


def constant_estimator(ds):
    return {"c": 1.0}


def test_constant_estimator():
    res = bootstrap(constant_estimator, make_dataset(), b=50, seed=1)
    assert res.se[0] == 0.0
    assert res.ci_lower[0] == 1.0
    assert res.ci_upper[0] == 1.0
    assert res.n_failed == 0
    assert res.param_names == ("c",)


def test_deterministic_given_seed():
    ds = make_dataset()
    first = bootstrap(mean_duration, ds, b=100, seed=7)
    second = bootstrap(mean_duration, ds, b=100, seed=7)
    assert np.array_equal(first.replicates, second.replicates)
    assert np.array_equal(first.se, second.se)
    other = bootstrap(mean_duration, ds, b=100, seed=8)
    assert not np.array_equal(first.replicates, other.replicates)


def test_replicates_depend_only_on_seed_and_index():
    ds = make_dataset()
    full = bootstrap(mean_duration, ds, b=40, seed=3)
    # a run with fewer replicates reproduces the leading substreams exactly
    short = bootstrap(mean_duration, ds, b=10, seed=3)
    assert np.array_equal(full.replicates[:10], short.replicates)


def test_parallel_execution_is_bit_identical():
    ds = make_dataset(n=60)
    serial = bootstrap(mean_duration, ds, b=16, seed=5, jobs=1)
    parallel = bootstrap(mean_duration, ds, b=16, seed=5, jobs=2)
    assert np.array_equal(serial.replicates, parallel.replicates)


def test_parallel_rejects_unpicklable_fit():
    # a lambda cannot reach worker processes; fail before any worker starts
    with pytest.raises(ValueError, match="functools.partial"):
        bootstrap(lambda d: mean_duration(d), make_dataset(n=60), b=4, jobs=2)


def test_mean_estimator_se_close_to_analytic():
    ds = make_dataset(n=400, seed=11)
    res = bootstrap(mean_duration, ds, b=2000, seed=0)
    analytic = ds.x.std(ddof=1) / np.sqrt(ds.n)
    assert abs(res.se[0] / analytic - 1.0) < 0.15
    assert res.ci_lower[0] < ds.x.mean() < res.ci_upper[0]


def test_failures_are_skipped_and_counted():
    calls = {"n": 0}

    def flaky(ds):
        # fail whenever the resample average drifts high
        if ds.x.mean() > np.median(ds.x) * 1.05:
            raise EstimationError("boom")
        return {"m": float(ds.x.mean())}

    ds = make_dataset(n=50, seed=4)
    try:
        res = bootstrap(flaky, ds, b=60, seed=9)
    except EstimationError:
        return  # acceptable: more than half failed
    assert res.n_failed > 0
    assert res.n_effective == 60 - res.n_failed


def test_too_many_failures():
    def nearly_always_fails(ds):
        if ds.x[0] > 0:
            raise EstimationError("boom")
        return {"m": 0.0}

    # the original fit must succeed for the point estimate, so fail only on
    # resamples: the original call comes first with the untouched dataset
    state = {"first": True}

    def estimator(ds):
        if state["first"]:
            state["first"] = False
            return {"m": float(ds.x.mean())}
        raise EstimationError("boom")

    with pytest.raises(EstimationError, match="replicates failed"):
        bootstrap(estimator, make_dataset(), b=20, seed=0)


def test_argument_validation():
    ds = make_dataset()
    with pytest.raises(ValueError):
        bootstrap(mean_duration, ds, b=1)
    with pytest.raises(ValueError):
        bootstrap(mean_duration, ds, b=10, level=1.2)


def test_substream_rng_independence():
    a = substream_rng(1, 0).random(5)
    b = substream_rng(1, 1).random(5)
    c = substream_rng(1, 0).random(5)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, b)
