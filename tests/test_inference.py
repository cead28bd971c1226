"""Tests for the nonparametric bootstrap."""

import itertools
import warnings

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


def test_pool_gets_no_more_workers_than_chunks_or_cpus(monkeypatch):
    import concurrent.futures
    import os

    from coprisk.marginals import AftModel
    from coprisk.simulate import DgpSpec, monte_carlo

    seen = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records max_workers and maps
        in this process, so no worker is ever started."""

        def __init__(self, max_workers=None):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    ds = make_dataset(n=60)
    # 20 replicates in chunks of 8 are 3 chunks
    pooled = bootstrap(mean_duration, ds, b=20, seed=5, jobs=5000)
    serial = bootstrap(mean_duration, ds, b=20, seed=5, jobs=1)
    assert np.array_equal(pooled.replicates, serial.replicates)
    # 6 replications in chunks of 1 are 6 chunks, capped by the 4 CPUs
    model = AftModel("weibull", 1.0, [1.0], 1.5)
    spec = DgpSpec(n=40, tau=0.5, model_t=model, model_c=model)
    pooled = monte_carlo(spec, mean_duration, {"mean_x": 0.5}, reps=6, seed=2, jobs=5000)
    serial = monte_carlo(spec, mean_duration, {"mean_x": 0.5}, reps=6, seed=2, jobs=1)
    assert pooled.mse == serial.mse
    # an unknown CPU count allows one worker
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    bootstrap(mean_duration, ds, b=20, seed=5, jobs=5000)
    assert seen == [3, 4, 1]


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


def failing_after(ok_calls, messages):
    """A fit that succeeds ok_calls times, then raises the given messages in turn."""
    calls = itertools.count()

    def fit(ds):
        i = next(calls) - ok_calls
        if i < 0:
            return {"m": float(ds.x.mean())}
        raise EstimationError(messages[i % len(messages)])

    return fit


def test_abort_lists_the_distinct_failure_reasons_in_order():
    # the point fit succeeds; every replicate fails with one of two reasons
    fit = failing_after(1, ["second reason", "first reason", "second reason"])
    with pytest.raises(EstimationError) as info:
        bootstrap(fit, make_dataset(), b=4, seed=0)
    assert str(info.value) == (
        "4 of 4 bootstrap replicates failed; the fit is too unstable under "
        "resampling: second reason; first reason"
    )


def test_fewer_than_two_completed_replicates():
    # the point fit and replicate 0 succeed, replicate 1 fails: half failed
    # is allowed, but one replicate gives no standard error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EstimationError, match="^1 of 2 bootstrap replicates failed, "
                                                  "and a standard error needs at least 2"):
            bootstrap(failing_after(2, ["boom"]), make_dataset(), b=2, seed=0)


def test_argument_validation():
    ds = make_dataset()
    with pytest.raises(ValueError):
        bootstrap(mean_duration, ds, b=1)
    with pytest.raises(ValueError):
        bootstrap(mean_duration, ds, b=10, level=1.2)
    # a count must be an integer: 2.7 would run 2 replicates
    for b in (2.7, 3.0, True, "3"):
        with pytest.raises(ValueError, match="^bootstrap needs an integer b >= 2 replicates, got "):
            bootstrap(mean_duration, ds, b=b)
    assert bootstrap(mean_duration, ds, b=np.int64(3)).n_requested == 3


def test_substream_rng_independence():
    a = substream_rng(1, 0).random(5)
    b = substream_rng(1, 1).random(5)
    c = substream_rng(1, 0).random(5)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, b)
