"""Tests for the data generator and the Monte Carlo harness."""

import numpy as np
import pytest
from scipy.stats import kendalltau, kstest

from coprisk.errors import EstimationError
from coprisk.inference import substream_rng
from coprisk.marginals import AftModel, inverse_survival
from coprisk.simulate import DgpSpec, generate_dataset, monte_carlo, sample_pair

BENCH = dict(alpha=1.0, beta=[1.0], sigma=1.5)


def benchmark_spec(n=2000, tau=0.8):
    return DgpSpec(
        n=n,
        tau=tau,
        model_t=AftModel("weibull", **BENCH),
        model_c=AftModel("weibull", **BENCH),
        p_z=0.3,
    )


def test_sample_pair_independence_tau():
    rng = np.random.default_rng(0)
    u, v = sample_pair(0.0, rng, 40_000)
    assert abs(kendalltau(u, v).statistic) < 0.01


def test_sample_pair_strong_dependence_tau():
    rng = np.random.default_rng(1)
    u, v = sample_pair(8.0, rng, 40_000)
    assert abs(kendalltau(u, v).statistic - 0.8) < 0.02


def test_sample_pair_marginal_uniformity():
    rng = np.random.default_rng(2)
    u, v = sample_pair(2.0, rng, 100_000)
    critical_1pct = 1.63 / np.sqrt(u.size)
    assert kstest(u, "uniform").statistic < critical_1pct
    assert kstest(v, "uniform").statistic < critical_1pct


def test_comonotone_limit_makes_latent_times_agree():
    rng = np.random.default_rng(3)
    u, v = sample_pair(1e4, rng, 5000)
    model = AftModel("weibull", **BENCH)
    z = np.zeros((5000, 1))
    t = inverse_survival(model, u, z)
    c = inverse_survival(model, v, z)
    assert np.median(np.abs(t - c) / t) < 0.02


def test_generate_dataset_shape_and_determinism():
    spec = benchmark_spec(n=500)
    ds1 = generate_dataset(spec, 42)
    ds2 = generate_dataset(spec, 42)
    ds3 = generate_dataset(spec, 43)
    assert ds1.n == 500 and ds1.k == 1
    assert np.array_equal(ds1.x, ds2.x) and np.array_equal(ds1.delta, ds2.delta)
    assert not np.array_equal(ds1.x, ds3.x)
    assert set(np.unique(ds1.z)) <= {0.0, 1.0}


def test_generate_dataset_event_fraction_stable():
    # identical marginals and a symmetric copula give Pr(delta = 1) = 1/2
    for seed in (1, 2, 3):
        ds = generate_dataset(benchmark_spec(n=20_000), seed)
        assert abs(ds.delta.mean() - 0.5) < 0.02


def test_generate_dataset_covariate_frequency():
    ds = generate_dataset(benchmark_spec(n=20_000), 4)
    assert abs(ds.z.mean() - 0.3) < 0.02


def test_no_exact_ties():
    for seed in (0, 1):
        ds = generate_dataset(benchmark_spec(n=5000), seed)
        assert np.unique(ds.x).size == ds.n


def test_spec_validation():
    with pytest.raises(ValueError, match="^n must be an integer >= 2, got 1$"):
        benchmark_spec(n=1)
    for n in (100.5, 100.0, True):
        with pytest.raises(ValueError, match="^n must be an integer >= 2, got "):
            benchmark_spec(n=n)
    assert generate_dataset(benchmark_spec(n=np.int64(10)), 0).n == 10
    # the seed is an integer >= 0 or a Generator
    for seed in (1.5, -1, True, "3"):
        with pytest.raises(ValueError, match="^seed must be an integer >= 0, got "):
            generate_dataset(benchmark_spec(n=10), seed)
    x = generate_dataset(benchmark_spec(n=10), 7).x
    for seed in (np.int64(7), np.random.default_rng(7)):
        assert np.array_equal(generate_dataset(benchmark_spec(n=10), seed).x, x)
    assert generate_dataset(benchmark_spec(n=10), 2**64 + 1).n == 10
    with pytest.raises(ValueError):
        DgpSpec(n=10, tau=1.0, model_t=AftModel("weibull", **BENCH),
                model_c=AftModel("weibull", **BENCH))
    with pytest.raises(ValueError):
        DgpSpec(n=10, tau=0.5, model_t=AftModel("weibull", **BENCH),
                model_c=AftModel("weibull", **BENCH), p_z=0.0)
    with pytest.raises(ValueError):
        DgpSpec(n=10, tau=0.5, model_t=AftModel("weibull", **BENCH),
                model_c=AftModel("weibull", 1.0, [], 1.5))


def test_monte_carlo_constant_estimator():
    spec = benchmark_spec(n=50)

    def truth_teller(ds):
        return {"tau": 0.8}

    report = monte_carlo(spec, truth_teller, {"tau": 0.8}, reps=6, seed=1)
    assert report.bias2["tau"] <= 1e-30
    assert report.mse["tau"] <= 1e-30
    assert report.n_completed == 6


def test_monte_carlo_deterministic_and_consistent():
    spec = benchmark_spec(n=60)

    def mean_x(ds):
        return {"m": float(ds.x.mean())}

    truth = {"m": 0.5}
    rep1 = monte_carlo(spec, mean_x, truth, reps=8, seed=5)
    rep2 = monte_carlo(spec, mean_x, truth, reps=8, seed=5)
    assert rep1.mse == rep2.mse and rep1.bias2 == rep2.bias2
    assert rep1.mse["m"] >= rep1.bias2["m"] >= 0.0


def _mean_duration(ds):
    return {"m": float(ds.x.mean())}


def test_monte_carlo_parallel_matches_serial():
    spec = benchmark_spec(n=40)
    serial = monte_carlo(spec, _mean_duration, {"m": 0.5}, reps=6, seed=2, jobs=1)
    parallel = monte_carlo(spec, _mean_duration, {"m": 0.5}, reps=6, seed=2, jobs=2)
    assert serial.mse == parallel.mse


def test_monte_carlo_parallel_rejects_unpicklable_estimator():
    # a lambda cannot reach worker processes; fail before any worker starts
    spec = benchmark_spec(n=40)
    with pytest.raises(ValueError, match="functools.partial"):
        monte_carlo(spec, lambda d: _mean_duration(d), {"m": 0.5}, reps=4, jobs=2)


def test_monte_carlo_names_truth_parameters_the_estimator_lacks():
    spec = benchmark_spec(n=40)

    def tau_only(ds):
        return {"tau": 0.5}

    with pytest.raises(ValueError, match=r"^the estimator did not return the truth "
                                         r"parameters \['sigma', 'alpha'\]$"):
        monte_carlo(spec, tau_only, {"sigma": 1.5, "tau": 0.8, "alpha": 1.0}, reps=2)


def test_monte_carlo_rejects_zero_reps():
    with pytest.raises(ValueError, match="^reps must be an integer >= 1, got 0$"):
        monte_carlo(benchmark_spec(n=40), _mean_duration, {"m": 0.5}, reps=0)
    # 1.9 would run 1 replicate
    for reps in (1.9, 2.0, True):
        with pytest.raises(ValueError, match="^reps must be an integer >= 1, got "):
            monte_carlo(benchmark_spec(n=40), _mean_duration, {"m": 0.5}, reps=reps)
    for jobs in (1.5, 0, -3, True):
        with pytest.raises(ValueError, match="^jobs must be an integer >= 1, got "):
            monte_carlo(benchmark_spec(n=40), _mean_duration, {"m": 0.5}, reps=2, jobs=jobs)
    for seed in (1.5, -1, True, "3"):
        with pytest.raises(ValueError, match="^seed must be an integer >= 0, got "):
            monte_carlo(benchmark_spec(n=40), _mean_duration, {"m": 0.5}, reps=2, seed=seed)
    assert monte_carlo(benchmark_spec(n=40), _mean_duration, {"m": 0.5}, reps=2,
                       seed=np.int64(2**62)).n_completed == 2


def test_monte_carlo_too_many_failures():
    spec = benchmark_spec(n=40)

    def always_fails(ds):
        raise EstimationError("boom")

    with pytest.raises(EstimationError) as info:
        monte_carlo(spec, always_fails, {"m": 0.0}, reps=4, seed=0)
    assert str(info.value) == ("4 of 4 replications failed; the design or the estimator "
                               "configuration is degenerate: boom")
