"""Data generation from the Clayton-linked competing-risks model and a
Monte Carlo harness reporting squared bias and MSE per parameter."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .copula import conditional_v_given_u, theta_from_tau
from .data import Dataset, _check_count
from .inference import map_replicates, substream_rng
from .marginals import AftModel, inverse_survival

_OPEN_UNIT_EPS = 1e-15


@dataclass(frozen=True)
class DgpSpec:
    """Simulation design: dependence, both latent marginals, covariate law, n.

    The covariate is a single Bernoulli(p_z) indicator coded {0, 1}.  The
    latent pair (T, C) is linked by a Clayton copula on the survival scale
    with Kendall's tau as given; observed are x = min(T, C) and the indicator
    delta = 1 when T < C (exact ties, a measure-zero event, count as 0).
    """

    n: int
    tau: float
    model_t: AftModel
    model_c: AftModel
    p_z: float = 0.3

    def __post_init__(self):
        _check_count("n", self.n, 2)
        if not 0.0 < self.p_z < 1.0:
            raise ValueError("p_z must lie in (0, 1)")
        if self.model_t.k != self.model_c.k or self.model_t.k > 1:
            raise ValueError(
                "both marginals must share the covariate dimension (0 or 1)"
            )
        theta_from_tau(self.tau)  # validates the range

    @property
    def theta(self) -> float:
        return theta_from_tau(self.tau)


def sample_pair(theta: float, rng: np.random.Generator, size=None):
    """Draw (u, v) from the Clayton copula by the conditional method.

    u is uniform; v is the conditional quantile of a second uniform given u.
    """
    u = rng.random(size)
    w = rng.random(size)
    u = np.clip(u, _OPEN_UNIT_EPS, 1.0 - _OPEN_UNIT_EPS)
    w = np.clip(w, _OPEN_UNIT_EPS, 1.0 - _OPEN_UNIT_EPS)
    return u, conditional_v_given_u(u, w, theta)


def generate_dataset(spec: DgpSpec, seed) -> Dataset:
    """One sample of (x, delta, z) rows from the design.

    seed may be an integer >= 0 or a numpy Generator.
    """
    if isinstance(seed, np.random.Generator):
        rng = seed
    else:
        _check_count("seed", seed, 0)
        rng = np.random.default_rng(seed)
    if spec.model_t.k == 0:
        z = np.empty((spec.n, 0))
    else:
        z = (rng.random(spec.n) < spec.p_z).astype(float).reshape(-1, 1)
    u, v = sample_pair(spec.theta, rng, size=spec.n)
    t = inverse_survival(spec.model_t, u, z)
    c = inverse_survival(spec.model_c, v, z)
    x = np.minimum(t, c)
    delta = (t < c).astype(int)
    return Dataset(x, delta, z)


@dataclass(frozen=True)
class McReport:
    """Per-parameter squared bias and MSE over completed replications."""

    spec: DgpSpec
    truth: dict[str, float]
    n_requested: int
    n_completed: int
    n_failed: int
    mean: dict[str, float]
    bias2: dict[str, float]
    mse: dict[str, float]
    wall_time_s: float = field(compare=False)


def _mc_replicate(estimator, spec, seed, r):
    return estimator(generate_dataset(spec, substream_rng(seed, r)))


def monte_carlo(
    spec: DgpSpec,
    estimator: Callable[[Dataset], Mapping[str, float]],
    truth: Mapping[str, float],
    reps: int = 500,
    seed: int = 0,
    jobs: int = 1,
) -> McReport:
    """Replicate the design, fit each sample, and summarise the estimates.

    Only parameters named in ``truth`` are summarised, and the estimator
    must return each of them.  Replicates on which the estimator raises an
    EstimationError are skipped and counted; more than reps/2 failures
    abort with their reasons.  reps must be an integer >= 1, seed one >= 0
    and jobs one >= 1; jobs > 1 runs the replicates in worker processes, so
    the estimator must then be picklable.
    """
    _check_count("reps", reps, 1)
    reps = int(reps)
    _check_count("seed", seed, 0)
    _check_count("jobs", jobs, 1)
    start = time.perf_counter()
    results = map_replicates(
        _mc_replicate, estimator, (spec, seed), reps, jobs, chunksize=1,
        failed="replications failed; the design or the estimator configuration is degenerate",
    )
    n_failed = reps - len(results)
    names = list(truth.keys())
    missing = [name for name in names if any(name not in res for res in results)]
    if missing:
        raise ValueError(f"the estimator did not return the truth parameters {missing}")
    mean: dict[str, float] = {}
    bias2: dict[str, float] = {}
    mse: dict[str, float] = {}
    for name in names:
        est = np.array([float(res[name]) for res in results])
        target = float(truth[name])
        mean[name] = float(est.mean())
        bias2[name] = float((est.mean() - target) ** 2)
        mse[name] = float(np.mean((est - target) ** 2))
    return McReport(
        spec=spec,
        truth=dict(truth),
        n_requested=reps,
        n_completed=len(results),
        n_failed=n_failed,
        mean=mean,
        bias2=bias2,
        mse=mse,
        wall_time_s=time.perf_counter() - start,
    )
