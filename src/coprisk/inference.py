"""Nonparametric bootstrap for standard errors and percentile intervals.

Replicate r draws its resample from an RNG substream keyed by (seed, r), so
results are bit-identical for a given seed regardless of execution order or
the degree of parallelism.  ``map_replicates`` is the one serial-or-process-pool
loop, shared with the Monte Carlo harness: it skips and counts the replicates
that raise an EstimationError, aborts past half with their reasons, and
imports the process pool only when jobs > 1.
"""

from __future__ import annotations

import functools
import os
import pickle
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import Dataset, _is_integer
from .errors import EstimationError


def substream_rng(seed: int, index: int) -> np.random.Generator:
    """Independent RNG stream determined only by (seed, index)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


@dataclass(frozen=True)
class BootstrapResult:
    """Point estimate plus bootstrap replicates, SEs and percentile CI."""

    param_names: tuple[str, ...]
    estimate: np.ndarray
    replicates: np.ndarray
    se: np.ndarray
    ci_lower: np.ndarray
    ci_upper: np.ndarray
    level: float
    n_requested: int
    n_failed: int

    @property
    def n_effective(self) -> int:
        return self.replicates.shape[0]


def _as_vector(values: dict, names: tuple[str, ...]) -> np.ndarray:
    return np.array([float(values[name]) for name in names])


def _attempt(worker: Callable, fn: Callable, *args):
    """worker(fn, *args), or the EstimationError it raised."""
    try:
        return worker(fn, *args)
    except EstimationError as exc:
        return exc


def _check_jobs(jobs) -> None:
    if not _is_integer(jobs) or jobs < 1:
        raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")


def map_replicates(worker: Callable, fn: Callable, args: tuple, count: int, jobs: int,
                   chunksize: int, failed: str) -> list:
    """[worker(fn, *args, r) for r in range(count)] without the failed replicates.

    A replicate fails when it raises an EstimationError.  More than count/2
    failures abort with the error "<k> of <count> <failed>: <reasons>", which
    lists the distinct failure messages in replicate order.  Results come
    back in replicate order, in a process pool if jobs > 1.  fn is the
    caller's callable; it must be picklable to reach the pool's workers,
    which is checked before any worker starts.  The pool forks all its
    workers at the first submit, so it gets no more of them than there are
    chunks of work or CPUs.
    """
    if jobs <= 1:
        raw = [_attempt(worker, fn, *args, r) for r in range(count)]
    else:
        from concurrent.futures import ProcessPoolExecutor
        try:
            pickle.dumps(fn)
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            raise ValueError(
                f"{fn!r} cannot be sent to worker processes ({exc}); with jobs > 1 "
                "pass a module-level function or a functools.partial of one"
            ) from None
        workers = min(jobs, -(-count // chunksize), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            raw = list(pool.map(functools.partial(_attempt, worker, fn, *args), range(count),
                                chunksize=chunksize))
    errors = [res for res in raw if isinstance(res, EstimationError)]
    if len(errors) > count / 2:
        reasons = dict.fromkeys(str(exc) for exc in errors)  # distinct, in replicate order
        raise EstimationError(f"{len(errors)} of {count} {failed}: " + "; ".join(reasons))
    return [res for res in raw if not isinstance(res, EstimationError)]


def _one_replicate(fit, ds, seed, names, r):
    rng = substream_rng(seed, r)
    idx = rng.integers(0, ds.n, size=ds.n)
    return _as_vector(fit(ds.subset(idx)), names)


def bootstrap(
    fit: Callable[[Dataset], dict[str, float]],
    ds: Dataset,
    b: int,
    level: float = 0.95,
    seed: int = 0,
    jobs: int = 1,
) -> BootstrapResult:
    """Resample rows with replacement B times and refit.

    fit maps a Dataset to a {name: value} dict; the names of the point fit
    order the result's parameters.  A replicate on which fit raises an
    EstimationError is skipped and counted; more than B/2 failed replicates,
    or fewer than 2 completed ones, abort with an EstimationError.  jobs, an
    integer >= 1, is checked before any fit; jobs > 1 runs the replicates in
    worker processes, so fit must then be picklable (see map_replicates).
    """
    if not _is_integer(b) or b < 2:
        raise ValueError(f"bootstrap needs an integer b >= 2 replicates, got {b!r}")
    b = int(b)
    if not 0.0 < level < 1.0:
        raise ValueError("confidence level must lie in (0, 1)")
    _check_jobs(jobs)
    point_raw = fit(ds)
    names = tuple(point_raw)
    point = _as_vector(point_raw, names)

    rows = map_replicates(
        _one_replicate, fit, (ds, seed, names), b, jobs, chunksize=8,
        failed="bootstrap replicates failed; the fit is too unstable under resampling",
    )
    n_failed = b - len(rows)
    if len(rows) < 2:
        raise EstimationError(
            f"{n_failed} of {b} bootstrap replicates failed, and a standard error "
            "needs at least 2 completed replicates"
        )
    replicates = np.vstack(rows)
    alpha = 1.0 - level
    ci = np.quantile(replicates, [alpha / 2.0, 1.0 - alpha / 2.0], axis=0)
    se = replicates.std(axis=0, ddof=1)
    return BootstrapResult(
        param_names=names,
        estimate=point,
        replicates=replicates,
        se=se,
        ci_lower=ci[0],
        ci_upper=ci[1],
        level=level,
        n_requested=b,
        n_failed=n_failed,
    )
