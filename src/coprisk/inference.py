"""Nonparametric bootstrap for standard errors and percentile intervals.

Replicate r draws its resample from an RNG substream keyed by (seed, r), so
results are bit-identical for a given seed regardless of execution order or
the degree of parallelism.  Replicates on which the fit procedure raises an
EstimationError are skipped and counted.  ``map_replicates`` is the one
serial-or-process-pool loop, shared with the Monte Carlo harness.
"""

from __future__ import annotations

import functools
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .data import Dataset
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


def _as_vector(values, param_names: tuple[str, ...]) -> np.ndarray:
    if isinstance(values, dict):
        return np.array([float(values[name]) for name in param_names])
    out = np.atleast_1d(np.asarray(values, dtype=float))
    if out.shape != (len(param_names),):
        raise ValueError("fit procedure returned an unexpected number of parameters")
    return out


def _infer_names(values) -> tuple[str, ...]:
    if isinstance(values, dict):
        return tuple(values.keys())
    return tuple(f"p{i}" for i in range(np.atleast_1d(np.asarray(values)).shape[0]))


def map_replicates(worker: Callable, fn: Callable, args: tuple, count: int, jobs: int,
                   chunksize: int) -> list:
    """[worker(fn, *args, r) for r in range(count)], in a process pool if jobs > 1.

    Results come back in replicate order either way.  fn is the caller's
    callable; it must be picklable to reach the pool's workers, which is
    checked before any worker starts.
    """
    if jobs <= 1:
        return [worker(fn, *args, r) for r in range(count)]
    try:
        pickle.dumps(fn)
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        raise ValueError(
            f"{fn!r} cannot be sent to worker processes ({exc}); with jobs > 1 "
            "pass a module-level function or a functools.partial of one"
        ) from None
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(functools.partial(worker, fn, *args), range(count),
                             chunksize=chunksize))


def _one_replicate(fit, ds, seed, names, r):
    rng = substream_rng(seed, r)
    idx = rng.integers(0, ds.n, size=ds.n)
    try:
        return _as_vector(fit(ds.subset(idx)), names)
    except EstimationError:
        return None


def bootstrap(
    fit: Callable[[Dataset], Sequence[float] | dict],
    ds: Dataset,
    b: int,
    level: float = 0.95,
    seed: int = 0,
    param_names: Sequence[str] | None = None,
    jobs: int = 1,
) -> BootstrapResult:
    """Resample rows with replacement B times and refit.

    fit maps a Dataset to a parameter vector or {name: value} dict.  More than
    B/2 failed replicates aborts with an error.  jobs > 1 runs the replicates
    in worker processes, so fit must then be picklable (see map_replicates).
    """
    b = int(b)
    if b < 2:
        raise ValueError("bootstrap needs at least 2 replicates")
    if not 0.0 < level < 1.0:
        raise ValueError("confidence level must lie in (0, 1)")
    point_raw = fit(ds)
    names = tuple(param_names) if param_names is not None else _infer_names(point_raw)
    point = _as_vector(point_raw, names)

    raw = map_replicates(_one_replicate, fit, (ds, seed, names), b, jobs, chunksize=8)
    rows = [vec for vec in raw if vec is not None]
    n_failed = b - len(rows)
    if n_failed > b / 2:
        raise EstimationError(
            f"{n_failed} of {b} bootstrap replicates failed; the fit is too "
            "unstable under resampling"
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
