"""Dataset container, CSV ingestion, risk pooling and covariate stratification."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError

# A nonparametric first stage needs every stratum to carry enough observations;
# more distinct covariate vectors than this signals a continuous covariate.
MAX_STRATA = 64


class Dataset:
    """Immutable sample of (x, delta, z) rows.

    x is the observed duration (> 0), delta the integer risk label
    (0 = censored/other cause, 1..m = cause of failure), z a k-vector of
    covariates (k may be zero).
    """

    __slots__ = ("x", "delta", "z")

    def __init__(self, x, delta, z=None):
        x = np.asarray(x, dtype=float)
        delta = np.asarray(delta, dtype=int)
        if z is None:
            z = np.empty((x.shape[0], 0))
        z = np.asarray(z, dtype=float)
        if z.ndim == 1:
            z = z.reshape(-1, 1)
        if x.ndim != 1 or delta.ndim != 1 or z.ndim != 2:
            raise DataError("x and delta must be 1-d, z at most 2-d")
        n = x.shape[0]
        if delta.shape[0] != n or z.shape[0] != n:
            raise DataError("x, delta and z must have the same number of rows")
        if n < 2:
            raise DataError(f"a dataset needs at least 2 rows, got {n}")
        if not np.all(np.isfinite(x)) or np.any(x <= 0.0):
            raise DataError("all durations x must be finite and > 0")
        if np.any(delta < 0):
            raise DataError("risk labels delta must be >= 0")
        if not np.all(np.isfinite(z)):
            raise DataError("covariates z must be finite")
        for arr in (x, delta, z):
            arr.flags.writeable = False
        self.x = x
        self.delta = delta
        self.z = z

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def k(self) -> int:
        return self.z.shape[1]

    def __len__(self) -> int:
        return self.n

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=int)
        return Dataset(self.x[idx], self.delta[idx], self.z[idx])


@dataclass(frozen=True)
class StrataIndex:
    """Partition of dataset rows by distinct covariate vector.

    Levels are ordered lexicographically; every stratum is nonempty and the
    index lists partition range(n).
    """

    levels: tuple[tuple[float, ...], ...]
    indices: tuple[np.ndarray, ...]

    @property
    def n_strata(self) -> int:
        return len(self.levels)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(ix) for ix in self.indices)

    def items(self):
        return zip(self.levels, self.indices)


def load_csv(
    path,
    x_col: str = "x",
    delta_col: str = "delta",
    z_cols: Sequence[str] | None = None,
) -> Dataset:
    """Read a dataset from a UTF-8 CSV file with a header row.

    z_cols=None auto-detects covariate columns named z1, z2, ... in order.
    Rows with non-positive or missing x/delta are rejected with the offending
    file line number.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from exc
    with fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty file (header row required)")
        header = [name.strip() for name in reader.fieldnames]
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
        else:
            z_cols = list(z_cols)
            missing = [c for c in z_cols if c not in header]
            if missing:
                raise DataError(f"{path}: covariate columns not found: {missing}")

        xs: list[float] = []
        deltas: list[int] = []
        zs: list[list[float]] = []
        for lineno, rec in enumerate(reader, start=2):
            try:
                xval = float(rec[x_col])
                dval = int(float(rec[delta_col]))
                zrow = [float(rec[c]) for c in z_cols]
            except (TypeError, ValueError, KeyError) as exc:
                raise DataError(f"{path}: line {lineno}: unparseable row ({exc})") from exc
            if not np.isfinite(xval) or xval <= 0.0:
                raise DataError(f"{path}: line {lineno}: duration x must be > 0, got {xval}")
            if dval < 0:
                raise DataError(f"{path}: line {lineno}: delta must be >= 0, got {dval}")
            xs.append(xval)
            deltas.append(dval)
            zs.append(zrow)
    if not xs:
        raise DataError(f"{path}: no data rows")
    z = np.asarray(zs, dtype=float) if z_cols else None
    try:
        return Dataset(xs, deltas, z)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def pool_risks(ds: Dataset, target: int) -> Dataset:
    """Recode the target risk label to 1 and pool all other risks as 0."""
    target = int(target)
    if not np.any(ds.delta == target):
        raise DataError(f"target risk label {target} does not occur in the data")
    pooled = (ds.delta == target).astype(int)
    return Dataset(ds.x, pooled, ds.z)


def stratify(ds: Dataset) -> StrataIndex:
    """Partition rows by distinct covariate vector, ordered lexicographically."""
    if ds.k == 0:
        return StrataIndex(levels=((),), indices=(np.arange(ds.n),))
    levels, inverse = np.unique(ds.z, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    if levels.shape[0] > MAX_STRATA:
        raise DataError(
            f"{levels.shape[0]} distinct covariate vectors exceed the supported "
            f"maximum of {MAX_STRATA}; discrete covariates are required"
        )
    indices = tuple(np.flatnonzero(inverse == s) for s in range(levels.shape[0]))
    return StrataIndex(
        levels=tuple(tuple(row) for row in levels),
        indices=indices,
    )
