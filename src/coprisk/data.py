"""Dataset container, CSV ingestion, risk pooling and covariate stratification."""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError

# A nonparametric first stage needs every stratum to carry enough observations;
# more distinct covariate vectors than this signals a continuous covariate.
MAX_STRATA = 64

# risk labels are stored as int64, so they must be below 2**63
LABEL_LIMIT = 2.0**63


class Dataset:
    """Immutable sample of (x, delta, z) rows.

    x is the observed duration (> 0), delta the integer risk label
    (0 = censored/other cause, 1..m = cause of failure), z a k-vector of
    covariates (k may be zero).  The dataset holds read-only copies, so the
    caller's arrays stay writeable and later writes to them do not reach it.
    """

    __slots__ = ("x", "delta", "z")

    def __init__(self, x, delta, z=None):
        x = np.array(x, dtype=float)
        delta = np.asarray(delta)
        if delta.dtype.kind == "u":
            # past int64 the cast below would wrap
            if np.any(delta > np.iinfo(np.int64).max):
                raise DataError(
                    f"risk labels delta must be below 2**63, got {int(delta.max())}"
                )
        elif delta.dtype.kind not in "bi":
            labels = delta.astype(float)
            if not np.all(np.isfinite(labels) & (labels == np.floor(labels))):
                raise DataError("risk labels delta must be whole numbers")
            # past int64 the cast below would warn and wrap
            if np.any(labels < 0.0):
                raise DataError("risk labels delta must be >= 0")
            if np.any(labels >= LABEL_LIMIT):
                raise DataError(
                    f"risk labels delta must be below 2**63, got {float(labels.max())}"
                )
        delta = delta.astype(int)
        if z is None:
            z = np.empty((x.shape[0], 0))
        z = np.array(z, dtype=float)
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

    def subset(self, indices) -> "Dataset":
        """The rows at the given integer indices, in their order."""
        idx = np.asarray(indices)
        # a cast to int would read a boolean mask as rows 0 and 1 and
        # truncate fractional indices
        if idx.dtype.kind not in "iu":
            raise ValueError(f"subset indices must be integers, got dtype {idx.dtype}")
        return Dataset(self.x[idx], self.delta[idx], self.z[idx])


@dataclass(frozen=True)
class StrataIndex:
    """Partition of dataset rows by distinct covariate vector.

    Levels are ordered lexicographically and every stratum is nonempty.
    codes holds each row's stratum, its position in levels (intp), and
    sizes each stratum's number of rows.
    """

    levels: tuple[tuple[float, ...], ...]
    codes: np.ndarray
    sizes: tuple[int, ...]

    @property
    def n_strata(self) -> int:
        return len(self.levels)


def load_csv(
    path,
    x_col: str = "x",
    delta_col: str = "delta",
    z_cols: Sequence[str] | None = None,
) -> Dataset:
    """Read a dataset from a UTF-8 CSV file with a header row.

    z_cols=None auto-detects covariate columns named z1, z2, ... in order.
    Header names are stripped of surrounding whitespace.  A column may be
    used only once among x, delta and z, and a used column must be named
    only once in the header.  Fields may be quoted, so an
    unused column may hold commas, and may have spaces around the number;
    blank lines are skipped.  Rows with a non-positive or missing x, a
    missing, negative or non-integral delta (1.0 is accepted, 1.5 is not)
    or a missing or non-finite covariate are rejected with a line number that counts the header as line 1 and
    then each non-blank row, which is the file line when the file has no
    blank lines.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from exc
    with fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise DataError(f"{path}: empty file (header row required)")
        # columns are found by the stripped names, so "x, delta" matches "delta"
        header = [name.strip() for name in header]
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
        names = [x_col, delta_col, *z_cols]
        reused = [c for c in dict.fromkeys(names) if names.count(c) > 1]
        if reused:
            raise DataError(f"{path}: columns used more than once for x, delta and z: {reused}")
        repeated = [c for c in dict.fromkeys(names) if header.count(c) > 1]
        if repeated:
            raise DataError(f"{path}: columns named more than once in the header: {repeated}")
        usecols = [header.index(c) for c in names]
        try:
            with warnings.catch_warnings():
                # a header-only file; the empty result is reported below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                cols = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"',
                                  usecols=usecols, ndmin=2, dtype=float)
        except ValueError as exc:
            fh.seek(0)
            raise _unparseable(path, fh, usecols, exc) from exc
    if cols.shape[0] == 0:
        raise DataError(f"{path}: no data rows")
    _check_rows(path, cols)
    try:
        return Dataset(cols[:, 0], cols[:, 1].astype(int), cols[:, 2:])
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _check_rows(path, cols: np.ndarray) -> None:
    """Reject the first row (x, delta, z...) of cols whose x is not finite
    and > 0, whose delta is not a whole number in [0, 2**63) or whose
    covariates are not all finite."""
    x, delta, z = cols[:, 0], cols[:, 1], cols[:, 2:]
    bad_x = ~(np.isfinite(x) & (x > 0.0))
    fractional = ~(np.isfinite(delta) & (delta == np.floor(delta)))
    bad_z = ~np.isfinite(z).all(axis=1)
    bad = bad_x | fractional | (delta < 0.0) | (delta >= LABEL_LIMIT) | bad_z
    if not bad.any():
        return
    i = int(np.argmax(bad))
    where = f"{path}: line {i + 2}"
    if bad_x[i]:
        raise DataError(f"{where}: duration x must be > 0, got {float(x[i])}")
    if fractional[i]:
        raise DataError(f"{where}: delta must be a whole number, got {float(delta[i])}")
    if delta[i] < 0.0:
        raise DataError(f"{where}: delta must be >= 0, got {int(delta[i])}")
    if delta[i] >= LABEL_LIMIT:
        raise DataError(f"{where}: delta must be below 2**63, got {float(delta[i])}")
    value = z[i][~np.isfinite(z[i])][0]
    raise DataError(f"{where}: covariates z must be finite, got {float(value)}")


def _unparseable(path, fh, usecols: list[int], exc: ValueError) -> DataError:
    """The error for a file that np.loadtxt rejects, read again from the top.

    Names the first row whose used fields are missing or not numbers, unless
    a row before it fails _check_rows.  A field that float() reads but
    np.loadtxt does not (such as "1_0") is not a number here either; a file
    in which np.loadtxt reads every used field gets numpy's message.
    """
    rows = csv.reader(fh)
    next(rows)  # the header
    parsed: list[list[float]] = []
    fields: list[str] = []
    for row in filter(None, rows):  # a blank line is an empty row
        try:
            used = [row[j].strip() for j in usecols]
            parsed.append([float(f) for f in used])
        except (IndexError, ValueError) as err:
            reason = "missing field" if isinstance(err, IndexError) else err
            _check_rows(path, np.array(parsed).reshape(-1, len(usecols)))
            return DataError(f"{path}: line {len(parsed) + 2}: unparseable row ({reason})")
        fields += used
    _check_rows(path, np.array(parsed).reshape(-1, len(usecols)))
    i = _first_rejected(fields)
    if i is None:
        return DataError(f"{path}: {exc}")
    return DataError(f"{path}: line {i // len(usecols) + 2}: unparseable row "
                     f"(could not convert string to float: {fields[i]!r})")


def _first_rejected(fields: list[str]) -> int | None:
    """Index of the first field np.loadtxt cannot read as a number, found
    by bisection over prefixes; None if it reads them all."""

    def reads(m: int) -> bool:
        try:
            np.loadtxt(fields[:m], delimiter=",", comments=None, dtype=float)
        except ValueError:
            return False
        return True

    if not fields or reads(len(fields)):
        return None
    lo, hi = 0, len(fields)  # fields[:lo] are read, fields[:hi] are not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if reads(mid) else (lo, mid)
    return lo


def _is_integer(value) -> bool:
    # a bool is an int to Python, and a float would be truncated
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def pool_risks(ds: Dataset, target: int) -> Dataset:
    """Recode the target risk label to 1 and pool all other risks as 0."""
    if not _is_integer(target):
        raise ValueError(f"target risk label must be an integer, got {target!r}")
    is_target = ds.delta == target
    if not is_target.any():
        raise DataError(f"target risk label {target} does not occur in the data")
    return Dataset(ds.x, is_target.astype(int), ds.z)


def stratify(ds: Dataset) -> StrataIndex:
    """Partition rows by distinct covariate vector, ordered lexicographically.

    Each column is coded by its own sorted values, and the codes are folded
    left to right into one integer per row, renumbered densely in the same
    order after each column, so the key stays below n**2.  A code is the
    value's position among the sorted distinct values, found by searching
    them: np.unique's inverse would argsort the whole column instead.  A
    level is the covariate vector of its stratum's first row, the least row
    with its code, which needs no sort of the rows: where a column holds
    both -0.0 and 0.0, which fall in one stratum, the level keeps that row's
    sign.
    """
    if ds.k == 0:
        return StrataIndex(levels=((),), codes=np.zeros(ds.n, dtype=np.intp), sizes=(ds.n,))

    def dense(keys):
        values = np.unique(keys)
        return values.size, np.searchsorted(values, keys)

    n_codes, codes = dense(ds.z[:, 0])
    for column in ds.z.T[1:]:
        n_values, column_codes = dense(column)
        n_codes, codes = dense(codes * n_values + column_codes)
    if n_codes > MAX_STRATA:
        raise DataError(
            f"{n_codes} distinct covariate vectors exceed the supported "
            f"maximum of {MAX_STRATA}; discrete covariates are required"
        )
    first_rows = np.full(n_codes, ds.n)
    np.minimum.at(first_rows, codes, np.arange(ds.n))
    return StrataIndex(
        levels=tuple(map(tuple, ds.z[first_rows])),
        codes=codes,
        sizes=tuple(np.bincount(codes, minlength=n_codes).tolist()),
    )
