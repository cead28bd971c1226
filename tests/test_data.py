"""Tests for dataset construction, CSV loading, pooling and stratification."""

import numpy as np
import pytest

from coprisk.data import Dataset, load_csv, pool_risks, stratify
from coprisk.errors import DataError


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_well_formed(tmp_path):
    path = write(tmp_path, "x,delta,z1\n1.0,1,0\n2.0,0,1\n0.5,2,0\n")
    ds = load_csv(path)
    assert ds.n == 3
    assert ds.k == 1
    assert list(ds.delta) == [1, 0, 2]


def test_load_rejects_nonpositive_duration(tmp_path):
    path = write(tmp_path, "x,delta\n1.0,1\n-1.0,0\n2.0,1\n")
    with pytest.raises(DataError, match="line 3"):
        load_csv(path)


def test_load_two_z_columns(tmp_path):
    path = write(tmp_path, "x,delta,z1,z2\n1,1,0,1\n2,0,1,0\n")
    ds = load_csv(path)
    assert ds.k == 2


def test_load_missing_columns(tmp_path):
    path = write(tmp_path, "time,status\n1,1\n2,0\n")
    with pytest.raises(DataError):
        load_csv(path)
    ds = load_csv(path, x_col="time", delta_col="status")
    assert ds.n == 2


def test_load_unparseable_row(tmp_path):
    path = write(tmp_path, "x,delta\n1.0,1\nnot-a-number,0\n")
    with pytest.raises(DataError, match="line 3"):
        load_csv(path)


@pytest.mark.parametrize("label", ["1.5", "0.7", "nan", "inf"])
def test_load_rejects_fractional_label(tmp_path, label):
    path = write(tmp_path, f"x,delta\n1.0,1\n2.0,0\n3.0,{label}\n")
    with pytest.raises(DataError, match="line 4: delta must be a whole number"):
        load_csv(path)


def test_load_accepts_integral_float_label(tmp_path):
    path = write(tmp_path, "x,delta\n1.0,1.0\n2.0,0.0\n3.0,2.0\n")
    assert list(load_csv(path).delta) == [1, 0, 2]


def test_load_strips_header_whitespace(tmp_path):
    path = write(tmp_path, "x, delta, z1\n1.0, 1, 0\n2.0, 0, 1\n0.5, 2, 0\n")
    ds = load_csv(path)
    assert list(ds.delta) == [1, 0, 2]
    assert ds.z[:, 0].tolist() == [0.0, 1.0, 0.0]
    ds = load_csv(path, z_cols=["z1"])
    assert ds.k == 1


def test_load_empty(tmp_path):
    path = write(tmp_path, "x,delta\n")
    with pytest.raises(DataError):
        load_csv(path)


def test_dataset_validation():
    with pytest.raises(DataError):
        Dataset([1.0], [1])  # n < 2
    with pytest.raises(DataError):
        Dataset([1.0, 0.0], [1, 0])  # nonpositive duration
    with pytest.raises(DataError):
        Dataset([1.0, 2.0], [1, -1])  # negative label
    ds = Dataset([1.0, 2.0], [1, 0])
    assert ds.k == 0
    with pytest.raises(ValueError):
        ds.x[0] = 5.0  # immutable


def test_dataset_rejects_fractional_labels():
    with pytest.raises(DataError, match="whole numbers"):
        Dataset([1.0, 2.0, 3.0], [0.5, 1.7, 2.0])
    with pytest.raises(DataError, match="whole numbers"):
        Dataset([1.0, 2.0], [1.0, np.nan])
    assert list(Dataset([1.0, 2.0], [1.0, 0.0]).delta) == [1, 0]
    assert list(Dataset([1.0, 2.0], [True, False]).delta) == [1, 0]


def test_dataset_subset_and_row():
    ds = Dataset([1.0, 2.0, 3.0], [1, 0, 1], [[0.0], [1.0], [0.0]])
    sub = ds.subset([2, 0])
    assert list(sub.x) == [3.0, 1.0]
    rows = ds.subset([1, 0])
    assert list(rows.x) == [2.0, 1.0]
    assert list(rows.delta) == [0, 1]
    assert rows.z.tolist() == [[1.0], [0.0]]


def test_pool_risks():
    ds = Dataset([1.0, 2.0, 3.0, 4.0], [1, 2, 3, 0])
    pooled = pool_risks(ds, 2)
    assert list(pooled.delta) == [0, 1, 0, 0]
    # identity on already-binary data
    binary = Dataset([1.0, 2.0], [1, 0])
    assert list(pool_risks(binary, 1).delta) == [1, 0]
    with pytest.raises(DataError):
        pool_risks(ds, 5)


def test_pool_preserves_durations():
    rng = np.random.default_rng(0)
    x = rng.uniform(0.1, 5.0, 50)
    delta = rng.integers(0, 4, 50)
    delta[0] = 2
    ds = Dataset(x, delta)
    pooled = pool_risks(ds, 2)
    assert pooled.n == ds.n
    assert sorted(pooled.x) == sorted(ds.x)


def test_stratify_binary():
    ds = Dataset([1.0, 2.0, 3.0, 4.0], [1, 0, 1, 0], [[1.0], [0.0], [0.0], [1.0]])
    strata = stratify(ds)
    assert strata.n_strata == 2
    assert strata.levels == ((0.0,), (1.0,))  # lexicographic
    assert sum(strata.sizes) == ds.n
    assert sorted(np.concatenate(strata.indices)) == [0, 1, 2, 3]


def test_stratify_constant_and_empty_z():
    ds = Dataset([1.0, 2.0], [1, 0], [[3.0], [3.0]])
    assert stratify(ds).n_strata == 1
    no_z = Dataset([1.0, 2.0], [1, 0])
    assert stratify(no_z).n_strata == 1


def test_stratify_too_many_levels():
    n = 100
    ds = Dataset(np.arange(1.0, n + 1), np.ones(n, int), np.arange(n, dtype=float))
    with pytest.raises(DataError, match="distinct covariate vectors"):
        stratify(ds)
