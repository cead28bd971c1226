"""Tests for dataset construction, CSV loading, pooling and stratification."""

import numpy as np
import pytest

from coprisk.cli import main
from coprisk.data import Dataset, load_csv, pool_risks, stratify
from coprisk.errors import DataError

from oracles import csv_writer_rows, dict_reader_load


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
    # np.loadtxt's "input contained no data" warning is handled inside
    for text in ("x,delta\n", "x,delta\n\n\n"):
        with pytest.raises(DataError, match="no data rows"):
            load_csv(write(tmp_path, text))
    with pytest.raises(DataError, match="empty file"):
        load_csv(write(tmp_path, ""))


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


# ---------------------------------------------------------------------------
# the column loader against the row-by-row csv.DictReader oracle
# ---------------------------------------------------------------------------


def assert_same_dataset(ds, oracle):
    for name in ("x", "delta", "z"):
        got, want = getattr(ds, name), getattr(oracle, name)
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("n", [400, 2000, 20000])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_load_matches_oracle(tmp_path, n, k):
    path = tmp_path / "data.csv"
    if k < 2:
        extra = ["--no-covariate"] if k == 0 else []
        assert main(["gen", "--n", str(n), "--seed", "5", "--output", str(path), *extra]) == 0
    else:
        rng = np.random.default_rng(n)
        csv_writer_rows(path, rng.exponential(2.0, n), rng.integers(0, 3, n),
                        rng.integers(0, 2, (n, 2)).astype(float))
    ds = load_csv(path)
    assert ds.n == n and ds.k == k
    assert_same_dataset(ds, dict_reader_load(path))


EDGE_FILES = {
    "quoted fields": 'x,delta,z1\n"1.5","1","0"\n2.5,"0",1\n',
    "unused quoted comma": 'id,x,delta\n"a, b",1.5,1\n"c",2.5,0\n',
    "blank lines": "x,delta\n1.5,1\n\n2.5,0\n\n\n3.5,2\n",
    "crlf": "x,delta,z1\r\n1.5,1,0\r\n2.5,0,1\r\n",
    "spaces": " x , delta , z1 \n 1.5 , 1 , 0 \n2.5,0 ,1\n",
    "exponent": "x,delta\n1.5e-3,1\n2E2,0\n",
    "float labels": "x,delta\n1.5,1.0\n2.5,0.0\n3.5,2.0\n",
}


@pytest.mark.parametrize("text", EDGE_FILES.values(), ids=EDGE_FILES.keys())
def test_load_edge_files_match_oracle(tmp_path, text):
    path = write(tmp_path, text)
    assert_same_dataset(load_csv(path), dict_reader_load(path))


BAD_ROWS = {
    "short row": ("x,delta,z1\n1.0,1,0\n2.0,0\n", "line 3: unparseable row"),
    "empty field": ("x,delta\n1.0,1\n2.0,\n", "line 3: unparseable row"),
    "text z": ("x,delta,z1\n1.0,1,0\n2.0,0,one\n", "line 3: unparseable row"),
    "x = 0": ("x,delta\n1.0,1\n0,0\n", "line 3: duration x must be > 0, got 0.0"),
    "x = nan": ("x,delta\n1.0,1\nnan,0\n", "line 3: duration x must be > 0, got nan"),
    "delta = -1": ("x,delta\n1.0,1\n2.0,-1\n", "line 3: delta must be >= 0, got -1"),
    "delta = 1.5": ("x,delta\n1.0,1\n2.0,1.5\n",
                    "line 3: delta must be a whole number, got 1.5"),
    "line after blank": ("x,delta\n1.0,1\n\n2.0,0\n3.0,-1\n",
                         "line 4: delta must be >= 0, got -1"),
    "bad value before bad text": ("x,delta\n1.0,1\n-2.0,0\nthree,0\n",
                                  "line 3: duration x must be > 0, got -2.0"),
    "bad text before bad value": ("x,delta\n1.0,1\nthree,0\n-2.0,0\n",
                                  "line 3: unparseable row"),
    # np.loadtxt rejects 1_0 and float() reads it; the earlier row still fails
    "bad value before 1_0": ("x,delta\n-1,0\n1_0,0\n",
                             "line 2: duration x must be > 0, got -1.0"),
}


@pytest.mark.parametrize("text, message", BAD_ROWS.values(), ids=BAD_ROWS.keys())
def test_load_rejects_bad_rows_as_oracle_does(tmp_path, text, message):
    path = write(tmp_path, text)
    with pytest.raises(DataError) as new:
        load_csv(path)
    with pytest.raises(DataError) as old:
        dict_reader_load(path)
    assert message in str(new.value) and message in str(old.value)
    if "unparseable" not in message:
        assert str(new.value) == str(old.value)


# float() reads digit separators and non-ASCII digits; np.loadtxt does not
@pytest.mark.parametrize("field", ["1_0", "\uff11"])
def test_load_rejects_what_only_float_reads(tmp_path, field):
    path = write(tmp_path, f"x,delta\n1.0,1\n{field},0\n")
    assert dict_reader_load(path).n == 2
    with pytest.raises(DataError, match="could not convert string"):
        load_csv(path)


def test_load_rejects_labels_past_int64(tmp_path):
    path = write(tmp_path, "x,delta\n1.0,1\n2.0,1e20\n")
    with pytest.raises(OverflowError):
        dict_reader_load(path)
    with pytest.raises(DataError, match="line 3: delta must be below 2\\*\\*63, got 1e\\+20"):
        load_csv(path)


def test_load_rejects_repeated_used_columns(tmp_path):
    path = write(tmp_path, "x,delta,x,note,note\n1.0,1,2.0,a,b\n2.0,0,3.0,c,d\n")
    with pytest.raises(DataError, match=r"more than once in the header: \['x'\]"):
        load_csv(path)
    # a repeated column that is not used is no error
    path = write(tmp_path, "x,delta,note,note\n1.0,1,a,b\n2.0,0,c,d\n")
    assert load_csv(path).n == 2

