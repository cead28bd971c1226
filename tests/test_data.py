"""Tests for dataset construction, CSV loading, pooling and stratification."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coprisk.cli import main
from coprisk.data import MAX_STRATA, Dataset, load_csv, pool_risks, stratify
from coprisk.errors import DataError

from oracles import csv_writer_rows, dict_reader_load, unique_rows_stratify


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
    with pytest.raises(DataError, match=r"covariate columns not found: \['z9'\]$"):
        load_csv(path, x_col="time", delta_col="status", z_cols=["z9"])


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
    with pytest.raises(DataError, match="^x and delta must be 1-d, z at most 2-d$"):
        Dataset([[1.0, 2.0]], [1, 0])
    with pytest.raises(DataError, match="^x, delta and z must have the same number of rows$"):
        Dataset([1.0, 2.0, 3.0], [1, 0])
    with pytest.raises(DataError, match="^covariates z must be finite$"):
        Dataset([1.0, 2.0], [1, 0], [0.0, np.nan])
    ds = Dataset([1.0, 2.0], [1, 0])
    assert ds.k == 0
    with pytest.raises(ValueError):
        ds.x[0] = 5.0  # immutable


def test_dataset_copies_the_callers_arrays():
    x, delta, z = np.array([1.0, 2.0, 3.0]), np.array([1, 0, 1]), np.array([0.0, 1.0, 0.0])
    ds = Dataset(x, delta, z)
    assert ds.x is not x and ds.z.base is not z
    for arr in (x, delta, z):
        assert arr.flags.writeable
        arr[0] = 5
    assert ds.x.tolist() == [1.0, 2.0, 3.0]
    assert ds.delta.tolist() == [1, 0, 1]
    assert ds.z.tolist() == [[0.0], [1.0], [0.0]]
    for arr in (ds.x, ds.delta, ds.z):
        assert not arr.flags.writeable


def test_dataset_rejects_float_labels_past_int64():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's cast warning would fail here
        for labels in ([1e20, 0.0], [0.0, 2.0**63]):
            with pytest.raises(DataError, match=r"below 2\*\*63, got"):
                Dataset([1.0, 2.0], labels)
        with pytest.raises(DataError, match=">= 0"):
            Dataset([1.0, 2.0], [-1e20, 0.0])
        top = 2.0**63 - 1024  # the largest float below the limit
        assert Dataset([1.0, 2.0], [top, 0.0]).delta[0] == int(top)


def test_dataset_rejects_unsigned_labels_past_int64():
    for labels in ([2**63, 1], [0, 2**64 - 1]):
        with pytest.raises(DataError, match=r"^risk labels delta must be below 2\*\*63, got "
                           f"{max(labels)}$"):
            Dataset([1.0, 2.0], np.array(labels, dtype=np.uint64))
    top = np.array([2**63 - 1, 0], dtype=np.uint64)
    assert Dataset([1.0, 2.0], top).delta[0] == 2**63 - 1


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
    assert list(ds.subset(np.array([2, 2], dtype=np.uint8)).x) == [3.0, 3.0]
    # a mask would read as rows 0, 1, 1 and floats would truncate to 0, 2
    for indices in ([False, True, True], [0.7, 2.9], np.array([1.0, 2.0])):
        with pytest.raises(ValueError, match="subset indices must be integers"):
            ds.subset(indices)


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
    assert strata.sizes == (2, 2)
    assert [np.flatnonzero(strata.codes == j).tolist() for j in range(2)] == [[1, 2], [0, 3]]


def test_stratify_constant_and_empty_z():
    ds = Dataset([1.0, 2.0], [1, 0], [[3.0], [3.0]])
    assert stratify(ds).n_strata == 1
    no_z = Dataset([1.0, 2.0], [1, 0])
    assert stratify(no_z).n_strata == 1
    got, want = stratify_both(np.empty((5, 0)))
    assert_same_strata(got, want)
    assert got.levels == ((),)


def test_stratify_too_many_levels():
    n = 100
    ds = Dataset(np.arange(1.0, n + 1), np.ones(n, int), np.arange(n, dtype=float))
    with pytest.raises(DataError, match="distinct covariate vectors"):
        stratify(ds)


# ---------------------------------------------------------------------------
# stratify against the whole-row np.unique oracle
# ---------------------------------------------------------------------------


def stratify_both(z):
    """stratify and the oracle on one dataset, or their two DataErrors."""
    z = np.asarray(z, dtype=float)
    n = z.shape[0]
    ds = Dataset(np.arange(1.0, n + 1), np.ones(n, int), z if z.size else None)
    try:
        want = unique_rows_stratify(ds)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            stratify(ds)
        assert str(got.value) == str(exc)
        return None, None
    return stratify(ds), want


def assert_same_strata(got, want):
    assert got.levels == want.levels
    assert got.sizes == want.sizes
    assert all(type(size) is int for size in got.sizes)
    # each row's code is its stratum's position in levels, so equal codes
    # are the same partition of the rows
    assert got.codes.dtype == np.intp
    np.testing.assert_array_equal(got.codes, want.codes)


def test_stratify_several_columns_matches_oracle():
    rng = np.random.default_rng(3)
    z = np.column_stack([rng.integers(0, 3, 500), rng.normal(size=500).round(0),
                         rng.choice([-2.5, 0.5, 7.0], 500)])
    got, want = stratify_both(z)
    assert 3 < got.n_strata <= MAX_STRATA
    assert_same_strata(got, want)


def test_stratify_at_and_past_max_strata():
    a, b = np.divmod(np.arange(MAX_STRATA), 8)
    z = np.column_stack([a, b])
    got, want = stratify_both(np.concatenate([z, z[::-1]]))
    assert got.n_strata == MAX_STRATA
    assert_same_strata(got, want)
    one_more = np.concatenate([z, [[8.0, 0.0]]])
    assert stratify_both(one_more) == (None, None)  # the same message
    with pytest.raises(DataError, match=f"^{MAX_STRATA + 1} distinct covariate vectors"):
        stratify(Dataset(np.arange(1.0, MAX_STRATA + 2), np.ones(MAX_STRATA + 1, int),
                         one_more))


def test_stratify_one_column_with_too_many_values():
    rng = np.random.default_rng(4)
    many = rng.permutation(300) % 150
    assert stratify_both(many) == (None, None)
    with pytest.raises(DataError, match="^150 distinct covariate vectors"):
        stratify(Dataset(np.arange(1.0, 301), np.ones(300, int), many))
    # beside a binary column, and after it
    binary = rng.integers(0, 2, 300)
    assert stratify_both(np.column_stack([many, binary])) == (None, None)
    assert stratify_both(np.column_stack([binary, many])) == (None, None)
    # two such columns: 150 * 150 code pairs for 300 rows
    assert stratify_both(np.column_stack([many, many[::-1]])) == (None, None)
    got, want = stratify_both(np.column_stack([many % 40, 39 - many % 40]))
    assert got.n_strata == 40
    assert_same_strata(got, want)


def test_stratify_many_columns_does_not_overflow():
    # 3**45 > 2**63: the key must be renumbered between columns
    rng = np.random.default_rng(5)
    base = rng.integers(0, 3, (400, 3))
    z = base[:, rng.integers(0, 3, 45)]
    got, want = stratify_both(z)
    assert got.n_strata == np.unique(base, axis=0).shape[0]
    assert_same_strata(got, want)
    # too many vectors, counted exactly
    assert stratify_both(rng.integers(0, 3, (400, 45))) == (None, None)


def test_stratify_signed_zeros_are_one_level():
    for first in (-0.0, 0.0):
        z = np.array([[first, 1.0], [1.0, 1.0], [-first, 1.0], [0.0, 1.0], [-0.0, 1.0]])
        got, want = stratify_both(z)
        assert_same_strata(got, want)
        assert got.levels == ((0.0, 1.0), (1.0, 1.0))
        # the level is the first row's vector, so it keeps that row's sign
        assert np.signbit(got.levels[0][0]) == np.signbit(first)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda k: st.lists(
    st.lists(st.integers(-3, 3), min_size=k, max_size=k), min_size=2, max_size=40)))
def test_stratify_matches_oracle_on_small_integer_covariates(rows):
    got, want = stratify_both(rows)
    assert_same_strata(got, want)
    for j, size in enumerate(got.sizes):
        assert np.flatnonzero(got.codes == j).size == size > 0


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
    "z1 = nan": ("x,delta,z1\n1.0,1,0\n2.0,0,nan\n",
                 "line 3: covariates z must be finite, got nan"),
    "z1 = inf": ("x,delta,z1\n1.0,1,0\n2.0,0,inf\n",
                 "line 3: covariates z must be finite, got inf"),
    "z2 = -inf": ("x,delta,z1,z2\n1.0,1,0,0\n2.0,0,1,-inf\n3.0,1,nan,0\n",
                  "line 3: covariates z must be finite, got -inf"),
    "bad delta before bad z": ("x,delta,z1\n1.0,1,0\n2.0,-1,nan\n",
                               "line 3: delta must be >= 0, got -1"),
    "bad z before bad text": ("x,delta,z1\n1.0,1,0\n2.0,0,nan\nthree,0,0\n",
                              "line 3: covariates z must be finite, got nan"),
    "line after blank": ("x,delta\n1.0,1\n\n2.0,0\n3.0,-1\n",
                         "line 4: delta must be >= 0, got -1"),
    "bad value before bad text": ("x,delta\n1.0,1\n-2.0,0\nthree,0\n",
                                  "line 3: duration x must be > 0, got -2.0"),
    "bad text before bad value": ("x,delta\n1.0,1\nthree,0\n-2.0,0\n",
                                  "line 3: unparseable row"),
    # np.loadtxt rejects 1_0 and float() reads it; the earlier row still fails
    "bad value before 1_0": ("x,delta\n-1,0\n1_0,0\n",
                             "line 2: duration x must be > 0, got -1.0"),
    "1_0 after a blank line": ("x,delta\n1.0,1\n\n2.0,0\n1_0,0\n",
                               "line 4: unparseable row (could not convert string "
                               "to float: '1_0')"),
}

# files the oracle reads, because float() reads a field that np.loadtxt does not
ORACLE_READS = {"1_0 after a blank line"}


@pytest.mark.parametrize("case", BAD_ROWS)
def test_load_rejects_bad_rows_as_oracle_does(tmp_path, case):
    text, message = BAD_ROWS[case]
    path = write(tmp_path, text)
    with pytest.raises(DataError) as new:
        load_csv(path)
    if case in ORACLE_READS:
        assert message in str(new.value)
        assert dict_reader_load(path).n == 3
        return
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
    with pytest.raises(DataError, match="line 3: unparseable row \\(could not convert string"):
        load_csv(path)


def test_load_names_the_line_of_a_field_only_float_reads(tmp_path):
    rows = [f"{i + 1}.5,{i % 2},{i % 3}" for i in range(1000)]
    rows[776] = "777.5,0,1_0"
    rows[200:200] = ["", ""]  # blank lines are not counted
    path = write(tmp_path, "x,delta,z1\n" + "\n".join(rows) + "\n")
    assert dict_reader_load(path).n == 1000
    with pytest.raises(DataError, match=r"line 778: unparseable row \(.*'1_0'\)$"):
        load_csv(path)


def test_load_rejects_labels_past_int64(tmp_path):
    path = write(tmp_path, "x,delta\n1.0,1\n2.0,1e20\n")
    # the row-by-row reader passes the label on, and Dataset rejects it
    with pytest.raises(DataError, match="below 2\\*\\*63"):
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


@pytest.mark.parametrize("columns, reused", [
    (dict(z_cols=["z1", "z1"]), "['z1']"),
    (dict(z_cols=["delta"]), "['delta']"),
    (dict(x_col="z2", z_cols=["z1", "z2"]), "['z2']"),
    (dict(delta_col="x", z_cols=["z1", "z1", "x"]), "['x', 'z1']"),
])
def test_load_rejects_a_column_used_twice(tmp_path, columns, reused):
    path = write(tmp_path, "x,delta,z1,z2\n1.0,1,0,1\n2.0,0,1,0\n3.0,1,1,1\n")
    with pytest.raises(DataError) as info:
        load_csv(path, **columns)
    assert str(info.value) == f"{path}: columns used more than once for x, delta and z: {reused}"

