import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial.distance import cdist

from helpers import build_dataset, constant_columns_reference, standardize_reference
from spectralweak import dataset
from spectralweak.dataset import (
    CsvSchema,
    Dataset,
    DistanceMatrix,
    load_csv,
    pairwise_distances,
    standardize,
    zscore,
)
from spectralweak.errors import IntegrityError, ParameterError, ParseError, SchemaError
from spectralweak.simgraph import GraphParams, SimilarityGraph

SCHEMA = CsvSchema(
    instance_id="id",
    bag_id="bag",
    bag_label="label",
    features=("x", "y"),
    strong_label="good",
)


def write_csv(path, rows, header="id,bag,label,x,y"):
    path.write_text("\n".join([header, *rows]) + "\n")
    return path


def test_load_csv_roundtrip(tmp_path):
    p = write_csv(
        tmp_path / "d.csv",
        ["a,b1,good,0.0,1.0", "b,b1,good,2.0,3.0", "c,b2,bad,4.0,5.0"],
    )
    ds = load_csv(p, SCHEMA)
    assert ds.ids.tolist() == ["a", "b", "c"]
    assert ds.bag.tolist() == ["b1", "b1", "b2"]
    assert ds.label.tolist() == ["good", "good", "bad"]
    assert np.array_equal(ds.x, [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    assert ds.x.flags.c_contiguous
    assert ds.strong_label == "good"
    assert ds.bag_ids == ("b1", "b2")


@pytest.mark.parametrize("delimiter", [";;", "", None])
def test_csv_schema_rejects_a_delimiter_that_is_not_one_character(delimiter):
    with pytest.raises(ParameterError, match="delimiter must be a single character"):
        CsvSchema("instance", "bag", "group", None, None, delimiter=delimiter)


def test_load_csv_missing_column(tmp_path):
    p = write_csv(tmp_path / "d.csv", ["a,b1,good,0.0"], header="id,bag,label,x")
    with pytest.raises(SchemaError, match="missing columns"):
        load_csv(p, SCHEMA)


def test_load_csv_bad_cell_reports_row(tmp_path):
    p = write_csv(
        tmp_path / "d.csv",
        ["a,b1,good,0.0,1.0", "b,b1,good,oops,3.0"],
    )
    with pytest.raises(ParseError, match="row 2"):
        load_csv(p, SCHEMA)


def test_load_csv_rejects_non_finite(tmp_path):
    p = write_csv(tmp_path / "d.csv", ["a,b1,good,inf,1.0", "b,b1,good,0.0,0.0"])
    with pytest.raises(ParseError, match="non-finite"):
        load_csv(p, SCHEMA)


def test_load_csv_conflicting_bag_label(tmp_path):
    p = write_csv(
        tmp_path / "d.csv",
        ["a,b1,good,0.0,1.0", "b,b1,bad,2.0,3.0"],
    )
    with pytest.raises(IntegrityError, match="b1"):
        load_csv(p, SCHEMA)


def test_dataset_rejects_duplicate_ids():
    with pytest.raises(IntegrityError, match=r"duplicate instance id 'a' in data rows 1 and 3"):
        Dataset(
            x=np.array([[0.0], [1.0], [2.0]]),
            ids=["a", "b", "a"],
            bag=["b", "b", "b"],
            label=["good", "good", "good"],
            strong_label="good",
        )


def test_load_csv_duplicate_id_names_id_and_rows(tmp_path):
    p = write_csv(
        tmp_path / "d.csv",
        ["a,b1,good,0.0,1.0", "", "b,b1,good,2.0,3.0", "a,b2,bad,4.0,5.0"],
    )
    # the blank line is not a data row
    with pytest.raises(IntegrityError, match=r"duplicate instance id 'a' in data rows 1 and 3"):
        load_csv(p, SCHEMA)


def test_load_csv_reports_first_bad_row(tmp_path):
    # within a row the feature cells come before the bag label
    rows = ["a,b1,good,0.0,1.0", "b,b1,bad,2.0,nan", "c,b2,bad,oops,3.0"]
    with pytest.raises(ParseError, match=r"row 2, column 'y': non-finite value 'nan'"):
        load_csv(write_csv(tmp_path / "d.csv", rows), SCHEMA)
    rows[1] = "b,b1,bad,2.0,3.0"
    with pytest.raises(IntegrityError, match=r"row 2: bag 'b1' labelled both 'good' and 'bad'"):
        load_csv(write_csv(tmp_path / "d.csv", rows), SCHEMA)
    rows[1] = "b,b1,good,2.0,3.0"
    with pytest.raises(ParseError, match=r"row 3, column 'x': cannot parse 'oops' as float"):
        load_csv(write_csv(tmp_path / "d.csv", rows), SCHEMA)


def test_load_csv_short_row_reads_missing_cells_as_none(tmp_path):
    p = write_csv(tmp_path / "d.csv", ["a,b1,good,0.0,1.0", "b,b1,good,2.0"])
    with pytest.raises(ParseError, match=r"row 2, column 'y': cannot parse None as float"):
        load_csv(p, SCHEMA)


def test_load_csv_rejects_missing_id_bag_or_label_cell(tmp_path):
    header = "x,y,id,bag,label"
    rows = ["0.0,1.0,a,b1,good", "2.0,3.0,b,b2", "oops,3.0,c,b2,bad"]
    # the first bad row wins; bag b2 has no earlier label, so no conflict
    with pytest.raises(ParseError, match=r"d.csv: row 2, column 'label': missing cell"):
        load_csv(write_csv(tmp_path / "d.csv", rows, header), SCHEMA)
    rows[1] = "2.0,3.0,b"
    with pytest.raises(ParseError, match=r"row 2, column 'bag': missing cell"):
        load_csv(write_csv(tmp_path / "d.csv", rows, header), SCHEMA)
    rows[1] = "2.0,3.0"
    with pytest.raises(ParseError, match=r"row 2, column 'id': missing cell"):
        load_csv(write_csv(tmp_path / "d.csv", rows, header), SCHEMA)
    # within a row: after the feature cells, before a bag-label conflict
    rows[1] = "2.0"
    with pytest.raises(ParseError, match=r"row 2, column 'y': cannot parse None as float"):
        load_csv(write_csv(tmp_path / "d.csv", rows, header), SCHEMA)
    rows[1] = "2.0,3.0,b,b1"
    with pytest.raises(ParseError, match=r"row 2, column 'label': missing cell"):
        load_csv(write_csv(tmp_path / "d.csv", rows, header), SCHEMA)


def test_load_csv_without_features_reads_every_other_column_in_header_order(tmp_path):
    schema = dataclasses.replace(SCHEMA, features=None)
    p = write_csv(tmp_path / "d.csv", ["1.0,a,b1,2.0,good", "3.0,b,b2,4.0,bad"], header="y,id,bag,x,label")
    ds = load_csv(p, schema)
    assert np.array_equal(ds.x, [[1.0, 2.0], [3.0, 4.0]])
    assert ds.ids.tolist() == ["a", "b"]


def test_load_csv_without_strong_label_takes_the_smallest(tmp_path):
    schema = dataclasses.replace(SCHEMA, strong_label=None)
    p = write_csv(tmp_path / "d.csv", ["a,b1,good,0.0,1.0", "b,b2,bad,2.0,3.0"])
    assert load_csv(p, schema).strong_label == "bad"
    with pytest.raises(IntegrityError, match="at least 2 instances"):
        load_csv(write_csv(tmp_path / "e.csv", []), schema)


def test_dataset_rejects_inconsistent_rows():
    args = dict(x=np.zeros((2, 1)), ids=["a", "b"], bag=["b1", "b1"], label=["good", "good"], strong_label="good")
    with pytest.raises(IntegrityError, match="n x p"):
        Dataset(**{**args, "x": np.zeros(2)})
    with pytest.raises(IntegrityError, match="one entry per row"):
        Dataset(**{**args, "bag": ["b1"]})
    with pytest.raises(IntegrityError, match=r"row 2: bag 'b1' labelled both 'good' and 'bad'"):
        Dataset(**{**args, "label": ["good", "bad"]})
    with pytest.raises(ParseError, match="instance 'b': non-finite"):
        Dataset(**{**args, "x": np.array([[0.0], [np.inf]])})
    with pytest.raises(IntegrityError, match="at least 2 instances"):
        Dataset(**{name: value[:1] for name, value in args.items() if name != "strong_label"}, strong_label="good")
    with pytest.raises(IntegrityError, match="strong label 'bad'"):
        Dataset(**{**args, "strong_label": "bad"})


def test_dataset_labels_order_strong_first():
    ds = build_dataset(
        [("b1", "mid", [[0.0]]), ("b2", "aaa", [[1.0]]), ("b3", "zzz", [[2.0]])],
        strong="mid",
    )
    assert ds.labels == ("mid", "aaa", "zzz")


def test_standardize_two_point_column():
    ds = build_dataset([("b1", "good", [[1.0], [3.0]])], strong="good")
    out = standardize(ds).x
    # (1, 3) has mean 2 and sample sd sqrt(2)
    assert out[0, 0] == pytest.approx(-0.7071067811865475, abs=1e-15)
    assert out[1, 0] == pytest.approx(0.7071067811865475, abs=1e-15)


def test_standardize_constant_column_warns_not_raises():
    ds = build_dataset([("b1", "good", [[5.0, 1.0], [5.0, 2.0]])], strong="good")
    out = standardize(ds)
    assert np.all(out.x[:, 0] == 0.0)
    assert any("constant" in w for w in out.warnings)


def test_standardize_maps_a_constant_column_with_nonzero_sd_to_zeros():
    # 890 rows of 0.3 have a rounded sd of 5.55e-17, not 0
    x = np.column_stack([np.full(890, 0.3), np.arange(890.0)])
    assert x[:, 0].std(ddof=1) > 0.0
    ds = build_dataset([("b1", "good", x.tolist())], strong="good")
    out = standardize(ds)
    assert np.all(out.x[:, 0] == 0.0)
    assert out.warnings == ("constant feature column 0 mapped to zeros",)


@given(st.integers(0, 2**31 - 1), st.integers(2, 3000), st.integers(1, 19))
@settings(deadline=None)
def test_standardize_keeps_the_bits_of_the_original_formula(seed, n, p):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p)) * rng.uniform(0.01, 100.0, size=p) + rng.uniform(-50.0, 50.0, size=p)
    # some columns all equal, with values whose rounded sd is not 0
    x[:, rng.random(p) < 0.3] = rng.choice([0.3, -0.3, 7.1])
    ds = build_dataset([("b1", "good", x.tolist())], strong="good")
    want, constant = standardize_reference(ds.x)
    out = standardize(ds)
    assert out.x.tobytes() == want.tobytes()  # +0.0 and -0.0 differ here
    assert out.warnings == tuple(f"constant feature column {j} mapped to zeros" for j in np.flatnonzero(constant))


def test_zscore_gives_a_constant_column_sd_one_and_zero_on_every_row():
    # 890 rows of 0.3 have a rounded sd of 5.55e-17, not 0; the rows of
    # weight 0 hold other values, negative ones among them
    x = np.column_stack([np.full(900, 0.3), np.arange(900.0)])
    x[890:, 0] = np.linspace(-5.0, 5.0, 10)
    weights = (np.arange(900) < 890).astype(float)[None]
    assert x[:890, 0].std(ddof=1) > 0.0
    mean, sd, z, constant = zscore(x, weights, x[:890].sum(axis=0)[None])
    assert constant.tolist() == [[True, False]]
    assert sd[0, 0] == 1.0
    assert sd[0, 1] == x[:890, 1].std(ddof=1)
    assert mean[0, 1] == x[:890, 1].mean()
    assert not np.signbit(z[0, :, 0]).any() and not z[0, :, 0].any()
    assert np.array_equal(z[0, :, 1], (x[:, 1] - mean[0, 1]) / sd[0, 1])


@st.composite
def zscore_cases(draw):
    """x (n, p) whose columns are each normal, constant, or of two values
    that a fold's weighted rows may all share, and weights (folds, n) of 0
    and 1 with at least two rows of weight 1 per fold."""
    folds, n, p = draw(st.integers(1, 4)), draw(st.integers(2, 12)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    x = rng.normal(size=(n, p))
    kinds = rng.integers(0, 3, size=p)
    x[:, kinds == 1] = 0.3
    x[:, kinds == 2] = rng.choice([-0.3, 7.1], size=(n, int((kinds == 2).sum())), p=[0.8, 0.2])
    weights = (rng.random((folds, n)) < draw(st.floats(0.0, 1.0))).astype(float)
    for row in weights:
        row[rng.choice(n, size=2, replace=False)] = 1.0
    return x, weights


@given(zscore_cases())
@example(case=(np.array([[0.3], [0.3], [-1.0]]), np.array([[1.0, 1.0, 0.0]])))
@example(case=(np.array([[0.3, 1.0], [0.3, 2.0], [0.3, 1.0]]), np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 1.0]])))
def test_zscore_constant_columns_match_the_rows_axis_test(case):
    x, weights = case
    *_, constant = zscore(x, weights, weights @ x)
    assert np.array_equal(constant, constant_columns_reference(x, weights))


@given(st.integers(0, 2**31 - 1))
def test_standardize_is_idempotent(seed):
    rng = np.random.default_rng(seed)
    ds = build_dataset(
        [("b1", "good", rng.normal(size=(6, 3)).tolist())], strong="good"
    )
    once = standardize(ds).x
    twice = standardize(standardize(ds)).x
    assert np.max(np.abs(once - twice)) < 1e-10


def test_pairwise_345_triangle():
    pts = np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 4.0]])
    d = pairwise_distances(pts).d
    assert d[0, 1] == 3.0
    assert d[1, 2] == 4.0
    assert d[0, 2] == 5.0


@given(st.integers(0, 2**31 - 1), st.integers(2, 12), st.integers(1, 4))
def test_pairwise_matches_brute_force(seed, n, p):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, p))
    d = pairwise_distances(pts).d
    for i in range(n):
        for j in range(n):
            ref = np.sqrt(np.sum((pts[i] - pts[j]) ** 2))
            assert abs(d[i, j] - ref) < 1e-12


@given(st.integers(0, 2**31 - 1))
def test_pairwise_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-50, 50, size=(8, 3))
    d = pairwise_distances(pts).d
    for i in range(8):
        for j in range(8):
            for k in range(8):
                assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


@st.composite
def awkward_points(draw):
    n = draw(st.integers(2, 25))
    p = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    kind = draw(st.sampled_from(["duplicates", "integer_grid", "mixed_magnitudes"]))
    if kind == "duplicates":
        pool = rng.normal(size=(max(1, n // 3), p))
        return pool[rng.integers(0, pool.shape[0], size=n)]
    if kind == "integer_grid":
        return rng.integers(-3, 4, size=(n, p)).astype(float)
    return rng.normal(size=(n, p)) * 10.0 ** rng.integers(-8, 9, size=(n, p))


@given(awkward_points())
def test_pairwise_distances_bitwise_symmetric(pts):
    d = pairwise_distances(pts).d
    assert d.tobytes() == np.ascontiguousarray(d.T).tobytes()


@st.composite
def cdist_cases(draw):
    """Points with n in 2-40, p in 1-64, column scales 10**-160 to 10**160
    (a square overflows past a difference of about 1.3e154, and underflows
    below about 1e-162) and some rows duplicated, and a row block size from
    one row up."""
    n = draw(st.integers(2, 40))
    p = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    pts = rng.normal(size=(n, p)) * 10.0 ** rng.uniform(-160.0, 160.0, size=p)
    copies = rng.integers(0, n, size=draw(st.integers(0, n // 2)))
    pts[rng.integers(0, n, size=len(copies))] = pts[copies]
    return pts, draw(st.sampled_from([8, 8 * n * 3 + 1, dataset.ROW_BLOCK_BYTES]))


@given(cdist_cases())
@settings(max_examples=300)
@example(case=(np.array([[1e-160, 3.0], [-2e-160, 3.0], [1e-160, 3.0]]), 8))
@example(case=(np.array([[0.0, 1e155], [1.0, -1e155]]), 8))
def test_pairwise_distances_have_the_bits_of_cdist(case):
    pts, block_bytes = case
    want = cdist(pts, pts)
    np.fill_diagonal(want, 0.0)
    with mock.patch.object(dataset, "ROW_BLOCK_BYTES", block_bytes):
        if np.isfinite(want).all():
            assert pairwise_distances(pts).d.tobytes() == want.tobytes()
        else:  # an overflowed square
            with pytest.raises(IntegrityError, match="distance matrix entries must be finite"):
                pairwise_distances(pts)


MATRIX_DEFECTS = {
    "non-square": (np.zeros((2, 3)), "must be square"),
    "asymmetric": (np.array([[0.0, 1.0], [2.0, 0.0]]), "is not exactly symmetric"),
    "nonzero-diagonal": (np.array([[0.5, 1.0], [1.0, 0.0]]), "diagonal must be exactly zero"),
    "nan": (np.array([[0.0, np.nan], [np.nan, 0.0]]), "entries must be finite and nonnegative"),
    "negative": (np.array([[0.0, -1.0], [-1.0, 0.0]]), "entries must be finite and nonnegative"),
}
CHECKED_MATRICES = {
    "distance matrix": DistanceMatrix,
    "weight matrix": lambda w: SimilarityGraph(w=w, model="epsilon", params=GraphParams(epsilon=1.0)),
}


@pytest.mark.parametrize("defect", sorted(MATRIX_DEFECTS))
@pytest.mark.parametrize("name", sorted(CHECKED_MATRICES))
def test_matrix_validation_names_the_matrix_and_its_defect(name, defect):
    """Distances and dense graph weights go through one validator
    (dataset.checked_matrix), so both reject the same defects, each error
    naming its matrix."""
    matrix, message = MATRIX_DEFECTS[defect]
    with pytest.raises(IntegrityError, match=f"^{name} {message}"):
        CHECKED_MATRICES[name](matrix)


def test_dataset_columns_read_only():
    source = np.array([[1.0, 2.0], [3.0, 4.0]])
    ds = build_dataset([("b1", "good", source)], strong="good")
    source[0, 0] = 9.0  # the dataset holds its own copy
    assert ds.x[0, 0] == 1.0
    for column in (ds.x, ds.ids, ds.bag, ds.label):
        with pytest.raises(ValueError):
            column[0] = column[1]
