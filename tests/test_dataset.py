import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import build_dataset
from spectralweak.dataset import (
    Bag,
    CsvSchema,
    Dataset,
    DistanceMatrix,
    Instance,
    load_csv,
    pairwise_distances,
    standardize,
)
from spectralweak.errors import IntegrityError, ParseError, SchemaError

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
    assert [i.id for i in ds.instances] == ["a", "b", "c"]
    assert ds.bag_of["c"].label == "bad"
    assert np.array_equal(ds.feature_matrix()[1], [2.0, 3.0])
    assert ds.strong_label == "good"


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
    i = Instance(id="a", features=np.array([0.0]))
    j = Instance(id="a", features=np.array([1.0]))
    with pytest.raises(IntegrityError, match="duplicate"):
        Dataset(
            instances=(i, j),
            bags=(Bag("b", "good", ("a",)),),
            strong_label="good",
        )


def test_dataset_requires_every_instance_in_one_bag():
    ds_args = dict(
        instances=(
            Instance("a", np.array([0.0])),
            Instance("b", np.array([1.0])),
        ),
        strong_label="good",
    )
    with pytest.raises(IntegrityError):
        Dataset(bags=(Bag("b1", "good", ("a",)),), **ds_args)
    with pytest.raises(IntegrityError):
        Dataset(
            bags=(Bag("b1", "good", ("a", "b")), Bag("b2", "bad", ("b",))),
            **ds_args,
        )


def test_dataset_labels_order_strong_first():
    ds = build_dataset(
        [("b1", "mid", [[0.0]]), ("b2", "aaa", [[1.0]]), ("b3", "zzz", [[2.0]])],
        strong="mid",
    )
    assert ds.labels == ("mid", "aaa", "zzz")


def test_standardize_two_point_column():
    ds = build_dataset([("b1", "good", [[1.0], [3.0]])], strong="good")
    out = standardize(ds).feature_matrix()
    # (1, 3) has mean 2 and sample sd sqrt(2)
    assert out[0, 0] == pytest.approx(-0.7071067811865475, abs=1e-15)
    assert out[1, 0] == pytest.approx(0.7071067811865475, abs=1e-15)


def test_standardize_constant_column_warns_not_raises():
    ds = build_dataset([("b1", "good", [[5.0, 1.0], [5.0, 2.0]])], strong="good")
    out = standardize(ds)
    assert np.all(out.feature_matrix()[:, 0] == 0.0)
    assert any("constant" in w for w in out.warnings)


@given(st.integers(0, 2**31 - 1))
def test_standardize_is_idempotent(seed):
    rng = np.random.default_rng(seed)
    ds = build_dataset(
        [("b1", "good", rng.normal(size=(6, 3)).tolist())], strong="good"
    )
    once = standardize(ds).feature_matrix()
    twice = standardize(standardize(ds)).feature_matrix()
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


def test_distance_matrix_validation():
    with pytest.raises(IntegrityError):
        DistanceMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
    with pytest.raises(IntegrityError):
        DistanceMatrix(np.array([[0.5, 1.0], [1.0, 0.0]]))  # nonzero diagonal
    with pytest.raises(IntegrityError):
        DistanceMatrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))  # negative


def test_instance_features_read_only():
    inst = Instance("a", np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        inst.features[0] = 9.0
