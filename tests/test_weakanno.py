import numpy as np
import pytest

from spectralweak import weakanno
from spectralweak.errors import (
    AnnotationError,
    DegenerateGroupingError,
    EmptySelectionError,
    ParameterError,
    SchemaError,
)
from spectralweak.simgraph import GraphParams, GraphSpec
from spectralweak.spectral import Grouping
from spectralweak.weakanno import (
    AnnotatedTrainingSet,
    SynthBagsConfig,
    annotate_groups,
    build_training_set,
    collect_unlabelled,
    read_training_csv,
    synth_bags,
    weak_agreement,
    write_training_csv,
)

from helpers import build_dataset

ANNOTATION_SPEC = GraphSpec("knn_symmetric", GraphParams(k=10))
SMALL_SYNTH = dict(bags_per_class=8, disordered_bag_size=(10, 14))


# ---------------------------------------------------------------------------
# pooling

def pooled_dataset():
    return build_dataset(
        [
            ("good0", "ok", [(0.0, 0.0), (0.1, 0.0)]),
            ("sick1", "flu", [(5.0, 5.0), (5.1, 5.0)]),
            ("sick0", "flu", [(4.9, 5.0)]),
        ],
        strong="ok",
    )


def test_collect_unlabelled_sorted_union():
    ds = pooled_dataset()
    rows = collect_unlabelled(ds, "flu")
    assert rows.tolist() == [2, 3, 4]
    # ids sort as strings, not in file order
    ds = build_dataset([("good0", "ok", [(0.0,)]), ("sick0", "flu", [(1.0,)] * 11)], strong="ok")
    ds = type(ds)(x=ds.x, ids=[f"i{i}" for i in range(12)], bag=ds.bag, label=ds.label, strong_label="ok")
    rows = collect_unlabelled(ds, "flu")
    assert ds.ids[rows].tolist() == ["i1", "i10", "i11", *(f"i{i}" for i in range(2, 10))]


def test_collect_unlabelled_rejects_strong_label():
    with pytest.raises(ParameterError):
        collect_unlabelled(pooled_dataset(), "ok")


def test_collect_unlabelled_unknown_label():
    with pytest.raises(EmptySelectionError):
        collect_unlabelled(pooled_dataset(), "cold")


# ---------------------------------------------------------------------------
# group-to-label mapping

def test_smaller_group_takes_strong_label():
    assignments = np.array([0] * 3 + [1] * 7)
    points = np.zeros((10, 2))
    labels, audit = annotate_groups(points, Grouping(assignments, 2), "flu", "ok", np.zeros(2))
    assert labels == ("ok",) * 3 + ("flu",) * 7
    assert audit["disordered_group"] == 1
    assert audit["disordered_share"] == pytest.approx(0.7)
    assert audit["tie_broken_by_centroid"] is False
    assert audit["sizes"] == [3, 7]
    assert audit["bag_label"] == "flu"


def test_size_tie_farther_group_is_disordered():
    points = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
    grouping = Grouping(np.array([0, 0, 1, 1]), 2)
    near_first = np.array([0.0, 0.5])
    labels, audit = annotate_groups(points, grouping, "flu", "ok", strong_centroid=near_first)
    assert labels == ("ok", "ok", "flu", "flu")
    assert audit["tie_broken_by_centroid"] is True
    # flip the reference point and the roles swap
    labels, _ = annotate_groups(points, grouping, "flu", "ok", strong_centroid=np.array([10.0, 0.5]))
    assert labels == ("flu", "flu", "ok", "ok")


def test_double_tie_prefers_group_one():
    points = np.array([[-1.0], [-1.0], [1.0], [1.0]])
    grouping = Grouping(np.array([0, 0, 1, 1]), 2)
    labels, audit = annotate_groups(points, grouping, "flu", "ok", strong_centroid=np.array([0.0]))
    assert audit["disordered_group"] == 1
    assert labels == ("ok", "ok", "flu", "flu")


def test_empty_group_rejected():
    with pytest.raises(DegenerateGroupingError):
        annotate_groups(np.zeros((2, 1)), Grouping(np.array([0, 0]), 2), "flu", "ok", np.zeros(1))


def test_three_groups_rejected():
    with pytest.raises(ParameterError):
        annotate_groups(np.zeros((3, 1)), Grouping(np.array([0, 1, 2]), 3), "flu", "ok", np.zeros(1))


# ---------------------------------------------------------------------------
# synthetic bags

def test_synth_config_validation():
    with pytest.raises(ParameterError):
        SynthBagsConfig(mix=0.5)
    with pytest.raises(ParameterError):
        SynthBagsConfig(mix=1.0)
    with pytest.raises(ParameterError):
        SynthBagsConfig(n_features=1)
    with pytest.raises(ParameterError):
        SynthBagsConfig(separation=0.0)


def test_synth_bags_reproducible_and_shaped():
    cfg = SynthBagsConfig(seed=4, **SMALL_SYNTH)
    a = synth_bags(cfg)
    b = synth_bags(cfg)
    assert a.truth == b.truth
    assert np.array_equal(a.dataset.x, b.dataset.x)

    ds = a.dataset
    assert len(ds.bag_ids) == cfg.bags_per_class * (1 + len(cfg.disordered_labels))
    assert list(a.truth) == ds.ids.tolist()
    for bag_id in ds.bag_ids:
        members = ds.bag == bag_id
        (label,) = set(ds.label[members])
        lo, hi = cfg.strong_bag_size if label == cfg.strong_label else cfg.disordered_bag_size
        assert lo <= members.sum() <= hi
        sources = {a.truth[m] for m in ds.ids[members]}
        if label == cfg.strong_label:
            assert sources == {cfg.strong_label}
        else:
            assert sources <= {cfg.strong_label, label}


def test_disordered_bags_lean_disordered():
    sb = synth_bags(SynthBagsConfig(seed=0, bags_per_class=30))
    own = sum(1 for iid, lab in sb.truth.items() if lab != "normal")
    disordered_total = int((sb.dataset.label != "normal").sum())
    assert own / disordered_total == pytest.approx(sb.config.mix, abs=0.05)


# ---------------------------------------------------------------------------
# full annotation pass

def test_training_set_counts_and_provenance():
    sb = synth_bags(SynthBagsConfig(seed=1, **SMALL_SYNTH))
    ts = build_training_set(sb.dataset, ANNOTATION_SPEC, seed=1)
    summary = ts.summary()
    n_strong = int((sb.dataset.label == "normal").sum())
    assert summary["n_entries"] == sb.dataset.n
    assert summary["per_provenance"]["strong"] == n_strong
    assert summary["per_provenance"]["weak"] == summary["n_entries"] - n_strong
    assert summary["source"]["graph_model"] == "knn_symmetric"
    assert set(summary["group_sizes"]) == {"myopathic", "neurogenic"}

    assert np.array_equal(ts.ids, sb.dataset.ids)
    for label, provenance, bag_label in zip(ts.labels, ts.provenance, sb.dataset.label):
        if provenance == "strong":
            assert label == "normal"
            assert bag_label == "normal"
        else:
            assert label in ("normal", bag_label)


def test_training_set_deterministic():
    sb = synth_bags(SynthBagsConfig(seed=2, **SMALL_SYNTH))
    a = build_training_set(sb.dataset, ANNOTATION_SPEC, seed=7)
    b = build_training_set(sb.dataset, ANNOTATION_SPEC, seed=7)
    for column in ("ids", "labels", "provenance"):
        assert np.array_equal(getattr(a, column), getattr(b, column))


@pytest.mark.parametrize("seed", range(5))
def test_weak_labels_mostly_match_planted_truth(seed):
    sb = synth_bags(SynthBagsConfig(seed=seed, **SMALL_SYNTH))
    ts = build_training_set(sb.dataset, ANNOTATION_SPEC, seed=seed)
    assert weak_agreement(ts, sb.truth) >= 0.9


def test_annotation_errors_name_the_bag_label():
    ds = build_dataset(
        [
            ("good0", "ok", [(0.0, 0.0), (1.0, 1.0), (2.0, 0.5)]),
            ("dup0", "dup", [(5.0, 5.0), (6.0, 5.0)]),
        ],
        strong="ok",
    )
    # a 2-instance pool cannot satisfy k=10 nearest neighbours
    with pytest.raises(ParameterError, match="annotating bag label 'dup'") as info:
        build_training_set(ds, ANNOTATION_SPEC, seed=0)
    assert isinstance(info.value.__cause__, ParameterError)


class TwoArgumentError(Exception):
    """Foreign exception whose constructor cannot take a message alone."""

    def __init__(self, message, detail):
        super().__init__(message, detail)


def test_foreign_annotation_errors_become_annotation_error(monkeypatch):
    sb = synth_bags(SynthBagsConfig(seed=0, **SMALL_SYNTH))
    original = TwoArgumentError("solver gave up", 42)

    def failing_grouping(*args, **kwargs):
        raise original

    monkeypatch.setattr(weakanno, "spectral_grouping", failing_grouping)
    with pytest.raises(AnnotationError, match="annotating bag label 'myopathic': TwoArgumentError") as info:
        build_training_set(sb.dataset, ANNOTATION_SPEC, seed=0)
    assert info.value.__cause__ is original


def test_weak_agreement_requires_weak_entries():
    ts = AnnotatedTrainingSet(ids=["i0"], labels=["ok"], provenance=["strong"])
    with pytest.raises(EmptySelectionError):
        weak_agreement(ts, {"i0": "ok"})


def test_training_csv_roundtrip(tmp_path):
    sb = synth_bags(SynthBagsConfig(seed=3, **SMALL_SYNTH))
    ts = build_training_set(sb.dataset, ANNOTATION_SPEC, seed=3)
    path = tmp_path / "train.csv"
    write_training_csv(ts, path)
    back = read_training_csv(path)
    for column in ("ids", "labels", "provenance"):
        assert np.array_equal(getattr(back, column), getattr(ts, column))
    header = path.read_text().splitlines()[0]
    assert header == "instance_id,label,provenance"


def test_training_set_validation():
    with pytest.raises(ParameterError, match="provenance must be one of"):
        AnnotatedTrainingSet(ids=["i0"], labels=["ok"], provenance=["guess"])
    with pytest.raises(ParameterError, match="same length"):
        AnnotatedTrainingSet(ids=["i0", "i1"], labels=["ok"], provenance=["strong"])


@pytest.mark.parametrize("column", ["instance_id", "label", "provenance"])
def test_read_training_csv_names_missing_column(tmp_path, column):
    path = tmp_path / "train.csv"
    header = ",".join(c for c in ("instance_id", "label", "provenance") if c != column)
    path.write_text(header + "\ni0,ok\n")
    with pytest.raises(SchemaError, match=rf"{path}: missing columns \['{column}'\]"):
        read_training_csv(path)
