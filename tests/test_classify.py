import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats
from scipy.spatial.distance import cdist
from hypothesis import given, settings, strategies as st

from spectralweak import classify
from spectralweak.bench import SYNTH_ANNOTATION_GRAPH
from spectralweak.dataset import zscore
from spectralweak.classify import (
    HEAVY_RIDGE,
    KNN_GRID,
    L2,
    RIDGE,
    TOL,
    AggregationRule,
    KnnModel,
    LogisticModel,
    fully_supervised_baseline,
    leave_one_bag_out_cv,
    predict,
    predict_proba,
    train,
    train_knn,
    train_logistic,
    train_qda,
)
from spectralweak.errors import NumericalError, ParameterError, TrainingError
from spectralweak.simgraph import nearest_columns
from spectralweak.weakanno import AnnotatedTrainingSet, SynthBagsConfig, build_training_set, synth_bags

from helpers import (
    build_dataset,
    gradient_reference_at,
    knn_predict_reference,
    lobo_knn_sweep_reference,
    lobo_logistic_cold_reference,
    stacked_gradient,
    stacked_hessian,
    stacked_objective,
    train_logistic_reference,
    two_blobs,
)


# ---------------------------------------------------------------------------
# logistic regression

def test_logistic_separates_blobs():
    x, labels = two_blobs(n_per=15, gap=6.0, seed=0)
    y = np.where(labels == 0, "a", "b")
    model = train_logistic(x, y)
    assert model.converged
    assert np.all(predict(model, x) == y)


def test_logistic_constant_features_recover_priors():
    x = np.zeros((60, 1))
    y = np.asarray(["a"] * 40 + ["b"] * 20)
    model = train_logistic(x, y)
    probs = predict_proba(model, np.zeros((1, 1)))[0]
    assert probs[0] == pytest.approx(2.0 / 3.0, abs=1e-3)
    assert probs[1] == pytest.approx(1.0 / 3.0, abs=1e-3)


def test_logistic_gradient_small_at_fit():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 3))
    y = np.asarray(["a", "b", "c"] * 13 + ["a"])
    model = train_logistic(x, y)
    grad = gradient_reference_at(model, x, y, L2)
    assert np.linalg.norm(grad.ravel()) / x.shape[0] <= TOL


def random_logistic_problem():
    """25 rows of 2 features in classes a, b, c, and parameters (2, 3) with
    the intercept column last."""
    rng = np.random.default_rng(7)
    x = rng.normal(size=(25, 2))
    y = rng.choice(["a", "b", "c"], size=25)
    coef = rng.normal(scale=0.5, size=(2, 2))
    intercept = rng.normal(scale=0.5, size=2)
    return np.column_stack([coef, intercept]), x, y


def test_logistic_gradient_matches_finite_differences():
    # the gradient the Newton core steps on, against its own objective
    theta, x, y = random_logistic_problem()
    l2 = 1e-2
    grad = stacked_gradient(theta, x, y, ("a", "b", "c"), l2)
    h = 1e-6
    for e, want in zip(h * np.eye(theta.size), grad.ravel()):
        up = stacked_objective(theta + e.reshape(theta.shape), x, y, ("a", "b", "c"), l2)
        dn = stacked_objective(theta - e.reshape(theta.shape), x, y, ("a", "b", "c"), l2)
        assert (up - dn) / (2 * h) == pytest.approx(want, rel=1e-5, abs=1e-8)


def test_logistic_hessian_matches_finite_differences():
    # the Hessian the Newton core steps on, against its own gradient
    theta, x, y = random_logistic_problem()
    l2 = 1e-2
    hess = stacked_hessian(theta, x, y, ("a", "b", "c"), l2)
    h = 1e-6
    for e, want in zip(h * np.eye(theta.size), hess.T):
        up = stacked_gradient(theta + e.reshape(theta.shape), x, y, ("a", "b", "c"), l2)
        dn = stacked_gradient(theta - e.reshape(theta.shape), x, y, ("a", "b", "c"), l2)
        np.testing.assert_allclose((up - dn).ravel() / (2 * h), want, rtol=1e-5, atol=1e-8)


def test_logistic_warns_when_underdetermined():
    x = np.random.default_rng(0).normal(size=(3, 5))
    y = np.asarray(["a", "b", "a"])
    with pytest.warns(UserWarning, match="n=3 <= p=5"):
        train_logistic(x, y)


def test_logistic_reference_class_is_last_sorted():
    x, labels = two_blobs(n_per=10, gap=5.0, seed=1)
    y = np.where(labels == 0, "zed", "ant")
    model = train_logistic(x, y)
    assert model.classes == ("ant", "zed")
    assert model.coef.shape == (1, 2)


@st.composite
def logistic_cases(draw, classes):
    """Gaussian rows whose class means are shifted by a drawn gap, so fits
    range from overlapping to nearly separable classes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n = draw(st.integers(classes + 1, 60))
    p = draw(st.integers(1, 5))
    codes = np.concatenate([np.arange(classes), rng.integers(0, classes, size=n - classes)])
    centres = rng.normal(scale=draw(st.floats(0.0, 4.0)), size=(classes, p))
    x = centres[codes] + rng.normal(size=(n, p)) * draw(st.floats(0.1, 3.0))
    return x, np.asarray([f"k{c}" for c in codes], dtype=object)


@given(st.one_of(logistic_cases(3), logistic_cases(4)))
@settings(max_examples=60, deadline=None)
def test_logistic_mirrored_hessian_matches_four_block_reference(case):
    x, y = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got, want = train_logistic(x, y), train_logistic_reference(x, y)
    assert np.array_equal(got.coef, want.coef)
    assert np.array_equal(got.intercept, want.intercept)
    assert (got.n_iter, got.converged) == (want.n_iter, want.converged)


@pytest.mark.parametrize("classes", [2, 8, 9])
def test_logistic_keeps_the_reference_bits_at_2_and_8_or_more_classes(classes):
    # from 8 classes numpy's row sum of the softmax is pairwise, not in order
    rng = np.random.default_rng(classes)
    codes = np.concatenate([np.arange(classes), rng.integers(0, classes, size=150)])
    x = rng.normal(scale=2.0, size=(classes, 3))[codes] + rng.normal(size=(codes.size, 3))
    y = np.asarray([f"k{c:02d}" for c in codes], dtype=object)
    got, want = train_logistic(x, y), train_logistic_reference(x, y)
    assert np.array_equal(got.coef, want.coef)
    assert np.array_equal(got.intercept, want.intercept)
    assert (got.n_iter, got.converged) == (want.n_iter, want.converged)


# ---------------------------------------------------------------------------
# QDA

def test_qda_moments_match_hand_formula():
    x = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0],
                  [10.0, 10.0], [12.0, 10.0], [10.0, 12.0]])
    y = np.asarray(["a"] * 4 + ["b"] * 3)
    model = train_qda(x, y)
    assert model.classes == ("a", "b")
    assert np.allclose(model.means[0], [1.0, 1.0])
    rows = x[:4]
    centred = rows - rows.mean(axis=0)
    cov = centred.T @ centred / 4
    scale = np.trace(cov) / 2
    assert np.allclose(model.covariances[0], cov + RIDGE * scale * np.eye(2), atol=1e-15)
    assert np.allclose(model.priors, [4 / 7, 3 / 7])


def test_qda_scores_match_scipy_log_density():
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.normal(0, 1, (30, 3)), rng.normal(3, 2, (25, 3))])
    y = np.asarray(["a"] * 30 + ["b"] * 25)
    model = train_qda(x, y)
    queries = rng.normal(1, 2, (10, 3))
    probs = predict_proba(model, queries)
    for ci in range(2):
        dist = scipy.stats.multivariate_normal(model.means[ci], model.covariances[ci])
        expected = np.log(model.priors[ci]) + dist.logpdf(queries)
        # re-derive the joint score from the returned posterior
        joint = np.log(probs[:, ci]) + np.log(
            np.exp(scipy.stats.multivariate_normal(model.means[0], model.covariances[0]).logpdf(queries)) * model.priors[0]
            + np.exp(scipy.stats.multivariate_normal(model.means[1], model.covariances[1]).logpdf(queries)) * model.priors[1]
        )
        assert np.max(np.abs(joint - expected)) < 1e-9


def test_qda_equal_covariance_boundary_at_midpoint():
    base = np.array([[0.0, 1.0], [0.0, -1.0], [1.0, 0.0], [-1.0, 0.0], [0.5, 0.5]])
    x = np.concatenate([base, base + [6.0, 0.0]])
    y = np.asarray(["a"] * 5 + ["b"] * 5)
    model = train_qda(x, y)
    midpoint = (model.means[0] + model.means[1]) / 2
    from spectralweak.classify import qda_scores

    scores = qda_scores(model, midpoint[None, :])[0]
    assert scores[0] == pytest.approx(scores[1], abs=1e-9)
    assert predict(model, midpoint[None, :] + [[-0.1, 0.0]])[0] == "a"
    assert predict(model, midpoint[None, :] + [[0.1, 0.0]])[0] == "b"


def test_qda_same_shape_tie_goes_to_higher_prior():
    base = np.array([[0.0, 1.0], [0.0, -1.0], [1.0, 0.0], [-1.0, 0.0]])
    x = np.concatenate([base, base, base])
    y = np.asarray(["a"] * 8 + ["b"] * 4)
    model = train_qda(x, y)
    queries = np.random.default_rng(2).normal(size=(20, 2))
    assert np.all(predict(model, queries) == "a")


def test_qda_single_sample_class_rejected():
    x = np.array([[0.0], [1.0], [5.0]])
    y = np.asarray(["a", "a", "b"])
    with pytest.raises(TrainingError, match="'b' has 1 sample"):
        train_qda(x, y)


def test_qda_small_class_gets_heavy_ridge():
    x = np.array([[0.0, 0.0], [1.0, 1.0], [5.0, 5.0], [6.0, 5.0], [5.0, 6.0]])
    y = np.asarray(["tiny", "tiny", "big", "big", "big"])
    model = train_qda(x, y)
    assert model.heavy_ridge_classes == ("tiny",)
    rows = x[:2]
    centred = rows - rows.mean(axis=0)
    cov = centred.T @ centred / 2
    scale = np.trace(cov) / 2
    tiny = model.classes.index("tiny")
    assert np.allclose(model.covariances[tiny], cov + HEAVY_RIDGE * scale * np.eye(2), atol=1e-15)


# ---------------------------------------------------------------------------
# k nearest neighbours

def test_knn_one_neighbour_memorizes():
    x, labels = two_blobs(n_per=8, gap=4.0, seed=3)
    y = np.where(labels == 0, "a", "b")
    model = train_knn(x, y, 1)
    assert np.all(predict(model, x) == y)


def test_knn_distance_tie_prefers_earlier_row():
    model = train_knn(np.array([[0.0], [2.0]]), np.asarray(["far", "near"]), 1)
    assert predict(model, np.array([[1.0]]))[0] == "far"


def test_knn_vote_tie_prefers_smaller_class_index():
    model = train_knn(np.array([[0.0], [2.0]]), np.asarray(["z", "a"]), 2)
    # one vote each; class order is ("a", "z")
    assert predict(model, np.array([[1.0]]))[0] == "a"


def test_knn_k_bounds():
    x = np.array([[0.0], [1.0]])
    y = np.asarray(["a", "b"])
    with pytest.raises(ParameterError):
        train_knn(x, y, 0)
    with pytest.raises(ParameterError):
        train_knn(x, y, 3)
    for ks in ([0, 1], [3], []):
        with pytest.raises(ParameterError, match=r"neighbour counts must lie in 1\.\.2"):
            predict(train_knn(x, y, 1), x, ks)


@st.composite
def knn_predict_cases(draw):
    """Training and query rows on a small integer grid, so distance ties and
    vote ties are common, with p from 1 to 19 and k from 1 to n."""
    seed = draw(st.integers(0, 2**31 - 1))
    n = draw(st.integers(1, 30))
    p = draw(st.integers(1, 19))
    n_classes = draw(st.integers(1, 4))
    rng = np.random.default_rng(seed)
    train_x = rng.integers(0, 3, size=(n, p)).astype(float)
    codes = rng.integers(0, n_classes, size=n)
    # object labels as LOBO folds pass them, numpy strings, or plain integers
    labels = draw(st.sampled_from([
        np.asarray(["c0", "c1", "c2", "c3"], dtype=object)[codes],
        np.asarray(["c0", "c1", "c2", "c3"])[codes],
        codes * 10,
    ]))
    k = draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
    queries = rng.integers(0, 3, size=(draw(st.integers(0, 12)), p)).astype(float)
    return train_x, labels, k, queries


@given(knn_predict_cases())
@settings(max_examples=200)
def test_knn_predict_matches_per_row_reference(case):
    train_x, labels, k, queries = case
    # built directly: train_knn wants two classes, the vote does not
    model = KnnModel(classes=tuple(sorted(set(labels.tolist()))), train_x=train_x, train_y=labels, k=k)
    got = predict(model, queries)
    assert got.dtype == object
    assert got.tolist() == knn_predict_reference(model, queries).tolist()


@given(knn_predict_cases(), st.data())
@settings(max_examples=200)
def test_knn_vote_matches_the_per_row_reference_at_every_k(case, data):
    train_x, labels, _, queries = case
    ks = data.draw(st.lists(st.integers(1, train_x.shape[0]), min_size=1, max_size=6))
    model = KnnModel(classes=tuple(sorted(set(labels.tolist()))), train_x=train_x, train_y=labels, k=max(ks))
    votes = classify._knn_vote(model, queries, np.asarray(ks))
    columns = predict(model, queries, ks)
    assert votes.shape == (len(ks), queries.shape[0])
    for i, (k, row) in enumerate(zip(ks, votes)):
        want = knn_predict_reference(replace(model, k=k), queries)
        assert np.asarray(model.classes, dtype=object)[row].tolist() == want.tolist()
        assert columns[:, i].tolist() == want.tolist()


@given(st.integers(0, 2**31 - 1), st.integers(1, 40), st.integers(1, 7), st.integers(0, 12))
@settings(max_examples=150)
def test_knn_vote_on_real_rows_matches_the_per_row_reference_at_every_k(seed, n, p, rows):
    # below 8 columns numpy's norm sums in order, as cdist does
    rng = np.random.default_rng(seed)
    train_x = rng.normal(size=(n, p)) * rng.uniform(0.01, 100.0, size=p)
    labels = np.asarray(["c0", "c1", "c2"], dtype=object)[rng.integers(0, 3, size=n)]
    queries = rng.normal(size=(rows, p)) * 10.0
    ks = np.arange(1, n + 1)
    model = KnnModel(classes=tuple(sorted(set(labels.tolist()))), train_x=train_x, train_y=labels, k=n)
    columns = predict(model, queries, ks)
    for i, k in enumerate(ks):
        assert columns[:, i].tolist() == knn_predict_reference(replace(model, k=k), queries).tolist()


@pytest.mark.parametrize("p", [8, 19])
def test_knn_vote_ranks_by_cdist_distances(monkeypatch, p):
    rng = np.random.default_rng(p)
    model = train_knn(rng.normal(size=(300, p)), rng.choice(["a", "b"], size=300), 5)
    queries = rng.normal(size=(900, p))
    seen = []

    def recording(d, k):
        seen.append(d.copy())
        return nearest_columns(d, k)

    monkeypatch.setattr(classify, "nearest_columns", recording)
    predict(model, queries)
    # blocks of ROW_BLOCK_BYTES: 436 rows of 300 distances each
    assert [len(d) for d in seen] == [436, 436, 28]
    assert np.array_equal(np.concatenate(seen), cdist(queries, model.train_x))


def test_knn_predict_memory_is_blocked():
    rng = np.random.default_rng(0)
    model = train_knn(rng.normal(size=(2000, 5)), rng.choice(["a", "b", "c"], size=2000), 7)
    queries = rng.normal(size=(5000, 5))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        predict(model, queries)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # one unblocked query-by-training difference array alone is 400 MB
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_knn_has_no_probabilities():
    model = train_knn(np.array([[0.0], [1.0]]), np.asarray(["a", "b"]), 1)
    with pytest.raises(ParameterError):
        predict_proba(model, np.array([[0.5]]))


def test_predict_dimension_mismatch():
    x, labels = two_blobs(n_per=5, gap=4.0, seed=0)
    model = train_logistic(x, np.where(labels == 0, "a", "b"))
    with pytest.raises(ParameterError):
        predict(model, np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# aggregation

def test_majority_vote_and_disordered_tiebreak():
    rule = AggregationRule()
    assert rule.aggregate(np.asarray(["ok", "ok", "flu"]), "ok") == "ok"
    assert rule.aggregate(np.asarray(["ok", "flu"]), "ok") == "flu"
    assert rule.aggregate(np.asarray(["flu", "flu", "cold", "cold", "ok"]), "ok") == "cold"


def test_threshold_aggregation():
    rule = AggregationRule(mode="disordered_threshold", tau=0.3)
    assert rule.aggregate(np.asarray(["ok", "ok", "ok", "flu"]), "ok") == "ok"
    assert rule.aggregate(np.asarray(["ok", "ok", "flu", "flu"]), "ok") == "flu"
    all_strong = rule.aggregate(np.asarray(["ok", "ok"]), "ok")
    assert all_strong == "ok"


def test_aggregation_validation():
    with pytest.raises(ParameterError):
        AggregationRule(mode="mean")
    with pytest.raises(ParameterError):
        AggregationRule(tau=1.0)
    with pytest.raises(ParameterError):
        AggregationRule().aggregate(np.asarray([]), "ok")


# ---------------------------------------------------------------------------
# fully supervised baseline and cross-validation

def blob_bags(n_bags=6, per_bag=4, gap=6.0, seed=0):
    rng = np.random.default_rng(seed)
    bags = []
    for b in range(n_bags):
        label = "ok" if b % 2 == 0 else "flu"
        centre = (0.0, 0.0) if label == "ok" else (gap, gap)
        rows = [tuple(rng.normal(centre, 0.5)) for _ in range(per_bag)]
        bags.append((f"bag{b:02d}", label, rows))
    return build_dataset(bags, strong="ok")


def test_baseline_takes_bag_labels_verbatim():
    ds = blob_bags()
    ts = fully_supervised_baseline(ds)
    assert set(ts.provenance) == {"strong"}
    assert np.array_equal(ts.ids, ds.ids)
    assert np.array_equal(ts.labels, ds.label)


def test_lobo_fold_shape_and_accuracy():
    ds = blob_bags()
    result = leave_one_bag_out_cv(fully_supervised_baseline(ds), ds, "logistic")
    assert len(result.per_bag) == len(ds.bag_ids)
    assert [r.bag_id for r in result.per_bag] == sorted(set(ds.bag))
    assert result.accuracy == 1.0
    assert result.flagged_folds == ()
    assert result.confusion == {("ok", "ok"): 3, ("flu", "flu"): 3}
    payload = result.to_json_dict()
    assert payload["n_bags"] == 6
    assert payload["confusion"] == {"flu->flu": 3, "ok->ok": 3}


@pytest.mark.parametrize("kind, knn_k", [("logistic", None), ("knn", 5), ("qda", None)])
def test_lobo_fold_ignores_a_column_constant_on_its_training_side(kind, knn_k):
    base = blob_bags(n_bags=10, per_bag=90, gap=1.0)
    held = base.bag == "bag03"
    ds = replace(base, x=np.column_stack([base.x, np.where(held, 0.0, 0.3)]))
    # the column is constant on the fold's training side, yet its sd is not 0
    assert ds.x[~held, 2].std(ddof=1) > 0.0
    got = leave_one_bag_out_cv(fully_supervised_baseline(ds), ds, kind, knn_k=knn_k)
    want = leave_one_bag_out_cv(fully_supervised_baseline(base), base, kind, knn_k=knn_k)
    assert got.per_bag[3].bag_id == "bag03"
    assert got.per_bag[3] == want.per_bag[3]


def test_lobo_flags_single_class_folds():
    ds = build_dataset(
        [
            ("a0", "ok", [(0.0, 0.0), (0.5, 0.0)]),
            ("a1", "ok", [(0.2, 0.1), (0.4, 0.4)]),
            ("b0", "flu", [(5.0, 5.0), (5.5, 5.0)]),
        ],
        strong="ok",
    )
    result = leave_one_bag_out_cv(fully_supervised_baseline(ds), ds, "logistic")
    # holding out the only disordered bag leaves a one-class training fold
    assert result.flagged_folds == ("b0",)
    by_bag = {r.bag_id: r for r in result.per_bag}
    assert by_bag["b0"].predicted_label == "ok"


def test_lobo_flags_only_classes_the_dataset_uses():
    ds = blob_bags()
    base = fully_supervised_baseline(ds)
    # an entry for an id outside the dataset carries a class no fold can have
    extra = AnnotatedTrainingSet(
        ids=[*base.ids, "zzz"], labels=[*base.labels, "alien"], provenance=[*base.provenance, "weak"]
    )
    result = leave_one_bag_out_cv(extra, ds, "logistic")
    assert result.flagged_folds == ()
    assert result == leave_one_bag_out_cv(base, ds, "logistic")


def test_lobo_rejects_unknown_classifier_before_any_fold():
    # every fold of two differently labelled bags has one class, so no fold
    # ever reaches a classifier
    ds = build_dataset([("a0", "ok", [(0.0, 0.0)]), ("b0", "flu", [(5.0, 5.0)])], strong="ok")
    with pytest.raises(ParameterError, match="unknown classifier 'svm'; choose from logistic, qda, knn"):
        leave_one_bag_out_cv(fully_supervised_baseline(ds), ds, "svm")


def test_train_dispatches_by_name():
    x, labels = two_blobs(n_per=6, gap=4.0, seed=0)
    y = np.where(labels == 0, "a", "b")
    assert train("logistic", x, y).n_iter == train_logistic(x, y).n_iter
    assert np.array_equal(train("qda", x, y).covariances, train_qda(x, y).covariances)
    assert train("knn", x, y, knn_k=3).k == 3
    with pytest.raises(ParameterError, match="--knn-k is required"):
        train("knn", x, y)
    with pytest.raises(ParameterError, match="unknown classifier"):
        train("svm", x, y)


def test_lobo_selects_knn_neighbour_count():
    ds = blob_bags(n_bags=4, per_bag=3)
    result = leave_one_bag_out_cv(fully_supervised_baseline(ds), ds, "knn")
    assert result.chosen_knn_k in KNN_GRID
    fixed = leave_one_bag_out_cv(fully_supervised_baseline(ds), ds, "knn", knn_k=1)
    assert fixed.chosen_knn_k is None


@st.composite
def knn_bag_sets(draw):
    """2-12 bags of 1-4 rows over 2-3 labels, each row labelled with its
    bag's label or, at times, another one, and an aggregation rule of either
    mode. Features lie on a small integer grid, so distance and vote ties
    are common. Folds train on 1 to 47 rows, most on fewer than 25, and two
    bags of different labels leave folds with one class."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    names = ("a", "b", "c")[: draw(st.integers(2, 3))]
    bag_labels = draw(st.lists(st.sampled_from(names), min_size=2, max_size=12))
    p = draw(st.integers(1, 3))
    bags = [
        (f"b{b:02d}", label, rng.integers(0, 3, size=(int(rng.integers(1, 5)), p)).astype(float).tolist())
        for b, label in enumerate(bag_labels)
    ]
    ds = build_dataset(bags, strong=bag_labels[0])
    relabel = rng.random(ds.n) < draw(st.floats(0.0, 0.4))
    labels = np.where(relabel, rng.choice(names, size=ds.n), ds.label).astype(object)
    ts = AnnotatedTrainingSet(ids=ds.ids, labels=labels, provenance=["weak"] * ds.n)
    aggregation = draw(st.sampled_from([AggregationRule(), AggregationRule("disordered_threshold", 0.3)]))
    return ds, ts, aggregation


@given(knn_bag_sets())
@settings(max_examples=80, deadline=None)
def test_lobo_knn_sweep_matches_one_cv_per_count(case):
    ds, ts, aggregation = case
    got = leave_one_bag_out_cv(ts, ds, "knn", aggregation)
    want = lobo_knn_sweep_reference(ts, ds, aggregation)
    assert got.chosen_knn_k == want.chosen_knn_k
    assert got.to_json_dict() == want.to_json_dict()
    assert [r.predicted_label for r in got.per_bag] == [r.predicted_label for r in want.per_bag]


def test_lobo_knn_sweep_enters_the_cv_once(monkeypatch):
    ds = blob_bags(n_bags=4, per_bag=3)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[2])
        return leave_one_bag_out_cv(*args, **kwargs)

    monkeypatch.setattr(classify, "leave_one_bag_out_cv", counting)
    classify.leave_one_bag_out_cv(fully_supervised_baseline(ds), ds, "knn")
    assert calls == ["knn"]


def test_lobo_knn_sweep_ranks_each_fold_once(monkeypatch):
    # bags ok, flu, ok: the fold of the flu bag trains on one class and is
    # never ranked; the other two are ranked once for every count
    ds = blob_bags(n_bags=3, per_bag=3)
    calls = []
    vote = classify._knn_vote

    def counting(model, x, ks):
        calls.append(len(x))
        return vote(model, x, ks)

    monkeypatch.setattr(classify, "_knn_vote", counting)
    result = leave_one_bag_out_cv(fully_supervised_baseline(ds), ds, "knn")
    assert result.flagged_folds == ("bag01",)
    assert calls == [3, 3]


def test_lobo_input_validation():
    ds = blob_bags()
    with pytest.raises(ParameterError, match="unknown classifier"):
        leave_one_bag_out_cv(fully_supervised_baseline(ds), ds, "svm")
    single = build_dataset([("only", "ok", [(0.0, 0.0), (1.0, 1.0)])], strong="ok")
    with pytest.raises(ParameterError, match="at least 2 bags"):
        leave_one_bag_out_cv(fully_supervised_baseline(single), single, "logistic")
    partial = fully_supervised_baseline(ds)
    truncated = type(partial)(ids=partial.ids[:-1], labels=partial.labels[:-1], provenance=partial.provenance[:-1])
    with pytest.raises(ParameterError, match="lacks labels"):
        leave_one_bag_out_cv(truncated, ds, "logistic")


@given(logistic_cases(3), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_mapped_start_keeps_the_full_fit_scores(case, seed):
    x, y = case
    x = x * np.random.default_rng(seed).uniform(0.01, 100.0, size=x.shape[1]) + 7.0
    held = np.random.default_rng(seed).random(x.shape[0]) < 0.3
    held[:2] = False  # a fold keeps training rows
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        full = classify._full_logistic_fit(x, y)
    model, full_mean, full_sd, _ = full
    (mean,), (sd,), _, _ = zscore(x, (~held).astype(float)[None], x[~held].sum(axis=0)[None])
    start = classify._mapped_start(np.column_stack([model.coef, model.intercept]), full_mean, full_sd, mean, sd)
    mapped = LogisticModel(model.classes, start[:, :-1], start[:, -1], False, 0)
    np.testing.assert_allclose(
        predict_proba(mapped, (x - mean) / sd), predict_proba(model, (x - full_mean) / full_sd), rtol=1e-12
    )


HARD_REGIME = SynthBagsConfig(mix=0.6, separation=2.5, n_features=5)


def synth_training_sets(seed, config=SynthBagsConfig()):
    bags = synth_bags(replace(config, seed=seed))
    weak = build_training_set(bags.dataset, SYNTH_ANNOTATION_GRAPH, seed=seed)
    return bags.dataset, (weak, fully_supervised_baseline(bags.dataset))


def record_fold_models(monkeypatch):
    """The LogisticModel of every fold that reaches a fit, as the logistic
    folds hand it to predict: grouped by the classes the fold trains on, in
    bag order within a group (bag order when every fold has every class)."""
    models = []

    def recording(model, x):
        if isinstance(model, LogisticModel):
            models.append(model)
        return predict(model, x)

    monkeypatch.setattr(classify, "predict", recording)
    return models


def record_newton_starts(monkeypatch):
    """The start stack of every call of the Newton core, in call order."""
    starts = []
    newton = classify._newton

    def recording(x1, onehot, weights, theta):
        starts.append(np.array(theta))
        return newton(x1, onehot, weights, theta)

    monkeypatch.setattr(classify, "_newton", recording)
    return starts


def lobo_matches_cold_folds(monkeypatch, config, seeds):
    """Check leave_one_bag_out_cv against the cold fold loop on the weak and
    the baseline sets of each seed; the fold models' n_iter."""
    models = record_fold_models(monkeypatch)
    n_iter = []
    for seed in seeds:
        ds, training_sets = synth_training_sets(seed, config)
        for ts in training_sets:
            got = leave_one_bag_out_cv(ts, ds, "logistic").to_json_dict()
            n_iter += [model.n_iter for model in models]
            assert got == lobo_logistic_cold_reference(ts, ds).to_json_dict(), f"seed {seed}"
            models.clear()
    return n_iter


def test_lobo_warm_starts_match_cold_folds_on_table2synth(monkeypatch):
    # the condition the warm start lands on: identical results on every fold
    # of the weak and the baseline sets, seeds 0-19; the deletion-updated
    # starts leave at most 2 gradient checks per fold on average (2.83 from
    # the full fit alone)
    n_iter = lobo_matches_cold_folds(monkeypatch, SynthBagsConfig(), range(20))
    assert len(n_iter) == 2400
    assert np.mean(n_iter) <= 2.0


def test_lobo_warm_starts_match_cold_folds_in_the_hard_regime(monkeypatch):
    n_iter = lobo_matches_cold_folds(monkeypatch, HARD_REGIME, range(5))
    assert len(n_iter) == 600


@st.composite
def small_bag_sets(draw):
    """A few bags of 1-4 rows over 2-3 labels, each row labelled with its
    bag's label or, at times, another one. Labels held by one bag only leave
    folds that lack a class; two bags of different labels leave folds with
    one class. Features are continuous draws, so no held-out row sits on a
    decision boundary."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    names = ("a", "b", "c")[: draw(st.integers(2, 3))]
    bag_labels = draw(st.lists(st.sampled_from(names), min_size=2, max_size=7))
    p = draw(st.integers(1, 3))
    centres = rng.normal(scale=draw(st.floats(0.5, 4.0)), size=(len(names), p))
    bags = []
    for b, label in enumerate(bag_labels):
        rows = centres[names.index(label)] + rng.normal(size=(int(rng.integers(1, 5)), p))
        bags.append((f"b{b}", label, rows.tolist()))
    ds = build_dataset(bags, strong=bag_labels[0])
    relabel = rng.random(ds.n) < draw(st.floats(0.0, 0.4))
    labels = np.where(relabel, rng.choice(names, size=ds.n), ds.label).astype(object)
    return ds, AnnotatedTrainingSet(ids=ds.ids, labels=labels, provenance=["weak"] * ds.n)


@given(small_bag_sets())
@settings(max_examples=80, deadline=None)
def test_lobo_batched_folds_match_cold_folds_on_small_bag_sets(case):
    ds, ts = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = leave_one_bag_out_cv(ts, ds, "logistic")
        want = lobo_logistic_cold_reference(ts, ds)
    assert got.to_json_dict() == want.to_json_dict()


def test_lobo_logistic_memory_is_blocked():
    ds, (_, baseline) = synth_training_sets(0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        leave_one_bag_out_cv(baseline, ds, "logistic")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # 60 folds of 891 rows: blocks of 12 folds peak near 2 MB, one stack of
    # all 60 near 9 MB
    assert peak < 3 * 2**20, f"peak {peak / 2**20:.2f} MB"


def deletion_update_reference(ds, codes, bag_id):
    """The full fit plus the Newton step that removes the bag's gradient,
    with the Hessian taken by central differences of the gradient the Newton
    core steps on, in the full fit's z-scoring."""
    model, mean, sd, _ = classify._full_logistic_fit(ds.x, codes)
    z = (ds.x - mean) / sd
    theta = np.column_stack([model.coef, model.intercept])
    test = ds.bag == bag_id
    resid = predict_proba(model, z[test]) - (codes[test][:, None] == np.arange(len(model.classes)))
    g_bag = resid[:, :-1].T @ np.column_stack([z[test], np.ones(test.sum())])

    def gradient(flat):
        return stacked_gradient(flat.reshape(theta.shape), z, codes, model.classes, L2)

    h = 1e-5
    columns = [(gradient(theta.ravel() + e) - gradient(theta.ravel() - e)).ravel() / (2 * h) for e in h * np.eye(theta.size)]
    hess = np.column_stack(columns)
    return theta + np.linalg.solve(hess, g_bag.ravel()).reshape(theta.shape), mean, sd


def test_lobo_folds_start_from_the_full_fit(monkeypatch):
    ds, (weak, _) = synth_training_sets(0)
    fits = []

    def recording(x, y):
        model = train_logistic(x, y)
        fits.append(model.n_iter)
        return model

    monkeypatch.setattr(classify, "train_logistic", recording)
    starts = record_newton_starts(monkeypatch)
    models = record_fold_models(monkeypatch)
    leave_one_bag_out_cv(weak, ds, "logistic")
    # one full fit from zero, then the folds, every one from its bag's
    # deletion update of that fit
    assert len(fits) == 1
    assert not starts[0].any()
    fold_starts = np.concatenate(starts[1:])
    assert len(fold_starts) == len(models) == len(ds.bag_ids)
    codes = np.unique(classify.instance_labels(weak, ds), return_inverse=True)[1]
    for j in (0, 17, 59):
        bag_id = ds.bag_ids[j]
        theta, full_mean, full_sd = deletion_update_reference(ds, codes, bag_id)
        kept = ds.bag != bag_id
        (mean,), (sd,), _, _ = zscore(ds.x, kept.astype(float)[None], ds.x[kept].sum(axis=0)[None])
        want = classify._mapped_start(theta, full_mean, full_sd, mean, sd)
        np.testing.assert_allclose(fold_starts[j], want, rtol=1e-6, atol=1e-9)
    warm = sum(model.n_iter for model in models)
    fits.clear()
    lobo_logistic_cold_reference(weak, ds)
    assert len(fits) == len(ds.bag_ids)
    assert warm < sum(fits)


def test_lobo_falls_back_to_zero_starts_when_the_full_fit_raises(monkeypatch):
    ds = blob_bags()
    want = leave_one_bag_out_cv(fully_supervised_baseline(ds), ds, "logistic")
    calls = []

    def full_fit_fails(x, y):
        calls.append(len(y))
        raise NumericalError("Newton system is singular")

    monkeypatch.setattr(classify, "train_logistic", full_fit_fails)
    starts = record_newton_starts(monkeypatch)
    models = record_fold_models(monkeypatch)
    assert leave_one_bag_out_cv(fully_supervised_baseline(ds), ds, "logistic") == want
    assert calls == [ds.n]
    assert sum(len(stack) for stack in starts) == len(models) == len(ds.bag_ids)
    assert not any(stack.any() for stack in starts)


def test_lobo_warns_once_naming_unconverged_folds(monkeypatch):
    ds = blob_bags()
    want = leave_one_bag_out_cv(fully_supervised_baseline(ds), ds, "logistic").to_json_dict()
    monkeypatch.setattr(classify, "MAX_ITER", 1)
    models = record_fold_models(monkeypatch)
    with pytest.warns(UserWarning, match="MAX_ITER=1") as record:
        got = leave_one_bag_out_cv(fully_supervised_baseline(ds), ds, "logistic")
    assert len(record) == 1
    assert len(models) == len(ds.bag_ids)
    assert all(model.n_iter == 1 for model in models)
    unconverged = [bag_id for bag_id, model in zip(ds.bag_ids, models) if not model.converged]
    assert unconverged
    assert str(record[0].message).endswith("bags " + ", ".join(unconverged))
    assert set(got.to_json_dict()) == set(want)


def test_knn_k_is_for_knn_only():
    """--knn-k goes only with knn, and only as a positive count; both paths
    refuse it before any fit. predict takes neighbour counts only for kNN."""
    x, labels = two_blobs()
    for kind in ("logistic", "qda"):
        message = f"--knn-k applies only to --classifier knn, got --classifier {kind}"
        with pytest.raises(ParameterError, match=message):
            train(kind, x, labels, knn_k=3)
    with pytest.raises(ParameterError, match="neighbour counts apply only to a kNN model, not LogisticModel"):
        predict(train_logistic(x, labels), x, [1, 3])
    ds = blob_bags()
    with pytest.raises(ParameterError, match="--knn-k applies only to --classifier knn"):
        leave_one_bag_out_cv(fully_supervised_baseline(ds), ds, "logistic", knn_k=3)
    for k in (0, -3):
        message = f"^--knn-k: expected a positive integer, got {k}$"
        with pytest.raises(ParameterError, match=message):
            train("knn", x, labels, knn_k=k)
        with pytest.raises(ParameterError, match=message):
            leave_one_bag_out_cv(fully_supervised_baseline(ds), ds, "knn", knn_k=k)


def test_lobo_converged_folds_do_not_warn():
    ds = blob_bags()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        leave_one_bag_out_cv(fully_supervised_baseline(ds), ds, "logistic")
