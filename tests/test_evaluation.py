import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectralweak import evaluation
from spectralweak.errors import ParameterError, SearchError, UndefinedIndexError
from spectralweak.evaluation import (
    GridSpec,
    davies_bouldin,
    f1_score,
    grid_search,
    pair_confusion,
)
from spectralweak.dataset import pairwise_distances, standardize
from spectralweak.simgraph import GraphParams, build_graph, initial_similarities
from spectralweak.spectral import Grouping, spectral_grouping

from helpers import singleton_dataset, two_blobs


def grouping(labels, k=None):
    labels = np.asarray(labels)
    return Grouping(assignments=labels, k=k if k is not None else int(labels.max()) + 1)


# ---------------------------------------------------------------------------
# two-group separation index

def test_db_singleton_groups_are_zero_spread():
    points = np.array([[0.0, 0.0], [3.0, 4.0]])
    idx = davies_bouldin(points, grouping([0, 1]))
    assert idx.value == 0.0


def test_db_hand_computed_ratio():
    # group 0: points 1 away from centre (0,0); group 1: points 2 away from (10,0)
    points = np.array([[-1.0, 0.0], [1.0, 0.0], [8.0, 0.0], [12.0, 0.0]])
    idx = davies_bouldin(points, grouping([0, 0, 1, 1]))
    assert idx.value == pytest.approx((1.0 + 2.0) / 10.0, abs=1e-12)
    assert idx.name == "davies_bouldin"


def test_db_requires_two_groups_and_distinct_centroids():
    points = np.array([[0.0], [1.0], [2.0]])
    with pytest.raises(ParameterError):
        davies_bouldin(points, grouping([0, 0, 0]))
    sym = np.array([[-1.0], [1.0], [-1.0], [1.0]])
    with pytest.raises(UndefinedIndexError, match="^group centroids coincide; separation ratio undefined$"):
        davies_bouldin(sym, grouping([0, 0, 1, 1]))
    with pytest.raises(UndefinedIndexError, match="^centroids of groups 0 and 1 coincide$"):
        davies_bouldin(np.vstack([sym, [[5.0]]]), grouping([0, 0, 1, 1, 2]))


def db_oracle(points, labels):
    """Literal re-evaluation: mean member distance per group, centroid gap."""
    c0 = points[labels == 0].mean(axis=0)
    c1 = points[labels == 1].mean(axis=0)
    s0 = np.linalg.norm(points[labels == 0] - c0, axis=1).mean()
    s1 = np.linalg.norm(points[labels == 1] - c1, axis=1).mean()
    return (s0 + s1) / np.linalg.norm(c0 - c1)


@given(st.integers(0, 2**31 - 1))
def test_db_matches_literal_formula(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 30))
    points = rng.normal(size=(n, 3))
    labels = np.zeros(n, dtype=int)
    labels[: n // 2] = 1
    try:
        idx = davies_bouldin(points, grouping(labels))
    except UndefinedIndexError:
        return
    assert idx.value == pytest.approx(db_oracle(points, labels), abs=1e-12)


def test_db_invariant_to_group_swap():
    rng = np.random.default_rng(1)
    points = rng.normal(size=(12, 2))
    labels = rng.integers(0, 2, 12)
    if len(set(labels.tolist())) < 2:
        labels[0] = 1 - labels[0]
    a = davies_bouldin(points, grouping(labels, k=2)).value
    b = davies_bouldin(points, grouping(1 - labels, k=2)).value
    assert a == pytest.approx(b, abs=1e-15)


def two_group_db_reference(points, labels):
    """The former two-group-only implementation, kept as the bitwise oracle."""
    c = [points[labels == g].mean(axis=0) for g in (0, 1)]
    s = [float(np.linalg.norm(points[labels == g] - c[g], axis=1).mean()) for g in (0, 1)]
    return float((np.float64(s[0]) + np.float64(s[1])) / float(np.linalg.norm(c[0] - c[1])))


@given(st.integers(0, 2**31 - 1))
def test_general_db_named_and_consistent_at_two(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    points = rng.normal(size=(n, int(rng.integers(1, 4)))) * 10.0 ** rng.integers(-3, 4)
    labels = rng.integers(0, 2, n)
    labels[:2] = (0, 1)
    two = davies_bouldin(points, grouping(labels, k=2))
    assert two.name == "davies_bouldin"
    assert two.value == two_group_db_reference(points, labels)
    three = davies_bouldin(np.vstack([points, points[:1] + 1.0]), grouping(np.append(labels, 2), k=3))
    assert three.name == "davies_bouldin_general"


def test_general_db_three_groups_hand_case():
    points = np.array([[-1.0, 0.0], [1.0, 0.0], [9.0, 0.0], [11.0, 0.0], [4.0, 30.0], [6.0, 30.0]])
    labels = np.array([0, 0, 1, 1, 2, 2])
    centroids = np.array([[0.0, 0.0], [10.0, 0.0], [5.0, 30.0]])
    spreads = np.array([1.0, 1.0, 1.0])
    worst = []
    for i in range(3):
        ratios = [
            (spreads[i] + spreads[j]) / np.linalg.norm(centroids[i] - centroids[j])
            for j in range(3) if j != i
        ]
        worst.append(max(ratios))
    expected = float(np.mean(worst))
    got = davies_bouldin(points, grouping(labels)).value
    assert got == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# pair-counting score

def test_pair_confusion_hand_counts():
    candidate = np.array([0, 0, 1, 1])
    truth = np.array(["a", "a", "a", "b"])
    tp, fp, fn, tn = pair_confusion(candidate, truth)
    # pairs: (0,1) both same: tp; (2,3) cand-same truth-diff: fp;
    # (0,2),(1,2) truth-same cand-diff: fn; (0,3),(1,3): tn
    assert (tp, fp, fn, tn) == (1, 1, 2, 2)
    assert tp + fp + fn + tn == 6


def test_f1_perfect_grouping():
    truth = np.array([0, 0, 1, 1, 2, 2])
    idx = f1_score(truth.copy(), truth)
    assert idx.value == 1.0
    assert idx.details["precision"] == 1.0
    assert idx.details["recall"] == 1.0


def test_f1_single_giant_group_trades_precision_for_recall():
    truth = np.array([0, 0, 0, 1, 1, 1])
    giant = np.zeros(6, dtype=int)
    idx = f1_score(giant, truth)
    # recall 1 (all truth pairs captured), precision 6/15
    assert idx.details["recall"] == 1.0
    assert idx.details["precision"] == pytest.approx(6 / 15)
    assert idx.value == pytest.approx(2 * (6 / 15) / (1 + 6 / 15), abs=1e-12)


def brute_force_pairs(candidate, truth):
    n = len(candidate)
    tp = fp = fn = tn = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_c = candidate[i] == candidate[j]
            same_t = truth[i] == truth[j]
            tp += same_c and same_t
            fp += same_c and not same_t
            fn += (not same_c) and same_t
            tn += (not same_c) and not same_t
    return tp, fp, fn, tn


@given(st.integers(0, 2**31 - 1))
def test_pair_confusion_matches_quadratic_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 50))
    candidate = rng.integers(0, 4, n)
    truth = rng.integers(0, 3, n)
    assert pair_confusion(candidate, truth) == brute_force_pairs(candidate, truth)


@given(st.integers(0, 2**31 - 1))
def test_f1_invariant_to_label_renaming(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 40))
    candidate = rng.integers(0, 3, n)
    truth = rng.integers(0, 3, n)
    renamed = np.asarray([f"group-{7 - c}" for c in candidate])
    try:
        a = f1_score(candidate, truth).value
    except UndefinedIndexError:
        with pytest.raises(UndefinedIndexError):
            f1_score(renamed, truth)
        return
    assert f1_score(renamed, truth).value == pytest.approx(a, abs=1e-15)


def test_f1_all_singletons_undefined():
    truth = np.array([0, 0, 1, 1])
    with pytest.raises(UndefinedIndexError):
        f1_score(np.arange(4), truth)


def test_f1_beta_validation_and_mismatch():
    with pytest.raises(ParameterError):
        pair_confusion(np.array([0, 0]), np.array([0, 0, 1]))


# ---------------------------------------------------------------------------
# parameter grids

def test_grid_candidates_row_major():
    grid = GridSpec(
        model="prob_threshold",
        axes=(("w_thresh", (0.1, 0.2)), ("sigma", (0.5, 0.6, 0.7))),
        base=GraphParams(eps_weight=1e-6),
    )
    cands = grid.candidates()
    assert len(cands) == 6
    seen = [(c.params.w_thresh, c.params.sigma) for c in cands]
    assert seen == [(0.1, 0.5), (0.1, 0.6), (0.1, 0.7), (0.2, 0.5), (0.2, 0.6), (0.2, 0.7)]
    assert all(c.params.eps_weight == 1e-6 for c in cands)


def test_grid_unknown_axis_rejected():
    grid = GridSpec(model="epsilon", axes=(("radius", (1.0,)),))
    with pytest.raises(ParameterError, match="radius"):
        grid.candidates()


def separable_singletons(seed=0):
    points, labels = two_blobs(n_per=8, gap=8.0, seed=seed)
    return singleton_dataset(points, np.where(labels == 0, "a", "b"))


def test_grid_search_finds_connecting_epsilon():
    ds = separable_singletons()
    grid = GridSpec(model="epsilon", axes=(("epsilon", (1e-6, 2.0)),))
    result = grid_search(standardize(ds), grid, k=2, objective="f1", seed=0)
    assert result.best_index == 1
    assert result.best.objective == 1.0
    # an empty graph still groups, just badly
    assert result.rows[0].objective < 1.0


def test_grid_search_records_failed_candidates():
    ds = separable_singletons(seed=4)
    grid = GridSpec(model="knn_symmetric", axes=(("k", (2, 50)),))
    result = grid_search(standardize(ds), grid, k=2, objective="f1", seed=0)
    assert result.rows[1].objective is None
    assert "ParameterError" in result.rows[1].error
    assert result.best_index == 0


def test_grid_search_lets_an_untyped_error_propagate(monkeypatch):
    ds = separable_singletons(seed=4)
    grid = GridSpec(model="knn_symmetric", axes=(("k", (2, 3)),))

    def broken(graph, k, seed):
        raise TypeError("a fault, not a failed candidate")

    monkeypatch.setattr(evaluation, "spectral_grouping", broken)
    with pytest.raises(TypeError, match="a fault"):
        grid_search(standardize(ds), grid, k=2, objective="f1", seed=0)


def test_grid_search_db_objective_prefers_lower():
    ds = separable_singletons(seed=3)
    grid = GridSpec(model="knn_symmetric", axes=(("k", (2, 3)),))
    result = grid_search(standardize(ds), grid, k=2, objective="db", seed=0)
    values = [row.objective for row in result.rows]
    assert result.best.objective == min(v for v in values if v is not None)


def test_grid_search_tie_keeps_earliest():
    ds = separable_singletons(seed=5)
    # both radii recover the blobs exactly, so both reach f1 = 1.0
    grid = GridSpec(model="epsilon", axes=(("epsilon", (1.8, 2.0)),))
    result = grid_search(standardize(ds), grid, k=2, objective="f1", seed=0)
    assert result.rows[0].objective == result.rows[1].objective == 1.0
    assert result.best_index == 0


def test_grid_search_all_failures_raise():
    # duplicated points break the similarity transform for every candidate
    points = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    ds = singleton_dataset(points, np.array(["a", "a", "b", "b"]))
    grid = GridSpec(
        model="prob_threshold",
        axes=(("w_thresh", (0.3, 0.5)),),
        base=GraphParams(sigma=0.1, eps_weight=1e-6),
    )
    with pytest.raises(SearchError, match="all 2 grid candidates failed"):
        grid_search(standardize(ds), grid, k=2, objective="f1", seed=0)


def test_grid_search_duplicate_points_fail_every_prob_candidate():
    points = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    ds = singleton_dataset(points, np.array(["a", "a", "b", "b"]))
    for model in ("prob_threshold", "prob_criterion"):
        grid = GridSpec(
            model=model,
            axes=(("w_thresh", (0.3, 0.5)), ("sigma", (0.1, 0.2))),
            base=GraphParams(eps_weight=1e-6),
        )
        row = ("DegenerateDistanceError: instances 0 and 1 are at distance zero; "
               "inverse-distance similarities are undefined")
        detail = "; ".join(f"[{i}] {row}" for i in range(4))
        with pytest.raises(SearchError) as exc:
            grid_search(ds, grid, k=2, objective="f1", seed=0)
        assert str(exc.value) == f"all 4 grid candidates failed: {detail}"


PROB_GRIDS = {
    "w_sigma": GridSpec(
        model="prob_criterion",
        axes=(("w_thresh", (0.05, 0.1, 0.2)), ("sigma", (0.05, 0.1))),
    ),
    "m_axis": GridSpec(
        model="prob_threshold",
        axes=(("w_thresh", (0.05, 0.1)), ("m", (-1.0, -2.0)), ("sigma", (0.05, 0.1))),
        base=GraphParams(eps_weight=1e-6),
    ),
}


@pytest.mark.parametrize("name", sorted(PROB_GRIDS))
def test_grid_search_computes_similarities_once_per_exponent(name, monkeypatch):
    from spectralweak import evaluation

    grid = PROB_GRIDS[name]
    exponents = []

    def counting(dist, m=-1.0):
        exponents.append(m)
        return initial_similarities(dist, m=m)

    monkeypatch.setattr(evaluation, "initial_similarities", counting)
    ds = separable_singletons(seed=7)
    result = grid_search(standardize(ds), grid, k=2, objective="f1", seed=3)
    assert sorted(exponents) == sorted({spec.params.m for spec in grid.candidates()})
    # every row equals the candidate evaluated on its own
    dist = pairwise_distances(standardize(ds))
    truth = ds.label
    for spec, row in zip(grid.candidates(), result.rows):
        alone = spectral_grouping(build_graph(dist, spec, seed=3), k=2, seed=3)
        assert np.array_equal(row.grouping.assignments, alone.assignments)
        assert row.objective == f1_score(alone, truth).value
    assert all("grouping" not in row for row in result.to_json_dict()["rows"])


def test_grid_search_computes_no_similarities_for_candidates_missing_a_param(monkeypatch):
    from spectralweak import evaluation

    calls = []
    monkeypatch.setattr(evaluation, "initial_similarities", lambda dist, m=-1.0: calls.append(m))
    ds = separable_singletons(seed=7)
    grid = GridSpec(model="prob_threshold", axes=(("w_thresh", (0.05, 0.1)),), base=GraphParams(sigma=0.05))
    row = "ParameterError: prob_threshold needs params.eps_weight"
    with pytest.raises(SearchError) as exc:
        grid_search(standardize(ds), grid, k=2, objective="f1", seed=0)
    assert str(exc.value) == f"all 2 grid candidates failed: [0] {row}; [1] {row}"
    assert calls == []


def test_grid_search_validates_inputs():
    ds = separable_singletons(seed=2)
    grid = GridSpec(model="epsilon", axes=(("epsilon", (2.0,)),))
    with pytest.raises(ParameterError):
        grid_search(standardize(ds), grid, k=2, objective="accuracy", seed=0)
