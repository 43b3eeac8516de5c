import dataclasses
import json
import math
from unittest import mock

import numpy as np
import pytest
import scipy.sparse
import scipy.spatial.distance
from hypothesis import example, given, settings, strategies as st
from scipy.spatial.distance import cdist

from spectralweak import dataset, simgraph
from spectralweak.dataset import DistanceMatrix, pair_distances, pairwise_distances
from spectralweak.errors import DegenerateDistanceError, IntegrityError, ParameterError
from spectralweak.simgraph import (
    MODELS,
    REQUIRED_PARAMS,
    SYMMETRIZE_RULES,
    GraphParams,
    GraphSpec,
    SimilarityGraph,
    build_graph,
    bump_peak,
    connected_components,
    epsilon_graph,
    fully_connected_gaussian,
    gaussian_bump,
    graph_to_json_dict,
    initial_similarities,
    knn_graph,
    nearest_columns,
    prob_criterion_graph,
    prob_threshold_graph,
    symmetrize_in_place,
    write_graph_json,
)

from helpers import (
    components_reference,
    initial_similarities_reference,
    knn_adjacency_reference,
    knn_graph_reference,
    prob_criterion_reference,
    prob_threshold_reference,
    symmetrize,
)

LINE4 = np.array([[0.0], [1.0], [2.5], [5.0]])


def seeded_points(seed, n=8, p=3):
    return np.random.default_rng(seed).normal(size=(n, p))


# ---------------------------------------------------------------------------
# initial similarities

def test_initial_similarities_two_points():
    s = initial_similarities(pairwise_distances(np.array([[0.0], [2.0]]))).s
    assert s[0, 1] == 1.0
    assert s[1, 0] == 1.0


def test_initial_similarities_equilateral():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    s = initial_similarities(pairwise_distances(pts)).s
    off = s[~np.eye(3, dtype=bool)]
    assert np.allclose(off, 0.5, atol=1e-12)


def test_initial_similarities_hand_ratio():
    # distances from point 0: 1 and 2, so the closer point gets 2/3
    pts = np.array([[0.0], [1.0], [2.0]])
    s = initial_similarities(pairwise_distances(pts)).s
    assert s[0, 1] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert s[0, 2] == pytest.approx(1.0 / 3.0, abs=1e-12)


@given(st.integers(0, 2**31 - 1), st.integers(3, 12))
def test_initial_similarity_rows_sum_to_one(seed, n):
    s = initial_similarities(pairwise_distances(seeded_points(seed, n))).s
    assert np.max(np.abs(s.sum(axis=1) - 1.0)) < 1e-10
    assert np.all(np.diag(s) == 0.0)


@given(st.integers(0, 2**31 - 1), st.floats(0.01, 1000.0))
def test_initial_similarities_scale_invariant(seed, c):
    d = pairwise_distances(seeded_points(seed, 7))
    scaled = pairwise_distances(seeded_points(seed, 7) * c)
    a = initial_similarities(d).s
    b = initial_similarities(scaled).s
    assert np.max(np.abs(a - b)) < 1e-12


def test_initial_similarities_not_symmetric():
    pts = np.array([[0.0], [1.0], [5.0]])
    s = initial_similarities(pairwise_distances(pts)).s
    assert s[0, 1] != s[1, 0]


def test_zero_distance_pair_rejected():
    d = pairwise_distances(np.array([[1.0], [1.0], [3.0]]))
    with pytest.raises(DegenerateDistanceError, match="0.*1|\\(0, 1\\)"):
        initial_similarities(d)


EXPONENTS = (-0.5, -1.0, -2.0, -3.5)


@st.composite
def point_sets(draw, max_n=40):
    n = draw(st.integers(2, max_n))
    p = draw(st.integers(1, 4))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e4]))
    return np.random.default_rng(draw(st.integers(0, 2**31 - 1))).normal(size=(n, p)) * scale


@given(point_sets(), st.sampled_from(EXPONENTS))
def test_initial_similarities_match_reference(points, m):
    d = pairwise_distances(points)
    got = initial_similarities(d, m=m)
    want = initial_similarities_reference(d, m=m)
    assert got.m == want.m
    assert got.s.tobytes() == want.s.tobytes()


# blocks of one row, and of n / DENSE_BLOCK_PARTS rows
@pytest.mark.parametrize("block_bytes", [2**12, 2**20])
@pytest.mark.parametrize("m", EXPONENTS)
def test_initial_similarities_match_reference_in_any_blocking(monkeypatch, block_bytes, m):
    monkeypatch.setattr(dataset, "ROW_BLOCK_BYTES", block_bytes)
    d = pairwise_distances(seeded_points(3, n=300, p=4))
    assert initial_similarities(d, m=m).s.tobytes() == initial_similarities_reference(d, m=m).s.tobytes()


@given(point_sets(), st.data(), st.sampled_from(EXPONENTS))
def test_near_duplicate_points_still_raise(points, data, m):
    # a copy shifted by far less than an ulp of its coordinates lands on them
    n = points.shape[0]
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1).filter(lambda j: j != i))
    points[j] = points[i] + 1e-300 * np.sign(points[i])
    d = pairwise_distances(points)
    with pytest.raises(DegenerateDistanceError) as want:
        initial_similarities_reference(d, m=m)
    with pytest.raises(DegenerateDistanceError) as got:
        initial_similarities(d, m=m)
    assert str(got.value) == str(want.value)
    assert f"{min(i, j)} and" in str(got.value)


def test_no_points_give_empty_similarities_and_graphs():
    sims = initial_similarities(DistanceMatrix(np.zeros((0, 0))))
    assert sims.s.shape == (0, 0)
    assert prob_threshold_graph(sims, 0.5, 0.1, 1e-3).w.shape == (0, 0)
    assert prob_criterion_graph(sims, 0.5, 0.1, seed=0).w.shape == (0, 0)


def test_nonnegative_exponent_rejected():
    d = pairwise_distances(LINE4)
    with pytest.raises(ParameterError):
        initial_similarities(d, m=1.0)


# ---------------------------------------------------------------------------
# classical graphs

def test_epsilon_graph_strict_inequality():
    d = pairwise_distances(np.array([[0.0], [1.0]]))
    assert epsilon_graph(d, 1.0).n_edges() == 0
    assert epsilon_graph(d, 1.0 + 1e-12).n_edges() == 1


def test_epsilon_graph_is_unweighted():
    d = pairwise_distances(LINE4)
    g = epsilon_graph(d, 2.0)
    assert set(np.unique(g.w)) <= {0.0, 1.0}


def block_adjacency(d, k):
    """Boolean adjacency of the builder's neighbour selection, the whole
    matrix as one block with its diagonal masked as knn_graph masks it."""
    masked = d.d.copy()
    np.fill_diagonal(masked, np.inf)
    adj = np.zeros((d.n, d.n), dtype=bool)
    adj[np.arange(d.n)[:, None], nearest_columns(masked, k)] = True
    return adj


@st.composite
def selection_blocks(draw):
    """A block of 1-5 rows over 1-12 columns: small integers, so ties at the
    threshold are common, with some entries +inf; k from 1 to the width."""
    rows, n = draw(st.integers(1, 5)), draw(st.integers(1, 12))
    cell = st.one_of(st.integers(0, 3).map(float), st.just(np.inf))
    d = np.array(draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=rows, max_size=rows)))
    k = draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
    return d, k


@given(selection_blocks())
@settings(max_examples=300)
@example((np.array([[1.0, 0.0, 1.0, 1.0, 2.0]]), 2))  # three-way tie at the threshold
@example((np.array([[np.inf, 1.0, np.inf], [np.inf, np.inf, np.inf]]), 2))
@example((np.array([[2.0, 2.0, 2.0]]), 3))
def test_nearest_columns_match_stable_argsort(case):
    d, k = case
    expected = np.sort(np.argsort(d, axis=1, kind="stable")[:, :k], axis=1)
    assert np.array_equal(nearest_columns(d, k), expected)


def test_nearest_columns_rank_only_rows_tied_at_the_threshold():
    d = np.array([[3.0, 1.0, 2.0, 0.0], [1.0, 1.0, 1.0, 0.0]])
    with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
        assert nearest_columns(d, 2).tolist() == [[1, 3], [0, 3]]
    assert lexsort.call_count == 1


def test_knn_line_modes():
    sym = knn_graph(LINE4, 1, mode="symmetric", sigma=1.0)
    mut = knn_graph(LINE4, 1, mode="mutual", sigma=1.0)
    assert connected_components(sym)[0] == 1
    assert connected_components(mut)[0] == 3
    assert mut.w[0, 1] == pytest.approx(math.exp(-0.5))
    assert mut.w[2, 3] == 0.0


@st.composite
def knn_cases(draw):
    """Points with many equal distances (a small integer grid, so duplicates
    at distance zero too) or in general position, and k from 1 to n - 1."""
    n = draw(st.integers(2, 14))
    p = draw(st.integers(1, 3))
    if draw(st.booleans()):
        pts = draw(st.lists(st.lists(st.integers(0, 3), min_size=p, max_size=p), min_size=n, max_size=n))
    else:
        pts = np.random.default_rng(draw(st.integers(0, 2**31 - 1))).normal(size=(n, p))
    k = draw(st.one_of(st.just(1), st.just(n - 1), st.integers(1, n - 1)))
    return np.asarray(pts, dtype=float), k


@given(knn_cases())
@settings(max_examples=200)
def test_knn_adjacency_matches_lexsort_reference(case):
    pts, k = case
    d = pairwise_distances(pts)
    assert np.array_equal(block_adjacency(d, k), knn_adjacency_reference(d.d, k))


def test_knn_adjacency_ties_and_duplicates_hand_case():
    # row 0 has 1 and 3 tied at distance 1 and 2 at distance zero
    pts = np.array([[0.0], [1.0], [0.0], [-1.0], [5.0]])
    d = pairwise_distances(pts)
    adj = block_adjacency(d, 2)
    assert np.flatnonzero(adj[0]).tolist() == [1, 2]
    assert np.flatnonzero(adj[2]).tolist() == [0, 1]
    assert np.array_equal(adj, knn_adjacency_reference(d.d, 2))


@pytest.mark.parametrize("mode", ["symmetric", "mutual"])
def test_knn_weights_equal_full_gaussian_on_joined_pairs(mode):
    pts = seeded_points(5, n=120, p=4)
    d = pairwise_distances(pts)
    g = knn_graph(pts, 7, mode=mode)
    adj = knn_adjacency_reference(d.d, 7)
    joined = (adj | adj.T) if mode == "symmetric" else (adj & adj.T)
    full = np.exp(-(d.d**2) / (2.0 * g.params.sigma**2))
    assert np.array_equal(g.w.toarray(), np.where(joined, full, 0.0))


def test_knn_default_sigma_is_median_distance():
    g = knn_graph(LINE4, 2)
    assert g.params.sigma == pytest.approx(2.5)


def test_knn_k_bounds():
    with pytest.raises(ParameterError):
        knn_graph(LINE4, 0)
    with pytest.raises(ParameterError):
        knn_graph(LINE4, 4)


def test_knn_rejects_a_distance_matrix():
    d = pairwise_distances(LINE4)
    with pytest.raises(ParameterError, match="kNN graphs are built from coordinates, got DistanceMatrix"):
        knn_graph(d, 2)
    for model in ("knn_symmetric", "knn_mutual"):
        with pytest.raises(ParameterError, match="kNN graphs are built from coordinates"):
            build_graph(d, GraphSpec(model, GraphParams(k=2)))


@given(st.integers(0, 2**31 - 1), st.integers(1, 6))
def test_mutual_edges_subset_of_symmetric(seed, k):
    pts = seeded_points(seed)
    sym = knn_graph(pts, k, sigma=1.0).w.toarray() > 0
    mut = knn_graph(pts, k, mode="mutual", sigma=1.0).w.toarray() > 0
    assert not np.any(mut & ~sym)


# ---------------------------------------------------------------------------
# the blockwise CSR kNN builder against the dense reference


@st.composite
def grid_knn_cases(draw):
    """Up to 150 points on a small integer grid in up to 20 dimensions:
    duplicates and equal distances everywhere, so ties straddle the tree's
    last candidate; k is 1, n - 1 or up to 20."""
    n = draw(st.integers(2, 150))
    p = draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    pts = rng.integers(0, draw(st.integers(1, 3)) + 1, size=(n, p)).astype(float)
    k = draw(st.one_of(st.just(1), st.just(n - 1), st.integers(1, min(n - 1, 20))))
    return pts, k


@st.composite
def knn_builds(draw):
    """A kNN case, a mode, a sigma (the default median, or one small enough
    that most weights underflow to zero) and a row block size from one row up."""
    pts, k = draw(st.one_of(knn_cases(), grid_knn_cases()))
    n = len(pts)
    mode = draw(st.sampled_from(["symmetric", "mutual"]))
    sigma = draw(st.one_of(st.none(), st.just(0.02), st.floats(0.05, 3.0)))
    block_bytes = draw(st.sampled_from([8, 8 * n * 2, 8 * n * 3 + 1, dataset.ROW_BLOCK_BYTES]))
    return pts, k, mode, sigma, block_bytes


def upper_median(pts):
    d = pairwise_distances(pts).d
    return np.median(d[~np.tri(len(pts), dtype=bool)])


@given(knn_builds())
@settings(max_examples=300)
@example(case=(np.array([[0.0], [1.0], [2.0], [40.0], [41.0]]), 2, "symmetric", 0.02, 8))
@example(case=(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), 4, "mutual", None, 8))
def test_csr_knn_builder_equals_dense_reference(case):
    pts, k, mode, sigma, block_bytes = case
    dist = pairwise_distances(pts)
    for slack in (0, simgraph.TREE_SLACK):  # 0: most rows widen
        with mock.patch.object(dataset, "ROW_BLOCK_BYTES", block_bytes), mock.patch.object(simgraph, "TREE_SLACK", slack):
            if sigma is None and upper_median(pts) == 0.0:
                with pytest.raises(ParameterError, match="median distance is zero"):
                    knn_graph(pts, k, mode=mode)
                continue
            g = knn_graph(pts, k, mode=mode, sigma=sigma)
        want, want_sigma = knn_graph_reference(dist, k, mode=mode, sigma=sigma)
        assert np.float64(g.params.sigma).tobytes() == np.float64(want_sigma).tobytes()
        assert g.w.toarray().tobytes() == want.tobytes()
        assert g.w.has_canonical_format and np.all(g.w.data > 0.0)


def cdist_calls(monkeypatch):
    """The (rows, columns) shape of every cdist block simgraph computes."""
    calls = []

    def counted(a, b, *args, **kwargs):
        calls.append((len(a), len(b)))
        return cdist(a, b, *args, **kwargs)

    # simgraph imports cdist where it calls it, from scipy.spatial.distance
    monkeypatch.setattr(scipy.spatial.distance, "cdist", counted)
    return calls


def test_rows_with_more_duplicates_than_tree_candidates_are_widened(monkeypatch):
    # 12 copies of one point, more than the k + 1 + TREE_SLACK = 5 candidates
    # the tree returns, interleaved with points in general position far away
    k = 3
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(40, 2)) + 10.0
    copies = np.sort(rng.choice(40, size=12, replace=False))
    pts[copies] = 0.0
    assert len(copies) > k + 1 + simgraph.TREE_SLACK
    calls = cdist_calls(monkeypatch)
    g = knn_graph(pts, k, sigma=1.0)
    assert sum(rows for rows, _ in calls) == len(copies) and {cols for _, cols in calls} == {len(pts)}
    want, _ = knn_graph_reference(pairwise_distances(pts), k, sigma=1.0)
    assert g.w.toarray().tobytes() == want.tobytes()


@pytest.mark.parametrize("n, p", [(300, 2), (401, 5), (257, 12)])
def test_knn_graph_computes_cdist_on_widened_rows_and_upper_triangle_only(monkeypatch, n, p):
    pts = seeded_points(n, n, p)
    calls = cdist_calls(monkeypatch)
    knn_graph(pts, 10, sigma=1.0)
    assert calls == []  # in general position the tree settles every row
    knn_graph(pts, 10)
    # both sigma passes over the upper triangle, with each block's square
    # below its diagonal, blocks of at most ceil(n / 16) rows: at most
    # n (n + ceil(n / 16)) entries, where full rows take 2 n^2
    assert calls and sum(rows * cols for rows, cols in calls) <= n * (n + -(-n // simgraph.DENSE_BLOCK_PARTS))


@given(
    st.integers(1, 32),
    st.floats(-200.0, 200.0),
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=300)
def test_pair_distances_and_squared_cdist_have_cdist_bits(p, exponent, rows, cols, seed):
    # the tree's candidates and the sigma passes lean on these two identities
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(rows + cols, p)) * 10.0**exponent * 10.0 ** rng.uniform(-3.0, 3.0, size=p)
    want = cdist(pts[:rows], pts[rows:])
    pairs = np.broadcast_to(rows + np.arange(cols), (rows, cols))
    assert pair_distances(np.ascontiguousarray(pts.T), 0, rows, pairs).tobytes() == want.tobytes()
    assert np.sqrt(cdist(pts[:rows], pts[rows:], "sqeuclidean")).tobytes() == want.tobytes()


def test_knn_underflowed_weight_is_not_an_edge():
    # 50 / sigma = 50 standard deviations: exp(-1250) is 0.0 in float64
    pts = np.array([[0.0], [1.0], [50.0]])
    g = knn_graph(pts, 2, sigma=1.0)
    want, _ = knn_graph_reference(pairwise_distances(pts), 2, sigma=1.0)
    assert np.array_equal(g.w.toarray(), want)
    assert g.n_edges() == 1
    assert connected_components(g)[0] == 2


def test_build_graph_reads_knn_from_coordinates():
    pts = seeded_points(3, 40, 3)
    spec = GraphSpec("knn_mutual", GraphParams(k=5))
    a = build_graph(pts, spec)
    want, want_sigma = knn_graph_reference(pairwise_distances(pts), 5, mode="mutual")
    assert isinstance(a.w, scipy.sparse.csr_array)
    assert np.array_equal(a.w.toarray(), want)
    assert a.params == GraphParams(k=5, sigma=want_sigma)


@st.composite
def median_cases(draw):
    """Points with many tied distances (an integer grid, duplicates too), in
    general position, or rounded to one decimal; and a row block size."""
    n = draw(st.integers(2, 30))
    p = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["grid", "normal", "rounded"]))
    if kind == "grid":
        pts = np.array(draw(st.lists(st.lists(st.integers(0, 2), min_size=p, max_size=p), min_size=n, max_size=n)), dtype=float)
    else:
        pts = np.random.default_rng(draw(st.integers(0, 2**31 - 1))).normal(size=(n, p))
        if kind == "rounded":
            pts = np.round(pts, 1)
    return pts, draw(st.sampled_from([8, 8 * n * 2, dataset.ROW_BLOCK_BYTES]))


@given(median_cases())
@settings(max_examples=300)
@example(case=(np.array([[0.0], [2.0]]), 8))
@example(case=(np.array([[0.0], [1.0], [3.0], [7.0]]), 8))
def test_blockwise_sigma_equals_numpy_median(case):
    pts, block_bytes = case
    want = upper_median(pts)
    with mock.patch.object(dataset, "ROW_BLOCK_BYTES", block_bytes):
        if want == 0.0:
            with pytest.raises(ParameterError, match="median distance is zero"):
                knn_graph(pts, 1)
        else:
            assert np.float64(knn_graph(pts, 1).params.sigma).tobytes() == want.tobytes()


def test_median_of_two_middle_values_in_different_bins():
    # pair distances 1, 2, 3, 4, 6, 7: the squares of the middle two, 9 and
    # 16, which the bins hold, straddle an octave
    pts = np.array([[0.0], [1.0], [3.0], [7.0]])
    bins = simgraph._median_bins(np.array([9.0, 16.0]))
    assert bins[0] != bins[1]
    with mock.patch.object(dataset, "ROW_BLOCK_BYTES", 8):
        assert knn_graph(pts, 1).params.sigma == 3.5


def test_knn_all_equal_points_median_zero():
    with pytest.raises(ParameterError, match="median distance is zero; pass sigma explicitly"):
        knn_graph(np.ones((6, 2)), 2)


def test_sparse_weights_are_validated():
    edge = scipy.sparse.csr_array(np.array([[0.0, 1.0], [1.0, 0.0]]))
    params = GraphParams(k=1, sigma=1.0)
    assert SimilarityGraph(w=edge, model="knn_symmetric", params=params).n_edges() == 1
    one_way = scipy.sparse.csr_array(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(IntegrityError, match="not exactly symmetric"):
        SimilarityGraph(w=one_way, model="knn_symmetric", params=params)
    stored_zero = scipy.sparse.csr_array((np.array([0.0, 0.0]), np.array([1, 0]), np.array([0, 1, 2])), shape=(2, 2))
    with pytest.raises(IntegrityError, match="finite and positive"):
        SimilarityGraph(w=stored_zero, model="knn_symmetric", params=params)
    loop = scipy.sparse.csr_array(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(IntegrityError, match="diagonal"):
        SimilarityGraph(w=loop, model="knn_mutual", params=params)


def upper_triplets(w):
    """W's nonzero strict upper triangle as [i, j, weight], row-major."""
    dense = w.toarray() if scipy.sparse.issparse(w) else np.asarray(w)
    rows, cols = np.nonzero(np.triu(dense, 1))
    return [[int(i), int(j), float(dense[i, j])] for i, j in zip(rows, cols)]


def test_knn_graph_json_roundtrip(tmp_path):
    pts = np.round(seeded_points(4, 30, 2), 1)
    g = knn_graph(pts, 4, mode="mutual")
    want, _ = knn_graph_reference(pairwise_distances(pts), 4, mode="mutual")
    as_dense = SimilarityGraph(w=want, model="fully_connected", params=g.params)
    assert graph_to_json_dict(g)["triplets"] == graph_to_json_dict(as_dense)["triplets"]
    path = tmp_path / "g.json"
    write_graph_json(g, path)
    payload = json.loads(path.read_text())
    assert payload["triplets"] == upper_triplets(g.w)
    assert (payload["n"], payload["model"], payload["params"]) == (g.n, g.model, g.params.to_json_dict())


def test_fully_connected_weights():
    d = pairwise_distances(np.array([[0.0], [2.0]]))
    g = fully_connected_gaussian(d, sigma=2.0)
    assert g.w[0, 1] == pytest.approx(math.exp(-4.0 / 8.0))


# ---------------------------------------------------------------------------
# bump helpers

def test_bump_peak_value():
    sigma = 0.2
    assert bump_peak(sigma) == pytest.approx(1.0 / (sigma * math.sqrt(2 * math.pi)))
    assert gaussian_bump(0.4, 0.4, sigma) == pytest.approx(bump_peak(sigma))


# ---------------------------------------------------------------------------
# symmetrization

@given(
    st.integers(0, 2**31 - 1),
    st.integers(1, 60),
    st.sampled_from([2**6, 2**10, 2**20]),
    st.sampled_from(SYMMETRIZE_RULES),
)
def test_symmetrize_in_place_matches_symmetrize(seed, n, block_bytes, rule):
    a = np.random.default_rng(seed).random((n, n))
    want = symmetrize(a, rule)
    with mock.patch.object(dataset, "ROW_BLOCK_BYTES", block_bytes):
        symmetrize_in_place(a, np.minimum if rule == "min" else np.maximum)
    assert a.tobytes() == want.tobytes()


@given(st.integers(0, 2**31 - 1), st.floats(1e-3, 0.9), st.floats(1e-6, 1.0))
def test_gaussian_bump_into_a_buffer_has_the_expressions_bits(seed, w_thresh, sigma):
    s = np.random.default_rng(seed).random((7, 9))
    want = np.exp(-((s - w_thresh) ** 2) / (2.0 * sigma**2)) / (sigma * math.sqrt(2.0 * math.pi))
    out = np.empty_like(s)
    assert gaussian_bump(s, w_thresh, sigma, out=out) is out
    assert out.tobytes() == want.tobytes()
    assert gaussian_bump(s, w_thresh, sigma).tobytes() == want.tobytes()
    assert gaussian_bump(float(s[0, 0]), w_thresh, sigma) == want[0, 0]
    # a column of a buffer 8 doubles wide: numpy 2.4.6's np.negative read
    # such a strided operand as if it were contiguous
    wide = np.random.default_rng(seed).random((16, 8))
    buf = np.empty_like(wide)
    want = np.exp(-((wide[:, 2] - w_thresh) ** 2) / (2.0 * sigma**2)) / (sigma * math.sqrt(2.0 * math.pi))
    assert gaussian_bump(wide[:, 2], w_thresh, sigma, out=buf[:, 3]).tobytes() == want.tobytes()


def test_symmetrize_min_max_hand_case():
    # of the directed similarities only s[0][1] = 0.75 and s[2][1] ~ 0.714
    # reach w = 0.6; at so small a sigma every other one is dropped
    sims = initial_similarities(DistanceMatrix(np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.2], [3.0, 1.2, 0.0]])))
    assert not prob_threshold_graph(sims, 0.6, 1e-6, 1e-3, symmetrize_rule="min").w.any()
    w = prob_threshold_graph(sims, 0.6, 1e-6, 1e-3, symmetrize_rule="max").w
    assert w[0, 1] == w[1, 0] == sims.s[0, 1]
    assert w[1, 2] == w[2, 1] == sims.s[2, 1]
    assert w[0, 2] == w[2, 0] == 0.0
    with pytest.raises(ParameterError, match="symmetrize rule must be one of"):
        prob_threshold_graph(sims, 0.6, 1e-6, 1e-3, symmetrize_rule="mean")
    with pytest.raises(ParameterError, match="symmetrize rule must be one of"):
        prob_criterion_graph(sims, 0.6, 1e-6, symmetrize_rule="mean", seed=0)


@given(st.integers(0, 2**31 - 1))
def test_symmetrize_min_below_max(seed):
    sims = initial_similarities(pairwise_distances(seeded_points(seed)))
    for build in (
        lambda rule: prob_threshold_graph(sims, 0.2, 0.05, 1e-6, rule),
        lambda rule: prob_criterion_graph(sims, 0.2, 0.05, rule, seed=seed),
    ):
        assert np.all(build("min").w <= build("max").w)


# ---------------------------------------------------------------------------
# probabilistic threshold graph

# exactly unit distances, so every initial similarity is exactly 0.5
EQUILATERAL = DistanceMatrix(np.ones((3, 3)) - np.eye(3))


def test_threshold_boundary_keeps_similarity():
    sims = initial_similarities(EQUILATERAL)
    g = prob_threshold_graph(sims, w_thresh=0.5, sigma=0.1, eps_weight=1e-6)
    off = g.w[~np.eye(3, dtype=bool)]
    assert np.all(off == 0.5)


def test_threshold_below_clamps_to_w():
    sims = initial_similarities(EQUILATERAL)
    w = 0.500001
    g = prob_threshold_graph(sims, w_thresh=w, sigma=0.1, eps_weight=1e-6)
    off = g.w[~np.eye(3, dtype=bool)]
    # the bump value at s ~ w exceeds w, so revived edges carry exactly w
    assert np.all(off == w)


def test_threshold_small_sigma_sparsifies():
    sims = initial_similarities(EQUILATERAL)
    g = prob_threshold_graph(sims, w_thresh=0.500001, sigma=1e-12, eps_weight=1e-6)
    assert g.n_edges() == 0


def test_threshold_respects_eps_weight_floor():
    pts = np.array([[0.0], [1.0], [10.0]])
    sims = initial_similarities(pairwise_distances(pts))
    w, sigma = 0.8, 0.05
    strict = prob_threshold_graph(sims, w, sigma, eps_weight=1e-3, symmetrize_rule="max")
    loose = prob_threshold_graph(sims, w, sigma, eps_weight=1e-30, symmetrize_rule="max")
    assert strict.n_edges() <= loose.n_edges()


def test_threshold_deterministic():
    sims = initial_similarities(pairwise_distances(seeded_points(5)))
    a = prob_threshold_graph(sims, 0.2, 0.05, 1e-6)
    b = prob_threshold_graph(sims, 0.2, 0.05, 1e-6)
    assert np.array_equal(a.w, b.w)


def test_threshold_parameter_domains():
    sims = initial_similarities(pairwise_distances(LINE4))
    for bad_w in (0.0, 1.0, -0.2):
        with pytest.raises(ParameterError):
            prob_threshold_graph(sims, bad_w, 0.1, 1e-6)
    with pytest.raises(ParameterError):
        prob_threshold_graph(sims, 0.5, 0.0, 1e-6)
    with pytest.raises(ParameterError):
        prob_threshold_graph(sims, 0.5, 0.1, 0.0)


# ---------------------------------------------------------------------------
# probabilistic criterion graph

# with these distances s[0][1] = 0.75 but s[1][0] = 1/(1 + 1/1.2) ~ 0.545,
# so with w = 0.6 exactly one direction is subject to a random draw
TRIPLE = DistanceMatrix(np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.2], [3.0, 1.2, 0.0]]))


def test_criterion_requires_seed():
    sims = initial_similarities(TRIPLE)
    with pytest.raises(ParameterError, match="seed"):
        prob_criterion_graph(sims, 0.6, 0.1)


def test_criterion_same_seed_same_graph():
    sims = initial_similarities(TRIPLE)
    a = prob_criterion_graph(sims, 0.6, 0.1, seed=9)
    b = prob_criterion_graph(sims, 0.6, 0.1, seed=9)
    assert np.array_equal(a.w, b.w)


def test_criterion_above_threshold_ignores_seed():
    # equilateral similarities are all 0.5; with w below that nothing draws
    sims = initial_similarities(EQUILATERAL)
    graphs = [prob_criterion_graph(sims, 0.4, 0.1, seed=s).w for s in range(10)]
    for g in graphs[1:]:
        assert np.array_equal(graphs[0], g)
        assert np.all(g[~np.eye(3, dtype=bool)] == 0.5)


def test_criterion_acceptance_frequency():
    """The kept (0,1) direction is deterministic; the (1,0) direction is the
    stream's first draw, so the min-symmetrized edge tracks f/f_peak."""
    sims = initial_similarities(TRIPLE)
    w, sigma = 0.6, 0.1
    s10 = sims.s[1, 0]
    p = math.exp(-((s10 - w) ** 2) / (2 * sigma**2))
    trials = 1000
    hits = 0
    for seed in range(trials):
        g = prob_criterion_graph(sims, w, sigma, symmetrize_rule="min", seed=seed)
        hits += g.w[0, 1] > 0
    freq = hits / trials
    se = math.sqrt(p * (1 - p) / trials)
    assert abs(freq - p) <= 4 * se


@st.composite
def criterion_cases(draw):
    n = draw(st.integers(3, 30))
    points = np.random.default_rng(draw(st.integers(0, 2**31 - 1))).normal(size=(n, 2))
    sims = initial_similarities(pairwise_distances(points))
    off = sims.s[~np.eye(n, dtype=bool)]
    level = draw(st.one_of(st.sampled_from(["none_below", "all_below"]), st.floats(0.2, 5.0)))
    if level == "none_below":
        w_thresh = off.min() / 2.0
    elif level == "all_below":
        w_thresh = (off.max() + 1.0) / 2.0
    else:
        w_thresh = min(level / (n - 1), 0.99)
    sigma = draw(st.floats(1e-3, 2.0)) / (n - 1)
    rule = draw(st.sampled_from(SYMMETRIZE_RULES))
    return sims, w_thresh, sigma, rule, draw(st.integers(0, 2**31 - 1))


@given(criterion_cases())
def test_criterion_matches_enumeration_reference(case):
    sims, w_thresh, sigma, rule, seed = case
    got = prob_criterion_graph(sims, w_thresh, sigma, rule, seed=seed).w
    want = prob_criterion_reference(sims, w_thresh, sigma, rule, seed=seed)
    assert got.tobytes() == want.tobytes()


@given(criterion_cases(), st.one_of(st.sampled_from([1e-300, 1e-3, 1.0]), st.floats(1e-12, 1e3)))
def test_threshold_matches_reference(case, eps_weight):
    sims, w_thresh, sigma, rule, _ = case
    got = prob_threshold_graph(sims, w_thresh, sigma, eps_weight, rule).w
    want = prob_threshold_reference(sims, w_thresh, sigma, eps_weight, rule)
    assert got.tobytes() == want.tobytes()


@given(st.integers(0, 2**31 - 1), st.lists(st.integers(0, 60), max_size=12))
def test_generator_random_in_chunks_gives_the_doubles_of_one_call(seed, chunks):
    # the criterion draws block by block and must consume the stream as one call would
    chunked = np.random.default_rng(seed)
    got = np.concatenate([np.empty(0)] + [chunked.random(size) for size in chunks])
    want = np.random.default_rng(seed).random(sum(chunks))
    assert got.tobytes() == want.tobytes()
    assert chunked.random() == np.random.default_rng(seed).random(sum(chunks) + 1)[-1]


@pytest.mark.parametrize("block_bytes", [2**10, 2**14, 2**20])
@pytest.mark.parametrize("rule", SYMMETRIZE_RULES)
@pytest.mark.parametrize("n", [150, 301])
def test_prob_builds_match_references_in_any_blocking(monkeypatch, block_bytes, rule, n):
    monkeypatch.setattr(dataset, "ROW_BLOCK_BYTES", block_bytes)
    sims = initial_similarities(pairwise_distances(seeded_points(n, n=n, p=3)))
    w_thresh, sigma = 2.0 / (n - 1), 0.5 / (n - 1)
    got = prob_criterion_graph(sims, w_thresh, sigma, rule, seed=n).w
    assert got.tobytes() == prob_criterion_reference(sims, w_thresh, sigma, rule, seed=n).tobytes()
    got = prob_threshold_graph(sims, w_thresh, sigma, 1e-3, rule).w
    assert got.tobytes() == prob_threshold_reference(sims, w_thresh, sigma, 1e-3, rule).tobytes()


def test_criterion_accepted_weight_is_clamped():
    sims = initial_similarities(TRIPLE)
    w, sigma = 0.6, 0.1
    for seed in range(50):
        g = prob_criterion_graph(sims, w, sigma, symmetrize_rule="min", seed=seed)
        if g.w[0, 1] > 0:
            # bump(s10) exceeds w here, so the revived weight is exactly w
            assert g.w[0, 1] == pytest.approx(w)
            break
    else:
        pytest.fail("no accepting seed found in 50 tries")


# ---------------------------------------------------------------------------
# dispatch, components, serialization

def test_models_tuple():
    assert MODELS == (
        "epsilon",
        "knn_symmetric",
        "knn_mutual",
        "fully_connected",
        "prob_threshold",
        "prob_criterion",
    )


def test_build_graph_missing_params():
    """Each model, missing any one of its required params, is refused with
    a message naming that field; a spec missing several names them all."""
    d = pairwise_distances(LINE4)
    full = GraphParams(epsilon=1.5, k=2, sigma=0.5, w_thresh=0.3, eps_weight=1e-6)
    requirements = {
        "epsilon": ("epsilon",),
        "knn_symmetric": ("k",),
        "knn_mutual": ("k",),
        "fully_connected": ("sigma",),
        "prob_threshold": ("w_thresh", "sigma", "eps_weight"),
        "prob_criterion": ("w_thresh", "sigma"),
    }
    assert REQUIRED_PARAMS == requirements
    for model, required in requirements.items():
        data = LINE4 if model in simgraph.KNN_MODELS else d
        assert build_graph(data, GraphSpec(model, full), seed=0).model == model
        for name in required:
            spec = GraphSpec(model, dataclasses.replace(full, **{name: None}))
            with pytest.raises(ParameterError, match=rf"^{model} needs params\.{name}$"):
                build_graph(data, spec, seed=0)
    with pytest.raises(ParameterError, match=r"^prob_threshold needs params\.w_thresh, params\.sigma, params\.eps_weight$"):
        build_graph(d, GraphSpec("prob_threshold", GraphParams()))
    with pytest.raises(ParameterError):
        GraphSpec("voronoi", GraphParams())


def test_build_graph_takes_precomputed_similarities():
    dist = pairwise_distances(seeded_points(2))
    spec = GraphSpec(model="prob_criterion", params=GraphParams(w_thresh=0.15, sigma=0.05, m=-2.0))
    sims = initial_similarities(dist, m=-2.0)
    shared = build_graph(dist, spec, seed=4, sims=sims)
    assert np.array_equal(shared.w, build_graph(dist, spec, seed=4).w)
    with pytest.raises(ParameterError, match="m = -1.0"):
        build_graph(dist, spec, seed=4, sims=initial_similarities(dist))


def test_build_graph_dispatches_every_model():
    pts = seeded_points(0, 6, 2)
    specs = [
        GraphSpec("epsilon", GraphParams(epsilon=1.5)),
        GraphSpec("knn_symmetric", GraphParams(k=2)),
        GraphSpec("knn_mutual", GraphParams(k=2)),
        GraphSpec("fully_connected", GraphParams(sigma=1.0)),
        GraphSpec("prob_threshold", GraphParams(w_thresh=0.3, sigma=0.1, eps_weight=1e-6)),
        GraphSpec("prob_criterion", GraphParams(w_thresh=0.3, sigma=0.1)),
    ]
    for spec in specs:
        g = build_graph(pts, spec, seed=1)
        assert g.model == spec.model


def components_oracle(adj):
    """Reachability by repeated boolean matrix squaring."""
    n = adj.shape[0]
    reach = (adj > 0) | np.eye(n, dtype=bool)
    for _ in range(n):
        reach = reach @ reach
    groups = {tuple(row.nonzero()[0].tolist()) for row in reach}
    return len(groups), reach


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=100)
def test_components_match_reachability_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 15))
    mask = rng.random((n, n)) < 0.15
    w = np.where(mask | mask.T, rng.uniform(0.1, 1.0, (n, n)), 0.0)
    w = np.triu(w, 1)
    w = w + w.T
    count, labels = connected_components(w)
    oracle_count, reach = components_oracle(w)
    assert count == oracle_count
    for i in range(n):
        for j in range(n):
            assert (labels[i] == labels[j]) == bool(reach[i, j])


@st.composite
def component_graphs(draw):
    """Weighted graphs built from planted blocks, with isolated vertices and
    up to one component per vertex."""
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    block = rng.integers(0, draw(st.integers(1, n)), size=n)
    density = draw(st.sampled_from([0.0, 0.1, 0.3, 0.8]))
    mask = np.triu((block[:, None] == block[None, :]) & (rng.random((n, n)) < density), 1)
    w = np.where(mask, rng.uniform(0.1, 1.0, (n, n)), 0.0)
    return w + w.T


@given(component_graphs())
@settings(max_examples=200)
def test_components_match_dfs_reference(w):
    count, labels = connected_components(w)
    ref_count, ref_labels = components_reference(w)
    assert count == ref_count
    assert np.array_equal(labels, ref_labels)


def test_component_labels_numbered_by_smallest_member():
    w = np.zeros((4, 4))
    w[2, 3] = w[3, 2] = 1.0  # vertices 0 and 1 isolated
    count, labels = connected_components(w)
    assert count == 3
    assert labels.tolist() == [0, 1, 2, 2]


def test_graph_json_roundtrip(tmp_path):
    d = pairwise_distances(seeded_points(2, 7, 2))
    g = build_graph(d, GraphSpec("prob_criterion", GraphParams(w_thresh=0.3, sigma=0.1)), seed=4)
    path = tmp_path / "g.json"
    write_graph_json(g, path)
    payload = json.loads(path.read_text())
    assert set(payload) == {"n", "model", "params", "seed", "triplets"}
    assert payload["triplets"] == upper_triplets(g.w)
    assert (payload["model"], payload["seed"]) == (g.model, 4)
