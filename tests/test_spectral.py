import contextlib
import ctypes
import itertools
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import example, given, settings, strategies as st

from spectralweak.bench import partition_matches
from spectralweak.dataset import pairwise_distances
from spectralweak import dataset, simgraph, spectral
from spectralweak.errors import NumericalError, ParameterError
from spectralweak.simgraph import (
    GraphParams,
    GraphSpec,
    SimilarityGraph,
    build_graph,
    connected_components,
    knn_graph,
)
from spectralweak.spectral import (
    Grouping,
    kmeans,
    smallest_k_eigenvectors,
    spectral_grouping,
)

from helpers import (
    kmeans_reference,
    knn_graph_reference,
    lloyd_reference,
    pool_flag,
    rw_laplacian_reference,
    sym_laplacian_buffer_reference,
    sym_laplacian_reference,
    two_blobs,
    unnormalized_laplacian,
    usable_cpus,
    write_synth_csv,
)


def graph_of(w):
    return SimilarityGraph(w=np.asarray(w, dtype=float), model="fully_connected", params=GraphParams())


def random_graph(seed, n=None, density=0.4, integer=False):
    rng = np.random.default_rng(seed)
    if n is None:
        n = int(rng.integers(3, 12))
    mask = np.triu(rng.random((n, n)) < density, 1)
    vals = rng.integers(1, 5, (n, n)).astype(float) if integer else rng.uniform(0.1, 2.0, (n, n))
    w = np.where(mask, vals, 0.0)
    w = w + w.T
    return graph_of(w)


# ---------------------------------------------------------------------------
# Laplacians

def test_unnormalized_single_edge():
    lap = unnormalized_laplacian(graph_of([[0.0, 1.0], [1.0, 0.0]]))
    assert np.array_equal(lap, [[1.0, -1.0], [-1.0, 1.0]])


def test_random_walk_triangle():
    # L_rw = I - W / 2 has eigenvalues 0 and 3/2 (twice)
    w = np.ones((3, 3)) - np.eye(3)
    emb = smallest_k_eigenvectors(graph_of(w), 3)
    assert np.allclose(emb.eigenvalues, [0.0, 1.5, 1.5], atol=1e-12)
    assert emb.clamped == ()


@given(st.integers(0, 2**31 - 1))
def test_unnormalized_rows_sum_to_zero(seed):
    lap = unnormalized_laplacian(random_graph(seed))
    assert np.max(np.abs(lap.sum(axis=1))) < 1e-10


@given(st.integers(0, 2**31 - 1))
def test_unnormalized_is_positive_semidefinite(seed):
    lap = unnormalized_laplacian(random_graph(seed))
    assert np.linalg.eigvalsh(lap).min() >= -1e-9


def textbook_laplacians(w):
    """L_rw = D^-1 L and L_sym = D^-1/2 L D^-1/2, zero degrees clamped to 1."""
    deg = w.sum(axis=1)
    deg_safe = np.where(deg == 0.0, 1.0, deg)
    lap = np.diag(deg) - w
    inv_sqrt = 1.0 / np.sqrt(deg_safe)
    return lap / deg_safe[:, None], lap * inv_sqrt[:, None] * inv_sqrt[None, :]


@given(st.integers(0, 2**31 - 1))
def test_rw_and_sym_share_eigenvalues(seed):
    g = random_graph(seed)
    rw, sym = textbook_laplacians(g.w)
    ev_rw = np.sort(np.linalg.eigvals(rw).real)
    ev_sym = np.linalg.eigvalsh(sym)
    assert np.max(np.abs(ev_rw - ev_sym)) < 1e-9
    emb = smallest_k_eigenvectors(g, g.n)
    assert np.max(np.abs(emb.eigenvalues - ev_rw)) < 1e-9


def eigh_input(graph, k):
    """The matrix smallest_k_eigenvectors hands to the dense eigh, and the
    embedding it returns."""
    seen = []
    real_eigh = scipy.linalg.eigh

    def capture(a, *args, **kwargs):
        seen.append(np.array(a))
        return real_eigh(a, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scipy.linalg, "eigh", capture)
        emb = smallest_k_eigenvectors(graph, k)
    assert emb.solver == "eigh" and len(seen) == 1
    return seen[0], emb


@given(st.integers(0, 2**31 - 1), st.booleans(), st.integers(0, 3))
def test_eigh_input_bitwise_equals_the_route_through_rw(seed, integer, isolated):
    # L_sym straight from W must carry the bits of L_sym rebuilt from L_rw,
    # isolated (clamped) vertices included
    w = random_graph(seed, density=0.5, integer=integer).w
    w = np.pad(w, (0, isolated))
    g = graph_of(w)
    got, emb = eigh_input(g, 2)
    assert got.tobytes() == sym_laplacian_reference(w).tobytes()
    clamped = emb.clamped
    assert clamped == tuple(int(i) for i in np.flatnonzero(w.sum(axis=1) == 0.0))
    assert set(range(w.shape[0] - isolated, w.shape[0])) <= set(clamped)


@given(st.integers(0, 2**31 - 1), st.integers(0, 3), st.sampled_from([2**6, 2**10, 2**20]))
def test_sym_laplacian_matches_the_former_buffer(seed, isolated, block_bytes):
    w = np.pad(random_graph(seed, n=int(np.random.default_rng(seed).integers(2, 60)), density=0.5).w, (0, isolated))
    deg = w.sum(axis=1)
    deg_safe = np.where(deg == 0.0, 1.0, deg)
    inv_sqrt = 1.0 / np.sqrt(deg_safe)
    want = sym_laplacian_buffer_reference(w, deg, deg_safe, inv_sqrt)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "ROW_BLOCK_BYTES", block_bytes)
        got, (got_deg, got_safe, got_inv_sqrt) = spectral._sym_laplacian(w)
    assert got.flags.f_contiguous
    assert got.tobytes() == want.tobytes()
    for a, b in ((got_deg, deg), (got_safe, deg_safe), (got_inv_sqrt, inv_sqrt)):
        assert a.tobytes() == b.tobytes()


def test_eigh_takes_its_input_without_a_copy(monkeypatch):
    g = prob_graph(seed=3, n=200)
    seen = []
    real_eigh = scipy.linalg.eigh

    def spy(a, *args, **kwargs):
        seen.append((a.flags.f_contiguous, kwargs.get("overwrite_a")))
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", spy)
    assert smallest_k_eigenvectors(g, 3).solver == "eigh"
    assert seen == [(True, True)]


def test_zero_degree_vertex_is_clamped():
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = 1.0
    emb = smallest_k_eigenvectors(graph_of(w), 2)
    assert emb.clamped == (2,)
    # the isolated vertex keeps an all-zero row, hence an eigenvalue-zero
    # indicator inside the span of the two zero-eigenvalue vectors
    assert np.all(np.abs(emb.eigenvalues) < 1e-12)
    _, resid, _, _ = np.linalg.lstsq(emb.vectors, [0.0, 0.0, 1.0], rcond=None)
    assert resid[0] < 1e-20


def test_permutation_equivariance_exact():
    # integer weights make row sums exact, so equality is bitwise
    g = random_graph(7, n=9, integer=True)
    perm = np.random.default_rng(1).permutation(9)
    gp = graph_of(g.w[np.ix_(perm, perm)])
    sym, _ = eigh_input(g, 2)
    sym_p, _ = eigh_input(gp, 2)
    assert np.array_equal(sym_p, sym[np.ix_(perm, perm)])


# ---------------------------------------------------------------------------
# eigenvectors

def test_embedding_k_bounds():
    g = graph_of([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ParameterError):
        smallest_k_eigenvectors(g, 0)
    with pytest.raises(ParameterError):
        smallest_k_eigenvectors(g, 3)


def test_connected_graph_first_eigenpair():
    g = random_graph(3, n=8, density=0.9)
    assert connected_components(g.w)[0] == 1
    emb = smallest_k_eigenvectors(g, 1)
    assert abs(emb.eigenvalues[0]) < 1e-10
    v = emb.vectors[:, 0]
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    # constant direction: all entries equal and positive after sign fixing
    assert np.max(np.abs(v - 1.0 / np.sqrt(8))) < 1e-8


def test_embedding_columns_unit_norm_positive_pivot():
    g = random_graph(11, n=10, density=0.8)
    emb = smallest_k_eigenvectors(g, 4)
    norms = np.linalg.norm(emb.vectors, axis=0)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    for col in emb.vectors.T:
        assert col[np.argmax(np.abs(col))] > 0


def test_full_spectrum_matches_dense_eigensolver():
    g = random_graph(5, n=6, density=1.0)
    emb = smallest_k_eigenvectors(g, 6)
    rw, _ = textbook_laplacians(g.w)
    reference = np.sort(np.linalg.eigvals(rw).real)
    assert np.max(np.abs(emb.eigenvalues - reference)) < 1e-8
    resid = rw @ emb.vectors - emb.vectors * emb.eigenvalues[None, :]
    assert np.max(np.linalg.norm(resid, axis=0)) < 1e-8


def unit_columns_reference(inv_sqrt, vecs):
    """D^-1/2 v normalized, then each column's largest-magnitude entry (the
    first on ties) made positive, one column at a time."""
    u = inv_sqrt[:, None] * vecs
    u = u / np.linalg.norm(u, axis=0)
    for col in range(u.shape[1]):
        pivot = int(np.argmax(np.abs(u[:, col])))
        if u[pivot, col] < 0:
            u[:, col] = -u[:, col]
    return u


@given(st.integers(0, 2**31 - 1), st.integers(1, 9), st.integers(1, 4))
def test_unit_columns_match_the_column_loop(seed, n, k):
    # small integers give ties for the pivot, zeros give signed zeros
    rng = np.random.default_rng(seed)
    vecs = rng.integers(-2, 3, (n, k)).astype(float)
    vecs[0] = np.where(np.all(vecs == 0.0, axis=0), 1.0, vecs[0])
    inv_sqrt = rng.choice([0.5, 1.0, 1.0 / np.sqrt(3.0)], n)
    got = spectral._unit_columns(inv_sqrt, vecs)
    assert got.tobytes() == unit_columns_reference(inv_sqrt, vecs).tobytes()


def two_clique_graph(sizes=(3, 4)):
    n = sum(sizes)
    w = np.zeros((n, n))
    start = 0
    for size in sizes:
        block = slice(start, start + size)
        w[block, block] = 1.0
        start += size
    np.fill_diagonal(w, 0.0)
    return graph_of(w), np.repeat(np.arange(len(sizes)), sizes)


def test_two_cliques_zero_multiplicity_and_indicators():
    g, truth = two_clique_graph()
    emb = smallest_k_eigenvectors(g, 3)
    assert np.all(np.abs(emb.eigenvalues[:2]) < 1e-10)
    assert emb.eigenvalues[2] > 0.1
    # embedding rows coincide within a clique
    rows = emb.vectors[:, :2]
    for group in (0, 1):
        members = rows[truth == group]
        assert np.max(np.abs(members - members[0])) < 1e-8


@given(st.integers(0, 2**31 - 1), st.integers(1, 4))
@settings(max_examples=40)
def test_zero_eigenvalue_multiplicity_counts_components(seed, blocks):
    rng = np.random.default_rng(seed)
    parts = [random_graph(int(rng.integers(0, 2**31)), n=int(rng.integers(2, 5)), density=1.0).w
             for _ in range(blocks)]
    n = sum(p.shape[0] for p in parts)
    w = np.zeros((n, n))
    at = 0
    for p in parts:
        w[at:at + p.shape[0], at:at + p.shape[0]] = p
        at += p.shape[0]
    g = graph_of(w)
    count, _ = connected_components(w)
    emb = smallest_k_eigenvectors(g, n)
    assert int(np.sum(np.abs(emb.eigenvalues) < 1e-8)) == count == blocks


# ---------------------------------------------------------------------------
# eigensolver routes: ARPACK for connected kNN graphs, dense eigh otherwise

def blob_points(seed, n, p=5):
    rng = np.random.default_rng(seed)
    centres = np.zeros((2, p))
    centres[1, 0] = 3.0
    return rng.normal(centres[rng.integers(0, 2, n)], 1.0)


def dense_route(graph):
    """The same weights under a model that only eigh solves."""
    return SimilarityGraph(w=graph.w.toarray(), model="fully_connected", params=graph.params)


@pytest.mark.parametrize(
    "seed, n, k, neighbours, mode",
    [
        (0, 300, 2, 10, "symmetric"),
        (1, 300, 3, 25, "mutual"),
        (2, 600, 3, 10, "symmetric"),
        (3, 1000, 2, 10, "symmetric"),
    ],
)
def test_arpack_agrees_with_dense_on_knn_graphs(seed, n, k, neighbours, mode):
    g = knn_graph(blob_points(seed, n), neighbours, mode=mode)
    assert connected_components(g)[0] == 1
    sparse = smallest_k_eigenvectors(g, k)
    dense = smallest_k_eigenvectors(dense_route(g), k)
    assert (sparse.solver, dense.solver) == ("eigsh", "eigh")
    assert np.max(np.abs(sparse.eigenvalues - dense.eigenvalues)) < 1e-8
    a = kmeans(sparse.vectors, k, seed=seed).grouping
    b = kmeans(dense.vectors, k, seed=seed).grouping
    assert partition_matches(a.assignments, b.assignments)


def test_disconnected_knn_graph_takes_dense_route():
    pts = blob_points(4, 80)
    pts[40:, 1] += 1000.0
    g = knn_graph(pts, 5)
    assert connected_components(g)[0] == 2
    emb = smallest_k_eigenvectors(g, 2)
    assert emb.solver == "eigh"
    assert np.all(np.abs(emb.eigenvalues) < 1e-8)


def test_clamped_knn_graph_takes_dense_route():
    # mutual 1-NN on a line: 2.5 and 5.0 are nobody's mutual neighbour
    g = knn_graph(np.array([[0.0], [1.0], [2.5], [5.0]]), 1, mode="mutual")
    emb = smallest_k_eigenvectors(g, 2)
    assert emb.clamped == (2, 3)
    assert emb.solver == "eigh"


def test_route_follows_the_graph_model():
    g = knn_graph(blob_points(5, 200), 10)
    as_prob = SimilarityGraph(w=g.w.toarray(), model="prob_threshold", params=g.params)
    assert smallest_k_eigenvectors(g, 2).solver == "eigsh"
    assert smallest_k_eigenvectors(as_prob, 2).solver == "eigh"
    # ARPACK needs k < n - 1
    small = knn_graph(blob_points(6, 6), 3)
    assert smallest_k_eigenvectors(small, 4).solver == "eigsh"
    assert smallest_k_eigenvectors(small, 5).solver == "eigh"


@pytest.mark.parametrize("model", ["prob_threshold", "prob_criterion"])
def test_prob_graphs_take_dense_route(model):
    d = pairwise_distances(blob_points(7, 60))
    n = d.n
    params = GraphParams(w_thresh=2.0 / (n - 1), sigma=1.0 / (n - 1), eps_weight=1e-3)
    g = build_graph(d, GraphSpec(model, params), seed=0)
    assert smallest_k_eigenvectors(g, 2).solver == "eigh"


def test_arpack_no_convergence_falls_back_to_dense(monkeypatch):
    g = knn_graph(blob_points(8, 300), 10)
    want = smallest_k_eigenvectors(dense_route(g), 2)

    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", np.empty(0), np.empty((300, 0)))

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    got = smallest_k_eigenvectors(g, 2)
    assert got.solver == "eigh"
    assert np.array_equal(got.vectors, want.vectors)


def test_dense_fallback_is_refused_above_its_size(monkeypatch):
    pts = blob_points(4, 80)
    pts[40:, 1] += 1000.0
    g = knn_graph(pts, 5)
    monkeypatch.setattr(spectral, "DENSE_FALLBACK_MAX_N", 79)
    with pytest.raises(NumericalError, match=r"kNN graph of 80 vertices .* has 2 connected components"):
        smallest_k_eigenvectors(g, 2)
    monkeypatch.setattr(spectral, "DENSE_FALLBACK_MAX_N", 80)
    assert smallest_k_eigenvectors(g, 2).solver == "eigh"


def test_arpack_failure_above_the_fallback_size_is_an_error(monkeypatch):
    g = knn_graph(blob_points(8, 300), 10)

    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", np.empty(0), np.empty((300, 0)))

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    monkeypatch.setattr(spectral, "DENSE_FALLBACK_MAX_N", 299)
    with pytest.raises(NumericalError, match="ARPACK failed on it"):
        smallest_k_eigenvectors(g, 2)


def test_connected_knn_solve_densifies_nothing(monkeypatch):
    g = knn_graph(blob_points(9, 300), 10)

    def refuse(self, *args, **kwargs):
        raise AssertionError("a CSR array was densified")

    monkeypatch.setattr(scipy.sparse.csr_array, "toarray", refuse)
    assert smallest_k_eigenvectors(g, 2).solver == "eigsh"


@pytest.mark.parametrize("mode", ["symmetric", "mutual"])
def test_arpack_input_has_the_dense_route_bits(mode):
    # N as it was built from a dense W: evaluated on np.nonzero(W), converted from COO
    pts = blob_points(10, 400)
    g = knn_graph(pts, 10, mode=mode)
    want, _ = knn_graph_reference(pairwise_distances(pts), 10, mode=mode)
    deg = want.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(np.where(deg == 0.0, 1.0, deg))
    rows, cols = np.nonzero(want)
    ref = scipy.sparse.csr_array((want[rows, cols] * (inv_sqrt[rows] * inv_sqrt[cols]), (rows, cols)), shape=want.shape)
    got = spectral._normalized_adjacency(g.w, inv_sqrt)
    assert got.data.tobytes() == ref.data.tobytes()
    assert np.array_equal(got.indices, ref.indices)
    assert np.array_equal(got.indptr, ref.indptr)


# ---------------------------------------------------------------------------
# every eigensolve runs in one `_scipy_blas` block: ARPACK on one thread of
# scipy's OpenBLAS pool, the dense route at its count, the pool parked after

def scipy_pool_threads():
    """get_num_threads of scipy's OpenBLAS; skips where none is found."""
    found = spectral._scipy_openblas()
    if found is None:
        pytest.skip("no OpenBLAS with a pool shutdown found for scipy")
    return found.get


def test_pin_finds_scipys_openblas():
    if not sys.platform.startswith("linux"):
        pytest.skip("pool_flag reads /proc/self/maps")
    blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if "openblas" not in blas:
        pytest.skip(f"scipy is built on {blas}")
    found = spectral._scipy_openblas()
    assert found is not None
    # numpy's copy exports these names with a 64_ suffix
    assert [f.__name__ for f in found] in (
        ["scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads", "blas_thread_shutdown_"],
        ["openblas_get_num_threads", "openblas_set_num_threads", "blas_thread_shutdown_"],
    )
    assert isinstance(pool_flag(), ctypes.c_int)


# The first solve of a fresh interpreter, on the route named by argv[1]. The
# package loads scipy at first use, and `_scipy_openblas` caches what it finds,
# so the dense route must not load scipy before its solve. Prints whether
# scipy's OpenBLAS was found, its thread count and its pool flag afterwards.
FIRST_SOLVE = """
import json, sys
import numpy as np
from spectralweak import spectral
from spectralweak.simgraph import GraphParams, SimilarityGraph, knn_graph

route = sys.argv[1]
rng = np.random.default_rng(5)
if route == "eigh":
    w = rng.uniform(0.1, 1.0, (440, 440))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    graph = SimilarityGraph(w=w, model="fully_connected", params=GraphParams())
    assert not any(m.startswith("scipy") for m in sys.modules)
else:
    graph = knn_graph(rng.normal(size=(1000, 5)), 10, sigma=1.0)
assert spectral.smallest_k_eigenvectors(graph, 3).solver == route
from helpers import pool_flag

found, flag = spectral._scipy_openblas(), pool_flag()
print(json.dumps([found is not None, None if found is None else found.get(), None if flag is None else flag.value]))
"""


def run_at_two_blas_threads(script, *argv):
    """The JSON of the last line `script` prints, run with `argv` in a fresh
    interpreter at two OpenBLAS threads; skips where scipy's OpenBLAS pool
    or a second CPU is not to be had."""
    if not sys.platform.startswith("linux"):
        pytest.skip("pool_flag reads /proc/self/maps")
    if "openblas" not in scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]:
        pytest.skip("scipy is not built on OpenBLAS")
    if usable_cpus() < 2:
        pytest.skip("needs 2 usable CPUs")
    tests = Path(__file__).resolve().parent
    src = str(Path(spectral.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": os.pathsep.join((src, str(tests)))}
    done = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("route", ["eigh", "eigsh"])
def test_first_solve_of_a_fresh_interpreter_parks_scipys_pool(route):
    found, threads, flag = run_at_two_blas_threads(FIRST_SOLVE, route)
    assert found  # not a None cached before scipy's OpenBLAS was mapped
    assert threads == 2  # the count the pool started with, restored after ARPACK's one thread
    assert flag == 0  # parked


# Commands run one after another in one interpreter, numpy's OpenBLAS pool
# shut down first. After each: numpy's pool flag and thread count, then
# scipy's. OpenBLAS threads a product only above a size, so the annotate
# pools hold about 1,000 rows each and the grid's dense graphs 470.
COMMANDS = """
import json, sys
from spectralweak import cli, spectral
from helpers import openblas, pool_flag

numpy_blas = openblas("numpy")
numpy_blas.blas_thread_shutdown_()
reads = []
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
    reads.append([
        argv[0],
        pool_flag("numpy").value, numpy_blas.scipy_openblas_get_num_threads64_(),
        pool_flag("scipy").value, spectral._scipy_openblas().get(),
    ])
print(json.dumps(reads))
"""


def test_commands_leave_both_blas_pools_parked(tmp_path):
    # numpy's pool is never woken, and scipy's is parked after every
    # eigensolve, at the count it started with
    if pool_flag("numpy") is None or pool_flag("scipy") is None:
        pytest.skip("no pool flag found for numpy's or scipy's OpenBLAS")
    pools = write_synth_csv(tmp_path / "pools.csv", n_features=5, disordered_bag_size=(40, 60))
    grid = write_synth_csv(tmp_path / "grid.csv", bags_per_class=10)
    n = len(grid.read_text().splitlines()) - 1
    commands = [
        ["annotate", "--data", str(pools), "--strong-label", "normal", "--model", "knn_symmetric", "--k", "10",
         "--out", str(tmp_path / "annotate")],
        ["group", "--data", str(grid), "--groups", "3", "--model", "prob_threshold", "--symmetrize", "min",
         "--eps-weight", "1e-3", "--w", f"{1.0 / (n - 1)!r},{2.0 / (n - 1)!r}", "--sigma", repr(1.0 / (n - 1)),
         "--out", str(tmp_path / "group")],
        ["evaluate", "--data", str(pools), "--strong-label", "normal", "--classifier", "logistic",
         "--out", str(tmp_path / "evaluate")],
    ]
    reads = run_at_two_blas_threads(COMMANDS, json.dumps(commands))
    assert reads == [[argv[0], 0, 2, 0, 2] for argv in commands]


def spy_on_eigsh(monkeypatch, get_threads, fail=False):
    """Record the pool's thread count at every eigsh call, then solve, or
    raise ArpackNoConvergence when `fail`."""
    real_eigsh = scipy.sparse.linalg.eigsh
    seen = []

    def eigsh(a, *args, **kwargs):
        seen.append(get_threads())
        if fail:
            raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", np.empty(0), np.empty((a.shape[0], 0)))
        return real_eigsh(a, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", eigsh)
    return seen


def test_arpack_runs_on_one_blas_thread_and_restores_the_count(monkeypatch):
    get_threads = scipy_pool_threads()
    seen = spy_on_eigsh(monkeypatch, get_threads)
    with spectral._scipy_blas(2):
        emb = smallest_k_eigenvectors(knn_graph(blob_points(11, 300), 10), 2)
        assert get_threads() == 2
    assert emb.solver == "eigsh"
    assert seen == [1]


def test_blas_thread_count_is_restored_when_arpack_does_not_converge(monkeypatch):
    get_threads = scipy_pool_threads()
    g = knn_graph(blob_points(12, 300), 10)
    seen = spy_on_eigsh(monkeypatch, get_threads, fail=True)
    with spectral._scipy_blas(2):
        assert smallest_k_eigenvectors(g, 2).solver == "eigh"
        assert get_threads() == 2
    assert seen == [1]


@pytest.mark.parametrize("seed, n", [(13, 1000), (14, 3000)])
def test_arpack_eigenpairs_bitwise_equal_on_one_and_two_threads(monkeypatch, seed, n):
    scipy_pool_threads()
    g = knn_graph(blob_points(seed, n), 10)
    with spectral._scipy_blas(2):
        pinned = smallest_k_eigenvectors(g, 3)
        monkeypatch.setattr(spectral, "_scipy_blas", lambda count=None: contextlib.nullcontext())
        unpinned = smallest_k_eigenvectors(g, 3)
    assert pinned.solver == unpinned.solver == "eigsh"
    assert pinned.vectors.tobytes() == unpinned.vectors.tobytes()
    assert pinned.eigenvalues.tobytes() == unpinned.eigenvalues.tobytes()


def block_diagonal_graph(seed, blocks=4, size=120):
    """Dense random weights within each of `blocks` blocks, none between."""
    rng = np.random.default_rng(seed)
    n = blocks * size
    w = np.zeros((n, n))
    for lo in range(0, n, size):
        b = rng.uniform(0.1, 1.0, (size, size))
        w[lo : lo + size, lo : lo + size] = (b + b.T) / 2.0
    np.fill_diagonal(w, 0.0)
    return SimilarityGraph(w=w, model="prob_threshold", params=GraphParams())


@pytest.mark.xfail(
    strict=True,
    reason="with more components than groups, eigenvalue 0 is repeated and the dense eigh's basis of "
    "its eigenspace, and so the grouping, follows scipy's BLAS thread count",
)
def test_groupings_of_graphs_with_more_components_than_groups_ignore_the_thread_count():
    if usable_cpus() < 2:
        pytest.skip("needs 2 usable CPUs")
    scipy_pool_threads()
    for seed in range(12):
        g = block_diagonal_graph(seed)
        with spectral._scipy_blas(1):
            one = spectral_grouping(g, 3, seed=0)
        with spectral._scipy_blas(2):
            two = spectral_grouping(g, 3, seed=0)
        assert partition_matches(one.assignments, two.assignments), f"seed {seed}"


def spy_on_pool(monkeypatch):
    """The pool as `_scipy_blas` sees it, with every count it sets and every
    shutdown recorded, then made; a two-thread stand-in where no OpenBLAS is
    found."""
    found = spectral._scipy_openblas()
    if found is None:
        count = [2]
        found = spectral._OpenBlas(lambda: count[0], lambda n: count.__setitem__(0, n), lambda: 0)
    actions = []
    spy = spectral._OpenBlas(
        found.get,
        lambda n: actions.append(("set", n)) or found.set(n),
        lambda: actions.append("shutdown") or found.shutdown(),
    )
    monkeypatch.setattr(spectral, "_scipy_openblas", lambda: spy)
    return spy, actions


PIN = [("set", 1), "shutdown", ("set", 2), "shutdown"]  # ARPACK's `_scipy_blas(1)` inside a count of 2
POOL_ACTIONS = {
    "arpack": PIN,
    "dense": ["shutdown"],
    "arpack-fails-into-dense": [*PIN, "shutdown"],
    "dense-eigh-raises": ["shutdown"],
}


@pytest.mark.parametrize("route", POOL_ACTIONS)
def test_every_route_leaves_the_pool_parked_at_its_count(monkeypatch, route):
    g = connected_knn_graph() if route.startswith("arpack") else prob_graph()
    spy, actions = spy_on_pool(monkeypatch)
    if route == "arpack-fails-into-dense":
        spy_on_eigsh(monkeypatch, spy.get, fail=True)
    if route == "dense-eigh-raises":

        def eigh(*args, **kwargs):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(scipy.linalg, "eigh", eigh)
    with spectral._scipy_blas(2):
        actions.clear()
        if route == "dense-eigh-raises":
            with pytest.raises(NumericalError, match="eigendecomposition failed"):
                smallest_k_eigenvectors(g, 3)
        else:
            assert smallest_k_eigenvectors(g, 3).solver == ("eigsh" if route == "arpack" else "eigh")
        assert actions == POOL_ACTIONS[route]  # the last is a shutdown
        assert spy.get() == 2
        live = pool_flag()
        if live is not None:
            assert live.value == 0


def live_threads():
    return len(os.listdir("/proc/self/task"))


def test_dense_route_leaves_no_scipy_worker_running():
    # counted, not timed: a worker left in place is a thread of the process
    if usable_cpus() < 2:
        pytest.skip("needs 2 usable CPUs")
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("counts threads through /proc/self/task")
    if scipy_pool_threads()() < 2:
        pytest.skip("scipy's pool has one thread")
    g = prob_graph(seed=21, n=440)
    assert smallest_k_eigenvectors(g, 3).solver == "eigh"
    parked = live_threads()
    scipy.linalg.eigh(spectral._sym_laplacian(g.w)[0], subset_by_index=(0, 2))
    assert parked < live_threads()


def process_cpu_over_a_sleep(seconds=0.1):
    start = time.process_time()
    time.sleep(seconds)
    return time.process_time() - start


def test_arpack_after_a_dense_solve_leaves_no_worker_spinning():
    # setting the count for the pin starts a parked pool's workers again, and
    # a pool found live stays live through it; in both orders the pin shuts
    # the pool down again, so no thread is added and none spins
    if usable_cpus() < 2:
        pytest.skip("needs 2 usable CPUs")
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("counts threads through /proc/self/task")
    get_threads = scipy_pool_threads()
    if get_threads() < 2:
        pytest.skip("scipy's pool has one thread")
    live = pool_flag()
    if live is None:
        pytest.skip("no pool flag found for scipy's OpenBLAS")
    dense, knn = prob_graph(seed=21, n=440), connected_knn_graph(seed=27, n=1000)
    time.sleep(0.2)  # outlasts the spin of any BLAS call made before this test
    assert smallest_k_eigenvectors(dense, 3).solver == "eigh"
    parked = live_threads()
    assert live.value == 0
    for pool in ("parked", "live"):
        if pool == "live":
            spectral._scipy_openblas().set(get_threads())  # setting the count starts a parked pool
            assert live.value
        assert smallest_k_eigenvectors(knn, 3).solver == "eigsh"
        assert live_threads() == parked
        assert live.value == 0
        assert get_threads() >= 2
        # a spinning worker burns about one CPU-second per second
        assert process_cpu_over_a_sleep() < 0.05, pool


def assert_same_embeddings(got, want):
    assert [e.solver for e in got] == [e.solver for e in want]
    for a, b in zip(got, want):
        assert a.vectors.tobytes() == b.vectors.tobytes()
        assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()


@pytest.mark.parametrize("seed, n", [(22, 100), (23, 440), (24, 900), (25, 2000)])
def test_dense_eigenpairs_bitwise_equal_parked_and_unparked(monkeypatch, seed, n):
    # the parked solves start on a live pool, then on a parked one; the
    # unparked ones on a parked pool, then on a live one, as the parent's did
    get_threads = scipy_pool_threads()
    g = prob_graph(seed, n)
    with spectral._scipy_blas(2):
        spectral._scipy_openblas().set(2)  # setting the count starts a parked pool
        parked = [smallest_k_eigenvectors(g, 3) for _ in range(2)]
        assert get_threads() == 2
        monkeypatch.setattr(spectral, "_scipy_blas", lambda count=None: contextlib.nullcontext())
        unparked = [smallest_k_eigenvectors(g, 3) for _ in range(2)]
    assert parked[0].solver == "eigh"
    assert_same_embeddings(parked + unparked, unparked[1:] * 4)


def test_dense_arpack_dense_sequence_keeps_its_bits(monkeypatch):
    # annotate on a pool whose graphs for one label are disconnected: a dense
    # solve, then ARPACK, whose pin starts the parked pool again, then dense
    scipy_pool_threads()
    graphs = []
    for seed in (26, 28):
        pts = blob_points(seed, 400)
        pts[200:, 1] += 1000.0
        graphs.append(knn_graph(pts, 10))
    graphs.insert(1, connected_knn_graph(seed=27, n=1000))
    with spectral._scipy_blas(2):
        parked = [smallest_k_eigenvectors(g, 3) for g in graphs]
        monkeypatch.setattr(spectral, "_scipy_blas", lambda count=None: contextlib.nullcontext())
        unparked = [smallest_k_eigenvectors(g, 3) for g in graphs]
    assert [e.solver for e in parked] == ["eigh", "eigsh", "eigh"]
    assert_same_embeddings(parked, unparked)


# ---------------------------------------------------------------------------
# eigen residual check

def prob_graph(seed=7, n=60):
    d = pairwise_distances(blob_points(seed, n))
    params = GraphParams(w_thresh=2.0 / (d.n - 1), sigma=1.0 / (d.n - 1), eps_weight=1e-3)
    return build_graph(d, GraphSpec("prob_threshold", params), seed=0)


def connected_knn_graph(seed=5, n=200):
    g = knn_graph(blob_points(seed, n), 10)
    assert connected_components(g)[0] == 1
    return g


def perturb_second_column(vals, vecs):
    vecs = np.array(vecs)
    vecs[:, 1] += 1e-3 * np.linspace(-1.0, 1.0, vecs.shape[0])
    return vals, vecs


def test_residual_check_rejects_a_perturbed_dense_eigenvector(monkeypatch):
    real_eigh = scipy.linalg.eigh
    monkeypatch.setattr(scipy.linalg, "eigh", lambda *a, **kw: perturb_second_column(*real_eigh(*a, **kw)))
    with pytest.raises(NumericalError, match=r"eigenpair residual .* exceeds tolerance for columns \[1\]"):
        smallest_k_eigenvectors(prob_graph(), 3)


def test_residual_check_rejects_a_perturbed_arpack_eigenvector(monkeypatch):
    g = connected_knn_graph()
    assert smallest_k_eigenvectors(g, 3).solver == "eigsh"
    # eigsh's ascending column 1 stays column 1 of the k = 3 smallest of L_sym
    real_eigsh = scipy.sparse.linalg.eigsh
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", lambda *a, **kw: perturb_second_column(*real_eigsh(*a, **kw)))
    with pytest.raises(NumericalError, match=r"eigenpair residual .* exceeds tolerance for columns \[1\]"):
        smallest_k_eigenvectors(g, 3)


def numpy_residual(w, u, vals):
    """L_rw u - u diag(vals) with L_rw formed densely and a numpy product."""
    return rw_laplacian_reference(w) @ u - u * vals[None, :]


# ids name the Laplacian whose residual is checked
@pytest.mark.parametrize(
    "make_graph, solver",
    [(prob_graph, "eigh"), (connected_knn_graph, "eigsh")],
    ids=["prob_laplacian-eigh", "knn_laplacian-eigsh"],
)
def test_residual_matches_the_numpy_product(make_graph, solver, monkeypatch):
    g = make_graph()
    seen = []
    real_residual = spectral._residual
    monkeypatch.setattr(spectral, "_residual", lambda *args: seen.append(real_residual(*args)) or seen[-1])
    emb = smallest_k_eigenvectors(g, 3)
    assert emb.solver == solver and len(seen) == 1
    u, vals = emb.vectors, emb.eigenvalues
    diff = seen[0] - numpy_residual(g.w, u, vals)
    # the two differ in rounding only, far below the check's 1e-8 * |u|; a
    # zero-eigenvalue column's L_rw u is itself rounding, so |u| is the scale
    assert np.all(np.linalg.norm(diff, axis=0) <= 1e-12 * np.linalg.norm(u, axis=0))


@pytest.mark.parametrize("make_graph", [prob_graph, connected_knn_graph], ids=["prob_laplacian", "knn_laplacian"])
def test_embedding_bitwise_equal_under_the_numpy_residual(make_graph, monkeypatch):
    g = make_graph()
    got = smallest_k_eigenvectors(g, 3)
    monkeypatch.setattr(spectral, "_residual", lambda wu, deg, deg_safe, u, vals: numpy_residual(g.w, u, vals))
    want = smallest_k_eigenvectors(g, 3)
    assert got.solver == want.solver
    assert got.vectors.tobytes() == want.vectors.tobytes()
    assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()


# ---------------------------------------------------------------------------
# memory of the spectral step

@pytest.mark.parametrize(
    "make_graph, n, budget",
    [
        # ARPACK on the CSR N: nothing n x n beside W
        (lambda n: connected_knn_graph(seed=0, n=n), 2000, 0.25),
        # dense eigh: L_sym, symmetrized in place
        (lambda n: prob_graph(seed=0, n=n), 1000, 2.5),
    ],
    ids=["knn_symmetric", "prob_threshold"],
)
def test_spectral_step_memory_budget(make_graph, n, budget):
    g = make_graph(n)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        smallest_k_eigenvectors(g, 2)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < budget * 8 * n * n, f"peak {peak} B = {peak / (8 * n * n):.2f} dense n x n arrays"


@pytest.mark.parametrize("model", ["prob_threshold", "prob_criterion"])
def test_dense_prob_route_memory_budget(model):
    # Beyond the distance and similarity matrices a grid search shares: the
    # build holds W and block temporaries, the eigensolve L_sym beside W.
    # With whole-matrix temporaries the builds peaked at 3.1 (threshold) and
    # 5.4 (criterion) n x n arrays and the eigensolve at 2.0.
    n = 1500
    d = pairwise_distances(blob_points(0, n))
    sims = simgraph.initial_similarities(d)
    params = GraphParams(w_thresh=2.0 / (n - 1), sigma=0.25 / (n - 1), eps_weight=1e-3)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        g = build_graph(d, GraphSpec(model, params), seed=0, sims=sims)
        build = tracemalloc.get_traced_memory()[1] - base
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        emb = smallest_k_eigenvectors(g, 3)
        solve = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert emb.solver == "eigh"
    nn = 8 * n * n
    assert build <= 2.5 * nn, f"build peak {build / nn:.2f} n x n arrays"
    assert solve <= 1.5 * nn, f"eigensolve peak {solve / nn:.2f} n x n arrays"


def test_knn_route_memory_budget_from_coordinates():
    # graph build and ARPACK eigensolve from coordinates: no n x n array anywhere
    n = 3000
    pts = blob_points(0, n)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        g = build_graph(pts, GraphSpec("knn_symmetric", GraphParams(k=10)))
        emb = smallest_k_eigenvectors(g, 2)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert emb.solver == "eigsh"
    assert peak < 0.1 * 8 * n * n, f"peak {peak} B = {peak / (8 * n * n):.2f} dense n x n arrays"


# ---------------------------------------------------------------------------
# k-means

def test_kmeans_k_equals_n_zero_objective():
    pts = np.array([[0.0], [1.0], [5.0], [9.0]])
    res = kmeans(pts, 4, seed=0)
    assert res.objective == pytest.approx(0.0, abs=1e-12)
    assert sorted(res.grouping.assignments.tolist()) == [0, 1, 2, 3]


def test_kmeans_requires_seed_and_valid_k():
    pts = np.zeros((3, 2))
    with pytest.raises(ParameterError):
        kmeans(pts, 0, seed=0)
    with pytest.raises(ParameterError):
        kmeans(pts, 4, seed=0)
    with pytest.raises(ParameterError):
        kmeans(pts, 2, seed=None)


def test_kmeans_deterministic_per_seed():
    pts, _ = two_blobs(n_per=10, gap=3.0, seed=2)
    a = kmeans(pts, 2, seed=13)
    b = kmeans(pts, 2, seed=13)
    assert np.array_equal(a.grouping.assignments, b.grouping.assignments)
    assert a.objective == b.objective
    assert a.best_run == b.best_run


def brute_force_objective(points, k):
    n = points.shape[0]
    best = np.inf
    for labels in itertools.product(range(k), repeat=n):
        labels = np.asarray(labels)
        if len(set(labels.tolist())) < k:
            continue
        total = 0.0
        for c in range(k):
            member = points[labels == c]
            total += float(((member - member.mean(axis=0)) ** 2).sum())
        best = min(best, total)
    return best


def test_kmeans_matches_exhaustive_partition_search(monkeypatch):
    monkeypatch.setattr(spectral, "KMEANS_RESTARTS", 20)
    pts, _ = two_blobs(n_per=4, gap=6.0, spread=0.5, seed=5)
    res = kmeans(pts, 2, seed=0)
    assert res.objective == pytest.approx(brute_force_objective(pts, 2), abs=1e-9)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30)
def test_kmeans_objective_trace_non_increasing(seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(int(rng.integers(5, 20)), 2))
    res = kmeans(pts, int(rng.integers(2, 4)), seed=int(rng.integers(0, 100)))
    for run in res.runs:
        trace = np.asarray(run.objective_trace)
        assert np.all(np.diff(trace) <= 1e-12)
        assert run.objective == trace[-1]
    assert res.objective == min(r.objective for r in res.runs)


def _inflating_assign(monkeypatch, rows=slice(None)):
    """Make every _assign call after the first return the given rows (runs)
    of the squared distances as 4 d2 + 1, so those runs' objectives grow
    after their first Lloyd step."""
    real_assign = spectral._assign
    calls = []

    def inflating(points, centers):
        labels, d2 = real_assign(points, centers)
        calls.append(None)
        if len(calls) > 1:
            d2 = d2.copy()
            d2[rows] = d2[rows] * 4.0 + 1.0
        return labels, d2

    monkeypatch.setattr(spectral, "_assign", inflating)


def test_kmeans_objective_increase_raises(monkeypatch):
    # not an assert: the check must hold under python -O as well
    _inflating_assign(monkeypatch)
    pts, _ = two_blobs(n_per=6, gap=3.0, seed=2)
    with pytest.raises(NumericalError, match="k-means objective increased"):
        kmeans(pts, 2, seed=0)


@pytest.mark.parametrize(
    "k, restarts, rows", [(2, 10, [7]), (12, 1, slice(None))], ids=["one-of-ten", "at-convergence"]
)
def test_kmeans_objective_increase_raises_per_run(monkeypatch, k, restarts, rows):
    # with one inflated run of ten, the other nine must not mask it; with
    # k = n the run converges on its first step, so only the check of the
    # final objective can see the increase
    _inflating_assign(monkeypatch, rows)
    monkeypatch.setattr(spectral, "KMEANS_RESTARTS", restarts)
    pts, _ = two_blobs(n_per=6, gap=3.0, seed=2)
    with pytest.raises(NumericalError, match="k-means objective increased"):
        kmeans(pts, k, seed=0)


def assert_same_kmeans(got, want):
    assert got.best_run == want.best_run
    assert got.objective == want.objective
    assert np.array_equal(got.grouping.assignments, want.grouping.assignments)
    assert_same_runs(got.runs, want.runs)


def assert_same_runs(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a.assignments, b.assignments)
        assert a.objective_trace == b.objective_trace
        assert a.objective == b.objective
        assert a.n_iter == b.n_iter


@st.composite
def kmeans_points(draw):
    """Points with d in {1, 2, 5}: an integer grid of three values (duplicate
    points, tied distances) or standard normal."""
    d = draw(st.sampled_from((1, 2, 5)))
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return rng.integers(0, 3, size=(n, d)).astype(float)
    return rng.normal(size=(n, d))


@given(kmeans_points(), st.data(), st.integers(0, 2**31 - 1), st.sampled_from((1, 10)))
@settings(max_examples=150, deadline=None)
def test_kmeans_matches_one_start_at_a_time_reference(points, data, seed, restarts):
    # small k gives groups of more than eight points, where numpy's pairwise
    # sum of a 1-d group and a sum in index order part ways
    n = points.shape[0]
    k = data.draw(st.one_of(st.just(n), st.integers(1, min(n, 3)), st.integers(1, n)), label="k")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "KMEANS_RESTARTS", restarts)
        got = kmeans(points, k, seed)
    assert_same_kmeans(got, kmeans_reference(points, k, seed, restarts))


@given(kmeans_points(), st.data())
@settings(max_examples=60, deadline=None)
def test_lloyd_reseeds_empty_groups_like_the_reference(points, data):
    # centres placed far outside the points start with empty groups, so
    # every run takes the farthest-point reseed on its first step; with two
    # or more of them the reseeds must pick distinct points
    n, d = points.shape
    k = data.draw(st.integers(2, max(2, min(n, 5))), label="k")
    b = data.draw(st.integers(1, 4), label="runs")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    starts = points[rng.integers(n, size=(b, k))]
    far = rng.random((b, k)) < 0.5
    far[:, 0] = True
    starts[far] = 1e3 * (1.0 + rng.random((int(far.sum()), d)))
    assert_same_runs(spectral._lloyd(points, starts), [lloyd_reference(points, s) for s in starts])


@st.composite
def centre_moves(draw):
    """(new, old) centre blocks whose moves straddle np.isclose's default
    tolerance: zero, well inside, one ulp either side of it, far outside."""
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from((0.0, 1e-12, 1e-3, 1.0, 1e6)))
    old = scale * rng.normal(size=shape)
    tol = 1e-8 + 1e-5 * np.abs(old)
    move = rng.choice([0.0, 0.5, 1.0, 2.0], size=shape) * tol * rng.choice([-1.0, 1.0], size=shape)
    new = old + move
    nudge = rng.choice([-np.inf, 0.0, np.inf], size=shape)
    return np.nextafter(new, nudge), old


@given(centre_moves())
@example((np.full((2, 1, 1), 1e-8), np.zeros((2, 1, 1))))  # a move of exactly the tolerance
@example((np.full((1, 1, 2), 1.000001e-8), np.zeros((1, 1, 2))))  # within 1e-5 of the new centre only
@settings(max_examples=300)
def test_settled_decides_as_np_isclose(moves):
    new, old = moves
    assert np.array_equal(spectral._settled(new, old), np.isclose(new, old).all(axis=(1, 2)))


@st.composite
def lloyd_inputs(draw):
    """Embedding rows of a random graph, or points of kmeans_points (ties
    included), with k and a block of k-means++ or far-off starts (empty groups,
    so reseeds)."""
    if draw(st.booleans()):
        g = random_graph(draw(st.integers(0, 2**31 - 1)), n=draw(st.integers(4, 40)), density=0.5)
        points = smallest_k_eigenvectors(g, draw(st.integers(2, 4))).vectors
    else:
        points = draw(kmeans_points())
    n, d = points.shape
    k = draw(st.integers(1, min(n, 5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        rngs = [np.random.default_rng(child) for child in np.random.SeedSequence(int(rng.integers(2**31))).spawn(3)]
        return points, spectral._plus_plus_init(points, k, rngs)
    starts = points[rng.integers(n, size=(3, k))]
    far = rng.random((3, k)) < 0.5
    starts[far] = 1e3 * (1.0 + rng.random((int(far.sum()), d)))
    return points, starts


@given(lloyd_inputs())
@settings(max_examples=100, deadline=None)
def test_lloyd_stops_as_with_np_isclose(inputs):
    points, starts = inputs
    got = spectral._lloyd(points, starts)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_settled", lambda new, old: np.isclose(new, old).all(axis=(1, 2)))
        want = spectral._lloyd(points, starts)
    assert_same_runs(got, want)


def test_kmeans_restarts_converge_at_different_steps_in_several_blocks():
    # 3000 x 5 points at k = 8 need about 1 MB of distances per start, so the
    # ten starts advance in more than one block
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(3000, 5)) + 3.0 * np.eye(5)[rng.integers(5, size=3000)]
    assert spectral.KMEANS_BLOCK_BYTES // (8 * pts.size * 8) < 10
    got = kmeans(pts, 8, seed=11)
    assert len({run.n_iter for run in got.runs}) > 1
    assert_same_kmeans(got, kmeans_reference(pts, 8, seed=11))


def test_kmeans_memory_is_blocked():
    # one start at a time peaks at 14.6 MB on these points; all ten starts
    # in one block would hold ten (20000, 8, 8) distance temporaries, about
    # 130 MB. Well-separated clusters keep the runs short; the peak depends
    # on the shapes alone.
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(20000, 8)) + 50.0 * np.eye(8)[rng.integers(8, size=20000)]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        kmeans(pts, 8, seed=0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 14.6e6, f"peak {peak / 1e6:.1f} MB"


def test_grouping_validation():
    with pytest.raises(ParameterError):
        Grouping(assignments=np.array([0, 2]), k=2)
    g = Grouping(assignments=np.array([0, 0, 1]), k=3)
    assert g.sizes().tolist() == [2, 1, 0]


# ---------------------------------------------------------------------------
# end-to-end spectral grouping

def test_spectral_grouping_recovers_cliques():
    g, truth = two_clique_graph((4, 5))
    got = spectral_grouping(g, 2, seed=0).assignments
    # same partition regardless of which numeric label each clique drew
    assert len({(int(a), int(t)) for a, t in zip(got, truth)}) == 2


def test_spectral_grouping_k_bound():
    g, _ = two_clique_graph()
    with pytest.raises(ParameterError):
        spectral_grouping(g, 1, seed=0)


@given(st.integers(-8, 8))
@settings(max_examples=17)
def test_spectral_grouping_invariant_to_power_of_two_scaling(exp):
    # scaling by 2**exp is exact in floating point, so the random-walk
    # normalization cancels it bit for bit
    g = random_graph(21, n=9, density=0.7)
    scaled = graph_of(g.w * 2.0**exp)
    a = spectral_grouping(g, 2, seed=3).assignments
    b = spectral_grouping(scaled, 2, seed=3).assignments
    assert np.array_equal(a, b)


def test_kmeans_groups_two_separated_blobs():
    pts, labels = two_blobs(n_per=6, gap=8.0, seed=1)
    grouping = kmeans(pts, 2, seed=0).grouping
    # perfect separation: the two blobs are the two groups
    assert len({(int(a), int(t)) for a, t in zip(grouping.assignments, labels)}) == 2
