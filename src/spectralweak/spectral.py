"""Spectral grouping: smallest eigenvectors of a graph's L_rw, seeded k-means.

The grouping pipeline follows the random-walk normalization route: eigenpairs
of L_rw = D^-1 (D - W) are obtained from the similar symmetric matrix
L_sym = D^-1/2 (D - W) D^-1/2 and mapped back, which keeps the solver in
well-conditioned symmetric territory. Both are derived from the weights W of
the graph; L_rw is never formed. Embedding rows are clustered as-is (no row
renormalization).

Two solvers share that route. The kNN models hold W as CSR. A connected kNN
graph (so no clamped vertex), asked for k < n - 1 vectors, goes to ARPACK
(scipy.sparse.linalg.eigsh) on N = D^-1/2 W D^-1/2, built as CSR on the
pattern of W, whose k largest eigenpairs are the k smallest of
L_sym = I - N. That route has no n x n array and no O(n^2) step, so a kNN
grouping with sigma given has none left; the default median sigma is the
O(n^2) step that remains. Every other graph, the probabilistic, epsilon and
fully connected ones included, goes to a dense scipy.linalg.eigh of L_sym,
which holds one n x n array beside the dense W: L_sym is scaled and
symmetrized in place, and eigh takes its Fortran-ordered transpose, the
same matrix, without a copy. W stays, since the residual check reads it
after eigh. A kNN graph that is disconnected, or asked for k >= n - 1
vectors, or on which ARPACK fails or does not converge, goes there too with
W densified for as long as L_sym is being built, but only up to
DENSE_FALLBACK_MAX_N vertices; above that it is a NumericalError naming the
component count. Each route's degrees are the row sums of the W it reads,
CSR on ARPACK and dense on eigh (the two add in different orders, so their
last bits can differ). On both routes the residual L_rw u - u diag(vals)
of every eigenpair is checked, computed as (D u - W u) / d from W.

All dense linear algebra of this module runs on the BLAS/LAPACK that scipy
links, the eigen residual check included: scipy.linalg.blas.dgemm on a dense
W; on a CSR W the product W u is scipy's sparse one, which runs no BLAS.
The numpy and scipy wheels each bundle their own OpenBLAS with its own
thread pool, and a threaded numpy product between scipy eigensolves leaves
numpy's workers spinning while scipy's run, so numpy's pool stays asleep.
tests/test_spectral.py reads both pools' blas_server_avail in a fresh
interpreter at two OpenBLAS threads, numpy's pool shut down first: after an
annotate, a group grid and a logistic evaluate, numpy's reads 0, and
scipy's reads 0 with its count still 2. A numpy product in the dense
residual, the CSR W densified for its product, or a `_scipy_blas` that
left the pool live each turns one of them to 1.

Every eigensolve runs in one block, `_scipy_blas`, that leaves scipy's
OpenBLAS pool parked: on the way out, also when the solve raises, the pool's
worker threads are shut down. After a threaded call they spin for about
125 ms, burning a second core, and lowering the count does not stop them.
ARPACK runs at one thread: implicitly restarted Lanczos does level-1/2 BLAS
on n x ncv blocks (Lehoucq, Sorensen & Yang 1998), where a second thread
gains nothing (on 2 vCPUs an isolated eigsh took 27.8 ms on one thread
against 28.1 ms on two at n = 1,000 and 551 against 562 ms at 20,000), and
its eigenpairs are bitwise the same on one thread and on two. The dense eigh
and the residual's dgemm keep the inherited count: from n of about 512 two
threads are faster (43 against 75 ms at n = 896), and their last bits follow
the count. The next threaded call starts the workers again on the same
partitioning, so the bits stay. Setting a count starts a parked pool's
workers too, so the block shuts the pool down right after setting one. On
2 vCPUs that starting and joining made an ARPACK solve of a 1,000-vertex
kNN graph about 0.35 ms slower than one on a pool left live (7.1 against
6.8 ms).

scipy is imported inside the functions that call it, as everywhere in the
package (see its docstring), so importing this module loads none of it.
`_scipy_openblas` looks scipy's OpenBLAS up through scipy's own BLAS module,
which it imports itself.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .errors import NumericalError, ParameterError
from .simgraph import SimilarityGraph, csr_rows, symmetrize_in_place

if TYPE_CHECKING:
    import scipy.sparse

LLOYD_MAX_ITER = 300  # Lloyd steps per k-means start
KMEANS_RESTARTS = 10  # k-means++ starts per grouping; the best objective wins
DENSE_FALLBACK_MAX_N = 10_000  # largest kNN graph densified for eigh, about 1.6 GB of n x n arrays
KMEANS_BLOCK_BYTES = 8 * 2**20  # size of the (starts, n, k, d) distance temporary of one Lloyd block


@dataclass(frozen=True)
class SpectralEmbedding:
    """The k eigenvectors (columns) of L_rw with the smallest eigenvalues,
    ascending; the solver that produced them, "eigh" (dense) or "eigsh"
    (ARPACK); and the zero-degree vertices whose degree was clamped to 1."""

    vectors: np.ndarray
    eigenvalues: np.ndarray
    solver: str = "eigh"
    clamped: tuple[int, ...] = ()

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)
        e = np.asarray(self.eigenvalues, dtype=float)
        e.setflags(write=False)
        object.__setattr__(self, "eigenvalues", e)


@dataclass(frozen=True)
class Grouping:
    """Hard assignment of n items to groups 0..k-1."""

    assignments: np.ndarray
    k: int

    def __post_init__(self):
        a = np.asarray(self.assignments, dtype=int)
        if a.ndim != 1:
            raise ParameterError(f"assignments must be 1-d, got shape {a.shape}")
        if a.size and (a.min() < 0 or a.max() >= self.k):
            raise ParameterError("assignments outside 0..k-1")
        a.setflags(write=False)
        object.__setattr__(self, "assignments", a)

    @property
    def n(self) -> int:
        return self.assignments.shape[0]

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignments, minlength=self.k)


def _mean(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(a + b) / 2 into `out`."""
    np.add(a, b, out=out)
    return np.divide(out, 2.0, out=out)


def _degrees(w: np.ndarray | scipy.sparse.csr_array) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The degrees d of W, the row sums of W as it is given, dense or CSR;
    d with zero degrees clamped to 1; and that clamped d^-1/2."""
    deg = w.sum(axis=1)
    safe = np.where(deg == 0.0, 1.0, deg)
    return deg, safe, 1.0 / np.sqrt(safe)


def _sym_laplacian(w: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """L_sym = D^-1/2 (D - W) D^-1/2, made exactly symmetric, for the dense
    eigh, and the `_degrees` of the dense W it is scaled by.

    Built in one n x n buffer scaled in place: -w_ij off the diagonal and d_i
    on it (the diagonal of W is zero), rows divided by d and multiplied by
    sqrt(d), columns multiplied by d^-1/2, then (S + S^T) / 2 in place, tile
    pair by tile pair. The rows are scaled in two roundings rather than one
    by d^-1/2; that is the rounding every recorded grouping was computed
    with, so it stays. Returned as the buffer's transpose: the same matrix,
    Fortran-ordered, which LAPACK takes without a copy.
    """
    degrees = deg, safe, inv_sqrt = _degrees(w)
    sym = 0.0 - w
    np.fill_diagonal(sym, deg)
    sym /= safe[:, None]
    sym *= np.sqrt(safe)[:, None]
    sym *= inv_sqrt
    symmetrize_in_place(sym, _mean)
    return sym.T, degrees


def _normalized_adjacency(w: scipy.sparse.csr_array, inv_sqrt: np.ndarray) -> scipy.sparse.csr_array:
    """N = D^-1/2 W D^-1/2 as CSR on the pattern of W."""
    import scipy.sparse

    data = w.data * (inv_sqrt[csr_rows(w)] * inv_sqrt[w.indices])
    return scipy.sparse.csr_array((data, w.indices, w.indptr), shape=w.shape)


class _OpenBlas(NamedTuple):
    """The parts of scipy's OpenBLAS this module uses."""

    get: Callable[[], int]  # the pool's thread count
    set: Callable[[int], None]  # sets it, starting a shut-down pool's workers again
    shutdown: Callable[[], int]  # joins the pool's workers; a threaded call starts them again


@functools.cache
def _scipy_openblas() -> _OpenBlas | None:
    """The thread-count functions and the pool shutdown of the OpenBLAS that
    scipy loaded, or None where no OpenBLAS exporting all three is found.

    Looked up once, through scipy's own BLAS module, scipy.linalg.cython_blas:
    a symbol lookup on that module's handle searches the libraries it links,
    so it reaches the BLAS scipy calls and not numpy's copy, whose functions
    carry a 64_ suffix anyway. The
    thread-count functions are scipy_openblas_get/set_num_threads, else
    openblas_get/set_num_threads; the shutdown, blas_thread_shutdown_, is
    the one OpenBLAS runs before a fork.
    """
    import ctypes

    import scipy.linalg.cython_blas

    lib = ctypes.CDLL(scipy.linalg.cython_blas.__file__)
    shutdown = getattr(lib, "blas_thread_shutdown_", None)
    for prefix in ("scipy_openblas", "openblas"):
        get, set_ = (getattr(lib, f"{prefix}_{verb}_num_threads", None) for verb in ("get", "set"))
        if get and set_ and shutdown:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            shutdown.argtypes, shutdown.restype = [], ctypes.c_int
            return _OpenBlas(get, set_, shutdown)
    return None


@contextlib.contextmanager
def _scipy_blas(count: int | None = None):
    """Runs its block on scipy's OpenBLAS, at `count` threads when given,
    and leaves the pool parked (module docstring): on the way out, also
    when the block raises, the count is restored if one was set and the
    pool's worker threads are shut down. Setting a count starts a parked
    pool's workers, so the pool is shut down right after that as well. Does
    nothing where `_scipy_openblas` finds no OpenBLAS. The count is one per
    process, and a shutdown while another thread is inside a threaded scipy
    BLAS call is unsafe; nothing in this package calls scipy from a second
    thread."""
    found = _scipy_openblas()
    if found is None:
        yield
        return
    previous = found.get()
    if count is not None:
        found.set(count)
        found.shutdown()
    try:
        yield
    finally:
        if count is not None:
            found.set(previous)
        found.shutdown()


def _unit_columns(inv_sqrt: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """u = D^-1/2 v with unit-norm columns, each with its largest-magnitude
    entry made positive."""
    u = inv_sqrt[:, None] * vecs
    norms = np.linalg.norm(u, axis=0)
    if np.any(norms == 0.0):
        raise NumericalError("zero-norm eigenvector after degree rescaling")
    u = u / norms
    pivots = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    return u * np.where(pivots < 0, -1.0, 1.0)  # a sign flip is exact


def _residual(wu: np.ndarray, deg: np.ndarray, deg_safe: np.ndarray, u: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """L_rw u - u diag(vals) = (D u - W u) / d - u diag(vals), given W u."""
    return (deg[:, None] * u - wu) / deg_safe[:, None] - u * vals[None, :]


def _sparse_eigenpairs(w: scipy.sparse.csr_array, k: int):
    """The degrees of a CSR W and the k smallest eigenpairs of its L_sym,
    ascending, from ARPACK's k largest of N (module docstring); None when
    the graph goes to the dense solver, ARPACK failing or not converging
    included; a NumericalError when it is too large for that. The start
    vector is fixed, so the result depends on the graph alone."""
    import scipy.sparse.csgraph
    import scipy.sparse.linalg

    n = w.shape[0]
    count = scipy.sparse.csgraph.connected_components(w, directed=False, return_labels=False)
    if count != 1:
        why = f"it has {count} connected components"
    elif k >= n - 1:
        why = f"ARPACK needs k < n - 1, got k = {k}"
    else:
        degrees = _degrees(w)
        norm_adj = _normalized_adjacency(w, degrees[2])
        v0 = np.random.default_rng(0).uniform(-1.0, 1.0, n)
        try:
            with _scipy_blas(1):
                mu, vecs = scipy.sparse.linalg.eigsh(norm_adj, k=k, which="LA", v0=v0)
        except scipy.sparse.linalg.ArpackError:  # ArpackNoConvergence included
            why = "ARPACK failed on it"
        else:
            order = np.argsort(-mu, kind="stable")
            return degrees, 1.0 - mu[order], vecs[:, order]
    if n > DENSE_FALLBACK_MAX_N:
        raise NumericalError(
            f"kNN graph of {n} vertices needs the dense eigensolver ({why}), "
            f"which is limited to n <= {DENSE_FALLBACK_MAX_N}"
        )
    return None


def smallest_k_eigenvectors(graph: SimilarityGraph, k: int) -> SpectralEmbedding:
    """Eigenvectors of L_rw = D^-1 (D - W) for the k smallest eigenvalues.

    Solved through the symmetric normalized form: if L_sym v = lam v then
    u = D^-1/2 v satisfies L_rw u = lam u. Connected kNN graphs are solved by
    ARPACK, everything else by a dense eigh (see the module docstring); a kNN
    graph above DENSE_FALLBACK_MAX_N vertices that ARPACK cannot take is a
    NumericalError. The degrees are the row sums of the W the solver reads.
    Vertices with zero degree would divide by zero; their degree is treated
    as 1 there (their row of D - W is all zero, so an isolated vertex keeps
    its eigenvalue-zero indicator) and they are recorded on the result.
    Columns are unit-norm with the largest-magnitude entry made positive, so
    results are reproducible up to solver determinism. A residual check
    against L_rw guards the mapping.
    """
    import scipy.linalg
    import scipy.linalg.blas

    w = graph.w
    n = w.shape[0]
    if not (1 <= k <= n):
        raise ParameterError(f"k must satisfy 1 <= k <= n = {n}, got {k}")
    sparse = not isinstance(w, np.ndarray)  # CSR for the kNN models
    found = _sparse_eigenpairs(w, k) if sparse else None
    if found is not None:
        solver = "eigsh"
        (deg, deg_safe, inv_sqrt), vals, vecs = found
        u = _unit_columns(inv_sqrt, vecs)
        wu = w @ u  # scipy's CSR product
    else:
        solver = "eigh"
        with _scipy_blas():
            # A CSR W is densified for as long as L_sym is being built.
            sym, (deg, deg_safe, inv_sqrt) = _sym_laplacian(w.toarray() if sparse else w)
            try:
                vals, vecs = scipy.linalg.eigh(sym, subset_by_index=(0, k - 1), overwrite_a=True)
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"eigendecomposition failed: {exc}")
            u = _unit_columns(inv_sqrt, vecs)
            # A C-ordered W's transpose is Fortran-ordered and reaches dgemm
            # (as trans_a) without an n x n copy.
            wu = w @ u if sparse else scipy.linalg.blas.dgemm(1.0, w.T, u, trans_a=True)
    resid = _residual(wu, deg, deg_safe, u, vals)
    resid_norms = np.linalg.norm(resid, axis=0)
    bad = resid_norms > 1e-8 * np.linalg.norm(u, axis=0)
    if np.any(bad):
        raise NumericalError(
            f"eigenpair residual {float(resid_norms.max()):.3e} exceeds tolerance "
            f"for columns {np.flatnonzero(bad).tolist()}"
        )
    clamped = tuple(int(i) for i in np.flatnonzero(deg == 0.0))
    return SpectralEmbedding(vectors=u, eigenvalues=vals, solver=solver, clamped=clamped)


@dataclass(frozen=True)
class KMeansRun:
    assignments: np.ndarray
    objective: float
    objective_trace: tuple[float, ...]
    n_iter: int


@dataclass(frozen=True)
class KMeansResult:
    grouping: "Grouping"
    objective: float
    runs: tuple[KMeansRun, ...]
    best_run: int


def _plus_plus_init(points: np.ndarray, k: int, rngs: list[np.random.Generator]) -> np.ndarray:
    """k-means++ starts (len(rngs), k, d), each drawn by its own generator.

    The squared distances to the nearest chosen centre, (b, n), are updated
    for all starts together; only the draws go start by start.
    """
    n = points.shape[0]
    centers = np.empty((len(rngs), k, points.shape[1]))
    centers[:, 0] = points[[int(rng.integers(n)) for rng in rngs]]
    d2 = ((points[None] - centers[:, 0, None]) ** 2).sum(axis=2)
    for c in range(1, k):
        choices = []
        for rng, row, total in zip(rngs, d2, d2.sum(axis=1)):
            if total > 0:
                choices.append(int(rng.choice(n, p=row / total)))
            else:
                # All remaining mass at zero distance; fall back to uniform choice.
                choices.append(int(rng.integers(n)))
        centers[:, c] = points[choices]
        d2 = np.minimum(d2, ((points[None] - centers[:, c, None]) ** 2).sum(axis=2))
    return centers


def _assign(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centre of every point for a block of runs.

    centers (b, k, d) -> labels (b, n) and squared distances (b, n, k); ties
    go to the lowest centre index. Each distance reduces a contiguous
    length-d axis, so a run's row holds the bits it would get alone.
    """
    d2 = ((points[None, :, None, :] - centers[:, None]) ** 2).sum(axis=3)
    return np.argmin(d2, axis=2), d2


def _own_distances(d2: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Squared distance of every point to its own centre, (b, n)."""
    return np.take_along_axis(d2, labels[:, :, None], axis=2)[:, :, 0]


def _group_means(points: np.ndarray, labels: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-run group means (b, k, d), zero for empty groups, and sizes (b, k).

    Each mean has the bits of points[labels[r] == c].mean(axis=0). For d >= 2
    that sums the rows in index order, as bincount does. For d = 1 numpy sums
    the group pairwise, so each group is summed as its own contiguous slice.
    """
    b, n = labels.shape
    d = points.shape[1]
    keys = (labels + k * np.arange(b)[:, None]).ravel()
    counts = np.bincount(keys, minlength=b * k)
    if d == 1:
        column = np.tile(points[:, 0], b)[np.argsort(keys, kind="stable")]
        ends = np.cumsum(counts)
        sums = np.array([column[e - m : e].sum() for e, m in zip(ends, counts)])[:, None]
    else:
        cells = (keys[:, None] * d + np.arange(d)).ravel()
        sums = np.bincount(cells, weights=np.tile(points, (b, 1)).ravel(), minlength=b * k * d).reshape(b * k, d)
    means = sums / np.maximum(counts, 1)[:, None]
    return means.reshape(b, k, d), counts.reshape(b, k)


def _check_non_increasing(prev: float, obj: float) -> None:
    if not obj <= prev + 1e-9 * max(1.0, prev):
        raise NumericalError(f"k-means objective increased: {prev!r} -> {obj!r}")


def _settled(new_centers: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Per run of a block, whether no centre moved by more than np.isclose's
    default tolerance, |new - old| <= 1e-8 + 1e-5 |old|. That is the test
    np.isclose makes on finite values, which centres always are, without
    its checks for infinities and NaNs."""
    return (np.abs(new_centers - centers) <= 1e-8 + 1e-5 * np.abs(centers)).all(axis=(1, 2))


def _lloyd(points: np.ndarray, centers: np.ndarray) -> list[KMeansRun]:
    """Lloyd refinement of a block of runs, centers (b, k, d), advanced together.

    A run leaves the block when its labels stop changing and its centres stop
    moving (`_settled`), or after LLOYD_MAX_ITER steps; its objective trace
    and step count are its own. An empty group is reseeded with the run's
    point farthest from its current centre (lowest index on ties, a distinct
    point per empty group).
    """
    k = centers.shape[1]
    live = np.arange(centers.shape[0])
    runs: list[KMeansRun | None] = [None] * live.size
    traces: list[list[float]] = [[] for _ in live]
    labels, d2 = _assign(points, centers)
    own = _own_distances(d2, labels)
    objs = own.sum(axis=1)
    for it in range(LLOYD_MAX_ITER):
        for r, obj in zip(live, objs.tolist()):
            if traces[r]:
                _check_non_increasing(traces[r][-1], obj)
            traces[r].append(obj)
        new_centers, counts = _group_means(points, labels, k)
        for i in np.flatnonzero((counts == 0).any(axis=1)):
            masked = own[i].copy()
            for c in np.flatnonzero(counts[i] == 0):
                far = int(np.argmax(masked))
                masked[far] = -np.inf
                new_centers[i, c] = points[far]
        new_labels, d2 = _assign(points, new_centers)
        done = (new_labels == labels).all(axis=1) & _settled(new_centers, centers)
        if it == LLOYD_MAX_ITER - 1:
            done[:] = True
        centers, labels = new_centers, new_labels
        own = _own_distances(d2, labels)
        objs = own.sum(axis=1)
        for i in np.flatnonzero(done):
            r, obj, trace = live[i], float(objs[i]), traces[live[i]]
            if obj != trace[-1]:
                _check_non_increasing(trace[-1], obj)
                trace.append(obj)
            runs[r] = KMeansRun(assignments=labels[i], objective=obj, objective_trace=tuple(trace), n_iter=len(trace))
        if done.all():
            break
        keep = ~done
        live, centers, labels, own, objs = live[keep], centers[keep], labels[keep], own[keep], objs[keep]
    return runs


def kmeans_detailed(points: np.ndarray, k: int, seed: int) -> KMeansResult:
    """Seeded k-means with k-means++ starts and Lloyd refinement.

    Runs KMEANS_RESTARTS independent starts from child seeds of `seed` and
    keeps the run with the smallest objective (first such run on exact ties).
    Each start runs at most LLOYD_MAX_ITER Lloyd steps. The starts advance
    together, in blocks whose distance temporary stays near
    KMEANS_BLOCK_BYTES, with the bits each would get alone. The
    per-iteration objective is checked non-increasing on every run; an
    increase raises NumericalError.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ParameterError(f"points must be 2-d, got shape {points.shape}")
    n = points.shape[0]
    if not (1 <= k <= n):
        raise ParameterError(f"k must satisfy 1 <= k <= n = {n}, got {k}")
    if seed is None:
        raise ParameterError("kmeans requires an explicit seed")
    rngs = [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(KMEANS_RESTARTS)]
    block = max(1, KMEANS_BLOCK_BYTES // (8 * points.size * k))
    runs: list[KMeansRun] = []
    for lo in range(0, KMEANS_RESTARTS, block):
        runs.extend(_lloyd(points, _plus_plus_init(points, k, rngs[lo : lo + block])))
    best = min(range(KMEANS_RESTARTS), key=lambda r: (runs[r].objective, r))
    grouping = Grouping(assignments=runs[best].assignments, k=k)
    return KMeansResult(grouping=grouping, objective=runs[best].objective, runs=tuple(runs), best_run=best)


def kmeans(points: np.ndarray, k: int, seed: int) -> Grouping:
    return kmeans_detailed(points, k, seed).grouping


def spectral_grouping(graph: SimilarityGraph, k: int, seed: int) -> Grouping:
    """Group graph vertices: the k smallest eigenvectors of L_rw, k-means on
    the embedding rows."""
    if k < 2:
        raise ParameterError(f"spectral grouping needs k >= 2, got {k}")
    emb = smallest_k_eigenvectors(graph, k)
    return kmeans(emb.vectors, k, seed=seed)
