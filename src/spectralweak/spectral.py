"""Spectral grouping: smallest eigenvectors of a graph's L_rw, seeded k-means.

The grouping pipeline follows the random-walk normalization route: eigenpairs
of L_rw = D^-1 (D - W) are obtained from the similar symmetric matrix
L_sym = D^-1/2 (D - W) D^-1/2 and mapped back, which keeps the solver in
well-conditioned symmetric territory. Both are derived from the weights W of
the graph; L_rw is never formed. Embedding rows are clustered as-is (no row
renormalization).

Two solvers share that route. Connected kNN graphs without a clamped vertex,
asked for k < n - 1 vectors, go to ARPACK (scipy.sparse.linalg.eigsh) on the
sparse N = D^-1/2 W D^-1/2, whose k largest eigenpairs are the k smallest of
L_sym = I - N; no n x n array is allocated beside W. Every other graph, the
probabilistic, epsilon and fully connected ones included, goes to a dense
scipy.linalg.eigh of L_sym, as does a kNN graph on which ARPACK fails or does
not converge; that route holds L_sym and its symmetrized copy, two n x n
arrays beside W. On both routes the residual L_rw u - u diag(vals) of every
eigenpair is checked, computed as (D u - W u) / d from W.

All dense linear algebra of this module runs on the BLAS/LAPACK that scipy
links, the eigen residual check included (scipy.linalg.blas.dgemm, not the
numpy `@`). The numpy and scipy wheels each bundle their own OpenBLAS with
its own thread pool; a numpy product between scipy eigensolves leaves numpy's
workers spinning while scipy's run, so one BLAS keeps the step from fighting
itself for cores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.linalg.blas
import scipy.sparse

from .errors import NumericalError, ParameterError
from .simgraph import KNN_MODELS, SimilarityGraph

LLOYD_MAX_ITER = 300  # Lloyd steps per k-means start


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

    def has_empty_group(self) -> bool:
        return bool(np.any(self.sizes() == 0))


def degree_matrix(graph: SimilarityGraph) -> np.ndarray:
    """Vertex degrees (weighted row sums); the D of L = D - W as a vector."""
    return graph.w.sum(axis=1)


def unnormalized_laplacian(graph: SimilarityGraph) -> np.ndarray:
    """L = D - W as a read-only dense array."""
    lap = np.diag(degree_matrix(graph)) - graph.w
    lap.setflags(write=False)
    return lap


def _sym_laplacian(w: np.ndarray, deg: np.ndarray, deg_safe: np.ndarray, inv_sqrt: np.ndarray) -> np.ndarray:
    """L_sym = D^-1/2 (D - W) D^-1/2, made exactly symmetric, for the dense eigh.

    Built in one n x n buffer scaled in place: -w_ij off the diagonal and d_i
    on it (the diagonal of W is zero), rows divided by d and multiplied by
    sqrt(d), columns multiplied by d^-1/2, then (S + S^T) / 2. The rows are
    scaled in two roundings rather than one by d^-1/2; that is the rounding
    every recorded grouping was computed with, so it stays.
    """
    sym = 0.0 - w
    np.fill_diagonal(sym, deg)
    sym /= deg_safe[:, None]
    sym *= np.sqrt(deg_safe)[:, None]
    sym *= inv_sqrt
    sym = sym + sym.T
    sym /= 2.0
    return sym


def _normalized_adjacency(w: np.ndarray, inv_sqrt: np.ndarray) -> scipy.sparse.csr_array:
    """N = D^-1/2 W D^-1/2 as CSR, evaluated on the nonzeros of W only."""
    rows, cols = np.nonzero(w)
    data = w[rows, cols] * (inv_sqrt[rows] * inv_sqrt[cols])
    return scipy.sparse.csr_array((data, (rows, cols)), shape=w.shape)


def _arpack_eigenpairs(w: np.ndarray, k: int, inv_sqrt: np.ndarray):
    """The k smallest eigenpairs of L_sym, ascending, from the k largest of N.

    Returns None, and leaves the graph to the dense solver, when the graph is
    not connected or when ARPACK fails, not converging included. The start
    vector is fixed, so the result depends on the graph alone.
    """
    # Imported here so that runs on dense-only graphs never load them.
    import scipy.sparse.csgraph
    import scipy.sparse.linalg

    norm_adj = _normalized_adjacency(w, inv_sqrt)
    if scipy.sparse.csgraph.connected_components(norm_adj, directed=False, return_labels=False) != 1:
        return None
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, w.shape[0])
    try:
        mu, vecs = scipy.sparse.linalg.eigsh(norm_adj, k=k, which="LA", v0=v0)
    except scipy.sparse.linalg.ArpackError:  # ArpackNoConvergence included
        return None
    order = np.argsort(-mu, kind="stable")
    return 1.0 - mu[order], vecs[:, order]


def _residual(w: np.ndarray, deg: np.ndarray, deg_safe: np.ndarray, u: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """L_rw u - u diag(vals) = (D u - W u) / d - u diag(vals).

    W u runs on scipy's BLAS (module docstring). A C-ordered W's transpose is
    Fortran-ordered and reaches dgemm (as trans_a) without an n x n copy.
    """
    wu = scipy.linalg.blas.dgemm(1.0, w.T, u, trans_a=True)
    return (deg[:, None] * u - wu) / deg_safe[:, None] - u * vals[None, :]


def smallest_k_eigenvectors(graph: SimilarityGraph, k: int) -> SpectralEmbedding:
    """Eigenvectors of L_rw = D^-1 (D - W) for the k smallest eigenvalues.

    Solved through the symmetric normalized form: if L_sym v = lam v then
    u = D^-1/2 v satisfies L_rw u = lam u. Connected kNN graphs are solved by
    ARPACK, everything else by a dense eigh (see the module docstring).
    Vertices with zero degree would divide by zero; their degree is treated
    as 1 there (their row of D - W is all zero, so an isolated vertex keeps
    its eigenvalue-zero indicator) and they are recorded on the result.
    Columns are unit-norm with the largest-magnitude entry made positive, so
    results are reproducible up to solver determinism. A residual check
    against L_rw guards the mapping.
    """
    w = graph.w
    n = w.shape[0]
    if not (1 <= k <= n):
        raise ParameterError(f"k must satisfy 1 <= k <= n = {n}, got {k}")
    deg = degree_matrix(graph)
    clamped = tuple(int(i) for i in np.flatnonzero(deg == 0.0))
    deg_safe = np.where(deg == 0.0, 1.0, deg)
    inv_sqrt = 1.0 / np.sqrt(deg_safe)
    pairs = None
    if graph.model in KNN_MODELS and not clamped and k < n - 1:
        pairs = _arpack_eigenpairs(w, k, inv_sqrt)
    if pairs is not None:
        solver = "eigsh"
        vals, vecs = pairs
    else:
        solver = "eigh"
        try:
            vals, vecs = scipy.linalg.eigh(
                _sym_laplacian(w, deg, deg_safe, inv_sqrt), subset_by_index=(0, k - 1), overwrite_a=True
            )
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigendecomposition failed: {exc}")
    u = inv_sqrt[:, None] * vecs
    norms = np.linalg.norm(u, axis=0)
    if np.any(norms == 0.0):
        raise NumericalError("zero-norm eigenvector after degree rescaling")
    u = u / norms
    for col in range(u.shape[1]):
        pivot = int(np.argmax(np.abs(u[:, col])))
        if u[pivot, col] < 0:
            u[:, col] = -u[:, col]
    resid = _residual(w, deg, deg_safe, u, vals)
    resid_norms = np.linalg.norm(resid, axis=0)
    bad = resid_norms > 1e-8 * np.linalg.norm(u, axis=0)
    if np.any(bad):
        raise NumericalError(
            f"eigenpair residual {float(resid_norms.max()):.3e} exceeds tolerance "
            f"for columns {np.flatnonzero(bad).tolist()}"
        )
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


def _plus_plus_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    first = int(rng.integers(n))
    centers[0] = points[first]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total > 0:
            probs = d2 / total
            choice = int(rng.choice(n, p=probs))
        else:
            # All remaining mass at zero distance; fall back to uniform choice.
            choice = int(rng.integers(n))
        centers[c] = points[choice]
        d2 = np.minimum(d2, np.sum((points - centers[c]) ** 2, axis=1))
    return centers


def _assign(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = np.argmin(d2, axis=1)  # ties go to the lowest center index
    return labels, d2


def _check_non_increasing(prev: float, obj: float) -> None:
    if not obj <= prev + 1e-9 * max(1.0, prev):
        raise NumericalError(f"k-means objective increased: {prev!r} -> {obj!r}")


def _lloyd(points: np.ndarray, centers: np.ndarray) -> KMeansRun:
    k = centers.shape[0]
    trace: list[float] = []
    labels, d2 = _assign(points, centers)
    for it in range(LLOYD_MAX_ITER):
        obj = float(d2[np.arange(points.shape[0]), labels].sum())
        if trace:
            _check_non_increasing(trace[-1], obj)
        trace.append(obj)
        new_centers = centers.copy()
        dist_to_own = d2[np.arange(points.shape[0]), labels]
        reseeded: set[int] = set()
        for c in range(k):
            mask = labels == c
            if mask.any():
                new_centers[c] = points[mask].mean(axis=0)
            else:
                # Reseed an empty group with the point farthest from its
                # current center (lowest index on ties, distinct point per
                # empty group).
                masked = dist_to_own.copy()
                if reseeded:
                    masked[list(reseeded)] = -np.inf
                far = int(np.argmax(masked))
                reseeded.add(far)
                new_centers[c] = points[far]
        new_labels, new_d2 = _assign(points, new_centers)
        converged = np.array_equal(new_labels, labels) and np.allclose(new_centers, centers)
        centers, labels, d2 = new_centers, new_labels, new_d2
        if converged:
            break
    obj = float(d2[np.arange(points.shape[0]), labels].sum())
    if not trace or obj != trace[-1]:
        if trace:
            _check_non_increasing(trace[-1], obj)
        trace.append(obj)
    return KMeansRun(assignments=labels, objective=obj, objective_trace=tuple(trace), n_iter=len(trace))


def kmeans_detailed(
    points: np.ndarray,
    k: int,
    seed: int,
    restarts: int = 10,
) -> KMeansResult:
    """Seeded k-means with k-means++ starts and Lloyd refinement.

    Runs `restarts` independent starts from child seeds of `seed` and keeps
    the run with the smallest objective (first such run on exact ties). Each
    start runs at most LLOYD_MAX_ITER Lloyd steps. The per-iteration
    objective is checked non-increasing on every run; an increase raises
    NumericalError.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ParameterError(f"points must be 2-d, got shape {points.shape}")
    n = points.shape[0]
    if not (1 <= k <= n):
        raise ParameterError(f"k must satisfy 1 <= k <= n = {n}, got {k}")
    if seed is None:
        raise ParameterError("kmeans requires an explicit seed")
    if restarts < 1:
        raise ParameterError(f"restarts must be >= 1, got {restarts}")
    child_seeds = np.random.SeedSequence(seed).spawn(restarts)
    runs: list[KMeansRun] = []
    for child in child_seeds:
        rng = np.random.default_rng(child)
        centers = _plus_plus_init(points, k, rng)
        runs.append(_lloyd(points, centers))
    best = min(range(restarts), key=lambda r: (runs[r].objective, r))
    grouping = Grouping(assignments=runs[best].assignments, k=k)
    return KMeansResult(grouping=grouping, objective=runs[best].objective, runs=tuple(runs), best_run=best)


def kmeans(points: np.ndarray, k: int, seed: int, restarts: int = 10) -> Grouping:
    return kmeans_detailed(points, k, seed, restarts=restarts).grouping


def spectral_grouping(
    graph: SimilarityGraph,
    k: int,
    seed: int,
    restarts: int = 10,
) -> Grouping:
    """Group graph vertices: the k smallest eigenvectors of L_rw, k-means on
    the embedding rows."""
    if k < 2:
        raise ParameterError(f"spectral grouping needs k >= 2, got {k}")
    emb = smallest_k_eigenvectors(graph, k)
    return kmeans(emb.vectors, k, seed=seed, restarts=restarts)
