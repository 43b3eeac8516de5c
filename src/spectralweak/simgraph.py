"""Similarity graph construction over a distance matrix.

Six graph models are provided:

* epsilon neighbourhood (unweighted),
* symmetric and mutual k-nearest-neighbour (Gaussian edge weights),
* fully connected Gaussian,
* probabilistic threshold (deterministic sparsification of normalized
  inverse-distance similarities),
* probabilistic criterion (randomized sparsification; keeps a below-threshold
  edge with probability proportional to a Gaussian bump centred at the
  threshold).

All builders return an exactly symmetric weight matrix with zero diagonal.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .dataset import DistanceMatrix
from .errors import DegenerateDistanceError, IntegrityError, ParameterError

MODELS = (
    "epsilon",
    "knn_symmetric",
    "knn_mutual",
    "fully_connected",
    "prob_threshold",
    "prob_criterion",
)

SYMMETRIZE_RULES = ("min", "max")
# Models built from initial_similarities.
PROB_MODELS = ("prob_threshold", "prob_criterion")
# Models whose weight matrix is sparse by construction.
KNN_MODELS = ("knn_symmetric", "knn_mutual")


@dataclass(frozen=True)
class GraphParams:
    """Parameter bundle covering all six graph models; unused fields stay None."""

    epsilon: float | None = None
    k: int | None = None
    sigma: float | None = None
    w_thresh: float | None = None
    eps_weight: float | None = None
    m: float = -1.0
    symmetrize: str = "max"


@dataclass(frozen=True)
class GraphSpec:
    model: str
    params: GraphParams

    def __post_init__(self):
        if self.model not in MODELS:
            raise ParameterError(f"unknown graph model {self.model!r}; choose from {MODELS}")


@dataclass(frozen=True)
class InitialSimilarities:
    """Row-normalized inverse-distance similarities (directed, rows sum to 1)."""

    s: np.ndarray
    m: float

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        s.setflags(write=False)
        object.__setattr__(self, "s", s)


@dataclass(frozen=True)
class SimilarityGraph:
    """Symmetric weighted graph; weights live in w, model/params record provenance."""

    w: np.ndarray
    model: str
    params: GraphParams
    seed: int | None = None

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise IntegrityError(f"weight matrix must be square, got {w.shape}")
        if not np.array_equal(w, w.T):
            raise IntegrityError("weight matrix is not exactly symmetric")
        if np.any(np.diag(w) != 0.0):
            raise IntegrityError("weight matrix diagonal must be exactly zero")
        if not np.all(np.isfinite(w)) or np.any(w < 0.0):
            raise IntegrityError("weights must be finite and nonnegative")
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    @property
    def n(self) -> int:
        return self.w.shape[0]

    def n_edges(self) -> int:
        return int(np.count_nonzero(np.triu(self.w, 1) > 0.0))


def initial_similarities(dist: DistanceMatrix, m: float = -1.0) -> InitialSimilarities:
    """Similarity of j seen from i: d_ij^m / sum_{l != i} d_il^m with m < 0.

    Each row sums to exactly one (up to float rounding); the matrix is not
    symmetric in general. Coincident distinct points make the power diverge,
    so they are a hard error naming the offending pair.
    """
    if not m < 0:
        raise ParameterError(f"exponent m must be negative, got {m}")
    d = dist.d
    n = dist.n
    off = ~np.eye(n, dtype=bool)
    zero_pairs = np.argwhere((d == 0.0) & off)
    if zero_pairs.size:
        i, j = zero_pairs[0]
        raise DegenerateDistanceError(
            f"instances {i} and {j} are at distance zero; inverse-distance similarities are undefined"
        )
    powered = np.zeros_like(d)
    powered[off] = d[off] ** m
    rows = powered.sum(axis=1, keepdims=True)
    s = powered / rows
    np.fill_diagonal(s, 0.0)
    return InitialSimilarities(s=s, m=m)


def epsilon_graph(dist: DistanceMatrix, epsilon: float) -> SimilarityGraph:
    """Unweighted graph joining pairs strictly closer than epsilon."""
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise ParameterError(f"epsilon must be positive and finite, got {epsilon}")
    w = (dist.d < epsilon).astype(float)
    np.fill_diagonal(w, 0.0)
    return SimilarityGraph(w=w, model="epsilon", params=GraphParams(epsilon=epsilon))


def _knn_adjacency(dist: DistanceMatrix, k: int) -> np.ndarray:
    """Directed boolean adjacency: row i marks i's k nearest others.

    Distance ties resolve toward the smaller index; the point itself is
    excluded even when other points sit at distance zero.

    The (k+1)-th smallest entry of a row, the point itself included, is a
    threshold. When exactly k+1 entries lie at or below it they are the point
    and its k nearest others, in whatever order. Only rows with more, a tie at
    the threshold, are ranked in full by distance and then index.
    """
    d = dist.d
    thr = np.partition(d, k, axis=1)[:, k]
    adj = d <= thr[:, None]
    np.fill_diagonal(adj, False)
    idx = np.arange(dist.n)
    for i in np.flatnonzero(adj.sum(axis=1) != k):
        order = np.lexsort((idx, d[i]))
        order = order[order != i]
        adj[i] = False
        adj[i, order[:k]] = True
    return adj


def knn_graph(
    dist: DistanceMatrix,
    k: int,
    mode: str = "symmetric",
    sigma: float | None = None,
) -> SimilarityGraph:
    """k-nearest-neighbour graph with Gaussian weights exp(-d^2 / (2 sigma^2)).

    mode "symmetric" joins i~j when either lists the other among its k nearest;
    mode "mutual" requires both. sigma defaults to the median off-diagonal
    distance.
    """
    n = dist.n
    if not (1 <= k <= n - 1):
        raise ParameterError(f"k must satisfy 1 <= k <= n-1 = {n - 1}, got {k}")
    if mode not in ("symmetric", "mutual"):
        raise ParameterError(f"mode must be 'symmetric' or 'mutual', got {mode!r}")
    if sigma is None:
        # offdiag() holds every pair twice; the strict upper triangle holds it
        # once and has the same median, computed from the same two values.
        sigma = float(np.median(dist.d[~np.tri(n, dtype=bool)]))
        if sigma <= 0:
            raise ParameterError("median distance is zero; pass sigma explicitly")
    if not (sigma > 0 and math.isfinite(sigma)):
        raise ParameterError(f"sigma must be positive and finite, got {sigma}")
    adj = _knn_adjacency(dist, k)
    joined = (adj | adj.T) if mode == "symmetric" else (adj & adj.T)
    # Gaussian weights on joined pairs only; the diagonal is never joined.
    rows, cols = np.nonzero(joined)
    w = np.zeros((n, n))
    w[rows, cols] = np.exp(-(dist.d[rows, cols] ** 2) / (2.0 * sigma**2))
    model = "knn_symmetric" if mode == "symmetric" else "knn_mutual"
    return SimilarityGraph(w=w, model=model, params=GraphParams(k=k, sigma=sigma))


def fully_connected_gaussian(dist: DistanceMatrix, sigma: float) -> SimilarityGraph:
    """Complete graph with Gaussian weights; no sparsification at all."""
    if not (sigma > 0 and math.isfinite(sigma)):
        raise ParameterError(f"sigma must be positive and finite, got {sigma}")
    w = np.exp(-(dist.d**2) / (2.0 * sigma**2))
    np.fill_diagonal(w, 0.0)
    return SimilarityGraph(w=w, model="fully_connected", params=GraphParams(sigma=sigma))


def gaussian_bump(s: np.ndarray | float, w_thresh: float, sigma: float):
    """Gaussian density (not truncated) centred at the keep threshold."""
    return np.exp(-((s - w_thresh) ** 2) / (2.0 * sigma**2)) / (sigma * math.sqrt(2.0 * math.pi))


def bump_peak(sigma: float) -> float:
    return 1.0 / (sigma * math.sqrt(2.0 * math.pi))


def similarity_floor(w_thresh: float, sigma: float, eps_weight: float) -> float | None:
    """Smallest similarity that can survive the deterministic sparsifier.

    Below this value the bump falls under eps_weight so the edge is dropped.
    Returns None when the peak itself is below eps_weight (nothing below the
    threshold survives).
    """
    peak = bump_peak(sigma)
    if peak <= eps_weight:
        return None
    return w_thresh - sigma * math.sqrt(2.0 * math.log(peak / eps_weight))


def acceptance_probability(s: float, w_thresh: float, sigma: float) -> float:
    """Keep probability used by the randomized sparsifier for s below threshold."""
    return float(gaussian_bump(s, w_thresh, sigma) / bump_peak(sigma))


def _check_prob_params(w_thresh: float, sigma: float) -> None:
    if not (0.0 < w_thresh < 1.0):
        raise ParameterError(f"w_thresh must be in (0, 1), got {w_thresh}")
    if not (sigma > 0 and math.isfinite(sigma)):
        raise ParameterError(f"sigma must be positive and finite, got {sigma}")


def symmetrize(directed: np.ndarray, rule: str = "max") -> np.ndarray:
    """Combine w_ij and w_ji with elementwise min or max."""
    if rule not in SYMMETRIZE_RULES:
        raise ParameterError(f"symmetrize rule must be one of {SYMMETRIZE_RULES}, got {rule!r}")
    directed = np.asarray(directed, dtype=float)
    if rule == "min":
        return np.minimum(directed, directed.T)
    return np.maximum(directed, directed.T)


def prob_threshold_graph(
    sims: InitialSimilarities,
    w_thresh: float,
    sigma: float,
    eps_weight: float,
    symmetrize_rule: str = "max",
) -> SimilarityGraph:
    """Deterministic sparsifier over initial similarities.

    Directed rule per entry s:
      s >= w_thresh            -> keep s,
      bump(s) < eps_weight     -> drop,
      otherwise                -> min(bump(s), w_thresh),
    then min/max symmetrization. The middle clamp keeps a revived edge from
    outweighing edges that passed the threshold on their own.
    """
    _check_prob_params(w_thresh, sigma)
    if not (eps_weight > 0 and math.isfinite(eps_weight)):
        raise ParameterError(f"eps_weight must be positive and finite, got {eps_weight}")
    s = sims.s
    f = gaussian_bump(s, w_thresh, sigma)
    revived = np.where(f < eps_weight, 0.0, np.minimum(f, w_thresh))
    directed = np.where(s >= w_thresh, s, revived)
    np.fill_diagonal(directed, 0.0)
    w = symmetrize(directed, symmetrize_rule)
    np.fill_diagonal(w, 0.0)
    params = GraphParams(
        sigma=sigma, w_thresh=w_thresh, eps_weight=eps_weight, m=sims.m, symmetrize=symmetrize_rule
    )
    return SimilarityGraph(w=w, model="prob_threshold", params=params)


def prob_criterion_graph(
    sims: InitialSimilarities,
    w_thresh: float,
    sigma: float,
    symmetrize_rule: str = "max",
    seed: int | None = None,
) -> SimilarityGraph:
    """Randomized sparsifier: below-threshold entries survive with probability
    bump(s)/bump_peak and keep weight min(bump(s), w_thresh).

    Draws come from one generator seeded with `seed`, consumed in a fixed
    order: unordered pairs (i, j), i < j, row-major, the (i, j) direction
    before (j, i), skipping directions at or above the threshold. Entries at
    or above the threshold never consume randomness, so a graph whose
    similarities all clear the threshold is identical for every seed.
    """
    _check_prob_params(w_thresh, sigma)
    if seed is None:
        raise ParameterError("prob_criterion_graph requires an explicit seed")
    s = sims.s
    n = s.shape[0]
    directed = np.where(s >= w_thresh, s, 0.0)
    np.fill_diagonal(directed, 0.0)
    rng = np.random.default_rng(seed)
    # One uniform per below-threshold direction. Entry [i, j, 0] of the mask
    # marks the (i, j) direction of pair i < j and [i, j, 1] its (j, i)
    # direction, so the mask read in row-major order is the draw order; a
    # batched draw consumes the generator stream exactly like the equivalent
    # sequence of single draws.
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    below = s < w_thresh
    draws = np.empty((n, n, 2), dtype=bool)
    np.logical_and(below, upper, out=draws[:, :, 0])
    np.logical_and(below.T, upper, out=draws[:, :, 1])
    f = gaussian_bump(np.stack((s, s.T), axis=2)[draws], w_thresh, sigma)
    accepted = rng.random(f.shape[0]) < f / bump_peak(sigma)
    pair, flipped = np.divmod(np.flatnonzero(draws)[accepted], 2)
    i, j = np.divmod(pair, n)
    rows = np.where(flipped, j, i)
    cols = np.where(flipped, i, j)
    directed[rows, cols] = np.minimum(f[accepted], w_thresh)
    w = symmetrize(directed, symmetrize_rule)
    np.fill_diagonal(w, 0.0)
    params = GraphParams(sigma=sigma, w_thresh=w_thresh, m=sims.m, symmetrize=symmetrize_rule)
    return SimilarityGraph(w=w, model="prob_criterion", params=params, seed=seed)


def build_graph(
    dist: DistanceMatrix,
    spec: GraphSpec,
    seed: int | None = None,
    sims: InitialSimilarities | None = None,
) -> SimilarityGraph:
    """Dispatch a GraphSpec to the matching builder.

    The probabilistic models derive their inputs from `dist` via
    initial_similarities using params.m as the exponent, unless `sims`
    already holds them for that exponent (a grid search shares one across
    its candidates); `sims` computed with another exponent is a
    ParameterError.
    """
    p = spec.params
    if spec.model == "epsilon":
        if p.epsilon is None:
            raise ParameterError("epsilon model needs params.epsilon")
        return epsilon_graph(dist, p.epsilon)
    if spec.model in KNN_MODELS:
        if p.k is None:
            raise ParameterError(f"{spec.model} needs params.k")
        mode = "symmetric" if spec.model == "knn_symmetric" else "mutual"
        return knn_graph(dist, p.k, mode=mode, sigma=p.sigma)
    if spec.model == "fully_connected":
        if p.sigma is None:
            raise ParameterError("fully_connected needs params.sigma")
        return fully_connected_gaussian(dist, p.sigma)
    if p.w_thresh is None or p.sigma is None:
        raise ParameterError(f"{spec.model} needs params.w_thresh and params.sigma")
    if sims is None:
        sims = initial_similarities(dist, m=p.m)
    elif sims.m != p.m:
        raise ParameterError(f"similarities were computed with m = {sims.m}, the spec has m = {p.m}")
    if spec.model == "prob_threshold":
        if p.eps_weight is None:
            raise ParameterError("prob_threshold needs params.eps_weight")
        return prob_threshold_graph(sims, p.w_thresh, p.sigma, p.eps_weight, p.symmetrize)
    return prob_criterion_graph(sims, p.w_thresh, p.sigma, p.symmetrize, seed=seed)


def connected_components(graph: SimilarityGraph | np.ndarray) -> tuple[int, np.ndarray]:
    """Connected components of the positive-weight support.

    Returns (count, labels) where labels are 0-based, numbered by the smallest
    vertex index in each component (so labels[0] == 0).
    """
    import scipy.sparse.csgraph  # only the graph command and bench suites need it

    w = graph.w if isinstance(graph, SimilarityGraph) else np.asarray(graph)
    count, labels = scipy.sparse.csgraph.connected_components(
        scipy.sparse.csr_array(w > 0.0), directed=False
    )
    return int(count), labels.astype(int)


def graph_to_json_dict(graph: SimilarityGraph) -> dict:
    """Sparse serialization: nonzero upper-triangle entries as (i, j, weight)."""
    rows, cols = np.nonzero(np.triu(graph.w, 1))
    return {
        "n": graph.n,
        "model": graph.model,
        "params": {k: v for k, v in asdict(graph.params).items() if v is not None},
        "seed": graph.seed,
        "triplets": [[int(i), int(j), float(graph.w[i, j])] for i, j in zip(rows, cols)],
    }


def graph_from_json_dict(payload: dict) -> SimilarityGraph:
    params = GraphParams(**{k: payload["params"].get(k, GraphParams.__dataclass_fields__[k].default)
                            for k in GraphParams.__dataclass_fields__})
    n = payload["n"]
    w = np.zeros((n, n))
    for i, j, weight in payload["triplets"]:
        w[i, j] = weight
        w[j, i] = weight
    return SimilarityGraph(w=w, model=payload["model"], params=params, seed=payload.get("seed"))


def write_graph_json(graph: SimilarityGraph, path: str | Path) -> None:
    Path(path).write_text(json.dumps(graph_to_json_dict(graph), indent=2, sort_keys=True) + "\n")


def read_graph_json(path: str | Path) -> SimilarityGraph:
    return graph_from_json_dict(json.loads(Path(path).read_text()))
