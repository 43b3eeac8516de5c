"""Similarity graph construction.

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
The kNN models hold it as a canonical scipy CSR array with no stored zeros,
so an edge is a positive stored weight. They are built from coordinates,
and no n x n array exists on their route. Each point's neighbours come from
a k-d tree (scipy's cKDTree), their distances recomputed with cdist's bits;
a row the tree's candidates cannot settle, a tie or duplicates at its last
candidate, is widened to cdist against all points, so with sigma given
the graph takes O(n log n) time when few rows widen. The default sigma,
the median pair distance, comes from an exact two-pass selection over the
strict upper triangle of the squared distances, in row blocks of about
ROW_BLOCK_BYTES. The other four models read a dense DistanceMatrix (built
from coordinates when given those) and hold W as a dense n x n array; the
probabilistic ones also hold the n x n initial similarities, and share one
sparsifier that differs only in which below-threshold entries it revives.
The similarities and the probabilistic W are each computed in their own
n x n buffer, by row blocks of at most ROW_BLOCK_BYTES and 1/DENSE_BLOCK_PARTS
of the rows, then symmetrized in place tile pair by tile pair, so no other
n x n float array is made on the way. graph.json holds the upper triangle
of W as triplets for every model.

scipy is imported inside the functions that call it, as everywhere in the
package (see its docstring), so importing this module loads none of it.
Only the kNN models load scipy.spatial (cKDTree, and cdist for widened rows
and the sigma passes) and build scipy.sparse CSR arrays. The other four read
distances from dataset.pairwise_distances, which is numpy alone, so building
them loads no scipy; connected_components and the graph.json reader and
writer load scipy.sparse.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import dataset
from .dataset import (
    DENSE_BLOCK_PARTS,
    Dataset,
    DistanceMatrix,
    block_ranges,
    checked_matrix,
    coordinates,
    pair_distances,
    pairwise_distances,
    row_blocks,
)
from .errors import DegenerateDistanceError, IntegrityError, ParameterError

if TYPE_CHECKING:
    import scipy.sparse

# The GraphParams fields each model cannot be built without; the other
# fields are optional (a kNN sigma defaults to the median pair distance) or
# unused.
REQUIRED_PARAMS = {
    "epsilon": ("epsilon",),
    "knn_symmetric": ("k",),
    "knn_mutual": ("k",),
    "fully_connected": ("sigma",),
    "prob_threshold": ("w_thresh", "sigma", "eps_weight"),
    "prob_criterion": ("w_thresh", "sigma"),
}
MODELS = tuple(REQUIRED_PARAMS)

SYMMETRIZE_RULES = ("min", "max")
# Models built from initial_similarities.
PROB_MODELS = ("prob_threshold", "prob_criterion")
# Models whose weight matrix is sparse by construction, held as CSR.
KNN_MODELS = ("knn_symmetric", "knn_mutual")

# Row blocks are about ROW_BLOCK_BYTES, and on the dense route at most
# 1/DENSE_BLOCK_PARTS of the rows (both defined in dataset, and
# ROW_BLOCK_BYTES read from there at each call). The kNN sigma's
# upper triangle blocks take the same bound: each also computes, and drops,
# the square below its diagonal, so that waste stays within
# 1/DENSE_BLOCK_PARTS of the upper triangle.

# The median sigma counts squared pair distances per bin. A bin is a run of
# float64 bit patterns, which order nonnegative floats like their values:
# the exponent and top 7 mantissa bits, so 128 bins per octave of squared
# distance, 256 per octave of distance, over squares in [2**-128, 2**128),
# with everything below in the first bin and everything above in the last.
MEDIAN_BIN_SHIFT = 45
MEDIAN_BIN_LOW = (1023 - 128) << 7  # the bin of 2**-128 before the offset
MEDIAN_BINS = 256 << 7
# The kNN graph asks its k-d tree for TREE_SLACK candidates per point beyond
# the k + 1 (itself included) it needs, so that a tie or a duplicate at the
# k-th distance rarely leaves a row to the exact cdist selection. With one,
# the tree settled every row of the 60 annotate pools of perfbench's inputs,
# as with 2 and 4; each further candidate costs query time on every row.
TREE_SLACK = 1
TREE_MARGIN = 1e-9  # relative; see _tree_neighbours


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

    def to_json_dict(self) -> dict:
        """The fields that are set (not None), by name, in field order."""
        return {k: v for k, v in vars(self).items() if v is not None}


@dataclass(frozen=True)
class GraphSpec:
    model: str
    params: GraphParams

    def __post_init__(self):
        if self.model not in MODELS:
            raise ParameterError(f"unknown graph model {self.model!r}; choose from {MODELS}")

    def missing_params(self) -> tuple[str, ...]:
        """The model's required params (REQUIRED_PARAMS) that are None."""
        return tuple(name for name in REQUIRED_PARAMS[self.model] if getattr(self.params, name) is None)


@dataclass(frozen=True)
class InitialSimilarities:
    """Row-normalized inverse-distance similarities (directed, rows sum to 1)."""

    s: np.ndarray
    m: float

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        s.setflags(write=False)
        object.__setattr__(self, "s", s)


def _csr_weights(w) -> scipy.sparse.csr_array:
    """W as a read-only canonical CSR array; a dense input drops its zeros."""
    import scipy.sparse

    w = scipy.sparse.csr_array(w, dtype=float)
    if w.shape[0] != w.shape[1]:
        raise IntegrityError(f"weight matrix must be square, got {w.shape}")
    if not w.has_canonical_format:
        raise IntegrityError("sparse weight matrix must be canonical CSR: sorted, no duplicate entries")
    if not np.all(np.isfinite(w.data)) or np.any(w.data <= 0.0):
        raise IntegrityError("stored weights must be finite and positive")
    if np.any(w.indices == csr_rows(w)):
        raise IntegrityError("weight matrix diagonal must be exactly zero")
    t = w.T.tocsr()
    if not all(np.array_equal(a, b) for a, b in ((t.indptr, w.indptr), (t.indices, w.indices), (t.data, w.data))):
        raise IntegrityError("weight matrix is not exactly symmetric")
    for part in (w.data, w.indices, w.indptr):
        part.setflags(write=False)
    return w


def csr_rows(w: scipy.sparse.csr_array) -> np.ndarray:
    """Row index of every stored entry of a CSR array."""
    return np.repeat(np.arange(w.shape[0]), np.diff(w.indptr))


@dataclass(frozen=True)
class SimilarityGraph:
    """Symmetric weighted graph; weights live in w, model/params record provenance.

    The kNN models hold w as CSR (a dense w given for them is converted),
    the others as a dense array (module docstring).
    """

    w: np.ndarray | scipy.sparse.csr_array
    model: str
    params: GraphParams
    seed: int | None = None

    def __post_init__(self):
        w = _csr_weights(self.w) if self.model in KNN_MODELS else checked_matrix(self.w, "weight matrix")
        object.__setattr__(self, "w", w)

    @property
    def n(self) -> int:
        return self.w.shape[0]

    def n_edges(self) -> int:
        import scipy.sparse

        return scipy.sparse.csr_array(self.w).nnz // 2


def initial_similarities(dist: DistanceMatrix, m: float = -1.0) -> InitialSimilarities:
    """Similarity of j seen from i: d_ij^m / sum_{l != i} d_il^m with m < 0.

    Each row sums to exactly one (up to float rounding); the matrix is not
    symmetric in general. Coincident distinct points make the power diverge,
    so they are a hard error naming the offending pair. The powers go into
    the output array one block of rows at a time (row_blocks), each row
    zeroed on the diagonal and divided by its sum in place.
    """
    if not m < 0:
        raise ParameterError(f"exponent m must be negative, got {m}")
    d = dist.d
    n = dist.n
    zero = d == 0.0
    np.fill_diagonal(zero, False)
    if zero.any():
        i, j = np.argwhere(zero)[0]
        raise DegenerateDistanceError(
            f"instances {i} and {j} are at distance zero; inverse-distance similarities are undefined"
        )
    del zero
    s = np.empty_like(d)
    for lo, hi in row_blocks(n):
        rows = s[lo:hi]
        # `**` as written: numpy computes d ** -1 as a reciprocal. The
        # diagonal's 0 ** m is overwritten.
        with np.errstate(divide="ignore"):
            rows[...] = d[lo:hi] ** m
        np.fill_diagonal(rows[:, lo:], 0.0)
        rows /= rows.sum(axis=1, keepdims=True)
    np.fill_diagonal(s, 0.0)
    return InitialSimilarities(s=s, m=m)


def epsilon_graph(dist: DistanceMatrix, epsilon: float) -> SimilarityGraph:
    """Unweighted graph joining pairs strictly closer than epsilon."""
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise ParameterError(f"epsilon must be positive and finite, got {epsilon}")
    w = (dist.d < epsilon).astype(float)
    np.fill_diagonal(w, 0.0)
    return SimilarityGraph(w=w, model="epsilon", params=GraphParams(epsilon=epsilon))


def symmetrize_in_place(a: np.ndarray, combine: Callable) -> None:
    """Make a square array exactly symmetric: a_ij and a_ji both become
    combine(a_ij, a_ji), for a combine(x, y, out=x) that is symmetric in x
    and y bit for bit, such as np.maximum.

    Works tile pair by tile pair, (I, J) with its mirror (J, I), on square
    tiles of at most ROW_BLOCK_BYTES and a quarter of the rows; the one
    temporary is a copy of a diagonal tile.
    """
    n = a.shape[0]
    tiles = block_ranges(n, max(1, min(math.isqrt(dataset.ROW_BLOCK_BYTES // 8), -(-n // 4))))
    for t, (lo, hi) in enumerate(tiles):
        for col_lo, col_hi in tiles[t:]:
            upper = a[lo:hi, col_lo:col_hi]
            mirror = a[col_lo:col_hi, lo:hi]
            if col_lo == lo:
                combine(upper, mirror.T.copy(), out=upper)
            else:
                combine(upper, mirror.T, out=upper)
                mirror[...] = upper.T


def nearest_columns(d: np.ndarray, k: int) -> np.ndarray:
    """Columns (rows, k), ascending per row, of the k smallest entries of each
    row of a block, ranked by value and then column index.

    The k-th smallest entry of a row is a threshold. When exactly k entries
    lie at or below it they are the k smallest. Only rows with more, a tie at
    the threshold, are ranked in full by value and then index.
    """
    b, n = d.shape
    near = d <= np.partition(d, k - 1, axis=1)[:, k - 1 : k]
    idx = np.arange(n)
    for r in np.flatnonzero(near.sum(axis=1) != k):
        near[r] = False
        near[r, np.lexsort((idx, d[r]))[:k]] = True
    return np.nonzero(near)[1].reshape(b, k)


def _median_bins(sq: np.ndarray) -> np.ndarray:
    bins = sq.view(np.int64) >> MEDIAN_BIN_SHIFT
    bins -= MEDIAN_BIN_LOW
    return np.clip(bins, 0, MEDIAN_BINS - 1, out=bins)


def _bin_floor(b: int) -> float:
    """Smallest nonnegative square in bin b; infinity past the last bin."""
    if b == 0:
        return 0.0
    if b == MEDIAN_BINS:
        return math.inf
    return float(np.int64((b + MEDIAN_BIN_LOW) << MEDIAN_BIN_SHIFT).view(np.float64))


def _upper_blocks(points: np.ndarray):
    """The strict upper triangle of the squared distances by row blocks
    [lo, hi): (sq, lower), sq the squared cdist of those rows against the
    points from lo on, and lower marking the entries of sq[:, :hi - lo] on or
    below the diagonal. A block is about ROW_BLOCK_BYTES, so it gains rows as
    the triangle narrows, and at most ceil(n / DENSE_BLOCK_PARTS) rows.

    cdist's squared distance is the sum its distance takes the square root
    of, so the square roots of these entries are cdist's distances, bit for
    bit, and they order the pairs the same way."""
    from scipy.spatial.distance import cdist

    n = points.shape[0]
    most = -(-n // DENSE_BLOCK_PARTS)
    lo = 0
    while lo < n:
        hi = min(n, lo + max(1, min(most, dataset.ROW_BLOCK_BYTES // (8 * (n - lo)))))
        yield cdist(points[lo:hi], points[lo:], "sqeuclidean"), np.tri(hi - lo, dtype=bool)
        lo = hi


def _median_from_bins(counts: np.ndarray, points: np.ndarray) -> float:
    """The exact median of the n(n-1)/2 pair distances, with the bits of
    np.median over the strict upper triangle.

    `counts` holds the bin counts of the strict upper triangle's squared
    distances (pass 1, over _upper_blocks). Pass 2 recomputes the same
    blocks, keeps only the squares in the bin or bins that hold the middle
    rank(s), found by value since bins are ordered, and partitions those.
    The square root of a middle square is a middle distance; two are
    averaged as np.median averages them.
    """
    n = points.shape[0]
    pairs = n * (n - 1) // 2
    middle = ((pairs - 1) // 2, pairs // 2)  # equal when the pair count is odd
    ends = np.cumsum(counts)
    wanted = np.searchsorted(ends, middle, side="right")
    below = int(ends[wanted[0]] - counts[wanted[0]])
    # any bins between the two are empty
    floor, ceiling = _bin_floor(wanted[0]), _bin_floor(wanted[1] + 1)
    kept = np.empty(ends[wanted[1]] - below)
    at = 0
    for sq, lower in _upper_blocks(points):
        take = (sq >= floor) & (sq < ceiling)
        take[:, : len(lower)][lower] = False
        got = sq[take]
        kept[at : at + len(got)] = got
        at += len(got)
    first, last = middle[0] - below, middle[1] - below
    kept.partition((first, last))
    return float(np.mean(np.sqrt(kept[first : last + 1])))


def _tree_neighbours(points: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each point's k nearest others, ascending by column, and their
    distances, with the bits and the tie rule of nearest_columns over cdist
    rows: ranked by (distance, index), the point itself never counted.

    A k-d tree gives q = k + 1 + TREE_SLACK candidates per point. Their
    distances are recomputed with cdist's bits by dataset.pair_distances, by
    row blocks. A row whose k-th distance is strictly below the tree's q-th,
    shrunk by the relative TREE_MARGIN, is settled: every point not returned
    is farther than its k-th. The other rows, ties at the tree's boundary
    and duplicates among them, are widened: cdist against all points, then
    nearest_columns.
    """
    from scipy.spatial import cKDTree
    from scipy.spatial.distance import cdist

    n = points.shape[0]
    q = min(n, k + 1 + TREE_SLACK)
    tree_d, cand = cKDTree(points).query(points, k=q)
    coords = np.ascontiguousarray(points.T)
    neighbours = np.empty((n, k), dtype=np.int64)
    near = np.empty((n, k))
    settled = np.empty(n, dtype=bool)
    for lo, hi in block_ranges(n, max(1, dataset.ROW_BLOCK_BYTES // (8 * q))):
        c = cand[lo:hi]
        d = pair_distances(coords, lo, hi, c)
        own = c == np.arange(lo, hi)[:, None]
        d[own] = np.inf
        by_index = np.argsort(np.where(own, n, c), axis=1)  # the point itself last
        c = np.take_along_axis(c, by_index, axis=1)
        d = np.take_along_axis(d, by_index, axis=1)
        at = nearest_columns(d, k)
        neighbours[lo:hi] = np.take_along_axis(c, at, axis=1)
        near[lo:hi] = np.take_along_axis(d, at, axis=1)
        bound = tree_d[lo:hi, -1]
        # The tree's distances and the recomputed ones each carry a relative
        # rounding error of about (p + 4) * 2**-53, and the tree's pruning
        # bounds as much again, while sums of squares near the tree's q-th
        # distance stay in float64's normal range (that distance within
        # 2**-511 to 2**511): TREE_MARGIN covers that for p up to about a
        # million. Rows outside that range are widened.
        settled[lo:hi] = (q == n) | (
            (near[lo:hi].max(axis=1) < bound * (1.0 - TREE_MARGIN)) & (bound >= 2.0**-511) & (bound <= 2.0**511)
        )
    widened = np.flatnonzero(~settled)
    for lo, hi in block_ranges(len(widened), max(1, dataset.ROW_BLOCK_BYTES // (8 * n))):
        rows = widened[lo:hi]
        d = cdist(points[rows], points)
        d[np.arange(len(rows)), rows] = np.inf  # a point is never its own neighbour
        neighbours[rows] = nearest_columns(d, k)
        near[rows] = np.take_along_axis(d, neighbours[rows], axis=1)
    return neighbours, near


def _knn_csr(n: int, neighbours: np.ndarray, near: np.ndarray, mutual: bool, sigma: float) -> scipy.sparse.csr_array:
    """W as canonical CSR from each point's k neighbours and their distances.

    A pair is joined when either point lists the other (both, if mutual). The
    distance of a pair is read from a row that lists it; the distance matrix
    is bitwise symmetric, so either row gives the same bits. Weights are
    exp(-d^2 / (2 sigma^2)); one that underflows to zero is no edge.
    """
    import scipy.sparse

    k = neighbours.shape[1]
    listed = np.repeat(np.arange(n), k) * n + neighbours.ravel()  # row-major keys i * n + j, ascending
    reverse = neighbours.ravel() * n + np.repeat(np.arange(n), k)
    dist = near.ravel()
    if mutual:
        both = np.isin(listed, reverse)
        keys, dist = listed[both], dist[both]
    else:
        keys, first = np.unique(np.concatenate((listed, reverse)), return_index=True)
        dist = np.concatenate((dist, dist))[first]
    weights = np.exp(-(dist**2) / (2.0 * sigma**2))
    edge = weights > 0.0
    return scipy.sparse.csr_array((weights[edge], np.divmod(keys[edge], n)), shape=(n, n))


def knn_graph(
    data: Dataset | np.ndarray,
    k: int,
    mode: str = "symmetric",
    sigma: float | None = None,
) -> SimilarityGraph:
    """k-nearest-neighbour graph with Gaussian weights exp(-d^2 / (2 sigma^2)).

    mode "symmetric" joins i~j when either lists the other among its k nearest
    others, ranked by (distance, index) (_tree_neighbours); mode "mutual"
    requires both. sigma defaults to the median off-diagonal distance, which
    two passes over the upper triangle's squared distances select exactly
    (_upper_blocks, _median_from_bins). `data` is coordinates, a Dataset's or
    an n x p array (module docstring).
    """
    try:
        points = coordinates(data)
    except TypeError as exc:
        raise ParameterError(f"kNN graphs are built from coordinates, got {type(data).__name__}") from exc
    n = points.shape[0]
    if not (1 <= k <= n - 1):
        raise ParameterError(f"k must satisfy 1 <= k <= n-1 = {n - 1}, got {k}")
    if mode not in ("symmetric", "mutual"):
        raise ParameterError(f"mode must be 'symmetric' or 'mutual', got {mode!r}")
    if sigma is not None and not (sigma > 0 and math.isfinite(sigma)):
        raise ParameterError(f"sigma must be positive and finite, got {sigma}")
    neighbours, near = _tree_neighbours(points, k)
    if sigma is None:
        counts = np.zeros(MEDIAN_BINS + 1, dtype=np.int64)  # the last bin takes what is not upper
        for sq, lower in _upper_blocks(points):
            bins = _median_bins(sq)
            bins[:, : len(lower)][lower] = MEDIAN_BINS
            counts += np.bincount(bins.ravel(), minlength=MEDIAN_BINS + 1)
        sigma = _median_from_bins(counts[:-1], points)
        if sigma <= 0:
            raise ParameterError("median distance is zero; pass sigma explicitly")
    w = _knn_csr(n, neighbours, near, mode == "mutual", sigma)
    model = "knn_symmetric" if mode == "symmetric" else "knn_mutual"
    return SimilarityGraph(w=w, model=model, params=GraphParams(k=k, sigma=sigma))


def fully_connected_gaussian(dist: DistanceMatrix, sigma: float) -> SimilarityGraph:
    """Complete graph with Gaussian weights; no sparsification at all."""
    if not (sigma > 0 and math.isfinite(sigma)):
        raise ParameterError(f"sigma must be positive and finite, got {sigma}")
    w = np.exp(-(dist.d**2) / (2.0 * sigma**2))
    np.fill_diagonal(w, 0.0)
    return SimilarityGraph(w=w, model="fully_connected", params=GraphParams(sigma=sigma))


def gaussian_bump(s: np.ndarray | float, w_thresh: float, sigma: float, out: np.ndarray | None = None):
    """Gaussian density (not truncated) centred at the keep threshold, into
    `out` when given: exp(-((s - w_thresh) ** 2) / (2 sigma^2)) / (sigma sqrt(2 pi)),
    one ufunc per step, with that expression's bits: x / -c is -(x / c) in
    IEEE arithmetic, so the square is divided by -2 sigma^2, not negated."""
    f = np.subtract(s, w_thresh, out=out)
    f = np.square(f, out=out)
    f = np.divide(f, -(2.0 * sigma**2), out=out)
    f = np.exp(f, out=out)
    return np.divide(f, sigma * math.sqrt(2.0 * math.pi), out=out)


def bump_peak(sigma: float) -> float:
    return 1.0 / (sigma * math.sqrt(2.0 * math.pi))


def _combine(rule: str) -> np.ufunc:
    """The elementwise combination of w_ij and w_ji a symmetrize rule names."""
    if rule not in SYMMETRIZE_RULES:
        raise ParameterError(f"symmetrize rule must be one of {SYMMETRIZE_RULES}, got {rule!r}")
    return np.minimum if rule == "min" else np.maximum


def _sparsify(
    sims: InitialSimilarities,
    w_thresh: float,
    sigma: float,
    rule: str,
    drop: Callable[[np.ndarray, int, int, np.ndarray], None],
) -> np.ndarray:
    """The rule both probabilistic models share, per directed entry s: keep
    s >= w_thresh; an off-diagonal s < w_thresh that the model revives gets
    min(f, w_thresh), f its bump, so it never outweighs an entry that passed
    on its own; drop the rest. Then min/max symmetrization.

    Everything happens in W, one n x n array, by blocks of rows (row_blocks):
    first every row's bump f, then per block the dropped entries and the
    final directed weights, then the symmetrization, tile pair by tile pair.
    drop(below, lo, hi, w) gets the block's off-diagonal below-threshold
    mask, which it may overwrite, and leaves 0 in w wherever that mask marks
    an entry the model does not revive (min(0, w_thresh) keeps it 0). It is
    called on the blocks in order, the rows from lo on holding bumps or 0.
    """
    if not (0.0 < w_thresh < 1.0):
        raise ParameterError(f"w_thresh must be in (0, 1), got {w_thresh}")
    if not (sigma > 0 and math.isfinite(sigma)):
        raise ParameterError(f"sigma must be positive and finite, got {sigma}")
    combine = _combine(rule)
    s = sims.s
    w = np.empty_like(s)
    blocks = row_blocks(s.shape[0])
    for lo, hi in blocks:
        gaussian_bump(s[lo:hi], w_thresh, sigma, out=w[lo:hi])
    for lo, hi in blocks:
        rows = w[lo:hi]
        below = s[lo:hi] < w_thresh
        np.fill_diagonal(below[:, lo:], False)
        drop(below, lo, hi, w)
        np.minimum(rows, w_thresh, out=rows)
        np.copyto(rows, s[lo:hi], where=np.greater_equal(s[lo:hi], w_thresh, out=below))
    symmetrize_in_place(w, combine)
    np.fill_diagonal(w, 0.0)
    return w


def prob_threshold_graph(
    sims: InitialSimilarities,
    w_thresh: float,
    sigma: float,
    eps_weight: float,
    symmetrize_rule: str = "max",
) -> SimilarityGraph:
    """Deterministic sparsifier over initial similarities: a below-threshold
    entry is revived when its bump reaches eps_weight (see _sparsify)."""
    if not (eps_weight > 0 and math.isfinite(eps_weight)):
        raise ParameterError(f"eps_weight must be positive and finite, got {eps_weight}")

    def falls_short(below: np.ndarray, lo: int, hi: int, f: np.ndarray) -> None:
        np.copyto(f[lo:hi], 0.0, where=np.logical_and(below, f[lo:hi] < eps_weight, out=below))

    w = _sparsify(sims, w_thresh, sigma, symmetrize_rule, falls_short)
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
    """Randomized sparsifier: a below-threshold entry is revived with
    probability bump(s)/bump_peak (see _sparsify).

    Draws come from one generator seeded with `seed`, consumed in a fixed
    order: unordered pairs (i, j), i < j, row-major, the (i, j) direction
    before (j, i), skipping directions at or above the threshold. Entries at
    or above the threshold never consume randomness, so a graph whose
    similarities all clear the threshold is identical for every seed. The
    draws are made block by block of rows i, which gives the doubles of one
    call, and each decision goes straight into W.
    """
    if seed is None:
        raise ParameterError("prob_criterion_graph requires an explicit seed")
    s = sims.s
    n = s.shape[0]
    rng = np.random.default_rng(seed)
    peak = bump_peak(sigma)

    def draw(below: np.ndarray, lo: int, hi: int, f: np.ndarray) -> None:
        # The block's pairs (i, j), j > i, in columns j from lo on: axis 0
        # is i, axis 1 is j, axis 2 their (i, j) and (j, i) directions, so
        # C order is the draw order. An undrawn u is -inf: it drops nothing.
        # f >= 0 times a 0/1 float mask, faster than a bool one or copyto.
        upper = np.arange(n - lo) > np.arange(hi - lo)[:, None]
        drawn = np.empty((hi - lo, n - lo, 2), dtype=bool)
        np.logical_and(below[:, lo:], upper, out=drawn[:, :, 0])
        np.less(s[lo:, lo:hi].T, w_thresh, out=drawn[:, :, 1])
        drawn[:, :, 1] &= upper
        u = np.full(drawn.shape, -np.inf)
        u[drawn] = rng.random(np.count_nonzero(drawn))
        f[lo:hi, lo:] *= (u[:, :, 0] < f[lo:hi, lo:] / peak).astype(float)
        f[lo:, lo:hi] *= (u[:, :, 1] < f[lo:, lo:hi].T / peak).T.astype(float)

    w = _sparsify(sims, w_thresh, sigma, symmetrize_rule, draw)
    params = GraphParams(sigma=sigma, w_thresh=w_thresh, m=sims.m, symmetrize=symmetrize_rule)
    return SimilarityGraph(w=w, model="prob_criterion", params=params, seed=seed)


def build_graph(
    data: Dataset | np.ndarray | DistanceMatrix,
    spec: GraphSpec,
    seed: int | None = None,
    sims: InitialSimilarities | None = None,
) -> SimilarityGraph:
    """Dispatch a GraphSpec to the matching builder.

    `data` is coordinates or, for the dense models, a DistanceMatrix. The kNN
    models read coordinates in row blocks; the others need the dense distance
    matrix and compute it from coordinates. The probabilistic models derive
    their inputs from the distances via initial_similarities using params.m
    as the exponent, unless `sims` already holds them for that exponent (a
    grid search shares one across its candidates); `sims` computed with
    another exponent is a ParameterError, and so is a spec that leaves a
    required param (REQUIRED_PARAMS) unset; it names every one missing.
    """
    missing = spec.missing_params()
    if missing:
        raise ParameterError(f"{spec.model} needs " + ", ".join(f"params.{name}" for name in missing))
    p = spec.params
    if spec.model in KNN_MODELS:
        mode = "symmetric" if spec.model == "knn_symmetric" else "mutual"
        return knn_graph(data, p.k, mode=mode, sigma=p.sigma)
    dist = data if isinstance(data, DistanceMatrix) else pairwise_distances(data)
    if spec.model == "epsilon":
        return epsilon_graph(dist, p.epsilon)
    if spec.model == "fully_connected":
        return fully_connected_gaussian(dist, p.sigma)
    if sims is None:
        sims = initial_similarities(dist, m=p.m)
    elif sims.m != p.m:
        raise ParameterError(f"similarities were computed with m = {sims.m}, the spec has m = {p.m}")
    if spec.model == "prob_threshold":
        return prob_threshold_graph(sims, p.w_thresh, p.sigma, p.eps_weight, p.symmetrize)
    return prob_criterion_graph(sims, p.w_thresh, p.sigma, p.symmetrize, seed=seed)


def connected_components(graph: SimilarityGraph | np.ndarray) -> tuple[int, np.ndarray]:
    """Connected components of the positive-weight support.

    Returns (count, labels) where labels are 0-based, numbered by the smallest
    vertex index in each component (so labels[0] == 0).
    """
    import scipy.sparse.csgraph

    w = graph.w if isinstance(graph, SimilarityGraph) else graph
    support = w if scipy.sparse.issparse(w) else scipy.sparse.csr_array(np.asarray(w) > 0.0)
    count, labels = scipy.sparse.csgraph.connected_components(support, directed=False)
    return int(count), labels.astype(int)


def graph_to_json_dict(graph: SimilarityGraph) -> dict:
    """Sparse serialization: nonzero upper-triangle entries as (i, j, weight), row-major."""
    import scipy.sparse

    w = scipy.sparse.csr_array(graph.w)
    rows = csr_rows(w)
    upper = w.indices > rows
    return {
        "n": graph.n,
        "model": graph.model,
        "params": graph.params.to_json_dict(),
        "seed": graph.seed,
        "triplets": [[int(i), int(j), float(v)] for i, j, v in zip(rows[upper], w.indices[upper], w.data[upper])],
    }


def write_graph_json(graph: SimilarityGraph, path: str | Path) -> None:
    Path(path).write_text(json.dumps(graph_to_json_dict(graph), indent=2, sort_keys=True) + "\n")

