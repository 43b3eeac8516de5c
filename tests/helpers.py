"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np

from spectralweak.dataset import Dataset
from spectralweak.simgraph import bump_peak, gaussian_bump, symmetrize


def build_dataset(bags, strong):
    """bags: iterable of (bag_id, label, rows) with rows a list of feature lists."""
    ids, bag_ids, labels, x = [], [], [], []
    for bag_id, label, rows in bags:
        for row in rows:
            ids.append(f"i{len(ids):03d}")
            bag_ids.append(bag_id)
            labels.append(label)
            x.append(row)
    return Dataset(x=np.array(x, dtype=float), ids=ids, bag=bag_ids, label=labels, strong_label=strong)


def singleton_dataset(points, labels, strong=None):
    """One bag per instance, labelled by the instance's class."""
    rows = np.asarray(points, dtype=float)
    labs = [str(v) for v in labels]
    bags = [(f"b{i:03d}", labs[i], [rows[i]]) for i in range(len(labs))]
    return build_dataset(bags, strong if strong is not None else sorted(set(labs))[0])


def two_blobs(n_per=6, gap=8.0, spread=0.3, seed=0):
    """Two well-separated point clouds plus their group labels."""
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, spread, size=(n_per, 2))
    b = rng.normal(0.0, spread, size=(n_per, 2)) + [gap, 0.0]
    return np.vstack([a, b]), np.array([0] * n_per + [1] * n_per)


def knn_adjacency_reference(d, k):
    """Per-row ranking by (distance, index), self dropped, first k kept.

    The original kNN builder, kept as the oracle for the tie rule: on equal
    distance the lower index wins, and the point itself never counts even
    when duplicates sit at distance zero.
    """
    d = np.asarray(d)
    n = d.shape[0]
    idx = np.arange(n)
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        order = np.lexsort((idx, d[i]))
        order = order[order != i]
        adj[i, order[:k]] = True
    return adj


def components_reference(w):
    """Depth-first connected components of the positive-weight support,
    labelled in order of each component's smallest vertex."""
    support = np.asarray(w) > 0.0
    n = support.shape[0]
    labels = np.full(n, -1, dtype=int)
    count = 0
    for start in range(n):
        if labels[start] != -1:
            continue
        stack = [start]
        labels[start] = count
        while stack:
            v = stack.pop()
            for u in np.flatnonzero(support[v]):
                if labels[u] == -1:
                    labels[u] = count
                    stack.append(u)
        count += 1
    return count, labels


def prob_criterion_reference(sims, w_thresh, sigma, symmetrize_rule="max", seed=0):
    """Weights of the randomized sparsifier, drawing through an explicit
    enumeration of the below-threshold directions: unordered pairs i < j in
    row-major order, the (i, j) direction before (j, i).

    The original prob_criterion_graph body, kept as the oracle for its draw
    order and its weights.
    """
    s = sims.s
    n = s.shape[0]
    directed = np.where(s >= w_thresh, s, 0.0)
    np.fill_diagonal(directed, 0.0)
    rng = np.random.default_rng(seed)
    peak = bump_peak(sigma)
    below = (s < w_thresh) & ~np.eye(n, dtype=bool)
    pairs = np.argwhere(np.triu(below | below.T, 1))
    if pairs.size:
        both = np.empty((pairs.shape[0], 2, 2), dtype=int)
        both[:, 0] = pairs
        both[:, 1] = pairs[:, ::-1]
        flat = both.reshape(-1, 2)
        flat = flat[below[flat[:, 0], flat[:, 1]]]
        f = gaussian_bump(s[flat[:, 0], flat[:, 1]], w_thresh, sigma)
        accepted = rng.random(flat.shape[0]) < f / peak
        directed[flat[accepted, 0], flat[accepted, 1]] = np.minimum(f[accepted], w_thresh)
    w = symmetrize(directed, symmetrize_rule)
    np.fill_diagonal(w, 0.0)
    return w


def rw_laplacian_reference(w):
    """L_rw = D^-1 (D - W) with zero degrees clamped to 1, as a dense array.

    The matrix the spectral step used to build, in one buffer scaled in
    place, before it solved through L_sym.
    """
    w = np.asarray(w, dtype=float)
    deg = w.sum(axis=1)
    mat = 0.0 - w
    np.fill_diagonal(mat, deg)
    mat /= np.where(deg == 0.0, 1.0, deg)[:, None]
    return mat


def sym_laplacian_reference(w):
    """The eigh input of the former route: L_sym reconstructed from L_rw as
    D^1/2 L_rw D^-1/2, then made exactly symmetric."""
    w = np.asarray(w, dtype=float)
    deg = w.sum(axis=1)
    deg_safe = np.where(deg == 0.0, 1.0, deg)
    sym = np.sqrt(deg_safe)[:, None] * rw_laplacian_reference(w)
    sym *= 1.0 / np.sqrt(deg_safe)
    sym = sym + sym.T
    sym /= 2.0
    return sym


def knn_predict_reference(model, x):
    """One query row at a time: rank the training rows by (distance, index)
    with a lexsort, count the k nearest rows' votes per class, take the first
    most-voted class.

    The original kNN predict loop, kept as the oracle for its distances, its
    ranking and its vote tie rule.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape[0], dtype=object)
    train_idx = np.arange(model.train_x.shape[0])
    class_index = {lab: i for i, lab in enumerate(model.classes)}
    for i in range(x.shape[0]):
        dists = np.linalg.norm(model.train_x - x[i], axis=1)
        order = np.lexsort((train_idx, dists))[: model.k]
        votes = np.zeros(len(model.classes), dtype=int)
        for j in order:
            votes[class_index[model.train_y[j]]] += 1
        out[i] = model.classes[int(np.argmax(votes))]
    return out
