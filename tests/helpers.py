"""Shared builders for the test suite."""

from __future__ import annotations

import contextlib
import csv
import ctypes
import os
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import scipy.sparse

from spectralweak import classify, spectral
from spectralweak.classify import AggregationRule, BagResult, CVResult, LogisticModel
from spectralweak.dataset import Dataset
from spectralweak.errors import DegenerateDistanceError, NumericalError
from spectralweak.simgraph import InitialSimilarities, bump_peak, gaussian_bump
from spectralweak.spectral import LLOYD_MAX_ITER, Grouping, KMeansResult, KMeansRun
from spectralweak.weakanno import SynthBagsConfig, synth_bags


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


def knn_graph_reference(dist, k, mode="symmetric", sigma=None):
    """Dense W of the kNN graph over a DistanceMatrix, and its sigma.

    The original dense kNN builder, kept as the oracle for the bits of the
    blockwise CSR builder: sigma defaults to np.median of the strict upper
    triangle; each row's (k+1)-th smallest entry is a threshold, and only
    rows with a tie at it are ranked in full by (distance, index); Gaussian
    weights are evaluated on the joined pairs, so one that underflows leaves
    a zero in W.
    """
    d = dist.d
    n = dist.n
    if sigma is None:
        sigma = float(np.median(d[~np.tri(n, dtype=bool)]))
    thr = np.partition(d, k, axis=1)[:, k]
    adj = d <= thr[:, None]
    np.fill_diagonal(adj, False)
    idx = np.arange(n)
    for i in np.flatnonzero(adj.sum(axis=1) != k):
        order = np.lexsort((idx, d[i]))
        order = order[order != i]
        adj[i] = False
        adj[i, order[:k]] = True
    joined = (adj | adj.T) if mode == "symmetric" else (adj & adj.T)
    rows, cols = np.nonzero(joined)
    w = np.zeros((n, n))
    w[rows, cols] = np.exp(-(d[rows, cols] ** 2) / (2.0 * sigma**2))
    return w, sigma


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


def initial_similarities_reference(dist, m=-1.0):
    """Row-normalized inverse-distance similarities through whole-matrix
    temporaries: the off-diagonal powers gathered and scattered with a mask,
    then divided by their row sums into a new array.

    The original initial_similarities body, kept as the oracle for the bits
    of the one that powers and divides in its output buffer.
    """
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


def symmetrize(directed, rule="max"):
    """w_ij and w_ji combined by elementwise min or max, as a new array.

    The original simgraph.symmetrize, kept as the oracle for the bits of the
    builders' symmetrization in place.
    """
    directed = np.asarray(directed, dtype=float)
    return {"min": np.minimum, "max": np.maximum}[rule](directed, directed.T)


def prob_threshold_reference(sims, w_thresh, sigma, eps_weight, symmetrize_rule="max"):
    """Weights of the deterministic sparsifier: keep s at or above the
    threshold, drop a direction whose bump falls under eps_weight, revive the
    rest at min(bump, w_thresh).

    The original prob_threshold_graph body, kept as the oracle for its weights.
    """
    s = sims.s
    f = gaussian_bump(s, w_thresh, sigma)
    revived = np.where(f < eps_weight, 0.0, np.minimum(f, w_thresh))
    directed = np.where(s >= w_thresh, s, revived)
    np.fill_diagonal(directed, 0.0)
    w = symmetrize(directed, symmetrize_rule)
    np.fill_diagonal(w, 0.0)
    return w


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


def unnormalized_laplacian(graph):
    """L = D - W of a dense W, D its row sums."""
    return np.diag(graph.w.sum(axis=1)) - graph.w


def rw_laplacian_reference(w):
    """L_rw = D^-1 (D - W) with zero degrees clamped to 1, as a dense array.

    The matrix the spectral step used to build, in one buffer scaled in
    place, before it solved through L_sym.
    """
    w = w.toarray() if scipy.sparse.issparse(w) else np.asarray(w, dtype=float)
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


def sym_laplacian_buffer_reference(w, deg, deg_safe, inv_sqrt):
    """L_sym scaled in one buffer, then made symmetric as a new array
    (S + S^T) / 2.

    The original spectral._sym_laplacian body, kept as the oracle for the
    bits of the one that symmetrizes in place, tile pair by tile pair.
    """
    sym = 0.0 - w
    np.fill_diagonal(sym, deg)
    sym /= deg_safe[:, None]
    sym *= np.sqrt(deg_safe)[:, None]
    sym *= inv_sqrt
    sym = sym + sym.T
    sym /= 2.0
    return sym


def standardize_reference(x):
    """Column z-scores with ddof=1, each column whose rows are all equal
    mapped to +0.0, and the mask of those columns.

    The original standardize formula, kept as the oracle for the bits of the
    one z-scoring routine run on one fold of all rows.
    """
    mean = x.mean(axis=0)
    constant = (x == x[0]).all(axis=0)
    scaled = (x - mean) / np.where(constant, 1.0, x.std(axis=0, ddof=1))
    scaled[:, constant] = 0.0
    return scaled, constant


def constant_columns_reference(x, weights):
    """The constant columns of `dataset.zscore`, (folds, p), tested on a
    (folds, n, p) array reduced over its rows.

    The original test, kept as the oracle for the one on the contiguous
    columns of x.
    """
    first = x[np.argmax(weights, axis=1)]
    return ((x == first[:, None]) | (weights[..., None] == 0.0)).all(axis=1)


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


def _softmax_reference(x1, theta):
    scores = x1 @ theta.T
    full = np.concatenate([scores, np.zeros((scores.shape[0], 1))], axis=1)
    full -= full.max(axis=1, keepdims=True)
    expd = np.exp(full)
    return expd / expd.sum(axis=1, keepdims=True)


def _objective_reference(probs, onehot, coef, l2):
    nll = -float(np.log(np.clip((probs * onehot).sum(axis=1), 1e-300, None)).sum())
    return nll + 0.5 * l2 * float((coef**2).sum())


def _gradient_reference(theta, x1, probs, onehot, l2, mask):
    grad = np.empty_like(theta)
    for a in range(theta.shape[0]):
        grad[a] = x1.T @ (probs[:, a] - onehot[:, a]) + l2 * theta[a] * mask
    return grad


def gradient_reference_at(model, x, y, l2):
    """_gradient_reference at a model's parameters, one row per
    non-reference class with the intercept entry last."""
    x = np.asarray(x, dtype=float)
    x1 = np.concatenate([x, np.ones((x.shape[0], 1))], axis=1)
    theta = np.column_stack([model.coef, model.intercept])
    onehot = (np.asarray(y)[:, None] == np.asarray(model.classes)).astype(float)
    mask = np.append(np.ones(x.shape[1]), 0.0)
    return _gradient_reference(theta, x1, _softmax_reference(x1, theta), onehot, l2, mask)


def logistic_stack(theta, x, y, classes):
    """Parameters theta, (c-1, p+1) with the intercept column last, and
    labelled rows as the stack of one problem that classify's Newton core
    steps on: x1, theta, probs, onehot and weights, each with a leading
    axis of 1 but the onehot, which the stack shares."""
    x = np.asarray(x, dtype=float)
    x1 = np.concatenate([x, np.ones((x.shape[0], 1))], axis=1)[None]
    theta = np.asarray(theta, dtype=float)[None]
    onehot = (np.asarray(y)[:, None] == np.asarray(classes)).astype(float).T
    return x1, theta, classify._softmax_full(x1, theta), onehot, np.ones((1, x.shape[0]))


def stacked_objective(theta, x, y, classes, l2):
    """classify._logistic_objective at theta (`logistic_stack`)."""
    x1, theta, probs, onehot, weights = logistic_stack(theta, x, y, classes)
    return float(classify._logistic_objective(probs, onehot, weights, theta, l2)[0])


def stacked_gradient(theta, x, y, classes, l2):
    """classify._logistic_gradient at theta (`logistic_stack`), shaped like theta."""
    x1, theta, probs, onehot, weights = logistic_stack(theta, x, y, classes)
    return classify._logistic_gradient(theta, x1, probs, onehot, weights, l2)[0]


def stacked_hessian(theta, x, y, classes, l2):
    """classify._logistic_hessian at theta (`logistic_stack`), over theta raveled."""
    x1, _, probs, _, weights = logistic_stack(theta, x, y, classes)
    return classify._logistic_hessian(x1, probs, weights, l2)[0]


def train_logistic_reference(x, y):
    """Damped Newton from zero on one problem, with every Hessian block of
    the (c-1)^2 grid computed by its own product.

    The original train_logistic, kept as the oracle for the bits of the fit
    that runs a stack of one through the batched Newton core and builds each
    off-diagonal block once and mirrors it.
    """
    x, y, classes = classify._check_training_inputs(x, y)
    n, p = x.shape
    if n <= p:
        warnings.warn(f"logistic fit with n={n} <= p={p}; coefficients rely on the ridge term")
    c = len(classes)
    onehot = (y[:, None] == np.asarray(classes)).astype(float)
    x1 = np.concatenate([x, np.ones((n, 1))], axis=1)
    dim = p + 1
    theta = np.zeros(((c - 1), dim))
    mask = np.ones(dim)
    mask[p] = 0.0
    probs = _softmax_reference(x1, theta)
    obj = _objective_reference(probs, onehot, theta[:, :p], classify.L2)
    converged = False
    it = 0
    for it in range(1, classify.MAX_ITER + 1):
        grad = _gradient_reference(theta, x1, probs, onehot, classify.L2, mask)
        if float(np.linalg.norm(grad.ravel())) / n <= classify.TOL:
            converged = True
            break
        hess = np.empty(((c - 1) * dim, (c - 1) * dim))
        for a in range(c - 1):
            for b in range(c - 1):
                wvec = probs[:, a] * ((1.0 if a == b else 0.0) - probs[:, b])
                block = x1.T @ (x1 * wvec[:, None])
                if a == b:
                    block = block + classify.L2 * np.diag(mask)
                hess[a * dim : (a + 1) * dim, b * dim : (b + 1) * dim] = block
        step = np.linalg.solve(hess + 1e-10 * np.eye(hess.shape[0]), grad.ravel())
        scale = 1.0
        for _ in range(30):
            trial = theta - scale * step.reshape(c - 1, dim)
            trial_probs = _softmax_reference(x1, trial)
            trial_obj = _objective_reference(trial_probs, onehot, trial[:, :p], classify.L2)
            if trial_obj <= obj + 1e-12 * max(1.0, abs(obj)):
                break
            scale /= 2.0
        theta, probs, obj = trial, trial_probs, trial_obj
    return LogisticModel(
        classes=classes, coef=theta[:, :p].copy(), intercept=theta[:, p].copy(),
        converged=converged, n_iter=it,
    )


def lobo_logistic_cold_reference(ts, ds, aggregation=AggregationRule()):
    """Logistic leave-one-bag-out with every fold's Newton run started from
    zero, and each fold's classes found by sorting a set of its labels.

    The original fold loop, kept as the oracle for the warm-started one: both
    must reach the same instance votes on every fold.
    """
    y = classify.instance_labels(ts, ds)
    all_classes = sorted(set(y.tolist()))
    results = []
    flagged = []
    for bag_id in ds.bag_ids:
        test = ds.bag == bag_id
        train_x = ds.x[~test]
        train_y = y[~test]
        fold_classes = sorted(set(train_y.tolist()))
        if fold_classes != all_classes:
            flagged.append(bag_id)
        if len(fold_classes) == 1:
            preds = np.asarray([fold_classes[0]] * int(test.sum()), dtype=object)
        else:
            mean = train_x.mean(axis=0)
            sd = train_x.std(axis=0, ddof=1) if train_x.shape[0] > 1 else np.ones(train_x.shape[1])
            constant = (train_x == train_x[0]).all(axis=0)
            sd = np.where(constant, 1.0, sd)

            def scaled(rows):
                # a column constant on the training side is zero on the whole fold
                return np.where(constant, 0.0, (rows - mean) / sd)

            model = classify.train_logistic(scaled(train_x), train_y)
            preds = classify.predict(model, scaled(ds.x[test]))
        results.append(
            BagResult(
                bag_id=bag_id, true_label=ds.label[np.argmax(test)],
                predicted_label=aggregation.aggregate(preds, ds.strong_label),
                instance_votes=Counter(preds.tolist()),
            )
        )
    return CVResult(
        per_bag=tuple(results),
        accuracy=sum(r.true_label == r.predicted_label for r in results) / len(results),
        confusion=Counter((r.true_label, r.predicted_label) for r in results),
        flagged_folds=tuple(flagged),
    )


def lobo_knn_sweep_reference(ts, ds, aggregation=AggregationRule()):
    """kNN leave-one-bag-out at the count of KNN_GRID whose fixed-count CV is
    first best, with that count as chosen_knn_k.

    The original inner sweep, one full CV per count, kept as the oracle for
    the sweep that ranks each fold once for every count.
    """
    accuracy = [classify.leave_one_bag_out_cv(ts, ds, "knn", aggregation, k).accuracy for k in classify.KNN_GRID]
    best = classify.KNN_GRID[accuracy.index(max(accuracy))]
    return replace(classify.leave_one_bag_out_cv(ts, ds, "knn", aggregation, best), chosen_knn_k=best)


def plus_plus_reference(points, k, rng):
    """One k-means++ start: the first centre uniform, each next one drawn with
    probability proportional to the squared distance to the nearest chosen
    centre (uniform when all of that mass is zero)."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[int(rng.integers(n))]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        total = d2.sum()
        choice = int(rng.choice(n, p=d2 / total)) if total > 0 else int(rng.integers(n))
        centers[c] = points[choice]
        d2 = np.minimum(d2, np.sum((points - centers[c]) ** 2, axis=1))
    return centers


def lloyd_reference(points, centers):
    """Lloyd refinement of one start with a Python loop over the centres."""
    n, k = points.shape[0], centers.shape[0]

    def assign(centers):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        return np.argmin(d2, axis=1), d2

    def check(prev, obj):
        if not obj <= prev + 1e-9 * max(1.0, prev):
            raise NumericalError(f"k-means objective increased: {prev!r} -> {obj!r}")

    trace = []
    labels, d2 = assign(centers)
    for _ in range(LLOYD_MAX_ITER):
        obj = float(d2[np.arange(n), labels].sum())
        if trace:
            check(trace[-1], obj)
        trace.append(obj)
        new_centers = centers.copy()
        dist_to_own = d2[np.arange(n), labels]
        reseeded = set()
        for c in range(k):
            mask = labels == c
            if mask.any():
                new_centers[c] = points[mask].mean(axis=0)
            else:
                masked = dist_to_own.copy()
                if reseeded:
                    masked[list(reseeded)] = -np.inf
                far = int(np.argmax(masked))
                reseeded.add(far)
                new_centers[c] = points[far]
        new_labels, new_d2 = assign(new_centers)
        converged = np.array_equal(new_labels, labels) and np.allclose(new_centers, centers)
        centers, labels, d2 = new_centers, new_labels, new_d2
        if converged:
            break
    obj = float(d2[np.arange(n), labels].sum())
    if obj != trace[-1]:
        check(trace[-1], obj)
        trace.append(obj)
    return KMeansRun(assignments=labels, objective=obj, objective_trace=tuple(trace), n_iter=len(trace))


def kmeans_reference(points, k, seed, restarts=10):
    """k-means++ starts from child seeds of `seed`, each refined on its own;
    the run with the smallest objective wins (the first on exact ties).

    The original spectral.kmeans, one start at a time, kept as the oracle for
    its bits: every run's assignments, objective trace and step count, and
    the best run.
    """
    points = np.asarray(points, dtype=float)
    runs = [
        lloyd_reference(points, plus_plus_reference(points, k, np.random.default_rng(child)))
        for child in np.random.SeedSequence(seed).spawn(restarts)
    ]
    best = min(range(restarts), key=lambda r: (runs[r].objective, r))
    return KMeansResult(
        grouping=Grouping(assignments=runs[best].assignments, k=k),
        objective=runs[best].objective,
        runs=tuple(runs),
        best_run=best,
    )


def write_fake_banknotes(path, n_per_class=100, sep=3.0, spread=0.2, rownames=True):
    """Stand-in for the Rdatasets banknote CSV: two well separated classes of
    six measurements, with or without the row-name column."""
    rng = np.random.default_rng(0)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        header = ["Status", "Length", "Left", "Right", "Bottom", "Top", "Diagonal"]
        if rownames:
            header = ["rownames"] + header
        w.writerow(header)
        for i in range(n_per_class):
            row = ["genuine", *np.round(rng.normal(0.0, spread, 6), 4)]
            w.writerow(([i + 1] + row) if rownames else row)
        for i in range(n_per_class):
            row = ["counterfeit", *np.round(rng.normal(sep, spread, 6), 4)]
            w.writerow(([i + 101] + row) if rownames else row)


def write_synth_csv(path, seed=0, **config):
    """A planted mixture, SynthBagsConfig's default (about 890 instances,
    two features) unless `config` says otherwise, as a CLI input file with
    feature columns x0, x1, ..."""
    ds = synth_bags(SynthBagsConfig(seed=seed, **config)).dataset
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["instance", "bag", "group", *(f"x{j}" for j in range(ds.p))])
        for iid, bag, label, row in zip(ds.ids, ds.bag, ds.label, ds.x):
            w.writerow([iid, bag, label, *(repr(float(v)) for v in row)])
    return path


def usable_cpus():
    """The CPUs this process may run on, which OpenBLAS sizes its pool by;
    the machine's count where the affinity mask cannot be read."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# numpy's wheel bundles an OpenBLAS built with 64-bit integers, whose
# functions carry a 64_ suffix; scipy's is the one `_scipy_openblas` finds.
NUMPY_OPENBLAS_GET = "scipy_openblas_get_num_threads64_"


def openblas(which="scipy"):
    """numpy's or scipy's OpenBLAS as a ctypes.CDLL, found among the shared
    objects mapped into the process without loading any; None where it is
    not found. Both export blas_server_avail and blas_thread_shutdown_."""
    if which == "scipy":
        found = spectral._scipy_openblas()
        if found is None:
            return None
        name, address = found.get.__name__, ctypes.cast(found.get, ctypes.c_void_p).value
    else:
        name, address = NUMPY_OPENBLAS_GET, None
    if not os.path.exists("/proc/self/maps"):
        return None
    with open("/proc/self/maps") as maps:
        paths = dict.fromkeys(line.split()[-1] for line in maps)
    for path in paths:
        if "blas" not in os.path.basename(path):
            continue
        with contextlib.suppress(OSError):
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
            own = getattr(lib, name, None)
            if own is not None and address in (None, ctypes.cast(own, ctypes.c_void_p).value):
                return lib
    return None


def pool_flag(which="scipy"):
    """blas_server_avail, nonzero while the pool's workers exist, as a
    ctypes.c_int of numpy's or scipy's OpenBLAS (`openblas`); None where it
    is not found."""
    lib = openblas(which)
    if lib is not None:
        with contextlib.suppress(ValueError):
            return ctypes.c_int.in_dll(lib, "blas_server_avail")
    return None
