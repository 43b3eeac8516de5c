"""Instance classifiers and bag-level cross-validation.

Three classifiers share one practice: deterministic fits, sorted class order,
ties resolved toward the smallest class index. `train` maps a classifier
name to its fit. Evaluation is leave-one-bag-out: train on every instance
outside the held-out bag, z-scored by the rule of `dataset.zscore`,
predict its members, reduce instance votes to one bag label. Its logistic
folds run through the Newton core of `train_logistic` a block of folds at a
time.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .dataset import ROW_BLOCK_BYTES, Dataset, zscore
from .errors import NumericalError, ParameterError, SpectralWeakError, TrainingError
from .simgraph import nearest_columns
from .weakanno import AnnotatedTrainingSet

CLASSIFIERS = ("logistic", "qda", "knn")
L2 = 1e-4  # logistic ridge on the coefficients
TOL = 1e-6  # logistic stop: gradient norm divided by n
MAX_ITER = 500  # logistic Newton steps
RIDGE = 1e-6  # QDA covariance ridge, relative to trace/p
HEAVY_RIDGE = 1e-3  # the same for classes with at most p members
KNN_GRID = tuple(range(1, 26, 2))  # neighbour counts the LOBO sweep tries
LOGISTIC_BLOCK_BYTES = 2**18  # size of the (folds, n, p+1) design stack of one block of logistic LOBO folds


@dataclass(frozen=True)
class LogisticModel:
    classes: tuple[str, ...]
    coef: np.ndarray
    intercept: np.ndarray
    converged: bool
    n_iter: int


@dataclass(frozen=True)
class QdaModel:
    classes: tuple[str, ...]
    means: np.ndarray
    covariances: np.ndarray
    priors: np.ndarray
    heavy_ridge_classes: tuple[str, ...] = ()


@dataclass(frozen=True)
class KnnModel:
    classes: tuple[str, ...]
    train_x: np.ndarray
    train_y: np.ndarray
    k: int


def _check_training_inputs(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    if x.ndim != 2:
        raise ParameterError(f"features must be 2-d, got {x.shape}")
    if y.shape != (x.shape[0],):
        raise ParameterError("labels must be 1-d matching the number of rows")
    if not np.all(np.isfinite(x)):
        raise TrainingError("non-finite feature values")
    classes = tuple(sorted(set(y.tolist())))
    if len(classes) < 2:
        raise TrainingError(f"need at least 2 classes, got {classes}")
    return x, y, classes


def _class_sums(expd: np.ndarray) -> np.ndarray:
    """Sums over axis 1 of a (b, c, n) stack, with the bits of numpy's row sums
    of the (n, c) layout: numpy adds fewer than 8 terms of a row in order."""
    if expd.shape[1] < 8:
        return expd.sum(axis=1)
    return np.ascontiguousarray(expd.swapaxes(1, 2)).sum(axis=-1)


def _softmax_full(x1: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Class probabilities with the last class as the zero-score reference.

    x1 (b, n, p+1) stacks intercept-augmented designs; theta (b, c-1, p+1)
    one (p+1)-row per non-reference class. The result is class-major,
    (b, c, n), so that the reductions over classes run on whole rows, with
    the bits of the row-wise softmax of each (n, p+1) design.
    """
    scores = x1 @ theta.swapaxes(-1, -2)
    full = np.zeros((scores.shape[0], scores.shape[2] + 1, scores.shape[1]))
    full[:, :-1] = scores.swapaxes(-1, -2)
    full -= full.max(axis=1, keepdims=True)
    expd = np.exp(full)
    return expd / _class_sums(expd)[:, None]


# The helpers below work on a stack of b logistic problems that share one
# label coding: theta (b, c-1, p+1), x1 (b, n, p+1), probs (b, c, n), row
# weights (b, n) and the class-major onehot (c, n). At weight 1 every product
# is the one an unweighted fit computes, so a stack of one keeps a single
# fit's bits.


def _logistic_objective(probs, onehot, weights, theta, l2):
    picked = np.log(np.clip((probs * onehot).sum(axis=1), 1e-300, None))
    coef = theta[..., :-1]
    return -(weights * picked).sum(axis=-1) + 0.5 * l2 * (coef**2).reshape(len(theta), -1).sum(axis=-1)


def _logistic_gradient(theta, x1, probs, onehot, weights, l2):
    mask = np.ones(theta.shape[-1])
    mask[-1] = 0.0  # intercept escapes the penalty
    x1t = x1.swapaxes(-1, -2)
    grad = np.empty_like(theta)
    for a in range(theta.shape[1]):
        resid = weights * (probs[:, a] - onehot[a])
        grad[:, a] = (x1t @ resid[..., None])[..., 0] + l2 * theta[:, a] * mask
    return grad


def _logistic_hessian(x1, probs, weights, l2):
    """Hessians of the stacked objectives, (c-1)(p+1) square each."""
    dim = x1.shape[-1]
    k = probs.shape[1] - 1
    ridge = l2 * np.diag(np.append(np.ones(dim - 1), 0.0))
    x1t = x1.swapaxes(-1, -2)
    hess = np.empty((len(x1), k * dim, k * dim))
    for a in range(k):
        for b in range(a, k):
            # probs a * -probs b is the same product as its mirror, so
            # block (b, a) is block (a, b) bit for bit.
            wvec = weights * probs[:, a] * ((1.0 if a == b else 0.0) - probs[:, b])
            block = x1t @ (x1 * wvec[..., None])
            if a == b:
                block = block + ridge
            hess[:, a * dim : (a + 1) * dim, b * dim : (b + 1) * dim] = block
            hess[:, b * dim : (b + 1) * dim, a * dim : (a + 1) * dim] = block
    return hess


def _newton_steps(hess, grad):
    """Each stacked Hessian (or one shared Hessian) solved against its
    gradient, shaped like the gradient."""
    try:
        steps = np.linalg.solve(hess + 1e-10 * np.eye(hess.shape[-1]), grad.reshape(len(grad), -1, 1))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Newton system is singular: {exc}")
    return steps.reshape(grad.shape)


def _rejects(trial_obj, obj):
    """Line-search trials whose objective rises beyond rounding (or is NaN)."""
    return ~(trial_obj <= obj + 1e-12 * np.maximum(1.0, np.abs(obj)))


def _line_search(x1, onehot, weights, theta, obj, step):
    """Each problem's first of the steps 1, 1/2, ..., 2**-29 that does not
    raise its objective, or the last one tried; with its probabilities and
    objective."""
    trial = theta - step
    probs = _softmax_full(x1, trial)
    trial_obj = _logistic_objective(probs, onehot, weights, trial, L2)
    retry = np.flatnonzero(_rejects(trial_obj, obj))
    scale = 1.0
    for _ in range(29):
        if not retry.size:
            break
        scale /= 2.0
        sub = theta[retry] - scale * step[retry]
        sub_probs = _softmax_full(x1[retry], sub)
        sub_obj = _logistic_objective(sub_probs, onehot, weights[retry], sub, L2)
        trial[retry], probs[retry], trial_obj[retry] = sub, sub_probs, sub_obj
        retry = retry[_rejects(sub_obj, obj[retry])]
    return trial, probs, trial_obj


def _newton(x1, onehot, weights, theta):
    """Damped Newton on a stack of logistic problems, from the starts theta.

    Each problem stops when its gradient norm divided by its weighted row
    count drops to TOL, or after MAX_ITER steps, and then leaves the stack.
    Returns the parameters, `converged` and the gradient checks made, `n_iter`,
    per problem.
    """
    counts = weights.sum(axis=1)
    p = x1.shape[-1] - 1
    for n in counts[counts <= p]:
        warnings.warn(f"logistic fit with n={int(n)} <= p={p}; coefficients rely on the ridge term")
    out = np.array(theta, dtype=float)
    converged = np.zeros(len(out), dtype=bool)
    n_iter = np.zeros(len(out), dtype=int)
    live = np.arange(len(out))
    theta = out.copy()
    probs = _softmax_full(x1, theta)
    obj = _logistic_objective(probs, onehot, weights, theta, L2)
    for it in range(1, MAX_ITER + 1):
        n_iter[live] = it
        grad = _logistic_gradient(theta, x1, probs, onehot, weights, L2)
        flat = grad.reshape(len(grad), -1)
        # a (1, d) @ (d, 1) product is the dot product np.linalg.norm takes
        gnorm = np.sqrt((flat[:, None, :] @ flat[:, :, None])[:, 0, 0])
        done = gnorm / counts <= TOL
        if done.any():
            converged[live[done]] = True
            out[live[done]] = theta[done]
            keep = ~done
            live, x1, weights, counts = live[keep], x1[keep], weights[keep], counts[keep]
            theta, probs, obj, grad = theta[keep], probs[keep], obj[keep], grad[keep]
            if not live.size:
                break
        step = _newton_steps(_logistic_hessian(x1, probs, weights, L2), grad)
        theta, probs, obj = _line_search(x1, onehot, weights, theta, obj, step)
    out[live] = theta
    return out, converged, n_iter


def _onehot(y, classes):
    y = np.asarray(y)
    onehot = y[:, None] == np.asarray(classes)
    unknown = np.flatnonzero(~onehot.any(axis=1))
    if unknown.size:
        raise ParameterError(f"label {y.tolist()[unknown[0]]!r} is not one of the classes {classes}")
    return onehot.astype(float)


def train_logistic(x: np.ndarray, y: np.ndarray) -> LogisticModel:
    """Multinomial logistic regression by damped Newton iterations from zero.

    The last class in sorted order is the reference. The ridge penalty covers
    coefficients but not intercepts, which keeps separable problems bounded
    without biasing class priors. Stops when the gradient norm divided by n
    drops to TOL, or after MAX_ITER steps. The fit is the Newton core of the
    leave-one-bag-out folds run on a stack of one.
    """
    x, y, classes = _check_training_inputs(x, y)
    n, p = x.shape
    x1 = np.concatenate([x, np.ones((n, 1))], axis=1)
    theta = np.zeros((1, len(classes) - 1, p + 1))
    theta, converged, n_iter = _newton(x1[None], _onehot(y, classes).T, np.ones((1, n)), theta)
    return LogisticModel(
        classes=classes,
        coef=theta[0, :, :p].copy(),
        intercept=theta[0, :, p].copy(),
        converged=bool(converged[0]),
        n_iter=int(n_iter[0]),
    )


def _model_stack(model: LogisticModel, x: np.ndarray, y: np.ndarray):
    """A fitted model and labelled rows as a stack of one problem."""
    x = np.asarray(x, dtype=float)
    x1 = np.concatenate([x, np.ones((x.shape[0], 1))], axis=1)[None]
    theta = np.column_stack([model.coef, model.intercept])[None]
    return x1, theta, _softmax_full(x1, theta), _onehot(y, model.classes).T, np.ones((1, x.shape[0]))


def logistic_objective_value(model: LogisticModel, x: np.ndarray, y: np.ndarray, l2: float) -> float:
    """Penalized negative log-likelihood at the model's parameters (for checks)."""
    x1, theta, probs, onehot, weights = _model_stack(model, x, y)
    return float(_logistic_objective(probs, onehot, weights, theta, l2)[0])


def logistic_gradient(model: LogisticModel, x: np.ndarray, y: np.ndarray, l2: float) -> np.ndarray:
    """Gradient of the penalized objective at the model's parameters, one row
    per non-reference class with the intercept entry last (for checks)."""
    x1, theta, probs, onehot, weights = _model_stack(model, x, y)
    return _logistic_gradient(theta, x1, probs, onehot, weights, l2)[0]


def train_qda(x: np.ndarray, y: np.ndarray) -> QdaModel:
    """Gaussian class-conditional model with per-class covariance.

    Means and covariances are maximum-likelihood (ddof=0). Covariances get a
    scale-aware ridge of RIDGE * trace/p on the diagonal; classes with at
    most p members cannot have full-rank covariance, so they get HEAVY_RIDGE
    instead and are reported on the model.
    """
    x, y, classes = _check_training_inputs(x, y)
    n, p = x.shape
    means = np.empty((len(classes), p))
    covs = np.empty((len(classes), p, p))
    priors = np.empty(len(classes))
    heavy: list[str] = []
    for ci, lab in enumerate(classes):
        rows = x[y == lab]
        if rows.shape[0] < 2:
            raise TrainingError(f"class {lab!r} has {rows.shape[0]} sample(s); covariance undefined")
        means[ci] = rows.mean(axis=0)
        centred = rows - means[ci]
        cov = (centred.T @ centred) / rows.shape[0]
        ridge = RIDGE
        if rows.shape[0] <= p:
            ridge = HEAVY_RIDGE
            heavy.append(lab)
        scale = float(np.trace(cov)) / p
        if scale <= 0.0:
            scale = 1.0
        covs[ci] = cov + ridge * scale * np.eye(p)
        priors[ci] = rows.shape[0] / n
    return QdaModel(
        classes=classes, means=means, covariances=covs, priors=priors,
        heavy_ridge_classes=tuple(heavy),
    )


def qda_scores(model: QdaModel, x: np.ndarray) -> np.ndarray:
    """Log prior plus Gaussian log density for each class (columns in class order)."""
    x = np.asarray(x, dtype=float)
    n, p = x.shape
    scores = np.empty((n, len(model.classes)))
    for ci in range(len(model.classes)):
        cov = model.covariances[ci]
        sign, logdet = np.linalg.slogdet(cov)
        if sign <= 0:
            raise NumericalError(f"covariance of class {model.classes[ci]!r} is not positive definite")
        centred = x - model.means[ci]
        solved = np.linalg.solve(cov, centred.T).T
        maha = (centred * solved).sum(axis=1)
        scores[:, ci] = (
            math.log(model.priors[ci]) - 0.5 * (logdet + maha + p * math.log(2.0 * math.pi))
        )
    return scores


def train_knn(x: np.ndarray, y: np.ndarray, k: int) -> KnnModel:
    x, y, classes = _check_training_inputs(x, y)
    if not (1 <= k <= x.shape[0]):
        raise ParameterError(f"k must satisfy 1 <= k <= {x.shape[0]}, got {k}")
    return KnnModel(classes=classes, train_x=x, train_y=y, k=k)


def _check_kind(kind: str, knn_k: int | None) -> None:
    if kind not in CLASSIFIERS:
        raise ParameterError(f"unknown classifier {kind!r}; choose from {', '.join(CLASSIFIERS)}")
    if knn_k is not None and kind != "knn":
        raise ParameterError(f"--knn-k applies only to --classifier knn, got --classifier {kind}")
    if knn_k is not None and knn_k < 1:
        raise ParameterError(f"--knn-k: expected a positive integer, got {knn_k}")


def train(kind: str, x: np.ndarray, y: np.ndarray, knn_k: int | None = None):
    """Fit the classifier named `kind`, one of CLASSIFIERS; knn needs knn_k,
    and no other classifier takes one."""
    _check_kind(kind, knn_k)
    if kind == "logistic":
        return train_logistic(x, y)
    if kind == "qda":
        return train_qda(x, y)
    if knn_k is None:
        raise ParameterError("knn needs a neighbour count: --knn-k is required")
    if knn_k > len(x):
        raise ParameterError(f"--knn-k: expected at most the {len(x)} training rows, got {knn_k}")
    return train_knn(x, y, knn_k)


def _model_dim(model) -> int:
    if isinstance(model, LogisticModel):
        return model.coef.shape[1]
    if isinstance(model, QdaModel):
        return model.means.shape[1]
    if isinstance(model, KnnModel):
        return model.train_x.shape[1]
    raise ParameterError(f"unknown model type {type(model).__name__}")


def _check_predict_input(model, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ParameterError(f"features must be 2-d, got shape {x.shape}")
    if x.shape[1] != _model_dim(model):
        raise ParameterError(
            f"feature dimension {x.shape[1]} does not match training dimension {_model_dim(model)}"
        )
    return x


def _knn_vote(model: KnnModel, x: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Class indices (ks.size, rows) voted for by each row's k nearest training
    rows, for each k of ks; vote ties go to the smallest class index.

    Distances are cdist's, taken for blocks of rows whose (rows, training
    rows) array stays within ROW_BLOCK_BYTES. nearest_columns of the largest
    k is in ascending column order, so a stable sort by distance ranks it by
    (distance, index): its first k columns are nearest_columns of k, and
    running class counts give every k its votes.
    """
    from scipy.spatial.distance import cdist

    step = max(1, ROW_BLOCK_BYTES // (8 * len(model.train_x)))
    out = np.empty((ks.size, x.shape[0]), dtype=int)
    for start in range(0, x.shape[0], step):
        dists = cdist(x[start : start + step], model.train_x)
        near = nearest_columns(dists, ks.max())
        order = np.argsort(np.take_along_axis(dists, near, axis=1), axis=1, kind="stable")
        ranked = model.train_y[np.take_along_axis(near, order, axis=1)]
        votes = (ranked[..., None] == np.asarray(model.classes, dtype=object)).cumsum(axis=1)[:, ks - 1]
        out[:, start : start + step] = np.argmax(votes, axis=2).T
    return out


def predict(model, x: np.ndarray, ks=None) -> np.ndarray:
    """Predicted labels, ties toward the smallest class index. With ks, counts
    from 1 to a KnnModel's training rows, one column of labels per count,
    (rows, len(ks)), from one ranking; ks with another model is a
    ParameterError."""
    x = _check_predict_input(model, x)
    if ks is not None and not isinstance(model, KnnModel):
        raise ParameterError(f"neighbour counts apply only to a kNN model, not {type(model).__name__}")
    if isinstance(model, KnnModel):
        counts = np.asarray([model.k] if ks is None else ks, dtype=int)
        if counts.ndim != 1 or not counts.size or not (1 <= counts.min() <= counts.max() <= len(model.train_y)):
            raise ParameterError(f"neighbour counts must lie in 1..{len(model.train_y)}, got {counts.tolist()}")
        chosen = _knn_vote(model, x, counts)
        chosen = chosen[0] if ks is None else chosen.T
    elif isinstance(model, LogisticModel):
        chosen = np.argmax(predict_proba(model, x), axis=1)
    else:
        chosen = np.argmax(qda_scores(model, x), axis=1)
    return np.asarray(model.classes, dtype=object)[chosen]


def predict_proba(model, x: np.ndarray) -> np.ndarray:
    """Class probabilities in class order, where the model defines them."""
    x = _check_predict_input(model, x)
    if isinstance(model, LogisticModel):
        x1 = np.concatenate([x, np.ones((x.shape[0], 1))], axis=1)
        return _softmax_full(x1[None], np.column_stack([model.coef, model.intercept])[None])[0].T
    if isinstance(model, QdaModel):
        scores = qda_scores(model, x)
        scores = scores - scores.max(axis=1, keepdims=True)
        expd = np.exp(scores)
        return expd / expd.sum(axis=1, keepdims=True)
    raise ParameterError(f"{type(model).__name__} does not define class probabilities")


def fully_supervised_baseline(ds: Dataset) -> AnnotatedTrainingSet:
    """Training set that takes every bag label at face value for its members."""
    return AnnotatedTrainingSet(
        ids=ds.ids,
        labels=ds.label,
        provenance=["strong"] * ds.n,
        source={"kind": "fully_supervised_baseline"},
    )


def instance_labels(ts: AnnotatedTrainingSet, ds: Dataset) -> np.ndarray:
    """The training label of each dataset instance, in instance order.

    Entries for ids outside the dataset are ignored; of repeated ids the last
    entry counts. Every dataset instance needs a label.
    """
    by_id = dict(zip(ts.ids, ts.labels))
    missing = [iid for iid in ds.ids if iid not in by_id]
    if missing:
        raise ParameterError(f"training set lacks labels for {len(missing)} instances, e.g. {missing[:3]}")
    return np.array([by_id[iid] for iid in ds.ids], dtype=object)


@dataclass(frozen=True)
class AggregationRule:
    """Reduce instance votes inside a bag to one bag label.

    mode "majority": most-voted label wins; ties prefer a disordered label
    (then lexicographic order). mode "disordered_threshold": the bag is called
    disordered as soon as the disordered vote fraction exceeds tau, then the
    plurality disordered label wins.
    """

    mode: str = "majority"
    tau: float = 0.5

    def __post_init__(self):
        if self.mode not in ("majority", "disordered_threshold"):
            raise ParameterError(f"unknown aggregation mode {self.mode!r}")
        if not (0.0 <= self.tau < 1.0):
            raise ParameterError(f"tau must be in [0, 1), got {self.tau}")

    def aggregate(self, labels: np.ndarray, strong_label: str) -> str:
        labels = list(labels)
        if not labels:
            raise ParameterError("cannot aggregate an empty bag")
        counts = Counter(labels)
        if self.mode == "majority":
            top = max(counts.values())
            tied = sorted(lab for lab, cnt in counts.items() if cnt == top)
            disordered = [lab for lab in tied if lab != strong_label]
            return disordered[0] if disordered else tied[0]
        disordered_counts = {lab: cnt for lab, cnt in counts.items() if lab != strong_label}
        frac = sum(disordered_counts.values()) / len(labels)
        if frac > self.tau and disordered_counts:
            top = max(disordered_counts.values())
            return sorted(lab for lab, cnt in disordered_counts.items() if cnt == top)[0]
        return strong_label


@dataclass(frozen=True)
class BagResult:
    bag_id: str
    true_label: str
    predicted_label: str
    instance_votes: dict


@dataclass(frozen=True)
class CVResult:
    per_bag: tuple[BagResult, ...]
    accuracy: float
    confusion: dict
    flagged_folds: tuple[str, ...] = ()
    chosen_knn_k: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "n_bags": len(self.per_bag),
            "confusion": {f"{t}->{p}": c for (t, p), c in sorted(self.confusion.items())},
            "flagged_folds": list(self.flagged_folds),
            "chosen_knn_k": self.chosen_knn_k,
            "per_bag": [
                {
                    "bag": r.bag_id,
                    "true": r.true_label,
                    "predicted": r.predicted_label,
                    "votes": dict(sorted(r.instance_votes.items())),
                }
                for r in self.per_bag
            ],
        }


def _full_logistic_fit(x: np.ndarray, y: np.ndarray) -> tuple[LogisticModel, np.ndarray, np.ndarray, np.ndarray] | None:
    """The logistic fit on every row, z-scored by `zscore` as the fold with
    no row held out, with that mean, sd and the z-scored rows it trained on;
    None when that fit raises."""
    (mean,), (sd,), (z,), _ = zscore(x, np.ones((1, x.shape[0])), x.sum(axis=0)[None])
    try:
        return train_logistic(z, y), mean, sd, z
    except (TrainingError, NumericalError):
        return None


def _deletion_starts(
    full: tuple[LogisticModel, np.ndarray, np.ndarray, np.ndarray], onehot: np.ndarray, bag_of: np.ndarray
) -> np.ndarray:
    """Each bag's one-step deletion update of the full fit, in the full fit's
    z-scoring.

    Without bag B the full optimum theta leaves the gradient -g_B, the bag's
    share of the log-likelihood gradient, so theta + H(theta)^-1 g_B is one
    Newton step toward the fold's optimum, with the full Hessian standing in
    for the fold's.
    """
    model, _, _, z = full
    n = z.shape[0]
    x1 = np.concatenate([z, np.ones((n, 1))], axis=1)[None]
    theta = np.column_stack([model.coef, model.intercept])[None]
    probs = _softmax_full(x1, theta)
    k = theta.shape[1]
    per_row = ((probs[0, :k] - onehot[:k])[:, None, :] * x1[0].T).reshape(-1, n)
    per_bag = np.stack([np.bincount(bag_of, weights=row) for row in per_row], axis=1)
    hess = _logistic_hessian(x1, probs, np.ones((1, n)), L2)
    return theta + _newton_steps(hess, per_bag.reshape(-1, *theta.shape[1:]))


def _mapped_start(
    theta: np.ndarray, full_mean: np.ndarray, full_sd: np.ndarray, mean: np.ndarray, sd: np.ndarray
) -> np.ndarray:
    """Parameters (..., c-1, p+1) fitted in the z-scoring (full_mean,
    full_sd), as the same scores in the z-scoring (mean, sd).

    Scores are affine in x: coef_g @ (x - m_g) / s_g + b_g equals
    (coef_g * s / s_g) @ (x - m) / s + b_g + (coef_g / s_g) @ (m - m_g).
    On a column constant on the fold's rows, which `zscore` zeroes there,
    the shift alone carries those rows' scores.
    """
    per_unit = theta[..., :-1] / full_sd
    shift = (per_unit * (mean - full_mean)[..., None, :]).sum(axis=-1)
    return np.concatenate([per_unit * sd[..., None, :], (theta[..., -1] + shift)[..., None]], axis=-1)


def _logistic_folds(
    x: np.ndarray, codes: np.ndarray, bag_of: np.ndarray, present: np.ndarray, train_sums: np.ndarray
) -> tuple[dict[int, np.ndarray], list[int]]:
    """The class codes the logistic model of every fold with at least two
    classes predicts for its held-out rows, keyed by bag index, and the bags
    whose fit stopped at MAX_ITER unconverged, in bag order.

    A fold fits all n rows in its own z-scoring (`zscore`), with zero
    weight on its bag, and predicts its bag's rows in that z-scoring.
    Folds with the same classes advance together through `_newton`, in
    blocks whose design stack stays near LOGISTIC_BLOCK_BYTES. Folds with
    every class start from their bag's `_deletion_starts` row; the others,
    and all folds when the full fit raises, start from zero.
    """
    n, p = x.shape
    onehot = (np.arange(present.shape[1])[:, None] == codes).astype(float)
    full = _full_logistic_fit(x, codes)
    starts = None if full is None else _deletion_starts(full, onehot, bag_of)
    multi = present.sum(axis=1) > 1
    block = max(1, LOGISTIC_BLOCK_BYTES // (8 * n * (p + 1)))
    held, unconverged = {}, []
    for pattern in np.unique(present[multi], axis=0):
        classes = tuple(np.flatnonzero(pattern).tolist())
        group = np.flatnonzero(multi & (present == pattern).all(axis=1))
        for bags in np.split(group, range(block, group.size, block)):
            weights = (bag_of != bags[:, None]).astype(float)
            mean, sd, z, _ = zscore(x, weights, train_sums[bags])
            x1 = np.ones((bags.size, n, p + 1))
            x1[..., :p] = z
            if starts is not None and pattern.all():
                theta = _mapped_start(starts[bags], full[1], full[2], mean, sd)
            else:
                theta = np.zeros((bags.size, len(classes) - 1, p + 1))
            theta, converged, n_iter = _newton(x1, onehot[pattern], weights, theta)
            for i, j in enumerate(bags):
                model = LogisticModel(
                    classes=classes, coef=theta[i, :, :p].copy(), intercept=theta[i, :, p].copy(),
                    converged=bool(converged[i]), n_iter=int(n_iter[i]),
                )
                held[j] = predict(model, z[i][bag_of == j]).astype(int)
            unconverged += bags[~converged].tolist()
    return held, sorted(unconverged)


def _fold_votes(kind, x, y, test, sums, ks, bag_id) -> np.ndarray:
    """The labels (held-out rows, counts) a kNN or QDA fold, z-scored by
    `zscore`, predicts for its held-out rows `test`: one kNN column
    per count of ks, each cut to the training size, or one QDA column. An
    error names the bag."""
    try:
        _, _, (z,), _ = zscore(x, (~test).astype(float)[None], sums[None])
        if kind == "qda":
            return predict(train(kind, z[~test], y[~test]), z[test])[:, None]
        ks = np.minimum(ks, z.shape[0] - int(test.sum()))
        return predict(train(kind, z[~test], y[~test], int(ks.max())), z[test], ks)
    except SpectralWeakError as exc:
        raise type(exc)(f"fold of bag {bag_id!r}: {exc}") from exc


def leave_one_bag_out_cv(
    ts: AnnotatedTrainingSet,
    ds: Dataset,
    kind: str,
    aggregation: AggregationRule = AggregationRule(),
    knn_k: int | None = None,
) -> CVResult:
    """Bag-level cross-validation: one fold per bag, ordered by bag id.

    Features are z-scored per fold from the training side only, by
    `dataset.zscore`: a column constant on the training side is zero on the
    whole fold, held-out rows included. Each fold's held-out labels are
    computed once: for knn one column per count of KNN_GRID, or of knn_k
    alone, cut to the fold's training size; one column otherwise. A bag is right when its
    aggregated column matches its label; knn with no knn_k scores the first
    count with the most bags right. A fold is flagged when its training side
    lacks a class of the dataset's training labels. knn_k with another
    classifier is a ParameterError. A kNN or QDA fold error names its bag.

    Logistic folds fit integer class codes, indices into the sorted training
    labels, in batches (`_logistic_folds`). Each starts Newton from one fit
    on every row, z-scored by the same rule, updated by one deletion step
    for its bag and mapped into the fold's z-scoring; folds that lack a
    class, or all folds when that fit raises, start from zero. Folds whose
    fit stops at MAX_ITER unconverged are named in one warning.
    """
    _check_kind(kind, knn_k)
    if len(ds.bag_ids) < 2:
        raise ParameterError("leave-one-bag-out needs at least 2 bags")
    y = instance_labels(ts, ds)
    all_classes, codes = np.unique(y, return_inverse=True)
    _, first, bag_of = np.unique(ds.bag, return_index=True, return_inverse=True)  # row -> index into ds.bag_ids
    in_bag = np.bincount(bag_of * all_classes.size + codes, minlength=len(ds.bag_ids) * all_classes.size)
    present = in_bag.reshape(len(ds.bag_ids), -1) < np.bincount(codes, minlength=all_classes.size)
    train_sums = ds.x.sum(axis=0) - np.stack([np.bincount(bag_of, weights=col) for col in ds.x.T], axis=1)
    ks = np.asarray(KNN_GRID if knn_k is None else (knn_k,))
    width = ks.size if kind == "knn" else 1
    logistic, unconverged = {}, []
    if kind == "logistic":
        logistic, unconverged = _logistic_folds(ds.x, codes, bag_of, present, train_sums)
    votes = []
    for j, bag_id in enumerate(ds.bag_ids):
        test = bag_of == j
        if present[j].sum() == 1:
            # Degenerate fold: only one class left to predict from.
            votes.append(np.full((int(test.sum()), width), all_classes[present[j]][0], dtype=object))
        elif kind == "logistic":
            votes.append(all_classes[logistic[j]][:, None])
        else:
            votes.append(_fold_votes(kind, ds.x, y, test, train_sums[j], ks, bag_id))
    bag_preds = np.array([[aggregation.aggregate(col, ds.strong_label) for col in v.T] for v in votes], dtype=object)
    truth = ds.label[first]
    column = int(np.argmax((bag_preds == truth[:, None]).sum(axis=0)))
    results = tuple(BagResult(bag_id, truth[j], bag_preds[j, column], Counter(votes[j][:, column].tolist()))
                    for j, bag_id in enumerate(ds.bag_ids))
    if unconverged:
        warnings.warn(
            f"logistic fit stopped unconverged after MAX_ITER={MAX_ITER} Newton steps "
            f"in the folds of bags {', '.join(ds.bag_ids[j] for j in unconverged)}"
        )
    return CVResult(
        per_bag=results,
        accuracy=sum(r.true_label == r.predicted_label for r in results) / len(results),
        confusion=Counter((r.true_label, r.predicted_label) for r in results),
        flagged_folds=tuple(ds.bag_ids[j] for j in np.flatnonzero(~present.all(axis=1))),
        chosen_knn_k=KNN_GRID[column] if kind == "knn" and knn_k is None else None,
    )
