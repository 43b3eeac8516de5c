"""Instance classifiers and bag-level cross-validation.

Three classifiers share one practice: deterministic fits, sorted class order,
ties resolved toward the smallest class index. `train` maps a classifier
name to its fit; only leave-one-bag-out calls `train_logistic` itself, to
pass a warm start. Evaluation is leave-one-bag-out: train on every instance
outside the held-out bag, predict its members, reduce instance votes to one
bag label.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import NumericalError, ParameterError, TrainingError
from .simgraph import nearest_columns
from .weakanno import AnnotatedTrainingSet

CLASSIFIERS = ("logistic", "qda", "knn")
L2 = 1e-4  # logistic ridge on the coefficients
TOL = 1e-6  # logistic stop: gradient norm divided by n
MAX_ITER = 500  # logistic Newton steps
RIDGE = 1e-6  # QDA covariance ridge, relative to trace/p
HEAVY_RIDGE = 1e-3  # the same for classes with at most p members
KNN_GRID = tuple(range(1, 26, 2))  # neighbour counts the LOBO sweep tries
# knn predict handles queries in blocks whose query-minus-training differences
# take about this many bytes, so memory does not grow with the query count.
_KNN_BLOCK_BYTES = 1 << 23


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


def _softmax_full(x1: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Class probabilities with the last class as the zero-score reference.

    x1 is the intercept-augmented design; theta stacks one (p+1)-row per
    non-reference class.
    """
    scores = x1 @ theta.T
    full = np.concatenate([scores, np.zeros((scores.shape[0], 1))], axis=1)
    full -= full.max(axis=1, keepdims=True)
    expd = np.exp(full)
    return expd / expd.sum(axis=1, keepdims=True)


def _logistic_objective(probs, onehot, coef, l2):
    nll = -float(np.log(np.clip((probs * onehot).sum(axis=1), 1e-300, None)).sum())
    return nll + 0.5 * l2 * float((coef**2).sum())


def _logistic_gradient(theta, x1, probs, onehot, l2, mask):
    grad = np.empty_like(theta)
    for a in range(theta.shape[0]):
        grad[a] = x1.T @ (probs[:, a] - onehot[:, a]) + l2 * theta[a] * mask
    return grad


def _onehot(y, classes):
    y = np.asarray(y)
    onehot = y[:, None] == np.asarray(classes)
    unknown = np.flatnonzero(~onehot.any(axis=1))
    if unknown.size:
        raise ParameterError(f"label {y.tolist()[unknown[0]]!r} is not one of the classes {classes}")
    return onehot.astype(float)


def train_logistic(x: np.ndarray, y: np.ndarray, start: np.ndarray | None = None) -> LogisticModel:
    """Multinomial logistic regression by damped Newton iterations.

    The last class in sorted order is the reference. The ridge penalty covers
    coefficients but not intercepts, which keeps separable problems bounded
    without biasing class priors. Stops when the gradient norm divided by n
    drops to TOL, or after MAX_ITER steps.

    Newton starts from zero, or from `start`: one row per non-reference class
    with the intercept entry last, the layout of `logistic_gradient`. The
    objective is strictly convex, so the start moves the step count, not the
    optimum the fit converges to.
    """
    x, y, classes = _check_training_inputs(x, y)
    n, p = x.shape
    if n <= p:
        warnings.warn(f"logistic fit with n={n} <= p={p}; coefficients rely on the ridge term")
    c = len(classes)
    onehot = _onehot(y, classes)
    x1 = np.concatenate([x, np.ones((n, 1))], axis=1)
    dim = p + 1
    if start is None:
        theta = np.zeros(((c - 1), dim))
    else:
        theta = np.array(start, dtype=float)
        if theta.shape != (c - 1, dim):
            raise ParameterError(f"start must have shape {(c - 1, dim)}, got {theta.shape}")
    mask = np.ones(dim)
    mask[p] = 0.0  # intercept escapes the penalty
    probs = _softmax_full(x1, theta)
    obj = _logistic_objective(probs, onehot, theta[:, :p], L2)
    converged = False
    it = 0
    for it in range(1, MAX_ITER + 1):
        grad = _logistic_gradient(theta, x1, probs, onehot, L2, mask)
        gnorm = float(np.linalg.norm(grad.ravel()))
        if gnorm / n <= TOL:
            converged = True
            break
        hess = np.empty(((c - 1) * dim, (c - 1) * dim))
        for a in range(c - 1):
            for b in range(a, c - 1):
                # probs[:, a] * -probs[:, b] is the same product as its
                # mirror, so block (b, a) is block (a, b) bit for bit.
                wvec = probs[:, a] * ((1.0 if a == b else 0.0) - probs[:, b])
                block = x1.T @ (x1 * wvec[:, None])
                if a == b:
                    block = block + L2 * np.diag(mask)
                hess[a * dim : (a + 1) * dim, b * dim : (b + 1) * dim] = block
                hess[b * dim : (b + 1) * dim, a * dim : (a + 1) * dim] = block
        try:
            step = np.linalg.solve(hess + 1e-10 * np.eye(hess.shape[0]), grad.ravel())
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"Newton system is singular: {exc}")
        scale = 1.0
        for _ in range(30):
            trial = theta - scale * step.reshape(c - 1, dim)
            trial_probs = _softmax_full(x1, trial)
            trial_obj = _logistic_objective(trial_probs, onehot, trial[:, :p], L2)
            if trial_obj <= obj + 1e-12 * max(1.0, abs(obj)):
                break
            scale /= 2.0
        theta, probs, obj = trial, trial_probs, trial_obj
    return LogisticModel(
        classes=classes,
        coef=theta[:, :p].copy(),
        intercept=theta[:, p].copy(),
        converged=converged,
        n_iter=it,
    )


def logistic_objective_value(model: LogisticModel, x: np.ndarray, y: np.ndarray, l2: float) -> float:
    """Penalized negative log-likelihood at the model's parameters (for checks)."""
    x = np.asarray(x, dtype=float)
    x1 = np.concatenate([x, np.ones((x.shape[0], 1))], axis=1)
    theta = np.column_stack([model.coef, model.intercept])
    probs = _softmax_full(x1, theta)
    onehot = _onehot(y, model.classes)
    return _logistic_objective(probs, onehot, model.coef, l2)


def logistic_gradient(model: LogisticModel, x: np.ndarray, y: np.ndarray, l2: float) -> np.ndarray:
    """Gradient of the penalized objective at the model's parameters, one row
    per non-reference class with the intercept entry last (for checks)."""
    x = np.asarray(x, dtype=float)
    x1 = np.concatenate([x, np.ones((x.shape[0], 1))], axis=1)
    theta = np.column_stack([model.coef, model.intercept])
    probs = _softmax_full(x1, theta)
    onehot = _onehot(y, model.classes)
    mask = np.ones(theta.shape[1])
    mask[-1] = 0.0
    return _logistic_gradient(theta, x1, probs, onehot, l2, mask)


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


def _check_kind(kind: str) -> None:
    if kind not in CLASSIFIERS:
        raise ParameterError(f"unknown classifier {kind!r}; choose from {', '.join(CLASSIFIERS)}")


def train(kind: str, x: np.ndarray, y: np.ndarray, knn_k: int | None = None):
    """Fit the classifier named `kind`, one of CLASSIFIERS; knn needs knn_k."""
    _check_kind(kind)
    if kind == "logistic":
        return train_logistic(x, y)
    if kind == "qda":
        return train_qda(x, y)
    if knn_k is None:
        raise ParameterError("knn needs a neighbour count: --knn-k is required")
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


def _knn_vote(model: KnnModel, x: np.ndarray) -> np.ndarray:
    """Class index voted for by each row's k nearest training rows
    (nearest_columns); vote ties go to the smallest class index."""
    classes = np.asarray(model.classes, dtype=object)
    step = max(1, _KNN_BLOCK_BYTES // (8 * max(1, model.train_x.size)))
    out = np.empty(x.shape[0], dtype=int)
    for start in range(0, x.shape[0], step):
        block = x[start : start + step]
        dists = np.linalg.norm(model.train_x[None] - block[:, None], axis=2)
        nearest = model.train_y[nearest_columns(dists, model.k)]
        votes = (nearest[:, :, None] == classes).sum(axis=1)
        out[start : start + step] = np.argmax(votes, axis=1)
    return out


def predict(model, x: np.ndarray) -> np.ndarray:
    """Predicted labels, ties toward the smallest class index."""
    x = _check_predict_input(model, x)
    if isinstance(model, KnnModel):
        chosen = _knn_vote(model, x)
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
        return _softmax_full(x1, np.column_stack([model.coef, model.intercept]))
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


def _fold_standardizer(train_x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and sd that z-score a fold from its training rows: ddof=1, and a
    zero sd (or a single row) divides by 1."""
    mean = train_x.mean(axis=0)
    sd = train_x.std(axis=0, ddof=1) if train_x.shape[0] > 1 else np.ones(train_x.shape[1])
    return mean, np.where(sd == 0.0, 1.0, sd)


def _full_logistic_fit(x: np.ndarray, y: np.ndarray) -> tuple[LogisticModel, np.ndarray, np.ndarray] | None:
    """The logistic fit on every row, z-scored by the fold rule, with its mean
    and sd; None when that fit raises."""
    mean, sd = _fold_standardizer(x)
    try:
        return train_logistic((x - mean) / sd, y), mean, sd
    except (TrainingError, NumericalError):
        return None


def _mapped_start(
    full: tuple[LogisticModel, np.ndarray, np.ndarray], mean: np.ndarray, sd: np.ndarray
) -> np.ndarray:
    """A `_full_logistic_fit` result as a `train_logistic` start in the
    z-scoring (mean, sd).

    Scores are affine in x: coef_g @ (x - m_g) / s_g + b_g equals
    (coef_g * s / s_g) @ (x - m) / s + b_g + (coef_g / s_g) @ (m - m_g).
    """
    model, full_mean, full_sd = full
    per_unit = model.coef / full_sd
    return np.column_stack([per_unit * sd, model.intercept + per_unit @ (mean - full_mean)])


def leave_one_bag_out_cv(
    ts: AnnotatedTrainingSet,
    ds: Dataset,
    kind: str,
    aggregation: AggregationRule = AggregationRule(),
    knn_k: int | None = None,
) -> CVResult:
    """Bag-level cross-validation: one fold per bag, ordered by bag id.

    Features are z-scored per fold from the training side only. Bags are
    scored by comparing the aggregated instance prediction to the bag label.
    A fold is flagged when its training side lacks a class of the dataset's
    training labels. For knn with no knn_k, the count is chosen once, as the
    first best of an inner leave-one-bag-out sweep over KNN_GRID using the
    same ingredients; a count above a fold's training size is cut to it.

    Logistic folds fit integer class codes, indices into the sorted training
    labels, and start Newton from one fit on every row, z-scored by the
    same rule and mapped into the fold's z-scoring; folds that lack a class,
    or all folds when that fit raises, start from zero. Folds whose fit stops
    at MAX_ITER unconverged are named in one warning.
    """
    _check_kind(kind)
    if len(ds.bag_ids) < 2:
        raise ParameterError("leave-one-bag-out needs at least 2 bags")
    y = instance_labels(ts, ds)
    chosen_k = None
    if kind == "knn" and knn_k is None:
        chosen_k = knn_k = max(
            KNN_GRID, key=lambda cand: leave_one_bag_out_cv(ts, ds, "knn", aggregation, cand).accuracy
        )
    all_classes, codes = np.unique(y, return_inverse=True)
    full = _full_logistic_fit(ds.x, codes) if kind == "logistic" else None
    results: list[BagResult] = []
    flagged: list[str] = []
    unconverged: list[str] = []
    for bag_id in ds.bag_ids:
        test = ds.bag == bag_id
        train_x = ds.x[~test]
        present = np.bincount(codes[~test], minlength=all_classes.size) > 0
        if not present.all():
            flagged.append(bag_id)
        if present.sum() == 1:
            # Degenerate fold: only one class left to predict from.
            preds = np.asarray([all_classes[present][0]] * int(test.sum()), dtype=object)
        else:
            mean, sd = _fold_standardizer(train_x)
            fold_x, held_x = (train_x - mean) / sd, (ds.x[test] - mean) / sd
            if kind == "logistic":
                start = _mapped_start(full, mean, sd) if full is not None and present.all() else None
                model = train_logistic(fold_x, codes[~test], start=start)
                if not model.converged:
                    unconverged.append(bag_id)
                preds = all_classes[predict(model, held_x).astype(int)]
            else:
                model = train(kind, fold_x, y[~test], None if knn_k is None else min(knn_k, train_x.shape[0]))
                preds = predict(model, held_x)
        bag_pred = aggregation.aggregate(preds, ds.strong_label)
        true_label = ds.label[np.argmax(test)]
        results.append(
            BagResult(
                bag_id=bag_id, true_label=true_label, predicted_label=bag_pred,
                instance_votes=Counter(preds.tolist()),
            )
        )
    if unconverged:
        warnings.warn(
            f"logistic fit stopped unconverged after MAX_ITER={MAX_ITER} Newton steps "
            f"in the folds of bags {', '.join(unconverged)}"
        )
    return CVResult(
        per_bag=tuple(results),
        accuracy=sum(r.true_label == r.predicted_label for r in results) / len(results),
        confusion=Counter((r.true_label, r.predicted_label) for r in results),
        flagged_folds=tuple(flagged),
        chosen_knn_k=chosen_k,
    )
