"""Grouping quality: Davies-Bouldin separation, pair-counting F-score, grid search.

The two-group Davies-Bouldin value is the ratio (sigma_1 + sigma_2) / d(c_1, c_2)
with sigma_g the mean distance of group members to their centroid. For more
than two groups the usual average-of-worst-pairs generalization is used, which
equals the ratio bit for bit at two groups, and is labelled as such in results. The F-score counts instance pairs: a pair is a
true positive when it shares a group both in the candidate and in the truth.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import Dataset, pairwise_distances
from .errors import DegenerateGroupingError, ParameterError, SearchError, SpectralWeakError, UndefinedIndexError
from .simgraph import (
    KNN_MODELS,
    PROB_MODELS,
    GraphParams,
    GraphSpec,
    InitialSimilarities,
    build_graph,
    initial_similarities,
)
from .spectral import Grouping, spectral_grouping

OBJECTIVES = ("f1", "db")  # grid objectives: f1 against bag labels, db needs no truth


@dataclass(frozen=True)
class IndexValue:
    name: str
    value: float
    details: dict = field(default_factory=dict)


def _centroid_stats(points: np.ndarray, grouping: Grouping) -> tuple[np.ndarray, np.ndarray]:
    centroids = np.empty((grouping.k, points.shape[1]))
    spreads = np.empty(grouping.k)
    for g in range(grouping.k):
        mask = grouping.assignments == g
        if not mask.any():
            raise DegenerateGroupingError(f"group {g} is empty; index undefined")
        centroids[g] = points[mask].mean(axis=0)
        spreads[g] = float(np.linalg.norm(points[mask] - centroids[g], axis=1).mean())
    return centroids, spreads


def davies_bouldin(points: np.ndarray, grouping: Grouping) -> IndexValue:
    """Average over groups of the worst pairwise (sigma_i + sigma_j) / d(c_i, c_j);
    lower is better.

    At k = 2 this is the two-group ratio, named "davies_bouldin"; for k > 2
    the value is named "davies_bouldin_general" so reports can tell the
    extension apart. Needs k >= 2 non-empty groups; coincident centroids make
    a ratio undefined and raise.
    """
    points = np.asarray(points, dtype=float)
    if grouping.k < 2:
        raise ParameterError(f"need k >= 2 groups, got {grouping.k}")
    centroids, spreads = _centroid_stats(points, grouping)
    worst = np.empty(grouping.k)
    for i in range(grouping.k):
        ratios = []
        for j in range(grouping.k):
            if i == j:
                continue
            sep = float(np.linalg.norm(centroids[i] - centroids[j]))
            if sep == 0.0:
                if grouping.k == 2:
                    raise UndefinedIndexError("group centroids coincide; separation ratio undefined")
                raise UndefinedIndexError(f"centroids of groups {i} and {j} coincide")
            ratios.append((spreads[i] + spreads[j]) / sep)
        worst[i] = max(ratios)
    name = "davies_bouldin" if grouping.k == 2 else "davies_bouldin_general"
    return IndexValue(name=name, value=float(worst.mean()))


def pair_confusion(candidate: np.ndarray, truth: np.ndarray) -> tuple[int, int, int, int]:
    """Pair counts (tp, fp, fn, tn) over all unordered instance pairs.

    Computed from the contingency table, so it costs O(n + g_c * g_t) rather
    than O(n^2).
    """
    candidate = np.asarray(candidate)
    truth = np.asarray(truth)
    if candidate.shape != truth.shape or candidate.ndim != 1:
        raise ParameterError("candidate and truth must be 1-d and the same length")
    n = candidate.size
    _, cand_ids = np.unique(candidate, return_inverse=True)
    _, truth_ids = np.unique(truth, return_inverse=True)
    table = np.zeros((cand_ids.max() + 1, truth_ids.max() + 1), dtype=np.int64)
    np.add.at(table, (cand_ids, truth_ids), 1)

    def pairs(x: np.ndarray) -> np.int64:
        return (x * (x - 1) // 2).sum()

    total = n * (n - 1) // 2
    same_both = pairs(table)
    same_cand = pairs(table.sum(axis=1))
    same_truth = pairs(table.sum(axis=0))
    tp = int(same_both)
    fp = int(same_cand - same_both)
    fn = int(same_truth - same_both)
    tn = int(total - tp - fp - fn)
    return tp, fp, fn, tn


def f1_score(candidate: np.ndarray | Grouping, truth: np.ndarray) -> IndexValue:
    """Pair-counting F1 score of a candidate grouping against ground truth."""
    cand = candidate.assignments if isinstance(candidate, Grouping) else np.asarray(candidate)
    tp, fp, fn, tn = pair_confusion(cand, truth)
    if tp + fp == 0 or tp + fn == 0:
        raise UndefinedIndexError("no same-group pairs on one side; precision or recall undefined")
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    if precision == 0.0 and recall == 0.0:
        value = 0.0
    else:
        value = 2.0 * precision * recall / (precision + recall)
    return IndexValue(
        name="f1",
        value=float(value),
        details={"tp": tp, "fp": fp, "fn": fn, "tn": tn, "precision": precision, "recall": recall},
    )


@dataclass(frozen=True)
class GridSpec:
    """Cartesian parameter grid for one graph model.

    axes maps GraphParams field names to value sequences; base supplies the
    fixed fields. Candidates enumerate in row-major order over the axes in
    the order given.
    """

    model: str
    axes: tuple[tuple[str, tuple], ...]
    base: GraphParams = GraphParams()

    def candidates(self) -> list[GraphSpec]:
        names = [name for name, _ in self.axes]
        for name in names:
            if name not in GraphParams.__dataclass_fields__:
                raise ParameterError(f"unknown parameter axis {name!r}")
        out = []
        for combo in itertools.product(*(values for _, values in self.axes)):
            params = replace(self.base, **dict(zip(names, combo)))
            out.append(GraphSpec(model=self.model, params=params))
        return out


@dataclass(frozen=True)
class GridRow:
    """One candidate's outcome; `grouping` is the grouping it was scored on
    (None when it failed) and is not part of the serialized result."""

    spec: GraphSpec
    objective: float | None
    error: str | None = None
    grouping: Grouping | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class GridSearchResult:
    rows: tuple[GridRow, ...]
    best_index: int
    objective: str

    @property
    def best(self) -> GridRow:
        return self.rows[self.best_index]

    def to_json_dict(self) -> dict:
        return {
            "objective": self.objective,
            "best_index": self.best_index,
            "rows": [
                {
                    "model": row.spec.model,
                    "params": row.spec.params.to_json_dict(),
                    "objective": row.objective,
                    "error": row.error,
                }
                for row in self.rows
            ],
        }


def grid_search(
    ds: Dataset,
    grid: GridSpec,
    k: int,
    objective: str,
    seed: int,
) -> GridSearchResult:
    """Evaluate every grid candidate on the dataset as given and keep the
    best. Callers that want z-scored features pass a standardized dataset.

    objective "f1" (higher wins) scores against each instance's bag label;
    objective "db" (lower wins) needs no truth and uses davies_bouldin.
    Candidates that raise a SpectralWeakError are recorded with their error
    and skipped; if all fail a SearchError carries the diagnostics. Any
    other exception is a fault and propagates. Exact objective ties keep the
    earliest candidate in grid order.

    Candidates are evaluated in grid order and share the work that does not
    depend on them: one distance matrix for the grid (a kNN grid reads the
    coordinates in row blocks instead) and, for the probabilistic models, one
    set of initial similarities per exponent m, computed by the first
    candidate that needs it (a failure there is that candidate's error, and
    the next candidate with that m tries again). Each row keeps the grouping
    it was scored on, so the winner's grouping needs no refit.
    """
    if objective not in OBJECTIVES:
        raise ParameterError(f"objective must be one of {', '.join(OBJECTIVES)}, got {objective!r}")
    data = ds.x if grid.model in KNN_MODELS else pairwise_distances(ds)
    sims_by_m: dict[float, InitialSimilarities] = {}

    def evaluate(spec: GraphSpec) -> GridRow:
        p = spec.params
        try:
            sims = sims_by_m.get(p.m)
            # build_graph rejects a spec missing a required param before it reads similarities
            if sims is None and spec.model in PROB_MODELS and not spec.missing_params():
                sims = sims_by_m[p.m] = initial_similarities(data, m=p.m)
            graph = build_graph(data, spec, seed=seed, sims=sims)
            grouping = spectral_grouping(graph, k=k, seed=seed)
            if objective == "f1":
                value = f1_score(grouping, ds.label).value
            else:
                value = davies_bouldin(ds.x, grouping).value
        except SpectralWeakError as exc:  # recorded per candidate, re-raised only if all fail
            return GridRow(spec=spec, objective=None, error=f"{type(exc).__name__}: {exc}")
        return GridRow(spec=spec, objective=float(value), grouping=grouping)

    rows = [evaluate(spec) for spec in grid.candidates()]
    best_index = -1
    best_value = None
    for idx, row in enumerate(rows):
        if row.objective is None:
            continue
        better = (
            best_value is None
            or (objective == "f1" and row.objective > best_value)
            or (objective == "db" and row.objective < best_value)
        )
        if better:
            best_index, best_value = idx, row.objective
    if best_index < 0:
        detail = "; ".join(f"[{i}] {row.error}" for i, row in enumerate(rows))
        raise SearchError(f"all {len(rows)} grid candidates failed: {detail}")
    return GridSearchResult(rows=tuple(rows), best_index=best_index, objective=objective)
