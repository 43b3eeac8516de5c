"""Weak annotation of unlabelled instances inside labelled bags.

Instances from bags with the strong label are trusted individually. For every
other bag label, the member instances of all its bags are pooled, grouped into
two spectral groups, and annotated by cardinality: the smaller group is taken
to be ordinary (strong-label) material, the larger one inherits the bag label.
The resulting training set is columnar like the dataset: per instance an id,
a label and a provenance ("strong" or "weak"), in dataset instance order, plus
the group-size split per label for auditing.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import Dataset, standardize, string_array
from .errors import (
    AnnotationError,
    DegenerateGroupingError,
    EmptySelectionError,
    ParameterError,
    SchemaError,
    SpectralWeakError,
)
from .simgraph import GraphSpec, build_graph
from .spectral import KMEANS_RESTARTS, Grouping, spectral_grouping

PROVENANCES = ("strong", "weak")


@dataclass(frozen=True)
class AnnotatedTrainingSet:
    """Instance-level labels with provenance and per-label group-size audit.

    `ids`, `labels` and `provenance` are parallel read-only object arrays,
    one entry per instance.
    """

    ids: np.ndarray
    labels: np.ndarray
    provenance: np.ndarray
    group_sizes: dict = field(default_factory=dict)
    source: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("ids", "labels", "provenance"):
            object.__setattr__(self, name, string_array(getattr(self, name)))
        if not (self.ids.shape == self.labels.shape == self.provenance.shape) or self.ids.ndim != 1:
            raise ParameterError("ids, labels and provenance must be 1-d and the same length")
        bad = [prov for prov in self.provenance if prov not in PROVENANCES]
        if bad:
            raise ParameterError(f"provenance must be one of {PROVENANCES}, got {bad[0]!r}")

    def summary(self) -> dict:
        return {
            "n_entries": len(self.ids),
            "per_label": dict(sorted(Counter(self.labels).items())),
            "per_provenance": dict(sorted(Counter(self.provenance).items())),
            "group_sizes": self.group_sizes,
            "source": self.source,
        }


def collect_unlabelled(ds: Dataset, bag_label: str) -> np.ndarray:
    """Rows of all instances in bags carrying `bag_label`, ordered by instance
    id (ids compared as strings, not in file order).

    That order is the vertex order of the label's similarity graph, so it
    fixes the seeded grouping and the output bytes.
    """
    if bag_label == ds.strong_label:
        raise ParameterError(f"{bag_label!r} is the strong label; its instances are not unlabelled")
    rows = np.flatnonzero(ds.label == bag_label)
    if rows.size == 0:
        raise EmptySelectionError(f"no bags carry label {bag_label!r}")
    return rows[np.argsort(ds.ids[rows], kind="stable")]


def annotate_groups(
    points: np.ndarray,
    grouping: Grouping,
    bag_label: str,
    strong_label: str,
    strong_centroid: np.ndarray,
) -> tuple[tuple[str, ...], dict]:
    """Turn a two-way grouping of pooled instances into instance labels.

    The smaller group gets the strong label, the larger one the bag label.
    On an exact size tie the group whose centroid lies farther from
    `strong_centroid` takes the bag label (group 1 if that also ties).
    """
    points = np.asarray(points, dtype=float)
    if grouping.k != 2:
        raise ParameterError(f"annotation expects exactly 2 groups, got {grouping.k}")
    sizes = grouping.sizes()
    if np.any(sizes == 0):
        raise DegenerateGroupingError(f"empty group in annotation split (sizes {sizes.tolist()})")
    if sizes[0] != sizes[1]:
        disordered_group = int(np.argmax(sizes))
    else:
        cents = [points[grouping.assignments == g].mean(axis=0) for g in (0, 1)]
        dists = [float(np.linalg.norm(c - strong_centroid)) for c in cents]
        disordered_group = 1 if dists[1] >= dists[0] else 0
    labels = tuple(
        bag_label if a == disordered_group else strong_label for a in grouping.assignments
    )
    audit = {
        "bag_label": bag_label,
        "sizes": sizes.tolist(),
        "disordered_group": disordered_group,
        "disordered_share": float(sizes[disordered_group] / sizes.sum()),
        "tie_broken_by_centroid": bool(sizes[0] == sizes[1]),
    }
    return labels, audit


def build_training_set(ds: Dataset, graph_spec: GraphSpec, seed: int) -> AnnotatedTrainingSet:
    """Full weak-annotation pass over a bagged dataset.

    Features are z-scored over the whole dataset once; each non-strong label's
    pooled instances then get their own similarity graph and two-way spectral
    grouping. Strong-bag instances enter with their own label and provenance
    "strong"; everything else enters with the group-derived label and
    provenance "weak".
    """
    work = standardize(ds)
    strong = work.label == work.strong_label
    strong_centroid = work.x[strong].mean(axis=0)
    labels = np.array(work.label)
    provenance = np.where(strong, "strong", "weak")
    group_sizes: dict[str, dict] = {}
    for label in work.labels:
        if label == work.strong_label:
            continue
        try:
            rows = collect_unlabelled(work, label)
            points = work.x[rows]
            graph = build_graph(points, graph_spec, seed=seed)
            grouping = spectral_grouping(graph, k=2, seed=seed)
            pool_labels, audit = annotate_groups(points, grouping, label, work.strong_label, strong_centroid)
        except SpectralWeakError as exc:
            raise type(exc)(f"annotating bag label {label!r}: {exc}") from exc
        except Exception as exc:
            raise AnnotationError(
                f"annotating bag label {label!r}: {type(exc).__name__}: {exc}"
            ) from exc
        group_sizes[label] = audit
        labels[rows] = pool_labels
    source = {
        "graph_model": graph_spec.model,
        "seed": seed,
        "restarts": KMEANS_RESTARTS,
        "params": graph_spec.params.to_json_dict(),
    }
    return AnnotatedTrainingSet(
        ids=work.ids, labels=labels, provenance=provenance, group_sizes=group_sizes, source=source
    )


def weak_agreement(ts: AnnotatedTrainingSet, truth: dict[str, str]) -> float:
    """Fraction of weak-provenance entries whose label matches the given truth."""
    weak = ts.provenance == "weak"
    if not weak.any():
        raise EmptySelectionError("training set has no weak entries")
    hits = sum(1 for iid, lab in zip(ts.ids[weak], ts.labels[weak]) if truth[iid] == lab)
    return hits / int(weak.sum())


TRAINING_COLUMNS = ("instance_id", "label", "provenance")


def write_training_csv(ts: AnnotatedTrainingSet, path: str | Path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAINING_COLUMNS)
        writer.writerows(zip(ts.ids, ts.labels, ts.provenance))


def read_training_csv(path: str | Path) -> AnnotatedTrainingSet:
    """Read a training CSV as written by write_training_csv.

    Raises SchemaError naming the file and the missing columns when the
    header lacks any of instance_id, label or provenance.
    """
    with Path(path).open(newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in TRAINING_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise SchemaError(f"{path}: missing columns {missing}; found {reader.fieldnames}")
        rows = list(reader)
    ids, labels, provenance = ([row[c] for row in rows] for c in TRAINING_COLUMNS)
    return AnnotatedTrainingSet(ids=ids, labels=labels, provenance=provenance)


@dataclass(frozen=True)
class SynthBagsConfig:
    """Planted bags-of-instances mixture for controlled experiments.

    The strong class sits at the origin; each disordered class centre sits
    `separation * sigma` away along its own axis. Disordered bags draw each
    instance from their own class with probability `mix`, otherwise from the
    strong class, which plants the ground truth the annotation step is
    supposed to recover.
    """

    n_features: int = 2
    sigma: float = 1.0
    separation: float = 4.0
    bags_per_class: int = 20
    strong_bag_size: tuple[int, int] = (4, 5)
    disordered_bag_size: tuple[int, int] = (16, 24)
    mix: float = 0.7
    strong_label: str = "normal"
    disordered_labels: tuple[str, ...] = ("myopathic", "neurogenic")
    seed: int = 0

    def __post_init__(self):
        if not (0.5 < self.mix < 1.0):
            raise ParameterError(
                f"mix must be in (0.5, 1): disordered bags are majority-disordered by assumption, got {self.mix}"
            )
        if self.n_features < len(self.disordered_labels):
            raise ParameterError("need at least one axis per disordered label")
        if self.separation <= 0 or self.sigma <= 0:
            raise ParameterError("separation and sigma must be positive")


@dataclass(frozen=True)
class SynthBags:
    dataset: Dataset
    truth: dict[str, str]
    config: SynthBagsConfig


def synth_bags(config: SynthBagsConfig) -> SynthBags:
    """Generate the planted mixture described by the config, reproducibly."""
    rng = np.random.default_rng(config.seed)
    centres = {config.strong_label: np.zeros(config.n_features)}
    for axis, label in enumerate(config.disordered_labels):
        centre = np.zeros(config.n_features)
        centre[axis] = config.separation * config.sigma
        centres[label] = centre
    ids: list[str] = []
    bags: list[str] = []
    bag_labels: list[str] = []
    rows: list[np.ndarray] = []
    truth: dict[str, str] = {}

    for class_label in (config.strong_label, *config.disordered_labels):
        lo, hi = (
            config.strong_bag_size
            if class_label == config.strong_label
            else config.disordered_bag_size
        )
        for b in range(config.bags_per_class):
            size = int(rng.integers(lo, hi + 1))
            for _ in range(size):
                if class_label == config.strong_label:
                    source = class_label
                else:
                    source = class_label if rng.random() < config.mix else config.strong_label
                iid = f"i{len(ids):05d}"
                ids.append(iid)
                bags.append(f"{class_label}-{b:03d}")
                bag_labels.append(class_label)
                rows.append(rng.normal(centres[source], config.sigma))
                truth[iid] = source
    ds = Dataset(x=np.array(rows), ids=ids, bag=bags, label=bag_labels, strong_label=config.strong_label)
    return SynthBags(dataset=ds, truth=truth, config=config)
