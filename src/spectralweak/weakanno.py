"""Weak annotation of unlabelled instances inside labelled bags.

Instances from bags with the strong label are trusted individually. For every
other bag label, the member instances of all its bags are pooled, grouped into
two spectral groups, and annotated by cardinality: the smaller group is taken
to be ordinary (strong-label) material, the larger one inherits the bag label.
The resulting training set records provenance per entry and the group-size
split per label for auditing.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import Bag, Dataset, Instance, pairwise_distances, standardize
from .errors import (
    AnnotationError,
    DegenerateGroupingError,
    EmptySelectionError,
    ParameterError,
    SpectralWeakError,
)
from .simgraph import GraphSpec, build_graph
from .spectral import Grouping, spectral_grouping

PROVENANCES = ("strong", "weak")


@dataclass(frozen=True)
class TrainingEntry:
    instance_id: str
    label: str
    provenance: str

    def __post_init__(self):
        if self.provenance not in PROVENANCES:
            raise ParameterError(f"provenance must be one of {PROVENANCES}, got {self.provenance!r}")


@dataclass(frozen=True)
class AnnotatedTrainingSet:
    """Instance-level labels with provenance and per-label group-size audit."""

    entries: tuple[TrainingEntry, ...]
    group_sizes: dict = field(default_factory=dict)
    source: dict = field(default_factory=dict)

    def labels_for(self, ids: tuple[str, ...]) -> tuple[str, ...]:
        by_id = {e.instance_id: e.label for e in self.entries}
        return tuple(by_id[i] for i in ids)

    def summary(self) -> dict:
        per_label: dict[str, int] = {}
        per_prov: dict[str, int] = {}
        for e in self.entries:
            per_label[e.label] = per_label.get(e.label, 0) + 1
            per_prov[e.provenance] = per_prov.get(e.provenance, 0) + 1
        return {
            "n_entries": len(self.entries),
            "per_label": dict(sorted(per_label.items())),
            "per_provenance": dict(sorted(per_prov.items())),
            "group_sizes": self.group_sizes,
            "source": self.source,
        }


def collect_unlabelled(ds: Dataset, bag_label: str) -> tuple[str, ...]:
    """Ids of all instances in bags carrying `bag_label`, in instance order."""
    if bag_label == ds.strong_label:
        raise ParameterError(f"{bag_label!r} is the strong label; its instances are not unlabelled")
    wanted = {m for b in ds.bags if b.label == bag_label for m in b.members}
    if not wanted:
        raise EmptySelectionError(f"no bags carry label {bag_label!r}")
    return tuple(sorted(wanted))


def annotate_groups(
    points: np.ndarray,
    grouping: Grouping,
    bag_label: str,
    strong_label: str,
    strong_centroid: np.ndarray | None = None,
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
        if strong_centroid is None:
            raise ParameterError("size tie needs strong_centroid to break it")
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


def build_training_set(
    ds: Dataset,
    graph_spec: GraphSpec,
    seed: int,
    restarts: int = 10,
) -> AnnotatedTrainingSet:
    """Full weak-annotation pass over a bagged dataset.

    Features are z-scored over the whole dataset once; each non-strong label's
    pooled instances then get their own similarity graph and two-way spectral
    grouping. Strong-bag instances enter with their own label and provenance
    "strong"; everything else enters with the group-derived label and
    provenance "weak".
    """
    work = standardize(ds)
    mat = work.feature_matrix()
    strong_ids = [
        inst.id for inst in work.instances if work.bag_of[inst.id].label == work.strong_label
    ]
    strong_centroid = mat[[work.index_of[i] for i in strong_ids]].mean(axis=0)
    entries: dict[str, TrainingEntry] = {
        iid: TrainingEntry(instance_id=iid, label=work.strong_label, provenance="strong")
        for iid in strong_ids
    }
    group_sizes: dict[str, dict] = {}
    for label in work.labels:
        if label == work.strong_label:
            continue
        try:
            ids = collect_unlabelled(work, label)
            rows = [work.index_of[i] for i in ids]
            points = mat[rows]
            dist = pairwise_distances(points)
            graph = build_graph(dist, graph_spec, seed=seed)
            grouping = spectral_grouping(graph, k=2, seed=seed, restarts=restarts)
            labels, audit = annotate_groups(points, grouping, label, work.strong_label, strong_centroid)
        except SpectralWeakError as exc:
            raise type(exc)(f"annotating bag label {label!r}: {exc}") from exc
        except Exception as exc:
            raise AnnotationError(
                f"annotating bag label {label!r}: {type(exc).__name__}: {exc}"
            ) from exc
        group_sizes[label] = audit
        for iid, lab in zip(ids, labels):
            entries[iid] = TrainingEntry(instance_id=iid, label=lab, provenance="weak")
    ordered = tuple(entries[inst.id] for inst in work.instances)
    source = {
        "graph_model": graph_spec.model,
        "seed": seed,
        "restarts": restarts,
        "params": {
            k: v
            for k, v in graph_spec.params.__dict__.items()
            if v is not None
        },
    }
    return AnnotatedTrainingSet(entries=ordered, group_sizes=group_sizes, source=source)


def weak_agreement(ts: AnnotatedTrainingSet, truth: dict[str, str]) -> float:
    """Fraction of weak-provenance entries whose label matches the given truth."""
    weak = [e for e in ts.entries if e.provenance == "weak"]
    if not weak:
        raise EmptySelectionError("training set has no weak entries")
    hits = sum(1 for e in weak if truth[e.instance_id] == e.label)
    return hits / len(weak)


def write_training_csv(ts: AnnotatedTrainingSet, path: str | Path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instance_id", "label", "provenance"])
        for e in ts.entries:
            writer.writerow([e.instance_id, e.label, e.provenance])


def read_training_csv(path: str | Path) -> AnnotatedTrainingSet:
    with Path(path).open(newline="") as fh:
        reader = csv.DictReader(fh)
        entries = tuple(
            TrainingEntry(row["instance_id"], row["label"], row["provenance"]) for row in reader
        )
    return AnnotatedTrainingSet(entries=entries)


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
    instances: list[Instance] = []
    bags: list[Bag] = []
    truth: dict[str, str] = {}
    counter = 0

    def draw(label: str) -> np.ndarray:
        return rng.normal(centres[label], config.sigma)

    for class_label in (config.strong_label, *config.disordered_labels):
        lo, hi = (
            config.strong_bag_size
            if class_label == config.strong_label
            else config.disordered_bag_size
        )
        for b in range(config.bags_per_class):
            size = int(rng.integers(lo, hi + 1))
            members = []
            for _ in range(size):
                if class_label == config.strong_label:
                    source = class_label
                else:
                    source = class_label if rng.random() < config.mix else config.strong_label
                iid = f"i{counter:05d}"
                counter += 1
                instances.append(Instance(id=iid, features=draw(source)))
                truth[iid] = source
                members.append(iid)
            bags.append(Bag(id=f"{class_label}-{b:03d}", label=class_label, members=tuple(members)))
    ds = Dataset(
        instances=tuple(instances),
        bags=tuple(bags),
        strong_label=config.strong_label,
    )
    return SynthBags(dataset=ds, truth=truth, config=config)
