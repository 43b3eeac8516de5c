"""Bags-of-instances data model: CSV ingestion, z-scoring, pairwise distances.

A dataset is a flat list of feature vectors (instances) partitioned into bags.
Each bag carries a single label; one label is designated "strong", meaning
instances in those bags are individually trusted. Instances in all other bags
only inherit a weak, bag-level label.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist

from .errors import IntegrityError, ParameterError, ParseError, SchemaError


@dataclass(frozen=True)
class Instance:
    """One observation: an id and a finite float feature vector."""

    id: str
    features: np.ndarray

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        if feats.ndim != 1:
            raise IntegrityError(f"instance {self.id!r}: features must be 1-d, got shape {feats.shape}")
        if not np.all(np.isfinite(feats)):
            raise ParseError(f"instance {self.id!r}: non-finite feature value")
        feats.setflags(write=False)
        object.__setattr__(self, "features", feats)


@dataclass(frozen=True)
class Bag:
    id: str
    label: str
    members: tuple[str, ...]


@dataclass(frozen=True)
class Dataset:
    """Validated collection of instances grouped into labelled bags."""

    instances: tuple[Instance, ...]
    bags: tuple[Bag, ...]
    strong_label: str
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.instances) < 2:
            raise IntegrityError("a dataset needs at least 2 instances")
        ids = [inst.id for inst in self.instances]
        if len(set(ids)) != len(ids):
            raise IntegrityError("duplicate instance ids")
        bag_ids = [b.id for b in self.bags]
        if len(set(bag_ids)) != len(bag_ids):
            raise IntegrityError("duplicate bag ids")
        dims = {inst.features.shape[0] for inst in self.instances}
        if len(dims) != 1:
            raise IntegrityError(f"inconsistent feature dimensions: {sorted(dims)}")
        seen: dict[str, str] = {}
        for bag in self.bags:
            if not bag.members:
                raise IntegrityError(f"bag {bag.id!r} has no members")
            for member in bag.members:
                if member in seen:
                    raise IntegrityError(
                        f"instance {member!r} appears in bags {seen[member]!r} and {bag.id!r}"
                    )
                seen[member] = bag.id
        missing = set(ids) - set(seen)
        if missing:
            raise IntegrityError(f"instances in no bag: {sorted(missing)[:5]}")
        unknown = set(seen) - set(ids)
        if unknown:
            raise IntegrityError(f"bag members that are not instances: {sorted(unknown)[:5]}")
        if self.strong_label not in {b.label for b in self.bags}:
            raise IntegrityError(f"strong label {self.strong_label!r} not present among bag labels")

    @property
    def n(self) -> int:
        return len(self.instances)

    @property
    def p(self) -> int:
        return self.instances[0].features.shape[0]

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """All bag labels, sorted, strong label first."""
        rest = sorted({b.label for b in self.bags} - {self.strong_label})
        return (self.strong_label, *rest)

    @cached_property
    def index_of(self) -> dict[str, int]:
        return {inst.id: i for i, inst in enumerate(self.instances)}

    @cached_property
    def bag_of(self) -> dict[str, Bag]:
        return {member: bag for bag in self.bags for member in bag.members}

    def feature_matrix(self) -> np.ndarray:
        """n x p matrix in instance order (read-only view)."""
        mat = np.vstack([inst.features for inst in self.instances])
        mat.setflags(write=False)
        return mat

    def instance_bag_labels(self) -> tuple[str, ...]:
        """Bag label of each instance, in instance order."""
        return tuple(self.bag_of[inst.id].label for inst in self.instances)

    def summary(self) -> dict:
        per_label_bags: dict[str, int] = {}
        per_label_instances: dict[str, int] = {}
        for bag in self.bags:
            per_label_bags[bag.label] = per_label_bags.get(bag.label, 0) + 1
            per_label_instances[bag.label] = per_label_instances.get(bag.label, 0) + len(bag.members)
        return {
            "n_instances": self.n,
            "n_features": self.p,
            "n_bags": len(self.bags),
            "labels": list(self.labels),
            "strong_label": self.strong_label,
            "bags_per_label": dict(sorted(per_label_bags.items())),
            "instances_per_label": dict(sorted(per_label_instances.items())),
            "warnings": list(self.warnings),
        }


@dataclass(frozen=True)
class CsvSchema:
    """Column layout for flat CSV ingestion."""

    instance_id: str
    bag_id: str
    bag_label: str
    features: tuple[str, ...]
    strong_label: str
    delimiter: str = ","


def load_csv(path: str | Path, schema: CsvSchema) -> Dataset:
    """Read a flat CSV (one row per instance) into a validated Dataset.

    Raises SchemaError on missing columns, ParseError on bad cells (with the
    1-based data row number), IntegrityError on cross-row inconsistencies.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh, delimiter=schema.delimiter)
        if reader.fieldnames is None:
            raise SchemaError(f"{path}: empty file")
        needed = [schema.instance_id, schema.bag_id, schema.bag_label, *schema.features]
        missing = [c for c in needed if c not in reader.fieldnames]
        if missing:
            raise SchemaError(f"{path}: missing columns {missing}; found {reader.fieldnames}")
        instances: list[Instance] = []
        bag_labels: dict[str, str] = {}
        bag_members: dict[str, list[str]] = {}
        for rownum, row in enumerate(reader, start=1):
            iid = row[schema.instance_id]
            feats = np.empty(len(schema.features))
            for j, col in enumerate(schema.features):
                cell = row[col]
                try:
                    feats[j] = float(cell)
                except (TypeError, ValueError):
                    raise ParseError(f"{path}: row {rownum}, column {col!r}: cannot parse {cell!r} as float")
                if not math.isfinite(feats[j]):
                    raise ParseError(f"{path}: row {rownum}, column {col!r}: non-finite value {cell!r}")
            instances.append(Instance(id=iid, features=feats))
            bid = row[schema.bag_id]
            label = row[schema.bag_label]
            if bid in bag_labels and bag_labels[bid] != label:
                raise IntegrityError(
                    f"{path}: row {rownum}: bag {bid!r} labelled both {bag_labels[bid]!r} and {label!r}"
                )
            bag_labels[bid] = label
            bag_members.setdefault(bid, []).append(iid)
    bags = tuple(
        Bag(id=bid, label=bag_labels[bid], members=tuple(members))
        for bid, members in bag_members.items()
    )
    return Dataset(instances=tuple(instances), bags=bags, strong_label=schema.strong_label)


def standardize(ds: Dataset) -> Dataset:
    """Z-score every feature column (sample standard deviation, ddof=1).

    Columns with zero variance are left at zero and reported through the
    dataset's warnings tuple rather than raising.
    """
    mat = np.array(ds.feature_matrix())
    mean = mat.mean(axis=0)
    sd = mat.std(axis=0, ddof=1)
    flat = np.flatnonzero(sd == 0.0)
    sd_safe = np.where(sd == 0.0, 1.0, sd)
    scaled = (mat - mean) / sd_safe
    scaled[:, flat] = 0.0
    warnings = ds.warnings + tuple(f"constant feature column {j} mapped to zeros" for j in flat)
    instances = tuple(
        Instance(id=inst.id, features=scaled[i]) for i, inst in enumerate(ds.instances)
    )
    return replace(ds, instances=instances, warnings=warnings)


@dataclass(frozen=True)
class DistanceMatrix:
    """Exact-symmetric, zero-diagonal, nonnegative pairwise distance matrix."""

    d: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.d, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise IntegrityError(f"distance matrix must be square, got shape {d.shape}")
        if not np.array_equal(d, d.T):
            raise IntegrityError("distance matrix is not exactly symmetric")
        if np.any(np.diag(d) != 0.0):
            raise IntegrityError("distance matrix diagonal must be exactly zero")
        if not np.all(np.isfinite(d)) or np.any(d < 0.0):
            raise IntegrityError("distances must be finite and nonnegative")
        d.setflags(write=False)
        object.__setattr__(self, "d", d)

    @property
    def n(self) -> int:
        return self.d.shape[0]

    def offdiag(self) -> np.ndarray:
        """All off-diagonal entries as a flat array (both orders, so each pair twice)."""
        n = self.n
        return self.d[~np.eye(n, dtype=bool)]


def pairwise_distances(ds_or_matrix: Dataset | np.ndarray) -> DistanceMatrix:
    """All-pairs Euclidean distances.

    cdist evaluates d(i,j) and d(j,i) from the same coordinate arrays, so the
    result is bitwise symmetric and passes the exact checks above.
    """
    if isinstance(ds_or_matrix, Dataset):
        mat = ds_or_matrix.feature_matrix()
    else:
        mat = np.asarray(ds_or_matrix, dtype=float)
        if mat.ndim != 2:
            raise ParameterError(f"expected 2-d coordinate array, got shape {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise ParameterError("coordinates must be finite")
    d = cdist(mat, mat, metric="euclidean")
    np.fill_diagonal(d, 0.0)
    return DistanceMatrix(d=d)
