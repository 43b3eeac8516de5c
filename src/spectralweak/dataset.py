"""Bags-of-instances data model: CSV ingestion, z-scoring, pairwise distances.

A dataset is columnar: one read-only n x p feature matrix plus, per instance
(row), its id, its bag id and its bag's label. Each bag carries a single
label; one label is designated "strong", meaning instances in those bags are
individually trusted. Instances in all other bags only inherit a weak,
bag-level label. The format itself puts every instance in exactly one bag,
leaves no bag empty and gives every row the same feature dimension.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import IntegrityError, ParameterError, ParseError, SchemaError


def _label_conflict(bag, label) -> tuple[int, str] | None:
    """1-based row and description of the first instance whose bag already
    carries another label, or None."""
    first: dict = {}
    for row, (bid, lab) in enumerate(zip(bag, label), start=1):
        known = first.setdefault(bid, lab)
        if known != lab:
            return row, f"bag {bid!r} labelled both {known!r} and {lab!r}"
    return None


def string_array(values) -> np.ndarray:
    """Read-only object-array copy of a sequence of strings."""
    arr = np.array(values, dtype=object)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Dataset:
    """Validated instances grouped into labelled bags, one row per instance.

    `x` is the n x p feature matrix; `ids`, `bag` and `label` hold each row's
    instance id, bag id and bag label. All four are stored as read-only
    copies, the strings as object arrays.
    """

    x: np.ndarray
    ids: np.ndarray
    bag: np.ndarray
    label: np.ndarray
    strong_label: str
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        x = np.array(self.x, dtype=float, order="C")
        if x.ndim != 2:
            raise IntegrityError(f"features must form an n x p matrix, got shape {x.shape}")
        x.setflags(write=False)
        object.__setattr__(self, "x", x)
        for name in ("ids", "bag", "label"):
            column = string_array(getattr(self, name))
            if column.shape != (x.shape[0],):
                raise IntegrityError(f"{name} must hold one entry per row ({x.shape[0]}), got shape {column.shape}")
            object.__setattr__(self, name, column)
        finite = np.isfinite(x).all(axis=1)
        if not finite.all():
            raise ParseError(f"instance {self.ids[np.argmin(finite)]!r}: non-finite feature value")
        if self.n < 2:
            raise IntegrityError("a dataset needs at least 2 instances")
        rows: dict = {}
        for row, iid in enumerate(self.ids, start=1):
            first = rows.setdefault(iid, row)
            if first != row:
                raise IntegrityError(f"duplicate instance id {iid!r} in data rows {first} and {row}")
        conflict = _label_conflict(self.bag, self.label)
        if conflict:
            raise IntegrityError(f"row {conflict[0]}: {conflict[1]}")
        if self.strong_label not in set(self.label):
            raise IntegrityError(f"strong label {self.strong_label!r} not present among bag labels")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """All bag labels, sorted, strong label first."""
        rest = sorted(set(self.label) - {self.strong_label})
        return (self.strong_label, *rest)

    @cached_property
    def bag_ids(self) -> tuple[str, ...]:
        """Distinct bag ids, sorted."""
        return tuple(sorted(set(self.bag)))


@dataclass(frozen=True)
class CsvSchema:
    """Column layout for flat CSV ingestion."""

    instance_id: str
    bag_id: str
    bag_label: str
    features: tuple[str, ...] | None  # None: every other column, in header order
    strong_label: str | None  # None: the smallest bag label in the file
    delimiter: str = ","

    def __post_init__(self):
        if not (isinstance(self.delimiter, str) and len(self.delimiter) == 1):
            raise ParameterError(f"delimiter must be a single character, got {self.delimiter!r}")


def load_csv(path: str | Path, schema: CsvSchema) -> Dataset:
    """Read a flat CSV (one row per instance) into a validated Dataset.

    The file is read column by column. Raises SchemaError on missing
    columns, ParseError on bad or missing cells (with the 1-based data row
    number), IntegrityError on cross-row inconsistencies. When several rows
    are bad, the error names the first of them, and within a row the first
    bad feature column, then a missing id, bag or label cell, then a
    bag-label conflict.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh, delimiter=schema.delimiter)
        header = next(reader, None)
        if header is None:
            raise SchemaError(f"{path}: empty file")
        keys = (schema.instance_id, schema.bag_id, schema.bag_label)
        features = schema.features
        if features is None:
            features = tuple(c for c in header if c not in keys)
        missing = [c for c in (*keys, *features) if c not in header]
        if missing:
            raise SchemaError(f"{path}: missing columns {missing}; found {header}")
        rows = [row for row in reader if row]  # blank lines are not data rows
    # a repeated column name reads its last occurrence; short rows read None
    position = {name: j for j, name in enumerate(header)}

    def column(name: str) -> list:
        j = position[name]
        return [row[j] if j < len(row) else None for row in rows]

    faults = []  # (row, column order, error) of the first bad cell per column
    values = []
    for j, col in enumerate(features):
        cells = column(col)
        parsed: list[float] = []
        try:
            for cell in cells:
                parsed.append(float(cell))
        except (TypeError, ValueError):
            row = len(parsed) + 1
            faults.append((row, j, ParseError(f"{path}: row {row}, column {col!r}: cannot parse {cells[row - 1]!r} as float")))
        parsed_array = np.array(parsed, dtype=float)
        bad = np.flatnonzero(~np.isfinite(parsed_array))
        if bad.size:
            row = int(bad[0]) + 1
            faults.append((row, j, ParseError(f"{path}: row {row}, column {col!r}: non-finite value {cells[row - 1]!r}")))
        values.append(parsed_array)
    ids, bag, label = (column(col) for col in keys)
    p = len(features)
    for j, (col, cells) in enumerate(zip(keys, (ids, bag, label))):
        if None in cells:
            row = cells.index(None) + 1
            faults.append((row, p + j, ParseError(f"{path}: row {row}, column {col!r}: missing cell")))
    conflict = _label_conflict(bag, label)
    if conflict:
        row, what = conflict
        faults.append((row, p + 3, IntegrityError(f"{path}: row {row}: {what}")))
    if faults:
        raise min(faults, key=lambda fault: fault[:2])[2]
    x = np.array(values, dtype=float).reshape(p, len(rows)).T
    strong = min(label, default="") if schema.strong_label is None else schema.strong_label
    return Dataset(x=x, ids=ids, bag=bag, label=label, strong_label=strong)


def zscore(x: np.ndarray, weights: np.ndarray, sums: np.ndarray) -> tuple[np.ndarray, ...]:
    """The one z-scoring rule. weights (folds, n) are 1 on the rows a fold is
    taken from, at least two, and 0 elsewhere; sums (folds, p) are those
    rows' column sums. Returns each fold's mean and ddof=1 sd, (folds, p),
    every row of x in its z-scoring, (folds, n, p), and its constant columns,
    (folds, p): those whose weighted rows are all equal, tested on the values
    since the sd need not come out 0 (890 rows of 0.3 give 5.55e-17). A
    constant column has sd 1 and is +0.0 on every row of the fold."""
    count = weights.sum(axis=1, keepdims=True)
    mean = sums / count
    dev = x - mean[:, None]
    sd = np.sqrt((weights[..., None] * dev**2).sum(axis=1) / (count - 1))
    first = x[np.argmax(weights, axis=1)]  # each fold's first weighted row
    constant = ((x == first[:, None]) | (weights[..., None] == 0.0)).all(axis=1)
    sd[constant] = 1.0
    z = dev / sd[:, None]
    z[np.broadcast_to(constant[:, None], z.shape)] = 0.0
    return mean, sd, z, constant


def standardize(ds: Dataset) -> Dataset:
    """Z-score every feature column by `zscore` over all rows.

    Constant columns are mapped to zeros and reported through the dataset's
    warnings tuple rather than raising.
    """
    _, _, (scaled,), (constant,) = zscore(ds.x, np.ones((1, ds.n)), ds.x.sum(axis=0)[None])
    warnings = ds.warnings + tuple(f"constant feature column {j} mapped to zeros" for j in np.flatnonzero(constant))
    return replace(ds, x=scaled, warnings=warnings)


def checked_matrix(a, name: str) -> np.ndarray:
    """`a` as a read-only float array, checked to be square, finite,
    nonnegative, exactly symmetric and exactly zero on the diagonal. An
    IntegrityError names the matrix `name` and the first failed check."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise IntegrityError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)) or np.any(a < 0.0):
        raise IntegrityError(f"{name} entries must be finite and nonnegative")
    if not np.array_equal(a, a.T):
        raise IntegrityError(f"{name} is not exactly symmetric")
    if np.any(np.diag(a) != 0.0):
        raise IntegrityError(f"{name} diagonal must be exactly zero")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class DistanceMatrix:
    """Exact-symmetric, zero-diagonal, nonnegative pairwise distance matrix."""

    d: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d", checked_matrix(self.d, "distance matrix"))

    @property
    def n(self) -> int:
        return self.d.shape[0]

    def offdiag(self) -> np.ndarray:
        """All off-diagonal entries as a flat array (both orders, so each pair twice)."""
        n = self.n
        return self.d[~np.eye(n, dtype=bool)]


def coordinates(ds_or_matrix: Dataset | np.ndarray) -> np.ndarray:
    """The n x p coordinates of a Dataset, or an array checked to be 2-d and finite."""
    if isinstance(ds_or_matrix, Dataset):
        return ds_or_matrix.x
    mat = np.asarray(ds_or_matrix, dtype=float)
    if mat.ndim != 2:
        raise ParameterError(f"expected 2-d coordinate array, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ParameterError("coordinates must be finite")
    return mat


def pairwise_distances(ds_or_matrix: Dataset | np.ndarray) -> DistanceMatrix:
    """All-pairs Euclidean distances.

    cdist evaluates d(i,j) and d(j,i) from the same coordinate arrays, so the
    result is bitwise symmetric and passes the exact checks above. Each entry
    depends on its two points alone, so cdist of a block of rows against all
    points gives the same bits as those rows of the full matrix.
    """
    from scipy.spatial.distance import cdist

    mat = coordinates(ds_or_matrix)
    d = cdist(mat, mat, metric="euclidean")
    np.fill_diagonal(d, 0.0)
    return DistanceMatrix(d=d)
