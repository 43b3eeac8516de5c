"""Benchmark harness: dataset loaders, reproduction recipes, and the bundled
toy-dataset property suite.

Benchmark files are not redistributed. Each loader verifies row and column
counts against the published shapes and raises MissingDataError with fetch
instructions when a file is absent, so a fresh checkout fails loudly instead
of silently benchmarking the wrong data.

Reports carry hard checks (gate the exit code), soft checks (report-only
bands around published figures), and plot-ready rows for the CSV artifact.
Timing is kept out of the JSON payload so reruns with the same seed stay
byte-identical.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import asdict, dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .classify import fully_supervised_baseline, leave_one_bag_out_cv
from .dataset import Dataset, DistanceMatrix, pairwise_distances, standardize
from .errors import MissingDataError, ParameterError, ParseError
from .evaluation import GridSpec, f1_score, grid_search
from .simgraph import (
    GraphParams,
    GraphSpec,
    connected_components,
    epsilon_graph,
    initial_similarities,
    knn_graph,
    prob_threshold_graph,
)
from .spectral import spectral_grouping
from .weakanno import SynthBagsConfig, build_training_set, synth_bags, weak_agreement

# ---------------------------------------------------------------------------
# benchmark files

_FETCH: dict[str, tuple[tuple[str, ...], str]] = {
    "banknotes": (
        ("banknote.csv",),
        "curl -o {dir}/banknote.csv "
        "https://vincentarelbundock.github.io/Rdatasets/csv/mclust/banknote.csv",
    ),
    "segmentation": (
        ("segmentation.data", "segmentation.test"),
        "curl -o {dir}/segmentation.data https://archive.ics.uci.edu/ml/"
        "machine-learning-databases/image/segmentation.data\n"
        "curl -o {dir}/segmentation.test https://archive.ics.uci.edu/ml/"
        "machine-learning-databases/image/segmentation.test",
    ),
    "abalone": (
        ("abalone.data",),
        "curl -o {dir}/abalone.data https://archive.ics.uci.edu/ml/"
        "machine-learning-databases/abalone/abalone.data",
    ),
}

BENCH_DATASETS = tuple(_FETCH)


def fetch_instructions(name: str, data_dir: str | Path = "data") -> str:
    """Shell commands that place the named benchmark under data_dir."""
    if name not in _FETCH:
        raise ParseError(f"unknown benchmark {name!r}; choose from {BENCH_DATASETS}")
    files, recipe = _FETCH[name]
    lines = [
        f"benchmark {name!r} needs {', '.join(files)} in {data_dir}; fetch with:",
        recipe.format(dir=data_dir),
    ]
    return "\n".join(lines)


def _require_files(name: str, data_dir: str | Path) -> list[Path]:
    files, _ = _FETCH[name]
    paths = [Path(data_dir) / f for f in files]
    missing = [p for p in paths if not p.is_file()]
    if missing:
        raise MissingDataError(
            f"missing file(s): {', '.join(str(p) for p in missing)}\n"
            + fetch_instructions(name, data_dir)
        )
    return paths


def _singleton_bags(prefix: str, labels: list[str], features: np.ndarray) -> Dataset:
    """One bag per instance, labelled with the instance's class. Grouping
    benchmarks only read the bag labels as ground truth."""
    ids = [f"{prefix}{i:04d}" for i in range(len(labels))]
    return Dataset(x=features, ids=ids, bag=ids, label=labels, strong_label=sorted(set(labels))[0])


def load_banknotes(data_dir: str | Path) -> Dataset:
    """Swiss banknotes table: 200 rows, 6 measurements, genuine vs counterfeit.

    Accepts the Rdatasets CSV layout: an optional row-name column, one
    non-numeric status column, six numeric columns.
    Rows in error messages count from 1 after the header, blank ones included.
    """
    (path,) = _require_files("banknotes", data_dir)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: empty file")
        numbered = [(r, row) for r, row in enumerate(reader, start=1) if row]
    data = [row for _, row in numbered]
    if not data:
        raise ParseError(f"{path}: no data rows")

    def is_num(value: str) -> bool:
        try:
            float(value)
            return True
        except ValueError:
            return False

    for r, row in numbered:
        if len(row) < len(header):
            raise ParseError(f"{path}: row {r} has {len(row)} cells, the header has {len(header)}")
    label_cols = [j for j in range(len(header)) if not is_num(data[0][j])]
    if len(label_cols) != 1:
        raise ParseError(f"{path}: expected exactly one non-numeric column, found {len(label_cols)}")
    label_col = label_cols[0]
    name_cols = [j for j, h in enumerate(header) if h.strip().lower() in ("", "rownames", "row", "id")]
    feature_cols = [j for j in range(len(header)) if j != label_col and j not in name_cols]
    if len(feature_cols) != 6:
        raise ParseError(f"{path}: expected 6 feature columns, found {len(feature_cols)}")
    if len(data) != 200:
        raise ParseError(f"{path}: expected 200 rows, found {len(data)}")
    labels = [row[label_col].strip() for row in data]
    classes = sorted(set(labels))
    if len(classes) != 2:
        raise ParseError(f"{path}: expected 2 classes, found {classes}")
    for r, row in numbered:
        for j in feature_cols:
            if not is_num(row[j]):
                raise ParseError(f"{path}: row {r}, column {header[j]!r}: cannot parse {row[j]!r} as float")
    features = np.array([[float(row[j]) for j in feature_cols] for row in data])
    return _singleton_bags("bank", labels, features)


def load_segmentation(data_dir: str | Path) -> Dataset:
    """UCI image segmentation: 2310 rows (210 + 2100), 19 features, 7 classes.

    Both distributed halves carry a few header lines; any line that is not
    a class name followed by 19 numbers is skipped.
    """
    paths = _require_files("segmentation", data_dir)
    labels: list[str] = []
    rows: list[list[float]] = []
    for path in paths:
        for line in path.read_text().splitlines():
            fields = line.strip().split(",")
            if len(fields) != 20:
                continue
            try:
                values = [float(v) for v in fields[1:]]
            except ValueError:
                continue
            labels.append(fields[0].strip())
            rows.append(values)
    if len(rows) != 2310:
        raise ParseError(f"{data_dir}: expected 2310 segmentation rows, found {len(rows)}")
    classes = sorted(set(labels))
    if len(classes) != 7:
        raise ParseError(f"{data_dir}: expected 7 classes, found {len(classes)}")
    return _singleton_bags("seg", labels, np.array(rows))


ABALONE_RING_RANGE = (4, 13)


def load_abalone(data_dir: str | Path) -> Dataset:
    """UCI abalone: 4177 rows, 9 features, ring counts binned into 10 groups.

    The sex field becomes two indicator features (male, female; infant is the
    all-zero case) alongside the 7 physical measurements, matching the
    published feature count. Ring counts are clipped to 4..13, which keeps
    each of the 10 groups populated; the few animals outside that range join
    the nearest boundary group.
    """
    (path,) = _require_files("abalone", data_dir)
    labels: list[str] = []
    rows: list[list[float]] = []
    lo, hi = ABALONE_RING_RANGE
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.strip().split(",")
        if len(fields) != 9:
            raise ParseError(f"{path}:{lineno}: expected 9 fields, found {len(fields)}")
        sex = fields[0].strip().upper()
        if sex not in ("M", "F", "I"):
            raise ParseError(f"{path}:{lineno}: sex must be M, F or I, got {fields[0]!r}")
        try:
            measurements = [float(v) for v in fields[1:8]]
            rings = int(fields[8])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        rows.append([float(sex == "M"), float(sex == "F"), *measurements])
        labels.append(f"r{min(max(rings, lo), hi):02d}")
    if len(rows) != 4177:
        raise ParseError(f"{path}: expected 4177 rows, found {len(rows)}")
    return _singleton_bags("aba", labels, np.array(rows))


BENCH_LOADERS = {
    "banknotes": load_banknotes,
    "segmentation": load_segmentation,
    "abalone": load_abalone,
}


# ---------------------------------------------------------------------------
# bundled toy reconstruction

TOY_SIGMA_W = 5e-4
TOY_EPS_WEIGHT = 1e-3
TOY_W_GRID = tuple(sorted({round(w, 4) for w in np.arange(0.02, 0.1201, 0.002)} | {0.073}))
TOY_K_MAX = 25
TOY_SYMMETRIZE = "min"
TOY_REFERENCE_W = 0.073


def load_dataset_a() -> Dataset:
    """Bundled 26-point reconstruction of the two-group toy layout.

    Singleton bags; the bag label is the planted group. See data/README.md
    for provenance and the regeneration script.
    """
    text = resources.files("spectralweak").joinpath("data/dataset_a.csv").read_text()
    reader = csv.DictReader(text.splitlines())
    labels = []
    coords = []
    for row in reader:
        labels.append(row["group"])
        coords.append([float(row["x"]), float(row["y"])])
    return _singleton_bags("toy", labels, np.array(coords))


def partition_matches(labels_a: np.ndarray, labels_b: np.ndarray) -> bool:
    """True when two labelings induce the same partition (names ignored)."""
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape:
        raise ParseError(f"labelings differ in length: {a.shape} vs {b.shape}")
    groups_a = {tuple(np.flatnonzero(a == v)) for v in np.unique(a)}
    groups_b = {tuple(np.flatnonzero(b == v)) for v in np.unique(b)}
    return groups_a == groups_b


def epsilon_sweep_grid(dist: DistanceMatrix) -> tuple[float, ...]:
    """Midpoints between consecutive distinct pair distances, bracketed by one
    value below the minimum and one above the maximum. Component counts are
    constant between consecutive distances, so this grid sees every behaviour
    the epsilon graph can produce."""
    vals = np.unique(dist.d[np.triu_indices(dist.n, 1)])  # d is exactly symmetric
    mids = (vals[:-1] + vals[1:]) / 2.0
    return (float(vals[0]) / 2.0, *(float(v) for v in mids), float(vals[-1]) * 1.1)


def _non_increasing(counts: list[int]) -> bool:
    return all(b <= a for a, b in zip(counts, counts[1:]))


# ---------------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class BenchCheck:
    """One pass/fail line. kind "hard" gates the exit code; "soft" records
    how close a report-only target came."""

    name: str
    kind: str
    passed: bool
    value: float | None = None
    target: str = ""
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else ("MISS" if self.kind == "soft" else "FAIL")
        bits = [f"[{status}]", self.name]
        if self.value is not None:
            bits.append(f"value={self.value:.6g}")
        if self.target:
            bits.append(f"target: {self.target}")
        if self.detail:
            bits.append(f"({self.detail})")
        return " ".join(bits)


@dataclass(frozen=True)
class BenchReport:
    suite: str
    checks: tuple[BenchCheck, ...]
    elapsed_s: float
    rows: tuple[dict, ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.kind == "hard")

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [asdict(c) for c in self.checks],
        }

    def lines(self) -> list[str]:
        out = [c.line() for c in self.checks]
        out.append(f"suite {self.suite}: {'PASS' if self.passed else 'FAIL'}")
        return out


# ---------------------------------------------------------------------------
# suite: published grouping scores

BANKNOTES_W_GRID = tuple(round(w, 2) for w in np.arange(0.01, 0.201, 0.01))
BANKNOTES_SIGMA_GRID = (0.05, 0.1, 0.2, 0.35, 0.5)
BANKNOTES_EPS_WEIGHT = 1e-4

# One grid per case: dataset, model, symmetrize rule, groups, w axis (scaled by
# 1/(n - 1) when the flag is set), sigma axis, eps_weight, and the published
# F1, a soft band of +/- 0.10 around it; None makes F1 >= 0.99 a hard check.
TABLE1_CASES = (
    *(
        ("banknotes", model, rule, 2, BANKNOTES_W_GRID, False, BANKNOTES_SIGMA_GRID, BANKNOTES_EPS_WEIGHT, None)
        for model in ("prob_threshold", "prob_criterion")
        for rule in ("min", "max")
    ),
    ("segmentation", "prob_threshold", "min", 7, (0.5, 1.0, 2.0, 3.0, 5.0), True, (1e-4, 5e-4, 2e-3), 1e-6, 0.581),
    ("abalone", "prob_threshold", "max", 10, (1.0, 3.0), True, (2e-4, 1e-3), 1e-6, 0.903),
)


def table1(
    data_dir: str | Path,
    seed: int = 0,
    datasets: tuple[str, ...] = BENCH_DATASETS,
) -> BenchReport:
    """Grouping scores on the public benchmarks, one grid search per case of
    TABLE1_CASES on the z-scored dataset.

    Banknotes rows are hard checks (the probabilistic graphs should group the
    two classes almost perfectly); Segmentation and Abalone are soft bands
    around the published scores, since the original model-selection protocol
    is not documented precisely enough to pin them.
    """
    t0 = time.perf_counter()
    checks: list[BenchCheck] = []
    rows: list[dict] = []
    loaded: dict[str, Dataset] = {}
    for name, model, rule, groups, w_axis, w_scaled, sigma_axis, eps_weight, published in TABLE1_CASES:
        if name not in datasets:
            continue
        if name not in loaded:
            loaded[name] = standardize(BENCH_LOADERS[name](data_dir))
        ds = loaded[name]
        if w_scaled:
            w_axis = tuple(c / (ds.n - 1) for c in w_axis)
        grid = GridSpec(
            model=model,
            axes=(("w_thresh", w_axis), ("sigma", sigma_axis)),
            base=GraphParams(eps_weight=eps_weight, symmetrize=rule),
        )
        result = grid_search(ds, grid, k=groups, objective="f1", seed=seed)
        value = result.best.objective  # the best row always has one; grid_search raises otherwise
        if published is None:
            kind, target, passed = "hard", "F1 >= 0.99", value >= 0.99
        else:
            kind, target, passed = "soft", f"F1 in {published} +/- 0.10", abs(value - published) <= 0.10
        best = result.best.spec.params
        detail = f"best w={best.w_thresh:g} sigma={best.sigma:g}"
        checks.append(BenchCheck(f"{name} {model} {rule}", kind, passed, value, target, detail))
        for row in result.rows:
            p = row.spec.params
            rows.append(
                {
                    "dataset": name,
                    "model": row.spec.model,
                    "symmetrize": p.symmetrize,
                    "w_thresh": p.w_thresh,
                    "sigma": p.sigma,
                    "objective": row.objective,
                    "error": row.error or "",
                }
            )
    return BenchReport("table1", tuple(checks), time.perf_counter() - t0, tuple(rows))


# ---------------------------------------------------------------------------
# suite: synthetic bag experiment

SYNTH_ANNOTATION_GRAPH = GraphSpec("knn_symmetric", GraphParams(k=10))
SYNTH_GAP_POINTS = 0.05
SYNTH_CLASSIFIER = "logistic"


def table2synth(
    seeds: tuple[int, ...] = tuple(range(20)),
    config: SynthBagsConfig = SynthBagsConfig(),
) -> BenchReport:
    """Weak annotation vs the bag-label-to-every-member baseline on planted
    bags, scored by leave-one-bag-out bag accuracy over many seeds.

    A seed counts as a win when the weak pipeline beats the baseline by at
    least 5 accuracy points; the suite passes when at most 2 seeds miss.
    """
    t0 = time.perf_counter()
    rows: list[dict] = []
    wins = 0
    gaps = []
    for s in seeds:
        bags = synth_bags(replace(config, seed=s))
        ts = build_training_set(bags.dataset, SYNTH_ANNOTATION_GRAPH, seed=s)
        weak_cv = leave_one_bag_out_cv(ts, bags.dataset, SYNTH_CLASSIFIER)
        base_cv = leave_one_bag_out_cv(
            fully_supervised_baseline(bags.dataset), bags.dataset, SYNTH_CLASSIFIER
        )
        gap = weak_cv.accuracy - base_cv.accuracy
        win = gap >= SYNTH_GAP_POINTS
        wins += win
        gaps.append(gap)
        rows.append(
            {
                "seed": s,
                "weak_accuracy": weak_cv.accuracy,
                "baseline_accuracy": base_cv.accuracy,
                "gap": gap,
                "agreement": weak_agreement(ts, bags.truth),
                "win": int(win),
            }
        )
    required = max(1, len(seeds) - 2)
    checks = (
        BenchCheck(
            name=f"weak beats baseline by >= {SYNTH_GAP_POINTS:.0%} in {wins}/{len(seeds)} seeds",
            kind="hard",
            passed=wins >= required,
            value=float(wins),
            target=f">= {required} wins",
            detail=f"classifier={SYNTH_CLASSIFIER}, mean gap {float(np.mean(gaps)):.3f}",
        ),
    )
    return BenchReport("table2synth", checks, time.perf_counter() - t0, tuple(rows))


# ---------------------------------------------------------------------------
# suite: toy reconstruction properties

def _component_sweep(family: str, params, build, planted: np.ndarray, rows: list[dict]) -> tuple[list[int], list]:
    """Connected components of build(param) for each param, one row each.

    Returns the component counts and the params whose components are exactly
    the planted groups.
    """
    counts: list[int] = []
    hits = []
    for param in params:
        count, labels = connected_components(build(param))
        hit = count == 2 and partition_matches(labels, planted)
        counts.append(count)
        if hit:
            hits.append(param)
        rows.append({"family": family, "param": param, "components": count, "planted": int(hit)})
    return counts, hits


def toyfig(ds: Dataset | None = None) -> BenchReport:
    """Property sweep over a two-group layout, by default the bundled
    reconstruction: classical graphs are either too coarse or too fine at
    every setting, while the threshold graph has a parameter window that
    isolates exactly the planted two groups (the bag labels of `ds`)."""
    t0 = time.perf_counter()
    ds = load_dataset_a() if ds is None else ds
    planted = ds.label
    dist = pairwise_distances(ds)
    # first, so that coincident points fail as a DegenerateDistanceError
    # naming the pair, not as a zero radius in the epsilon sweep
    sims = initial_similarities(dist)
    checks: list[BenchCheck] = []
    rows: list[dict] = []

    counts, hits = _component_sweep(
        "epsilon", epsilon_sweep_grid(dist), lambda eps: epsilon_graph(dist, eps), planted, rows
    )
    span = f"counts {counts[0]}..{counts[-1]} over {len(counts)} radii"
    checks.append(BenchCheck("epsilon components monotone in epsilon", "hard", _non_increasing(counts), detail=span))
    checks.append(BenchCheck("no epsilon yields the planted groups", "hard", not hits))

    for mode, model in (("symmetric", "knn_symmetric"), ("mutual", "knn_mutual")):
        counts, hits = _component_sweep(
            model, range(1, TOY_K_MAX + 1), lambda k: knn_graph(ds.x, k, mode=mode), planted, rows
        )
        span = f"counts {counts[0]}..{counts[-1]} for k=1..{TOY_K_MAX}"
        checks.append(BenchCheck(f"{model} components monotone in k", "hard", _non_increasing(counts), detail=span))
        checks.append(BenchCheck(f"no k yields the planted groups ({model})", "hard", not hits))

    def threshold_graph(w: float):
        return prob_threshold_graph(sims, w, TOY_SIGMA_W, TOY_EPS_WEIGHT, TOY_SYMMETRIZE)

    _, recovered = _component_sweep("prob_threshold", TOY_W_GRID, threshold_graph, planted, rows)
    window = f"w in [{min(recovered):g}, {max(recovered):g}]" if recovered else "empty"
    checks.append(
        BenchCheck(
            "prob_threshold recovers the planted groups for some w",
            "hard",
            bool(recovered),
            value=float(len(recovered)),
            detail=window,
        )
    )

    ref = threshold_graph(TOY_REFERENCE_W)
    ref_count, _ = connected_components(ref)
    checks.append(
        BenchCheck(
            f"reference threshold w={TOY_REFERENCE_W} gives 2 components",
            "hard",
            ref_count == 2,
            value=float(ref_count),
            target="2 components",
        )
    )
    ref_f1 = f1_score(spectral_grouping(ref, k=2, seed=0), planted).value
    checks.append(
        BenchCheck(
            "spectral grouping at the reference threshold matches the plant",
            "hard",
            math.isclose(ref_f1, 1.0),
            value=ref_f1,
            target="F1 = 1",
        )
    )
    return BenchReport("toyfig", tuple(checks), time.perf_counter() - t0, tuple(rows))


BENCH_SUITES = ("table1", "table2synth", "toyfig")


def run_suite(
    suite: str,
    data_dir: str | Path = "data",
    seed: int = 0,
    seeds: tuple[int, ...] | None = None,
) -> BenchReport:
    """Dispatch by suite name; `seeds` overrides the synthetic experiment's
    seed list (handy for smoke tests) and is refused by the other suites."""
    if seeds is not None and suite in ("table1", "toyfig"):
        raise ParameterError(f"--synth-seeds applies only to --suite table2synth, got --suite {suite}")
    if suite == "table1":
        return table1(data_dir, seed=seed)
    if suite == "table2synth":
        return table2synth(seeds=seeds if seeds is not None else tuple(range(20)))
    if suite == "toyfig":
        return toyfig()
    raise ParseError(f"unknown suite {suite!r}; choose from {BENCH_SUITES}")
