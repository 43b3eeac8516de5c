"""Benchmark workloads: inputs, CLI command sequences, decisions.

An op is the command sequence a user would run on one input file. Every
command writes into its own subdirectory of the op's output directory, and
the decision outputs read back from there are what the correctness check
compares against the frozen seed-commit copy of the package.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from inputs import Regime

# The planted regimes. TABLE2 is SynthBagsConfig's default (about 890
# instances, 2 features); LARGE_POOLS puts about 1,000 instances under each
# disordered label; GRID halves the default bag count (about 440 instances).
LARGE_POOLS = Regime(n_features=5, bags_per_class=20, strong_bag_size=(4, 5), disordered_bag_size=(40, 60))
GRID = Regime(n_features=2, bags_per_class=10, strong_bag_size=(4, 5), disordered_bag_size=(16, 24))
TABLE2 = Regime(n_features=2, bags_per_class=20, strong_bag_size=(4, 5), disordered_bag_size=(16, 24))

GRID_W_SCALES = (0.5, 1.0, 1.5, 2.0, 3.0, 5.0)
GRID_SIGMA_SCALES = (0.25, 1.0)


def _data(path: Path) -> list[str]:
    return ["--data", str(path), "--strong-label", "normal"]


def _annotate(data: Path, out: Path) -> list[str]:
    return ["annotate", *_data(data), "--model", "knn_symmetric", "--k", "10", "--out", str(out)]


def _scaled(scales: tuple[float, ...], n: int) -> str:
    return ",".join(repr(c / (n - 1)) for c in scales)


def _annotate_knn(data: Path, prepared: Path, n: int, out: Path) -> list[list[str]]:
    return [_annotate(data, out / "annotate")]


def _grid_prob(data: Path, prepared: Path, n: int, out: Path) -> list[list[str]]:
    grid = ["--groups", "3", "--w", _scaled(GRID_W_SCALES, n), "--sigma", _scaled(GRID_SIGMA_SCALES, n)]
    return [
        ["group", "--data", str(data), *grid, "--model", "prob_threshold", "--symmetrize", "min",
         "--eps-weight", "1e-3", "--out", str(out / "threshold")],
        ["group", "--data", str(data), *grid, "--model", "prob_criterion", "--symmetrize", "max",
         "--out", str(out / "criterion")],
    ]


def _weak_vs_baseline(data: Path, prepared: Path, n: int, out: Path) -> list[list[str]]:
    return [
        _annotate(data, out / "annotate"),
        ["evaluate", *_data(data), "--training", str(out / "annotate" / "annotated.csv"),
         "--classifier", "logistic", "--out", str(out / "weak")],
        ["evaluate", *_data(data), "--classifier", "logistic", "--out", str(out / "baseline")],
    ]


def _lobo_knn(data: Path, prepared: Path, n: int, out: Path) -> list[list[str]]:
    return [
        ["evaluate", *_data(data), "--training", str(prepared / "annotate" / "annotated.csv"),
         "--classifier", "knn", "--out", str(out / "knn")],
    ]


def _annotate_in_setup(data: Path, prepared: Path) -> list[list[str]]:
    return [_annotate(data, prepared / "annotate")]


def _no_setup(data: Path, prepared: Path) -> list[list[str]]:
    return []


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload.

    `seed_op_s` is the seed commit's wall time per op on a 2-vCPU Xeon at
    2.0 GHz. It sizes the pool of distinct inputs a run draws and the number
    of them the reference check covers (see run.py), so that neither depends
    on how fast the program under test is.

    `calls` are the traced functions every op of the workload must reach
    whatever the implementation; a traced run where one of them records no
    call is marked incorrect, because its time would silently go to the
    caller.
    """

    name: str
    regime: Regime
    seed_op_s: float
    commands: Callable[[Path, Path, int, Path], list[list[str]]]
    calls: tuple[str, ...]
    setup: Callable[[Path, Path], list[list[str]]] = _no_setup


_ANNOTATE_CALLS = (
    "dataset.load_csv",
    "simgraph.knn_graph",
    "spectral.smallest_k_eigenvectors",
    "spectral.kmeans",
    "weakanno.build_training_set",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("annotate-knn", LARGE_POOLS, seed_op_s=0.55, commands=_annotate_knn, calls=_ANNOTATE_CALLS),
        Workload(
            "grid-prob", GRID, seed_op_s=1.9, commands=_grid_prob,
            calls=("dataset.load_csv", "simgraph.initial_similarities", "simgraph.prob_threshold_graph",
                   "simgraph.prob_criterion_graph", "spectral.smallest_k_eigenvectors", "spectral.kmeans",
                   "evaluation.grid_search"),
        ),
        Workload(
            "weak-vs-baseline", TABLE2, seed_op_s=0.57, commands=_weak_vs_baseline,
            calls=(*_ANNOTATE_CALLS, "classify.train_logistic", "classify.predict", "classify.leave_one_bag_out_cv"),
        ),
        # Runnable, but not listed in BENCHMARK.json (see README.md).
        Workload(
            "lobo-knn", TABLE2, seed_op_s=2.3, commands=_lobo_knn, setup=_annotate_in_setup,
            calls=("dataset.load_csv", "classify.predict", "classify.leave_one_bag_out_cv"),
        ),
    )
}


def decisions(out: Path) -> dict:
    """Decision outputs of one op, per command subdirectory.

    Only the fields that state a decision are read: annotated labels, grid
    winner, grouping assignments, per-bag predictions and the chosen kNN k.
    Other keys may be added to these files without failing the check.
    """
    found: dict[str, dict] = {}
    for sub in sorted(p for p in out.iterdir() if p.is_dir()):
        fields: dict = {}
        if (sub / "annotated.csv").is_file():
            with (sub / "annotated.csv").open(newline="") as fh:
                fields["labels"] = {row["instance_id"]: row["label"] for row in csv.DictReader(fh)}
        if (sub / "grid.json").is_file():
            fields["grid_winner"] = json.loads((sub / "grid.json").read_text())["best_index"]
        if (sub / "grouping.json").is_file():
            fields["assignments"] = json.loads((sub / "grouping.json").read_text())["assignments"]
        if (sub / "cv.json").is_file():
            cv = json.loads((sub / "cv.json").read_text())
            fields["bag_predictions"] = {r["bag"]: r["predicted"] for r in cv["per_bag"]}
            fields["chosen_knn_k"] = cv["chosen_knn_k"]
        found[sub.name] = fields
    return found


def mismatches(got: dict, want: dict) -> list[str]:
    """Names of the decision fields where `got` differs from `want`."""
    bad = []
    for sub in sorted(set(got) | set(want)):
        g, w = got.get(sub, {}), want.get(sub, {})
        bad.extend(f"{sub}/{key}" for key in sorted(set(g) | set(w)) if g.get(key) != w.get(key))
    return bad
