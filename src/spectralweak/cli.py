"""Command-line driver: build graphs, group, annotate, train, evaluate, bench.

Every subcommand reads an optional flat JSON config file (--config); explicit
flags override config values, and config keys are the long flag names without
the leading dashes. Outputs are JSON reports and CSV tables written under
--out. Nothing writes timestamps or machine state, so reruns with the same
inputs and seed produce byte-identical files.

Exit codes: 0 when the command and all requested checks succeed, 1 when a
bench suite's hard checks fail, 2 on usage, data or parameter errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections import Counter
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import bench
from .classify import (
    CLASSIFIERS,
    AggregationRule,
    fully_supervised_baseline,
    instance_labels,
    leave_one_bag_out_cv,
    train,
)
from .dataset import CsvSchema, Dataset, load_csv, standardize
from .errors import ParameterError, SchemaError, SpectralWeakError
from .evaluation import OBJECTIVES, GridSpec, davies_bouldin, f1_score, grid_search
from .simgraph import (
    MODELS,
    GraphParams,
    GraphSpec,
    build_graph,
    connected_components,
    write_graph_json,
)
from .spectral import spectral_grouping
from .weakanno import build_training_set, read_training_csv, write_training_csv

BUILTIN_DATASETS = {"builtin:dataset_a": bench.load_dataset_a}

# long flag name, GraphParams field, element type
_PARAM_FLAGS = (
    ("epsilon", "epsilon", float),
    ("k", "k", int),
    ("sigma", "sigma", float),
    ("w", "w_thresh", float),
    ("eps-weight", "eps_weight", float),
    ("m", "m", float),
    ("symmetrize", "symmetrize", str),
)


def _resolve(args: argparse.Namespace, config: dict, key: str, default=None):
    """Flag beats config file beats default. Flags left at None fall through."""
    value = getattr(args, key.replace("-", "_"), None)
    if value is None:
        value = config.get(key, default)
    return value


def _cast(flag: str, raw, cast):
    """Convert one flag or config value; a value that does not convert is a
    ParameterError naming the flag, and so is a boolean where a number is
    expected, which int() and float() would take as 0 or 1, and a
    non-integral number where an integer is expected, which int() would
    truncate."""
    if (cast in (int, float) and isinstance(raw, bool)) or (
        cast is int and isinstance(raw, float) and not raw.is_integer()
    ):
        raise ParameterError(f"--{flag}: expected {cast.__name__}, got {raw!r}")
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"--{flag}: expected {cast.__name__}, got {raw!r}") from exc


def _resolve_as(args: argparse.Namespace, config: dict, key: str, cast, default=None):
    """_resolve, then _cast; None stays None."""
    value = _resolve(args, config, key, default)
    return None if value is None else _cast(key, value, cast)


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParameterError(f"config {path}: not valid JSON ({exc})")
    if not isinstance(payload, dict):
        raise ParameterError(f"config {path}: expected a flat JSON object")
    for key, value in payload.items():
        if isinstance(value, (dict, list)):
            raise ParameterError(f"config {path}: key {key!r} must be a scalar (flat document)")
    return payload


def _jsonable(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_json(payload: dict, path: Path) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=_jsonable) + "\n")
    print(f"wrote {path}")


def _write_csv(rows: list[dict], path: Path) -> None:
    if not rows:
        return
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {path}")


@dataclass(frozen=True)
class RunConfig:
    """Resolved per-run settings."""

    seed: int
    out: Path


def _run_config(args, config) -> RunConfig:
    seed = _resolve_as(args, config, "seed", int, 0)
    if seed < 0:
        raise ParameterError(f"--seed: expected a non-negative integer, got {seed}")
    out = Path(_resolve(args, config, "out", "."))
    out.mkdir(parents=True, exist_ok=True)
    return RunConfig(seed=seed, out=out)


def _load_dataset(args, config, require_strong: bool = False) -> Dataset:
    data = _resolve(args, config, "data")
    if data is None:
        raise ParameterError("--data is required (a CSV path or builtin:dataset_a)")
    strong = _resolve(args, config, "strong-label")
    if data in BUILTIN_DATASETS:
        ds = BUILTIN_DATASETS[data]()
        # replace() validates like a CSV load: a label no bag carries is an IntegrityError.
        return ds if strong is None else replace(ds, strong_label=strong)
    path = Path(data)
    if not path.is_file():
        raise SchemaError(f"dataset file not found: {path}")
    if strong is None and require_strong:
        raise ParameterError("--strong-label is required for this command")
    features = _resolve(args, config, "features")
    # Without one, load_csv picks a label that exists so the dataset
    # validates; grouping-only commands never consult the strong label.
    schema = CsvSchema(
        instance_id=_resolve(args, config, "id-col", "instance"),
        bag_id=_resolve(args, config, "bag-col", "bag"),
        bag_label=_resolve(args, config, "label-col", "group"),
        features=tuple(tok.strip() for tok in str(features).split(",")) if features else None,
        strong_label=strong,
        delimiter=_resolve(args, config, "delimiter", ","),
    )
    return load_csv(path, schema)


def _parse_values(flag: str, raw, cast) -> tuple | None:
    if raw is None:
        return None
    if isinstance(raw, (int, float)):
        return (_cast(flag, raw, cast),)
    return tuple(_cast(flag, tok.strip(), cast) for tok in str(raw).split(","))


def _graph_setup(args, config) -> tuple[str, GraphParams, tuple[tuple[str, tuple], ...]]:
    """Resolve --model plus parameter flags. Comma-separated values become
    grid axes; single values go into the base GraphParams."""
    model = _resolve(args, config, "model")
    if model is None:
        raise ParameterError(f"--model is required; choose from {MODELS}")
    singles = {}
    axes = []
    for flag, field_name, cast in _PARAM_FLAGS:
        values = _parse_values(flag, _resolve(args, config, flag), cast)
        if values is None:
            continue
        if len(values) == 1:
            singles[field_name] = values[0]
        else:
            axes.append((field_name, values))
    params = GraphParams(**singles)
    GraphSpec(model=model, params=params)  # validates the model name early
    return model, params, tuple(axes)


def _working_view(args, config, ds: Dataset) -> Dataset:
    """The dataset z-scored, unless --no-standardize is set."""
    return ds if _resolve(args, config, "no-standardize", False) else standardize(ds)


def _param_columns(params: GraphParams) -> dict:
    return {name: ("" if value is None else value) for name, value in asdict(params).items()}


# ---------------------------------------------------------------------------
# subcommands

def cmd_graph(args, config) -> int:
    run = _run_config(args, config)
    ds = _load_dataset(args, config)
    model, params, axes = _graph_setup(args, config)
    if axes:
        raise ParameterError(
            "graph builds a single graph; comma-separated parameter lists are for 'group'"
        )
    work = _working_view(args, config, ds)
    graph = build_graph(work, GraphSpec(model=model, params=params), seed=run.seed)
    count, labels = connected_components(graph)
    write_graph_json(graph, run.out / "graph.json")
    print(f"wrote {run.out / 'graph.json'}")
    sizes = np.bincount(labels, minlength=count)
    _write_json(
        {
            "count": int(count),
            "sizes": [int(s) for s in sizes],
            "component_of": {iid: int(c) for iid, c in zip(work.ids, labels)},
        },
        run.out / "components.json",
    )
    print(f"components: {count}")
    return 0


def cmd_group(args, config) -> int:
    use_truth = not bool(_resolve(args, config, "no-truth", False))
    objective = _resolve(args, config, "objective", "f1" if use_truth else "db")
    if objective not in OBJECTIVES:
        raise ParameterError(f"--objective must be one of {', '.join(OBJECTIVES)}, got {objective!r}")
    if objective == "f1" and not use_truth:
        raise ParameterError("objective f1 scores against bag labels; drop --no-truth")
    run = _run_config(args, config)
    ds = _load_dataset(args, config)
    model, params, axes = _graph_setup(args, config)
    groups = _resolve_as(args, config, "groups", int, 2)
    work = _working_view(args, config, ds)
    if axes:
        grid = GridSpec(model=model, axes=axes, base=params)
        result = grid_search(work, grid, k=groups, objective=objective, seed=run.seed)
        grid_rows = []
        for row in result.rows:
            grid_rows.append(
                {
                    "model": row.spec.model,
                    **_param_columns(row.spec.params),
                    "objective": "" if row.objective is None else row.objective,
                    "error": row.error or "",
                }
            )
        _write_csv(grid_rows, run.out / "grid.csv")
        _write_json(result.to_json_dict(), run.out / "grid.json")
        grouping = result.best.grouping
        print(f"grid winner: {result.best.spec.params} ({objective}={result.best.objective:.6g})")
    else:
        graph = build_graph(work, GraphSpec(model=model, params=params), seed=run.seed)
        grouping = spectral_grouping(graph, groups, seed=run.seed)
    _write_json(
        {"k": grouping.k, "assignments": [int(a) for a in grouping.assignments]},
        run.out / "grouping.json",
    )
    indices: dict[str, float | str | None] = {}
    try:
        db = davies_bouldin(work.x, grouping)
        indices[db.name] = db.value
    except SpectralWeakError as exc:
        indices["davies_bouldin"] = None
        indices["davies_bouldin_error"] = str(exc)
    if use_truth:
        try:
            indices["f1"] = f1_score(grouping, work.label).value
        except SpectralWeakError as exc:
            indices["f1"] = None
            indices["f1_error"] = str(exc)
    _write_json(indices, run.out / "indices.json")
    for name, value in sorted(indices.items()):
        if isinstance(value, float):
            print(f"{name}: {value:.6g}")
    return 0


def cmd_annotate(args, config) -> int:
    run = _run_config(args, config)
    ds = _load_dataset(args, config, require_strong=True)
    model, params, axes = _graph_setup(args, config)
    if axes:
        raise ParameterError("annotate uses a single graph setting; comma lists are for 'group'")
    ts = build_training_set(ds, GraphSpec(model=model, params=params), seed=run.seed)
    write_training_csv(ts, run.out / "annotated.csv")
    print(f"wrote {run.out / 'annotated.csv'}")
    summary = ts.summary()
    _write_json(summary, run.out / "audit.json")
    prov = summary["per_provenance"]
    print(
        f"annotated {summary['n_entries']} instances: "
        f"{prov.get('strong', 0)} strong, {prov.get('weak', 0)} weak"
    )
    return 0


def _training_set(args, config, ds: Dataset):
    training = _resolve(args, config, "training")
    return read_training_csv(training) if training else fully_supervised_baseline(ds)


def cmd_train(args, config) -> int:
    run = _run_config(args, config)
    ds = _load_dataset(args, config, require_strong=True)
    classifier = _resolve(args, config, "classifier", "logistic")
    ts = _training_set(args, config, ds)
    y = instance_labels(ts, ds)
    x = _working_view(args, config, ds).x
    model = train(classifier, x, y, _resolve_as(args, config, "knn-k", int))
    payload = {f.name: getattr(model, f.name) for f in fields(model) if f.name not in ("train_x", "train_y")}
    # provenance of the entries the labels came from: ids in the dataset, the
    # last entry of a repeated id (as instance_labels reads them)
    used = dict(zip(ts.ids, ts.provenance))
    provenance = dict(sorted(Counter(used[iid] for iid in ds.ids).items()))
    payload.update(kind=classifier, n_train=int(x.shape[0]), training_labels=provenance)
    _write_json(payload, run.out / "model.json")
    print(f"trained {classifier} on {x.shape[0]} instances, {len(set(y))} classes")
    return 0


def cmd_evaluate(args, config) -> int:
    run = _run_config(args, config)
    ds = _load_dataset(args, config, require_strong=True)
    classifier = _resolve(args, config, "classifier", "logistic")
    ts = _training_set(args, config, ds)
    aggregation = AggregationRule(
        mode=_resolve(args, config, "aggregation", "majority"),
        tau=_resolve_as(args, config, "tau", float, 0.5),
    )
    cv = leave_one_bag_out_cv(ts, ds, classifier, aggregation, _resolve_as(args, config, "knn-k", int))
    _write_json(cv.to_json_dict(), run.out / "cv.json")
    _write_csv(
        [
            {"bag": r.bag_id, "true": r.true_label, "predicted": r.predicted_label}
            for r in cv.per_bag
        ],
        run.out / "cv.csv",
    )
    print(f"bag accuracy: {cv.accuracy:.6g} over {len(cv.per_bag)} bags")
    return 0


def cmd_bench(args, config) -> int:
    run = _run_config(args, config)
    suite = _resolve(args, config, "suite")
    if suite is None:
        raise ParameterError(f"--suite is required; choose from {bench.BENCH_SUITES}")
    data_dir = _resolve(args, config, "data-dir", "data")
    n_seeds = _resolve_as(args, config, "synth-seeds", int)
    if n_seeds is not None and n_seeds < 1:
        raise ParameterError(f"--synth-seeds: expected a positive seed count, got {n_seeds}")
    seeds = None if n_seeds is None else tuple(range(n_seeds))
    report = bench.run_suite(suite, data_dir=data_dir, seed=run.seed, seeds=seeds)
    _write_json(report.to_json_dict(), run.out / f"bench_{suite}.json")
    _write_csv(list(report.rows), run.out / f"bench_{suite}_rows.csv")
    for line in report.lines():
        print(line)
    print(f"elapsed: {report.elapsed_s:.2f}s", file=sys.stderr)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# parser

def _add_dataset_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", help="dataset CSV path, or builtin:dataset_a")
    p.add_argument("--id-col", help="instance id column (default: instance)")
    p.add_argument("--bag-col", help="bag id column (default: bag)")
    p.add_argument("--label-col", help="bag label column (default: group)")
    p.add_argument("--strong-label", help="the fully trusted bag label")
    p.add_argument("--features", help="comma-separated feature columns (default: all others)")
    p.add_argument("--delimiter", help="CSV delimiter (default: ,)")


def _add_standardize_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--no-standardize",
        action="store_true",
        default=None,
        help="use the features as they are, without z-scoring",
    )


def _add_graph_flags(p: argparse.ArgumentParser, lists: bool) -> None:
    suffix = "; comma-separated values form a search grid" if lists else ""
    p.add_argument("--model", help=f"graph model, one of {', '.join(MODELS)}")
    p.add_argument("--epsilon", help="neighbourhood radius" + suffix)
    p.add_argument("--k", help="neighbour count" + suffix)
    p.add_argument("--sigma", help="Gaussian width" + suffix)
    p.add_argument("--w", help="similarity threshold" + suffix)
    p.add_argument("--eps-weight", help="revived-edge weight floor" + suffix)
    p.add_argument("--m", help="similarity exponent (default -1)" + suffix)
    p.add_argument("--symmetrize", help="min or max" + suffix)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat JSON config file; flags override its values")
    common.add_argument("--seed", type=int, help="random seed (default 0)")
    common.add_argument("--out", help="output directory (default .)")

    parser = argparse.ArgumentParser(
        prog="spectralweak",
        description="Weakly supervised grouping and classification over similarity graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph", parents=[common], help="build one similarity graph")
    _add_dataset_flags(p)
    _add_standardize_flag(p)
    _add_graph_flags(p, lists=False)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("group", parents=[common], help="spectral grouping, optionally grid-searched")
    _add_dataset_flags(p)
    _add_standardize_flag(p)
    _add_graph_flags(p, lists=True)
    p.add_argument("--groups", help="number of groups (default 2)")
    p.add_argument("--objective", help="grid objective: f1 or db")
    p.add_argument(
        "--no-truth",
        action="store_true",
        default=None,
        help="do not score F1 against bag labels",
    )
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("annotate", parents=[common], help="weakly annotate non-strong bags")
    _add_dataset_flags(p)
    _add_graph_flags(p, lists=False)
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("train", parents=[common], help="fit a classifier on annotated labels")
    _add_dataset_flags(p)
    _add_standardize_flag(p)
    p.add_argument("--training", help="annotated CSV from 'annotate' (default: bag-label baseline)")
    p.add_argument("--classifier", help=f"one of {', '.join(CLASSIFIERS)} (default logistic)")
    p.add_argument("--knn-k", help="neighbour count for knn")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", parents=[common], help="leave-one-bag-out cross-validation")
    _add_dataset_flags(p)
    p.add_argument("--training", help="annotated CSV from 'annotate' (default: bag-label baseline)")
    p.add_argument("--classifier", help=f"one of {', '.join(CLASSIFIERS)} (default logistic)")
    p.add_argument("--knn-k", help="neighbour count for knn (default: inner grid)")
    p.add_argument("--aggregation", help="bag vote rule: majority or disordered_threshold")
    p.add_argument("--tau", help="disordered-share threshold (default 0.5)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("bench", parents=[common], help="run a benchmark suite")
    p.add_argument("--suite", help=f"one of {', '.join(bench.BENCH_SUITES)}")
    p.add_argument("--data-dir", help="directory holding benchmark files (default data)")
    p.add_argument("--synth-seeds", help="seed count override for table2synth")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(getattr(args, "config", None))
        return args.func(args, config)
    except (SpectralWeakError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
