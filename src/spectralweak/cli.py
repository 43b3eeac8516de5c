"""Command-line driver: build graphs, group, annotate, train, evaluate, bench.

Every subcommand reads an optional flat JSON config file (--config); explicit
flags override config values, and config keys are the long flag names without
the leading dashes. FLAGS states each flag's type, default and help once, and
every value, from a flag or the config file, is cast by one rule (_cast).
Outputs are JSON reports and CSV tables written under --out. Nothing writes
timestamps or machine state, so reruns with the same inputs and seed produce
byte-identical files.

Exit codes: 0 when the command and all requested checks succeed, 1 when a
bench suite's hard checks fail, 2 on usage, data or parameter errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections import Counter
from dataclasses import asdict, fields, replace
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

# Every flag but --config, by long name: (type, default, help). A bool is a
# switch. The graph flags default to GraphParams' own defaults.
FLAGS: dict[str, tuple[type, object, str]] = {
    "seed": (int, 0, "random seed"),
    "out": (str, ".", "output directory"),
    "data": (str, None, "dataset CSV path, or builtin:dataset_a"),
    "id-col": (str, "instance", "instance id column"),
    "bag-col": (str, "bag", "bag id column"),
    "label-col": (str, "group", "bag label column"),
    "strong-label": (str, None, "the fully trusted bag label"),
    "features": (str, None, "comma-separated feature columns (default: all others)"),
    "delimiter": (str, ",", "CSV delimiter"),
    "no-standardize": (bool, False, "use the features as they are, without z-scoring"),
    "model": (str, None, f"graph model, one of {', '.join(MODELS)}"),
    "epsilon": (float, None, "neighbourhood radius"),
    "k": (int, None, "neighbour count"),
    "sigma": (float, None, "Gaussian width"),
    "w": (float, None, "similarity threshold"),
    "eps-weight": (float, None, "revived-edge weight floor"),
    "m": (float, None, "similarity exponent"),
    "symmetrize": (str, None, "min or max"),
    "groups": (int, 2, "number of groups"),
    "objective": (str, None, "grid objective: f1 or db (default: f1, or db with --no-truth)"),
    "no-truth": (bool, False, "do not score F1 against bag labels"),
    "training": (str, None, "annotated CSV from 'annotate' (default: bag-label baseline)"),
    "classifier": (str, "logistic", f"one of {', '.join(CLASSIFIERS)}"),
    "knn-k": (int, None, "neighbour count for knn (evaluate's default: inner grid)"),
    "aggregation": (str, "majority", "bag vote rule: majority or disordered_threshold"),
    "tau": (float, 0.5, "disordered-share threshold"),
    "suite": (str, None, f"one of {', '.join(bench.BENCH_SUITES)}"),
    "data-dir": (str, "data", "directory holding benchmark files"),
    "synth-seeds": (int, None, "seed count override for table2synth"),
}

# graph flag -> GraphParams field
GRAPH_FIELDS = {
    "epsilon": "epsilon",
    "k": "k",
    "sigma": "sigma",
    "w": "w_thresh",
    "eps-weight": "eps_weight",
    "m": "m",
    "symmetrize": "symmetrize",
}


def _cast(flag: str, raw, cast):
    """Convert one flag or config value to `cast`; a value that does not
    convert is a ParameterError naming the flag. A text flag takes only a
    string and a switch only a boolean. A boolean is no number, though int()
    and float() would take it as 0 or 1, and a non-integral number is no
    integer, though int() would truncate it."""
    if cast in (str, bool):
        if isinstance(raw, cast):
            return raw
    elif not isinstance(raw, bool) and not (cast is int and isinstance(raw, float) and not raw.is_integer()):
        try:
            return cast(raw)
        except (TypeError, ValueError):
            pass
    raise ParameterError(f"--{flag}: expected {cast.__name__}, got {raw!r}")


def _options(args: argparse.Namespace, config: dict) -> argparse.Namespace:
    """The typed value of each flag the subcommand takes: the flag, else the
    config key (a null is no value), else FLAGS' default, cast by _cast.
    A graph flag's value is the tuple of its comma-separated values."""
    opts = argparse.Namespace()
    for name in args.flags:
        kind, default, _ = FLAGS[name]
        attr = name.replace("-", "_")
        raw = next((v for v in (getattr(args, attr), config.get(name), default) if v is not None), None)
        if raw is None:
            value = None
        elif name in GRAPH_FIELDS:
            tokens = [tok.strip() for tok in raw.split(",")] if isinstance(raw, str) else [raw]
            value = tuple(_cast(name, tok, kind) for tok in tokens)
        else:
            value = _cast(name, raw, kind)
        setattr(opts, attr, value)
    if opts.seed < 0:
        raise ParameterError(f"--seed: expected a non-negative integer, got {opts.seed}")
    return opts


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


def _out_dir(opts) -> Path:
    out = Path(opts.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_dataset(opts, require_strong: bool = False) -> Dataset:
    if opts.data is None:
        raise ParameterError("--data is required (a CSV path or builtin:dataset_a)")
    strong = opts.strong_label
    if opts.data in BUILTIN_DATASETS:
        ds = BUILTIN_DATASETS[opts.data]()
        # replace() validates like a CSV load: a label no bag carries is an IntegrityError.
        return ds if strong is None else replace(ds, strong_label=strong)
    path = Path(opts.data)
    if not path.is_file():
        raise SchemaError(f"dataset file not found: {path}")
    if strong is None and require_strong:
        raise ParameterError("--strong-label is required for this command")
    # Without one, load_csv picks a label that exists so the dataset
    # validates; grouping-only commands never consult the strong label.
    schema = CsvSchema(
        instance_id=opts.id_col,
        bag_id=opts.bag_col,
        bag_label=opts.label_col,
        features=tuple(tok.strip() for tok in opts.features.split(",")) if opts.features else None,
        strong_label=strong,
        delimiter=opts.delimiter,
    )
    return load_csv(path, schema)


def _graph_setup(opts) -> tuple[str, GraphParams, tuple[tuple[str, tuple], ...]]:
    """--model plus the graph flags: a flag with several values becomes a
    grid axis, one with a single value goes into the base GraphParams."""
    if opts.model is None:
        raise ParameterError(f"--model is required; choose from {MODELS}")
    singles = {}
    axes = []
    for flag, field_name in GRAPH_FIELDS.items():
        values = getattr(opts, flag.replace("-", "_"))
        if values is None:
            continue
        if len(values) == 1:
            singles[field_name] = values[0]
        else:
            axes.append((field_name, values))
    params = GraphParams(**singles)
    GraphSpec(model=opts.model, params=params)  # validates the model name early
    return opts.model, params, tuple(axes)


def _working_view(opts, ds: Dataset) -> Dataset:
    """The dataset z-scored, unless --no-standardize is set."""
    return ds if opts.no_standardize else standardize(ds)


def _param_columns(params: GraphParams) -> dict:
    return {name: ("" if value is None else value) for name, value in asdict(params).items()}


# ---------------------------------------------------------------------------
# subcommands

def cmd_graph(opts) -> int:
    out = _out_dir(opts)
    ds = _load_dataset(opts)
    model, params, axes = _graph_setup(opts)
    if axes:
        raise ParameterError(
            "graph builds a single graph; comma-separated parameter lists are for 'group'"
        )
    work = _working_view(opts, ds)
    graph = build_graph(work, GraphSpec(model=model, params=params), seed=opts.seed)
    count, labels = connected_components(graph)
    write_graph_json(graph, out / "graph.json")
    print(f"wrote {out / 'graph.json'}")
    sizes = np.bincount(labels, minlength=count)
    _write_json(
        {
            "count": int(count),
            "sizes": [int(s) for s in sizes],
            "component_of": {iid: int(c) for iid, c in zip(work.ids, labels)},
        },
        out / "components.json",
    )
    print(f"components: {count}")
    return 0


def cmd_group(opts) -> int:
    use_truth = not opts.no_truth
    objective = ("f1" if use_truth else "db") if opts.objective is None else opts.objective
    if objective not in OBJECTIVES:
        raise ParameterError(f"--objective must be one of {', '.join(OBJECTIVES)}, got {objective!r}")
    if objective == "f1" and not use_truth:
        raise ParameterError("objective f1 scores against bag labels; drop --no-truth")
    out = _out_dir(opts)
    ds = _load_dataset(opts)
    model, params, axes = _graph_setup(opts)
    work = _working_view(opts, ds)
    if axes:
        grid = GridSpec(model=model, axes=axes, base=params)
        result = grid_search(work, grid, k=opts.groups, objective=objective, seed=opts.seed)
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
        _write_csv(grid_rows, out / "grid.csv")
        _write_json(result.to_json_dict(), out / "grid.json")
        grouping = result.best.grouping
        print(f"grid winner: {result.best.spec.params} ({objective}={result.best.objective:.6g})")
    else:
        graph = build_graph(work, GraphSpec(model=model, params=params), seed=opts.seed)
        grouping = spectral_grouping(graph, opts.groups, seed=opts.seed)
    _write_json(
        {"k": grouping.k, "assignments": [int(a) for a in grouping.assignments]},
        out / "grouping.json",
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
    _write_json(indices, out / "indices.json")
    for name, value in sorted(indices.items()):
        if isinstance(value, float):
            print(f"{name}: {value:.6g}")
    return 0


def cmd_annotate(opts) -> int:
    out = _out_dir(opts)
    ds = _load_dataset(opts, require_strong=True)
    model, params, axes = _graph_setup(opts)
    if axes:
        raise ParameterError("annotate uses a single graph setting; comma lists are for 'group'")
    ts = build_training_set(ds, GraphSpec(model=model, params=params), seed=opts.seed)
    write_training_csv(ts, out / "annotated.csv")
    print(f"wrote {out / 'annotated.csv'}")
    summary = ts.summary()
    _write_json(summary, out / "audit.json")
    prov = summary["per_provenance"]
    print(
        f"annotated {summary['n_entries']} instances: "
        f"{prov.get('strong', 0)} strong, {prov.get('weak', 0)} weak"
    )
    return 0


def _training_set(opts, ds: Dataset):
    return read_training_csv(opts.training) if opts.training else fully_supervised_baseline(ds)


def cmd_train(opts) -> int:
    out = _out_dir(opts)
    ds = _load_dataset(opts, require_strong=True)
    ts = _training_set(opts, ds)
    y = instance_labels(ts, ds)
    x = _working_view(opts, ds).x
    model = train(opts.classifier, x, y, opts.knn_k)
    payload = {f.name: getattr(model, f.name) for f in fields(model) if f.name not in ("train_x", "train_y")}
    # provenance of the entries the labels came from: ids in the dataset, the
    # last entry of a repeated id (as instance_labels reads them)
    used = dict(zip(ts.ids, ts.provenance))
    provenance = dict(sorted(Counter(used[iid] for iid in ds.ids).items()))
    payload.update(kind=opts.classifier, n_train=int(x.shape[0]), training_labels=provenance)
    _write_json(payload, out / "model.json")
    print(f"trained {opts.classifier} on {x.shape[0]} instances, {len(set(y))} classes")
    return 0


def cmd_evaluate(opts) -> int:
    out = _out_dir(opts)
    ds = _load_dataset(opts, require_strong=True)
    ts = _training_set(opts, ds)
    aggregation = AggregationRule(mode=opts.aggregation, tau=opts.tau)
    cv = leave_one_bag_out_cv(ts, ds, opts.classifier, aggregation, opts.knn_k)
    _write_json(cv.to_json_dict(), out / "cv.json")
    _write_csv(
        [
            {"bag": r.bag_id, "true": r.true_label, "predicted": r.predicted_label}
            for r in cv.per_bag
        ],
        out / "cv.csv",
    )
    print(f"bag accuracy: {cv.accuracy:.6g} over {len(cv.per_bag)} bags")
    return 0


def cmd_bench(opts) -> int:
    out = _out_dir(opts)
    suite = opts.suite
    if suite is None:
        raise ParameterError(f"--suite is required; choose from {bench.BENCH_SUITES}")
    n_seeds = opts.synth_seeds
    if n_seeds is not None and n_seeds < 1:
        raise ParameterError(f"--synth-seeds: expected a positive seed count, got {n_seeds}")
    seeds = None if n_seeds is None else tuple(range(n_seeds))
    report = bench.run_suite(suite, data_dir=opts.data_dir, seed=opts.seed, seeds=seeds)
    _write_json(report.to_json_dict(), out / f"bench_{suite}.json")
    _write_csv(list(report.rows), out / f"bench_{suite}_rows.csv")
    for line in report.lines():
        print(line)
    print(f"elapsed: {report.elapsed_s:.2f}s", file=sys.stderr)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# parser

def _help(name: str) -> str:
    kind, default, text = FLAGS[name]
    if name in GRAPH_FIELDS:
        default = getattr(GraphParams(), GRAPH_FIELDS[name])
        text += "; in 'group', comma-separated values form a search grid"
    return text if default is None or kind is bool else f"{text} (default {default})"


def build_parser() -> argparse.ArgumentParser:
    dataset = ("data", "id-col", "bag-col", "label-col", "strong-label", "features", "delimiter")
    zscored = (*dataset, "no-standardize")
    graph = ("model", *GRAPH_FIELDS)
    classifier = ("training", "classifier", "knn-k")
    # command, function, summary, the flags it takes besides --config, --seed and --out
    commands = (
        ("graph", cmd_graph, "build one similarity graph", (*zscored, *graph)),
        ("group", cmd_group, "spectral grouping, optionally grid-searched",
         (*zscored, *graph, "groups", "objective", "no-truth")),
        ("annotate", cmd_annotate, "weakly annotate non-strong bags", (*dataset, *graph)),
        ("train", cmd_train, "fit a classifier on annotated labels", (*zscored, *classifier)),
        ("evaluate", cmd_evaluate, "leave-one-bag-out cross-validation", (*dataset, *classifier, "aggregation", "tau")),
        ("bench", cmd_bench, "run a benchmark suite", ("suite", "data-dir", "synth-seeds")),
    )
    parser = argparse.ArgumentParser(
        prog="spectralweak",
        description="Weakly supervised grouping and classification over similarity graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, func, summary, names in commands:
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="flat JSON config file; flags override its values")
        names = ("seed", "out", *names)
        for name in names:
            # a switch defaults to None, not False, so that a config value can set it
            action = "store_true" if FLAGS[name][0] is bool else "store"
            p.add_argument(f"--{name}", action=action, default=None, help=_help(name))
        p.set_defaults(func=func, flags=names)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(_options(args, _load_config(args.config)))
    except (SpectralWeakError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
