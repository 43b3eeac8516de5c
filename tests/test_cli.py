import argparse
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spectralweak
from spectralweak import cli
from spectralweak.weakanno import SynthBagsConfig, synth_bags

TOY_GRAPH_FLAGS = [
    "--model", "prob_threshold",
    "--w", "0.073",
    "--sigma", "5e-4",
    "--eps-weight", "1e-3",
    "--symmetrize", "min",
]


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_bagged_csv(path, seed=0):
    """Three trusted bags near the origin, four disordered bags mostly offset."""
    rng = np.random.default_rng(seed)
    rows = []
    idx = 0
    for b in range(3):
        for _ in range(4):
            x, y = rng.normal((0.0, 0.0), 0.5)
            rows.append((f"i{idx:03d}", f"ok{b}", "ok", x, y))
            idx += 1
    for b in range(4):
        for _ in range(6):
            centre = (6.0, 0.0) if rng.random() < 0.7 else (0.0, 0.0)
            x, y = rng.normal(centre, 0.5)
            rows.append((f"i{idx:03d}", f"flu{b}", "flu", x, y))
            idx += 1
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["instance", "bag", "group", "x", "y"])
        for r in rows:
            w.writerow([r[0], r[1], r[2], f"{r[3]:.6f}", f"{r[4]:.6f}"])
    return path


# ---------------------------------------------------------------------------
# graph

def test_graph_reference_threshold_two_components(tmp_path, capsys):
    code, out, _ = run(
        ["graph", "--data", "builtin:dataset_a", "--out", str(tmp_path), *TOY_GRAPH_FLAGS],
        capsys,
    )
    assert code == 0
    assert "components: 2" in out
    payload = json.loads((tmp_path / "components.json").read_text())
    assert payload["count"] == 2
    assert sum(payload["sizes"]) == 26
    assert set(payload["component_of"].values()) == {0, 1}
    graph = json.loads((tmp_path / "graph.json").read_text())
    assert graph["model"] == "prob_threshold"
    assert graph["n"] == 26


def test_graph_fully_connected_single_component(tmp_path, capsys):
    code, out, _ = run(
        ["graph", "--data", "builtin:dataset_a", "--out", str(tmp_path),
         "--model", "fully_connected", "--sigma", "1.0"],
        capsys,
    )
    assert code == 0
    assert "components: 1" in out


def test_graph_tiny_epsilon_isolates_everything(tmp_path, capsys):
    code, out, _ = run(
        ["graph", "--data", "builtin:dataset_a", "--out", str(tmp_path),
         "--model", "epsilon", "--epsilon", "1e-9"],
        capsys,
    )
    assert code == 0
    assert "components: 26" in out


def test_graph_rejects_parameter_lists(tmp_path, capsys):
    code, _, err = run(
        ["graph", "--data", "builtin:dataset_a", "--out", str(tmp_path),
         "--model", "epsilon", "--epsilon", "0.1,0.2"],
        capsys,
    )
    assert code == 2
    assert "error:" in err


def test_graph_seeded_criterion_is_reproducible(tmp_path, capsys):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        code, _, _ = run(
            ["graph", "--data", "builtin:dataset_a", "--out", str(d), "--seed", "7",
             "--model", "prob_criterion", "--w", "0.05", "--sigma", "0.1"],
            capsys,
        )
        assert code == 0
    assert (dirs[0] / "graph.json").read_bytes() == (dirs[1] / "graph.json").read_bytes()
    assert (dirs[0] / "components.json").read_bytes() == (dirs[1] / "components.json").read_bytes()


# ---------------------------------------------------------------------------
# group

def test_group_single_candidate_indices(tmp_path, capsys):
    data = write_bagged_csv(tmp_path / "bags.csv")
    code, out, _ = run(
        ["group", "--data", str(data), "--out", str(tmp_path),
         "--model", "knn_symmetric", "--k", "3"],
        capsys,
    )
    assert code == 0
    grouping = json.loads((tmp_path / "grouping.json").read_text())
    assert grouping["k"] == 2
    assert len(grouping["assignments"]) == 36
    indices = json.loads((tmp_path / "indices.json").read_text())
    assert set(indices) >= {"davies_bouldin", "f1"}
    assert "f1:" in out
    assert not (tmp_path / "grid.csv").exists()


def test_group_out_naming_a_file_is_an_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    code, _, err = run(
        ["group", "--data", "builtin:dataset_a", "--out", str(taken), *TOY_GRAPH_FLAGS],
        capsys,
    )
    assert code == 2
    assert err.startswith("error: ") and str(taken) in err
    assert "Traceback" not in err


def test_group_grid_reports_winner_and_is_deterministic(tmp_path, capsys):
    outputs = []
    for name in ("run1", "run2"):
        d = tmp_path / name
        code, out, _ = run(
            ["group", "--data", "builtin:dataset_a", "--out", str(d),
             "--model", "prob_threshold", "--w", "0.05,0.073,0.09",
             "--sigma", "5e-4", "--eps-weight", "1e-3", "--symmetrize", "min"],
            capsys,
        )
        assert code == 0
        assert "grid winner:" in out
        assert "w_thresh=0.073" in out
        outputs.append(d)
    for fname in ("grid.csv", "grid.json", "grouping.json", "indices.json"):
        assert (outputs[0] / fname).read_bytes() == (outputs[1] / fname).read_bytes()
    indices = json.loads((outputs[0] / "indices.json").read_text())
    assert indices["f1"] == 1.0
    grid = json.loads((outputs[0] / "grid.json").read_text())
    assert grid["best_index"] == 1
    with (outputs[0] / "grid.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert {"model", "w_thresh", "objective", "error"} <= set(rows[0])


CRITERION_GRID_FLAGS = [
    "--model", "prob_criterion", "--w", "0.02,0.03,0.05", "--sigma", "0.005,0.02", "--symmetrize", "max",
]


def test_group_criterion_grid_reruns_are_byte_identical(tmp_path, capsys):
    data = write_bagged_csv(tmp_path / "bags.csv")
    outputs = []
    for name in ("run1", "run2"):
        d = tmp_path / name
        code, _, _ = run(["group", "--data", str(data), "--out", str(d), *CRITERION_GRID_FLAGS], capsys)
        assert code == 0
        outputs.append([(d / f).read_bytes() for f in ("grid.csv", "grid.json", "grouping.json", "indices.json")])
    assert outputs[0] == outputs[1]


def test_group_grid_reuses_the_winners_grouping(tmp_path, capsys, monkeypatch):
    from spectralweak import evaluation

    calls = []
    original = evaluation.spectral_grouping

    def counting(graph, *args, **kwargs):
        calls.append(graph.params)
        return original(graph, *args, **kwargs)

    monkeypatch.setattr(evaluation, "spectral_grouping", counting)
    monkeypatch.setattr(cli, "spectral_grouping", counting)
    data = write_bagged_csv(tmp_path / "bags.csv")
    code, _, _ = run(["group", "--data", str(data), "--out", str(tmp_path), *CRITERION_GRID_FLAGS], capsys)
    assert code == 0
    assert len(calls) == 6  # one per candidate, none for the winner


def test_threads_flag_is_rejected_and_config_key_ignored(tmp_path, capsys):
    argv = ["group", "--data", "builtin:dataset_a", "--out", str(tmp_path), "--model", "epsilon", "--epsilon", "1.0"]
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"threads": 2}))
    code, _, _ = run([*argv, "--config", str(config)], capsys)
    assert code == 0


COMMON = {"-h", "--help", "--config", "--seed", "--out"}
DATASET = {"--data", "--id-col", "--bag-col", "--label-col", "--strong-label", "--features", "--delimiter"}
GRAPH = {"--model", "--epsilon", "--k", "--sigma", "--w", "--eps-weight", "--m", "--symmetrize"}
CLASSIFIER = {"--training", "--classifier", "--knn-k"}
COMMAND_FLAGS = {
    "graph": COMMON | DATASET | GRAPH | {"--no-standardize"},
    "group": COMMON | DATASET | GRAPH | {"--no-standardize", "--groups", "--objective", "--no-truth"},
    "annotate": COMMON | DATASET | GRAPH,
    "train": COMMON | DATASET | CLASSIFIER | {"--no-standardize"},
    "evaluate": COMMON | DATASET | CLASSIFIER | {"--aggregation", "--tau"},
    "bench": COMMON | {"--suite", "--data-dir", "--synth-seeds"},
}


def test_each_command_takes_exactly_the_listed_flags():
    parser = cli.build_parser()
    (commands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = {name: {o for a in sub._actions for o in a.option_strings} for name, sub in commands.items()}
    assert found == COMMAND_FLAGS


def test_restarts_flag_is_rejected_and_config_key_ignored(tmp_path, capsys):
    data = write_bagged_csv(tmp_path / "bags.csv")
    argv = ["annotate", "--data", str(data), "--strong-label", "ok", "--model", "knn_symmetric", "--k", "5",
            "--out", str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--restarts", "5"])
    assert exc.value.code == 2
    assert "--restarts" in capsys.readouterr().err
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"restarts": 5}))
    code, _, _ = run([*argv, "--config", str(config)], capsys)
    assert code == 0
    assert json.loads((tmp_path / "audit.json").read_text())["source"]["restarts"] == 10


# ---------------------------------------------------------------------------
# annotate, train, evaluate

def pipeline_files(tmp_path, capsys):
    data = write_bagged_csv(tmp_path / "bags.csv")
    code, out, _ = run(
        ["annotate", "--data", str(data), "--strong-label", "ok", "--out", str(tmp_path),
         "--model", "knn_symmetric", "--k", "5"],
        capsys,
    )
    assert code == 0
    return data, out


def test_annotate_writes_training_and_audit(tmp_path, capsys):
    _, out = pipeline_files(tmp_path, capsys)
    assert "annotated 36 instances: 12 strong, 24 weak" in out
    with (tmp_path / "annotated.csv").open() as fh:
        entries = list(csv.DictReader(fh))
    assert len(entries) == 36
    assert set(entries[0]) == {"instance_id", "label", "provenance"}
    strong = [e for e in entries if e["provenance"] == "strong"]
    assert len(strong) == 12 and all(e["label"] == "ok" for e in strong)
    audit = json.loads((tmp_path / "audit.json").read_text())
    assert audit["n_entries"] == 36
    assert "flu" in audit["group_sizes"]


def write_synth_csv(path, seed=0, bags_per_class=20):
    """The default planted mixture (about 890 instances at 20 bags per class)
    as a CLI input file."""
    ds = synth_bags(SynthBagsConfig(seed=seed, bags_per_class=bags_per_class)).dataset
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["instance", "bag", "group", "x0", "x1"])
        for iid, bag, label, row in zip(ds.ids, ds.bag, ds.label, ds.x):
            w.writerow([iid, bag, label, *(repr(float(v)) for v in row)])
    return path


def outputs_under_blas_threads(tmp_path, argv, names):
    """Run the CLI in a subprocess under 1 and 2 OpenBLAS threads; the bytes
    of the named output files of each run."""
    src = str(Path(spectralweak.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        subprocess.run(
            [sys.executable, "-m", "spectralweak.cli", *argv, "--out", str(out)],
            env=env, check=True, capture_output=True,
        )
        outputs.append([(out / name).read_bytes() for name in names])
    return outputs


def test_annotate_bytes_independent_of_blas_threads(tmp_path):
    data = write_synth_csv(tmp_path / "bags.csv")
    outputs = outputs_under_blas_threads(
        tmp_path,
        ["annotate", "--data", str(data), "--strong-label", "normal", "--model", "knn_symmetric", "--k", "10"],
        ("annotated.csv", "audit.json"),
    )
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "model_flags",
    [
        ["--model", "prob_threshold", "--symmetrize", "min", "--eps-weight", "1e-3"],
        ["--model", "prob_criterion", "--symmetrize", "max"],
    ],
)
def test_group_grid_bytes_independent_of_blas_threads(tmp_path, model_flags):
    # about 440 instances: dense eigensolves large enough for OpenBLAS to
    # split work across threads
    data = write_synth_csv(tmp_path / "bags.csv", bags_per_class=10)
    with data.open() as fh:
        n = sum(1 for _ in fh) - 1
    w = ",".join(repr(c / (n - 1)) for c in (1.0, 2.0, 3.0))
    sigma = ",".join(repr(c / (n - 1)) for c in (0.25, 1.0))
    outputs = outputs_under_blas_threads(
        tmp_path,
        ["group", "--data", str(data), "--groups", "3", *model_flags, "--w", w, "--sigma", sigma],
        ("grid.json", "grid.csv", "grouping.json", "indices.json"),
    )
    assert outputs[0] == outputs[1]


def test_evaluate_bytes_independent_of_blas_threads(tmp_path):
    # about 890 instances in 60 bags: the logistic folds advance in stacked
    # products over blocks of folds
    data = write_synth_csv(tmp_path / "bags.csv")
    outputs = outputs_under_blas_threads(
        tmp_path,
        ["evaluate", "--data", str(data), "--strong-label", "normal", "--classifier", "logistic"],
        ("cv.json", "cv.csv"),
    )
    assert outputs[0] == outputs[1]


def test_train_logistic_model_json(tmp_path, capsys):
    data, _ = pipeline_files(tmp_path, capsys)
    code, out, _ = run(
        ["train", "--data", str(data), "--strong-label", "ok", "--out", str(tmp_path),
         "--training", str(tmp_path / "annotated.csv")],
        capsys,
    )
    assert code == 0
    assert "trained logistic on 36 instances, 2 classes" in out
    model = json.loads((tmp_path / "model.json").read_text())
    assert model["kind"] == "logistic"
    assert model["classes"] == ["flu", "ok"]
    assert model["converged"] is True
    assert len(model["coef"]) == 1 and len(model["coef"][0]) == 2
    assert model["training_labels"] == {"strong": 12, "weak": 24}


def test_train_counts_provenance_of_the_entries_it_trains_on(tmp_path, capsys):
    # a repeated id counts once (its last entry) and an id outside the
    # dataset not at all, as for the labels the model is fitted to
    base = ["--data", "builtin:dataset_a", "--strong-label", "dense"]
    assert cli.main(["annotate", *base, "--model", "knn_symmetric", "--k", "3", "--out", str(tmp_path / "ann")]) == 0
    clean = tmp_path / "ann" / "annotated.csv"
    lines = clean.read_text().splitlines()
    weak_row = next(line for line in lines if line.endswith(",weak"))
    noisy = tmp_path / "noisy.csv"
    noisy.write_text("\n".join([*lines, weak_row, "zzz,alien,weak"]) + "\n")
    models = []
    for name, training in (("clean", clean), ("noisy", noisy)):
        out = tmp_path / name
        assert cli.main(["train", *base, "--training", str(training), "--out", str(out)]) == 0
        models.append((out / "model.json").read_text())
    assert models[0] == models[1]
    model = json.loads(models[0])
    assert model["training_labels"] == {"strong": 10, "weak": 16}
    assert model["n_train"] == 26
    capsys.readouterr()


def test_builtin_dataset_takes_the_strong_label_flag(tmp_path, capsys):
    argv = ["annotate", "--data", "builtin:dataset_a", "--model", "knn_symmetric", "--k", "3"]
    code, _, err = run([*argv, "--strong-label", "normal", "--out", str(tmp_path / "normal")], capsys)
    assert code == 2
    assert err.startswith("error: strong label 'normal' not present among bag labels")
    assert not (tmp_path / "normal" / "annotated.csv").exists()
    code, _, _ = run([*argv, "--strong-label", "sparse", "--out", str(tmp_path / "sparse")], capsys)
    assert code == 0
    with (tmp_path / "sparse" / "annotated.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {row["label"] for row in rows if row["provenance"] == "strong"} == {"sparse"}
    assert sum(row["provenance"] == "strong" for row in rows) == 16


def test_train_knn_requires_neighbour_count(tmp_path, capsys):
    data = write_bagged_csv(tmp_path / "bags.csv")
    code, _, err = run(
        ["train", "--data", str(data), "--strong-label", "ok", "--out", str(tmp_path),
         "--classifier", "knn"],
        capsys,
    )
    assert code == 2
    assert "--knn-k is required" in err


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_unknown_classifier_exits_2_naming_the_choices(tmp_path, capsys, command):
    data = write_bagged_csv(tmp_path / "bags.csv")
    code, _, err = run(
        [command, "--data", str(data), "--strong-label", "ok", "--out", str(tmp_path),
         "--classifier", "svm"],
        capsys,
    )
    assert code == 2
    assert err.startswith("error: unknown classifier 'svm'; choose from logistic, qda, knn")
    assert not any(tmp_path.glob("*.json"))


@pytest.mark.parametrize(
    "argv",
    [["annotate", "--model", "knn_symmetric", "--k", "3"], ["evaluate"]],
    ids=["annotate", "evaluate"],
)
def test_no_standardize_is_a_usage_error_where_nothing_reads_it(tmp_path, capsys, argv):
    # annotate's graphs and every LOBO fold z-score whatever the flag says
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--data", "builtin:dataset_a", "--strong-label", "dense", "--out", str(tmp_path),
                  "--no-standardize"])
    assert exc.value.code == 2
    assert "--no-standardize" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["graph", "--model", "epsilon", "--epsilon", "1.0"],
        ["group", "--model", "epsilon", "--epsilon", "1.0"],
        ["train", "--strong-label", "dense"],
    ],
    ids=["graph", "group", "train"],
)
def test_no_standardize_skips_z_scoring(tmp_path, capsys, argv):
    outputs = []
    for flags in ([], ["--no-standardize"]):
        out = tmp_path / str(len(flags))
        code, _, _ = run([*argv, "--data", "builtin:dataset_a", "--out", str(out), *flags], capsys)
        assert code == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0] != outputs[1]


def test_evaluate_reports_bag_accuracy(tmp_path, capsys):
    data, _ = pipeline_files(tmp_path, capsys)
    code, out, _ = run(
        ["evaluate", "--data", str(data), "--strong-label", "ok", "--out", str(tmp_path),
         "--training", str(tmp_path / "annotated.csv")],
        capsys,
    )
    assert code == 0
    assert "bag accuracy:" in out and "over 7 bags" in out
    cv = json.loads((tmp_path / "cv.json").read_text())
    assert cv["n_bags"] == 7
    assert 0.0 <= cv["accuracy"] <= 1.0
    with (tmp_path / "cv.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 7
    assert set(rows[0]) == {"bag", "true", "predicted"}
    assert sorted(r["bag"] for r in rows) == [r["bag"] for r in rows]


def test_evaluate_baseline_without_training_file(tmp_path, capsys):
    data = write_bagged_csv(tmp_path / "bags.csv")
    code, out, _ = run(
        ["evaluate", "--data", str(data), "--strong-label", "ok", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    assert "bag accuracy:" in out


def test_evaluate_names_the_bag_of_a_failing_fold(tmp_path, capsys):
    data = tmp_path / "bags.csv"
    rows = [("b1", "ok", 0.0), ("b1", "ok", 0.5), ("b2", "ok", 0.2), ("b2", "ok", 0.4),
            ("b3", "bad", 5.0), ("b4", "bad", 5.5)]
    with data.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["instance", "bag", "group", "x", "y"])
        w.writerows([f"i{i}", bag, label, x, x / 2] for i, (bag, label, x) in enumerate(rows))
    code, _, err = run(
        ["evaluate", "--data", str(data), "--strong-label", "ok", "--out", str(tmp_path), "--classifier", "qda"],
        capsys,
    )
    # holding out b3 leaves one 'bad' row to train on
    assert code == 2
    assert err == "error: fold of bag 'b3': class 'bad' has 1 sample(s); covariance undefined\n"


# ---------------------------------------------------------------------------
# config files and error paths

def test_config_file_supplies_flags(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "data": "builtin:dataset_a",
        "model": "prob_threshold",
        "w": 0.073,
        "sigma": 5e-4,
        "eps-weight": 1e-3,
        "symmetrize": "min",
    }))
    code, out, _ = run(
        ["graph", "--config", str(config), "--out", str(tmp_path)], capsys
    )
    assert code == 0
    assert "components: 2" in out


def test_flag_overrides_config_value(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "data": "builtin:dataset_a",
        "model": "prob_threshold",
        "w": 0.073,
        "sigma": 5e-4,
        "eps-weight": 1e-3,
    }))
    code, _, err = run(
        ["graph", "--config", str(config), "--out", str(tmp_path), "--w", "9.9"], capsys
    )
    assert code == 2
    assert "w_thresh" in err


def test_missing_data_flag_and_unknown_model(tmp_path, capsys):
    code, _, err = run(["graph", "--out", str(tmp_path), "--model", "epsilon"], capsys)
    assert code == 2
    assert "--data is required" in err
    code, _, err = run(
        ["graph", "--data", "builtin:dataset_a", "--out", str(tmp_path), "--model", "voronoi"],
        capsys,
    )
    assert code == 2
    assert "voronoi" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["group", "--data", "builtin:dataset_a", "--model", "knn_symmetric", "--k", "abc"], "--k"),
        (["evaluate", "--data", "builtin:dataset_a", "--strong-label", "dense", "--tau", "x"], "--tau"),
    ],
)
def test_bad_numeric_flag_value_exits_2_naming_the_flag(tmp_path, capsys, argv, flag):
    code, _, err = run([*argv, "--out", str(tmp_path)], capsys)
    assert code == 2
    assert err.startswith(f"error: {flag}: expected ")


def test_dataset_file_not_found(tmp_path, capsys):
    code, _, err = run(
        ["group", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path),
         "--model", "epsilon", "--epsilon", "1.0"],
        capsys,
    )
    assert code == 2
    assert "not found" in err


def test_empty_dataset_file_exits_2(tmp_path, capsys):
    data = tmp_path / "empty.csv"
    data.write_text("")
    code, _, err = run(["group", "--data", str(data), "--out", str(tmp_path), "--model", "epsilon", "--epsilon", "1.0"],
                       capsys)
    assert code == 2
    assert err == f"error: {data}: empty file\n"


@pytest.mark.parametrize("delimiter", [";;", ""])
@pytest.mark.parametrize("given_as", ["flag", "config"])
def test_bad_delimiter_exits_2_naming_it(tmp_path, capsys, delimiter, given_as):
    data = write_bagged_csv(tmp_path / "bags.csv")
    argv = ["group", "--data", str(data), "--model", "epsilon", "--epsilon", "1.0", "--out", str(tmp_path)]
    if given_as == "flag":
        argv += ["--delimiter", delimiter]
    else:
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"delimiter": delimiter}))
        argv += ["--config", str(config)]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err == f"error: delimiter must be a single character, got {delimiter!r}\n"


NEGATIVE_SEED_COMMANDS = {
    "group": ["group", "--data", "builtin:dataset_a", "--model", "knn_symmetric", "--k", "3"],
    "annotate": ["annotate", "--data", "builtin:dataset_a", "--strong-label", "dense",
                 "--model", "knn_symmetric", "--k", "3"],
    "evaluate": ["evaluate", "--data", "builtin:dataset_a", "--strong-label", "dense"],
}


@pytest.mark.parametrize("command", sorted(NEGATIVE_SEED_COMMANDS))
@pytest.mark.parametrize("given_as", ["flag", "config"])
def test_negative_seed_exits_2_naming_the_flag(tmp_path, capsys, command, given_as):
    out = tmp_path / "out"
    argv = [*NEGATIVE_SEED_COMMANDS[command], "--out", str(out)]
    if given_as == "flag":
        argv += ["--seed", "-2"]
    else:
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"seed": -2}))
        argv += ["--config", str(config)]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err == "error: --seed: expected a non-negative integer, got -2\n"
    assert not out.exists()


INTEGER_KEY_COMMANDS = {
    "seed": ["group", "--data", "builtin:dataset_a", "--model", "knn_symmetric", "--k", "3"],
    "groups": ["group", "--data", "builtin:dataset_a", "--model", "knn_symmetric", "--k", "3"],
    "k": ["group", "--data", "builtin:dataset_a", "--model", "knn_symmetric"],
    "knn-k": ["evaluate", "--data", "builtin:dataset_a", "--strong-label", "dense", "--classifier", "knn"],
    "synth-seeds": ["bench", "--suite", "table2synth"],
}


@pytest.mark.parametrize("key", sorted(INTEGER_KEY_COMMANDS))
@pytest.mark.parametrize("value", [1.5, 2.9, True])
def test_config_value_for_an_integer_key_is_not_truncated(tmp_path, capsys, key, value):
    out = tmp_path / "out"
    config = tmp_path / "run.json"
    config.write_text(json.dumps({key: value}))
    code, _, err = run([*INTEGER_KEY_COMMANDS[key], "--config", str(config), "--out", str(out)], capsys)
    assert code == 2
    assert err == f"error: --{key}: expected int, got {value!r}\n"
    assert not out.exists() or not any(out.iterdir())


FLOAT_KEY_COMMANDS = {
    "epsilon": ["group", "--data", "builtin:dataset_a", "--model", "epsilon"],
    "sigma": ["group", "--data", "builtin:dataset_a", "--model", "knn_symmetric", "--k", "3"],
    "w": ["group", "--data", "builtin:dataset_a", "--model", "prob_threshold", "--sigma", "0.01",
          "--eps-weight", "1e-3"],
    "eps-weight": ["group", "--data", "builtin:dataset_a", "--model", "prob_threshold", "--w", "0.01",
                   "--sigma", "0.01"],
    "m": ["group", "--data", "builtin:dataset_a", "--model", "prob_threshold", "--w", "0.01",
          "--sigma", "0.01", "--eps-weight", "1e-3"],
    "tau": ["evaluate", "--data", "builtin:dataset_a", "--strong-label", "dense"],
}


@pytest.mark.parametrize("key", sorted(FLOAT_KEY_COMMANDS))
@pytest.mark.parametrize("value", [True, False])
def test_config_boolean_for_a_float_key_exits_2(tmp_path, capsys, key, value):
    out = tmp_path / "out"
    config = tmp_path / "run.json"
    config.write_text(json.dumps({key: value}))
    code, _, err = run([*FLOAT_KEY_COMMANDS[key], "--config", str(config), "--out", str(out)], capsys)
    assert code == 2
    assert err == f"error: --{key}: expected float, got {value!r}\n"
    assert not out.exists() or not any(out.iterdir())


WRONG_TYPE = {int: (1.5, 2.9, True), float: (True, False), str: (5, False), bool: ("false", 1)}


@pytest.mark.parametrize(
    "command, flag", [(c, f) for c, flags in COMMAND_FLAGS.items() for f in sorted(flags - {"-h", "--help", "--config"})]
)
def test_config_value_of_the_wrong_type_exits_2_naming_the_flag(tmp_path, capsys, monkeypatch, command, flag):
    # --out is left at its default, the working directory
    monkeypatch.chdir(tmp_path)
    kind = cli.FLAGS[flag[2:]][0]
    for value in WRONG_TYPE[kind]:
        (tmp_path / "run.json").write_text(json.dumps({flag[2:]: value}))
        code, _, err = run([command, "--config", "run.json"], capsys)
        assert code == 2
        assert err == f"error: {flag}: expected {kind.__name__}, got {value!r}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


def test_config_null_means_the_default(tmp_path, capsys):
    argv = ["group", "--data", "builtin:dataset_a", "--model", "knn_symmetric", "--k", "3"]
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"seed": None, "groups": None}))
    outputs = []
    for flags in (["--config", str(config)], ["--seed", "0", "--groups", "2"]):
        out = tmp_path / str(len(outputs))
        code, _, _ = run([*argv, *flags, "--out", str(out)], capsys)
        assert code == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_help_of_each_command_lists_every_flag_it_takes(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    listed = re.findall(r"^  (?:-h, )?(--[\w-]+)", capsys.readouterr().out, re.M)
    assert {"-h", *listed} == COMMAND_FLAGS[command]


@pytest.mark.parametrize("raw", [2, 2.0, "2"])
def test_integral_values_still_cast_to_int(raw):
    assert cli._cast("k", raw, int) == 2


@pytest.mark.parametrize("command, output", [("train", "model.json"), ("evaluate", "cv.json")])
@pytest.mark.parametrize("classifier", ["logistic", "qda"])
def test_knn_k_with_another_classifier_exits_2_naming_both_flags(tmp_path, capsys, command, output, classifier):
    data = write_bagged_csv(tmp_path / "bags.csv")
    code, _, err = run(
        [command, "--data", str(data), "--strong-label", "ok", "--out", str(tmp_path),
         "--classifier", classifier, "--knn-k", "5"],
        capsys,
    )
    assert code == 2
    assert err == f"error: --knn-k applies only to --classifier knn, got --classifier {classifier}\n"
    assert not (tmp_path / output).exists()


def test_train_knn_k_above_the_training_rows_exits_2_naming_the_flag(tmp_path, capsys):
    data = write_bagged_csv(tmp_path / "bags.csv")
    code, _, err = run(
        ["train", "--data", str(data), "--strong-label", "ok", "--out", str(tmp_path),
         "--classifier", "knn", "--knn-k", "1000"],
        capsys,
    )
    assert code == 2
    assert err == "error: --knn-k: expected at most the 36 training rows, got 1000\n"
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("command, output", [("train", "model.json"), ("evaluate", "cv.json")])
@pytest.mark.parametrize("k", ["0", "-3"])
def test_knn_k_below_one_exits_2_naming_the_flag(tmp_path, capsys, command, output, k):
    data = write_bagged_csv(tmp_path / "bags.csv")
    code, _, err = run(
        [command, "--data", str(data), "--strong-label", "ok", "--out", str(tmp_path),
         "--classifier", "knn", "--knn-k", k],
        capsys,
    )
    assert code == 2
    assert err == f"error: --knn-k: expected a positive integer, got {k}\n"
    assert not (tmp_path / output).exists()


def test_unknown_objective_without_grid_exits_2_naming_the_choices(tmp_path, capsys):
    out = tmp_path / "out"
    code, _, err = run(
        ["group", "--data", "builtin:dataset_a", "--model", "knn_symmetric", "--k", "3",
         "--objective", "bogus", "--out", str(out)],
        capsys,
    )
    assert code == 2
    assert err == "error: --objective must be one of f1, db, got 'bogus'\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_training_csv_without_provenance_exits_2_naming_file_and_column(tmp_path, capsys, command):
    data = write_bagged_csv(tmp_path / "bags.csv")
    training = tmp_path / "labels.csv"
    training.write_text("instance_id,label\ni000,ok\n")
    code, _, err = run(
        [command, "--data", str(data), "--strong-label", "ok", "--training", str(training),
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 2
    assert err.startswith(f"error: {training}: missing columns ['provenance']")


def test_duplicate_instance_id_exits_2_naming_id_and_rows(tmp_path, capsys):
    data = tmp_path / "bags.csv"
    data.write_text("instance,bag,group,x\na,b1,ok,0.0\nb,b1,ok,1.0\na,b2,flu,2.0\n")
    code, _, err = run(
        ["annotate", "--data", str(data), "--strong-label", "ok", "--model", "knn_symmetric", "--k", "1",
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 2
    assert err == "error: duplicate instance id 'a' in data rows 1 and 3\n"


def write_short_row_csv(path):
    """A bagged CSV whose fourth data row, alone in its bag, lacks its group cell."""
    rows = ["i0,b0,0,0,ok", "i1,b0,1,0,ok", "i2,b1,5,5,flu", "i3,b2,6,5", "i4,b1,6,6,flu"]
    path.write_text("\n".join(["instance,bag,x,y,group", *rows]) + "\n")
    return path


@pytest.mark.parametrize("command", ["graph", "group", "annotate", "evaluate"])
def test_missing_label_cell_exits_2_naming_file_row_and_column(tmp_path, capsys, command):
    data = write_short_row_csv(tmp_path / "short.csv")
    flags = ["--model", "knn_symmetric", "--k", "1"] if command in ("graph", "group", "annotate") else []
    strong = ["--strong-label", "ok"] if command in ("annotate", "evaluate") else []
    code, _, err = run([command, "--data", str(data), *strong, *flags, "--out", str(tmp_path / "out")], capsys)
    assert code == 2
    assert err == f"error: {data}: row 4, column 'group': missing cell\n"


# ---------------------------------------------------------------------------
# bench

def test_bench_toyfig_exit_zero(tmp_path, capsys):
    code, out, err = run(["bench", "--suite", "toyfig", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "suite toyfig: PASS" in out
    assert "[PASS]" in out
    assert "elapsed:" in err
    payload = json.loads((tmp_path / "bench_toyfig.json").read_text())
    assert payload["passed"] is True
    assert "elapsed" not in json.dumps(payload)
    assert (tmp_path / "bench_toyfig_rows.csv").is_file()


def test_bench_synth_seed_override(tmp_path, capsys):
    code, out, _ = run(
        ["bench", "--suite", "table2synth", "--synth-seeds", "2", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    assert "2/2 seeds" in out
    with (tmp_path / "bench_table2synth_rows.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [r["seed"] for r in rows] == ["0", "1"]


@pytest.mark.parametrize("count", ["0", "-3"])
def test_bench_synth_seeds_must_be_positive(tmp_path, capsys, count):
    code, _, err = run(
        ["bench", "--suite", "table2synth", "--synth-seeds", count, "--out", str(tmp_path)],
        capsys,
    )
    assert code == 2
    assert f"--synth-seeds: expected a positive seed count, got {count}" in err
    assert not (tmp_path / "bench_table2synth.json").exists()


@pytest.mark.parametrize("suite", ["table1", "toyfig"])
def test_bench_synth_seeds_with_another_suite_exits_2_naming_it(tmp_path, capsys, suite):
    code, _, err = run(
        ["bench", "--suite", suite, "--synth-seeds", "2", "--data-dir", str(tmp_path), "--out", str(tmp_path)],
        capsys,
    )
    assert code == 2
    assert err == f"error: --synth-seeds applies only to --suite table2synth, got --suite {suite}\n"
    assert not (tmp_path / f"bench_{suite}.json").exists()


def test_bench_missing_data_gives_instructions(tmp_path, capsys):
    empty = tmp_path / "nodata"
    empty.mkdir()
    code, _, err = run(
        ["bench", "--suite", "table1", "--data-dir", str(empty), "--out", str(tmp_path)],
        capsys,
    )
    assert code == 2
    assert err.startswith("error: ")
    assert "curl" in err
    assert "banknote.csv" in err


def test_bench_requires_suite(tmp_path, capsys):
    code, _, err = run(["bench", "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "--suite is required" in err


# ---------------------------------------------------------------------------
# one process: what loads, what is built once

# Runs each argv of the JSON list argv[1] through cli.main in one fresh
# interpreter and prints, per step, the exit code and the scipy modules loaded
# after it, the import first.
SCIPY_STEPS = """
import contextlib, json, sys
import spectralweak.cli as cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

steps = [["import", 0, scipy_modules()]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(sys.stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    steps.append([argv[0], code, scipy_modules()])
print(json.dumps(steps))
"""


def test_commands_that_build_no_graph_load_no_scipy(tmp_path, capsys):
    data, _ = pipeline_files(tmp_path, capsys)
    base = ["--data", str(data), "--strong-label", "ok"]
    steps = [
        ["evaluate", *base, "--classifier", "logistic", "--training", str(tmp_path / "annotated.csv"),
         "--out", str(tmp_path / "weak")],
        ["evaluate", *base, "--classifier", "qda", "--out", str(tmp_path / "qda")],
        ["train", *base, "--classifier", "logistic", "--out", str(tmp_path / "model")],
        ["train", *base, "--seed", "-2", "--out", str(tmp_path / "bad-seed")],
        ["--help"],
        ["annotate", *base, "--model", "knn_symmetric", "--k", "5", "--out", str(tmp_path / "again")],
    ]
    src = str(Path(spectralweak.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run(
        [sys.executable, "-c", SCIPY_STEPS, json.dumps(steps)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert [code for _, code, _ in report] == [0, 0, 0, 0, 2, 0, 0]
    for name, _, loaded in report[:-1]:
        assert loaded == [], name
    assert "scipy.spatial" in report[-1][2]  # annotate loads scipy at first use
    for out in ("weak/cv.json", "qda/cv.json", "model/model.json"):
        assert (tmp_path / out).is_file()
    assert not (tmp_path / "bad-seed").exists()
    assert (tmp_path / "again" / "annotated.csv").read_bytes() == (tmp_path / "annotated.csv").read_bytes()


def test_main_parses_each_call_alone_and_dispatches_by_name(tmp_path, monkeypatch, capsys):
    # the parser is built once per process; a flag or value of one call must
    # not reach the next, and cmd_* is looked up when main runs
    seen = []
    for name in ("train", "evaluate"):
        monkeypatch.setattr(cli, f"cmd_{name}", lambda opts, name=name: seen.append((name, vars(opts))) or 0)
    cli.main(["train", "--data", "a.csv", "--classifier", "qda", "--no-standardize", "--seed", "3", "--out", "x"])
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", lambda *a, **k: pytest.fail("parser built again"))
    cli.main(["evaluate", "--data", "b.csv", "--tau", "0.25"])
    cli.main(["train", "--data", "a.csv"])
    defaults = {"id_col": "instance", "bag_col": "bag", "label_col": "group", "strong_label": None,
                "features": None, "delimiter": ",", "training": None, "knn_k": None}
    assert seen == [
        ("train", {**defaults, "seed": 3, "out": "x", "data": "a.csv", "no_standardize": True, "classifier": "qda"}),
        ("evaluate", {**defaults, "seed": 0, "out": ".", "data": "b.csv", "classifier": "logistic",
                      "aggregation": "majority", "tau": 0.25}),
        ("train", {**defaults, "seed": 0, "out": ".", "data": "a.csv", "no_standardize": False,
                   "classifier": "logistic"}),
    ]
