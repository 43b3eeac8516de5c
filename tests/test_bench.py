import csv
import importlib.util
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from spectralweak import bench, cli
from spectralweak.dataset import pairwise_distances
from spectralweak.errors import DegenerateDistanceError, MissingDataError, ParseError
from spectralweak.weakanno import SynthBagsConfig

from helpers import write_fake_banknotes


# ---------------------------------------------------------------------------
# fetch instructions and gating

def test_fetch_instructions_name_files_and_host():
    text = bench.fetch_instructions("banknotes", "some/dir")
    assert "banknote.csv" in text
    assert "some/dir" in text
    assert "vincentarelbundock.github.io" in text
    seg = bench.fetch_instructions("segmentation")
    assert "segmentation.data" in seg and "segmentation.test" in seg
    assert "archive.ics.uci.edu" in seg
    with pytest.raises(ParseError):
        bench.fetch_instructions("iris")


def test_missing_files_raise_with_instructions(tmp_path):
    for name, loader in bench.BENCH_LOADERS.items():
        with pytest.raises(MissingDataError) as err:
            loader(tmp_path)
        assert "curl" in str(err.value)
        assert str(tmp_path) in str(err.value)


# ---------------------------------------------------------------------------
# loaders on synthetic stand-in files

def test_banknotes_loader_accepts_both_layouts(tmp_path):
    write_fake_banknotes(tmp_path / "banknote.csv")
    ds = bench.load_banknotes(tmp_path)
    assert ds.x.shape == (200, 6)
    assert sorted(ds.labels) == ["counterfeit", "genuine"]
    assert ds.strong_label == "counterfeit"
    assert np.array_equal(ds.bag, ds.ids)  # one bag per instance

    bare = tmp_path / "bare"
    bare.mkdir()
    write_fake_banknotes(bare / "banknote.csv", rownames=False)
    ds2 = bench.load_banknotes(bare)
    assert np.array_equal(ds2.x, ds.x)


def test_banknotes_loader_validates_shape(tmp_path):
    write_fake_banknotes(tmp_path / "banknote.csv", n_per_class=99)
    with pytest.raises(ParseError, match="expected 200 rows"):
        bench.load_banknotes(tmp_path)

    two_labels = tmp_path / "two"
    two_labels.mkdir()
    with (two_labels / "banknote.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["Status", "Grade", "a", "b", "c", "d", "e"])
        for i in range(200):
            w.writerow(["genuine" if i < 100 else "fake", "x", 1, 2, 3, 4, 5])
    with pytest.raises(ParseError, match="non-numeric"):
        bench.load_banknotes(two_labels)


def rewrite_banknotes_row(path, row, cells):
    """Replace data row `row` (1-based) of a banknote CSV with `cells`."""
    lines = path.read_text().splitlines()
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "row, cells, message",
    [
        (1, ["1", "genuine", "1", "2"], "row 1 has 4 cells, the header has 8"),
        (150, ["150", "counterfeit", "1", "2", "3"], "row 150 has 5 cells, the header has 8"),
        (37, ["37", "genuine", "1", "2", "3", "x4", "5", "6"], "row 37, column 'Bottom': cannot parse 'x4' as float"),
    ],
    ids=["short_first_row", "short_later_row", "non_numeric_cell"],
)
def test_banknotes_loader_names_file_and_row_of_a_malformed_row(tmp_path, row, cells, message):
    path = tmp_path / "banknote.csv"
    write_fake_banknotes(path)
    rewrite_banknotes_row(path, row, cells)
    with pytest.raises(ParseError, match=f"banknote.csv: {message}"):
        bench.load_banknotes(tmp_path)


def test_banknotes_row_numbers_count_blank_lines(tmp_path):
    path = tmp_path / "banknote.csv"
    write_fake_banknotes(path)
    rewrite_banknotes_row(path, 37, ["37", "genuine", "1", "2", "3", "x4", "5", "6"])
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:11] + [""] + lines[11:]) + "\n")
    with pytest.raises(ParseError, match="banknote.csv: row 38, column 'Bottom'"):
        bench.load_banknotes(tmp_path)


def test_table1_on_a_malformed_banknotes_row_exits_2(tmp_path, capsys):
    write_fake_banknotes(tmp_path / "banknote.csv")
    rewrite_banknotes_row(tmp_path / "banknote.csv", 1, ["1", "genuine", "1", "2"])
    argv = ["bench", "--suite", "table1", "--data-dir", str(tmp_path), "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    assert "banknote.csv: row 1 has 4 cells" in capsys.readouterr().err


def write_fake_segmentation(d, n_train=210, n_test=2100):
    classes = ["SKY", "CEMENT", "WINDOW", "BRICKWORK", "FOLIAGE", "PATH", "GRASS"]
    rng = np.random.default_rng(1)

    def rows(n, path):
        with path.open("w") as fh:
            fh.write(";;; header junk\nCLASS LIST\n\n")
            for i in range(n):
                label = classes[i % 7]
                vals = np.round(rng.normal(classes.index(label), 0.5, 19), 3)
                fh.write(label + "," + ",".join(str(float(v)) for v in vals) + "\n")

    rows(n_train, d / "segmentation.data")
    rows(n_test, d / "segmentation.test")


def test_segmentation_loader_skips_headers_and_counts(tmp_path):
    write_fake_segmentation(tmp_path)
    ds = bench.load_segmentation(tmp_path)
    assert ds.x.shape == (2310, 19)
    assert len(ds.labels) == 7

    short = tmp_path / "short"
    short.mkdir()
    write_fake_segmentation(short, n_test=2000)
    with pytest.raises(ParseError, match="expected 2310"):
        bench.load_segmentation(short)


def write_fake_abalone(path, n=4177):
    rng = np.random.default_rng(2)
    with path.open("w") as fh:
        for i in range(n):
            sex = "MFI"[i % 3]
            vals = np.round(rng.uniform(0.05, 1.0, 7), 4)
            rings = int(rng.integers(1, 25))
            fh.write(sex + "," + ",".join(str(float(v)) for v in vals) + f",{rings}\n")


def test_abalone_loader_dummies_and_ring_clipping(tmp_path):
    write_fake_abalone(tmp_path / "abalone.data")
    ds = bench.load_abalone(tmp_path)
    assert ds.x.shape == (4177, 9)
    labels = set(ds.labels)
    assert labels <= {f"r{r:02d}" for r in range(4, 14)}
    assert "r04" in labels and "r13" in labels
    # sex dummies: M -> (1,0), F -> (0,1), I -> (0,0)
    assert ds.x[:3, :2].tolist() == [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]


def test_abalone_loader_reports_bad_lines(tmp_path):
    path = tmp_path / "abalone.data"
    path.write_text("M,0.1,0.2,0.3,0.4,0.5,0.6,0.7,9\nX,0.1,0.2,0.3,0.4,0.5,0.6,0.7,9\n")
    with pytest.raises(ParseError, match=":2: sex must be"):
        bench.load_abalone(tmp_path)
    path.write_text("M,0.1,0.2,9\n")
    with pytest.raises(ParseError, match=":1: expected 9 fields"):
        bench.load_abalone(tmp_path)


# ---------------------------------------------------------------------------
# bundled toy dataset and sweep helpers

def test_dataset_a_shape():
    ds = bench.load_dataset_a()
    assert ds.x.shape == (26, 2)
    assert len(ds.labels) == 2
    assert np.array_equal(ds.bag, ds.ids)  # one bag per instance


SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "make_dataset_a.py"


def script_copy(root: Path, monkeypatch):
    """scripts/make_dataset_a.py copied under root and loaded, so that its
    --write goes to root/src/spectralweak/data instead of the package."""
    path = root / "scripts" / "make_dataset_a.py"
    path.parent.mkdir(parents=True)
    shutil.copy(SCRIPT, path)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends its src
    spec = importlib.util.spec_from_file_location("make_dataset_a", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_fixture_script_verifies_and_rebuilds_the_bundled_csv(tmp_path, monkeypatch):
    """scripts/make_dataset_a.py passes its own checks without --write, its
    build_points() gives the bundled fixture's coordinates and groups
    exactly, and its --write reproduces the bundled CSV byte for byte."""
    done = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "w recovery window: 0.068-0.082" in done.stdout  # raw view
    assert "w recovery window: 0.064-0.078" in done.stdout  # z-scored view
    script = script_copy(tmp_path, monkeypatch)
    coords, labels = script.build_points()
    ds = bench.load_dataset_a()
    assert np.array_equal(ds.x, coords)
    assert ds.label.tolist() == [("dense", "sparse")[lab] for lab in labels]
    assert script.main(["--write"]) == 0
    written = tmp_path / "src" / "spectralweak" / "data" / "dataset_a.csv"
    bundled = Path(bench.__file__).parent / "data" / "dataset_a.csv"
    assert written.read_bytes() == bundled.read_bytes()


def shift_group_1(coords, labels):
    """Group 1 moved far off, so epsilon and kNN graphs separate the plant."""
    return coords + 50.0 * (labels == 1)[:, None], labels


def duplicate_point(coords, labels):
    coords = coords.copy()
    coords[1] = coords[0]
    return coords, labels


@pytest.mark.parametrize(
    "defect, failed",
    [
        (shift_group_1, ["no epsilon yields", "no k yields the planted groups (knn_symmetric)",
                         "no k yields the planted groups (knn_mutual)"]),
        (duplicate_point, ["no two points nearly coincide"]),
    ],
)
def test_fixture_script_rejects_a_bad_layout_and_writes_nothing(tmp_path, monkeypatch, capsys, defect, failed):
    script = script_copy(tmp_path, monkeypatch)
    good = script.build_points
    monkeypatch.setattr(script, "build_points", lambda: defect(*good()))
    assert script.main(["--write"]) == 1
    out = capsys.readouterr().out
    for name in failed:
        assert out.count(f"[FAIL] {name}") == 2, out  # raw and z-scored views
    assert "verification FAILED; fixture not written" in out
    assert not (tmp_path / "src").exists()


def test_partition_matches_ignores_names():
    a = np.array(["x", "x", "y", "y"])
    b = np.array([7, 7, 3, 3])
    c = np.array([7, 3, 3, 7])
    assert bench.partition_matches(a, b)
    assert not bench.partition_matches(a, c)
    with pytest.raises(ParseError):
        bench.partition_matches(a, b[:3])


def test_epsilon_sweep_grid_brackets_all_behaviour():
    dist = pairwise_distances(np.array([[0.0], [1.0], [3.0]]))
    grid = bench.epsilon_sweep_grid(dist)
    # distinct distances 1, 2, 3 -> below-min, three midpoints, above-max
    assert grid == (0.5, 1.5, 2.5, pytest.approx(3.3))


# ---------------------------------------------------------------------------
# report mechanics

def test_check_lines_and_report_gating():
    hard_pass = bench.BenchCheck("a", "hard", True, value=1.0, target="x >= 1")
    soft_miss = bench.BenchCheck("b", "soft", False, value=0.5, target="x >= 1", detail="close")
    hard_fail = bench.BenchCheck("c", "hard", False)
    assert hard_pass.line() == "[PASS] a value=1 target: x >= 1"
    assert soft_miss.line() == "[MISS] b value=0.5 target: x >= 1 (close)"
    assert hard_fail.line() == "[FAIL] c"

    report = bench.BenchReport("demo", (hard_pass, soft_miss), 1.0)
    assert report.passed
    assert report.lines()[-1] == "suite demo: PASS"
    failing = bench.BenchReport("demo", (hard_pass, hard_fail), 1.0)
    assert not failing.passed

    payload = report.to_json_dict()
    assert set(payload) == {"suite", "passed", "checks"}
    json.dumps(payload)


def test_report_rows_csv(tmp_path, capsys):
    report = bench.BenchReport(
        "demo", (), 0.0, rows=({"a": 1, "b": "x"}, {"a": 2, "b": "y"})
    )
    path = tmp_path / "rows.csv"
    cli._write_csv(list(report.rows), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b"
    assert lines[1:] == ["1,x", "2,y"]
    empty = bench.BenchReport("demo", (), 0.0)
    cli._write_csv(list(empty.rows), tmp_path / "none.csv")
    assert not (tmp_path / "none.csv").exists()


# ---------------------------------------------------------------------------
# suites

def test_table1_banknotes_on_standin_data(tmp_path):
    write_fake_banknotes(tmp_path / "banknote.csv")
    report = bench.table1(tmp_path, datasets=("banknotes",))
    assert report.suite == "table1"
    assert len(report.checks) == 4
    assert all(c.kind == "hard" for c in report.checks)
    assert report.passed
    names = [c.name for c in report.checks]
    assert "banknotes prob_threshold min" in names
    assert "banknotes prob_criterion max" in names
    row = report.rows[0]
    assert set(row) == {"dataset", "model", "symmetrize", "w_thresh", "sigma", "objective", "error"}


def test_table2synth_small_run():
    config = SynthBagsConfig(bags_per_class=6, disordered_bag_size=(8, 12))
    report = bench.table2synth(seeds=(0, 1), config=config)
    assert report.suite == "table2synth"
    assert len(report.rows) == 2
    assert report.passed
    for row in report.rows:
        assert set(row) == {"seed", "weak_accuracy", "baseline_accuracy", "gap", "agreement", "win"}
        assert row["gap"] == pytest.approx(row["weak_accuracy"] - row["baseline_accuracy"])
    (check,) = report.checks
    assert check.kind == "hard"
    assert "2/2 seeds" in check.name


def test_toyfig_suite_passes():
    report = bench.toyfig()
    assert report.passed
    assert report.suite == "toyfig"
    families = {row["family"] for row in report.rows}
    assert families == {"epsilon", "knn_symmetric", "knn_mutual", "prob_threshold"}
    names = " ".join(c.name for c in report.checks)
    assert "planted" in names and "reference" in names


def test_toyfig_names_coincident_points():
    ds = bench.load_dataset_a()
    x = ds.x.copy()
    x[1] = x[0]
    with pytest.raises(DegenerateDistanceError, match="instances 0 and 1 are at distance zero"):
        bench.toyfig(replace(ds, x=x))


def test_run_suite_dispatch(tmp_path):
    report = bench.run_suite("toyfig")
    assert report.suite == "toyfig"
    with pytest.raises(ParseError, match="unknown suite"):
        bench.run_suite("table9")
    with pytest.raises(MissingDataError):
        bench.run_suite("table1", data_dir=tmp_path)
