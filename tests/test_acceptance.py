"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Benchmark-data criteria skip with fetch instructions when the files are not
present; everything else must pass unconditionally.
"""

import math
import os
from pathlib import Path

import numpy as np
import pytest

from spectralweak import bench
from spectralweak.classify import LogisticModel, predict_proba, train_qda
from spectralweak.dataset import DistanceMatrix
from spectralweak.errors import MissingDataError, UndefinedIndexError
from spectralweak.evaluation import davies_bouldin, f1_score, pair_confusion
from spectralweak.simgraph import (
    GraphParams,
    SimilarityGraph,
    connected_components,
    initial_similarities,
    prob_criterion_graph,
)
from spectralweak.spectral import (
    Grouping,
    kmeans,
    smallest_k_eigenvectors,
)

from helpers import gradient_reference_at, stacked_objective, unnormalized_laplacian

DATA_DIR = Path(os.environ.get("SPECTRALWEAK_DATA", Path(__file__).resolve().parent.parent / "data"))


def report_line(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")


def load_or_skip(name):
    try:
        return bench.BENCH_LOADERS[name](DATA_DIR)
    except MissingDataError as exc:
        pytest.skip(f"benchmark data not present. {exc}")


# ---------------------------------------------------------------------------
# criteria 1-3: published grouping benchmarks

def test_criterion_1_banknotes_grouping_reaches_099():
    load_or_skip("banknotes")
    report = bench.table1(DATA_DIR, datasets=("banknotes",))
    ok = report.passed and report.elapsed_s < 30.0
    report_line(
        "criterion 1", ok,
        f"banknotes probabilistic graphs F1 >= 0.99 on all 4 rows in {report.elapsed_s:.1f}s",
    )
    for line in report.lines():
        print("  " + line)
    assert report.passed
    assert report.elapsed_s < 30.0


def test_criterion_2_segmentation_grouping_band():
    load_or_skip("segmentation")
    report = bench.table1(DATA_DIR, datasets=("segmentation",))
    (check,) = report.checks
    ok = check.value is not None and report.elapsed_s < 300.0
    report_line(
        "criterion 2", ok,
        f"segmentation F1 {check.value:.3f} vs published band (soft {'hit' if check.passed else 'miss'}) "
        f"in {report.elapsed_s:.1f}s",
    )
    assert check.value is not None
    assert report.elapsed_s < 300.0


def test_criterion_3_abalone_grouping_band():
    load_or_skip("abalone")
    report = bench.table1(DATA_DIR, datasets=("abalone",))
    (check,) = report.checks
    ok = check.value is not None
    report_line(
        "criterion 3", ok,
        f"abalone F1 {check.value:.3f} vs published band (soft {'hit' if check.passed else 'miss'}) "
        f"in {report.elapsed_s:.1f}s",
    )
    assert check.value is not None


# ---------------------------------------------------------------------------
# criterion 4: weak annotation beats the baseline on planted bags

def test_criterion_4_weak_pipeline_beats_baseline():
    report = bench.table2synth(seeds=tuple(range(20)))
    (check,) = report.checks
    ok = report.passed and report.elapsed_s < 120.0
    report_line(
        "criterion 4", ok,
        f"{check.name} ({check.detail}) in {report.elapsed_s:.1f}s",
    )
    assert report.passed
    assert report.elapsed_s < 120.0


# ---------------------------------------------------------------------------
# criterion 5: Laplacian identities on random graphs

def random_weight_matrix(rng):
    n = int(rng.integers(2, 61))
    mask = np.triu(rng.random((n, n)) < rng.uniform(0.05, 0.5), 1)
    w = np.where(mask, rng.uniform(0.1, 3.0, (n, n)), 0.0)
    return w + w.T


def test_criterion_5_laplacian_identities():
    rng = np.random.default_rng(12345)
    worst_row_sum = 0.0
    worst_min_eig = 0.0
    for _ in range(100):
        w = random_weight_matrix(rng)
        g = SimilarityGraph(w=w, model="fully_connected", params=GraphParams())
        lap = unnormalized_laplacian(g)
        worst_row_sum = max(worst_row_sum, float(np.max(np.abs(lap.sum(axis=1)))))
        worst_min_eig = min(worst_min_eig, float(np.linalg.eigvalsh(lap).min()))
        emb = smallest_k_eigenvectors(g, w.shape[0])
        multiplicity = int(np.sum(np.abs(emb.eigenvalues) < 1e-8))
        components, _ = connected_components(w)
        assert multiplicity == components
        # L_rw = D^-1 (D - W), zero degrees clamped to 1
        deg = w.sum(axis=1)
        rw = lap / np.where(deg == 0.0, 1.0, deg)[:, None]
        reference = np.sort(np.linalg.eigvals(rw).real)
        assert np.max(np.abs(emb.eigenvalues - reference)) < 1e-8
    ok = worst_row_sum < 1e-10 and worst_min_eig >= -1e-9
    report_line(
        "criterion 5", ok,
        "100 random graphs (n <= 60): zero row sums "
        f"(worst {worst_row_sum:.1e}), PSD (min eig {worst_min_eig:.1e}), "
        "eigenvalue-zero multiplicity equals component count",
    )
    assert worst_row_sum < 1e-10
    assert worst_min_eig >= -1e-9


# ---------------------------------------------------------------------------
# criterion 6: validity indices against brute-force oracles

def test_criterion_6_index_oracles():
    rng = np.random.default_rng(54321)
    db_checked = 0
    f1_checked = 0
    worst_db = 0.0
    worst_f1 = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 51))
        points = rng.normal(size=(n, int(rng.integers(1, 5))))
        labels = rng.integers(0, 2, n)
        if len(set(labels.tolist())) == 2:
            c0 = points[labels == 0].mean(axis=0)
            c1 = points[labels == 1].mean(axis=0)
            s0 = float(np.linalg.norm(points[labels == 0] - c0, axis=1).mean())
            s1 = float(np.linalg.norm(points[labels == 1] - c1, axis=1).mean())
            sep = float(np.linalg.norm(c0 - c1))
            try:
                got = davies_bouldin(points, Grouping(labels, 2)).value
            except UndefinedIndexError:
                assert sep == 0.0
            else:
                worst_db = max(worst_db, abs(got - (s0 + s1) / sep))
                db_checked += 1
        candidate = rng.integers(0, 4, n)
        truth = rng.integers(0, 3, n)
        tp = fp = fn = tn = 0
        for i in range(n):
            for j in range(i + 1, n):
                sc = candidate[i] == candidate[j]
                st = truth[i] == truth[j]
                tp += sc and st
                fp += sc and not st
                fn += (not sc) and st
                tn += (not sc) and not st
        assert pair_confusion(candidate, truth) == (tp, fp, fn, tn)
        if tp + fp > 0 and tp + fn > 0:
            precision = tp / (tp + fp)
            recall = tp / (tp + fn)
            expected = 0.0 if precision == recall == 0.0 else 2 * precision * recall / (precision + recall)
            worst_f1 = max(worst_f1, abs(f1_score(candidate, truth).value - expected))
            f1_checked += 1
    ok = worst_db < 1e-12 and worst_f1 < 1e-12
    report_line(
        "criterion 6", ok,
        f"separation index ({db_checked} cases, worst dev {worst_db:.1e}) and pair F1 "
        f"({f1_checked} cases, worst dev {worst_f1:.1e}) match literal formulas",
    )
    assert worst_db < 1e-12
    assert worst_f1 < 1e-12


# ---------------------------------------------------------------------------
# criterion 7: bundled toy reconstruction behaves as designed

def test_criterion_7_toy_reconstruction():
    report = bench.toyfig()
    ok = report.passed and report.elapsed_s < 30.0
    report_line("criterion 7", ok, f"all toy sweep checks hold in {report.elapsed_s:.1f}s")
    for line in report.lines():
        print("  " + line)
    assert report.passed
    assert report.elapsed_s < 30.0


# ---------------------------------------------------------------------------
# criterion 8: stochastic edge acceptance tracks its stated probability

def test_criterion_8_acceptance_frequency():
    dist = DistanceMatrix(np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.2], [3.0, 1.2, 0.0]]))
    sims = initial_similarities(dist)
    w, sigma = 0.6, 0.1
    s10 = sims.s[1, 0]
    p = math.exp(-((s10 - w) ** 2) / (2 * sigma**2))
    trials = 5000
    hits = 0
    for seed in range(trials):
        g = prob_criterion_graph(sims, w, sigma, symmetrize_rule="min", seed=seed)
        hits += g.w[0, 1] > 0
    freq = hits / trials
    bound = 3 * math.sqrt(p * (1 - p) / trials)
    ok = abs(freq - p) <= bound
    report_line(
        "criterion 8", ok,
        f"edge kept in {freq:.4f} of {trials} seeds vs probability {p:.4f} "
        f"(|dev| {abs(freq - p):.4f} <= 3 SE {bound:.4f})",
    )
    assert abs(freq - p) <= bound


# ---------------------------------------------------------------------------
# criterion 9: classifier and grouping numerics

def test_criterion_9_estimator_numerics():
    rng = np.random.default_rng(99)

    # multinomial logistic gradient vs central differences
    x = rng.normal(size=(30, 2))
    y = rng.choice(["a", "b", "c"], size=30)
    coef = rng.normal(scale=0.4, size=(2, 2))
    intercept = rng.normal(scale=0.4, size=2)
    l2 = 1e-3
    model = LogisticModel(("a", "b", "c"), coef, intercept, False, 0)
    grad = gradient_reference_at(model, x, y, l2)
    theta = np.column_stack([coef, intercept])
    h = 1e-6
    worst_rel = 0.0
    for e, want in zip(h * np.eye(theta.size), grad.ravel()):
        up = stacked_objective(theta + e.reshape(theta.shape), x, y, model.classes, l2)
        dn = stacked_objective(theta - e.reshape(theta.shape), x, y, model.classes, l2)
        worst_rel = max(worst_rel, abs((up - dn) / (2 * h) - want) / max(1.0, abs(want)))
    assert worst_rel <= 1e-5

    # Gaussian model posterior vs the closed-form one-dimensional Bayes rule
    x1d = np.concatenate([rng.normal(0.0, 1.0, 200), rng.normal(3.0, 0.5, 100)])[:, None]
    y1d = np.asarray(["lo"] * 200 + ["hi"] * 100)
    qda = train_qda(x1d, y1d)
    queries = np.linspace(-2.0, 5.0, 41)[:, None]
    probs = predict_proba(qda, queries)
    worst_bayes = 0.0
    for qi, q in enumerate(queries[:, 0]):
        dens = []
        for ci in range(2):
            mu = qda.means[ci, 0]
            var = qda.covariances[ci, 0, 0]
            dens.append(qda.priors[ci] * math.exp(-((q - mu) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var))
        worst_bayes = max(worst_bayes, abs(probs[qi, 0] - dens[0] / (dens[0] + dens[1])))
    assert worst_bayes <= 1e-9

    # k-means refinement never increases its objective
    runs_checked = 0
    while runs_checked < 500:
        pts = rng.normal(size=(int(rng.integers(6, 25)), 2))
        result = kmeans(pts, int(rng.integers(2, 5)), seed=int(rng.integers(0, 10**6)))
        for run in result.runs:
            trace = np.asarray(run.objective_trace)
            assert np.all(np.diff(trace) <= 1e-12)
            runs_checked += 1

    report_line(
        "criterion 9", True,
        f"logistic gradient rel dev {worst_rel:.1e} <= 1e-5; Gaussian posterior vs Bayes "
        f"dev {worst_bayes:.1e} <= 1e-9; {runs_checked} k-means runs non-increasing",
    )
