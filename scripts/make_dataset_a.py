"""Build and verify the bundled 26-point two-group toy dataset.

The fixture has to satisfy the properties the test suite and the toyfig bench
assert, on the raw coordinates and after z-scoring:

  1. no epsilon-neighbourhood graph has components equal to the planted
     two-group partition, for any epsilon;
  2. no symmetric or mutual kNN graph does either, for any k in 1..25;
  3. the probabilistic threshold graph (min symmetrization, m=-1, small sigma)
     has exactly the planted partition as its components for a whole window
     of thresholds w, ideally containing 0.073;
  4. component counts are monotone in epsilon and k (holds by construction,
     verified anyway);
  5. no duplicate points.

The trick is multi-density structure: one group is a pair of tight clumps,
the other strings sparse chains into a denser blob, and the nearest cross-group
pair sits closer than the sparse within-group links. Distance-based rules then
bridge the groups before they internally connect, while row-normalized
inverse-distance similarities still separate them.

Run:  python3 scripts/make_dataset_a.py [--write]
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spectralweak.bench import (
    TOY_EPS_WEIGHT as EPS_WEIGHT,
    TOY_K_MAX as K_MAX,
    TOY_REFERENCE_W as REFERENCE_W,
    TOY_SIGMA_W as SIGMA_W,
    TOY_SYMMETRIZE as SYMMETRIZE,
    TOY_W_GRID as W_GRID,
)
from spectralweak.dataset import pairwise_distances
from spectralweak.simgraph import (
    connected_components,
    epsilon_graph,
    initial_similarities,
    knn_graph,
    prob_threshold_graph,
)


def ring(cx, cy, count, radius, phase):
    """Irregular ring of points around a centre (radii wobble avoids exact ties)."""
    out = []
    for i in range(count):
        a = phase + 2.0 * math.pi * i / count
        r = radius * (1.0 + 0.07 * math.sin(3.1 * a + phase))
        out.append((cx + r * math.cos(a), cy + r * math.sin(a)))
    return out


def build_points() -> tuple[np.ndarray, np.ndarray]:
    """Return (coords 26x2, labels) with labels 0 = clump-pair group, 1 = chain group."""
    pts: list[tuple[float, float]] = []
    labels: list[int] = []

    # Group 0: two loose clumps of 5 whose mutual gap slightly trails the
    # clump-to-chain gap, so neighbour ranks bring in the chain no later than
    # the sister clump.
    c1 = ring(0.0, 0.0, 5, 0.21, 0.25)
    c2 = ring(0.87, 0.08, 5, 0.21, 0.95)
    for p in c1 + c2:
        pts.append(p)
        labels.append(0)

    # Group 1: a 5-point chain walking away from the clumps (its links are
    # longer than the clump-to-chain gap, which is what defeats the
    # distance-threshold rules), a 3-point bridge, and an 8-point blob.
    chain = [(1.68, 0.24), (2.28, 0.52), (2.83, 0.88), (3.28, 1.32), (3.55, 1.88)]
    bridge = [(3.52, 2.42), (3.30, 2.88), (2.93, 3.25)]
    blob = [(2.32, 3.12)] + ring(2.32, 3.12, 7, 0.33, 0.55)
    for p in chain + bridge + blob:
        pts.append(p)
        labels.append(1)

    return np.asarray(pts, dtype=float), np.asarray(labels)


def standardized(coords: np.ndarray) -> np.ndarray:
    mean = coords.mean(axis=0)
    sd = coords.std(axis=0, ddof=1)
    return (coords - mean) / sd


def partition_of(labels_vec: np.ndarray) -> frozenset:
    groups = {}
    for i, g in enumerate(labels_vec):
        groups.setdefault(int(g), set()).add(i)
    return frozenset(frozenset(s) for s in groups.values())


def verify(coords: np.ndarray, labels: np.ndarray, verbose: bool = True) -> dict:
    planted = partition_of(labels)
    dist = pairwise_distances(coords)
    d = dist.d
    n = d.shape[0]

    report: dict = {"ok": True, "problems": []}

    def fail(msg):
        report["ok"] = False
        report["problems"].append(msg)

    uniq = np.unique(d[np.triu_indices(n, 1)])
    if uniq[0] <= 1e-9:
        fail(f"nearly duplicate points (min distance {uniq[0]:.3e})")

    # Epsilon sweep over all topology-changing thresholds.
    eps_values = np.concatenate([[uniq[0] / 2], (uniq[:-1] + uniq[1:]) / 2, [uniq[-1] * 1.1]])
    eps_counts = []
    prev = None
    for eps in eps_values:
        g = epsilon_graph(dist, float(eps))
        cnt, lab = connected_components(g)
        eps_counts.append(cnt)
        if prev is not None and cnt > prev:
            fail(f"epsilon monotonicity broken at eps={eps}")
        prev = cnt
        if partition_of(lab) == planted:
            fail(f"epsilon graph recovers planted partition at eps={eps:.4f}")
    report["eps_counts"] = sorted(set(eps_counts), reverse=True)

    # kNN sweeps, both modes.
    for mode in ("symmetric", "mutual"):
        counts = []
        prev = None
        for k in range(1, K_MAX + 1):
            g = knn_graph(coords, k, mode=mode, sigma=1.0)
            cnt, lab = connected_components(g)
            counts.append(cnt)
            if prev is not None and cnt > prev:
                fail(f"{mode} kNN monotonicity broken at k={k}")
            prev = cnt
            if partition_of(lab) == planted:
                fail(f"{mode} kNN recovers planted partition at k={k}")
        report[f"knn_{mode}_counts"] = counts

    # Probabilistic threshold window (min symmetrization).
    sims = initial_similarities(dist, m=-1.0)
    window = []
    for w in W_GRID:
        g = prob_threshold_graph(sims, w_thresh=w, sigma=SIGMA_W, eps_weight=EPS_WEIGHT,
                                 symmetrize_rule=SYMMETRIZE)
        cnt, lab = connected_components(g)
        if partition_of(lab) == planted:
            window.append(w)
    report["w_window"] = window
    if not window:
        fail("no w in the grid recovers the planted partition")
    if REFERENCE_W not in window:
        fail(f"w={REFERENCE_W} does not recover the planted partition")

    # The full grouping pipeline must also recover the plant at the reference w.
    from spectralweak.evaluation import f1_score
    from spectralweak.spectral import spectral_grouping

    g = prob_threshold_graph(sims, REFERENCE_W, SIGMA_W, EPS_WEIGHT, SYMMETRIZE)
    grouping = spectral_grouping(g, k=2, seed=0)
    if f1_score(grouping, labels).value != 1.0:
        fail(f"spectral grouping at w={REFERENCE_W} does not match the plant")

    # Diagnostics: critical similarity values and gap geometry.
    cross = [(i, j) for i in range(n) for j in range(n) if labels[i] != labels[j]]
    max_cross = max(min(sims.s[i, j], sims.s[j, i]) for i, j in cross)
    report["max_cross_minsym_s"] = float(max_cross)
    blue = np.flatnonzero(labels == 0)
    c1, c2 = blue[:5], blue[5:]
    min_bb = min(d[i, j] for i in c1 for j in c2)
    min_cross_d = min(d[i, j] for i, j in cross)
    report["min_clump_gap"] = float(min_bb)
    report["min_cross_gap"] = float(min_cross_d)
    if verbose:
        print("epsilon component counts seen:", report["eps_counts"])
        print("sym kNN counts k=1..25:   ", report["knn_symmetric_counts"])
        print("mutual kNN counts k=1..25:", report["knn_mutual_counts"])
        print(f"clump-pair gap {min_bb:.3f}  cross gap {min_cross_d:.3f}")
        print(f"max cross-pair min-sym similarity: {max_cross:.4f}")
        print("w recovery window:", [float(w) for w in window])
        for p in report["problems"]:
            print("PROBLEM:", p)
    return report


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--write", action="store_true", help="freeze the fixture CSV")
    args = ap.parse_args()

    coords, labels = build_points()
    print("== raw coordinates ==")
    raw_report = verify(coords, labels)
    print("\n== standardized coordinates (pipeline view) ==")
    std_report = verify(standardized(coords), labels)

    if not (raw_report["ok"] and std_report["ok"]):
        print("\nverification FAILED; fixture not written")
        return 1
    if args.write:
        out = Path(__file__).resolve().parent.parent / "src" / "spectralweak" / "data" / "dataset_a.csv"
        out.parent.mkdir(parents=True, exist_ok=True)
        names = ("dense", "sparse")
        with out.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["instance", "bag", "group", "x", "y"])
            for i, ((x, y), lab) in enumerate(zip(coords, labels)):
                writer.writerow([f"p{i:02d}", f"b{i:02d}", names[lab], repr(float(x)), repr(float(y))])
        print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
