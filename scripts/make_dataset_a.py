"""Build and verify the bundled 26-point two-group toy dataset.

The layout is verified by the toyfig bench suite (spectralweak.bench.toyfig),
run on the raw coordinates and on their z-scored view, after a check that no
two points nearly coincide. toyfig checks that

  1. no epsilon-neighbourhood graph has components equal to the planted
     two-group partition, for any epsilon;
  2. no symmetric or mutual kNN graph does either, for any k in 1..25;
  3. the probabilistic threshold graph (min symmetrization, m=-1, small sigma)
     has exactly the planted partition as its components for a window of
     thresholds w, and spectral grouping at w=0.073 recovers the plant;
  4. component counts are monotone in epsilon and k.

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

from spectralweak.bench import toyfig
from spectralweak.dataset import Dataset, pairwise_distances, standardize


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


def verified(ds: Dataset) -> bool:
    """Print the near-duplicate check and the toyfig report for one view of
    the layout; True when both pass."""
    dist = pairwise_distances(ds)
    gap = float(dist.d[np.triu_indices(dist.n, 1)].min())
    if gap <= 1e-9:
        print(f"[FAIL] no two points nearly coincide (min distance {gap:.3e})")
        return False
    report = toyfig(ds)
    for line in report.lines():
        print(line)
    window = [row["param"] for row in report.rows if row["family"] == "prob_threshold" and row["planted"]]
    print("w recovery window:", f"{min(window):g}-{max(window):g}" if window else "empty")
    return report.passed


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--write", action="store_true", help="freeze the fixture CSV")
    args = ap.parse_args(argv)

    coords, labels = build_points()
    names = ("dense", "sparse")
    ids = [f"p{i:02d}" for i in range(len(labels))]
    raw = Dataset(x=coords, ids=ids, bag=ids, label=[names[g] for g in labels], strong_label=names[0])
    print("== raw coordinates ==")
    ok = verified(raw)
    print("\n== standardized coordinates (pipeline view) ==")
    ok = verified(standardize(raw)) and ok
    if not ok:
        print("\nverification FAILED; fixture not written")
        return 1
    if args.write:
        out = Path(__file__).resolve().parent.parent / "src" / "spectralweak" / "data" / "dataset_a.csv"
        out.parent.mkdir(parents=True, exist_ok=True)
        with out.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["instance", "bag", "group", "x", "y"])
            for i, ((x, y), lab) in enumerate(zip(coords, labels)):
                writer.writerow([f"p{i:02d}", f"b{i:02d}", names[lab], repr(float(x)), repr(float(y))])
        print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
