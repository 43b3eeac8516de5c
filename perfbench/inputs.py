"""Seeded planted-mixture bags, written as the CSV files the CLI reads.

The recipe follows the package's SynthBagsConfig: the strong class sits at
the origin, each disordered class centre sits `separation * sigma` along its
own axis, and a disordered bag draws each member from its own class with
probability `mix`, otherwise from the strong class. The package's own
generator is not called, so a change to the program cannot change the
benchmark's inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Regime:
    n_features: int
    bags_per_class: int
    strong_bag_size: tuple[int, int]
    disordered_bag_size: tuple[int, int]
    mix: float = 0.7
    separation: float = 4.0
    sigma: float = 1.0
    strong_label: str = "normal"
    disordered_labels: tuple[str, ...] = ("myopathic", "neurogenic")


def op_rng(seed: int, op_index: int) -> np.random.Generator:
    """Generator for one op's input, fixed by the workload seed and op index."""
    return np.random.default_rng(np.random.SeedSequence([seed, op_index]))


def write_bags_csv(regime: Regime, rng: np.random.Generator, path: Path) -> int:
    """Draw one planted dataset and write it as CSV; returns the instance count."""
    centres = np.zeros((1 + len(regime.disordered_labels), regime.n_features))
    for axis in range(len(regime.disordered_labels)):
        centres[1 + axis, axis] = regime.separation * regime.sigma
    lines = ["instance,bag,group," + ",".join(f"x{j}" for j in range(regime.n_features))]
    counter = 0
    for cls, label in enumerate((regime.strong_label, *regime.disordered_labels)):
        lo, hi = regime.strong_bag_size if cls == 0 else regime.disordered_bag_size
        for b in range(regime.bags_per_class):
            size = int(rng.integers(lo, hi + 1))
            if cls == 0:
                sources = np.zeros(size, dtype=int)
            else:
                sources = np.where(rng.random(size) < regime.mix, cls, 0)
            feats = rng.normal(centres[sources], regime.sigma)
            for row in feats:
                values = ",".join(repr(float(v)) for v in row)
                lines.append(f"i{counter:05d},{label}-{b:03d},{label},{values}")
                counter += 1
    path.write_text("\n".join(lines) + "\n")
    return counter
