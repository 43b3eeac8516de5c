"""Golden bytes of the `group` grid outputs.

The digests were taken from the grid search as it stood before it shared its
similarity matrices and reused the winner's grouping; any later change to
these four files, however small, is a change of behaviour.
"""

import hashlib

import numpy as np
import pytest

from spectralweak import cli

OUTPUTS = ("grid.json", "grid.csv", "grouping.json", "indices.json")
W_SCALES = (0.5, 1.0, 2.0)
SIGMA_SCALES = (0.25, 1.0)
GRIDS = {
    "prob_threshold": ["--model", "prob_threshold", "--symmetrize", "min", "--eps-weight", "1e-3"],
    "prob_criterion": ["--model", "prob_criterion", "--symmetrize", "max"],
}


def write_seeded_bags(path, seed=7):
    """Three planted classes, 61 instances: a trusted class at the origin and
    two disordered classes whose bags mix in trusted members."""
    rng = np.random.default_rng(seed)
    lines = ["instance,bag,group,x0,x1"]
    counter = 0
    for cls, label in enumerate(("normal", "myopathic", "neurogenic")):
        centre = np.zeros(2)
        if cls:
            centre[cls - 1] = 4.0
        for b in range(3):
            size = int(rng.integers(3, 5)) if cls == 0 else int(rng.integers(6, 9))
            for _ in range(size):
                source = centre if cls == 0 or rng.random() < 0.7 else np.zeros(2)
                x0, x1 = rng.normal(source, 1.0)
                lines.append(f"i{counter:03d},{label}-{b},{label},{float(x0)!r},{float(x1)!r}")
                counter += 1
    path.write_text("\n".join(lines) + "\n")
    return counter


def scaled(scales, n):
    return ",".join(repr(c / (n - 1)) for c in scales)


def group_digests(tmp_path, data_name, model):
    """Run one `group` grid and return the sha256 of each output file."""
    if data_name == "builtin:dataset_a":
        data, n, groups = data_name, 26, "2"
    else:
        data = tmp_path / "bags.csv"
        n, groups = write_seeded_bags(data), "3"
    out = tmp_path / "out"
    code = cli.main(
        ["group", "--data", str(data), "--out", str(out), "--groups", groups,
         "--w", scaled(W_SCALES, n), "--sigma", scaled(SIGMA_SCALES, n), *GRIDS[model]]
    )
    assert code == 0
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in OUTPUTS}


GOLDEN = {
    ("builtin:dataset_a", "prob_criterion"): {
        "grid.json": "f89d3eb16fefa74a4d71eee3716d7980a790b0872f1c2f6ad55998197b48f75a",
        "grid.csv": "9d9bceb574bb170e00b77a6f1d9602a9c317c9cf43cd01c600f4bad5ca113922",
        "grouping.json": "08454578f13e73f0cde476fddd3e2b7fb7a858554db2b9fd21b989bc284cec18",
        "indices.json": "847e22ceb3bf328d5a5ab3ebab698fab2460dacb2a6196d10998785cb35be832",
    },
    ("bags", "prob_criterion"): {
        "grid.json": "3f4c57c56c3190090429f755c347b0999141cd3eae56e3fc87a089dcd4ea1ee3",
        "grid.csv": "7bddb86e1828ca084c6d2895c82c7bedbe874fc6f933844d49b1d71dd7b72f21",
        "grouping.json": "3b56cefdbd6081d9e4413d321c2cfbff4d052e7926b179ebc0bd91d775b11c2c",
        "indices.json": "f71b6135063192a9409f74248143924d05de5ca1a351001d3ea0a6dd2c9735c8",
    },
    ("builtin:dataset_a", "prob_threshold"): {
        "grid.json": "c6cbead71a7e3e376c9dabc461924e1e3fd8f38dd145f21033aee26320047d4a",
        "grid.csv": "7f3410ec372f1a47bef6a053ceb78531ca404fd04bd3790805ff3c022c10313c",
        "grouping.json": "9b0fb02a82b3a2cc2faa2447c3dbeaa3fc3ff237e6ed7b7f1a83fa810b12c14e",
        "indices.json": "18a9acec974f8182b97d0dccb612e6b9fdd412138f558c1a2b58786fa9b8f4b1",
    },
    ("bags", "prob_threshold"): {
        "grid.json": "1926562ea01d6b06c6767b659a205240a0ded511dabc5ff8d0e950fcadd596f7",
        "grid.csv": "e6e1be7afffa83db2a8382fb99b6f80f67ad979b1506c876d3f2f1eb8a1e1783",
        "grouping.json": "a227ee5275d1f08d2081b30b23175164f9eaa73457b4660e5790ee709108b3aa",
        "indices.json": "cc4c0aa20fe522baf0b9382d0bcca6446a56b080688518bcf06403f725ea232c",
    },
}


@pytest.mark.parametrize("data_name", ["builtin:dataset_a", "bags"])
@pytest.mark.parametrize("model", sorted(GRIDS))
def test_group_grid_outputs_match_golden_bytes(tmp_path, capsys, data_name, model):
    assert group_digests(tmp_path, data_name, model) == GOLDEN[(data_name, model)]
