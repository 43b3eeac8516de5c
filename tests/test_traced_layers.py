"""Every layer a benchmark workload must reach is still reached.

perfbench/ wraps the package's public functions at their module attributes
and marks a traced run incorrect when one of the workload's `calls` records
no call: a renamed or inlined function, or one reached through a reference
the wrappers do not replace, would otherwise hand its time silently to its
caller. This runs every workload perfbench defines once (those listed in
BENCHMARK.json and the unlisted lobo-knn, the one that reaches the kNN
predict), on one generated input, under those same wrappers, so such a change
fails here and not only in a traced benchmark run. Nothing under perfbench/ is
changed.
"""

import sys
from pathlib import Path

import pytest

from spectralweak import cli

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_reaches_every_traced_layer(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    data = tmp_path / "input.csv"
    n = inputs.write_bags_csv(workload.regime, inputs.op_rng(0, 0), data)
    prepared, out = tmp_path / "prepared", tmp_path / "out"
    for argv in workload.setup(data, prepared):
        assert cli.main(argv) == 0
    timer = tracing.SpanTimer()
    replaced = tracing.install(timer.wrap)
    try:
        for argv in workload.commands(data, prepared, n, out):
            assert cli.main(argv) == 0
    finally:
        tracing.restore(replaced)
    missing = [key for key in workload.calls if timer.calls.get(key, 0) == 0]
    assert not missing, f"{name}: no call recorded for {missing}"
