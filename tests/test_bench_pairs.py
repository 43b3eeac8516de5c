import importlib.util
import os
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def result(op_p50_s, instances_per_s, correct=True, failed=0):
    metrics = {"op_p50_s": {"value": op_p50_s, "unit": "s"}, "instances_per_s": {"value": instances_per_s, "unit": "1/s"}}
    return {"correct": correct, "attempted": 20, "failed": failed, "metrics": metrics}


def test_summary_gives_quartiles_wins_and_the_runs_that_were_not_ok():
    parent = [(1.0, 10.0), (2.0, 10.0), (3.0, 10.0), (4.0, 10.0)]
    change = [(0.5, 11.0), (2.5, 9.0), (2.0, 10.0), (3.0, 12.0)]
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        runs.append({"workload": "w", "pair": pair, "side": "parent", "seed": pair, "result": result(*p)})
        runs.append({"workload": "w", "pair": pair, "side": "change", "seed": pair,
                     "result": result(*c, correct=pair != 1, failed=int(pair == 1))})
    runs[3]["result"]["failures"] = ["op/7: decisions differ from the reference in grouping.json assignments"]
    broken = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}, "error": "exit status 1: boom"}
    runs.append({"workload": "v", "pair": 0, "side": "parent", "seed": 0, "result": result(1.0, 1.0)})
    runs.append({"workload": "v", "pair": 0, "side": "change", "seed": 0, "result": broken})

    summary = bench_pairs.summarize(runs, {"op_p50_s": "lower", "instances_per_s": "higher"})

    assert list(summary) == ["w", "v"]
    w = summary["w"]
    assert w["pairs"] == 4
    latency = w["metrics"]["op_p50_s"]
    assert latency["parent"] == pytest.approx((1.75, 2.5, 3.25))
    assert latency["change"] == pytest.approx((1.625, 2.25, 2.625))
    assert latency["won"] == 3  # 0.5 < 1, 2.0 < 3, 3.0 < 4
    assert latency["parent_iqr"] == pytest.approx(1.5)
    throughput = w["metrics"]["instances_per_s"]
    assert throughput["won"] == 2  # 11 > 10 and 12 > 10; a tie is no win
    assert throughput["parent_iqr"] == 0.0
    assert [(run["pair"], run["side"]) for run in w["bad"]] == [(1, "change")]
    # a run with no metrics leaves its side empty, so the metric is left out
    assert summary["v"]["metrics"] == {}
    assert [run["side"] for run in summary["v"]["bad"]] == ["change"]
    text = bench_pairs.report(summary)
    assert "3/4" in text and "NOT OK pair 1 change seed 1" in text and "boom" in text
    lines = text.splitlines()
    at = next(i for i, line in enumerate(lines) if "NOT OK pair 1 change" in line)
    assert lines[at + 1] == "    FAILED op/7: decisions differ from the reference in grouping.json assignments"


def test_summary_sets_each_median_against_its_bound():
    # latency 10% slower, inside its 25% bound; throughput 30% lower, over it
    runs = []
    for pair in range(3):
        runs.append({"workload": "w", "pair": pair, "side": "parent", "seed": pair, "result": result(2.0, 10.0)})
        runs.append({"workload": "w", "pair": pair, "side": "change", "seed": pair, "result": result(2.2, 7.0)})

    summary = bench_pairs.summarize(runs, {"op_p50_s": "lower", "instances_per_s": "higher"},
                                    {"op_p50_s": 0.25, "instances_per_s": 0.25})

    latency, throughput = (summary["w"]["metrics"][name] for name in ("op_p50_s", "instances_per_s"))
    assert latency["relative"] == pytest.approx(0.10)
    assert (latency["bound"], latency["over_bound"]) == (0.25, False)
    assert throughput["relative"] == pytest.approx(-0.30)
    assert (throughput["bound"], throughput["over_bound"]) == (0.25, True)
    rows = {line.split()[0]: line for line in bench_pairs.report(summary).splitlines()[2:]}
    assert "+10.0%    25%" in rows["op_p50_s"] and "OVER BOUND" not in rows["op_p50_s"]
    assert rows["instances_per_s"].endswith("-30.0%    25%  OVER BOUND")


FAKE_RUN = """
import json, sys
print("FAILED out/3: decisions differ from the reference in winner", file=sys.stderr)
print("FAILED out/5: raised ValueError: boom", file=sys.stderr)
print("workload w")
print(json.dumps({"correct": False, "attempted": 9, "failed": 2, "metrics": {}}))
"""


def test_run_once_keeps_the_failed_lines(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(FAKE_RUN)
    got = bench_pairs.run_once(tmp_path, "w", 1, 1.0, dict(os.environ))
    assert (got["correct"], got["failed"]) == (False, 2)
    assert got["failures"] == ["out/3: decisions differ from the reference in winner", "out/5: raised ValueError: boom"]
