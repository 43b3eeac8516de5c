"""Self-test of the benchmark's own checks.

usage: python3 perfbench/selftest.py

Checks, in order:
  * BENCHMARK.json names workloads run.py defines, and exactly its metrics;
  * span self times subtract children, recursive calls included;
  * a traced pass that records no call of one of the workload's own layers
    is reported as a problem;
  * the reference covers every op up to its cap and an even spread beyond;
  * one real op matches its reference, and each perturbed reference field
    (annotated label, bag prediction, chosen kNN k, grid winner, grouping
    assignment) turns it into a failed op, as does a non-zero exit status;
  * without the package source, run.py exits non-zero and prints no result.
Exits 0 when all pass, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import run
import tracing
from workloads import WORKLOADS

FAILURES: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        FAILURES.append(message)


def check_manifest() -> None:
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect({w["name"] for w in manifest["workloads"]} <= set(WORKLOADS), "BENCHMARK.json workloads exist")
    e2e = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    expect(e2e == run.END_TO_END_UNITS, "BENCHMARK.json end_to_end metrics match run.py")
    layers = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    expect(layers == run.per_layer_units(), "BENCHMARK.json per_layer metrics match run.py")


def check_self_time() -> None:
    now = [0.0]
    timer = tracing.SpanTimer(clock=lambda: now[0])

    def leaf():
        now[0] += 1.0

    def recurse(depth):
        now[0] += 2.0
        if depth:
            recurse_traced(depth - 1)
        leaf_traced()
        now[0] += 0.5

    leaf_traced = timer.wrap("simgraph.knn_graph", leaf)
    recurse_traced = timer.wrap("classify.leave_one_bag_out_cv", recurse)
    recurse_traced(13)
    expect(timer.calls["classify.leave_one_bag_out_cv"] == 14, "recursive calls counted")
    expect(timer.self_s["classify.leave_one_bag_out_cv"] == 14 * 2.5, "recursive self time excludes children")
    expect(timer.self_s["simgraph.knn_graph"] == 14.0, "leaf self time")
    expect(sum(timer.self_s.values()) == now[0], "self times account for the root span")


def check_call_gate() -> None:
    workload = WORKLOADS["grid-prob"]
    calls = {key: 2 for key in workload.calls}
    result = {
        "traced": [{"wall_s": 1.0}],
        "plain": [{"wall_s": 1.0}],
        "spans": {"self_s": {"cli.main": 1.0}, "calls": calls, "counts": {}, "bookkeeping_s": 0.0},
        "peak_bytes": {module: 0 for module in tracing.MODULES},
    }
    expect(not run.per_layer(workload, result)[1], "all of a workload's layers called: no problem")
    calls["spectral.kmeans"] = 0
    problems = run.per_layer(workload, result)[1]
    expect(len(problems) == 1 and "spectral.kmeans" in problems[0], "a layer with no recorded call is a problem")


def check_inputs_checked() -> None:
    expect(run.checked_inputs({3, 1, 2}, 5) == [1, 2, 3], "every used input checked below the cap")
    spread = run.checked_inputs(set(range(100)), 10)
    expect(spread == list(range(0, 100, 10)), "an even spread of used inputs checked above the cap")


def check_reference() -> None:
    root = run.WORK / "selftest"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    try:
        seed_cli = run.import_seed_cli()
        cases = {
            "weak-vs-baseline": [
                ("annotate", "labels", lambda v: {**v, next(iter(v)): "flipped"}),
                ("weak", "bag_predictions", lambda v: {**v, next(iter(v)): "flipped"}),
            ],
            "lobo-knn": [("knn", "chosen_knn_k", lambda v: -1)],
            "grid-prob": [
                ("threshold", "grid_winner", lambda v: v + 1),
                ("criterion", "assignments", lambda v: [(v[0] + 1) % 3, *v[1:]]),
            ],
        }
        for name, perturbations in cases.items():
            workload = WORKLOADS[name]
            here = root / name
            generated = run.prepare_slots(seed_cli, workload, 0, here / "inputs", 2)
            result = run.run_worker(workload, generated[:1], generated[1], here, 1e-3, False)
            ops = result["plain"]
            references = run.reference_decisions(seed_cli, workload, generated[:1], [0], here / "reference")
            expect(len(ops) == 1 and not run.check_ops(ops, references), f"{name}: op matches its reference")
            for sub, field, perturb in perturbations:
                perturbed = copy.deepcopy(references)
                perturbed[0][sub][field] = perturb(perturbed[0][sub][field])
                failures = run.check_ops(ops, perturbed)
                expect(len(failures) == 1 and f"{sub}/{field}" in failures[0], f"{name}: perturbed {sub}/{field} fails the op")
            failed = [{**ops[0], "status": 2}]
            expect(len(run.check_ops(failed, references)) == 1, f"{name}: exit status 2 fails the op")
    finally:
        shutil.rmtree(root, ignore_errors=True)


def check_bare_directory() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "annotate-knn", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        expect(proc.returncode != 0 and not proc.stdout.strip(), "without src/, run.py fails and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass


def main() -> int:
    check_manifest()
    check_self_time()
    check_call_gate()
    check_inputs_checked()
    check_reference()
    check_bare_directory()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
