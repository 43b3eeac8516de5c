"""spectralweak benchmark: seeded closed-loop CLI workloads.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's src/ directory. One client calls spectralweak.cli.main in a
worker process, one op after another (a closed loop with one client), for S
seconds of summed op wall time after an untimed warm-up op. Inputs come from
the benchmark's own generator, seeded by --seed and the input index; each op
reads an input of its own, from a pool three times larger than the op count
the seed commit reaches. An op fails if it raises or exits non-zero, or if
its decision outputs differ from those of a frozen copy of the package as it
was when the benchmark was defined (seedref/), run on the same input. The
reference runs on an evenly spread subset of the ops, as many as half the
ops the seed commit reaches, so its cost stays bounded however fast the
program gets.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced pass (see tracing.py). The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Exit status 0 when a result
was printed, 2 on a usage error or when the package source is missing, 1
when the benchmark itself could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracing
from inputs import op_rng, write_bags_csv
from workloads import WORKLOADS, Workload, decisions, mismatches

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SEED_SRC = HERE / "seedref"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
POOL_HEADROOM = 3.0
CHECK_HEADROOM = 0.5

END_TO_END_UNITS = {
    "op_p50_s": "s",
    "op_tail_s": "s",
    "instances_per_s": "1/s",
    "cpu_s_per_op": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

COUNT_UNITS = {
    "simgraph.edges": "count",
    "simgraph.edge_density": "ratio",
    "spectral.eigensolve_order": "count",
    "spectral.dense_matrix_bytes": "B_computed",
    "spectral.clamped_vertices": "count",
    "evaluation.candidates": "count",
    "evaluation.candidate_errors": "count",
    "classify.newton_iters": "count",
    "classify.nonconverged_fits": "count",
    "classify.predict_rows": "count",
}


def per_layer_units() -> dict[str, str]:
    units = {f"{module}.self_s": "s" for module in tracing.MODULES}
    for key in tracing.FUNCTIONS:
        units[f"{key}.self_s"] = "s"
        units[f"{key}.calls"] = "count"
    units.update(COUNT_UNITS)
    units.update({f"{module}.peak_bytes": "B" for module in tracing.MODULES})
    units["trace_overhead"] = "ratio"
    units["trace.accounted_share"] = "ratio"
    return units


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed op)."""


def import_seed_cli():
    """The frozen reference copy of the package, never the one under test."""
    sys.path.insert(0, str(SEED_SRC))
    import spectralweak.cli as seed_cli

    if Path(seed_cli.__file__).resolve().parent.parent != SEED_SRC:
        raise BenchmarkError(f"reference package resolved to {seed_cli.__file__}")
    return seed_cli


def run_seed_commands(seed_cli, commands: list[list[str]]) -> None:
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            status = seed_cli.main(argv)
        if status != 0:
            raise BenchmarkError(f"reference package failed (status {status}) on {argv}")


def seed_ops(workload: Workload, seconds: float, headroom: float) -> int:
    """`headroom` times the op count the seed commit reaches in `seconds`."""
    return max(2, math.ceil(headroom * seconds / workload.seed_op_s))


def prepare_slots(seed_cli, workload: Workload, seed: int, root: Path, count: int) -> list[dict]:
    """Write `count` inputs; input i is drawn from (seed, i)."""
    slots = []
    for i in range(count):
        prepared = root / f"slot{i:03d}"
        prepared.mkdir(parents=True)
        data = prepared / "bags.csv"
        n = write_bags_csv(workload.regime, op_rng(seed, i), data)
        run_seed_commands(seed_cli, workload.setup(data, prepared))
        slots.append({"data": data, "prepared": prepared, "n": n})
    return slots


def slot_commands(workload: Workload, slot: dict, out: Path) -> list[list[str]]:
    return workload.commands(slot["data"], slot["prepared"], slot["n"], out)


def run_worker(workload: Workload, slots: list[dict], warmup: dict, root: Path, seconds: float, trace: bool) -> dict:
    out = Path("@OUT@")
    plan = {
        "src": str(SRC),
        "out": str(root / "ops"),
        "seconds": seconds,
        "trace": trace,
        "warmup": slot_commands(workload, warmup, out),
        "slots": [slot_commands(workload, slot, out) for slot in slots],
    }
    plan_path, result_path = root / "plan.json", root / "result.json"
    plan_path.write_text(json.dumps(plan))
    try:
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)],
            stdout=sys.stderr,
            check=True,
            timeout=2 * seconds + 60,
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        raise BenchmarkError(f"worker did not finish: {exc}")
    return json.loads(result_path.read_text())


def measure_setup(repeats: int) -> float:
    """Median wall time for a fresh interpreter to import spectralweak.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import spectralweak.cli"], env=env, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def check_ops(ops: list[dict], references: dict[int, dict]) -> list[str]:
    """One line per failed op: raised, exited non-zero, or decided differently
    from the reference for its input. Ops whose input has no reference are
    checked for the first two only."""
    failures = []
    for op in ops:
        if op["error"] is not None:
            failures.append(f"{op['out']}: raised {op['error']}")
        elif op["status"] != 0:
            failures.append(f"{op['out']}: exit status {op['status']}")
        elif op["slot"] in references:
            bad = mismatches(decisions(Path(op["out"])), references[op["slot"]])
            if bad:
                failures.append(f"{op['out']}: decisions differ from the reference in {', '.join(bad)}")
    return failures


def checked_inputs(used: set[int], cap: int) -> list[int]:
    """All used inputs, or `cap` of them spread evenly over the used ones."""
    ordered = sorted(used)
    if len(ordered) <= cap:
        return ordered
    return [ordered[j * len(ordered) // cap] for j in range(cap)]


def reference_decisions(seed_cli, workload: Workload, slots: list[dict], inputs: list[int], root: Path) -> dict[int, dict]:
    references = {}
    for i in inputs:
        out = root / f"slot{i:03d}"
        out.mkdir(parents=True)
        run_seed_commands(seed_cli, slot_commands(workload, slots[i], out))
        references[i] = decisions(out)
    return references


def tail(walls: list[float]) -> tuple[float, str]:
    """Wall time at the highest percentile with at least ten ops beyond it.

    Below 21 ops that percentile would not lie above the median, so the op
    just above the median is reported instead, and the note says so; it then
    carries no tail information.
    """
    ordered = sorted(walls)
    count = len(ordered)
    index = max(count - 11, count // 2)
    beyond = count - 1 - index
    note = f"p{100 * (index + 1) / count:.0f} of {count} ops, {beyond} ops beyond it"
    if beyond < 10:
        note += "; fewer than 21 ops, so no percentile above the median has 10 beyond it"
    return ordered[index], note


def end_to_end(ops: list[dict], slots: list[dict], peak_rss_bytes: int, setup_s: float) -> tuple[dict, dict]:
    walls = [op["wall_s"] for op in ops]
    instances = sum(slots[op["slot"]]["n"] for op in ops)
    tail_s, tail_note = tail(walls)
    values = {
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail_s,
        "instances_per_s": instances / sum(walls),
        "cpu_s_per_op": statistics.median(op["cpu_s"] for op in ops),
        "peak_rss_mb": peak_rss_bytes / 2**20,
        "setup_s": setup_s,
    }
    notes = {
        "op_p50_s": f"median of {len(ops)} ops",
        "op_tail_s": tail_note,
        "instances_per_s": f"{instances} instances over {sum(walls):.3f} s of op time",
        "cpu_s_per_op": "median over ops, user+sys of all threads",
        "peak_rss_mb": "VmHWM of the worker process",
        "setup_s": f"median of {SETUP_REPEATS} fresh interpreters importing spectralweak.cli",
    }
    return values, notes


def per_layer(workload: Workload, result: dict) -> tuple[dict, list[str]]:
    """Per-op layer metrics of the traced pass, and tracing problems."""
    traced, spans = result["traced"], result["spans"]
    count = len(traced)
    module_self = {module: 0.0 for module in tracing.MODULES}
    for key, value in spans["self_s"].items():
        module_self[key.split(".")[0]] += value
    counts = spans["counts"]
    values = {f"{module}.self_s": module_self[module] / count for module in tracing.MODULES}
    for key in tracing.FUNCTIONS:
        values[f"{key}.self_s"] = spans["self_s"].get(key, 0.0) / count
        values[f"{key}.calls"] = spans["calls"].get(key, 0) / count
    for name in COUNT_UNITS:
        values[name] = counts.get(name, 0) / count
    pairs = counts.get("simgraph.pairs", 0)
    values["simgraph.edge_density"] = counts.get("simgraph.edges", 0) / pairs if pairs else 0.0
    for module in tracing.MODULES:
        values[f"{module}.peak_bytes"] = result["peak_bytes"][module]
    traced_wall = sum(op["wall_s"] for op in traced)
    values["trace_overhead"] = statistics.median(op["wall_s"] for op in traced) / statistics.median(
        op["wall_s"] for op in result["plain"]
    )
    values["trace.accounted_share"] = (sum(module_self.values()) + spans["bookkeeping_s"]) / traced_wall
    # A call that escapes the wrappers (a function moved, renamed or reached
    # through a captured reference) records nothing and moves its time to
    # its caller; the workload's own layers must all be seen.
    problems = [
        f"traced pass recorded no call of {key}, which every {workload.name} op reaches"
        for key in workload.calls
        if spans["calls"].get(key, 0) == 0
    ]
    return values, problems


def environment(workload: Workload, seed: int, slots: list[dict], result: dict) -> dict:
    try:
        blas_info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_info['name']} {blas_info['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_thread_env": {var: os.environ.get(var, "unset") for var in thread_vars},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "workload": workload.name,
        "seed": seed,
        "ops": {name: len(result[name]) for name in ("plain", "traced", "memory") if name in result},
        "input_pool": len(slots),
        "instances_per_input": {"min": min(slot["n"] for slot in slots), "max": max(slot["n"] for slot in slots)},
        "features": workload.regime.n_features,
    }


def run(workload: Workload, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    seed_cli = import_seed_cli()
    pool = seed_ops(workload, seconds, POOL_HEADROOM)
    # the last input is the warm-up's, which no timed op reads
    generated = prepare_slots(seed_cli, workload, seed, root / "inputs", pool + 1)
    slots, warmup = generated[:-1], generated[-1]
    result = run_worker(workload, slots, warmup, root, seconds, trace)
    passes = [name for name in ("plain", "traced", "memory") if name in result]
    ops = [op for name in passes for op in result[name]]
    used = {op["slot"] for op in ops}
    checked = checked_inputs(used, seed_ops(workload, seconds, CHECK_HEADROOM))
    references = reference_decisions(seed_cli, workload, slots, checked, root / "reference")
    failures = check_ops(ops, references)
    warm = result["warmup"]
    if warm["error"] is not None or warm["status"] != 0:
        failures.append(f"warm-up op: status {warm['status']}, {warm['error']}")
    problems: list[str] = []
    if trace:
        values, problems = per_layer(workload, result)
        units = per_layer_units()
        notes = {}
    else:
        values, notes = end_to_end(result["plain"], slots, result["peak_rss_bytes"], measure_setup(SETUP_REPEATS))
        units = END_TO_END_UNITS
    attempted = len(ops) + 1
    env = environment(workload, seed, slots, result)
    env["distinct_inputs_used"] = len(used)
    env["ops_checked_against_reference"] = sum(op["slot"] in references for op in ops)
    return {
        "environment": env,
        "failures": failures,
        "problems": problems,
        "notes": notes,
        "summary": {
            "correct": not failures and not problems,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        },
    }


def report(workload: Workload, outcome: dict) -> None:
    summary = outcome["summary"]
    print("environment: " + json.dumps(outcome["environment"], sort_keys=True))
    for line in outcome["failures"] + outcome["problems"]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"workload {workload.name}")
    for name, metric in summary["metrics"].items():
        note = outcome["notes"].get(name)
        print(f"  {name:44s} {metric['value']:>16.6g} {metric['unit']}" + (f"  ({note})" if note else ""))
    print(
        f"  {'error_rate':44s} {summary['failed'] / summary['attempted']:>16.6g} ratio"
        f"  ({summary['failed']} of {summary['attempted']} ops failed, warm-up included)"
    )
    print(json.dumps(summary))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "spectralweak" / "cli.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    root = WORK / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    root.mkdir(parents=True)
    try:
        outcome = run(workload, args.seed, args.seconds, bool(args.trace), root)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(root, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    report(workload, outcome)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
