"""Run alternated parent/change pairs of the benchmark and summarize them.

Each pair runs `perfbench/run.py --trace 0` once in the parent tree and once
in the change tree for every workload named, both with the pair's seed
(--seed plus the pair index). The side that runs first swaps from one pair
to the next, so neither tree always runs on a warmer or cooler machine.

Per workload and end-to-end metric of BENCHMARK.json, the summary gives
each side's median with its quartiles (Q1-Q3), the pairs the change won
(strictly better in the metric's direction), the parent's quartile
distance Q3 - Q1, and the change's median against the parent's as a signed
percentage beside the metric's `bound`. A metric whose median is worse than
the parent's by more than its bound is marked `OVER BOUND`. Then it lists
every run that was not `correct` or had failed ops, each with the `FAILED`
lines run.py printed for it (which op raised, exited non-zero or decided
differently from the reference).

Nothing is written into either tree but perfbench's own work directory,
which run.py removes: bytecode goes to a temporary PYTHONPYCACHEPREFIX.

Run:  python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE [--workload NAME ...] [--pairs 10]
          [--seconds 20] [--seed 1]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def run_once(tree: Path, workload: str, seed: int, seconds: float, env: dict) -> dict:
    """The JSON summary line of one benchmark run, or a failed stand-in,
    with run.py's FAILED lines, the prefix dropped, as "failures"."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    failures = [line.removeprefix("FAILED ") for line in done.stderr.splitlines() if line.startswith("FAILED ")]
    if done.returncode != 0 or not lines:
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}, "failures": failures,
                "error": f"exit status {done.returncode}: {done.stderr.strip()[-300:]}"}
    return {**json.loads(lines[-1]), "failures": failures}


def summarize(runs: list[dict], better: dict[str, str], bounds: dict[str, float] | None = None) -> dict:
    """Per workload: the pair count, per metric of `better` (name -> "lower"
    or "higher") each side's (Q1, median, Q3), the pairs the change won, the
    parent's Q3 - Q1, the change's median relative to the parent's, and
    whether it is worse by more than the metric's entry in `bounds` (a
    fraction; a metric with none is never over); and the runs that were not
    correct or had failed ops. A run is {"workload", "pair", "side", "seed",
    "result"}, with the result as run.py's JSON summary line."""
    out = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        by_pair = {}
        for run in mine:
            by_pair.setdefault(run["pair"], {})[run["side"]] = run["result"]["metrics"]
        metrics = {}
        for name, direction in better.items():
            values = {side: [m[side][name]["value"] for m in by_pair.values() if name in m.get(side, {})]
                      for side in SIDES}
            if not all(values.values()):
                continue
            quartiles = {side: tuple(np.percentile(values[side], [25, 50, 75]).tolist()) for side in SIDES}
            sign = 1.0 if direction == "lower" else -1.0
            won = sum(
                sign * (m["change"][name]["value"] - m["parent"][name]["value"]) < 0.0
                for m in by_pair.values() if name in m.get("parent", {}) and name in m.get("change", {})
            )
            relative = (quartiles["change"][1] - quartiles["parent"][1]) / quartiles["parent"][1]
            bound = (bounds or {}).get(name)
            metrics[name] = {**quartiles, "won": won, "parent_iqr": quartiles["parent"][2] - quartiles["parent"][0],
                             "relative": relative, "bound": bound, "over_bound": bound is not None and sign * relative > bound}
        bad = [run for run in mine if not run["result"]["correct"] or run["result"]["failed"]]
        out[workload] = {"pairs": len(by_pair), "metrics": metrics, "bad": bad}
    return out


def report(summary: dict) -> str:
    lines = []
    for workload, entry in summary.items():
        lines.append(f"workload {workload} ({entry['pairs']} pairs)")
        lines.append(f"  {'metric':18s} {'parent median [Q1-Q3]':>34s} {'change median [Q1-Q3]':>34s} "
                     f"{'won':>7s} {'parent Q3-Q1':>13s} {'change':>8s} {'bound':>6s}")
        for name, row in entry["metrics"].items():
            sides = [f"{q[1]:.4g} [{q[0]:.4g}-{q[2]:.4g}]" for q in (row["parent"], row["change"])]
            bound = "-" if row["bound"] is None else f"{100 * row['bound']:.0f}%"
            lines.append(f"  {name:18s} {sides[0]:>34s} {sides[1]:>34s} "
                         f"{row['won']:>3d}/{entry['pairs']:<3d} {row['parent_iqr']:>13.4g} "
                         f"{100 * row['relative']:>+7.1f}% {bound:>6s}" + ("  OVER BOUND" if row["over_bound"] else ""))
        for run in entry["bad"]:
            result = run["result"]
            lines.append(f"  NOT OK pair {run['pair']} {run['side']} seed {run['seed']}: correct={result['correct']}, "
                         f"{result['failed']} of {result['attempted']} ops failed {result.get('error', '')}".rstrip())
            lines.extend(f"    FAILED {failure}" for failure in result.get("failures", []))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the parent commit's tree")
    parser.add_argument("change", type=Path, help="the change's tree")
    parser.add_argument("--workload", action="append", help="workload to run (repeatable; default weak-vs-baseline)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=1, help="seed of pair 0; pair i runs seed + i")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    runs = []
    with tempfile.TemporaryDirectory() as cache:
        env = {**os.environ, "PYTHONPYCACHEPREFIX": cache}
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for workload in args.workload or ["weak-vs-baseline"]:
                for side in order:
                    seed = args.seed + pair
                    result = run_once(trees[side], workload, seed, args.seconds, env)
                    runs.append({"workload": workload, "pair": pair, "side": side, "seed": seed, "result": result})
                    print(f"pair {pair} {side} {workload}: correct={result['correct']}", file=sys.stderr, flush=True)
    print(report(summarize(runs, better, bounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
