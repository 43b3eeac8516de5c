"""Run the benchmark's ops in a fresh interpreter; started by run.py.

usage: python3 worker.py PLAN.json RESULT.json

The plan names the package source directory, the op budget in seconds, the
warm-up command lines and one list of command lines per input, with @OUT@
standing for the op's output directory. The worker imports spectralweak.cli
from the source directory, runs the untimed warm-up op, then runs ops in a
closed loop until their summed wall time reaches the budget. Op i reads
input i, counted across all passes, and the inputs are reused from the
start only if the ops outnumber them. Each op calls cli.main in-process with stdout
captured. The result holds per-op wall and CPU time, exit status and error,
and the peak resident memory of this process, which reads nothing but the
generated files.

With "trace" set, a traced pass follows (self times and counts, see
tracing.py) and then one op under tracemalloc for per-module peak memory.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import tracemalloc
from pathlib import Path

OUT = "@OUT@"


def run_op(cli, commands: list[list[str]], out: Path) -> dict:
    status, error = 0, None
    sink = io.StringIO()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(sink):
            for argv in commands:
                status = cli.main([arg.replace(OUT, str(out)) for arg in argv])
                if status != 0:
                    break
    except (Exception, SystemExit) as exc:  # an op that raises is a failed op
        error = f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return {"out": str(out), "wall_s": wall, "cpu_s": cpu, "status": status, "error": error}


def closed_loop(cli, slots: list[list[list[str]]], first: int, out_root: Path, seconds: float, max_ops: int) -> list[dict]:
    ops: list[dict] = []
    spent = 0.0
    while len(ops) < max_ops and (not ops or spent < seconds):
        i = first + len(ops)
        op = run_op(cli, slots[i % len(slots)], out_root / f"op{i:05d}")
        op["slot"] = i % len(slots)
        ops.append(op)
        spent += op["wall_s"]
    return ops


def peak_rss_bytes() -> int:
    """High-water resident set of this process image (VmHWM, reset at exec)."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    sys.path.insert(0, plan["src"])
    import spectralweak.cli as cli

    out_root = Path(plan["out"])
    slots = plan["slots"]
    result: dict = {"warmup": run_op(cli, plan["warmup"], out_root / "warmup")}
    seconds = plan["seconds"]
    if plan["trace"]:
        seconds /= 2
    result["plain"] = closed_loop(cli, slots, 0, out_root / "plain", seconds, sys.maxsize)
    result["peak_rss_bytes"] = peak_rss_bytes()
    if plan["trace"]:
        import tracing

        timer = tracing.SpanTimer()
        replaced = tracing.install(timer.wrap)
        first = len(result["plain"])
        result["traced"] = closed_loop(cli, slots, first, out_root / "traced", seconds, sys.maxsize)
        tracing.restore(replaced)
        result["spans"] = {
            "self_s": dict(timer.self_s),
            "calls": dict(timer.calls),
            "counts": dict(timer.counts),
            "bookkeeping_s": timer.bookkeeping_s,
        }
        memory = tracing.PeakMemory()
        replaced = tracing.install(memory.wrap)
        tracemalloc.start()
        try:
            result["memory"] = closed_loop(cli, slots, first + len(result["traced"]), out_root / "memory", 0.0, 1)
        finally:
            tracemalloc.stop()
            tracing.restore(replaced)
        result["peak_bytes"] = memory.peak_bytes
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:]))
