"""Time knn_graph and its eigensolve at pool sizes beyond the benchmark's,
one row per process.

Each (n, p, sigma) row builds one knn_symmetric graph (k = 10 by default)
over n seeded standard normal points in p dimensions, in a fresh Python
process, and prints the wall time of the knn_graph call alone, the wall
time of smallest_k_eigenvectors(graph, 2) on that graph with the solver it
took, and the process's max RSS over both. sigma is the default median
distance ("median") or the explicit value 1.0. Rows run one after another,
so a row never shares the machine with another row.

The package is imported from --src, by default this checkout's src/, so
two checkouts can be swept back to back on one machine. Nothing is
written anywhere: the processes run with PYTHONDONTWRITEBYTECODE set.

Run:  python3 scripts/knn_sweep.py [--src DIR] [--n 1000,4000] [--p 2,5] [--sigma median,1.0]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROW = """
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
import numpy as np
from spectralweak.simgraph import knn_graph
from spectralweak.spectral import smallest_k_eigenvectors
n, p, k, seed = (int(a) for a in sys.argv[2:6])
sigma = None if sys.argv[6] == "median" else float(sys.argv[6])
points = np.random.default_rng(seed).normal(size=(n, p))
start = time.perf_counter()
graph = knn_graph(points, k, sigma=sigma)
seconds = time.perf_counter() - start
start = time.perf_counter()
solver = smallest_k_eigenvectors(graph, 2).solver
embed_seconds = time.perf_counter() - start
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"seconds": seconds, "embed_seconds": embed_seconds, "solver": solver, "max_rss_mb": rss_mb,
                  "sigma": graph.params.sigma, "edges": graph.n_edges()}))
"""


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",")]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="directory holding the spectralweak package (default: this checkout's src)")
    parser.add_argument("--n", default="1000,4000,16000,50000", help="comma-separated point counts")
    parser.add_argument("--p", default="2,5,8,19", help="comma-separated dimensions")
    parser.add_argument("--sigma", default="median,1.0", help="comma-separated: median and/or explicit values")
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    print("n\tp\tsigma\tseconds\tembed_seconds\tsolver\tmax_rss_mb\tedges\tsigma_used", flush=True)
    for n in _ints(args.n):
        for p in _ints(args.p):
            for sigma in args.sigma.split(","):
                cmd = [sys.executable, "-c", ROW, args.src, str(n), str(p), str(args.k), str(args.seed), sigma]
                out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True).stdout
                row = json.loads(out.splitlines()[-1])
                print(f"{n}\t{p}\t{sigma}\t{row['seconds']:.3f}\t{row['embed_seconds']:.3f}\t{row['solver']}\t"
                      f"{row['max_rss_mb']:.0f}\t{row['edges']}\t{row['sigma']!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
