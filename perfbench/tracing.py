"""Per-module self time, counts and peak memory, measured from outside the package.

Every public function of the seven package modules is wrapped, and the
wrapper is stored at each module attribute that refers to the function, so
calls are caught wherever callers look them up (for example
`spectralweak.weakanno.build_graph` as well as
`spectralweak.simgraph.build_graph`). Only the traced pass installs them; the
package the timed pass runs is never touched.

A span's self time is its duration minus the time of its child spans,
recursive calls included. The wrapper's own bookkeeping after a call is
charged to neither, and is reported separately so that module self times plus
bookkeeping account for the whole traced op.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

MODULES = ("dataset", "simgraph", "spectral", "weakanno", "classify", "evaluation", "cli")

FUNCTIONS = (
    "dataset.load_csv",
    "dataset.standardize",
    "dataset.pairwise_distances",
    "simgraph.knn_graph",
    "simgraph.initial_similarities",
    "simgraph.prob_threshold_graph",
    "simgraph.prob_criterion_graph",
    "spectral.normalized_laplacian",
    "spectral.smallest_k_eigenvectors",
    "spectral.kmeans",
    "weakanno.build_training_set",
    "evaluation.grid_search",
    "classify.train_logistic",
    "classify.predict",
    "classify.leave_one_bag_out_cv",
)


def _upper_edges(w) -> int:
    if hasattr(w, "nnz"):
        import scipy.sparse

        return int(scipy.sparse.triu(w, 1).nnz)
    return int(np.count_nonzero(np.triu(w, 1)))


def _count_graph(graph, counts):
    n = graph.w.shape[0]
    counts["simgraph.edges"] += _upper_edges(graph.w)
    counts["simgraph.pairs"] += n * (n - 1) // 2


def _count_laplacian(lap, counts):
    if isinstance(lap.matrix, np.ndarray):
        counts["spectral.dense_matrix_bytes"] += 8 * lap.matrix.shape[0] ** 2
    counts["spectral.clamped_vertices"] += len(lap.clamped)


def _count_embedding(emb, counts):
    counts["spectral.eigensolve_order"] += emb.vectors.shape[0]


def _count_grid(result, counts):
    counts["evaluation.candidates"] += len(result.rows)
    counts["evaluation.candidate_errors"] += sum(row.error is not None for row in result.rows)


def _count_logistic(model, counts):
    counts["classify.newton_iters"] += model.n_iter
    counts["classify.nonconverged_fits"] += not model.converged


def _count_predict(labels, counts):
    counts["classify.predict_rows"] += len(labels)


# Counts are read from return values where the work is done. Graphs are
# counted at build_graph, the dispatcher every caller goes through.
COUNTERS = {
    "simgraph.build_graph": _count_graph,
    "spectral.normalized_laplacian": _count_laplacian,
    "spectral.smallest_k_eigenvectors": _count_embedding,
    "evaluation.grid_search": _count_grid,
    "classify.train_logistic": _count_logistic,
    "classify.predict": _count_predict,
}


def public_functions() -> dict[str, object]:
    """'module.function' -> function, for functions defined in MODULES."""
    found = {}
    for name in MODULES:
        module = importlib.import_module(f"spectralweak.{name}")
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                found[f"{name}.{attr}"] = obj
    return found


def install(make_wrapper) -> list[tuple[object, str, object]]:
    """Replace every package module attribute that refers to a public
    function with make_wrapper(key, function).

    Returns what was replaced, for restore().
    """
    wrappers = {id(fn): make_wrapper(key, fn) for key, fn in public_functions().items()}
    replaced = []
    for modname, module in list(sys.modules.items()):
        if modname != "spectralweak" and not modname.startswith("spectralweak."):
            continue
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrappers:
                replaced.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])
    return replaced


def restore(replaced: list[tuple[object, str, object]]) -> None:
    for module, attr, original in replaced:
        setattr(module, attr, original)


class SpanTimer:
    """Self time, call counts and return-value counts per wrapped function."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.bookkeeping_s = 0.0
        self._child_s: list[float] = []

    def wrap(self, key: str, fn):
        clock = self.clock
        stack = self._child_s
        counter = COUNTERS.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = clock()
                self.self_s[key] += end - start - stack.pop()
                self.calls[key] += 1
                if counter is not None and returned:
                    counter(result, self.counts)
                done = clock()
                self.bookkeeping_s += done - end
                if stack:
                    stack[-1] += done - start

        return traced


class PeakMemory:
    """Peak traced bytes above the entry level of any call into each module.

    Needs tracemalloc running. Each call resets the interpreter's peak on
    entry, after folding the peak reached so far into its caller's record.
    """

    def __init__(self):
        self.peak_bytes: dict[str, int] = {name: 0 for name in MODULES}
        self._frames: list[list[int]] = []

    def wrap(self, key: str, fn):
        module = key.split(".")[0]
        frames = self._frames

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            if frames:
                frames[-1][1] = max(frames[-1][1], peak)
            tracemalloc.reset_peak()
            frames.append([current, current])
            try:
                return fn(*args, **kwargs)
            finally:
                base, high = frames.pop()
                high = max(high, tracemalloc.get_traced_memory()[1])
                self.peak_bytes[module] = max(self.peak_bytes[module], high - base)
                if frames:
                    frames[-1][1] = max(frames[-1][1], high)

        return traced
