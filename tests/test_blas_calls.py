"""numpy's BLAS stays out of the grouping loop; ARPACK runs on one thread of
scipy's.

The numpy and scipy wheels each bundle their own OpenBLAS with its own thread
pool. The eigensolvers run on scipy's; a numpy matrix product between two of
them leaves numpy's workers spinning while scipy's run. So the modules of the
grouping loop, and the data and annotation modules that `build_training_set`
runs between its per-label eigensolves, make no call that reaches numpy's
BLAS or LAPACK: no `@`, no dot products and no `np.linalg` routine except
`norm`, which reduces with ufuncs when given an axis and through a
single-threaded `ddot` on the short vectors it sees without one. `np.einsum`
is allowed only as it is by default, with `optimize=False`: any other
`optimize` value routes its contractions through `tensordot`.

scipy's pool spins too, for about 125 ms after each threaded call, so every
eigensolve runs in a `_scipy_blas` block, which shuts the pool's workers down
on the way out. ARPACK gains nothing from a second thread, so `eigsh` is
referenced in `spectral.py` only, and only inside `with _scipy_blas(1):`, the
block that runs it on one thread of scipy's pool. The dense route keeps the
pool's count, so `scipy.linalg.eigh` and `scipy.linalg.blas.dgemm` are
referenced in `spectral.py` only, and only inside `with _scipy_blas():`.
"""

import ast
from pathlib import Path

import pytest

import spectralweak

PACKAGE = Path(spectralweak.__file__).resolve().parent
GROUPING_LOOP_MODULES = ("spectral.py", "simgraph.py", "evaluation.py", "dataset.py", "weakanno.py")
NUMPY_BLAS_FUNCTIONS = {"dot", "vdot", "inner", "tensordot", "matmul", "cov", "corrcoef"}


def dotted_name(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def einsum_may_optimize(call):
    """Whether an einsum call may pass an `optimize` other than a literal False."""
    for keyword in call.keywords:
        if keyword.arg is None:  # **kwargs can carry it
            return True
        if keyword.arg == "optimize":
            return not (isinstance(keyword.value, ast.Constant) and keyword.value.value is False)
    return False


def numpy_blas_calls(source):
    """(line, description) of every construct in `source` that can reach
    numpy's BLAS or LAPACK."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name = dotted_name(node.func) or f"<expr>.{node.func.attr}"
            head, _, last = name.rpartition(".")
            if head in ("np.linalg", "numpy.linalg") and last != "norm":
                found.append((node.lineno, name))
            elif last in NUMPY_BLAS_FUNCTIONS and (head in ("np", "numpy") or last == "dot"):
                found.append((node.lineno, name))
            elif last == "einsum" and head in ("np", "numpy") and einsum_may_optimize(node):
                found.append((node.lineno, f"{name}(optimize)"))
        elif isinstance(node, ast.ImportFrom) and node.module in ("numpy", "numpy.linalg"):
            for alias in node.names:
                if alias.name in NUMPY_BLAS_FUNCTIONS or (node.module == "numpy.linalg" and alias.name != "norm"):
                    found.append((node.lineno, f"from {node.module} import {alias.name}"))
    return sorted(found)


@pytest.mark.parametrize("module", GROUPING_LOOP_MODULES)
def test_grouping_loop_makes_no_numpy_blas_call(module):
    assert numpy_blas_calls((PACKAGE / module).read_text()) == []


def test_guard_flags_numpy_blas_constructs():
    source = "\n".join(
        [
            "import numpy as np",
            "from numpy.linalg import inv",
            "a @ b",
            "a @= b",
            "np.dot(a, b)",
            "a.dot(b)",
            "np.matmul(a, b)",
            "np.linalg.solve(a, b)",
            "np.linalg.eigh(a)",
            "np.linalg.eigvalsh(a)",
            "np.linalg.inv(a)",
            "np.linalg.norm(a, axis=0)",
            "np.linalg.norm(a)",
            "scipy.linalg.eigh(a)",
            "scipy.linalg.blas.dgemm(1.0, a, b)",
            "a * b",
            "np.einsum('ij,jk->ik', a, b)",
            "np.einsum('ij,jk->ik', a, b, optimize=False)",
            "np.einsum('ij,jk->ik', a, b, optimize=True)",
            "numpy.einsum('ij,jk->ik', a, b, optimize='greedy')",
            "np.einsum('ij,jk->ik', a, b, optimize=path)",
            "np.einsum('ij,jk->ik', a, b, **options)",
        ]
    )
    assert numpy_blas_calls(source) == [
        (2, "from numpy.linalg import inv"),
        (3, "@"),
        (4, "@"),
        (5, "np.dot"),
        (6, "a.dot"),
        (7, "np.matmul"),
        (8, "np.linalg.solve"),
        (9, "np.linalg.eigh"),
        (10, "np.linalg.eigvalsh"),
        (11, "np.linalg.inv"),
        (19, "np.einsum(optimize)"),
        (20, "numpy.einsum(optimize)"),
        (21, "np.einsum(optimize)"),
        (22, "np.einsum(optimize)"),
    ]


def block_references(source, name, block):
    """(inside, outside): the lines that reference `name` inside and outside
    a `with <block>:` block. Importing the name is never inside."""
    inside, outside = [], []

    def visit(node, within):
        if isinstance(node, ast.With) and any(ast.unparse(item.context_expr) == block for item in node.items):
            for item in node.items:
                visit(item, within)
            for child in node.body:
                visit(child, True)
            return
        if isinstance(node, ast.ImportFrom) and any(alias.name == name for alias in node.names):
            outside.append(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr == name) or (isinstance(node, ast.Name) and node.id == name):
            (inside if within else outside).append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, within)

    visit(ast.parse(source), False)
    return inside, outside


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_eigsh_runs_in_spectral_only_inside_the_one_thread_pin(module):
    pinned, unpinned = block_references((PACKAGE / module).read_text(), "eigsh", "_scipy_blas(1)")
    assert unpinned == []
    assert bool(pinned) == (module == "spectral.py")


def test_guard_flags_unpinned_eigsh():
    source = "\n".join(
        [
            "from scipy.sparse.linalg import eigsh",
            "with _scipy_blas(1):",
            "    scipy.sparse.linalg.eigsh(a, k=2)",
            "    eigsh(a)",
            "with _scipy_blas():",
            "    scipy.sparse.linalg.eigsh(a, k=2)",
            "with contextlib.nullcontext():",
            "    eigsh(a)",
            "with open(f), _scipy_blas(1):",
            "    scipy.sparse.linalg.eigsh(a, k=2)",
            "scipy.sparse.linalg.eigsh(a, k=2)",
            "solve = scipy.sparse.linalg.eigsh",
            "solver = 'eigsh'",
        ]
    )
    assert block_references(source, "eigsh", "_scipy_blas(1)") == ([3, 4, 10], [1, 6, 8, 11, 12])


@pytest.mark.parametrize("name", ["eigh", "dgemm"])
@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_dense_blas_runs_in_spectral_only_inside_the_parking_block(module, name):
    parked, unparked = block_references((PACKAGE / module).read_text(), name, "_scipy_blas()")
    assert unparked == []
    assert bool(parked) == (module == "spectral.py")


def test_guard_flags_unparked_dense_blas():
    source = "\n".join(
        [
            "from scipy.linalg.blas import dgemm",
            "with _scipy_blas():",
            "    vals, vecs = scipy.linalg.eigh(a)",
            "    wu = scipy.linalg.blas.dgemm(1.0, a, b)",
            "with _scipy_blas(1):",
            "    scipy.linalg.eigh(a)",
            "def residual(a, b):",
            "    return scipy.linalg.blas.dgemm(1.0, a, b)",
            "with _scipy_blas():",
            "    pass",
            "scipy.linalg.eigh(a)",
            "solver = 'eigh'",
        ]
    )
    assert block_references(source, "eigh", "_scipy_blas()") == ([3], [6, 11])
    assert block_references(source, "dgemm", "_scipy_blas()") == ([4], [1, 8])
