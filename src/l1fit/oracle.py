"""Exact brute-force minimizer of ||A x - b||_1 for small instances.

Some optimal solution interpolates n of the m rows (for generic data,
exactly n), so enumerating all nonsingular n-row subsets and solving each
square system exactly yields the global minimum.  This is the ground truth
the solver tests compare against.

Subsets are drawn in lexicographic order, ``_BLOCK`` at a time, and each
block is evaluated as one (B, n, n) stack by numpy's stacked ``det`` and
``solve``, so memory stays bounded by the block size however far a caller
raises the size guard.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from .reduction import MlmProblem, SolveReport

__all__ = ["oracle_solve"]

_DET_RTOL = 1e-12
_BLOCK = 2048


def oracle_solve(problem: MlmProblem, max_m: int = 14, max_n: int = 4) -> SolveReport:
    """Enumerate every n-row subset; return the interpolant of least l1 cost.

    Subsets whose determinant is below 1e-12 times the Hadamard bound are
    skipped as singular.  The subsets are evaluated in blocks of at most
    ``_BLOCK``; the answer is the first minimal computed cost in
    lexicographic order, since a block keeps its first minimum and replaces
    the running best only when strictly lower.  ``iterations`` counts the
    nonsingular subsets.  Guarded to m <= max_m, n <= max_n.
    """
    m, n = problem.m, problem.n
    if m > max_m or n > max_n:
        raise ValueError(
            f"instance {m}x{n} exceeds the exhaustive-search guard ({max_m}x{max_n})"
        )
    A, b = problem.A, problem.b
    t0 = time.perf_counter()

    subsets = itertools.combinations(range(m), n)
    best_x = None
    best_cost = np.inf
    evaluated = 0
    while True:
        block = itertools.islice(subsets, _BLOCK)
        rows = np.fromiter(itertools.chain.from_iterable(block), dtype=np.intp).reshape(-1, n)
        if not len(rows):
            break
        sub = A[rows]
        scale = np.prod(np.linalg.norm(sub, axis=2), axis=1)
        keep = np.abs(np.linalg.det(sub)) > _DET_RTOL * scale
        if not keep.any():
            continue
        X = np.linalg.solve(sub[keep], b[rows[keep], None])[..., 0]
        costs = np.abs(X @ A.T - b).sum(axis=1)
        evaluated += len(X)
        i = int(np.argmin(costs))
        if costs[i] < best_cost:
            best_cost = costs[i]
            best_x = X[i].copy()
    if best_x is None:
        raise RuntimeError("every n-row subset is numerically singular")

    return SolveReport.of(problem, best_x, t0, iterations=evaluated, method="ORACLE",
                          converged=True)
